"""Smoke test of the benchmark harness against the current sources.

Runs ``perfbench/run.py`` briefly on the hub workload, untraced and traced,
so an API change that breaks the benchmark, or a renamed function that
leaves a per-layer probe unbound, fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# The one probe the traced run reports unbound: ``pathrag.lookahead_score``
# was folded into ``candidate_steps`` and deleted, and the benchmark still
# names it.
EXPECTED_MISSING_PROBES = "pathrag.lookahead_score"


@pytest.mark.parametrize("trace", ["0", "1"])
def test_benchmark_runs_correctly(trace):
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hub-eval", "--seed", "5",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    summary = json.loads(lines[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    if trace == "1":
        missing = [line for line in lines if line.startswith("probes not found: ")]
        assert missing == [f"probes not found: {EXPECTED_MISSING_PROBES}"]
