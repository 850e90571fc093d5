"""The in-process pair runner (``tools/ab_inprocess.py``): two trees import
side by side under names of their own."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import kgreason

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("ab_inprocess", ROOT / "tools" / "ab_inprocess.py")
ab_inprocess = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_inprocess)


def test_a_tree_imports_beside_kgreason_under_its_own_name():
    name = "kgreason_under_test"
    try:
        tree = ab_inprocess.import_tree(ROOT / "src", name)
        assert tree.search.__name__ == f"{name}.search"
        assert tree.SearchConfig is not kgreason.SearchConfig
        assert tree.call_budget(tree.SearchConfig()) == kgreason.call_budget(kgreason.SearchConfig())
    finally:
        for module in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
            del sys.modules[module]


def test_side_summary_reads_medians_and_sums():
    summary = ab_inprocess.side_summary([0.3, 0.1, 0.2], {"q1": 0.002, "q2": 0.004}, 20, 900)
    assert summary["setup_s_median"] == 0.2
    assert summary["setup_s_quartiles"] == pytest.approx([0.15, 0.25])
    assert summary["question_min_s_sum"] == pytest.approx(0.006)
    assert summary["question_min_ms_median"] == 3.0
    assert (summary["llm_calls"], summary["prompt_tokens"]) == (20, 900)


def test_median_interval_holds_the_median():
    rng = np.random.default_rng(1)
    assert ab_inprocess.median_interval([1.0] * 9, rng) == [1.0, 1.0]
    low, high = ab_inprocess.median_interval([0.9, 0.95, 1.0, 1.05, 1.1], rng)
    assert 0.9 <= low <= 1.0 <= high <= 1.1
