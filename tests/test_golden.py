"""Golden outputs of the fixture eval, compared byte for byte.

Each fixture question runs through ``evaluate_question`` on
``fixtures/combined.tsv`` with the scripted mock backend, once per
retriever mode. The test compares the ``SearchTrace.to_jsonl()`` text and
the question's ``(answers, paths, coverage)`` with the files under
``tests/golden/``. A change that alters any decision, score, prompt or
coverage figure fails here.

The files are never rewritten by the test. When a change is meant to alter
the outputs, regenerate them with

    PYTHONPATH=src python tests/test_golden.py --write

and commit the diff with the change that explains it.
"""

import json
import sys
from pathlib import Path

import pytest

from kgreason.embedding import HashingEmbedder, build_index
from kgreason.evaluate import evaluate_question, load_dataset
from kgreason.kg import load_triples
from kgreason.llm import MockBackend, load_mock_script
from kgreason.pathrag import RETRIEVER_MODES, RetrievalConfig
from kgreason.search import SearchConfig

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = [
    (record_id, mode) for record_id in ("bieber-1", "iran-1") for mode in RETRIEVER_MODES
]


def golden_outputs(record_id: str, mode: str) -> tuple[str, str]:
    """The trace text and the ``(answers, paths, coverage)`` JSON text of
    one fixture question under one retriever mode."""
    with open(FIXTURES / "combined.tsv", "r", encoding="utf-8") as fh:
        g = load_triples(fh)
    emb = HashingEmbedder()
    idx = build_index(g, emb)
    answer_key, plan_script = load_mock_script(FIXTURES / "mock_script.json")
    (record,) = [r for r in load_dataset(str(FIXTURES / "dataset.jsonl")) if r.id == record_id]
    result, trace = evaluate_question(
        record,
        g,
        idx,
        emb,
        MockBackend(g, answer_key, plan_script),
        SearchConfig(),
        RetrievalConfig(mode=mode),
    )
    outcome = {
        "answers": list(result.answers),
        "paths": list(result.paths),
        "coverage": result.coverage,
    }
    return trace.to_jsonl(), json.dumps(outcome, sort_keys=True, indent=2) + "\n"


def golden_paths(record_id: str, mode: str) -> tuple[Path, Path]:
    stem = f"{record_id}.{mode}"
    return GOLDEN / f"{stem}.trace.jsonl", GOLDEN / f"{stem}.outcome.json"


@pytest.mark.parametrize("record_id,mode", CASES)
def test_fixture_outputs_match_golden_files(record_id, mode):
    trace_text, outcome_text = golden_outputs(record_id, mode)
    trace_path, outcome_path = golden_paths(record_id, mode)
    assert trace_text == trace_path.read_text(encoding="utf-8")
    assert outcome_text == outcome_path.read_text(encoding="utf-8")


def write_golden_files() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for record_id, mode in CASES:
        for path, text in zip(golden_paths(record_id, mode), golden_outputs(record_id, mode)):
            path.write_text(text, encoding="utf-8")
            print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {Path(__file__).relative_to(ROOT)} --write")
    write_golden_files()
