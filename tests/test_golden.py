"""Golden outputs of the fixture eval, compared byte for byte.

Each fixture question runs through ``evaluate_question`` on
``fixtures/combined.tsv`` with the scripted mock backend, once per
retriever mode under the default ``SearchConfig``, and once per
non-default setting in ``SETTINGS`` under the path-rag mode. The tests
compare the ``SearchTrace.to_jsonl()`` text and
the question's ``(answers, paths, coverage)`` with the files under
``tests/golden/``. A change that alters any decision, score, prompt or
coverage figure fails here. Each committed trace is also replayed through
``ReplayBackend`` and ``run_dvbs`` under its own settings, and the trace
that run records must equal the file, so recording, bindings digests and
replay stay in step. ``report.json`` holds the ``RunReport`` of one
fixture eval with a failing backend and a missing topic entity, wall times
zeroed, so the report's rows and aggregates are checked the same way.
``combined.index.sha256`` holds the sha256 of the ``kgreason-index/2`` file
that ``save_index`` writes for ``build_index`` of the fixture graph with the
default ``HashingEmbedder``, so any change to an embedded vector or to the
index layout fails here.

The files are never rewritten by the test. When a change is meant to alter
the outputs, regenerate them with

    PYTHONPATH=src python tests/test_golden.py --write

and commit the diff with the change that explains it.
"""

import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from kgreason.embedding import HashingEmbedder, build_index, save_index
from kgreason.evaluate import QARecord, RunReport, evaluate_question, load_dataset, run_experiment
from kgreason.kg import load_triples
from kgreason.llm import LlmClient, LlmError, MockBackend, ReplayBackend, load_mock_script
from kgreason.pathrag import RETRIEVER_MODES, RetrievalConfig, ScoreContext
from kgreason.search import SearchConfig, SearchTrace, run_dvbs

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
RECORD_IDS = ("bieber-1", "iran-1")
CASES = [(record_id, mode) for record_id in RECORD_IDS for mode in RETRIEVER_MODES]
# Search and retrieval settings that take the branches the default config
# never reaches: answers from live paths, the adequacy check, width-1
# selection with truncation prunes, selection by score at the only depth,
# and frontiers with more neighbours than m, whose candidates are truncated.
SETTINGS = {
    "no-verifier": (SearchConfig(use_deductive_verifier=False), RetrievalConfig()),
    "adequacy": (SearchConfig(adequacy_mode=True), RetrievalConfig()),
    "no-beam": (SearchConfig(use_beam_search=False), RetrievalConfig()),
    "depth-1": (SearchConfig(max_depth=1), RetrievalConfig()),
    "m-2": (SearchConfig(), RetrievalConfig(m=2)),
}
SETTING_CASES = [(record_id, setting) for record_id in RECORD_IDS for setting in SETTINGS]
# Every golden trace as (record id, retriever mode, setting or None).
TRACE_CASES = [(record_id, mode, None) for record_id, mode in CASES]
TRACE_CASES += [(record_id, "path-rag", setting) for record_id, setting in SETTING_CASES]
REPORT_PATH = GOLDEN / "report.json"
INDEX_DIGEST_PATH = GOLDEN / "combined.index.sha256"
MISSING_TOPIC = QARecord(
    id="atlantis-1",
    question="Who rules Atlantis?",
    answers=("Poseidon",),
    topic_entities=("Atlantis",),
)


def fixture_eval():
    """The fixture graph, embedder, index, mock backend and dataset."""
    with open(FIXTURES / "combined.tsv", "r", encoding="utf-8") as fh:
        g = load_triples(fh)
    emb = HashingEmbedder()
    idx = build_index(g, emb)
    answer_key, plan_script = load_mock_script(FIXTURES / "mock_script.json")
    dataset = load_dataset(str(FIXTURES / "dataset.jsonl"))
    return g, emb, idx, MockBackend(g, answer_key, plan_script), dataset


def golden_outputs(
    record_id: str, search_config: SearchConfig, retrieval_config: RetrievalConfig
) -> tuple[str, str]:
    """The trace text and the ``(answers, paths, coverage)`` JSON text of
    one fixture question under one search and retrieval config."""
    g, emb, idx, backend, dataset = fixture_eval()
    (record,) = [r for r in dataset if r.id == record_id]
    result, trace = evaluate_question(
        record, g, idx, emb, backend, search_config, retrieval_config
    )
    outcome = {
        "answers": list(result.answers),
        "paths": list(result.paths),
        "coverage": result.coverage,
    }
    return trace.to_jsonl(), json.dumps(outcome, sort_keys=True, indent=2) + "\n"


class FailOnCall:
    """Serves a backend's answers, but raises ``LlmError`` on the n-th call
    made for one question."""

    concurrency_limit = 1

    def __init__(self, backend, question: str, n: int):
        self.backend, self.question, self.n = backend, question, n
        self.calls = 0

    def complete(self, rendered, params):
        if rendered.bindings["query"] == self.question:
            self.calls += 1
            if self.calls == self.n:
                raise LlmError(f"injected failure on call {self.n}")
        return self.backend.complete(rendered, params)


def golden_report() -> str:
    """The report text of the fixture dataset plus ``MISSING_TOPIC``, with
    the backend failing on the Bieber question's 4th call (its second
    depth-2 verification), and every wall time zeroed."""
    g, emb, idx, backend, dataset = fixture_eval()
    (bieber,) = [r for r in dataset if r.id == "bieber-1"]
    failing = FailOnCall(backend, bieber.question, 4)
    report = run_experiment(dataset + [MISSING_TOPIC], g, idx, emb, failing)
    masked = RunReport(
        results=tuple(replace(r, wall_time=0.0) for r in report.results),
        aggregates={**report.aggregates, "avg_runtime": 0.0},
        config=report.config,
    )
    return masked.to_json_text()


def golden_index_digest() -> str:
    """The sha256 line of the fixture graph's saved index."""
    with open(FIXTURES / "combined.tsv", "r", encoding="utf-8") as fh:
        idx = build_index(load_triples(fh), HashingEmbedder())
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "combined.index"
        save_index(idx, path)
        return hashlib.sha256(path.read_bytes()).hexdigest() + "\n"


def case_configs(mode: str, setting: str | None) -> tuple[SearchConfig, RetrievalConfig]:
    return SETTINGS[setting] if setting else (SearchConfig(), RetrievalConfig(mode=mode))


def golden_paths(record_id: str, mode: str, setting: str | None = None) -> tuple[Path, Path]:
    stem = f"{record_id}.{mode}" if setting is None else f"{record_id}.{mode}.{setting}"
    return GOLDEN / f"{stem}.trace.jsonl", GOLDEN / f"{stem}.outcome.json"


@pytest.mark.parametrize("record_id,mode", CASES)
def test_fixture_outputs_match_golden_files(record_id, mode):
    trace_text, outcome_text = golden_outputs(record_id, SearchConfig(), RetrievalConfig(mode=mode))
    trace_path, outcome_path = golden_paths(record_id, mode)
    assert trace_text == trace_path.read_text(encoding="utf-8")
    assert outcome_text == outcome_path.read_text(encoding="utf-8")


@pytest.mark.parametrize("record_id,setting", SETTING_CASES)
def test_search_settings_match_golden_files(record_id, setting):
    trace_text, outcome_text = golden_outputs(record_id, *SETTINGS[setting])
    trace_path, outcome_path = golden_paths(record_id, "path-rag", setting)
    assert trace_text == trace_path.read_text(encoding="utf-8")
    assert outcome_text == outcome_path.read_text(encoding="utf-8")


@pytest.mark.parametrize("record_id,mode,setting", TRACE_CASES)
def test_golden_trace_replays_byte_for_byte(record_id, mode, setting):
    trace_path, _ = golden_paths(record_id, mode, setting)
    recorded_text = trace_path.read_text(encoding="utf-8")
    recorded = SearchTrace.from_jsonl(trace_path)
    start = recorded.events[0]
    g, emb, idx, _, _ = fixture_eval()
    client = LlmClient(ReplayBackend(recorded.call_records()))
    _, replayed = run_dvbs(
        start["question"], start["topic_entities"], ScoreContext(g, idx, emb), client,
        *case_configs(mode, setting),
    )
    assert replayed.to_jsonl() == recorded_text


def test_report_matches_golden_file():
    assert golden_report() == REPORT_PATH.read_text(encoding="utf-8")


def test_index_file_matches_golden_digest():
    assert golden_index_digest() == INDEX_DIGEST_PATH.read_text(encoding="utf-8")


def write_golden_files() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for record_id, mode, setting in TRACE_CASES:
        texts = golden_outputs(record_id, *case_configs(mode, setting))
        for path, text in zip(golden_paths(record_id, mode, setting), texts):
            path.write_text(text, encoding="utf-8")
            print(f"wrote {path.relative_to(ROOT)}")
    REPORT_PATH.write_text(golden_report(), encoding="utf-8")
    print(f"wrote {REPORT_PATH.relative_to(ROOT)}")
    INDEX_DIGEST_PATH.write_text(golden_index_digest(), encoding="utf-8")
    print(f"wrote {INDEX_DIGEST_PATH.relative_to(ROOT)}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {Path(__file__).relative_to(ROOT)} --write")
    write_golden_files()
