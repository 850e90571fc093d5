"""Dataset loading, answer metrics, and batch evaluation.

Answer matching is intentionally forgiving about surface form: predictions
and gold answers are lowercased, trimmed, whitespace-collapsed, and
underscores count as spaces. That rule is ``kg.normalize``, the one the mock
backend and the final-answer matching use too; it is re-exported here.

Batch evaluation isolates per-question faults: a question whose backend
fails or whose topic entities are missing scores zero and lands in a failure
tally while the rest of the batch proceeds. Any other exception, such as a
set-up fault (an index of another graph or dimension) or a programming
error, aborts the batch. All aggregates are macro-averages recomputable from
the per-question records.
"""

from __future__ import annotations

import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import IO, Iterable, Mapping, Sequence, Union

from .embedding import Embedder, EmbeddingIndex
from .kg import KnowledgeGraph, PathParseError, ReasoningPath, normalize, read_text, split_lines, validate_path
from .llm import DecodeParams, LlmBackend, LlmClient, LlmError, SharedBackend, UsageLedger
from .pathrag import RetrievalConfig, ScoreContext, coverage_ratio, retrieved_steps_along_path
from .search import (
    REASON_BACKEND_FAILURE,
    AnswerSet,
    SearchConfig,
    SearchTrace,
    TopicEntityError,
    run_config,
    run_dvbs,
)

logger = logging.getLogger(__name__)

REPORT_SCHEMA = "kgreason-report/1"

def _normalized_set(items: Iterable[str]) -> set[str]:
    return {normalize(item) for item in items if normalize(item)}


class DatasetError(ValueError):
    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class QARecord:
    id: str
    question: str
    answers: tuple[str, ...]
    topic_entities: tuple[str, ...]
    ground_truth_paths: tuple[ReasoningPath, ...] = ()

    def __post_init__(self):
        if not self.question.strip():
            raise ValueError("question must be non-empty")
        if not self.answers:
            raise ValueError("answers must be non-empty")
        if not self.topic_entities:
            raise ValueError("topic_entities must be non-empty")


def load_dataset(source: Union[str, IO[str]]) -> list[QARecord]:
    """Parse a JSON-lines dataset; every schema violation reports its line."""
    records = []
    for line_number, line in enumerate(split_lines(read_text(source)), start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"invalid JSON: {exc}", line_number)
        if not isinstance(raw, dict):
            raise DatasetError("record is not a JSON object", line_number)
        records.append(_parse_record(raw, line_number))
    return records


def _parse_record(raw: dict, line_number: int) -> QARecord:
    for field_name in ("id", "question", "answers", "topic_entities"):
        if field_name not in raw:
            raise DatasetError(f"missing field {field_name!r}", line_number)
    record_id = raw["id"]
    if not isinstance(record_id, (str, int)):
        raise DatasetError("field 'id' must be a string or integer", line_number)
    question = raw["question"]
    if not isinstance(question, str) or not question.strip():
        raise DatasetError("field 'question' must be a non-empty string", line_number)
    answers = _string_list(raw, "answers", line_number)
    topic_entities = _string_list(raw, "topic_entities", line_number)
    gt_raw = raw.get("ground_truth_paths", [])
    if not isinstance(gt_raw, list):
        raise DatasetError("field 'ground_truth_paths' must be an array", line_number)
    paths = []
    for text in gt_raw:
        if not isinstance(text, str):
            raise DatasetError("ground-truth paths must be strings", line_number)
        try:
            paths.append(ReasoningPath.from_arrow(text))
        except PathParseError as exc:
            raise DatasetError(f"bad ground-truth path: {exc}", line_number)
    return QARecord(
        id=str(record_id),
        question=question,
        answers=answers,
        topic_entities=topic_entities,
        ground_truth_paths=tuple(paths),
    )


def _string_list(raw: dict, field_name: str, line_number: int) -> tuple[str, ...]:
    """A non-empty list of strings, none of which normalizes to nothing: an
    answer such as "_" could never be matched, and scoring rejects it."""
    value = raw[field_name]
    if (
        not isinstance(value, list)
        or not value
        or not all(isinstance(v, str) and normalize(v) for v in value)
    ):
        raise DatasetError(
            f"field {field_name!r} must be a non-empty array of strings that are "
            "not blank once normalized",
            line_number,
        )
    return tuple(value)


# --- Answer metrics ---------------------------------------------------------

def hits_at_1(predicted: AnswerSet, gold: Iterable[str]) -> int:
    """1 iff the top-ranked predicted answer matches any gold answer after
    normalization; empty predictions score 0."""
    gold_set = _normalized_set(gold)
    if not gold_set:
        raise ValueError("gold answers must be non-empty")
    top = predicted.top_answer
    if top is None:
        return 0
    return 1 if normalize(top) in gold_set else 0


def f1_score(predicted: Iterable[str], gold: Iterable[str]) -> float:
    """Set F1 (2PR / (P+R)) over normalized answer sets."""
    gold_set = _normalized_set(gold)
    if not gold_set:
        raise ValueError("gold answers must be non-empty")
    pred_set = _normalized_set(predicted)
    if not pred_set:
        return 0.0
    overlap = len(pred_set & gold_set)
    # 2PR/(P+R) reduced to counts; one division keeps round values exact.
    return 2 * overlap / (len(pred_set) + len(gold_set))


def accuracy(predicted: AnswerSet, gold: Iterable[str]) -> int:
    """1 iff the normalized predicted set intersects the gold set."""
    gold_set = _normalized_set(gold)
    if not gold_set:
        raise ValueError("gold answers must be non-empty")
    return 1 if _normalized_set(predicted.answers) & gold_set else 0


def avg_depth(depths_per_question: Sequence[Sequence[int]]) -> float | None:
    """Per-question mean path depth, macro-averaged over questions that
    produced at least one path."""
    means = [sum(ds) / len(ds) for ds in depths_per_question if ds]
    if not means:
        return None
    return sum(means) / len(means)


# --- Batch evaluation -------------------------------------------------------

@dataclass(frozen=True, kw_only=True)
class QuestionResult:
    """One question's report row. The answer-derived fields default to the
    zero score that a failed question gets."""

    record_id: str
    question: str
    answers: tuple[str, ...] = ()
    paths: tuple[str, ...] = ()
    depths: tuple[int, ...] = ()
    hits_at_1: int = 0
    f1: float = 0.0
    accuracy: int = 0
    coverage: float | None = None
    valid_steps: int = 0
    total_steps: int = 0
    verdict_yes: int = 0
    verdict_no: int = 0
    llm_calls: int
    prompt_tokens: int
    completion_tokens: int
    wall_time: float
    failed: bool = False
    failure: str | None = None

    def to_json(self) -> dict:
        """The report row: every field, ``record_id`` written as ``id`` and
        tuples as lists."""
        row = {}
        for f in fields(self):
            value = getattr(self, f.name)
            row["id" if f.name == "record_id" else f.name] = (
                list(value) if isinstance(value, tuple) else value
            )
        return row


@dataclass(frozen=True)
class RunReport:
    results: tuple[QuestionResult, ...]
    aggregates: dict
    config: dict

    def to_json(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "config": self.config,
            "aggregates": self.aggregates,
            "results": [r.to_json() for r in self.results],
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n"


def compute_aggregates(results: Sequence[QuestionResult]) -> dict:
    """Aggregate per-question records; failed questions score zero on answer
    metrics and are excluded from path-based ones."""
    n = len(results)
    if n == 0:
        raise ValueError("cannot aggregate an empty result list")
    depth_mean = avg_depth([r.depths for r in results])
    coverages = [r.coverage for r in results if r.coverage is not None]
    total_steps = sum(r.total_steps for r in results)
    valid_steps = sum(r.valid_steps for r in results)
    return {
        "questions": n,
        "failures": sum(1 for r in results if r.failed),
        "hits_at_1": sum(r.hits_at_1 for r in results) / n,
        "f1": sum(r.f1 for r in results) / n,
        "accuracy": sum(r.accuracy for r in results) / n,
        "avg_depth": depth_mean,
        "coverage_ratio": sum(coverages) / len(coverages) if coverages else None,
        "validity_ratio": (valid_steps / total_steps) if total_steps else None,
        "avg_llm_calls": sum(r.llm_calls for r in results) / n,
        "avg_prompt_tokens": sum(r.prompt_tokens for r in results) / n,
        "avg_completion_tokens": sum(r.completion_tokens for r in results) / n,
        "avg_runtime": sum(r.wall_time for r in results) / n,
    }


def _question_coverage(
    record: QARecord, retrieval_config: RetrievalConfig, context: ScoreContext
) -> float | None:
    """Mean coverage of the ground-truth paths against the search's query."""
    ratios = [
        coverage_ratio(retrieved_steps_along_path(context, gt, retrieval_config), gt)
        for gt in record.ground_truth_paths
    ]
    return sum(ratios) / len(ratios) if ratios else None


def _verdict_counts(events: Iterable[dict]) -> tuple[int, int]:
    halted = [bool(event.get("halted")) for event in events if event.get("event") == "verdict"]
    return halted.count(True), halted.count(False)


def evaluate_question(
    record: QARecord,
    g: KnowledgeGraph,
    idx: EmbeddingIndex,
    emb: Embedder,
    backend: LlmBackend,
    search_config: SearchConfig,
    retrieval_config: RetrievalConfig,
    demonstrations: Mapping[str, Sequence[str]] | None = None,
    params: DecodeParams = DecodeParams(),
) -> tuple[QuestionResult, SearchTrace | None]:
    """Run one question with a fresh ledger and score the outcome. A backend
    failure or a missing topic entity scores as a failed question, its
    ``failure`` reading ``"<error type>: <error>"``; any other exception
    propagates. The search and the coverage walk share one score context, so
    each similarity is computed once."""
    ledger = UsageLedger()
    client = LlmClient(backend, ledger=ledger, params=params, demonstrations=demonstrations)
    context = ScoreContext(g, idx, emb)
    started = time.monotonic()
    try:
        answers, trace = run_dvbs(
            record.question, record.topic_entities, context, client, search_config, retrieval_config
        )
    except (LlmError, TopicEntityError) as exc:
        logger.warning("question %s failed: %s", record.id, exc)
        answers, trace, failure = AnswerSet(), None, f"{type(exc).__name__}: {exc}"
    else:
        failure = None
        if answers.reason == REASON_BACKEND_FAILURE:
            (event,) = [e for e in trace.events if e["event"] == "backend-failure"]
            failure = f"{event['error_type']}: {event['error']}"
    wall = time.monotonic() - started
    usage = ledger.snapshot()
    emitted = answers.supporting_paths + answers.indirect_paths
    yes, no = _verdict_counts(trace.events if trace is not None else ())
    scores = {}
    if failure is None:
        scores = dict(
            answers=answers.answers,
            hits_at_1=hits_at_1(answers, record.answers),
            f1=f1_score(answers.answers, record.answers),
            accuracy=accuracy(answers, record.answers),
            coverage=_question_coverage(record, retrieval_config, context),
        )
    result = QuestionResult(
        record_id=record.id,
        question=record.question,
        paths=tuple(p.to_arrow() for p in emitted),
        depths=tuple(p.depth for p in emitted),
        valid_steps=sum(validate_path(g, p).valid_step_count for p in emitted),
        total_steps=sum(p.depth for p in emitted),
        verdict_yes=yes,
        verdict_no=no,
        llm_calls=usage["llm_calls"],
        prompt_tokens=usage["prompt_tokens"],
        completion_tokens=usage["completion_tokens"],
        wall_time=wall,
        failed=failure is not None,
        failure=failure,
        **scores,
    )
    return result, trace


def run_experiment(
    dataset: Sequence[QARecord],
    g: KnowledgeGraph,
    idx: EmbeddingIndex,
    emb: Embedder,
    backend: LlmBackend,
    search_config: SearchConfig = SearchConfig(),
    retrieval_config: RetrievalConfig = RetrievalConfig(),
    demonstrations: Mapping[str, Sequence[str]] | None = None,
    parallelism: int = 1,
    params: DecodeParams = DecodeParams(),
) -> RunReport:
    """Evaluate a dataset; a failed question (see ``evaluate_question``)
    never aborts the batch, a set-up fault does, and the per-question record
    order always follows the dataset order."""
    if not dataset:
        raise ValueError("no records in dataset")
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")

    def one(record: QARecord, backend: LlmBackend) -> QuestionResult:
        result, _ = evaluate_question(
            record, g, idx, emb, backend, search_config, retrieval_config, demonstrations, params
        )
        return result

    if parallelism == 1 or len(dataset) == 1:
        results = [one(r, backend) for r in dataset]
    else:
        # Each question may verify concurrently too, so all the questions'
        # calls share the backend's concurrency_limit slots.
        shared = SharedBackend(backend)
        workers = min(parallelism, shared.concurrency_limit, len(dataset))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda r: one(r, shared), dataset))
    return RunReport(
        results=tuple(results),
        aggregates=compute_aggregates(results),
        config=run_config(search_config, retrieval_config),
    )
