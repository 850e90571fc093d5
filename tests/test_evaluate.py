import io
import json
import time
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from kgreason.embedding import HashingEmbedder, build_index
from kgreason.kg import KnowledgeGraph, ReasoningPath, ReasoningStep, load_triples, validate_path
from kgreason.llm import LlmClient, MockBackend, load_mock_script
from kgreason.evaluate import (
    REPORT_SCHEMA,
    DatasetError,
    QARecord,
    QuestionResult,
    accuracy,
    avg_depth,
    compute_aggregates,
    evaluate_question,
    f1_score,
    hits_at_1,
    load_dataset,
    normalize,
    run_experiment,
)
from kgreason.search import AnswerSet, SearchConfig
from kgreason import pathrag
from kgreason.pathrag import RETRIEVER_MODES, RetrievalConfig
from kgreason.prompts import DEDUCTIVE_VERIFY


def load_fixture(name):
    with open(f"fixtures/{name}") as fh:
        return load_triples(fh)


def fixture_harness(**backend_kwargs):
    g = load_fixture("combined.tsv")
    emb = HashingEmbedder()
    idx = build_index(g, emb)
    dataset = load_dataset("fixtures/dataset.jsonl")
    with open("fixtures/mock_script.json") as fh:
        answer_key, plan_script = load_mock_script(fh)
    backend = MockBackend(g, answer_key=answer_key, plan_script=plan_script, **backend_kwargs)
    return g, idx, emb, dataset, backend


# --- normalization --------------------------------------------------------------


def test_normalize_rules():
    assert normalize("Islamic_Republic") == "islamic republic"
    assert normalize("  Erin   Wagner ") == "erin wagner"


@given(st.text(max_size=40))
def test_normalize_is_idempotent(text):
    assert normalize(normalize(text)) == normalize(text)


# --- dataset loading --------------------------------------------------------------


MINIMAL = {
    "id": "q1",
    "question": "who?",
    "answers": ["A"],
    "topic_entities": ["S"],
    "ground_truth_paths": [],
}


def dataset_text(*records):
    return "\n".join(json.dumps(r) for r in records) + "\n"


def test_load_minimal_record():
    records = load_dataset(io.StringIO(dataset_text(MINIMAL)))
    assert len(records) == 1
    assert records[0] == QARecord(
        id="q1",
        question="who?",
        answers=("A",),
        topic_entities=("S",),
        ground_truth_paths=(),
    )


def test_load_parses_two_hop_ground_truth():
    raw = dict(
        MINIMAL,
        ground_truth_paths=["S -> r1 -> M -> r2 -> A"],
    )
    records = load_dataset(io.StringIO(dataset_text(raw)))
    (gt,) = records[0].ground_truth_paths
    assert gt == ReasoningPath(
        "S", (ReasoningStep("r1", "M"), ReasoningStep("r2", "A"))
    )
    assert gt.depth == 2


def test_load_missing_answers_names_field_and_line():
    raw = {k: v for k, v in MINIMAL.items() if k != "answers"}
    with pytest.raises(DatasetError) as exc:
        load_dataset(io.StringIO(dataset_text(raw)))
    assert "answers" in str(exc.value)
    assert "line 1" in str(exc.value)


def test_load_rejects_bad_json_line():
    with pytest.raises(DatasetError) as exc:
        load_dataset(io.StringIO(dataset_text(MINIMAL) + "{broken\n"))
    assert "line 2" in str(exc.value)


def test_load_rejects_malformed_path():
    raw = dict(MINIMAL, ground_truth_paths=["A -> -> B"])
    with pytest.raises(DatasetError):
        load_dataset(io.StringIO(dataset_text(raw)))


@pytest.mark.parametrize("field_name", ["answers", "topic_entities"])
@pytest.mark.parametrize("blank", ["_", " _ ", "\t"])
def test_load_rejects_value_that_normalizes_to_nothing(field_name, blank):
    raw = dict(MINIMAL, **{field_name: ["A", blank]})
    with pytest.raises(DatasetError) as exc:
        load_dataset(io.StringIO(dataset_text(MINIMAL) + dataset_text(raw)))
    assert field_name in str(exc.value)
    assert "line 2" in str(exc.value)


def test_load_fixture_dataset():
    records = load_dataset("fixtures/dataset.jsonl")
    assert [r.id for r in records] == ["bieber-1", "iran-1"]
    assert records[1].answers == ("Islamic republic", "Theocracy", "Unitary state")


# --- answer metrics -----------------------------------------------------------------


def test_hits_at_1_normalizes():
    predicted = AnswerSet(answers=("islamic_republic",))
    assert hits_at_1(predicted, ["Islamic Republic"]) == 1


def test_hits_at_1_empty_prediction():
    assert hits_at_1(AnswerSet(), ["A"]) == 0


def test_hits_at_1_is_rank_sensitive():
    assert hits_at_1(AnswerSet(answers=("wrong", "right")), ["right"]) == 0


def test_hits_at_1_requires_gold():
    with pytest.raises(ValueError):
        hits_at_1(AnswerSet(answers=("A",)), [])


def test_f1_perfect_match():
    assert f1_score(["a", "b"], ["A", "B"]) == 1.0


def test_f1_three_of_five():
    got = f1_score(["a", "b", "c"], ["a", "b", "c", "d", "e"])
    assert got == pytest.approx(0.75, abs=1e-12)


def test_f1_disjoint():
    assert f1_score(["x"], ["a"]) == 0.0


def test_accuracy_set_semantics():
    assert accuracy(AnswerSet(answers=("wrong", "Erin_Wagner")), ["Erin Wagner"]) == 1
    assert accuracy(AnswerSet(answers=("wrong",)), ["Erin Wagner"]) == 0
    assert accuracy(AnswerSet(), ["Erin Wagner"]) == 0


names = st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=6)
# Gold answers come from load_dataset, which rejects a list that normalizes
# to nothing; the metrics raise on such a list (see the test after this one).
gold_names = names.filter(lambda xs: any(normalize(x) for x in xs))


@given(names, gold_names)
def test_metrics_bounded_on_random_pairs(predicted, gold):
    answer_set = AnswerSet(answers=tuple(predicted))
    assert 0.0 <= f1_score(predicted, gold) <= 1.0
    assert hits_at_1(answer_set, gold) in (0, 1)
    assert accuracy(answer_set, gold) in (0, 1)


def test_metrics_reject_gold_that_normalizes_to_nothing():
    blank = [" ", "_", "\t_ "]
    with pytest.raises(ValueError):
        f1_score(["A"], blank)
    with pytest.raises(ValueError):
        hits_at_1(AnswerSet(answers=("A",)), blank)
    with pytest.raises(ValueError):
        accuracy(AnswerSet(answers=("A",)), blank)


# --- path metrics -----------------------------------------------------------------


def test_validity_ratio_engine_paths():
    g = load_fixture("bieber.tsv")
    path = ReasoningPath(
        "Justin_Bieber",
        (
            ReasoningStep("people.person.father", "Jeremy_Bieber"),
            ReasoningStep("people.married_to.person", "Erin_Wagner"),
        ),
    )
    report = validate_path(g, path)
    assert (report.valid_step_count, report.total_step_count) == (2, 2)


def test_validity_ratio_corrupted_path():
    g = load_fixture("bieber.tsv")
    corrupted = ReasoningPath(
        "Justin_Bieber",
        (
            ReasoningStep("people.person.father", "Jeremy_Bieber"),
            ReasoningStep("people.married_to.person", "Erin_Wagner"),
            ReasoningStep("fabricated.link", "Nowhere"),
        ),
    )
    report = validate_path(g, corrupted)
    assert (report.valid_step_count, report.total_step_count) == (2, 3)
    assert report.valid_step_count / report.total_step_count == pytest.approx(0.667, abs=1e-3)


def test_validity_ratio_empty_run():
    """A report whose rows emitted no step has no validity ratio."""
    row = QuestionResult(
        record_id="q", question="q?", llm_calls=0, prompt_tokens=0, completion_tokens=0,
        wall_time=0.0, failed=True,
    )
    assert compute_aggregates([row])["validity_ratio"] is None


def test_avg_depth_uniform():
    assert avg_depth([[2, 2], [2]]) == 2.0


def test_avg_depth_mixed_questions():
    assert avg_depth([[1], [3]]) == 2.0


def test_avg_depth_skips_pathless_questions():
    assert avg_depth([[], [4]]) == 4.0
    assert avg_depth([[], []]) is None


# --- batch evaluation ----------------------------------------------------------------


def test_fixture_batch_scores_perfectly():
    g, idx, emb, dataset, backend = fixture_harness()
    report = run_experiment(dataset, g, idx, emb, backend)
    agg = report.aggregates
    assert agg["questions"] == 2
    assert agg["failures"] == 0
    assert agg["hits_at_1"] == 1.0
    assert agg["f1"] == 1.0
    assert agg["accuracy"] == 1.0
    assert agg["avg_depth"] == 2.0
    assert agg["validity_ratio"] == 1.0
    assert agg["coverage_ratio"] == 1.0
    assert agg["avg_llm_calls"] == 5.5
    assert [r.hits_at_1 for r in report.results] == [1, 1]


def test_premature_adequacy_scores_below_deductive():
    g, idx, emb, dataset, backend = fixture_harness()
    deductive = run_experiment(dataset, g, idx, emb, backend)

    g, idx, emb, dataset, eager = fixture_harness(adequacy_rule=lambda b: True)
    adequacy = run_experiment(
        dataset, g, idx, emb, eager, search_config=SearchConfig(adequacy_mode=True)
    )
    assert adequacy.aggregates["avg_depth"] < deductive.aggregates["avg_depth"]
    assert adequacy.aggregates["hits_at_1"] < deductive.aggregates["hits_at_1"]


@pytest.mark.parametrize("question", ["", "  \t"])
def test_record_with_a_blank_question_is_refused(question):
    with pytest.raises(ValueError, match="question must be non-empty"):
        QARecord(id="q", question=question, answers=("A",), topic_entities=("A",))


def test_index_of_another_dimension_aborts_the_batch():
    g, _, _, dataset, backend = fixture_harness()
    idx = build_index(g, HashingEmbedder(dimension=32))
    with pytest.raises(ValueError, match="dimension mismatch"):
        run_experiment(dataset, g, idx, HashingEmbedder(dimension=64), backend)


def test_index_of_another_graph_aborts_the_batch():
    g, _, emb, dataset, backend = fixture_harness()
    idx = build_index(load_fixture("iran.tsv"), emb)
    with pytest.raises(ValueError, match="entity names are not the graph's"):
        run_experiment(dataset, g, idx, emb, backend)


def test_mock_miss_is_isolated_as_failure():
    g, idx, emb, dataset, backend = fixture_harness()
    extra = QARecord(
        id="ghost-1",
        question="Never scripted question?",
        answers=("Nobody",),
        topic_entities=("Justin_Bieber",),
        ground_truth_paths=(),
    )
    report = run_experiment(list(dataset) + [extra], g, idx, emb, backend)
    agg = report.aggregates
    assert agg["questions"] == 3
    assert agg["failures"] == 1
    failed = report.results[2]
    assert failed.failed
    assert failed.hits_at_1 == 0
    assert failed.f1 == 0.0
    # the two healthy questions still average in: 2/3 on hits@1
    assert agg["hits_at_1"] == pytest.approx(2 / 3, abs=1e-12)


class VerifyBugBackend:
    """Answers like the mock, but its verification calls wait and then fail
    with a programming error, so the error surfaces on a pool thread."""

    concurrency_limit = 4

    def __init__(self, inner):
        self.inner = inner

    def complete(self, rendered, params):
        time.sleep(0.005)
        if rendered.key == DEDUCTIVE_VERIFY:
            raise RuntimeError("bug in verification")
        return self.inner.complete(rendered, params)


def test_programming_error_aborts_the_batch():
    g, idx, emb, dataset, backend = fixture_harness()
    with pytest.raises(RuntimeError, match="bug in verification"):
        run_experiment(dataset, g, idx, emb, VerifyBugBackend(backend))


def test_results_preserve_dataset_order_under_parallelism():
    g, idx, emb, dataset, backend = fixture_harness()
    report = run_experiment(dataset, g, idx, emb, backend, parallelism=4)
    assert [r.record_id for r in report.results] == ["bieber-1", "iran-1"]
    assert report.aggregates["hits_at_1"] == 1.0


def test_empty_dataset_rejected():
    g, idx, emb, _, backend = fixture_harness()
    with pytest.raises(ValueError):
        run_experiment([], g, idx, emb, backend)


def test_report_json_is_self_consistent():
    g, idx, emb, dataset, backend = fixture_harness()
    report = run_experiment(dataset, g, idx, emb, backend)
    blob = json.loads(report.to_json_text())
    assert blob["schema"] == REPORT_SCHEMA
    assert blob["config"]["beam_width"] == 4
    recomputed = compute_aggregates(report.results)
    for key in ("hits_at_1", "f1", "accuracy", "avg_depth", "validity_ratio"):
        assert blob["aggregates"][key] == recomputed[key]
    assert len(blob["results"]) == 2
    for row in blob["results"]:
        assert "wall_time" in row


def test_evaluate_question_counts_verdicts_and_calls():
    g, idx, emb, dataset, backend = fixture_harness()
    result, trace = evaluate_question(
        dataset[0], g, idx, emb, backend, SearchConfig(), RetrievalConfig()
    )
    assert result.record_id == "bieber-1"
    assert result.llm_calls == 5
    assert result.verdict_yes == 1
    assert result.verdict_no == 2  # one-hop prefix and the US branch stay open
    assert result.depths == (2,)
    assert trace is not None


def test_aggregate_requires_results():
    with pytest.raises(ValueError):
        compute_aggregates([])


# --- one score context per question ---------------------------------------------


class CountingEmbedder(HashingEmbedder):
    """A hashing embedder that keeps every text it embeds."""

    def __init__(self):
        super().__init__()
        self.texts = []

    def embed(self, text):
        self.texts.append(text)
        return super().embed(text)


def test_question_scores_each_identifier_once_across_depths_and_coverage(monkeypatch):
    g, idx, emb, dataset, backend = fixture_harness()
    batches, ranks = [], []
    real_cosines, real_rank = pathrag.query_cosines, pathrag.ScoreContext.rank

    def counting_cosines(query, query_norm, rows, norms):
        batches.append(rows)
        return real_cosines(query, query_norm, rows, norms)

    def counting_rank(context, *args):
        ranks.append(args)
        return real_rank(context, *args)

    monkeypatch.setattr(pathrag, "query_cosines", counting_cosines)
    monkeypatch.setattr(pathrag.ScoreContext, "rank", counting_rank)
    # each index row is one identifier's
    by_row = {vec.tobytes(): name for name, vec in zip(idx.entity_names, idx.entity_matrix)}
    assert len(by_row) == len(idx.entity_names)
    for record in dataset:
        batches.clear()
        ranks.clear()
        result, trace = evaluate_question(
            record, g, idx, emb, backend, SearchConfig(), RetrievalConfig()
        )
        assert sum(e["event"] == "depth" for e in trace.events) >= 2
        assert result.coverage == 1.0
        # the relations once, then at most one batch of entities per rank call
        assert batches[0] is idx.relation_matrix
        assert 1 <= len(batches) - 1 <= len(ranks)
        scored = [by_row[vec.tobytes()] for rows in batches[1:] for vec in rows]
        assert len(scored) == len(set(scored))


@pytest.mark.parametrize("mode", RETRIEVER_MODES)
def test_question_embeds_its_query_once(mode):
    g, idx, _, dataset, backend = fixture_harness()
    emb = CountingEmbedder()
    for record in dataset:
        emb.texts.clear()
        result, trace = evaluate_question(
            record, g, idx, emb, backend, SearchConfig(), RetrievalConfig(mode=mode)
        )
        (plan,) = [e for e in trace.events if e["event"] == "plan"]
        query = " ".join(plan["keywords"])
        assert result.coverage is not None
        assert emb.texts.count(query) == 1
        if mode == "path-rag":
            assert emb.texts == [query]


def test_kaping_coverage_walks_the_gold_frontiers_not_the_whole_graph(monkeypatch):
    """KAPING coverage ranks each gold frontier's triples, as the search
    does, and never lists the graph's edges."""
    g, idx, emb, dataset, backend = fixture_harness()

    def whole_graph(self):
        raise AssertionError("KnowledgeGraph.edges read while evaluating a question")

    monkeypatch.setattr(KnowledgeGraph, "edges", whole_graph)
    report = run_experiment(dataset, g, idx, emb, backend, retrieval_config=RetrievalConfig(mode="kaping"))
    assert report.aggregates["failures"] == 0
    assert [r.coverage for r in report.results] == [1.0, 1.0]


def test_parallel_report_equals_serial():
    g, idx, emb, dataset, backend = fixture_harness()
    dataset = [replace(r, id=f"{r.id}-{i}") for i in range(4) for r in dataset]

    def untimed(report):
        blob = report.to_json()
        del blob["aggregates"]["avg_runtime"]
        for row in blob["results"]:
            del row["wall_time"]
        return blob

    serial = run_experiment(dataset, g, idx, emb, backend)
    parallel = run_experiment(dataset, g, idx, emb, backend, parallelism=4)
    assert untimed(parallel) == untimed(serial)
    assert serial.aggregates["coverage_ratio"] == 1.0
