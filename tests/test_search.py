import io
import json
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from kgreason import llm as llm_module
from kgreason.embedding import HashingEmbedder, build_index
from kgreason.kg import (
    KnowledgeGraph,
    ReasoningPath,
    ReasoningStep,
    Triple,
    load_triples,
    validate_path,
)
from kgreason.llm import (
    CallRecord,
    LlmClient,
    LlmError,
    MockBackend,
    ScriptedBackend,
    ReplayBackend,
    load_mock_script,
)
from kgreason.evaluate import QARecord, evaluate_question, load_dataset, run_experiment
from kgreason.pathrag import RETRIEVER_MODES, RetrievalConfig, ScoreContext
from kgreason.prompts import DEDUCTIVE_VERIFY
from kgreason.search import (
    PRUNE_NO_CANDIDATES,
    PRUNE_WIDTH_TRUNCATION,
    REASON_BACKEND_FAILURE,
    REASON_NO_DEDUCIBLE_PATH,
    SELECT_BY_LLM,
    SELECT_FALLBACK,
    SELECT_SATURATED,
    TRACE_SCHEMA,
    AnswerSet,
    SearchConfig,
    SearchTrace,
    TopicEntityError,
    adequacy_verify,
    call_budget,
    final_reason,
    run_dvbs,
    select_steps,
    verify_global,
)
from kgreason.llm import Plan


def load_fixture(name):
    with open(f"fixtures/{name}") as fh:
        return load_triples(fh)


def mock_runner(kg_file="combined.tsv", **backend_kwargs):
    g = load_fixture(kg_file)
    emb = HashingEmbedder()
    idx = build_index(g, emb)
    with open("fixtures/mock_script.json") as fh:
        answer_key, plan_script = load_mock_script(fh)
    backend = MockBackend(g, answer_key=answer_key, plan_script=plan_script, **backend_kwargs)
    return g, idx, emb, LlmClient(backend)


BIEBER_Q = "Who is the ex-wife of Justin Bieber's father?"
IRAN_Q = "What form of government is in the country that uses the Iranian rial?"


PLAN = Plan(keywords=("k",), planning_steps=("s1",), declarative_statement="x *placeholder*")


def bieber_plan():
    return Plan(
        keywords=("ex-wife", "father"),
        planning_steps=(),
        declarative_statement="The ex-wife of Justin Bieber's father is *placeholder*.",
    )


class RecordingBackend:
    """Wraps a backend, capturing every rendered prompt it serves."""

    def __init__(self, inner):
        self.inner = inner
        self.concurrency_limit = inner.concurrency_limit
        self.seen = []

    def complete(self, rendered, params):
        self.seen.append(rendered)
        return self.inner.complete(rendered, params)


class SlowBackend:
    """Wraps a backend: every call sleeps ``delay`` seconds first, the most
    calls in flight at once is kept, and calls ``fail`` picks raise. Like
    any third-party wrapper, it declares only what the client reads."""

    def __init__(self, inner, concurrency_limit, delay=0.005, fail=None):
        self.inner = inner
        self.concurrency_limit = concurrency_limit
        self.delay = delay
        self.fail = fail
        self._lock = threading.Lock()
        self.in_flight = 0
        self.max_in_flight = 0

    def complete(self, rendered, params):
        with self._lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        try:
            time.sleep(self.delay)
            if self.fail is not None and self.fail(rendered):
                raise LlmError(f"injected failure for {rendered.bindings.get('terminal_entity')}")
            return self.inner.complete(rendered, params)
        finally:
            with self._lock:
                self.in_flight -= 1


@pytest.fixture
def pools_started(monkeypatch):
    """Every thread pool a run starts."""
    started = []
    real = llm_module.ThreadPoolExecutor

    def counting(*args, **kwargs):
        started.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(llm_module, "ThreadPoolExecutor", counting)
    return started


# --- call budget ---------------------------------------------------------------


def test_call_budget_formula():
    assert call_budget(SearchConfig(beam_width=1, max_depth=1)) == 3
    assert call_budget(SearchConfig(beam_width=4, max_depth=4)) == 21
    assert call_budget(SearchConfig(beam_width=3, max_depth=2)) == 9


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(beam_width=0)
    with pytest.raises(ValueError):
        SearchConfig(max_depth=0)


def test_effective_width_without_beam_search():
    assert SearchConfig(beam_width=4, use_beam_search=False).effective_width == 1
    assert SearchConfig(beam_width=4).effective_width == 4


# --- verification ops -----------------------------------------------------------


def test_verify_global_empty_path_costs_nothing():
    g = load_fixture("bieber.tsv")
    client = LlmClient(MockBackend(g, answer_key={}))
    got = verify_global(client, "q?", PLAN, ReasoningPath("Justin_Bieber"))
    assert got is False
    assert client.ledger.llm_calls == 0


def test_verify_global_requires_placeholder():
    """verify_global takes a Plan, and a Plan cannot lack the slot."""
    with pytest.raises(ValueError):
        Plan(keywords=("k",), planning_steps=(), declarative_statement="statement without slot")


def test_verify_global_fills_cloze_with_terminal_entity():
    g = load_fixture("bieber.tsv")
    backend = RecordingBackend(
        MockBackend(g, answer_key={BIEBER_Q: ["Erin Wagner"]})
    )
    client = LlmClient(backend)
    plan = bieber_plan()
    two_hop = ReasoningPath(
        "Justin_Bieber",
        (
            ReasoningStep("people.person.father", "Jeremy_Bieber"),
            ReasoningStep("people.married_to.person", "Erin_Wagner"),
        ),
    )
    assert verify_global(client, BIEBER_Q, plan, two_hop) is True
    rendered = backend.seen[-1]
    assert rendered.bindings["declarative_statement"] == (
        "The ex-wife of Justin Bieber's father is Erin_Wagner."
    )
    assert "Justin_Bieber -> people.person.father -> Jeremy_Bieber" in rendered.bindings[
        "parsed_reasoning_path"
    ]


def test_verify_global_one_hop_prefix_stays_open():
    g = load_fixture("bieber.tsv")
    client = LlmClient(MockBackend(g, answer_key={BIEBER_Q: ["Erin Wagner"]}))
    plan = bieber_plan()
    one_hop = ReasoningPath(
        "Justin_Bieber", (ReasoningStep("people.person.father", "Jeremy_Bieber"),)
    )
    assert verify_global(client, BIEBER_Q, plan, one_hop) is False
    assert client.ledger.llm_calls == 1


def test_adequacy_empty_path_costs_nothing():
    g = load_fixture("bieber.tsv")
    client = LlmClient(MockBackend(g, answer_key={}))
    assert adequacy_verify(client, "q?", ReasoningPath("A")) is False
    assert client.ledger.llm_calls == 0


def test_adequacy_matches_deductive_when_verdicts_coincide():
    """Same scripted verdicts in both modes halt the same path."""
    path = ReasoningPath("A", (ReasoningStep("r", "B"),))
    ded_client = LlmClient(ScriptedBackend(["yes"]))
    adq_client = LlmClient(ScriptedBackend(["yes"]))
    assert verify_global(ded_client, "q?", PLAN, path) is True
    assert adequacy_verify(adq_client, "q?", path) is True


# --- beam selection ---------------------------------------------------------------


def make_pool(n, start="S"):
    return [f"{start} -> r -> E{i}" for i in range(n)]


def test_select_echo_keeps_first_k():
    g = load_fixture("bieber.tsv")
    client = LlmClient(MockBackend(g, answer_key={}))
    pool = make_pool(6)
    chosen, mode = select_steps(client, "q?", PLAN, pool, k=4)
    assert mode == SELECT_BY_LLM
    assert chosen == [0, 1, 2, 3]
    assert client.ledger.llm_calls == 1


def test_select_out_of_range_falls_back_with_flag():
    client = LlmClient(ScriptedBackend(["[7]"]))
    pool = make_pool(3)
    chosen, mode = select_steps(client, "q?", PLAN, pool, k=2)
    assert mode == SELECT_FALLBACK
    assert chosen == [0, 1]


def test_select_saturated_pool_costs_nothing():
    g = load_fixture("bieber.tsv")
    client = LlmClient(MockBackend(g, answer_key={}))
    pool = make_pool(2)
    chosen, mode = select_steps(client, "q?", PLAN, pool, k=4)
    assert mode == SELECT_SATURATED
    assert chosen == [0, 1]
    assert client.ledger.llm_calls == 0


def test_select_short_valid_list_fills_from_score_order():
    client = LlmClient(ScriptedBackend(["[2]"]))
    pool = make_pool(5)
    chosen, mode = select_steps(client, "q?", PLAN, pool, k=3)
    assert mode == SELECT_BY_LLM
    assert chosen == [2, 0, 1]


def test_select_drops_duplicates_and_booleans():
    client = LlmClient(ScriptedBackend(["[1, 1, true, 0]"]))
    pool = make_pool(4)
    chosen, _ = select_steps(client, "q?", PLAN, pool, k=2)
    assert chosen == [1, 0]


# --- final reasoning ---------------------------------------------------------------


def test_final_reason_zero_paths():
    g = load_fixture("bieber.tsv")
    client = LlmClient(MockBackend(g, answer_key={}))
    got = final_reason(client, "q?", [])
    assert got.answers == ()
    assert got.reason == REASON_NO_DEDUCIBLE_PATH
    assert got.top_answer is None
    assert client.ledger.llm_calls == 0


def test_final_reason_ablation_returns_terminals():
    g = load_fixture("bieber.tsv")
    client = LlmClient(MockBackend(g, answer_key={}))
    paths = [
        ReasoningPath("A", (ReasoningStep("r", "B"),)),
        ReasoningPath("A", (ReasoningStep("r", "C"),)),
    ]
    config = SearchConfig(use_last_step_reasoning=False)
    got = final_reason(client, "q?", paths, config)
    assert got.answers == ("B", "C")
    assert client.ledger.llm_calls == 0


def test_final_reason_mock_answers_three_paths():
    g = load_fixture("iran.tsv")
    client = LlmClient(MockBackend(g, answer_key={}))
    paths = [
        ReasoningPath("Iran", (ReasoningStep("location.country.form_of_government", e),))
        for e in ("Islamic_republic", "Theocracy", "Unitary_state")
    ]
    got = final_reason(client, IRAN_Q, paths)
    assert set(got.answers) == {"Islamic_republic", "Theocracy", "Unitary_state"}
    assert len(got.supporting_paths) == 3


CAPITALS = [
    ReasoningPath("USA", (ReasoningStep("capital", e),))
    for e in ("Washington, D.C.", "Washington", "Paris, Texas")
]


@pytest.mark.parametrize(
    "response, answers, indirect",
    [
        # The mock's echo of the terminals, split only where no terminal spans.
        (
            "Washington, D.C., Washington, Paris, Texas",
            ("Washington, D.C.", "Washington", "Paris, Texas"),
            (),
        ),
        # Matched after normalize, reported verbatim; the longest run wins.
        ("washington,  d.c.\nPARIS, texas", ("Washington, D.C.", "Paris, Texas"), ("Washington",)),
        # A piece that names no terminal stays an answer of its own, ranked
        # after the answers that name one.
        ("Berlin, Washington", ("Washington", "Berlin"), ("Washington, D.C.", "Paris, Texas")),
        ("Paris, Washington, D.C.", ("Washington, D.C.", "Paris"), ("Washington", "Paris, Texas")),
    ],
)
def test_final_reason_keeps_terminals_that_contain_commas(response, answers, indirect):
    client = LlmClient(ScriptedBackend([response]))
    got = final_reason(client, "What is the capital?", CAPITALS)
    assert got.answers == answers
    assert tuple(p.terminal_entity for p in got.indirect_paths) == indirect
    assert len(got.supporting_paths) + len(got.indirect_paths) == len(CAPITALS)


def test_mock_run_answers_an_entity_with_a_comma():
    question = "What is the capital of the United States?"
    g = load_triples(io.StringIO(
        "United_States\tlocation.country.capital\tWashington, D.C.\n"
        "United_States\tlocation.country.largest_city\tNew York City\n"
        "Washington, D.C.\tlocation.location.containedby\tDistrict of Columbia\n"
    ))
    emb = HashingEmbedder()
    idx = build_index(g, emb)
    plan = {
        "keywords": ["capital"],
        "planning_steps": ["find the capital"],
        "declarative_statement": "The capital of the United States is *placeholder*.",
    }
    record = QARecord("dc", question, ("Washington, D.C.",), ("United_States",))
    backend = MockBackend(g, {question: record.answers}, {question: plan})
    result, trace = evaluate_question(
        record, g, idx, emb, backend, SearchConfig(), RetrievalConfig()
    )
    assert result.answers == ("Washington, D.C.",)
    assert result.hits_at_1 == 1
    assert result.paths == (
        "United_States -> location.country.capital -> Washington, D.C.",
    )


# --- full runs -----------------------------------------------------------------------


def test_bieber_end_to_end():
    g, idx, emb, client = mock_runner()
    answers, trace = run_dvbs(BIEBER_Q, ["Justin_Bieber"], g, idx, emb, client)
    assert answers.answers == ("Erin_Wagner",)
    assert answers.top_answer == "Erin_Wagner"
    assert len(answers.supporting_paths) == 1
    path = answers.supporting_paths[0]
    assert path.depth == 2
    assert path.to_arrow() == (
        "Justin_Bieber -> people.person.father -> Jeremy_Bieber"
        " -> people.married_to.person -> Erin_Wagner"
    )
    assert client.ledger.llm_calls == 5
    assert client.ledger.llm_calls <= call_budget(SearchConfig())
    final = [e for e in trace.events if e["event"] == "final"][0]
    assert final["halted_depths"] == [2]


def test_iran_end_to_end():
    g, idx, emb, client = mock_runner()
    answers, trace = run_dvbs(IRAN_Q, ["Iranian_rial"], g, idx, emb, client)
    assert set(answers.answers) == {"Islamic_republic", "Theocracy", "Unitary_state"}
    assert {p.depth for p in answers.supporting_paths} == {2}
    assert len(answers.supporting_paths) == 3
    assert client.ledger.llm_calls == 6


def test_emitted_paths_are_structurally_valid():
    g, idx, emb, client = mock_runner()
    answers, _ = run_dvbs(IRAN_Q, ["Iranian_rial"], g, idx, emb, client)
    for path in answers.supporting_paths + answers.indirect_paths:
        assert validate_path(g, path).all_valid


# Labels with commas, spaces and non-ASCII, never "->"; loading trims them
# as ``from_arrow`` trims the segments of an arrow.
pool_label = st.text(alphabet="ab ,\u00e9\u65e5", min_size=1, max_size=3).filter(str.strip)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_every_pooled_and_selected_path_validates(data):
    """The search does not re-check its extensions, so each arrow it pools or
    selects must name a path that holds in the graph."""
    raw = data.draw(st.lists(st.tuples(pool_label, pool_label, pool_label), min_size=1, max_size=12))
    g = load_triples("\t".join(fields) + "\n" for fields in raw)
    emb = HashingEmbedder(dimension=8)
    idx = build_index(g, emb)
    halting = data.draw(st.sets(st.sampled_from(sorted(g.entities))))
    rule = lambda bindings: bindings["terminal_entity"] in halting
    backend = MockBackend(g, answer_key={}, global_rule=rule, adequacy_rule=rule)
    search = SearchConfig(
        beam_width=data.draw(st.integers(min_value=1, max_value=3)),
        max_depth=data.draw(st.integers(min_value=1, max_value=3)),
        use_planning=False,
        use_deductive_verifier=data.draw(st.booleans()),
        adequacy_mode=data.draw(st.booleans()),
    )
    retrieval = RetrievalConfig(mode=data.draw(st.sampled_from(RETRIEVER_MODES)), m=3)
    topic = data.draw(st.sampled_from(sorted({head for head, _, _ in g.edges()})))
    _, trace = run_dvbs("q", [topic], g, idx, emb, LlmClient(backend), search, retrieval)
    arrows = []
    for event in trace.events:
        if event["event"] == "depth":
            arrows += [entry["path"] for entry in event["pool"]]
        elif event["event"] == "selection":
            arrows += event["selected"]
    assert arrows
    for arrow in arrows:
        assert validate_path(g, ReasoningPath.from_arrow(arrow)).all_valid, arrow


@pytest.mark.parametrize("use_verifier", [True, False])
def test_frontier_without_neighbors_yields_empty_answer(use_verifier):
    g = load_fixture("bieber.tsv")
    emb = HashingEmbedder()
    idx = build_index(g, emb)
    backend = MockBackend(
        g,
        answer_key={"dead end?": ["Nothing"]},
        plan_script={
            "dead end?": {
                "keywords": ["dead", "end"],
                "planning_steps": [],
                "declarative_statement": "The answer is *placeholder*.",
            }
        },
    )
    client = LlmClient(backend)
    config = SearchConfig(use_deductive_verifier=use_verifier)
    answers, trace = run_dvbs("dead end?", ["US"], g, idx, emb, client, search_config=config)
    assert answers.answers == ()  # the topic entity alone is no answer
    assert answers.reason == REASON_NO_DEDUCIBLE_PATH
    depth_one = [e for e in trace.events if e["event"] == "depth" and e["depth"] == 1][0]
    assert depth_one["pool"] == []
    prunes = trace.prune_events()
    assert prunes and prunes[0]["reason"] == PRUNE_NO_CANDIDATES


def test_missing_topic_entity_recorded_but_run_continues():
    g, idx, emb, client = mock_runner()
    answers, trace = run_dvbs(
        BIEBER_Q, ["Atlantis", "Justin_Bieber"], g, idx, emb, client
    )
    assert answers.answers == ("Erin_Wagner",)
    misses = [e for e in trace.events if e["event"] == "topic-entity-miss"]
    assert [m["entity"] for m in misses] == ["Atlantis"]


def test_repeated_topic_entity_is_searched_once():
    outcomes = []
    for topics in (["Justin_Bieber"], ["Justin_Bieber", "Justin_Bieber"]):
        g, idx, emb, client = mock_runner("bieber.tsv")
        answers, trace = run_dvbs(BIEBER_Q, topics, g, idx, emb, client)
        assert trace.events[0]["topic_entities"] == topics
        outcomes.append((answers.answers, answers.supporting_paths, client.ledger.llm_calls))
    assert outcomes[1] == outcomes[0]
    assert outcomes[0][2] == 5


def test_all_topic_entities_missing_is_typed_error():
    g, idx, emb, client = mock_runner()
    with pytest.raises(TopicEntityError):
        run_dvbs(BIEBER_Q, ["Atlantis", "Lemuria"], g, idx, emb, client)


def test_backend_failure_yields_marked_trace():
    g = load_fixture("bieber.tsv")
    emb = HashingEmbedder()
    idx = build_index(g, emb)
    plan_json = json.dumps(
        {
            "keywords": ["father", "ex-wife"],
            "planning_steps": ["find the father"],
            "declarative_statement": "The answer is *placeholder*.",
        }
    )
    client = LlmClient(ScriptedBackend([plan_json]))  # dies on the first verify
    answers, trace = run_dvbs(BIEBER_Q, ["Justin_Bieber"], g, idx, emb, client)
    assert answers.answers == ()
    assert answers.reason == REASON_BACKEND_FAILURE
    kinds = [e["event"] for e in trace.events]
    assert "backend-failure" in kinds
    assert kinds[-1] == "final"


def test_two_runs_trace_byte_identical():
    g, idx, emb, client_a = mock_runner()
    _, _, _, client_b = mock_runner()
    _, trace_a = run_dvbs(BIEBER_Q, ["Justin_Bieber"], g, idx, emb, client_a)
    _, trace_b = run_dvbs(BIEBER_Q, ["Justin_Bieber"], g, idx, emb, client_b)
    assert trace_a.to_jsonl() == trace_b.to_jsonl()


def test_replay_reproduces_answers_and_trace():
    g, idx, emb, client = mock_runner()
    answers, trace = run_dvbs(IRAN_Q, ["Iranian_rial"], g, idx, emb, client)
    replay_client = LlmClient(ReplayBackend(trace.call_records()))
    replayed, replay_trace = run_dvbs(IRAN_Q, ["Iranian_rial"], g, idx, emb, replay_client)
    assert replayed.answers == answers.answers
    assert replay_trace.to_jsonl() == trace.to_jsonl()


def test_never_yes_verifier_reaches_exact_depth():
    g, idx, emb, _ = mock_runner(kg_file="iran.tsv")
    g = load_fixture("iran.tsv")
    idx = build_index(g, HashingEmbedder())
    backend = MockBackend(
        g,
        answer_key={IRAN_Q: []},
        plan_script={
            IRAN_Q: {
                "keywords": ["form of government", "Iranian rial"],
                "planning_steps": [],
                "declarative_statement": "The answer is *placeholder*.",
            }
        },
        global_rule=lambda b: False,
    )
    client = LlmClient(backend)
    config = SearchConfig(max_depth=2)
    answers, trace = run_dvbs(
        IRAN_Q, ["Iranian_rial"], g, idx, emb, client, search_config=config
    )
    assert answers.answers == ()
    verdicts = [e for e in trace.events if e["event"] == "verdict"]
    assert all(v["halted"] is False for v in verdicts)
    assert max(v["depth"] for v in verdicts) == 2
    deepest = [v for v in verdicts if v["depth"] == 2]
    assert all(len(ReasoningPath.from_arrow(v["path"]).steps) == 2 for v in deepest)


def test_two_scripted_yes_halve_the_live_beam():
    g = KnowledgeGraph.from_triples(
        [Triple("S", "r", f"A{i}") for i in range(1, 5)]
        + [Triple(f"A{i}", "r2", f"B{i}") for i in range(1, 5)]
    )
    emb = HashingEmbedder()
    idx = build_index(g, emb)
    backend = MockBackend(
        g,
        answer_key={"which ones?": ["A1", "A3"]},
        plan_script={
            "which ones?": {
                "keywords": ["which"],
                "planning_steps": [],
                "declarative_statement": "The answer is *placeholder*.",
            }
        },
    )
    client = LlmClient(backend)
    answers, trace = run_dvbs(
        "which ones?", ["S"], g, idx, emb, client, search_config=SearchConfig(max_depth=2)
    )
    assert set(answers.answers) == {"A1", "A3"}
    depth_one_verdicts = [
        e for e in trace.events if e["event"] == "verdict" and e["depth"] == 1
    ]
    assert sum(v["halted"] for v in depth_one_verdicts) == 2
    depth_two = [e for e in trace.events if e["event"] == "depth" and e["depth"] == 2][0]
    assert len(depth_two["live"]) == 2


def test_width_truncation_prunes_are_traced():
    g = KnowledgeGraph.from_triples([Triple("S", "r", f"A{i}") for i in range(6)])
    emb = HashingEmbedder()
    idx = build_index(g, emb)
    backend = MockBackend(
        g,
        answer_key={"fan?": []},
        plan_script={
            "fan?": {
                "keywords": ["fan"],
                "planning_steps": [],
                "declarative_statement": "The answer is *placeholder*.",
            }
        },
    )
    client = LlmClient(backend)
    answers, trace = run_dvbs(
        "fan?", ["S"], g, idx, emb, client, search_config=SearchConfig(max_depth=2)
    )
    prunes = [e for e in trace.prune_events() if e["reason"] == PRUNE_WIDTH_TRUNCATION]
    assert len(prunes) == 2
    selection = [e for e in trace.events if e["event"] == "selection" and e["depth"] == 1][0]
    assert selection["mode"] == SELECT_BY_LLM
    assert len(selection["selected"]) == 4


def test_beam_nesting_under_deterministic_selection():
    g = KnowledgeGraph.from_triples([Triple("S", "r", f"A{i}") for i in range(5)])
    emb = HashingEmbedder()
    idx = build_index(g, emb)

    def run(width):
        backend = MockBackend(
            g,
            answer_key={"fan?": []},
            plan_script={
                "fan?": {
                    "keywords": ["fan"],
                    "planning_steps": [],
                    "declarative_statement": "The answer is *placeholder*.",
                }
            },
            global_rule=lambda b: False,
        )
        client = LlmClient(backend)
        _, trace = run_dvbs(
            "fan?", ["S"], g, idx, emb, client,
            search_config=SearchConfig(beam_width=width, max_depth=1),
        )
        selection = [e for e in trace.events if e["event"] == "selection"][0]
        return set(selection["selected"])

    assert run(2) <= run(3) <= run(4)


@pytest.mark.parametrize("max_depth", [2, 4])
def test_verifier_ablation_answers_from_live_paths(max_depth):
    # At depth 4 both live paths dead-end at depth 3 and still answer.
    g, idx, emb, client = mock_runner()
    config = SearchConfig(max_depth=max_depth, use_deductive_verifier=False)
    answers, trace = run_dvbs(BIEBER_Q, ["Justin_Bieber"], g, idx, emb, client, search_config=config)
    assert set(answers.answers) == {"Erin_Wagner", "US"}
    assert not [e for e in trace.events if e["event"] == "verdict"]
    assert client.ledger.llm_calls == 2  # plan and final answer only


def test_single_hypothesis_mode_narrows_beam():
    g, idx, emb, client = mock_runner()
    config = SearchConfig(max_depth=2, use_beam_search=False)
    answers, trace = run_dvbs(BIEBER_Q, ["Justin_Bieber"], g, idx, emb, client, search_config=config)
    for event in trace.events:
        if event["event"] == "selection":
            assert len(event["selected"]) <= 1


def test_premature_adequacy_stops_shallow_with_wrong_answer():
    g, idx, emb, _ = mock_runner()
    g2 = load_fixture("combined.tsv")
    backend = MockBackend(
        g2,
        answer_key={BIEBER_Q: ["Erin Wagner"]},
        plan_script={
            BIEBER_Q: {
                "keywords": ["ex-wife", "father"],
                "planning_steps": [],
                "declarative_statement": "The ex-wife of Justin Bieber's father is *placeholder*.",
            }
        },
        adequacy_rule=lambda b: True,
    )
    client = LlmClient(backend)
    config = SearchConfig(adequacy_mode=True)
    answers, trace = run_dvbs(BIEBER_Q, ["Justin_Bieber"], g2, idx, emb, client, search_config=config)
    final = [e for e in trace.events if e["event"] == "final"][0]
    assert final["halted_depths"] == [1]
    assert answers.answers == ("Jeremy_Bieber",)  # stopped before the real answer


def test_early_halt_uses_fewer_calls_than_full_depth():
    g, idx, emb, client = mock_runner()
    run_dvbs(BIEBER_Q, ["Justin_Bieber"], g, idx, emb, client)
    halted_calls = client.ledger.llm_calls

    g2 = load_fixture("combined.tsv")
    idx2 = build_index(g2, HashingEmbedder())
    with open("fixtures/mock_script.json") as fh:
        answer_key, plan_script = load_mock_script(fh)
    backend = MockBackend(
        g2, answer_key=answer_key, plan_script=plan_script, global_rule=lambda b: False
    )
    never_client = LlmClient(backend)
    run_dvbs(BIEBER_Q, ["Justin_Bieber"], g2, idx2, HashingEmbedder(), never_client)
    assert halted_calls < call_budget(SearchConfig())
    assert halted_calls <= never_client.ledger.llm_calls + 1  # early halt never costs more


# --- concurrent verification --------------------------------------------------------


def slow_iran_run(concurrency_limit, fail=None):
    g, idx, emb, client = mock_runner()
    backend = SlowBackend(client.backend, concurrency_limit, fail=fail)
    slow_client = LlmClient(backend)
    answers, trace = run_dvbs(IRAN_Q, ["Iranian_rial"], g, idx, emb, slow_client)
    return answers, trace, backend, slow_client


def test_concurrent_verification_trace_matches_serial(pools_started):
    serial_answers, serial_trace, serial_backend, _ = slow_iran_run(1)
    assert serial_backend.max_in_flight == 1
    assert pools_started == []
    answers, trace, backend, client = slow_iran_run(4)
    assert backend.max_in_flight >= 2
    assert len(pools_started) == 1
    assert trace.to_jsonl() == serial_trace.to_jsonl()
    assert answers == serial_answers
    assert client.ledger.llm_calls == 6


def test_concurrent_trace_replays():
    answers, trace, _, _ = slow_iran_run(4)
    g, idx, emb, _ = mock_runner()
    replay_client = LlmClient(ReplayBackend(trace.call_records()))
    replayed, replay_trace = run_dvbs(IRAN_Q, ["Iranian_rial"], g, idx, emb, replay_client)
    assert replayed == answers
    assert replay_trace.to_jsonl() == trace.to_jsonl()


@pytest.mark.parametrize("failing_rank", [0, 2])
def test_failure_in_concurrent_batch_traces_like_serial(failing_rank):
    # The depth-2 batch verifies these three paths, in this rank order.
    terminal = ["Theocracy", "Islamic_republic", "Unitary_state"][failing_rank]

    def fail(rendered):
        return (
            rendered.key == DEDUCTIVE_VERIFY
            and rendered.bindings.get("terminal_entity") == terminal
        )

    serial_answers, serial_trace, _, serial_client = slow_iran_run(1, fail)
    answers, trace, _, client = slow_iran_run(4, fail)
    assert answers.reason == serial_answers.reason == REASON_BACKEND_FAILURE
    assert trace.to_jsonl() == serial_trace.to_jsonl()
    kinds = [e["event"] for e in trace.events]
    assert kinds[-2:] == ["backend-failure", "final"]
    assert sum(e["event"] == "verdict" for e in trace.events) == 1 + failing_rank
    # Higher ranks of the batch ran anyway; their calls stay booked.
    assert client.ledger.llm_calls == 4
    assert serial_client.ledger.llm_calls == 2 + failing_rank
    assert client.ledger.llm_calls <= call_budget(SearchConfig())


@pytest.mark.parametrize("concurrency_limit, row_usage", [(1, (2, 536)), (4, (4, 964))])
def test_failed_batch_row_books_every_call_the_trace_books_the_serial_prefix(
    concurrency_limit, row_usage
):
    """The report row's usage comes from the ledger, so it counts the calls
    of a concurrent batch that ran past the failing one; the trace keeps
    only the serial prefix."""
    g, idx, emb, client = mock_runner()
    (record,) = [r for r in load_dataset("fixtures/dataset.jsonl") if r.id == "iran-1"]

    def fail(rendered):
        return rendered.bindings.get("terminal_entity") == "Theocracy"

    backend = SlowBackend(client.backend, concurrency_limit, fail=fail)
    result, trace = evaluate_question(
        record, g, idx, emb, backend, SearchConfig(), RetrievalConfig()
    )
    assert result.failure == REASON_BACKEND_FAILURE
    assert (result.llm_calls, result.prompt_tokens) == row_usage
    calls = trace.call_records()
    assert (len(calls), sum(c.prompt_tokens for c in calls)) == (2, 536)


def test_calls_in_flight_never_exceed_limit_across_questions():
    g, idx, emb, client = mock_runner()
    backend = SlowBackend(client.backend, concurrency_limit=2)
    dataset = [
        QARecord(
            id=f"{record.id}-{i}",
            question=record.question,
            answers=record.answers,
            topic_entities=record.topic_entities,
            ground_truth_paths=record.ground_truth_paths,
        )
        for i in range(4)
        for record in load_dataset("fixtures/dataset.jsonl")
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = run_experiment(dataset, g, idx, emb, backend, parallelism=4)
    finally:
        sys.setswitchinterval(interval)
    assert report.aggregates["failures"] == 0
    assert report.aggregates["hits_at_1"] == 1.0
    assert [r.llm_calls for r in report.results] == [5, 6] * 4
    assert backend.max_in_flight == 2


@pytest.mark.parametrize("failing_terminal", [None, "Theocracy"])
def test_run_leaves_no_pool_thread_behind(failing_terminal, pools_started):
    def fail(rendered):
        return (
            rendered.key == DEDUCTIVE_VERIFY
            and rendered.bindings.get("terminal_entity") == failing_terminal
        )

    baseline = threading.active_count()
    answers, _, backend, _ = slow_iran_run(4, fail)
    assert len(pools_started) == 1
    assert backend.max_in_flight >= 2
    assert (answers.reason == REASON_BACKEND_FAILURE) == (failing_terminal is not None)
    assert threading.active_count() == baseline


def test_context_of_another_question_is_refused():
    g, idx, emb, client = mock_runner()
    context = ScoreContext(g, idx, emb)
    run_dvbs(BIEBER_Q, ["Justin_Bieber"], g, idx, emb, client, context=context)
    with pytest.raises(ValueError):
        run_dvbs(IRAN_Q, ["Iranian_rial"], g, idx, emb, client, context=context)


def test_plain_mock_run_never_starts_a_pool(pools_started):
    g, idx, emb, client = mock_runner()
    answers, _ = run_dvbs(IRAN_Q, ["Iranian_rial"], g, idx, emb, client)
    assert len(answers.answers) == 3
    assert pools_started == []


# --- trace serialization ----------------------------------------------------------


def test_trace_round_trip():
    g, idx, emb, client = mock_runner()
    _, trace = run_dvbs(BIEBER_Q, ["Justin_Bieber"], g, idx, emb, client)
    text = trace.to_jsonl()
    loaded = SearchTrace.from_jsonl(io.StringIO(text))
    assert loaded.question == BIEBER_Q
    assert loaded.to_jsonl() == text


def test_call_records_default_missing_tokens_and_ignore_unknown_keys():
    trace = SearchTrace(
        "q",
        [
            {"event": "run_start", "schema": TRACE_SCHEMA},
            {"event": "llm_call", "key": "final_reason", "bindings_digest": "d1",
             "response": "A", "latency_ms": 12},
        ],
    )
    assert trace.call_records() == [CallRecord("final_reason", "d1", "A", 0, 0)]


def test_call_records_name_the_event_and_its_missing_keys():
    trace = SearchTrace(
        "q",
        [
            {"event": "run_start", "schema": TRACE_SCHEMA},
            {"event": "llm_call", "key": "plan", "bindings_digest": "d0", "response": "{}"},
            {"event": "llm_call", "bindings_digest": "d1", "prompt_tokens": 3},
        ],
    )
    with pytest.raises(ValueError) as exc:
        trace.call_records()
    assert str(exc.value) == "trace event 3 (llm_call) lacks key, response"

    call = {"event": "llm_call", "key": "plan", "bindings_digest": "d0", "response": "{}"}
    ill_typed = [
        ("key", 5),
        ("bindings_digest", None),
        ("response", 5),
        ("response", ["A"]),
        ("prompt_tokens", "5"),
        ("prompt_tokens", -1),
        ("completion_tokens", True),
        ("completion_tokens", 2.0),
    ]
    for field, value in ill_typed:
        trace = SearchTrace("q", [{"event": "run_start", "schema": TRACE_SCHEMA}, {**call, field: value}])
        with pytest.raises(ValueError) as exc:
            trace.call_records()
        assert str(exc.value) == f"trace event 2 (llm_call) has ill-typed {field}"


def test_trace_requires_schema_header():
    with pytest.raises(ValueError):
        SearchTrace.from_jsonl(io.StringIO('{"event": "run_start"}\n'))


def test_trace_schema_constant():
    assert TRACE_SCHEMA == "dvbs-trace/1"


def test_trace_rejects_malformed_line():
    with pytest.raises(ValueError) as exc:
        SearchTrace.from_jsonl(io.StringIO("not json\n"))
    assert "line 1" in str(exc.value)


def test_answer_set_top_answer():
    assert AnswerSet(answers=("A", "B")).top_answer == "A"
    assert AnswerSet().top_answer is None
