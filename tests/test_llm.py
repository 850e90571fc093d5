import io
import json
import logging
import sys
import threading
import time

import pytest
import requests
from hypothesis import given, settings, strategies as st

from kgreason.kg import load_triples
from kgreason.llm import (
    HINT_INDEX_LIST,
    AuthError,
    Completion,
    DecodeParams,
    JsonDecodeFailure,
    LlmClient,
    LlmError,
    MalformedResponseError,
    MockBackend,
    MockMissError,
    Plan,
    ReplayBackend,
    ReplayMismatchError,
    ScriptedBackend,
    SharedBackend,
    StepCalls,
    WIRE_MAX_ATTEMPTS,
    WireBackend,
    WireConfig,
    classify_verdict,
    complete_json,
    degraded_plan,
    extract_json,
    generate_plan,
    load_mock_script,
    question_keywords,
)
from kgreason.prompts import (
    BEAM_SELECT,
    DEFAULT_DEMO_COUNT,
    DEDUCTIVE_VERIFY,
    FINAL_REASON,
    PLAN_AND_SOLVE,
    TEMPLATES,
    render,
)


def load_fixture(name):
    with open(f"fixtures/{name}") as fh:
        return load_triples(fh)


def plan_call(question="who?"):
    """The template key and bindings of a plan call."""
    return PLAN_AND_SOLVE, {"query": question}


def plan_prompt(question="who?"):
    return render(*plan_call(question), demonstrations={})


# --- JSON repair -------------------------------------------------------------


def test_extract_whole_text():
    assert extract_json('{"keywords": ["x"]}') == {"keywords": ["x"]}


def test_extract_fenced_block():
    text = '```json\n{"keywords":["x"]}\n```'
    assert extract_json(text) == {"keywords": ["x"]}


def test_extract_balanced_span_in_chatty_text():
    text = 'Sure! Here is the result: {"a": [1, 2]} hope that helps.'
    assert extract_json(text) == {"a": [1, 2]}


def test_extract_span_ignores_brackets_inside_strings():
    text = 'prefix {"a": "close } brace"} suffix'
    assert extract_json(text) == {"a": "close } brace"}


def test_extract_scalar_yes_with_hint():
    """Verdicts are read by classify_verdict; no hint turns a bare yes/no
    into JSON."""
    for text in ("yes", "No."):
        for hint in (None, HINT_INDEX_LIST):
            with pytest.raises(ValueError):
                extract_json(text, hint)


def test_extract_bare_index_list_with_hint():
    assert extract_json("0, 2", HINT_INDEX_LIST) == [0, 2]
    assert extract_json("1 3", HINT_INDEX_LIST) == [1, 3]


def test_extract_garbage_raises():
    with pytest.raises(ValueError):
        extract_json("no json here", None)


def test_complete_json_retries_then_succeeds():
    backend = ScriptedBackend(["garbage", "also garbage", '{"ok": true}'])
    client = LlmClient(backend)
    parsed = complete_json(client, *plan_call())
    assert parsed == {"ok": True}
    assert client.usage()["llm_calls"] == 3


def test_complete_json_exhaustion_carries_last_raw():
    backend = ScriptedBackend(["bad one", "bad two", "bad three"])
    client = LlmClient(backend)
    with pytest.raises(JsonDecodeFailure) as exc:
        complete_json(client, *plan_call())
    assert exc.value.last_raw == "bad three"
    assert client.usage()["llm_calls"] == 3


# --- verdict classification ---------------------------------------------------


@pytest.mark.parametrize("text", ["yes", "Yes.", "YES", '"yes"', "yes, it follows"])
def test_verdict_yes_variants(text):
    assert classify_verdict(text) is True


@pytest.mark.parametrize("text", ["no", "No.", "NO", '"no"', "no, it does not"])
def test_verdict_no_variants(text):
    assert classify_verdict(text) is False


def test_verdict_unknown_fails_closed(caplog):
    with caplog.at_level(logging.WARNING):
        assert classify_verdict("perhaps") is False
        assert classify_verdict("") is False
    assert any("verdict" in rec.message for rec in caplog.records)


@pytest.mark.parametrize("text", ["(", '"', '["', "```"])
def test_verdict_of_only_quotes_and_brackets_is_unrecognized(text, caplog):
    with caplog.at_level(logging.WARNING):
        assert classify_verdict(text) is False
    assert any("verdict" in rec.message for rec in caplog.records)


# --- usage accounting ----------------------------------------------------------


def test_client_usage_sums_its_records():
    client = LlmClient(ScriptedBackend(["hello world", "one two three"]))
    assert client.usage() == {"llm_calls": 0, "prompt_tokens": 0, "completion_tokens": 0}
    client.complete(*plan_call("what?"))
    client.complete(*plan_call("who is it?"))
    records = client.records
    assert [r.response for r in records] == ["hello world", "one two three"]
    assert client.usage() == {
        "llm_calls": 2,
        "prompt_tokens": sum(r.prompt_tokens for r in records),
        "completion_tokens": 5,
    }
    assert client.usage()["prompt_tokens"] > 0


def test_client_usage_is_thread_safe():
    class OneTokenBackend:
        concurrency_limit = 8

        def complete(self, rendered, params):
            return Completion(text="ok", prompt_tokens=1, completion_tokens=1)

    client = LlmClient(OneTokenBackend())

    def work():
        for _ in range(200):
            client.complete(*plan_call())

    threads = [threading.Thread(target=work) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert client.usage() == {"llm_calls": 1600, "prompt_tokens": 1600, "completion_tokens": 1600}
    assert len(client.records) == 1600


def test_step_times_the_call_it_makes():
    class SleepyBackend:
        concurrency_limit = 1

        def complete(self, rendered, params):
            time.sleep(0.005)
            return Completion(text="ok")

    client = LlmClient(SleepyBackend())
    record = StepCalls(client).complete(*plan_call("what?"))
    assert record.response == "ok"
    assert client.fastest_call_s >= 0.005


def test_shared_backend_rejects_backend_without_call_slots():
    backend = ScriptedBackend([])
    backend.concurrency_limit = 0
    with pytest.raises(ValueError, match="concurrency_limit"):
        SharedBackend(backend)


def test_client_books_usage_and_call_records():
    backend = ScriptedBackend(["hello world"])
    client = LlmClient(backend)
    record = client.complete(*plan_call("what?"))
    assert client.usage()["llm_calls"] == 1
    assert client.usage()["completion_tokens"] == 2
    assert record.key == PLAN_AND_SOLVE
    assert record.bindings_digest == plan_prompt("what?").bindings_digest()
    assert record.response == "hello world"


# --- plans ---------------------------------------------------------------------


def test_plan_requires_exactly_one_placeholder():
    with pytest.raises(ValueError):
        Plan(keywords=("k",), planning_steps=(), declarative_statement="no slot here")
    with pytest.raises(ValueError):
        Plan(
            keywords=("k",),
            planning_steps=(),
            declarative_statement="*placeholder* twice *placeholder*",
        )


def test_plan_requires_keywords():
    with pytest.raises(ValueError):
        Plan(keywords=(), planning_steps=(), declarative_statement="x *placeholder*")


def test_plan_fill_and_context():
    plan = Plan(
        keywords=("k",),
        planning_steps=("find the father", "find the ex-wife"),
        declarative_statement="The answer is *placeholder*.",
    )
    assert plan.fill_statement("Erin_Wagner") == "The answer is Erin_Wagner."
    assert plan.plan_context == "find the father; find the ex-wife"


def test_question_keywords_drop_stopwords():
    kept = question_keywords("Who is the ex-wife of Justin Bieber's father?")
    assert "the" not in {k.lower() for k in kept}
    assert any("Bieber" in k for k in kept)


def test_degraded_plan_shape():
    plan = degraded_plan("Who founded Acme?")
    assert plan.degraded
    assert plan.declarative_statement == "Who founded Acme? The answer is *placeholder*."
    assert plan.keywords


def test_generate_plan_falls_back_after_exhausted_retries(caplog):
    backend = ScriptedBackend(["nope", "still nope", "not json either"])
    client = LlmClient(backend)
    with caplog.at_level(logging.WARNING):
        plan = generate_plan(client, "Who founded Acme?")
    assert plan.degraded
    assert client.usage()["llm_calls"] == 3


def test_generate_plan_re_asks_after_a_plan_it_cannot_use():
    refused = json.dumps(
        {"keywords": [], "planning_steps": [], "declarative_statement": "It is *placeholder*."}
    )
    usable = json.dumps(
        {"keywords": ["founder"], "planning_steps": [], "declarative_statement": "It is *placeholder*."}
    )
    client = LlmClient(ScriptedBackend([refused, usable]))
    plan = generate_plan(client, "Who founded Acme?")
    assert not plan.degraded
    assert plan.keywords == ("founder",)
    assert client.usage()["llm_calls"] == 2


def test_generate_plan_stringifies_dict_steps(caplog):
    scripted = json.dumps(
        {
            "keywords": ["founder", "Acme"],
            "planning_steps": [{"step": 1, "do": "look up founder"}],
            "declarative_statement": "The founder of Acme is *placeholder*.",
        }
    )
    client = LlmClient(ScriptedBackend([scripted]))
    with caplog.at_level(logging.WARNING):
        plan = generate_plan(client, "Who founded Acme?")
    assert not plan.degraded
    assert len(plan.planning_steps) == 1
    assert isinstance(plan.planning_steps[0], str)
    assert "look up founder" in plan.planning_steps[0]
    assert any("stringifying" in rec.message for rec in caplog.records)


def test_generate_plan_mock_miss_propagates():
    g = load_fixture("bieber.tsv")
    client = LlmClient(MockBackend(g, answer_key={}))
    with pytest.raises(MockMissError):
        generate_plan(client, "unscripted question?")


# --- wire backend ---------------------------------------------------------------


class FakeResponse:
    def __init__(self, status_code=200, body=None):
        self.status_code = status_code
        self._body = body

    def json(self):
        if self._body is None:
            raise ValueError("not json")
        return self._body


def chat_body(text, prompt_tokens=7, completion_tokens=3):
    return {
        "choices": [{"message": {"content": text}}],
        "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens},
    }


class FakeSession:
    """Serves a scripted sequence of responses or exceptions per post."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.posts = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts.append({"url": url, "json": json, "headers": headers})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


@pytest.fixture
def wire_env(monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "sk-test")


def make_wire(outcomes):
    config = WireConfig(endpoint="https://example.test/v1/chat", model="test-model")
    session = FakeSession(outcomes)
    sleeps = []  # the backoff sleeps asked for, none taken
    backend = WireBackend(config, session=session, sleeper=sleeps.append)
    return backend, session, sleeps


def test_wire_happy_path_books_tokens(wire_env):
    backend, session, _ = make_wire([FakeResponse(200, chat_body("fine answer"))])
    got = backend.complete(plan_prompt(), DecodeParams())
    assert got.text == "fine answer"
    assert got.prompt_tokens == 7
    assert got.completion_tokens == 3
    payload = session.posts[0]["json"]
    assert payload["model"] == "test-model"
    assert payload["messages"][1]["role"] == "user"
    assert session.posts[0]["headers"]["Authorization"] == "Bearer sk-test"


def test_wire_retries_timeouts_and_counts_backoff(wire_env):
    backend, session, sleeps = make_wire(
        [requests.Timeout("t1"), requests.Timeout("t2"), FakeResponse(200, chat_body("ok"))]
    )
    got = backend.complete(plan_prompt(), DecodeParams())
    assert got.text == "ok"
    assert len(session.posts) == 3
    assert sleeps == [1.0, 2.0]


def test_wire_retries_connection_errors_and_5xx(wire_env):
    backend, session, _ = make_wire(
        [requests.ConnectionError("down"), FakeResponse(503), FakeResponse(200, chat_body("ok"))]
    )
    assert backend.complete(plan_prompt(), DecodeParams()).text == "ok"
    assert len(session.posts) == 3


def test_wire_retries_429(wire_env):
    backend, session, _ = make_wire([FakeResponse(429), FakeResponse(200, chat_body("ok"))])
    assert backend.complete(plan_prompt(), DecodeParams()).text == "ok"
    assert len(session.posts) == 2


def test_wire_401_is_immediate_auth_error(wire_env):
    backend, session, sleeps = make_wire([FakeResponse(401)])
    with pytest.raises(AuthError):
        backend.complete(plan_prompt(), DecodeParams())
    assert len(session.posts) == 1
    assert sleeps == []


def test_wire_missing_token_is_auth_error(monkeypatch):
    monkeypatch.delenv("LLM_API_KEY", raising=False)
    backend, session, _ = make_wire([])
    with pytest.raises(AuthError):
        backend.complete(plan_prompt(), DecodeParams())
    assert session.posts == []


def usage_body(usage):
    return {"choices": [{"message": {"content": "fine answer"}}], "usage": usage}


def test_wire_malformed_body_is_not_retried(wire_env):
    bodies = [
        {"surprise": True},
        usage_body({"prompt_tokens": "abc"}),
        usage_body({"prompt_tokens": -3}),
        usage_body({"prompt_tokens": 2.7}),
        usage_body({"prompt_tokens": True}),
        usage_body({"completion_tokens": False}),
        usage_body({"completion_tokens": "5"}),
        usage_body(["prompt_tokens", 5]),
    ]
    for body in bodies:
        backend, session, _ = make_wire([FakeResponse(200, body)])
        with pytest.raises(MalformedResponseError):
            backend.complete(plan_prompt(), DecodeParams())
        assert len(session.posts) == 1, body


@pytest.mark.parametrize("usage", [None, {}, {"prompt_tokens": None, "completion_tokens": None}])
def test_wire_absent_or_null_token_counts_are_zero(wire_env, usage):
    backend, _, _ = make_wire([FakeResponse(200, usage_body(usage))])
    got = backend.complete(plan_prompt(), DecodeParams())
    assert (got.text, got.prompt_tokens, got.completion_tokens) == ("fine answer", 0, 0)


@pytest.mark.parametrize("kwargs", [
    {"temperature": float("nan")},
    {"temperature": float("inf")},
    {"temperature": -0.1},
    {"top_p": -4.0},
    {"top_p": 0.0},
    {"top_p": 1.5},
    {"top_p": float("nan")},
])
def test_decode_params_refuse_values_an_endpoint_cannot_take(kwargs):
    with pytest.raises(ValueError):
        DecodeParams(**kwargs)


def test_decode_params_accept_the_edges_of_their_ranges():
    DecodeParams(temperature=0.0, top_p=1.0)
    DecodeParams(top_p=1e-9)


def test_wire_gives_up_after_max_attempts(wire_env):
    backend, session, sleeps = make_wire([FakeResponse(500)] * WIRE_MAX_ATTEMPTS)
    with pytest.raises(LlmError):
        backend.complete(plan_prompt(), DecodeParams())
    assert len(session.posts) == WIRE_MAX_ATTEMPTS
    assert sleeps == [2.0**n for n in range(WIRE_MAX_ATTEMPTS - 1)]


# --- mock backend ---------------------------------------------------------------


def mock_client(answer_key=None, **kwargs):
    g = load_fixture("bieber.tsv")
    backend = MockBackend(g, answer_key=answer_key or {}, **kwargs)
    return LlmClient(backend), g


def verify_call(scope, **extra):
    """The template key and bindings of a deductive verification call."""
    bindings = {
        "declarative_statement": "stmt",
        "parsed_reasoning_path": "path",
        "verify_scope": scope,
    }
    bindings.update(extra)
    return DEDUCTIVE_VERIFY, bindings


def test_mock_global_verdict_normalizes_answer_text():
    client, _ = mock_client(answer_key={"q?": ["Erin Wagner"]})
    got = client.complete(*verify_call("global", query="q?", terminal_entity="Erin_Wagner"))
    assert got.response == "yes"
    other = client.complete(*verify_call("global", query="q?", terminal_entity="Jeremy_Bieber"))
    assert other.response == "no"


def test_mock_beam_select_echoes_leading_indices():
    client, _ = mock_client()
    bindings = {
        "plan_context": "p",
        "query": "q",
        "beam_width": 4,
        "reasoning_paths": "1. x",
        "candidate_count": 6,
    }
    assert client.complete(BEAM_SELECT, bindings).response == "[0, 1, 2, 3]"


def test_mock_final_reason_echoes_terminals():
    client, _ = mock_client()
    bindings = {"query": "q", "reasoning_path": "A -> r -> B", "terminal_entities": "B\nC"}
    assert client.complete(FINAL_REASON, bindings).response == "B\nC"


def test_mock_unknown_question_raises_miss():
    client, _ = mock_client()
    with pytest.raises(MockMissError):
        client.complete(*verify_call("global", query="never scripted", terminal_entity="X"))


def test_mock_rules_override_defaults():
    client, _ = mock_client(global_rule=lambda b: True)
    got = client.complete(*verify_call("global", query="anything", terminal_entity="X"))
    assert got.response == "yes"


# --- scripted and replay backends ------------------------------------------------


def test_scripted_backend_exhaustion():
    client = LlmClient(ScriptedBackend(["one"]))
    client.complete(*plan_call())
    with pytest.raises(LlmError):
        client.complete(*plan_call())


def test_replay_backend_reserves_recorded_responses():
    source = LlmClient(ScriptedBackend(['{"a": 1}', "yes"]))
    first = plan_call("q1")
    second = verify_call("global", query="q1", terminal_entity="X")
    records = [source.complete(*first), source.complete(*second)]
    replay = LlmClient(ReplayBackend(records))
    assert replay.complete(*first).response == '{"a": 1}'
    assert replay.complete(*second).response == "yes"


def test_replay_backend_detects_divergence():
    source = LlmClient(ScriptedBackend(["yes"]))
    record = source.complete(*plan_call("q1"))
    replay = LlmClient(ReplayBackend([record]))
    with pytest.raises(ReplayMismatchError):
        replay.complete(*verify_call("global", query="q1"))


def test_replay_backend_detects_binding_drift():
    source = LlmClient(ScriptedBackend(["yes"]))
    record = source.complete(*plan_call("q1"))
    replay = LlmClient(ReplayBackend([record]))
    with pytest.raises(ReplayMismatchError):
        replay.complete(*plan_call("different question"))


def test_replay_backend_exhaustion():
    replay = LlmClient(ReplayBackend([]))
    with pytest.raises(ReplayMismatchError):
        replay.complete(*plan_call())


# --- mock script files ------------------------------------------------------------


def test_load_mock_script_round_trip():
    raw = {
        "q?": {
            "answers": ["A"],
            "plan": {"keywords": ["k"], "planning_steps": [], "declarative_statement": "x *placeholder*"},
        }
    }
    answer_key, plan_script = load_mock_script(io.StringIO(json.dumps(raw)))
    assert answer_key == {"q?": ("A",)}
    assert plan_script["q?"]["keywords"] == ["k"]


def test_load_mock_script_requires_answers():
    with pytest.raises(ValueError):
        load_mock_script(io.StringIO(json.dumps({"q?": {"plan": {}}})))


def test_load_mock_script_rejects_non_object():
    with pytest.raises(ValueError):
        load_mock_script(io.StringIO(json.dumps(["not", "an", "object"])))


# --- prompt token estimates ---------------------------------------------------

# str.split() also splits at U+2003 and at the separators \x1c-\x1f
PROMPT_TEXT = st.text(st.sampled_from("ab_ .\n\t\u2003\x1c\x1f{}é"), max_size=12) | st.sampled_from(
    ["", " ", "\n\n", "\u2003", "\x1c", "a\x1cb", "one two"]
)


def whole_prompt_words(rendered):
    return len((rendered.system + " " + rendered.user).split())


@settings(max_examples=200, deadline=None)
@given(
    key=st.sampled_from(sorted(TEMPLATES)),
    demos=st.none() | st.lists(PROMPT_TEXT, max_size=DEFAULT_DEMO_COUNT + 3),
    values=st.dictionaries(st.sampled_from(sorted({n for t in TEMPLATES.values() for n in t.placeholder_names})), PROMPT_TEXT),
    query=PROMPT_TEXT,
    width=st.integers(1, 5),
    count=st.integers(0, 8),
)
def test_estimated_prompt_tokens_are_the_whole_prompt_word_count(key, demos, values, query, width, count):
    demonstrations = None if demos is None else {key: demos}
    bindings = {name: "x" for name in TEMPLATES[key].placeholder_names}
    bindings.update(values, query=query, terminal_entity="T", beam_width=width, candidate_count=count)
    rendered = render(key, bindings, demonstrations)
    plan = {"keywords": ["k"], "planning_steps": [], "declarative_statement": "x *placeholder*"}
    mock = MockBackend(None, answer_key={query: ["T"]}, plan_script={query: plan})
    for backend in (mock, ScriptedBackend(["some answer"])):
        record = LlmClient(backend, demonstrations=demonstrations).complete(key, bindings)
        assert record.prompt_tokens == whole_prompt_words(rendered)


def test_each_call_renders_and_counts_its_own_demonstrations():
    class Recording(ScriptedBackend):
        def __init__(self, responses):
            super().__init__(responses)
            self.prompts = []

        def complete(self, rendered, params):
            self.prompts.append(rendered)
            return super().complete(rendered, params)

    backend = Recording(["yes"] * 8)
    call = verify_call("global", query="q?", terminal_entity="X")
    system = TEMPLATES[DEDUCTIVE_VERIFY].system_text
    filled = "Whether the conclusion 'stmt' can be deduced from 'path', if yes, return yes, if no, return no.\n\nA:"

    def check(record, demos):
        user = "".join(d + "\n\n" for d in demos) + filled
        assert backend.prompts[-1].user == user
        assert record.prompt_tokens == len(f"{system} {user}".split())

    # two clients with different demonstrations, called alternately
    one = ["one demo"]
    three = ["three", "more\u2003demo words", "here"]
    first = LlmClient(backend, demonstrations={DEDUCTIVE_VERIFY: one})
    second = LlmClient(backend, demonstrations={DEDUCTIVE_VERIFY: three})
    for client, demos in ((first, one), (second, three), (first, one), (second, three)):
        check(client.complete(*call), demos)
    # one demonstrations dict, mutated between two clients
    shared = {DEDUCTIVE_VERIFY: ["before"]}
    before = LlmClient(backend, demonstrations=shared)
    check(before.complete(*call), ["before"])
    shared[DEDUCTIVE_VERIFY] = ["after the change", "and\x1canother"]
    after = LlmClient(backend, demonstrations=shared)
    check(after.complete(*call), shared[DEDUCTIVE_VERIFY])
    check(before.complete(*call), shared[DEDUCTIVE_VERIFY])
