"""Language-model gateway.

Every model interaction in the package flows through LlmClient.complete:
the caller names a template and its bindings, and the client renders them
with the run's few-shot demonstrations, sends the prompt with the run's
decode parameters, books the call's tokens into a UsageLedger and returns the
call's CallRecord for tracing and replay. A CallRecorder gives one search run
its own view of the client: each logical step (plan, select, verify, final)
makes its calls through a StepCalls, which keeps their records in order and
times each one, so independent steps can run concurrently once calls are
seen to wait; a SharedBackend bounds the calls in flight when several runs
share a backend.
Backends plug in behind one interface: a wire client for chat-completion HTTP
endpoints, a deterministic mock that answers from a knowledge graph, a
scripted sequence for fault injection, and a replay backend that re-serves
recorded responses.
"""

from __future__ import annotations

import json
import logging
import math
import os
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Protocol, Sequence

from .kg import KnowledgeGraph, normalize, read_text
from .prompts import (
    ADEQUACY_VERIFY,
    BEAM_SELECT,
    DEDUCTIVE_VERIFY,
    FINAL_REASON,
    PLAN_AND_SOLVE,
    RenderedPrompt,
    render,
)

logger = logging.getLogger(__name__)

STOPWORDS = frozenset(
    "a an and are as at be by for from has have how in is it of on or that the "
    "their this to was were what when where which who whom why will with do does "
    "did".split()
)


class LlmError(Exception):
    pass


class AuthError(LlmError):
    """Authentication rejected or credentials missing; never retried."""


class WireError(LlmError):
    """The endpoint failed after exhausting retries."""


class MalformedResponseError(LlmError):
    """The endpoint answered with a body the chat schema does not fit."""


class JsonDecodeFailure(LlmError):
    """No parseable JSON after all retries; carries the last raw response."""

    def __init__(self, message: str, last_raw: str):
        super().__init__(message)
        self.last_raw = last_raw


class MockMissError(LlmError):
    """The mock backend has no script entry for this question."""

    def __init__(self, question: str):
        super().__init__(f"mock backend has no entry for question {question!r}")
        self.question = question


class ReplayMismatchError(LlmError):
    """A replayed call diverged from the recorded sequence."""


@dataclass(frozen=True)
class DecodeParams:
    temperature: float = 0.3
    top_p: float = 1.0

    def __post_init__(self):
        if not 0 <= self.temperature < math.inf:
            raise ValueError("temperature must be finite and >= 0")
        if not 0 < self.top_p <= 1:
            raise ValueError("top_p must be in (0, 1]")


@dataclass(frozen=True)
class Completion:
    text: str
    prompt_tokens: int = 0
    completion_tokens: int = 0


@dataclass(frozen=True)
class CallRecord:
    """One LLM call as it appears in a trace."""

    key: str
    bindings_digest: str
    response: str
    prompt_tokens: int = 0
    completion_tokens: int = 0


def is_token_count(value) -> bool:
    """A token count is a non-negative int; a bool is not one."""
    return type(value) is int and value >= 0


class LlmBackend(Protocol):
    concurrency_limit: int

    def complete(self, rendered: RenderedPrompt, params: DecodeParams) -> Completion: ...


class UsageLedger:
    """Thread-safe per-question usage counters; all monotone non-decreasing."""

    def __init__(self):
        self._lock = threading.Lock()
        self.llm_calls = 0
        self.prompt_tokens = 0
        self.completion_tokens = 0

    def record(self, calls: int = 1, prompt_tokens: int = 0, completion_tokens: int = 0):
        if min(calls, prompt_tokens, completion_tokens) < 0:
            raise ValueError("usage increments must be non-negative")
        with self._lock:
            self.llm_calls += calls
            self.prompt_tokens += prompt_tokens
            self.completion_tokens += completion_tokens

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "llm_calls": self.llm_calls,
                "prompt_tokens": self.prompt_tokens,
                "completion_tokens": self.completion_tokens,
            }


class SharedBackend:
    """A backend shared by concurrent callers: each call holds one of the
    wrapped backend's ``concurrency_limit`` slots, so the calls in flight
    through this wrapper never exceed that limit."""

    def __init__(self, backend: LlmBackend):
        if backend.concurrency_limit < 1:
            raise ValueError(
                f"backend concurrency_limit must be >= 1, got {backend.concurrency_limit}"
            )
        self.backend = backend
        self.concurrency_limit = backend.concurrency_limit
        self._slots = threading.BoundedSemaphore(backend.concurrency_limit)

    def complete(self, rendered: RenderedPrompt, params: DecodeParams) -> Completion:
        with self._slots:
            return self.backend.complete(rendered, params)


class LlmClient:
    """Renders every prompt with the run's demonstrations (the built-in ones
    when None), books every call's tokens into the ledger and returns its
    record. The client does not time calls; a search run's StepCalls does."""

    def __init__(
        self,
        backend: LlmBackend,
        ledger: UsageLedger | None = None,
        params: DecodeParams = DecodeParams(),
        demonstrations: Mapping[str, Sequence[str]] | None = None,
    ):
        self.backend = backend
        self.ledger = ledger if ledger is not None else UsageLedger()
        self.params = params
        self.demonstrations = demonstrations

    def complete(self, key: str, bindings: Mapping[str, object]) -> CallRecord:
        rendered = render(key, bindings, self.demonstrations)
        completion = self.backend.complete(rendered, self.params)
        self.ledger.record(1, completion.prompt_tokens, completion.completion_tokens)
        return CallRecord(
            key=rendered.key,
            bindings_digest=rendered.bindings_digest(),
            response=completion.text,
            prompt_tokens=completion.prompt_tokens,
            completion_tokens=completion.completion_tokens,
        )


class Completer(Protocol):
    """What the prompt helpers need of a client: an LlmClient or one step of
    a CallRecorder. Either one takes a template key and its bindings; the
    client renders the prompt."""

    def complete(self, key: str, bindings: Mapping[str, object]) -> CallRecord: ...


# A batch of independent steps runs on threads only once the fastest call of
# the run took longer than this. In-process backends answer in about 0.1 ms,
# less than handing a call to another thread costs; a call that waits on a
# network or a sleep takes far longer.
FAN_OUT_MIN_CALL_S = 0.001


class StepCalls:
    """The model calls of one logical step of a run, in the order the step
    made them. Stands in for the client in the prompt helpers: the client
    renders and books each call, and the step times it, rendering included,
    for the recorder's fan-out rule."""

    def __init__(self, recorder: "CallRecorder"):
        self._recorder = recorder
        self.records: list[CallRecord] = []

    def complete(self, key: str, bindings: Mapping[str, object]) -> CallRecord:
        started = time.perf_counter()
        record = self._recorder.client.complete(key, bindings)
        self._recorder.observe(time.perf_counter() - started)
        self.records.append(record)
        return record


class CallRecorder:
    """One run's model calls, booked by the logical step that made them, so
    a trace lists them in step order however the calls interleave.

    ``run_steps`` runs a batch of independent steps; once the run's calls
    are seen to wait, it runs them on a thread pool the recorder starts on
    first use. ``close`` shuts that pool down.
    """

    def __init__(self, client: LlmClient):
        self.client = client
        self.fastest_call_s = math.inf
        self._lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None

    def observe(self, seconds: float) -> None:
        with self._lock:
            self.fastest_call_s = min(self.fastest_call_s, seconds)

    def calls_wait(self) -> bool:
        """Whether the run has made a call and its fastest call so far took
        longer than FAN_OUT_MIN_CALL_S."""
        return FAN_OUT_MIN_CALL_S < self.fastest_call_s < math.inf

    def run_steps(
        self, fn: Callable[[StepCalls, Any], Any], items: Sequence
    ) -> list[tuple[StepCalls, Any, Exception | None]]:
        """Call ``fn(step, item)`` for each item, each with a step of its
        own, and return ``(step, result, error)`` per item in item order.

        Items run one after another, stopping at the first error, unless
        the run's calls are seen to wait (:meth:`calls_wait`). Then they run
        concurrently, as many at once as the backend's ``concurrency_limit``
        allows, and every item runs to completion before the outcomes come
        back; the pool starts threads only as a batch needs them.
        """
        steps = [StepCalls(self) for _ in items]
        limit = self.client.backend.concurrency_limit
        if min(len(items), limit) < 2 or not self.calls_wait():
            outcomes = []
            for step, item in zip(steps, items):
                try:
                    outcomes.append((step, fn(step, item), None))
                except Exception as exc:
                    outcomes.append((step, None, exc))
                    break
            return outcomes
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=limit, thread_name_prefix="kgreason-call")
        futures = [self._pool.submit(fn, step, item) for step, item in zip(steps, items)]
        wait(futures)
        outcomes = []
        for step, future in zip(steps, futures):
            error = future.exception()
            outcomes.append((step, None if error else future.result(), error))
        return outcomes

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


def _estimated(rendered: RenderedPrompt, text: str) -> Completion:
    """A completion of ``text``, its token counts estimated as word counts:
    the prompt's is ``rendered.word_count``, the words of the system text
    plus the user text, few-shot block included, which ``render`` counts."""
    return Completion(text, rendered.word_count, len(text.split()))


def classify_verdict(text: str) -> bool:
    """Map a verification response to a boolean by its leading token.

    'yes' (any case, with surrounding quotes or punctuation) is True, 'no' is
    False, anything else is False with a warning; unknown answers must never
    pass verification. A response of nothing but quotes and brackets has no
    token, so it is unrecognized too.
    """
    words = text.strip().lstrip("\"'`[(").split(None, 1)
    token = words[0].strip(".,!:;\"'`)]").lower() if words else ""
    if token == "yes":
        return True
    if token != "no":
        logger.warning("unrecognized verification verdict %r; counting as no", text[:80])
    return False


# --- JSON repair -----------------------------------------------------------

_FENCE_RE = re.compile(r"```(?:json)?\s*\n(.*?)```", re.DOTALL)

HINT_INDEX_LIST = "index-list"


def _balanced_spans(text: str, open_ch: str, close_ch: str):
    """Yield substrings of text spanning balanced open/close brackets,
    skipping bracket characters inside JSON string literals."""
    start = None
    depth = 0
    in_string = False
    escape = False
    for i, ch in enumerate(text):
        if in_string:
            if escape:
                escape = False
            elif ch == "\\":
                escape = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch == open_ch:
            if depth == 0:
                start = i
            depth += 1
        elif ch == close_ch and depth > 0:
            depth -= 1
            if depth == 0 and start is not None:
                yield text[start : i + 1]
                start = None


def extract_json(text: str, schema_hint: str | None = None):
    """Pull a JSON value out of a model response.

    Tries, in order: the whole text; fenced code blocks; balanced-bracket
    spans found in the text; and finally, with the index-list hint, a bare
    list of integers. Raises ValueError when everything fails.
    """
    stripped = text.strip()
    try:
        return json.loads(stripped)
    except (json.JSONDecodeError, ValueError):
        pass
    for block in _FENCE_RE.findall(text):
        try:
            return json.loads(block.strip())
        except (json.JSONDecodeError, ValueError):
            continue
    for open_ch, close_ch in (("{", "}"), ("[", "]")):
        for span in _balanced_spans(text, open_ch, close_ch):
            try:
                return json.loads(span)
            except (json.JSONDecodeError, ValueError):
                continue
    if schema_hint == HINT_INDEX_LIST:
        parts = [p for p in re.split(r"[,\s]+", stripped) if p]
        if parts and all(re.fullmatch(r"-?\d+", p) for p in parts):
            return [int(p) for p in parts]
    raise ValueError(f"no parseable JSON in response: {text[:120]!r}")


def complete_json(
    client: Completer,
    key: str,
    bindings: Mapping[str, object],
    schema_hint: str | None = None,
):
    """Call the model until a response parses as JSON, up to ``JSON_RETRIES``
    re-asks after the first attempt. Returns the parsed value; exhaustion
    raises JsonDecodeFailure carrying the last raw response."""
    last_raw = ""
    for _ in range(JSON_RETRIES + 1):
        last_raw = client.complete(key, bindings).response
        try:
            return extract_json(last_raw, schema_hint)
        except ValueError:
            logger.warning("unparseable JSON response for %s; retrying", key)
    raise JsonDecodeFailure(
        f"no parseable JSON for {key} after {JSON_RETRIES + 1} attempts", last_raw
    )


# --- Plans -----------------------------------------------------------------

PLACEHOLDER_TOKEN = "*placeholder*"


@dataclass(frozen=True)
class Plan:
    """Navigation plan for one question: query keywords, step outline, and a
    declarative restatement with exactly one ``*placeholder*`` to fill."""

    keywords: tuple[str, ...]
    planning_steps: tuple[str, ...]
    declarative_statement: str
    degraded: bool = False

    def __post_init__(self):
        if not self.keywords:
            raise ValueError("plan keywords must be non-empty")
        count = self.declarative_statement.count(PLACEHOLDER_TOKEN)
        if count != 1:
            raise ValueError(
                f"declarative statement must contain exactly one {PLACEHOLDER_TOKEN}, found {count}"
            )

    def fill_statement(self, entity: str) -> str:
        return self.declarative_statement.replace(PLACEHOLDER_TOKEN, entity)

    @property
    def plan_context(self) -> str:
        return "; ".join(self.planning_steps) if self.planning_steps else ""


def question_keywords(question: str) -> tuple[str, ...]:
    """Content tokens of a question, for the degraded-plan fallback."""
    tokens = re.findall(r"[A-Za-z0-9_']+", question)
    kept = [t for t in tokens if t.lower() not in STOPWORDS]
    if not kept:
        kept = tokens
    return tuple(kept) if kept else (question.strip() or "question",)


def degraded_plan(question: str) -> Plan:
    return Plan(
        keywords=question_keywords(question),
        planning_steps=(),
        declarative_statement=question.strip() + " The answer is *placeholder*.",
        degraded=True,
    )


def _coerce_plan(parsed: object) -> Plan:
    if not isinstance(parsed, dict):
        raise ValueError("plan response is not an object")
    keywords_raw = parsed.get("keywords")
    if not isinstance(keywords_raw, list) or not keywords_raw:
        raise ValueError("plan keywords missing or empty")
    keywords = tuple(str(k) for k in keywords_raw)
    steps_raw = parsed.get("planning_steps", [])
    if not isinstance(steps_raw, list):
        raise ValueError("planning_steps is not a list")
    steps = []
    for item in steps_raw:
        if isinstance(item, str):
            steps.append(item)
        else:
            logger.warning("planning step is not a string; stringifying: %r", item)
            steps.append(json.dumps(item, sort_keys=True) if isinstance(item, (dict, list)) else str(item))
    statement = parsed.get("declarative_statement")
    if not isinstance(statement, str):
        raise ValueError("declarative_statement missing")
    return Plan(keywords=keywords, planning_steps=tuple(steps), declarative_statement=statement)


def generate_plan(client: Completer, question: str) -> Plan:
    """Ask the model for a navigation plan; with no usable JSON after
    ``JSON_RETRIES`` re-asks, fall back to a degraded plan from the question."""
    if not question.strip():
        raise ValueError("question must be non-empty")
    last_error: Exception | None = None
    for _ in range(JSON_RETRIES + 1):
        response = client.complete(PLAN_AND_SOLVE, {"query": question}).response
        try:
            return _coerce_plan(extract_json(response))
        except ValueError as exc:
            last_error = exc
            logger.warning("plan parse failed (%s); retrying", exc)
    logger.warning("plan generation failed after %d attempts (%s); using degraded plan",
                   JSON_RETRIES + 1, last_error)
    return degraded_plan(question)


# --- Backends --------------------------------------------------------------

@dataclass(frozen=True)
class WireConfig:
    endpoint: str
    model: str
    auth_env: str = "LLM_API_KEY"


# complete_json and generate_plan re-ask at most this often after unusable JSON.
JSON_RETRIES = 2

# The wire retry policy: each attempt waits at most WIRE_TIMEOUT_S, and the
# n-th retry first sleeps WIRE_BACKOFF_BASE_S * WIRE_BACKOFF_FACTOR**(n-1).
WIRE_TIMEOUT_S = 60.0
WIRE_MAX_ATTEMPTS = 5
WIRE_BACKOFF_BASE_S = 1.0
WIRE_BACKOFF_FACTOR = 2.0


class WireBackend:
    """Chat-completion HTTP client: messages array in, first choice text out.

    Transient failures (timeouts, connection errors, 429 and 5xx statuses)
    are retried with exponential backoff, up to WIRE_MAX_ATTEMPTS attempts;
    auth failures and malformed bodies are not. The sleeper is injectable so
    fault-injection tests run without real waiting.
    """

    concurrency_limit = 4

    def __init__(
        self,
        config: WireConfig,
        session=None,
        sleeper: Callable[[float], None] = time.sleep,
    ):
        import requests

        self.config = config
        self.session = session if session is not None else requests.Session()
        self.sleeper = sleeper

    def complete(self, rendered: RenderedPrompt, params: DecodeParams) -> Completion:
        import requests

        token = os.environ.get(self.config.auth_env)
        if not token:
            raise AuthError(
                f"auth token environment variable {self.config.auth_env} is not set"
            )
        payload = {
            "model": self.config.model,
            "messages": [
                {"role": "system", "content": rendered.system},
                {"role": "user", "content": rendered.user},
            ],
            "temperature": params.temperature,
            "top_p": params.top_p,
        }
        headers = {"Authorization": f"Bearer {token}"}
        last_error: Exception | None = None
        for attempt in range(1, WIRE_MAX_ATTEMPTS + 1):
            if attempt > 1:
                self.sleeper(WIRE_BACKOFF_BASE_S * WIRE_BACKOFF_FACTOR ** (attempt - 2))
            try:
                response = self.session.post(
                    self.config.endpoint, json=payload, headers=headers, timeout=WIRE_TIMEOUT_S
                )
            except (requests.Timeout, requests.ConnectionError) as exc:
                last_error = exc
                logger.warning("wire attempt %d failed (%s); retrying", attempt, exc)
                continue
            if response.status_code in (401, 403):
                raise AuthError(f"endpoint rejected credentials (HTTP {response.status_code})")
            if response.status_code == 429 or response.status_code >= 500:
                last_error = WireError(f"HTTP {response.status_code}")
                logger.warning("wire attempt %d got HTTP %d; retrying", attempt, response.status_code)
                continue
            if response.status_code != 200:
                raise WireError(f"endpoint returned HTTP {response.status_code}")
            return self._parse_body(response)
        raise WireError(
            f"endpoint failed after {WIRE_MAX_ATTEMPTS} attempts: {last_error}"
        )

    def _parse_body(self, response) -> Completion:
        try:
            body = response.json()
            text = body["choices"][0]["message"]["content"]
            usage = dict(body.get("usage") or {})
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise MalformedResponseError(f"response body does not fit chat schema: {exc}")
        if not isinstance(text, str):
            raise MalformedResponseError("choice content is not text")
        counts = {}
        for name in ("prompt_tokens", "completion_tokens"):
            count = usage.get(name)
            if count is not None and not is_token_count(count):
                raise MalformedResponseError(f"usage {name} is not a token count: {count!r}")
            counts[name] = count or 0
        return Completion(text=text, **counts)


class MockBackend:
    """Deterministic backend for a graph, answering from an answer key.

    Verification verdicts come from actual entailment: a candidate path
    verifies when its terminal entity is one of the question's answers,
    compared after ``kg.normalize``. Every verification is of a whole path;
    there are no per-step (local) verdicts. Beam selection echoes the first
    beam_width indices, plans come from a scripted table, and final answers
    are the terminal entities of the paths the caller presents.
    """

    concurrency_limit = 64

    def __init__(
        self,
        kg: KnowledgeGraph,
        answer_key: Mapping[str, Sequence[str]],
        plan_script: Mapping[str, Mapping] | None = None,
        global_rule: Callable[[Mapping[str, str]], bool] | None = None,
        adequacy_rule: Callable[[Mapping[str, str]], bool] | None = None,
    ):
        self.kg = kg
        # per question: the normalized gold answers and the plan's response text
        self.gold = {q: frozenset(map(normalize, a)) for q, a in answer_key.items()}
        self.plan_texts = {q: json.dumps(p, sort_keys=True) for q, p in (plan_script or {}).items()}
        self.verify_rules = {DEDUCTIVE_VERIFY: global_rule, ADEQUACY_VERIFY: adequacy_rule}

    def _entailed_globally(self, bindings: Mapping[str, str]) -> bool:
        question = bindings["query"]
        if question not in self.gold:
            raise MockMissError(question)
        return normalize(bindings.get("terminal_entity", "")) in self.gold[question]

    def complete(self, rendered: RenderedPrompt, params: DecodeParams) -> Completion:
        b = rendered.bindings
        if rendered.key == PLAN_AND_SOLVE:
            question = b["query"]
            if question not in self.plan_texts:
                raise MockMissError(question)
            text = self.plan_texts[question]
        elif rendered.key in self.verify_rules:
            rule = self.verify_rules[rendered.key] or self._entailed_globally
            text = "yes" if rule(b) else "no"
        elif rendered.key == BEAM_SELECT:
            count = int(b["candidate_count"])
            width = int(b["beam_width"])
            text = json.dumps(list(range(min(width, count))))
        elif rendered.key == FINAL_REASON:
            terminals = b.get("terminal_entities", "")
            text = terminals if terminals else "unknown"
        else:
            raise LlmError(f"mock backend cannot serve template {rendered.key!r}")
        return _estimated(rendered, text)


def load_mock_script(source) -> tuple[dict[str, tuple[str, ...]], dict[str, dict]]:
    """Read a mock script file: a JSON object keyed by question, each entry
    holding the gold ``answers`` list and the scripted ``plan`` object.
    Returns the (answer_key, plan_script) pair a MockBackend wants."""
    data = json.loads(read_text(source))
    if not isinstance(data, dict):
        raise ValueError("mock script must be a JSON object keyed by question")
    answer_key: dict[str, tuple[str, ...]] = {}
    plan_script: dict[str, dict] = {}
    for question, entry in data.items():
        if not isinstance(entry, dict) or "answers" not in entry:
            raise ValueError(f"mock script entry for {question!r} needs an 'answers' list")
        answers = entry["answers"]
        if not isinstance(answers, list) or not all(isinstance(a, str) for a in answers):
            raise ValueError(f"mock script answers for {question!r} must be strings")
        answer_key[question] = tuple(answers)
        if "plan" in entry:
            if not isinstance(entry["plan"], dict):
                raise ValueError(f"mock script plan for {question!r} must be an object")
            plan_script[question] = entry["plan"]
    return answer_key, plan_script


class ScriptedBackend:
    """Serves a fixed sequence of responses, for fault-injection tests."""

    concurrency_limit = 1

    def __init__(self, responses: Sequence[str]):
        self.responses = list(responses)
        self._served = 0

    def complete(self, rendered: RenderedPrompt, params: DecodeParams) -> Completion:
        if self._served >= len(self.responses):
            raise LlmError("scripted backend ran out of responses")
        text = self.responses[self._served]
        self._served += 1
        return _estimated(rendered, text)


class ReplayBackend:
    """Re-serves the responses recorded in a trace, in order, checking that
    each call matches the recorded template key and bindings digest."""

    concurrency_limit = 1

    def __init__(self, records: Sequence[CallRecord]):
        self.records = list(records)
        self._cursor = 0

    def complete(self, rendered: RenderedPrompt, params: DecodeParams) -> Completion:
        if self._cursor >= len(self.records):
            raise ReplayMismatchError(
                f"replay exhausted: no recorded call for {rendered.key!r}"
            )
        record = self.records[self._cursor]
        if record.key != rendered.key:
            raise ReplayMismatchError(
                f"replay mismatch at call {self._cursor}: recorded {record.key!r}, "
                f"got {rendered.key!r}"
            )
        if record.bindings_digest != rendered.bindings_digest():
            raise ReplayMismatchError(
                f"replay mismatch at call {self._cursor} ({rendered.key}): "
                "bindings differ from the recording"
            )
        self._cursor += 1
        return Completion(
            text=record.response,
            prompt_tokens=record.prompt_tokens,
            completion_tokens=record.completion_tokens,
        )
