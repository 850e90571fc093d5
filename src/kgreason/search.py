"""Verification-gated beam search over a knowledge graph.

The engine builds reasoning paths step by step: a plan turns the question
into keywords and a cloze statement, retrieval proposes true-edge extensions
of each live hypothesis, the model picks the beam, and a deductive check
decides whether a path now answers the question. The search stops after
the first depth at which any path verifies, and the paths that verified
there feed one final answer-generation call.

Every candidate step is read from its frontier's own adjacency row, so
pooled and emitted paths are valid by construction and the search does not
re-check them; the model can gate and rank but never invent an edge.
Validity is checked where it is measured: ``evaluate_question`` validates
each emitted path for the report's ``validity_ratio``.

Call count per question is bounded by width*depth verification calls, one
selection call per non-final depth, one plan call and one answer call; a
question that is deducible at depth d stops there, at most d*(width+1) + 2
calls in its trace.

The verifications of one depth depend only on the question, the plan and
their own path, so once the run's model calls are seen to wait they overlap,
up to the backend's ``concurrency_limit``. The next depth's calls depend
only on its pool, which is known before the verdicts come back, so they wait
only on whether this depth halts: once calls wait and at least one more call
fits the limit, the next depth is pooled before the verdicts, and its
selection call, or the verifications of a beam that score order fixes (the
final depth, or a pool no wider than the beam), go in this depth's batch,
after its own, when all fit the limit. Wall time then grows with about
depth + 3 call latencies (plan, first selection, one round per depth,
answer) instead of width*depth + depth + 1. When this depth halts, or one of
its verifications fails, the early calls are dropped, so a question that
halts at depth d may have made up to width more calls than its trace shows.
Each call is booked by the step that made it, and the trace lists calls and
verdicts in selection-rank order, so it is byte-identical to a serial run's.
"""

from __future__ import annotations

import json
import logging
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, replace
from typing import IO, Mapping, Sequence, Union

from .kg import ReasoningPath, normalize, read_text, split_lines
from .llm import (
    HINT_INDEX_LIST,
    CallRecord,
    Completer,
    JsonDecodeFailure,
    LlmClient,
    LlmError,
    Plan,
    StepCalls,
    classify_verdict,
    complete_json,
    degraded_plan,
    generate_plan,
    is_token_count,
)
from .pathrag import MODE_PATH_RAG, RetrievalConfig, ScoreContext, candidate_steps
from .prompts import ADEQUACY_VERIFY, BEAM_SELECT, DEDUCTIVE_VERIFY, FINAL_REASON

logger = logging.getLogger(__name__)

TRACE_SCHEMA = "dvbs-trace/1"

REASON_NO_DEDUCIBLE_PATH = "no-deducible-path"
REASON_BACKEND_FAILURE = "backend-failure"

PRUNE_WIDTH_TRUNCATION = "width-truncation"
PRUNE_NO_CANDIDATES = "no-candidates"

SELECT_BY_LLM = "llm"
SELECT_SATURATED = "saturated"
SELECT_FINAL_DEPTH = "final-depth-score"
SELECT_FALLBACK = "score-fallback"


class TopicEntityError(ValueError):
    """No topic entity of the question exists in the graph."""


@dataclass(frozen=True)
class SearchConfig:
    beam_width: int = 4
    max_depth: int = 4
    use_planning: bool = True
    use_deductive_verifier: bool = True
    use_last_step_reasoning: bool = True
    adequacy_mode: bool = False

    def __post_init__(self):
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


def run_config(search: SearchConfig, retrieval: RetrievalConfig) -> dict:
    """The settings a trace's ``run_start`` and an eval report record."""
    return {
        **vars(search),
        "retriever_mode": retrieval.mode,
        "alpha": retrieval.alpha,
        "m": retrieval.m,
    }


def call_budget(config: SearchConfig) -> int:
    """Worst-case model calls for one question, when no path verifies
    before the last depth: one verification per retained path per depth,
    one selection per depth, one plan call. The search stops after the first
    depth at which a path verifies, so a question deducible at depth d makes
    at most d*(width+1) + 2 calls, the answer call included, plus the calls
    of depth d+1 that were sent with depth d's and dropped: up to width
    verifications, or its one selection call. Both need d < max_depth, and
    (max_depth-1)*(width+1) + 2 + width is this budget, so the total stays
    within it."""
    n = config.beam_width
    d = config.max_depth
    return n * d + d + 1


@dataclass(frozen=True)
class AnswerSet:
    """Answers in rank order plus the paths that produced them. Paths whose
    terminal entity is not among the answers are kept separately as
    indirect support."""

    answers: tuple[str, ...] = ()
    supporting_paths: tuple[ReasoningPath, ...] = ()
    indirect_paths: tuple[ReasoningPath, ...] = ()
    reason: str | None = None

    @property
    def top_answer(self) -> str | None:
        return self.answers[0] if self.answers else None


class SearchTrace:
    """Ordered record of one search: plan, per-depth beam activity, every
    model call, and the final answers. Serializes to one JSON object per
    line; content is fully deterministic for deterministic backends."""

    def __init__(self, question: str, events: list[dict] | None = None):
        self.question = question
        self.events: list[dict] = events if events is not None else []

    def add(self, event: str, **payload):
        record = {"event": event}
        record.update(payload)
        self.events.append(record)

    def add_calls(self, records: Sequence[CallRecord]):
        """One ``llm_call`` event per record, holding the record's fields."""
        for r in records:
            self.add("llm_call", **vars(r))

    def to_jsonl(self) -> str:
        lines = []
        for record in self.events:
            lines.append(json.dumps(record, sort_keys=True, ensure_ascii=True))
        return "\n".join(lines) + "\n"

    def call_records(self) -> list[CallRecord]:
        """The ``llm_call`` events as records; keys that are not a
        ``CallRecord`` field are ignored. An event that lacks a field without
        a default or holds one of the wrong type is a ``ValueError`` naming it."""
        types = {f.name: f.type for f in fields(CallRecord)}
        required = [f.name for f in fields(CallRecord) if f.default is MISSING]
        records = []
        for number, event in enumerate(self.events, start=1):
            if event.get("event") != "llm_call":
                continue
            missing = [name for name in required if name not in event]
            if missing:
                raise ValueError(f"trace event {number} (llm_call) lacks {', '.join(missing)}")
            values = {name: event[name] for name in types if name in event}
            for name, value in values.items():
                if not (isinstance(value, str) if types[name] == "str" else is_token_count(value)):
                    raise ValueError(f"trace event {number} (llm_call) has ill-typed {name}")
            records.append(CallRecord(**values))
        return records

    @classmethod
    def from_jsonl(cls, source: Union[str, IO[str]]) -> "SearchTrace":
        events = []
        for line_number, line in enumerate(split_lines(read_text(source)), start=1):
            if not line.strip():
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"trace line {line_number} is not valid JSON: {exc}")
            if not isinstance(event, dict):
                raise ValueError(f"trace line {line_number} is not a JSON object")
            events.append(event)
        if not events or events[0].get("schema") != TRACE_SCHEMA:
            raise ValueError(f"trace does not declare schema {TRACE_SCHEMA}")
        question = events[0].get("question", "")
        return cls(question=question, events=events)


def _path_sentences(path: ReasoningPath) -> str:
    """Each hop of the path as its own arrow sentence, newline-joined."""
    lines = []
    current = path.start
    for step in path.steps:
        lines.append(f"{current} -> {step.relation} -> {step.entity}")
        current = step.entity
    return "\n".join(lines)


def _halts(client: Completer, key: str, path: ReasoningPath, bindings: dict) -> bool:
    """One halting check: an empty path never halts and costs no call; any
    other gets the verdict of one call on ``bindings`` and its terminal entity."""
    if not path.steps:
        return False
    bindings = {**bindings, "terminal_entity": path.terminal_entity}
    return classify_verdict(client.complete(key, bindings).response)


def verify_global(client: Completer, question: str, plan: Plan, path: ReasoningPath) -> bool:
    """Ask whether the path now entails the plan's cloze statement, filled
    with the path's terminal entity verbatim. An empty path is never
    deducible and costs no call."""
    bindings = {
        "declarative_statement": plan.fill_statement(path.terminal_entity),
        "parsed_reasoning_path": _path_sentences(path),
        "query": question,
        "verify_scope": "global",
    }
    return _halts(client, DEDUCTIVE_VERIFY, path, bindings)


def adequacy_verify(client: Completer, question: str, path: ReasoningPath) -> bool:
    """Sufficiency-style halting check: is this path enough to answer the
    question? Swapped in for the deductive check in adequacy mode."""
    bindings = {"reasoning_path": path.to_arrow(), "query": question}
    return _halts(client, ADEQUACY_VERIFY, path, bindings)


def fixed_beam(pool_size: int, k: int, final: bool) -> tuple[list[int], str] | None:
    """The beam that score order alone fixes, as pool indices and a
    selection mode, or None when picking it takes a model call: the top k
    at the final depth, whose paths are verified but never extended, and
    the whole pool when it is no wider than the beam."""
    if final:
        return list(range(min(k, pool_size))), SELECT_FINAL_DEPTH
    if pool_size <= k:
        return list(range(pool_size)), SELECT_SATURATED
    return None


def select_steps(
    client: Completer,
    question: str,
    plan: Plan,
    arrows: Sequence[str],
    k: int,
) -> tuple[list[int], str]:
    """Pick at most k of the score-ranked candidate paths, given as arrow
    texts, and return their indices in pick order plus the mode.

    The model returns an index list over the numbered candidate paths.
    Out-of-range and duplicate indices are dropped; short lists are filled
    from the remaining top score ranks; an unusable response falls back to
    the top k by score, flagged in the returned mode.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    fixed = fixed_beam(len(arrows), k, final=False)
    if fixed is not None:
        return fixed
    top = list(range(k))
    bindings = {
        "plan_context": plan.plan_context,
        "query": question,
        "beam_width": k,
        "reasoning_paths": "\n".join(f"{i}. {arrow}" for i, arrow in enumerate(arrows)),
        "candidate_count": len(arrows),
    }
    try:
        parsed = complete_json(client, BEAM_SELECT, bindings, HINT_INDEX_LIST)
    except JsonDecodeFailure:
        logger.warning("beam selection response unusable; falling back to score order")
        return top, SELECT_FALLBACK
    indices: list[int] = []
    if isinstance(parsed, list):
        for item in parsed:
            if isinstance(item, bool) or not isinstance(item, int):
                continue
            if 0 <= item < len(arrows) and item not in indices:
                indices.append(item)
    if not indices:
        logger.warning("beam selection produced no valid indices; falling back to score order")
        return top, SELECT_FALLBACK
    indices = indices[:k]
    if len(indices) < k:
        for i in range(len(arrows)):
            if i not in indices:
                indices.append(i)
            if len(indices) == k:
                break
    return indices, SELECT_BY_LLM


def final_reason(
    client: Completer,
    question: str,
    halted_paths: Sequence[ReasoningPath],
    config: SearchConfig = SearchConfig(),
) -> AnswerSet:
    """Produce the answer set from the halted paths.

    One model call reasons over all paths at once; with last-step reasoning
    ablated (or on unusable output) the answers are the paths' terminal
    entities in halt order. The response is read as comma-separated answers,
    but a run of pieces that names a terminal entity (after ``normalize``)
    is that one answer, so "Washington, D.C." is not split; see
    ``_split_answers``. Answers that name a terminal entity rank ahead of
    those that name none. A path is direct support when its terminal entity
    is one of the answers by the same match, and indirect otherwise.
    """
    if not halted_paths:
        return AnswerSet(reason=REASON_NO_DEDUCIBLE_PATH)
    terminals = _deduped([p.terminal_entity for p in halted_paths])
    if not config.use_last_step_reasoning:
        return AnswerSet(answers=tuple(terminals), supporting_paths=tuple(halted_paths))
    bindings = {
        "query": question,
        "reasoning_path": "\n".join(p.to_arrow() for p in halted_paths),
        "terminal_entities": ", ".join(terminals),
    }
    text = client.complete(FINAL_REASON, bindings).response
    by_norm: dict[str, str] = {}
    for terminal in terminals:
        by_norm.setdefault(normalize(terminal), terminal)
    by_norm.pop("", None)
    answers = _deduped(
        answer for line in text.splitlines() for answer in _split_answers(line, by_norm)
    )
    if not answers:
        logger.warning("final reasoning produced no answers; using terminal entities")
        return AnswerSet(
            answers=tuple(terminals),
            supporting_paths=tuple(halted_paths),
            reason="final-fallback",
        )
    # Grounded answers first; the stable sort keeps response order in each group.
    answers.sort(key=lambda answer: normalize(answer) not in by_norm)
    named = {normalize(a) for a in answers}
    direct = tuple(p for p in halted_paths if normalize(p.terminal_entity) in named)
    indirect = tuple(p for p in halted_paths if normalize(p.terminal_entity) not in named)
    return AnswerSet(answers=tuple(answers), supporting_paths=direct, indirect_paths=indirect)


def _split_answers(line: str, by_norm: Mapping[str, str]) -> list[str]:
    """Split one response line on commas, scanning from the left: the
    longest run of consecutive pieces whose ``normalize`` is a key of
    ``by_norm`` becomes that terminal entity, verbatim; a piece that starts
    no such run is an answer of its own, stripped. ``normalize`` keeps
    commas, so a run of k pieces can only match a key with k-1 commas, and
    no run is longer than the key with the most commas allows."""
    pieces = line.split(",")
    longest = 1 + max((key.count(",") for key in by_norm), default=0)
    answers = []
    start = 0
    while start < len(pieces):
        for end in range(min(len(pieces), start + longest), start, -1):
            terminal = by_norm.get(normalize(",".join(pieces[start:end])))
            if terminal is not None:
                break
        else:
            end, terminal = start + 1, pieces[start].strip()
        answers.append(terminal)
        start = end
    return answers


def _deduped(items) -> list[str]:
    return [item for item in dict.fromkeys(items) if item]


def run_dvbs(
    question: str,
    topic_entities: Sequence[str],
    context: ScoreContext,
    client: LlmClient,
    search_config: SearchConfig = SearchConfig(),
    retrieval_config: RetrievalConfig = RetrievalConfig(),
) -> tuple[AnswerSet, SearchTrace]:
    """Run the full search for one question and return the answers plus a
    replayable trace.

    Beams start from every distinct topic entity found in the graph, in
    first-occurrence order. Each depth pools candidate extensions of all
    live paths, keeps the beam via model selection (skipped when the pool
    already fits, and replaced by score order at the last depth), then
    verifies each kept extension once. Once the run's calls wait, the next
    depth's selection call, or the verifications of a beam that score order
    fixes, go in the same batch as a depth's verifications, and are dropped
    unused if that depth halts or fails; the trace is the same as a serial
    run's. The search stops after the first depth at which any path passes,
    and the paths that passed there answer; otherwise it stops at
    ``max_depth`` or at an empty pool with no answer.
    With the verifier off nothing halts, and the paths still live when the
    search stops answer instead. Backend failures are recorded in the trace
    and yield an empty answer set rather than a crash. ``context`` is the
    question's own, unbound retrieval handle: the search reads the graph
    from it, binds the plan's keywords as its query (a context already bound
    is a ``ValueError``) and scores every frontier with it.
    """
    trace = SearchTrace(question=question)
    trace.add(
        "run_start",
        schema=TRACE_SCHEMA,
        question=question,
        topic_entities=list(topic_entities),
        config=run_config(search_config, retrieval_config),
    )
    present = []
    for entity in dict.fromkeys(topic_entities):
        if entity in context.g.entities:
            present.append(entity)
        else:
            logger.warning("topic entity %r not in graph; skipping", entity)
            trace.add("topic-entity-miss", entity=entity)
    if not present:
        raise TopicEntityError(f"no topic entity of {list(topic_entities)!r} exists in the graph")

    config, retrieval = search_config, retrieval_config
    k = config.beam_width
    try:
        if config.use_planning:
            with _step(client, trace) as calls:
                plan = generate_plan(calls, question)
        else:
            plan = replace(degraded_plan(question), degraded=False)
        trace.add(
            "plan",
            keywords=list(plan.keywords),
            planning_steps=list(plan.planning_steps),
            declarative_statement=plan.declarative_statement,
            degraded=plan.degraded,
        )
        context.bind_query(" ".join(plan.keywords))

        # Live and halted paths are (arrow, path), in selection-rank order.
        live = [(e, ReasoningPath(start=e)) for e in present]
        halted: list[tuple[str, ReasoningPath]] = []

        def verify(calls: Completer, path: ReasoningPath) -> bool:
            if config.adequacy_mode:
                return adequacy_verify(calls, question, path)
            return verify_global(calls, question, plan, path)

        def expand(depth: int, live: list, events: SearchTrace) -> tuple[list, list | None]:
            """Pool the depth's extensions of ``live`` and, when score order
            fixes the beam, keep it; the depth's events go to ``events``."""
            if retrieval.mode == MODE_PATH_RAG:  # score the depth's frontiers at once
                context.rank([path.terminal_entity for _, path in live], retrieval.m, retrieval.alpha)
            # A pool entry is (total score, parent arrow, step, path, arrow).
            pool = []
            for parent, path in live:
                ranked = candidate_steps(context, path.terminal_entity, retrieval)
                if not ranked:
                    events.add("prune", depth=depth, path=parent, reason=PRUNE_NO_CANDIDATES)
                for cand in ranked:
                    step = cand.step
                    arrow = f"{parent} -> {step.relation} -> {step.entity}"
                    pool.append((cand.total_score, parent, step, path.extend(step), arrow))
            pool.sort(key=lambda e: (-e[0], e[1], e[2].relation, e[2].entity))
            events.add(
                "depth",
                depth=depth,
                live=[arrow for arrow, _ in live],
                pool=[{"path": arrow, "score": round(score, 12)} for score, *_, arrow in pool],
            )
            fixed = fixed_beam(len(pool), k, depth == config.max_depth)
            return pool, keep(depth, pool, fixed, events) if pool and fixed else None

        def keep(depth: int, pool: list, selection: tuple[list[int], str], events: SearchTrace) -> list:
            """The selected pool entries as the beam; the depth's prune and
            selection events go to ``events``."""
            indices, mode = selection
            chosen = [pool[i] for i in indices]
            kept = {arrow for *_, arrow in chosen}
            for *_, arrow in pool:
                if arrow not in kept:
                    events.add("prune", depth=depth, path=arrow, reason=PRUNE_WIDTH_TRUNCATION)
            events.add("selection", depth=depth, mode=mode, selected=[arrow for *_, arrow in chosen])
            return [(arrow, path) for *_, path, arrow in chosen]

        def select(calls: Completer, pool: list) -> tuple[list[int], str]:
            return select_steps(calls, question, plan, [arrow for *_, arrow in pool], k)

        # The next depth's (events, pool, beam), pooled during this depth,
        # and the outcomes of its calls that rode in this depth's round.
        ahead, prefetched = None, []
        limit = client.backend.concurrency_limit
        for depth in range(1, config.max_depth + 1):
            if not live or halted:
                break
            if ahead is None:
                pool, beam = expand(depth, live, trace)
            else:
                (events, pool, beam), ahead = ahead, None
                trace.events += events.events
            early, prefetched = prefetched, []
            if not pool:
                break
            if beam is None:
                if early:  # the selection rode in the round before
                    (calls, selection, error), early = early[0], []
                    trace.add_calls(calls.records)
                    if error is not None:
                        raise error
                else:
                    with _step(client, trace) as calls:
                        selection = select(calls, pool)
                beam = keep(depth, pool, selection, trace)
            live = beam
            if not config.use_deductive_verifier:
                continue

            # Verify the beam as one batch (concurrently when calls wait) and
            # fold the outcomes back in selection-rank order, so the trace
            # reads as if run one by one. Once calls wait and a call can join
            # the batch, the next depth is pooled first, and its selection
            # call, or a beam that score order fixes, rides in this batch,
            # after this depth's paths, if all fit the backend's limit.
            outcomes = early
            if not outcomes:
                jobs = [(verify, path) for _, path in live]
                if depth < config.max_depth and len(jobs) < limit and client.calls_wait():
                    events = SearchTrace(question)
                    next_pool, next_beam = expand(depth + 1, live, events)
                    ahead = events, next_pool, next_beam
                    if next_beam:
                        riders = [(verify, path) for _, path in next_beam]
                    else:
                        riders = [(select, next_pool)] if next_pool else []
                    if len(jobs) + len(riders) <= limit:
                        jobs += riders
                outcomes = client.run_steps(lambda calls, job: job[0](calls, job[1]), jobs)
                prefetched = outcomes[len(live) :]
            verified, live = live, []
            for (arrow, path), (calls, deduced, error) in zip(verified, outcomes):
                trace.add_calls(calls.records)
                if error is not None:
                    raise error
                trace.add(
                    "verdict",
                    depth=depth,
                    path=arrow,
                    halted=deduced,
                    mode="adequacy" if config.adequacy_mode else "deductive",
                )
                (halted if deduced else live).append((arrow, path))

        # Without the verifier the last live paths answer, also those whose
        # frontier had no onward edge, but a topic entity alone answers
        # nothing (and never halts, since an empty path is not verified).
        answered = halted if config.use_deductive_verifier else live
        answer_paths = [path for _, path in answered if path.steps]
        with _step(client, trace) as calls:
            answers = final_reason(calls, question, answer_paths, config)
        trace.add(
            "final",
            answers=list(answers.answers),
            reason=answers.reason,
            supporting_paths=[p.to_arrow() for p in answers.supporting_paths],
            indirect_paths=[p.to_arrow() for p in answers.indirect_paths],
            halted_depths=[path.depth for path in answer_paths],
        )
        return answers, trace
    except LlmError as exc:
        logger.error("backend failure during search: %s", exc)
        trace.add("backend-failure", error=str(exc), error_type=type(exc).__name__)
        answers = AnswerSet(reason=REASON_BACKEND_FAILURE)
        trace.add("final", answers=[], reason=REASON_BACKEND_FAILURE)
        return answers, trace
    finally:
        client.close()


@contextmanager
def _step(client: LlmClient, trace: SearchTrace):
    """One logical step's calls, added to the trace when the step ends,
    also when it fails."""
    step = StepCalls(client)
    try:
        yield step
    finally:
        trace.add_calls(step.records)
