"""Command-line entry points.

Four subcommands: ``index`` embeds a graph's vocabulary and persists it,
``ask`` answers one question (optionally writing or replaying a trace),
``eval`` scores a dataset into a report, and ``validate`` checks a file of
arrow-format paths against a graph.

Exit codes are a stable contract: 0 success (an empty answer is still a
success), 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import sys

from .config import KEYS, ConfigError, RunConfig, load_config, set_value
from .embedding import (
    EmbedderError,
    HashingEmbedder,
    build_index,
    check_index,
    load_index,
    row_norms,
    save_index,
)
from .evaluate import DatasetError, load_dataset, run_experiment
from .kg import (
    PathParseError, ReasoningPath, TripleParseError, load_triples, read_text, split_lines, validate_path,
)
from .llm import (
    AuthError,
    LlmClient,
    LlmError,
    MockBackend,
    ReplayBackend,
    WireBackend,
    load_mock_script,
)
from .pathrag import RETRIEVER_MODES, ScoreContext
from .prompts import load_demonstrations
from .search import (
    REASON_BACKEND_FAILURE,
    SearchTrace,
    TopicEntityError,
    run_dvbs,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _load_kg(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return load_triples(fh)


def _effective_config(args) -> RunConfig:
    """Start from defaults, apply the config file, then explicit flags: a
    flag's ``dest`` is the file key it overrides, named when its value is
    refused."""
    rc = load_config(args.config) if args.config else RunConfig()
    for key, value in vars(args).items():
        if key in KEYS and value is not None:
            try:
                set_value(rc, key, value)
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from exc
    return rc


def _open_index(rc: RunConfig):
    """Load graph + index and the embedder the index was built with; an
    unreadable index (another format, a truncated body), a fingerprint
    mismatch, or an index whose entities or relations are not exactly the
    graph's, is a usage error with a re-index instruction."""
    if not rc.kg:
        raise ConfigError("no knowledge graph path given (kg key or --kg)")
    if not rc.index:
        raise ConfigError("no index path given (index key or --index)")
    g = _load_kg(rc.kg)
    rebuild = f"rebuild it with: kgreason index --kg {rc.kg} --out {rc.index}"
    try:
        idx = load_index(rc.index)
    except ValueError as exc:
        raise ConfigError(f"cannot read index {rc.index}: {exc}; {rebuild}") from exc
    emb = HashingEmbedder(dimension=idx.dimension)
    if emb.fingerprint != idx.fingerprint:
        raise ConfigError(
            f"index fingerprint {idx.fingerprint!r} does not match embedder "
            f"{emb.fingerprint!r}; {rebuild}"
        )
    try:
        check_index(g, idx)
    except ValueError as exc:
        raise ConfigError(
            f"index {rc.index} was not built from graph {rc.kg}: {exc}; {rebuild}"
        ) from exc
    return g, idx, emb


def _build_backend(rc: RunConfig, g):
    if rc.backend_kind == "wire":
        if not rc.backend.endpoint or not rc.backend.model:
            raise ConfigError("wire backend needs backend.endpoint and backend.model")
        return WireBackend(rc.backend)
    if not rc.backend_script:
        raise ConfigError("mock backend needs a script file (backend.script or --script)")
    answer_key, plan_script = load_mock_script(rc.backend_script)
    return MockBackend(g, answer_key, plan_script)


def _demonstrations(rc: RunConfig):
    return load_demonstrations(rc.demonstrations) if rc.demonstrations else None


def cmd_index(args) -> int:
    g = _load_kg(args.kg)
    emb = HashingEmbedder(dimension=args.dimension)
    idx = build_index(g, emb)
    save_index(idx, args.out)
    zero_entities, zero_relations = (
        int((row_norms(matrix) == 0.0).sum()) for matrix in (idx.entity_matrix, idx.relation_matrix)
    )
    print(f"entities: {len(idx.entity_names)}")
    print(f"zero-norm entity rows: {zero_entities}")
    print(f"relations: {len(idx.relation_names)}")
    print(f"zero-norm relation rows: {zero_relations}")
    print(f"dimension: {idx.dimension}")
    print(f"fingerprint: {idx.fingerprint}")
    print(f"index: {args.out}")
    return EXIT_OK


def cmd_ask(args) -> int:
    rc = _effective_config(args)
    g, idx, emb = _open_index(rc)

    question = args.question
    topic_entities = args.topic_entity or []
    if args.replay:
        recorded = SearchTrace.from_jsonl(args.replay)
        start = recorded.events[0]
        if not question:
            question = start.get("question")
            if not isinstance(question, str | None):
                raise ConfigError("the trace's run_start question is not a string")
        if not topic_entities:
            topic_entities = start.get("topic_entities", [])
            if not isinstance(topic_entities, list) or not all(
                isinstance(entity, str) for entity in topic_entities
            ):
                raise ConfigError("the trace's run_start topic_entities is not a list of strings")
        backend = ReplayBackend(recorded.call_records())
    else:
        backend = _build_backend(rc, g)
    if not question:
        print("error: no question given (--question or --replay)", file=sys.stderr)
        return EXIT_USAGE
    if not topic_entities:
        print("error: no topic entities given (--topic-entity or --replay)", file=sys.stderr)
        return EXIT_USAGE

    client = LlmClient(backend, params=rc.decode, demonstrations=_demonstrations(rc))
    answers, trace = run_dvbs(
        question, topic_entities, ScoreContext(g, idx, emb), client, rc.search, rc.retriever
    )
    if rc.out_trace:
        with open(rc.out_trace, "w", encoding="utf-8") as fh:
            fh.write(trace.to_jsonl())
    print(f"question: {question}")
    if answers.answers:
        print(f"answers: {', '.join(answers.answers)}")
    else:
        print("answers: (none)")
    if answers.reason:
        print(f"reason: {answers.reason}")
    for path in answers.supporting_paths:
        print(f"path: {path.to_arrow()}")
    for path in answers.indirect_paths:
        print(f"path (indirect): {path.to_arrow()}")
    if rc.out_trace:
        print(f"trace: {rc.out_trace}")
    if answers.reason == REASON_BACKEND_FAILURE:
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_eval(args) -> int:
    rc = _effective_config(args)
    g, idx, emb = _open_index(rc)
    records = load_dataset(args.dataset)
    if not records:
        print("error: no records in dataset", file=sys.stderr)
        return EXIT_USAGE
    backend = _build_backend(rc, g)
    report = run_experiment(
        records,
        g,
        idx,
        emb,
        backend,
        rc.search,
        rc.retriever,
        _demonstrations(rc),
        parallelism=rc.eval_parallelism,
        params=rc.decode,
    )
    with open(rc.out_report, "w", encoding="utf-8") as fh:
        fh.write(report.to_json_text())
    agg = report.aggregates

    def fmt(value):
        return "n/a" if value is None else f"{value:.4f}"

    print(f"questions: {agg['questions']}")
    print(f"failures: {agg['failures']}")
    print(f"hits@1: {fmt(agg['hits_at_1'])}")
    print(f"f1: {fmt(agg['f1'])}")
    print(f"accuracy: {fmt(agg['accuracy'])}")
    print(f"avg_depth: {fmt(agg['avg_depth'])}")
    print(f"coverage_ratio: {fmt(agg['coverage_ratio'])}")
    print(f"validity_ratio: {fmt(agg['validity_ratio'])}")
    print(f"avg_llm_calls: {fmt(agg['avg_llm_calls'])}")
    print(f"report: {rc.out_report}")
    return EXIT_OK


def cmd_validate(args) -> int:
    g = _load_kg(args.kg)
    lines = split_lines(read_text(args.paths))
    paths = 0
    valid_steps = 0
    total_steps = 0
    missing = 0
    format_errors = 0
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            path = ReasoningPath.from_arrow(stripped)
        except PathParseError:
            format_errors += 1
            continue
        paths += 1
        report = validate_path(g, path)
        valid_steps += report.valid_step_count
        total_steps += report.total_step_count
        missing += len(report.errors)
    print(f"paths: {paths}")
    print(f"steps: {total_steps}")
    print(f"valid-steps: {valid_steps}")
    vr = "n/a" if total_steps == 0 else f"{valid_steps / total_steps:.3f}"
    print(f"vr: {vr}")
    print(f"missing-triple: {missing}")
    print(f"format-error: {format_errors}")
    return EXIT_OK


class _AdequacyModeAction(argparse.Action):
    """``--mode adequacy`` sets search.adequacy_mode, ``--mode deductive``
    clears it."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values == "adequacy")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgreason",
        description="Knowledge-graph question answering with verification-gated beam search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="embed a graph's vocabulary into an index file")
    p_index.add_argument("--kg", required=True, help="knowledge graph TSV file")
    p_index.add_argument("--out", required=True, help="index file to write")
    p_index.add_argument("--dimension", type=int, default=64)
    p_index.set_defaults(func=cmd_index)

    # Flags shared by ask and eval; each dest is the file key it sets.
    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument("--config", help="run config file")
    run_flags.add_argument("--kg", help="knowledge graph TSV file")
    run_flags.add_argument("--index", help="index file")
    run_flags.add_argument("--width", dest="search.width", type=int, help="beam width")
    run_flags.add_argument("--depth", dest="search.depth", type=int, help="maximum path depth")
    run_flags.add_argument(
        "--mode", dest="search.adequacy_mode", action=_AdequacyModeAction,
        choices=["deductive", "adequacy"], help="halting check",
    )
    run_flags.add_argument("--retriever", dest="retriever.mode", choices=RETRIEVER_MODES)
    run_flags.add_argument("--script", dest="backend.script", help="mock backend script file")
    run_flags.add_argument("--demonstrations", help="few-shot demonstrations JSON file")

    p_ask = sub.add_parser("ask", parents=[run_flags], help="answer one question")
    p_ask.add_argument("--question", help="the question to answer")
    p_ask.add_argument("--topic-entity", action="append", help="starting entity (repeatable)")
    p_ask.add_argument("--trace", dest="out.trace", help="write a JSONL trace here")
    p_ask.add_argument("--replay", help="replay a recorded trace instead of calling a backend")
    p_ask.set_defaults(func=cmd_ask)

    p_eval = sub.add_parser("eval", parents=[run_flags], help="evaluate a dataset")
    p_eval.add_argument("--dataset", required=True, help="JSON-lines dataset")
    p_eval.add_argument(
        "--parallelism", dest="eval.parallelism", type=int, help="questions evaluated concurrently"
    )
    p_eval.add_argument("--out", dest="out.report", help="report file to write")
    p_eval.set_defaults(func=cmd_eval)

    p_val = sub.add_parser("validate", help="check arrow-format paths against a graph")
    p_val.add_argument("--kg", required=True, help="knowledge graph TSV file")
    p_val.add_argument("--paths", required=True, help="file of arrow-format paths, one per line")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LlmError, TopicEntityError, EmbedderError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, DatasetError, TripleParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main(None))
