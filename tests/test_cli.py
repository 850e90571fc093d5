import json
from dataclasses import replace

import pytest

from kgreason import cli
from kgreason.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, _effective_config, build_parser, main
from kgreason.config import load_config
from kgreason.embedding import HashingEmbedder, build_index
from kgreason.kg import load_triples


BIEBER_Q = "Who is the ex-wife of Justin Bieber's father?"
IRAN_Q = "What form of government is in the country that uses the Iranian rial?"


@pytest.fixture
def index_file(tmp_path):
    out = tmp_path / "combined.idx"
    code = main(["index", "--kg", "fixtures/combined.tsv", "--out", str(out)])
    assert code == EXIT_OK
    return out


def ask_args(index_file, question, topic, **extra):
    args = [
        "ask",
        "--kg", "fixtures/combined.tsv",
        "--index", str(index_file),
        "--script", "fixtures/mock_script.json",
        "--question", question,
        "--topic-entity", topic,
    ]
    for flag, value in extra.items():
        args.extend([f"--{flag.replace('_', '-')}", str(value)])
    return args


# --- index ---------------------------------------------------------------------


def test_index_prints_vocabulary_counts(tmp_path, capsys):
    out = tmp_path / "combined.idx"
    code = main(["index", "--kg", "fixtures/combined.tsv", "--out", str(out)])
    lines = capsys.readouterr().out.splitlines()
    assert code == EXIT_OK
    assert "entities: 10" in lines
    assert "relations: 5" in lines
    assert "zero-norm entity rows: 0" in lines
    assert "dimension: 64" in lines
    assert "fingerprint: hashing-embedder/1 d=64" in lines
    assert out.exists()


def test_index_counts_zero_norm_rows(tmp_path, capsys):
    kg = tmp_path / "dots.tsv"
    kg.write_text("...\tknows\tAlice\nAlice\tknows\tBob\n", encoding="utf-8")
    assert main(["index", "--kg", str(kg), "--out", str(tmp_path / "dots.idx")]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "entities: 3" in lines
    assert "zero-norm entity rows: 1" in lines
    assert "zero-norm relation rows: 0" in lines


def test_index_rerun_is_byte_identical(tmp_path):
    first = tmp_path / "a.idx"
    second = tmp_path / "b.idx"
    assert main(["index", "--kg", "fixtures/iran.tsv", "--out", str(first)]) == EXIT_OK
    assert main(["index", "--kg", "fixtures/iran.tsv", "--out", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_index_missing_kg_exits_2_naming_path(tmp_path, capsys):
    code = main(["index", "--kg", "no/such/file.tsv", "--out", str(tmp_path / "x.idx")])
    assert code == EXIT_USAGE
    assert "no/such/file.tsv" in capsys.readouterr().err


# --- ask ------------------------------------------------------------------------


def test_ask_bieber_prints_answer_and_path(index_file, capsys):
    code = main(ask_args(index_file, BIEBER_Q, "Justin_Bieber"))
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert f"question: {BIEBER_Q}" in out
    assert "answers: Erin_Wagner" in out
    assert (
        "path: Justin_Bieber -> people.person.father -> Jeremy_Bieber"
        " -> people.married_to.person -> Erin_Wagner"
    ) in out


def test_ask_iran_prints_three_answers(index_file, capsys):
    code = main(ask_args(index_file, IRAN_Q, "Iranian_rial"))
    out = capsys.readouterr().out
    assert code == EXIT_OK
    answer_line = [l for l in out.splitlines() if l.startswith("answers: ")][0]
    got = {a.strip() for a in answer_line.removeprefix("answers: ").split(",")}
    assert got == {"Islamic_republic", "Theocracy", "Unitary_state"}
    assert len([l for l in out.splitlines() if l.startswith("path: ")]) == 3


def test_ask_dead_end_topic_is_still_success(index_file, tmp_path, capsys):
    script = tmp_path / "script.json"
    script.write_text(
        json.dumps(
            {
                "dead end?": {
                    "answers": ["Nothing"],
                    "plan": {
                        "keywords": ["dead", "end"],
                        "planning_steps": [],
                        "declarative_statement": "The answer is *placeholder*.",
                    },
                }
            }
        )
    )
    args = [
        "ask",
        "--kg", "fixtures/combined.tsv",
        "--index", str(index_file),
        "--script", str(script),
        "--question", "dead end?",
        "--topic-entity", "US",
    ]
    code = main(args)
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "answers: (none)" in out
    assert "reason: no-deducible-path" in out


def test_ask_replay_reproduces_answers(index_file, tmp_path, capsys):
    trace_path = tmp_path / "run.trace"
    code = main(ask_args(index_file, IRAN_Q, "Iranian_rial", trace=str(trace_path)))
    assert code == EXIT_OK
    live_out = capsys.readouterr().out
    assert f"trace: {trace_path}" in live_out

    replay_code = main(
        [
            "ask",
            "--kg", "fixtures/combined.tsv",
            "--index", str(index_file),
            "--replay", str(trace_path),
        ]
    )
    replay_out = capsys.readouterr().out
    assert replay_code == EXIT_OK
    live_answers = [l for l in live_out.splitlines() if l.startswith("answers: ")]
    replay_answers = [l for l in replay_out.splitlines() if l.startswith("answers: ")]
    assert replay_answers == live_answers


DROP = object()


@pytest.mark.parametrize("field, value, problem", [
    pytest.param("key", DROP, "lacks", id="key"),
    pytest.param("bindings_digest", DROP, "lacks", id="bindings_digest"),
    pytest.param("response", DROP, "lacks", id="response"),
    pytest.param("response", 5, "has ill-typed", id="response=5"),
    pytest.param("prompt_tokens", "5", "has ill-typed", id="prompt_tokens='5'"),
])
def test_ask_replay_of_a_call_without_a_field_is_a_usage_error(
    index_file, tmp_path, capsys, field, value, problem
):
    """A recorded call that lacks a field, or holds one of the wrong type."""
    trace_path = tmp_path / "run.trace"
    assert main(ask_args(index_file, IRAN_Q, "Iranian_rial", trace=str(trace_path))) == EXIT_OK
    events = [json.loads(line) for line in trace_path.read_text().splitlines()]
    (number, call) = next((n, e) for n, e in enumerate(events, 1) if e["event"] == "llm_call")
    if value is DROP:
        del call[field]
    else:
        call[field] = value
    trace_path.write_text("".join(json.dumps(e) + "\n" for e in events))
    capsys.readouterr()
    code = main(["ask", "--kg", "fixtures/combined.tsv", "--index", str(index_file),
                 "--replay", str(trace_path)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err == f"error: trace event {number} (llm_call) {problem} {field}\n"


@pytest.mark.parametrize("damage, message", [
    (lambda events: [[1], *events[1:]], "trace line 1 is not a JSON object"),
    (lambda events: [events[0], "just a string", *events[1:]], "trace line 2 is not a JSON object"),
    (
        lambda events: [{**events[0], "topic_entities": "Justin_Bieber"}, *events[1:]],
        "the trace's run_start topic_entities is not a list of strings",
    ),
    (
        lambda events: [{**events[0], "question": ["q"]}, *events[1:]],
        "the trace's run_start question is not a string",
    ),
], ids=["list-line", "string-line", "string-topics", "list-question"])
def test_ask_replay_of_a_malformed_trace_is_a_usage_error(
    index_file, tmp_path, capsys, damage, message
):
    """A line that is not an object, or a run_start field of the wrong type."""
    trace_path = tmp_path / "run.trace"
    assert main(ask_args(index_file, BIEBER_Q, "Justin_Bieber", trace=str(trace_path))) == EXIT_OK
    events = [json.loads(line) for line in trace_path.read_text().splitlines()]
    trace_path.write_text("".join(json.dumps(e) + "\n" for e in damage(events)))
    capsys.readouterr()
    code = main(["ask", "--kg", "fixtures/combined.tsv", "--index", str(index_file),
                 "--replay", str(trace_path)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


def test_ask_unknown_topic_entity_is_runtime_error(index_file, capsys):
    code = main(ask_args(index_file, BIEBER_Q, "Atlantis"))
    assert code == EXIT_RUNTIME


def test_ask_unscripted_question_is_runtime_error(index_file):
    code = main(ask_args(index_file, "who is this?", "Justin_Bieber"))
    assert code == EXIT_RUNTIME


def test_ask_fingerprint_mismatch_names_rebuild_command(tmp_path, capsys):
    other = tmp_path / "narrow.idx"
    assert main(["index", "--kg", "fixtures/combined.tsv", "--out", str(other), "--dimension", "32"]) == EXIT_OK
    # hand-edit the header so the stored fingerprint no longer matches
    header_line, body = other.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    header["fingerprint"] = "hashing-embedder/1 d=999"
    other.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
    code = main(ask_args(other, BIEBER_Q, "Justin_Bieber"))
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "rebuild" in err


def write_v1_index(path):
    """A complete index of the combined graph in the retired layout, one JSON
    record per vector."""
    with open("fixtures/combined.tsv") as fh:
        idx = build_index(load_triples(fh), HashingEmbedder())
    header = {"dimension": idx.dimension, "entities": len(idx.entity_names),
              "fingerprint": idx.fingerprint, "format": "kgreason-index/1",
              "relations": len(idx.relation_names)}
    lines = [json.dumps(header, sort_keys=True)]
    for kind, names, matrix in (("entity", idx.entity_names, idx.entity_matrix),
                                ("relation", idx.relation_names, idx.relation_matrix)):
        lines += [json.dumps({"id": key, "kind": kind, "vec": vec.tolist()}, sort_keys=True)
                  for key, vec in zip(names, matrix)]
    path.write_text("\n".join(lines) + "\n")


def truncate_index(path):
    assert main(["index", "--kg", "fixtures/combined.tsv", "--out", str(path)]) == EXIT_OK
    path.write_bytes(path.read_bytes()[:-1])


def huge_dimension_index(path):
    """A header that claims one entity of dimension 2**40, then 16 bytes."""
    header = {"dimension": 2**40, "entities": ["Justin_Bieber"], "fingerprint": "x",
              "format": "kgreason-index/2", "relations": []}
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + bytes(16))


@pytest.mark.parametrize(
    "damage", [write_v1_index, truncate_index, huge_dimension_index],
    ids=["v1", "truncated", "huge-dimension"],
)
def test_ask_unreadable_index_names_rebuild_command(tmp_path, capsys, damage):
    path = tmp_path / "combined.idx"
    damage(path)
    capsys.readouterr()
    code = main(ask_args(path, BIEBER_Q, "Justin_Bieber"))
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "rebuild" in err
    assert f"kgreason index --kg fixtures/combined.tsv --out {path}" in err


def test_ask_index_with_a_string_dimension_names_rebuild_command(tmp_path, capsys):
    path = tmp_path / "combined.idx"
    assert main(["index", "--kg", "fixtures/combined.tsv", "--out", str(path)]) == EXIT_OK
    header_line, body = path.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    header["dimension"] = str(header["dimension"])
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
    capsys.readouterr()
    code = main(ask_args(path, BIEBER_Q, "Justin_Bieber"))
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert f"kgreason index --kg fixtures/combined.tsv --out {path}" in err


def test_ask_index_of_another_graph_names_rebuild_command(tmp_path, capsys):
    iran_index = tmp_path / "iran.idx"
    assert main(["index", "--kg", "fixtures/iran.tsv", "--out", str(iran_index)]) == EXIT_OK
    capsys.readouterr()
    code = main(ask_args(iran_index, IRAN_Q, "Iranian_rial"))
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "was not built from graph fixtures/combined.tsv" in err
    assert f"kgreason index --kg fixtures/combined.tsv --out {iran_index}" in err


# --- eval ------------------------------------------------------------------------


def test_eval_fixture_batch_golden_stdout(index_file, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(
        [
            "eval",
            "--kg", "fixtures/combined.tsv",
            "--index", str(index_file),
            "--script", "fixtures/mock_script.json",
            "--dataset", "fixtures/dataset.jsonl",
            "--out", str(report_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    for line in (
        "questions: 2",
        "failures: 0",
        "hits@1: 1.0000",
        "f1: 1.0000",
        "accuracy: 1.0000",
        "avg_depth: 2.0000",
        "coverage_ratio: 1.0000",
        "validity_ratio: 1.0000",
        "avg_llm_calls: 5.5000",
    ):
        assert line in out.splitlines()
    report = json.loads(report_path.read_text())
    assert report["schema"] == "kgreason-report/1"
    assert len(report["results"]) == 2


def test_eval_adequacy_mode_stops_shallower(index_file, tmp_path, capsys):
    def run(mode, out_name):
        code = main(
            [
                "eval",
                "--kg", "fixtures/combined.tsv",
                "--index", str(index_file),
                "--script", "fixtures/mock_script.json",
                "--dataset", "fixtures/dataset.jsonl",
                "--mode", mode,
                "--out", str(tmp_path / out_name),
            ]
        )
        assert code == EXIT_OK
        capsys.readouterr()
        return json.loads((tmp_path / out_name).read_text())

    deductive = run("deductive", "deductive.json")
    adequacy = run("adequacy", "adequacy.json")
    # The stock mock only answers yes when the terminal entity is a gold
    # answer, so both modes halt identically on the fixtures; the reports
    # must both exist and agree on depth here.
    assert deductive["aggregates"]["avg_depth"] == 2.0
    assert adequacy["aggregates"]["avg_depth"] == 2.0


def test_eval_empty_dataset_exits_2(index_file, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code = main(
        [
            "eval",
            "--kg", "fixtures/combined.tsv",
            "--index", str(index_file),
            "--script", "fixtures/mock_script.json",
            "--dataset", str(empty),
        ]
    )
    assert code == EXIT_USAGE
    assert "no records" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "search.width = 0",
    "search.depth = 0",
    "retriever.m = 0",
    "retriever.alpha = -1",
    "retriever.alpha = nan",
    "search.demo_count = -1",
    "search.json_retries = 2",
    "decode.temperature = nan",
    "decode.top_p = -4",
])
def test_eval_refuses_a_setting_the_run_cannot_use(index_file, tmp_path, capsys, line):
    config = tmp_path / "run.cfg"
    config.write_text(f"schema = kgreason-config/1\n{line}\n")
    report_path = tmp_path / "report.json"
    code = main(
        [
            "eval",
            "--config", str(config),
            "--kg", "fixtures/combined.tsv",
            "--index", str(index_file),
            "--script", "fixtures/mock_script.json",
            "--dataset", "fixtures/dataset.jsonl",
            "--out", str(report_path),
        ]
    )
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert not report_path.exists()


@pytest.mark.parametrize("command, line, flags, message", [
    ("ask", "search.width = 0", [], "line 4: search.width: beam_width must be >= 1"),
    ("ask", "", ["--width", "0"], "search.width: beam_width must be >= 1"),
    ("eval", "eval.parallelism = 0", [], "line 4: eval.parallelism: parallelism must be >= 1"),
    ("eval", "", ["--parallelism", "0"], "eval.parallelism: parallelism must be >= 1"),
])
def test_bad_config_value_exits_2_before_any_file_is_read(
    tmp_path, capsys, command, line, flags, message
):
    config = tmp_path / "run.cfg"
    config.write_text(
        f"schema = kgreason-config/1\nkg = no/such/graph.tsv\nindex = no/such.idx\n{line}\n"
    )
    required = {"ask": ["--question", "q", "--topic-entity", "S"], "eval": ["--dataset", "d.jsonl"]}
    code = main([command, "--config", str(config), *required[command], *flags])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


def test_eval_calls_the_model_with_the_configured_decode_values(
    index_file, tmp_path, monkeypatch
):
    seen = []

    class Recording:
        def __init__(self, inner):
            self.inner = inner
            self.concurrency_limit = inner.concurrency_limit

        def complete(self, rendered, params):
            seen.append(params)
            return self.inner.complete(rendered, params)

    build = cli._build_backend
    monkeypatch.setattr(cli, "_build_backend", lambda rc, g: Recording(build(rc, g)))
    config = tmp_path / "run.cfg"
    config.write_text("schema = kgreason-config/1\ndecode.temperature = 0\ndecode.top_p = 0.9\n")
    code = main(
        [
            "eval",
            "--config", str(config),
            "--kg", "fixtures/combined.tsv",
            "--index", str(index_file),
            "--script", "fixtures/mock_script.json",
            "--dataset", "fixtures/dataset.jsonl",
            "--out", str(tmp_path / "report.json"),
        ]
    )
    assert code == EXIT_OK
    assert seen
    assert {(p.temperature, p.top_p) for p in seen} == {(0.0, 0.9)}


# --- validate --------------------------------------------------------------------


def test_validate_engine_paths_are_fully_valid(tmp_path, capsys):
    paths = tmp_path / "paths.txt"
    paths.write_text(
        "Justin_Bieber -> people.person.father -> Jeremy_Bieber"
        " -> people.married_to.person -> Erin_Wagner\n"
    )
    code = main(["validate", "--kg", "fixtures/combined.tsv", "--paths", str(paths)])
    out = capsys.readouterr().out.splitlines()
    assert code == EXIT_OK
    assert "paths: 1" in out
    assert "steps: 2" in out
    assert "vr: 1.000" in out
    assert "missing-triple: 0" in out


def test_validate_fabricated_hop_among_three_steps(tmp_path, capsys):
    paths = tmp_path / "paths.txt"
    paths.write_text(
        "Justin_Bieber -> people.person.father -> Jeremy_Bieber"
        " -> people.married_to.person -> Erin_Wagner\n"
        "Iran -> location.country.invented_relation -> Theocracy\n"
    )
    code = main(["validate", "--kg", "fixtures/combined.tsv", "--paths", str(paths)])
    out = capsys.readouterr().out.splitlines()
    assert code == EXIT_OK
    assert "steps: 3" in out
    assert "valid-steps: 2" in out
    assert "vr: 0.667" in out
    assert "missing-triple: 1" in out


def test_validate_counts_format_errors(tmp_path, capsys):
    paths = tmp_path / "paths.txt"
    paths.write_text("A -> -> B\n")
    code = main(["validate", "--kg", "fixtures/combined.tsv", "--paths", str(paths)])
    out = capsys.readouterr().out.splitlines()
    assert code == EXIT_OK
    assert "format-error: 1" in out
    assert "paths: 0" in out
    assert "vr: n/a" in out


# --- config file and flag overrides -------------------------------------------------


def test_config_file_drives_ask(index_file, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "schema = kgreason-config/1\n"
        "kg = fixtures/combined.tsv\n"
        f"index = {index_file}\n"
        "backend.kind = mock\n"
        "backend.script = fixtures/mock_script.json\n"
    )
    code = main(
        [
            "ask",
            "--config", str(cfg),
            "--question", BIEBER_Q,
            "--topic-entity", "Justin_Bieber",
        ]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "answers: Erin_Wagner" in out


def test_wire_settings_reach_the_wire_backend(index_file, tmp_path, capsys, caplog, monkeypatch):
    """The wire backend gets the file's endpoint, model and token variable;
    with the variable unset it fails before sending anything."""
    monkeypatch.delenv("KGREASON_TEST_TOKEN", raising=False)
    cfg = tmp_path / "run.cfg"
    base = (
        "schema = kgreason-config/1\n"
        "kg = fixtures/combined.tsv\n"
        f"index = {index_file}\n"
        "backend.kind = wire\n"
        "backend.auth_env = KGREASON_TEST_TOKEN\n"
    )
    args = ["ask", "--config", str(cfg), "--question", BIEBER_Q, "--topic-entity", "Justin_Bieber"]
    cfg.write_text(base + "backend.model = test-model\n")
    assert main(args) == EXIT_USAGE
    assert "needs backend.endpoint and backend.model" in capsys.readouterr().err
    cfg.write_text(base + "backend.model = test-model\nbackend.endpoint = https://example.test/v1\n")
    assert main(args) == EXIT_RUNTIME
    assert "reason: backend-failure" in capsys.readouterr().out
    assert "KGREASON_TEST_TOKEN is not set" in caplog.text


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("schema = kgreason-config/1\nmystery.key = 1\n")
    code = main(["ask", "--config", str(cfg), "--question", "q", "--topic-entity", "S"])
    assert code == EXIT_USAGE


FILE_VALUES = (
    "schema = kgreason-config/1\n"
    "kg = file.tsv\n"
    "index = file.idx\n"
    "search.width = 3\n"
    "search.depth = 5\n"
    "search.adequacy_mode = true\n"
    "retriever.mode = vanilla\n"
    "backend.script = file.json\n"
    "demonstrations = file-demos.json\n"
    "eval.parallelism = 3\n"
    "out.report = file-report.json\n"
    "out.trace = file-trace.jsonl\n"
)
# (flag, value, RunConfig field or ``object.field``, parsed value); every value
# differs from FILE_VALUES.
SHARED_FLAGS = [
    ("--kg", "flag.tsv", "kg", "flag.tsv"),
    ("--index", "flag.idx", "index", "flag.idx"),
    ("--width", "7", "search.beam_width", 7),
    ("--depth", "2", "search.max_depth", 2),
    ("--mode", "deductive", "search.adequacy_mode", False),
    ("--retriever", "kaping", "retriever.mode", "kaping"),
    ("--script", "flag.json", "backend_script", "flag.json"),
    ("--demonstrations", "flag-demos.json", "demonstrations", "flag-demos.json"),
]
OWN_FLAGS = {
    "ask": [("--trace", "flag-trace.jsonl", "out_trace", "flag-trace.jsonl")],
    "eval": [
        ("--parallelism", "6", "eval_parallelism", 6),
        ("--out", "flag-report.json", "out_report", "flag-report.json"),
    ],
}


def _with_value(config, path, value):
    """A copy of ``config`` with the field at ``path`` set to ``value``."""
    attr, _, name = path.partition(".")
    if name:
        value = replace(getattr(config, attr), **{name: value})
    return replace(config, **{attr: value})


@pytest.mark.parametrize("command", ["ask", "eval"])
def test_each_flag_overrides_only_its_config_value(command, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FILE_VALUES)
    from_file = load_config(str(cfg))
    required = ["--dataset", "d.jsonl"] if command == "eval" else []
    for flag, value, path, expected in SHARED_FLAGS + OWN_FLAGS[command]:
        args = build_parser().parse_args([command, "--config", str(cfg), *required, flag, value])
        assert _with_value(from_file, path, expected) != from_file, flag
        assert _effective_config(args) == _with_value(from_file, path, expected), flag
    args = build_parser().parse_args([command, *required, "--mode", "adequacy"])
    assert _effective_config(args).search.adequacy_mode is True
