from dataclasses import fields, is_dataclass

import pytest

from kgreason.config import (
    CONFIG_SCHEMA,
    ConfigError,
    RunConfig,
    load_config,
    parse_config,
)
from kgreason.llm import DecodeParams
from kgreason.pathrag import RetrievalConfig
from kgreason.search import SearchConfig


FULL = """\
# run settings
schema = kgreason-config/1
kg = fixtures/combined.tsv
index = run.idx

retriever.mode = vanilla
retriever.m = 7
retriever.alpha = 0.5

search.width = 2
search.depth = 3
search.adequacy_mode = true

backend.kind = mock
backend.script = fixtures/mock_script.json
decode.temperature = 0.7
eval.parallelism = 4
out.report = out/report.json
"""


def test_full_config_parses():
    config = parse_config(FULL)
    assert config.kg == "fixtures/combined.tsv"
    assert config.retriever.mode == "vanilla"
    assert config.retriever.m == 7
    assert config.retriever.alpha == 0.5
    assert config.search.beam_width == 2
    assert config.search.max_depth == 3
    assert config.search.adequacy_mode is True
    assert config.backend_kind == "mock"
    assert config.decode.temperature == 0.7
    assert config.eval_parallelism == 4
    assert config.out_report == "out/report.json"


def test_defaults_match_engine_defaults():
    config = parse_config(f"schema = {CONFIG_SCHEMA}\n")
    assert config.search == SearchConfig()
    assert config.retriever == RetrievalConfig()
    assert config.decode == DecodeParams()
    assert config.search.beam_width == 4
    assert config.search.max_depth == 4
    assert config.retriever.alpha == 0.3
    assert config.retriever.mode == "path-rag"
    assert config.decode.temperature == 0.3
    assert config.backend_kind == "mock"


def test_schema_line_is_mandatory():
    with pytest.raises(ConfigError) as exc:
        parse_config("kg = x.tsv\n")
    assert CONFIG_SCHEMA in str(exc.value)


def test_foreign_schema_rejected():
    with pytest.raises(ConfigError):
        parse_config("schema = other-config/3\n")


def test_unknown_key_reports_line_number():
    text = f"schema = {CONFIG_SCHEMA}\nsearch.widht = 4\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert "line 2" in str(exc.value)
    assert "search.widht" in str(exc.value)


@pytest.mark.parametrize(
    "line",
    [
        "retriever.neighbor_cap = 256",
        "search.demo_count = 5",
        "search.json_retries = 2",
        "search.use_beam_search = false",
    ],
)
def test_retired_key_fails_as_unknown_key(line):
    with pytest.raises(ConfigError) as exc:
        parse_config(f"schema = {CONFIG_SCHEMA}\n{line}\n")
    assert str(exc.value) == f"line 2: unknown key {line.split(' = ')[0]!r}"


def test_bad_bool_reports_line_number():
    text = f"schema = {CONFIG_SCHEMA}\nsearch.adequacy_mode = yes\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert "line 2" in str(exc.value)


def test_bad_int_rejected():
    text = f"schema = {CONFIG_SCHEMA}\nsearch.width = four\n"
    with pytest.raises(ConfigError):
        parse_config(text)


def test_missing_equals_rejected():
    text = f"schema = {CONFIG_SCHEMA}\njust a dangling line\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert "line 2" in str(exc.value)


def test_bad_retriever_mode_rejected():
    text = f"schema = {CONFIG_SCHEMA}\nretriever.mode = psychic\n"
    with pytest.raises(ConfigError):
        parse_config(text)


def test_bad_backend_kind_rejected():
    text = f"schema = {CONFIG_SCHEMA}\nbackend.kind = carrier-pigeon\n"
    with pytest.raises(ConfigError):
        parse_config(text)


def test_settings_objects_carry_values_through():
    config = parse_config(FULL)
    assert config.search == SearchConfig(beam_width=2, max_depth=3, adequacy_mode=True)
    assert config.retriever == RetrievalConfig(m=7, alpha=0.5, mode="vanilla")
    assert config.decode == DecodeParams(temperature=0.7, top_p=1.0)


def test_load_config_from_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(FULL)
    assert load_config(str(path)) == parse_config(FULL)


def test_fixture_config_parses():
    config = load_config("fixtures/run.cfg")
    assert isinstance(config, RunConfig)
    assert config.backend_kind == "mock"
    assert config.kg.endswith("combined.tsv")


# The file keys, written out independently of the code: each names a RunConfig
# field, or a field of one of its settings objects as ``object.field``.
FILE_KEYS = {
    "kg": "kg",
    "index": "index",
    "retriever.mode": "retriever.mode",
    "retriever.m": "retriever.m",
    "retriever.alpha": "retriever.alpha",
    "search.width": "search.beam_width",
    "search.depth": "search.max_depth",
    "search.use_planning": "search.use_planning",
    "search.use_deductive_verifier": "search.use_deductive_verifier",
    "search.use_last_step_reasoning": "search.use_last_step_reasoning",
    "search.adequacy_mode": "search.adequacy_mode",
    "backend.kind": "backend_kind",
    "backend.endpoint": "backend.endpoint",
    "backend.model": "backend.model",
    "backend.auth_env": "backend.auth_env",
    "backend.script": "backend_script",
    "decode.temperature": "decode.temperature",
    "decode.top_p": "decode.top_p",
    "demonstrations": "demonstrations",
    "eval.parallelism": "eval_parallelism",
    "out.report": "out_report",
    "out.trace": "out_trace",
}


def _value_at(config, path):
    for name in path.split("."):
        config = getattr(config, name)
    return config


def test_every_field_parses_from_its_dotted_key():
    leaves = set()
    for f in fields(RunConfig):
        if is_dataclass(f.default):
            leaves.update(f"{f.name}.{inner.name}" for inner in fields(f.default))
        else:
            leaves.add(f.name)
    assert set(FILE_KEYS.values()) == leaves
    defaults = RunConfig()
    # Values a closed set or a bounded range allows.
    special = {"retriever.mode": "kaping", "backend.kind": "wire", "decode.top_p": 0.5}
    for key, path in FILE_KEYS.items():
        default = _value_at(defaults, path)
        if key in special:
            expected = special[key]
            text = str(expected)
        elif isinstance(default, bool):
            text, expected = str(not default).lower(), not default
        elif isinstance(default, (int, float)):
            text, expected = str(default + 3), default + 3
        else:
            text, expected = "some/value", "some/value"
        config = parse_config(f"schema = {CONFIG_SCHEMA}\n{key} = {text}\n")
        assert _value_at(config, path) == expected, key
        assert expected != default, key


@pytest.mark.parametrize("line", ["search.width = 0", "retriever.mode = psychic", "retriever.alpha = nan"])
def test_engine_check_fails_at_parse_time_naming_line_and_key(line):
    key = line.split(" = ")[0]
    with pytest.raises(ConfigError) as exc:
        parse_config(f"schema = {CONFIG_SCHEMA}\n# a comment\n{line}\n")
    assert str(exc.value).startswith(f"line 3: {key}: ")
