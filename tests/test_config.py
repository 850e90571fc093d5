from dataclasses import fields

import pytest

from kgreason.config import (
    CONFIG_SCHEMA,
    ConfigError,
    RunConfig,
    load_config,
    parse_config,
)


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
search.use_beam_search = false

backend.kind = mock
backend.script = fixtures/mock_script.json
decode.temperature = 0.7
eval.parallelism = 4
out.report = out/report.json
"""


def test_full_config_parses():
    config = parse_config(FULL)
    assert config.kg == "fixtures/combined.tsv"
    assert config.retriever_mode == "vanilla"
    assert config.retriever_m == 7
    assert config.retriever_alpha == 0.5
    assert config.search_width == 2
    assert config.search_depth == 3
    assert config.search_adequacy_mode is True
    assert config.search_use_beam_search is False
    assert config.backend_kind == "mock"
    assert config.decode_temperature == 0.7
    assert config.eval_parallelism == 4
    assert config.out_report == "out/report.json"


def test_defaults_match_engine_defaults():
    config = parse_config(f"schema = {CONFIG_SCHEMA}\n")
    assert config.search_width == 4
    assert config.search_depth == 4
    assert config.retriever_alpha == 0.3
    assert config.retriever_mode == "path-rag"
    assert config.decode_temperature == 0.3
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
    "line", ["retriever.neighbor_cap = 256", "search.demo_count = 5", "search.json_retries = 2"]
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


def test_builders_carry_values_through():
    config = parse_config(FULL)
    sc = config.search_config()
    assert sc.beam_width == 2
    assert sc.max_depth == 3
    assert sc.adequacy_mode is True
    assert sc.use_beam_search is False
    rc = config.retrieval_config()
    assert rc.mode == "vanilla"
    assert rc.m == 7
    assert rc.alpha == 0.5
    dp = config.decode_params()
    assert dp.temperature == 0.7
    assert dp.top_p == 1.0


def test_load_config_from_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(FULL)
    assert load_config(str(path)) == parse_config(FULL)


def test_fixture_config_parses():
    config = load_config("fixtures/run.cfg")
    assert isinstance(config, RunConfig)
    assert config.backend_kind == "mock"
    assert config.kg.endswith("combined.tsv")


# The file keys, written out independently of the RunConfig field names.
FILE_KEYS = {
    "kg": "kg",
    "index": "index",
    "retriever.mode": "retriever_mode",
    "retriever.m": "retriever_m",
    "retriever.alpha": "retriever_alpha",
    "search.width": "search_width",
    "search.depth": "search_depth",
    "search.use_planning": "search_use_planning",
    "search.use_deductive_verifier": "search_use_deductive_verifier",
    "search.use_beam_search": "search_use_beam_search",
    "search.use_last_step_reasoning": "search_use_last_step_reasoning",
    "search.adequacy_mode": "search_adequacy_mode",
    "backend.kind": "backend_kind",
    "backend.endpoint": "backend_endpoint",
    "backend.model": "backend_model",
    "backend.auth_env": "backend_auth_env",
    "backend.script": "backend_script",
    "decode.temperature": "decode_temperature",
    "decode.top_p": "decode_top_p",
    "demonstrations": "demonstrations",
    "eval.parallelism": "eval_parallelism",
    "out.report": "out_report",
    "out.trace": "out_trace",
}


def test_every_field_parses_from_its_dotted_key():
    assert set(FILE_KEYS.values()) == {f.name for f in fields(RunConfig)}
    defaults = RunConfig()
    closed_sets = {"retriever_mode": "kaping", "backend_kind": "wire"}
    for key, attr in FILE_KEYS.items():
        default = getattr(defaults, attr)
        if attr in closed_sets:
            text = expected = closed_sets[attr]
        elif isinstance(default, bool):
            text, expected = str(not default).lower(), not default
        elif isinstance(default, (int, float)):
            text, expected = str(default + 3), default + 3
        else:
            text, expected = "some/value", "some/value"
        config = parse_config(f"schema = {CONFIG_SCHEMA}\n{key} = {text}\n")
        assert getattr(config, attr) == expected, key
        assert expected != default, key
