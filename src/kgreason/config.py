"""Run configuration.

A run config is a flat key = value file: full-line comments with '#', one
dotted key per line, an explicit schema version, and a closed key set so a
typo fails loudly instead of silently using a default.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace
from typing import IO, Union

from .kg import read_text, split_lines
from .llm import DecodeParams, WireConfig
from .pathrag import RetrievalConfig
from .search import SearchConfig

CONFIG_SCHEMA = "kgreason-config/1"

BACKEND_KINDS = ("mock", "wire")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    kg: str = ""
    index: str = ""
    retriever: RetrievalConfig = RetrievalConfig()
    search: SearchConfig = SearchConfig()
    backend_kind: str = "mock"
    backend: WireConfig = WireConfig(endpoint="", model="")
    backend_script: str = ""
    decode: DecodeParams = DecodeParams()
    demonstrations: str = ""
    eval_parallelism: int = 1
    out_report: str = "report.json"
    out_trace: str = ""


# A settings field's key is ``object.field``, but for these two short names;
# a plain field's key is its name with the first underscore written as a dot.
_SHORT_NAMES = {"beam_width": "width", "max_depth": "depth"}


def _key_table() -> dict[str, tuple[str, str | None, str]]:
    """File key → (RunConfig field, settings field or None, value type)."""
    table = {}
    for f in fields(RunConfig):
        if is_dataclass(f.default):
            for inner in fields(f.default):
                key = f"{f.name}.{_SHORT_NAMES.get(inner.name, inner.name)}"
                table[key] = (f.name, inner.name, inner.type)
        else:
            table[f.name.replace("_", ".", 1)] = (f.name, None, f.type)
    return table


KEYS = _key_table()


def set_value(config: RunConfig, key: str, value) -> None:
    """Set one file key's value; a settings object's own checks vet its field."""
    attr, name, _ = KEYS[key]
    if attr == "eval_parallelism" and value < 1:
        raise ValueError("parallelism must be >= 1")
    if name is not None:
        value = replace(getattr(config, attr), **{name: value})
    setattr(config, attr, value)


def _parse_value(target_type: str, text: str):
    if target_type == "bool":
        lowered = text.lower()
        if lowered in ("true", "false"):
            return lowered == "true"
        raise ValueError(f"expects true or false, got {text!r}")
    if target_type in ("int", "float"):
        try:
            return int(text) if target_type == "int" else float(text)
        except ValueError:
            kind = "an integer" if target_type == "int" else "a number"
            raise ValueError(f"expects {kind}, got {text!r}")
    return text


def parse_config(text: str) -> RunConfig:
    config = RunConfig()
    saw_schema = False
    for line_number, line in enumerate(split_lines(text), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_number}: expected key = value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "schema":
            if value != CONFIG_SCHEMA:
                raise ConfigError(
                    f"line {line_number}: unsupported schema {value!r}, expected {CONFIG_SCHEMA}"
                )
            saw_schema = True
            continue
        if key not in KEYS:
            raise ConfigError(f"line {line_number}: unknown key {key!r}")
        try:
            set_value(config, key, _parse_value(KEYS[key][2], value))
        except ValueError as exc:
            raise ConfigError(f"line {line_number}: {key}: {exc}") from exc
    if not saw_schema:
        raise ConfigError(f"config must declare schema = {CONFIG_SCHEMA}")
    if config.backend_kind not in BACKEND_KINDS:
        raise ConfigError(f"backend.kind must be one of {', '.join(BACKEND_KINDS)}")
    return config


def load_config(source: Union[str, IO[str]]) -> RunConfig:
    return parse_config(read_text(source))
