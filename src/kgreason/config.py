"""Run configuration.

A run config is a flat key = value file: full-line comments with '#', one
dotted key per line, an explicit schema version, and a closed key set so a
typo fails loudly instead of silently using a default.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import IO, Union

from .kg import read_text
from .llm import DecodeParams
from .pathrag import RETRIEVER_MODES, RetrievalConfig
from .search import SearchConfig

CONFIG_SCHEMA = "kgreason-config/1"

BACKEND_KINDS = ("mock", "wire")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    kg: str = ""
    index: str = ""
    retriever_mode: str = "path-rag"
    retriever_m: int = 10
    retriever_alpha: float = 0.3
    search_width: int = 4
    search_depth: int = 4
    search_use_planning: bool = True
    search_use_deductive_verifier: bool = True
    search_use_beam_search: bool = True
    search_use_last_step_reasoning: bool = True
    search_adequacy_mode: bool = False
    backend_kind: str = "mock"
    backend_endpoint: str = ""
    backend_model: str = ""
    backend_auth_env: str = "LLM_API_KEY"
    backend_script: str = ""
    decode_temperature: float = 0.3
    decode_top_p: float = 1.0
    demonstrations: str = ""
    eval_parallelism: int = 1
    out_report: str = "report.json"
    out_trace: str = ""

    def search_config(self) -> SearchConfig:
        return SearchConfig(
            beam_width=self.search_width,
            max_depth=self.search_depth,
            use_planning=self.search_use_planning,
            use_deductive_verifier=self.search_use_deductive_verifier,
            use_beam_search=self.search_use_beam_search,
            use_last_step_reasoning=self.search_use_last_step_reasoning,
            adequacy_mode=self.search_adequacy_mode,
        )

    def retrieval_config(self) -> RetrievalConfig:
        return RetrievalConfig(
            m=self.retriever_m,
            alpha=self.retriever_alpha,
            mode=self.retriever_mode,
        )

    def decode_params(self) -> DecodeParams:
        return DecodeParams(
            temperature=self.decode_temperature, top_p=self.decode_top_p
        )


# File key → RunConfig attribute. The file's dotted name is the attribute
# name with its first underscore written as a dot.
_KEY_MAP = {f.name.replace("_", ".", 1): f.name for f in fields(RunConfig)}

_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key: str, text: str, line_number: int):
    target_type = _FIELD_TYPES[_KEY_MAP[key]]
    if target_type == "bool":
        lowered = text.lower()
        if lowered in ("true", "false"):
            return lowered == "true"
        raise ConfigError(f"line {line_number}: {key} expects true or false, got {text!r}")
    if target_type in ("int", "float"):
        try:
            return int(text) if target_type == "int" else float(text)
        except ValueError:
            kind = "an integer" if target_type == "int" else "a number"
            raise ConfigError(f"line {line_number}: {key} expects {kind}, got {text!r}")
    return text


def parse_config(text: str) -> RunConfig:
    config = RunConfig()
    saw_schema = False
    for line_number, line in enumerate(text.splitlines(), start=1):
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
        if key not in _KEY_MAP:
            raise ConfigError(f"line {line_number}: unknown key {key!r}")
        setattr(config, _KEY_MAP[key], _parse_value(key, value, line_number))
    if not saw_schema:
        raise ConfigError(f"config must declare schema = {CONFIG_SCHEMA}")
    if config.retriever_mode not in RETRIEVER_MODES:
        raise ConfigError(f"retriever.mode must be one of {', '.join(RETRIEVER_MODES)}")
    if config.backend_kind not in BACKEND_KINDS:
        raise ConfigError(f"backend.kind must be one of {', '.join(BACKEND_KINDS)}")
    return config


def load_config(source: Union[str, IO[str]]) -> RunConfig:
    return parse_config(read_text(source))
