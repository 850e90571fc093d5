"""Prompt catalog and rendering.

Five templates cover every model interaction: plan generation, deductive
verification of a candidate step, adequacy verification of a whole path,
beam selection among candidate paths, and final answer generation. Each
template is a system instruction plus a user text with named placeholders.
Rendering is byte-deterministic and fails loudly on unbound placeholders.

Few-shot demonstrations are data, not code: a small neutral built-in set is
shipped, and callers can override it from a JSON file.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import IO, Mapping, Sequence, Union

from .kg import read_text

PLAN_AND_SOLVE = "plan_and_solve"
DEDUCTIVE_VERIFY = "deductive_verify"
ADEQUACY_VERIFY = "adequacy_verify"
BEAM_SELECT = "beam_select"
FINAL_REASON = "final_reason"

DEFAULT_DEMO_COUNT = 5

_PLACEHOLDER_RE = re.compile(r"\{([a-z_]+)\}")
# json.dumps(..., sort_keys=True) builds an encoder per call; this one is
# shared (encoding keeps no state between calls) and gives the same text.
_BINDINGS_ENCODER = json.JSONEncoder(sort_keys=True)


class UnboundPlaceholderError(KeyError):
    """A template placeholder had no binding."""

    def __init__(self, template_key: str, names: Sequence[str]):
        self.template_key = template_key
        self.names = tuple(names)
        super().__init__(
            f"template {template_key!r} has unbound placeholder(s): {', '.join(self.names)}"
        )


@dataclass(frozen=True)
class PromptTemplate:
    key: str
    system_text: str
    user_text: str
    # user_text split once at its placeholders: literal text at the even
    # positions, placeholder names at the odd ones
    pieces: tuple[str, ...] = field(init=False, repr=False, compare=False)
    placeholder_names: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pieces = tuple(_PLACEHOLDER_RE.split(self.user_text))
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "placeholder_names", tuple(dict.fromkeys(pieces[1::2])))


@dataclass(frozen=True)
class RenderedPrompt:
    """A fully bound prompt, ready for a backend.

    ``user`` is the few-shot block followed by the filled user text.
    ``word_count`` is ``len((system + " " + user).split())``, the prompt
    size the in-process backends report as prompt tokens; ``render`` adds
    the bound text's words to a count of the system text and few-shot block
    that it makes once per template and demonstrations.
    ``bindings`` keeps everything the caller passed, including extras beyond
    the template's own placeholders; deterministic backends key off them.
    """

    key: str
    system: str
    user: str
    word_count: int
    bindings: Mapping[str, str] = field(default_factory=dict)

    def bindings_digest(self) -> str:
        blob = _BINDINGS_ENCODER.encode(dict(self.bindings))
        return hashlib.blake2b(blob.encode("utf-8"), digest_size=8).hexdigest()


TEMPLATES: dict[str, PromptTemplate] = {
    PLAN_AND_SOLVE: PromptTemplate(
        key=PLAN_AND_SOLVE,
        system_text=(
            "You are a helpful assistant designed to output JSON that aids in "
            "navigating a knowledge graph to answer a provided question. The "
            "response should include the following keys: (1) 'keywords': an "
            "exhaustive list of keywords or relation names that you would use to "
            "find the reasoning path from the knowledge graph to answer the "
            "question. Aim for maximum coverage to ensure no potential reasoning "
            "paths will be overlooked; (2) 'planning_steps': a list of detailed "
            "steps required to trace the reasoning path with. Each step should be "
            "a string instead of a dict. (3) 'declarative_statement': a string of "
            "declarative statement that can be transformed from the given query, "
            "For example, convert the question 'What do Jamaican people speak?' "
            "into the statement 'Jamaican people speak *placeholder*.' leave the "
            "*placeholder* unchanged; Ensure the JSON object clearly separates "
            "these components."
        ),
        user_text="Q: {query}\n\nA:",
    ),
    DEDUCTIVE_VERIFY: PromptTemplate(
        key=DEDUCTIVE_VERIFY,
        system_text=(
            "You are asked to verify whether the reasoning step follows "
            "deductively from the question and the current reasoning path in a "
            "deductive manner. If yes return yes, if no, return no."
        ),
        user_text=(
            "Whether the conclusion '{declarative_statement}' can be deduced from "
            "'{parsed_reasoning_path}', if yes, return yes, if no, return no.\n\nA:"
        ),
    ),
    ADEQUACY_VERIFY: PromptTemplate(
        key=ADEQUACY_VERIFY,
        system_text=(
            "You are asked to verify whether it's sufficient for you to answer "
            "the question with the following reasoning path. For each reasoning "
            "path, respond with 'Yes' if it is sufficient, and 'No' if it is not. "
            "Your response should be either 'Yes' or 'No'."
        ),
        user_text=(
            "Whether the reasoning path '{reasoning_path}' be sufficient to "
            "answer the query '{query}', if yes, return yes, if no, return no.\n\nA:"
        ),
    ),
    BEAM_SELECT: PromptTemplate(
        key=BEAM_SELECT,
        system_text=(
            "Given a question and the starting entity from a knowledge graph, you "
            "are asked to retrieve reasoning paths from the given reasoning paths "
            "that are useful for answering the question."
        ),
        user_text=(
            "Considering the planning context {plan_context} and the given "
            "question {query}, you are asked to choose the best {beam_width} "
            "reasoning paths from the following candidates with the highest "
            "probability to lead to a useful reasoning path for answering the "
            "question. {reasoning_paths}. Only return the index of the "
            "{beam_width} selected reasoning paths in a list.\n\nA:"
        ),
    ),
    FINAL_REASON: PromptTemplate(
        key=FINAL_REASON,
        system_text=(
            "Given a question and the associated retrieved reasoning path from a "
            "knowledge graph, you are asked to answer the following question "
            "based on the reasoning path and your knowledge. Only return the "
            "answer to the question."
        ),
        user_text=(
            "Question: {query}\n\nReasoning path: {reasoning_path}\n\n"
            "Only return the answer to the question.\n\nA:"
        ),
    ),
}

# Built-in neutral demonstrations. Real deployments are expected to replace
# these from a demonstrations file; they exist so every rendered prompt has a
# consistent few-shot shape out of the box.
BUILTIN_DEMONSTRATIONS: dict[str, tuple[str, ...]] = {
    PLAN_AND_SOLVE: (
        'Q: What is the capital of France?\nA: {"keywords": ["capital", "France", '
        '"location.country.capital"], "planning_steps": ["Start from the entity '
        'France.", "Follow the relation linking a country to its capital city."], '
        '"declarative_statement": "The capital of France is *placeholder*."}',
        'Q: Who wrote the novel Dracula?\nA: {"keywords": ["wrote", "author", '
        '"Dracula", "book.author.works_written"], "planning_steps": ["Start from '
        'the entity Dracula.", "Follow the relation linking a book to its '
        'author."], "declarative_statement": "The novel Dracula was written by '
        '*placeholder*."}',
        'Q: What currency is used in Japan?\nA: {"keywords": ["currency", '
        '"Japan", "location.country.currency_used"], "planning_steps": ["Start '
        'from the entity Japan.", "Follow the relation linking a country to its '
        'currency."], "declarative_statement": "The currency used in Japan is '
        '*placeholder*."}',
        'Q: Which language is spoken in Brazil?\nA: {"keywords": ["language", '
        '"spoken", "Brazil", "location.country.official_language"], '
        '"planning_steps": ["Start from the entity Brazil.", "Follow the relation '
        'linking a country to its language."], "declarative_statement": "The '
        'language spoken in Brazil is *placeholder*."}',
        'Q: Who directed the film Vertigo?\nA: {"keywords": ["directed", '
        '"director", "Vertigo", "film.film.directed_by"], "planning_steps": '
        '["Start from the entity Vertigo.", "Follow the relation linking a film '
        'to its director."], "declarative_statement": "The film Vertigo was '
        'directed by *placeholder*."}',
    ),
    DEDUCTIVE_VERIFY: (
        "Whether the conclusion 'The capital of France is Paris.' can be deduced "
        "from 'France -> location.country.capital -> Paris', if yes, return yes, "
        "if no, return no.\nA: yes",
        "Whether the conclusion 'The capital of France is Lyon.' can be deduced "
        "from 'France -> location.country.capital -> Paris', if yes, return yes, "
        "if no, return no.\nA: no",
        "Whether the conclusion 'The currency used in Japan is Yen.' can be "
        "deduced from 'Japan -> location.country.currency_used -> Yen', if yes, "
        "return yes, if no, return no.\nA: yes",
        "Whether the conclusion 'The novel Dracula was written by Bram_Stoker.' "
        "can be deduced from 'Dracula -> book.written_work.subjects -> Vampires', "
        "if yes, return yes, if no, return no.\nA: no",
        "Whether the conclusion 'The film Vertigo was directed by "
        "Alfred_Hitchcock.' can be deduced from 'Vertigo -> film.film.directed_by "
        "-> Alfred_Hitchcock', if yes, return yes, if no, return no.\nA: yes",
    ),
    ADEQUACY_VERIFY: (
        "Whether the reasoning path 'France -> location.country.capital -> Paris' "
        "be sufficient to answer the query 'What is the capital of France?', if "
        "yes, return yes, if no, return no.\nA: yes",
        "Whether the reasoning path 'France -> location.country.currency_used -> "
        "Euro' be sufficient to answer the query 'What is the capital of "
        "France?', if yes, return yes, if no, return no.\nA: no",
        "Whether the reasoning path 'Dracula -> book.book.author -> Bram_Stoker' "
        "be sufficient to answer the query 'Who wrote the novel Dracula?', if "
        "yes, return yes, if no, return no.\nA: yes",
        "Whether the reasoning path 'Japan -> location.location.contains -> "
        "Tokyo' be sufficient to answer the query 'What currency is used in "
        "Japan?', if yes, return yes, if no, return no.\nA: no",
        "Whether the reasoning path 'Vertigo -> film.film.directed_by -> "
        "Alfred_Hitchcock' be sufficient to answer the query 'Who directed the "
        "film Vertigo?', if yes, return yes, if no, return no.\nA: yes",
    ),
    BEAM_SELECT: (
        "Considering the planning context find the capital and the given question "
        "What is the capital of France?, you are asked to choose the best 1 "
        "reasoning paths from the following candidates with the highest "
        "probability to lead to a useful reasoning path for answering the "
        "question. 0. France -> location.country.capital -> Paris\n1. France -> "
        "location.country.currency_used -> Euro. Only return the index of the 1 "
        "selected reasoning paths in a list.\nA: [0]",
        "Considering the planning context find the author and the given question "
        "Who wrote the novel Dracula?, you are asked to choose the best 1 "
        "reasoning paths from the following candidates with the highest "
        "probability to lead to a useful reasoning path for answering the "
        "question. 0. Dracula -> book.written_work.subjects -> Vampires\n1. "
        "Dracula -> book.book.author -> Bram_Stoker. Only return the index of "
        "the 1 selected reasoning paths in a list.\nA: [1]",
        "Considering the planning context find the currency and the given "
        "question What currency is used in Japan?, you are asked to choose the "
        "best 2 reasoning paths from the following candidates with the highest "
        "probability to lead to a useful reasoning path for answering the "
        "question. 0. Japan -> location.country.currency_used -> Yen\n1. Japan "
        "-> location.location.contains -> Tokyo\n2. Japan -> "
        "location.country.official_language -> Japanese. Only return the index "
        "of the 2 selected reasoning paths in a list.\nA: [0, 1]",
        "Considering the planning context find the director and the given "
        "question Who directed the film Vertigo?, you are asked to choose the "
        "best 1 reasoning paths from the following candidates with the highest "
        "probability to lead to a useful reasoning path for answering the "
        "question. 0. Vertigo -> film.film.directed_by -> Alfred_Hitchcock. Only "
        "return the index of the 1 selected reasoning paths in a list.\nA: [0]",
        "Considering the planning context find the language and the given "
        "question Which language is spoken in Brazil?, you are asked to choose "
        "the best 1 reasoning paths from the following candidates with the "
        "highest probability to lead to a useful reasoning path for answering "
        "the question. 0. Brazil -> location.country.official_language -> "
        "Portuguese\n1. Brazil -> location.location.contains -> Brasilia. Only "
        "return the index of the 1 selected reasoning paths in a list.\nA: [0]",
    ),
    FINAL_REASON: (
        "Question: What is the capital of France?\nReasoning path: France -> "
        "location.country.capital -> Paris\nA: Paris",
        "Question: Who wrote the novel Dracula?\nReasoning path: Dracula -> "
        "book.book.author -> Bram_Stoker\nA: Bram_Stoker",
        "Question: What currency is used in Japan?\nReasoning path: Japan -> "
        "location.country.currency_used -> Yen\nA: Yen",
        "Question: Which language is spoken in Brazil?\nReasoning path: Brazil "
        "-> location.country.official_language -> Portuguese\nA: Portuguese",
        "Question: Who directed the film Vertigo?\nReasoning path: Vertigo -> "
        "film.film.directed_by -> Alfred_Hitchcock\nA: Alfred_Hitchcock",
    ),
}


def load_demonstrations(source: Union[str, IO[str]]) -> dict[str, tuple[str, ...]]:
    """Load a demonstrations override: a JSON object mapping template keys to
    lists of demonstration strings. Unknown keys are rejected."""
    data = json.loads(read_text(source))
    if not isinstance(data, dict):
        raise ValueError("demonstrations file must hold a JSON object")
    out: dict[str, tuple[str, ...]] = {}
    for key, demos in data.items():
        if key not in TEMPLATES:
            raise ValueError(f"unknown template key in demonstrations file: {key!r}")
        if not isinstance(demos, list) or not all(isinstance(d, str) for d in demos):
            raise ValueError(f"demonstrations for {key!r} must be a list of strings")
        out[key] = tuple(demos)
    return out


def render(
    template_key: str,
    bindings: Mapping[str, object],
    demonstrations: Mapping[str, Sequence[str]] | None = None,
) -> RenderedPrompt:
    """Render a template with its placeholders bound.

    Extra bindings beyond the template's placeholders are allowed and kept on
    the result. Missing ones raise UnboundPlaceholderError naming them. The
    few-shot block (the first ``DEFAULT_DEMO_COUNT`` demonstrations given for
    the key, if any) precedes the filled user text. The block and the word
    count of the system text plus the block are built once per template and
    demonstrations; each call splits only the filled user text into words
    for ``word_count``.
    """
    if template_key not in TEMPLATES:
        raise KeyError(f"unknown template key: {template_key!r}")
    template = TEMPLATES[template_key]
    str_bindings = {name: str(value) for name, value in bindings.items()}
    missing = [name for name in template.placeholder_names if name not in str_bindings]
    if missing:
        raise UnboundPlaceholderError(template_key, missing)
    pieces = list(template.pieces)
    pieces[1::2] = [str_bindings[name] for name in pieces[1::2]]
    filled = "".join(pieces)
    demo_source = demonstrations if demonstrations is not None else BUILTIN_DEMONSTRATIONS
    demos = tuple(demo_source.get(template_key, ()))[:DEFAULT_DEMO_COUNT]
    block, fixed_words = _fixed_part(template_key, demos)
    return RenderedPrompt(
        key=template_key,
        system=template.system_text,
        user=block + filled,
        word_count=fixed_words + len(filled.split()),
        bindings=str_bindings,
    )


@lru_cache(maxsize=64)
def _fixed_part(template_key: str, demos: tuple[str, ...]) -> tuple[str, int]:
    """The few-shot block of ``demos`` (each followed by a blank line) and
    the word count of the template's system text plus that block. Cached by
    content: the demonstrations tuple, never the mapping it came from.
    Word counts add across the whitespace that joins the system text, the
    block and the filled user text, so this count plus the filled text's is
    the whole prompt's."""
    block = "".join(demo + "\n\n" for demo in demos)
    return block, len(TEMPLATES[template_key].system_text.split()) + len(block.split())
