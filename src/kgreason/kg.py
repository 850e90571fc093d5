"""Triple store: load, index and query a directed labeled graph, and check
reasoning paths against it.

The graph is immutable once loaded; every read operation is safe to share
across threads.
"""

from __future__ import annotations

import io
import os
import re
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Optional, Union

MISSING_TRIPLE = "missing-triple"
FORMAT_ERROR = "format-error"

_WS_RE = re.compile(r"\s+")


def normalize(text: str) -> str:
    """Canonical answer form: lowercase, underscores as spaces, surrounding
    whitespace trimmed, internal whitespace collapsed. Idempotent."""
    return _WS_RE.sub(" ", text.replace("_", " ").lower()).strip()


class TripleParseError(ValueError):
    """Raised when a triple file line cannot be parsed."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class PathParseError(ValueError):
    """Raised when an arrow-format path string cannot be parsed."""


@dataclass(frozen=True)
class Triple:
    """A directed labeled edge: head --relation--> tail."""

    head: str
    relation: str
    tail: str

    def __post_init__(self):
        for name in ("head", "relation", "tail"):
            if not getattr(self, name):
                raise ValueError(f"triple field {name!r} must be non-empty")


@dataclass(frozen=True)
class ReasoningStep:
    """One hop: a (relation, entity) pair extending a path."""

    relation: str
    entity: str


@dataclass(frozen=True)
class ReasoningPath:
    """A start entity plus an ordered sequence of steps."""

    start: str
    steps: tuple[ReasoningStep, ...] = ()

    @property
    def depth(self) -> int:
        return len(self.steps)

    @property
    def terminal_entity(self) -> str:
        """Last entity on the path (the start for an empty path)."""
        return self.steps[-1].entity if self.steps else self.start

    def extend(self, step: ReasoningStep) -> "ReasoningPath":
        return ReasoningPath(self.start, self.steps + (step,))

    def entities(self) -> tuple[str, ...]:
        return (self.start,) + tuple(s.entity for s in self.steps)

    def to_arrow(self) -> str:
        """Render as ``E0 -> r1 -> E1 -> r2 -> E2``."""
        parts = [self.start]
        for step in self.steps:
            parts.extend([step.relation, step.entity])
        return " -> ".join(parts)

    @classmethod
    def from_arrow(cls, text: str) -> "ReasoningPath":
        """Parse the arrow format produced by :meth:`to_arrow`."""
        parts = [p.strip() for p in text.split("->")]
        if not parts or any(not p for p in parts):
            raise PathParseError(f"empty segment in path: {text!r}")
        if len(parts) % 2 == 0:
            raise PathParseError(
                f"path must alternate entity/relation and end on an entity: {text!r}"
            )
        steps = tuple(
            ReasoningStep(relation=parts[i], entity=parts[i + 1])
            for i in range(1, len(parts), 2)
        )
        return cls(start=parts[0], steps=steps)


@dataclass(frozen=True)
class ValidityReport:
    """Per-step validity of a path checked against a graph."""

    valid_step_count: int
    total_step_count: int
    first_invalid_index: Optional[int] = None
    errors: tuple[tuple[int, str], ...] = ()  # (step index, error kind)

    def __post_init__(self):
        if self.valid_step_count > self.total_step_count:
            raise ValueError("valid_step_count cannot exceed total_step_count")

    @property
    def all_valid(self) -> bool:
        return self.valid_step_count == self.total_step_count


@dataclass
class KnowledgeGraph:
    """Directed labeled edges, stored once as an adjacency index: each head
    maps to its set of (relation, tail) pairs.

    Treat instances as immutable after construction.
    """

    entities: set[str] = field(default_factory=set)
    relations: set[str] = field(default_factory=set)
    adjacency: dict[str, set[tuple[str, str]]] = field(default_factory=dict)

    @classmethod
    def from_triples(cls, triples: Iterable[Triple]) -> "KnowledgeGraph":
        g = cls()
        for t in triples:
            g._add(t.head, t.relation, t.tail)
        return g

    def _add(self, head: str, relation: str, tail: str) -> None:
        self.entities.add(head)
        self.entities.add(tail)
        self.relations.add(relation)
        self.adjacency.setdefault(head, set()).add((relation, tail))

    @property
    def triples(self) -> frozenset[Triple]:
        """Every edge as a Triple, built from the adjacency on each access."""
        return frozenset(
            Triple(head, relation, tail)
            for head, pairs in self.adjacency.items()
            for relation, tail in pairs
        )

    def __len__(self) -> int:
        return sum(len(pairs) for pairs in self.adjacency.values())


def load_triples(source: IO[bytes] | IO[str] | Iterable[str]) -> KnowledgeGraph:
    """Parse a tab-separated triple stream into a graph.

    One ``head<TAB>relation<TAB>tail`` triple per line; ``#`` lines are
    comments and blank lines are skipped. Duplicates are deduplicated and
    line order does not affect the result. An empty stream yields an empty
    graph. Malformed lines raise :class:`TripleParseError` with the line
    number; so does an identifier containing ``->``, the separator of the
    arrow format that paths are written in.
    """
    g = KnowledgeGraph()
    for line_number, raw in enumerate(_iter_lines(source), start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if "->" in line:
            raise TripleParseError("identifier contains '->'", line_number)
        fields = line.split("\t")
        if len(fields) != 3:
            raise TripleParseError(
                f"expected 3 tab-separated fields, got {len(fields)}", line_number
            )
        head, relation, tail = fields[0].strip(), fields[1].strip(), fields[2].strip()
        if not head or not relation or not tail:
            raise TripleParseError("empty field after normalization", line_number)
        g._add(head, relation, tail)
    return g


def _iter_lines(source: IO[bytes] | IO[str] | Iterable[str]) -> Iterator[str]:
    if isinstance(source, io.TextIOBase):
        yield from source
        return
    for item in source:
        if isinstance(item, bytes):
            yield item.decode("utf-8")
        else:
            yield item


def read_text(source: Union[str, os.PathLike, IO[str]]) -> str:
    """The whole text of a UTF-8 file, given by path, or of an open text
    stream."""
    if hasattr(source, "read"):
        return source.read()
    with open(source, "r", encoding="utf-8") as fh:
        return fh.read()


def serialize(g: KnowledgeGraph) -> str:
    """Inverse of :func:`load_triples` on the triple set; lines are sorted."""
    lines = sorted(
        f"{head}\t{relation}\t{tail}"
        for head, pairs in g.adjacency.items()
        for relation, tail in pairs
    )
    return "".join(line + "\n" for line in lines)


def neighbors(g: KnowledgeGraph, entity: str) -> set[tuple[str, str]]:
    """All (relation, entity) pairs one hop out from ``entity``.

    Unknown entities have an empty neighborhood.
    """
    return set(g.adjacency.get(entity, ()))


def contains_triple(g: KnowledgeGraph, head: str, relation: str, tail: str) -> bool:
    return (relation, tail) in g.adjacency.get(head, ())


def validate_path(g: KnowledgeGraph, path: ReasoningPath) -> ValidityReport:
    """Check every hop of ``path`` against the graph.

    Step k is valid iff (e_{k-1}, r_k, e_k) is a triple, with e_0 the start
    entity. All steps are classified, including those after the first
    failure; an empty path is vacuously valid.
    """
    errors: list[tuple[int, str]] = []
    valid = 0
    current = path.start
    for k, step in enumerate(path.steps):
        if contains_triple(g, current, step.relation, step.entity):
            valid += 1
        else:
            errors.append((k, MISSING_TRIPLE))
        current = step.entity
    return ValidityReport(
        valid_step_count=valid,
        total_step_count=len(path.steps),
        first_invalid_index=errors[0][0] if errors else None,
        errors=tuple(errors),
    )
