"""Triple store: load, index and query a directed labeled graph, and check
reasoning paths against it.

A graph interns its entities and relations to ids in sorted identifier order
and keeps its edges as one CSR, so a head's edges are one sorted slice of
two id arrays. The graph is immutable once loaded; every read operation is
safe to share across threads.
"""

from __future__ import annotations

import io
import os
import re
from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from itertools import count, islice
from operator import itemgetter
from typing import IO, Iterable, Iterator, Optional, Union

import numpy as np

MISSING_TRIPLE = "missing-triple"
FORMAT_ERROR = "format-error"

_WS_RE = re.compile(r"\s+")

# Edges interned at a time: a chunk's strings are dropped once its ids are
# stored, so set-up holds one string per name, not one per field.
INTERN_CHUNK = 1024


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


class KnowledgeGraph:
    """Directed labeled edges over one interned vocabulary, immutable.

    Entities and relations have ids in sorted identifier order:
    ``entity_names[i]`` is entity i and ``entity_ids`` maps it back, and so
    for relations. Each edge is stored once, in a CSR (compressed sparse
    rows): the edges out of head h are positions ``offsets[h]`` to
    ``offsets[h + 1]`` of the read-only ``edge_relations`` and ``edge_tails``,
    sorted by relation id, then tail id, which is (relation, tail) order.

    Edges are interned ``INTERN_CHUNK`` at a time into int64 columns of
    first-seen ids, so set-up keeps one string per distinct name. No name
    may contain ``->``, the separator of the arrow format of paths.
    """

    def __init__(self, edges: Iterable[tuple[str, str, str]] = (), entities: Iterable[str] = ()):
        """The graph of the ``(head, relation, tail)`` ``edges``, without
        duplicates, plus any ``entities`` that no edge names. A name that is
        empty or has surrounding whitespace is a ``ValueError``, as it is a
        parse error to ``load_triples``, which strips every field."""
        edges = iter(edges)
        chunks = iter(lambda: list(islice(edges, INTERN_CHUNK)), [])
        self._build((tuple(map(itemgetter(i), chunk) for i in range(3)) for chunk in chunks), entities)
        for kind, names in (("entity", self.entity_names), ("relation", self.relation_names)):
            for name in names:
                if not name or name != name.strip():
                    raise ValueError(f"{kind} name {name!r} is empty or has surrounding whitespace")

    def _build(self, chunks: Iterable[Iterable[Iterable[str]]], entities: Iterable[str]) -> None:
        """Intern each chunk's head, relation and tail columns to first-seen
        ids, renumber them in name order with one take per column, build the CSR."""
        entities_seen, relations_seen = defaultdict(count().__next__), defaultdict(count().__next__)
        columns = (array("q"), array("q"), array("q"))
        for chunk in chunks:
            for column, seen, names in zip(columns, (entities_seen, relations_seen, entities_seen), chunk):
                column.extend(map(seen.__getitem__, names))
        for name in entities:
            entities_seen[name]  # a name without an edge
        self.entity_names, entity_order = _sorted_ids(entities_seen)
        self.relation_names, relation_order = _sorted_ids(relations_seen)
        self.entity_ids = dict(zip(self.entity_names, range(len(self.entity_names))))
        self.relation_ids = dict(zip(self.relation_names, range(len(self.relation_names))))
        # set-like views, in id order
        self.entities, self.relations = self.entity_ids.keys(), self.relation_ids.keys()
        head_ids, relation_ids, tail_ids = (
            order[np.frombuffer(column, dtype=np.int64)]
            for order, column in zip((entity_order, relation_order, entity_order), columns)
        )
        n_entities, n_relations = len(self.entity_names), len(self.relation_names)
        if n_entities**2 * n_relations >= 2**63:
            raise ValueError("too many entities and relations for one int64 key per edge")
        # one key per edge, sorted by head, then relation, then tail; duplicates dropped
        keys = np.sort((head_ids * n_relations + relation_ids) * n_entities + tail_ids)
        keys = keys[np.diff(keys, prepend=-1) != 0]
        edge_heads, self.edge_relations = np.divmod(keys // n_entities, n_relations)
        self.edge_tails = keys % n_entities
        self.offsets = np.searchsorted(edge_heads, np.arange(n_entities + 1))
        for ids in (self.offsets, self.edge_relations, self.edge_tails):
            ids.flags.writeable = False
        # the same arrays as read-only views whose items are Python ints, for bisect
        self._int_views = tuple(map(memoryview, (self.offsets, self.edge_relations, self.edge_tails)))

    def steps(self, entity: str) -> list[tuple[str, str]]:
        """The sorted (relation, tail) pairs out of ``entity``; none if unknown."""
        head = self.entity_ids.get(entity)
        lo, hi = (0, 0) if head is None else self.offsets[head : head + 2].tolist()
        relations, tails = self.edge_relations[lo:hi].tolist(), self.edge_tails[lo:hi].tolist()
        return [(self.relation_names[r], self.entity_names[t]) for r, t in zip(relations, tails)]

    def edges(self) -> Iterator[tuple[str, str, str]]:
        """Every edge as (head, relation, tail), in id order."""
        heads = np.repeat(np.arange(len(self.entity_names)), np.diff(self.offsets)).tolist()
        for h, r, t in zip(heads, self.edge_relations.tolist(), self.edge_tails.tolist()):
            yield self.entity_names[h], self.relation_names[r], self.entity_names[t]

    def __len__(self) -> int:
        return len(self.edge_tails)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, KnowledgeGraph) and (
            self.entity_names == other.entity_names and list(self.edges()) == list(other.edges())
        )


def load_triples(source: IO[bytes] | IO[str] | Iterable[str]) -> KnowledgeGraph:
    """Parse a tab-separated triple stream into a graph.

    One ``head<TAB>relation<TAB>tail`` triple per line; ``#`` lines are
    comments and blank lines are skipped. Duplicates are deduplicated and
    line order does not affect the result. An empty stream yields an empty
    graph. A UTF-8 byte-order mark at the start of the first line is
    dropped. Malformed lines raise :class:`TripleParseError` with the line
    number; so does an identifier containing ``->``, the separator of the
    arrow format that paths are written in. Triples are interned as they are read.
    """
    graph = KnowledgeGraph.__new__(KnowledgeGraph)
    graph._build(_parsed_chunks(source), ())
    return graph


def _parsed_chunks(source: IO[bytes] | IO[str] | Iterable[str]) -> Iterator[tuple[list[str], ...]]:
    """The head, relation and tail columns of each ``INTERN_CHUNK`` triples."""
    heads, relations, tails = [], [], []
    for line_number, raw in enumerate(_iter_lines(source), start=1):
        # a trailing newline is whitespace to every check, so it is never cut
        unindented = raw.lstrip()
        if not unindented or unindented[0] == "#":
            continue
        if "->" in raw:
            raise TripleParseError("identifier contains '->'", line_number)
        fields = raw.split("\t")
        if len(fields) != 3:
            raise TripleParseError(
                f"expected 3 tab-separated fields, got {len(fields)}", line_number
            )
        head, relation, tail = fields[0].strip(), fields[1].strip(), fields[2].strip()
        if not (head and relation and tail):
            raise TripleParseError("empty field after normalization", line_number)
        heads.append(head)
        relations.append(relation)
        tails.append(tail)
        if len(tails) == INTERN_CHUNK:
            yield heads, relations, tails
            heads, relations, tails = [], [], []
    yield heads, relations, tails


def _sorted_ids(seen: dict[str, int]) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted names of a first-seen id table, and each first-seen id's
    position among them. A name containing ``->`` is a ``ValueError``."""
    names = tuple(sorted(seen))
    for arrow in (name for name in names if "->" in name):
        raise ValueError(f"identifier {arrow!r} contains '->', the separator of arrow paths")
    # the inverse of the permutation that sorts the first-seen ids by name
    return names, np.argsort(np.fromiter(map(seen.__getitem__, names), dtype=np.int64, count=len(names)))


def _iter_lines(source: IO[bytes] | IO[str] | Iterable[str]) -> Iterator[str]:
    """The lines of ``source`` as str, bytes decoded as UTF-8, without a
    byte-order mark at the start of the first."""
    lines = (item.decode("utf-8") if isinstance(item, bytes) else item for item in source)
    for first in lines:
        yield first.removeprefix("\ufeff")
        yield from lines


def read_text(source: Union[str, os.PathLike, IO[str]]) -> str:
    """The whole text of a UTF-8 file, given by path, or of an open text
    stream, without a byte-order mark at its start."""
    if hasattr(source, "read"):
        return source.read().removeprefix("\ufeff")
    with open(source, "r", encoding="utf-8") as fh:
        return fh.read().removeprefix("\ufeff")


def split_lines(text: str) -> list[str]:
    """The lines of ``text`` without their ends, split only at ``\\n``,
    ``\\r\\n`` and ``\\r`` as text-mode file reading does (``str.splitlines``
    also splits at U+2028, U+0085 and others, which JSON strings hold raw)."""
    return [line.removesuffix("\n") for line in io.StringIO(text, newline=None)]


def neighbors(g: KnowledgeGraph, entity: str) -> set[tuple[str, str]]:
    """All (relation, entity) pairs one hop out from ``entity``.

    Unknown entities have an empty neighborhood.
    """
    return set(g.steps(entity))


def contains_triple(g: KnowledgeGraph, head: str, relation: str, tail: str) -> bool:
    h, r, t = g.entity_ids.get(head), g.relation_ids.get(relation), g.entity_ids.get(tail)
    if h is None or r is None or t is None:
        return False
    # h's row is sorted by relation, then tail: find r's run in it, then t
    offsets, relations, tails = g._int_views
    lo, hi = offsets[h], offsets[h + 1]
    lo, hi = bisect_left(relations, r, lo, hi), bisect_right(relations, r, lo, hi)
    i = bisect_left(tails, t, lo, hi)
    return i < hi and tails[i] == t


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
