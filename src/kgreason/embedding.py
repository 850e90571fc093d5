"""Embedding index: embed every entity and relation once, persist the
vectors, and answer exact top-m cosine queries.

Similarities to a query are computed in batches by :func:`query_cosines`,
which gives each row the bits the scalar :func:`query_cosine` gives it:
``np.vecdot`` sums a row's products as the 1-d ``dot`` does. It relies on
the boundary checks here: an index holds C-contiguous float64 matrices of
finite components, and :func:`query_vector` makes a query one of the right
dimension. ``top_m_entities``, ``top_m_relations`` and the baseline retrievers
(through :func:`text_cosines`) score in batches and share one stable sort,
:func:`top_m`; Path-RAG (``pathrag.ScoreContext``) scores in batches too.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import re
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .kg import KnowledgeGraph

logger = logging.getLogger(__name__)

INDEX_FORMAT = "kgreason-index/2"

_TOKEN_RE = re.compile(r"[a-z0-9]+")

# Texts per embed_many call of build_index and text_cosines; 100,000 in one call peaked at 238 MB RSS.
TEXT_CHUNK = 256


class EmbedderError(RuntimeError):
    """Raised when an embedder gives an item a vector that cannot be indexed."""

    def __init__(self, identifier: str, cause: Exception):
        super().__init__(f"embedding failed for {identifier!r}: {cause}")
        self.identifier = identifier


class Embedder(Protocol):
    """Text-to-vector capability. Must be deterministic per fingerprint, and
    row i of ``embed_many(texts)`` must be ``embed(texts[i])``, bit for bit.
    """

    fingerprint: str

    def embed(self, text: str) -> np.ndarray: ...

    def embed_many(self, texts: Sequence[str]) -> np.ndarray: ...


class HashingEmbedder:
    """Deterministic token-level feature hashing, L2-normalized.

    Ships so the whole pipeline runs with zero network access. Tokens are
    lowercased alphanumeric runs; each token is hashed (blake2b, unsalted)
    to a bucket and a sign, once per instance (threads sharing it store only
    equal values). Identical text always yields identical vectors. A
    component is a sum of +-1.0 terms, exact in any order, so
    :meth:`embed_many` sums a whole vocabulary in one batch, and
    :meth:`embed` is its one-row case.
    """

    def __init__(self, dimension: int = 64):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension
        self.fingerprint = f"hashing-embedder/1 d={dimension}"
        self._hashed: dict[str, tuple[int, float]] = {}

    def embed(self, text: str) -> np.ndarray:
        return self.embed_many([text])[0]

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """The ``(len(texts), dimension)`` matrix of the texts' vectors: every
        token's (row, bucket, sign) summed into zeros by one ``np.bincount``,
        and each nonzero row divided by its norm."""
        tokens = list(map(_TOKEN_RE.findall, map(str.lower, texts)))
        memo = self._hashed
        for token in {token for row in tokens for token in row if token not in memo}:
            value = int.from_bytes(hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "big")
            memo[token] = (value % self.dimension, -1.0 if value >> 63 else 1.0)
        hashed = [memo[token] for row in tokens for token in row]
        buckets = np.fromiter(map(itemgetter(0), hashed), dtype=np.intp, count=len(hashed))
        signs = np.fromiter(map(itemgetter(1), hashed), dtype=np.float64, count=len(hashed))
        rows = np.repeat(np.arange(len(tokens)), list(map(len, tokens)))
        matrix = np.bincount(
            rows * self.dimension + buckets, weights=signs, minlength=len(tokens) * self.dimension
        )
        # bincount gives integer zeros, not float ones, when there is no token
        matrix = matrix.astype(np.float64, copy=False).reshape(len(tokens), self.dimension)
        norms = row_norms(matrix)
        matrix /= np.where(norms > 0, norms, 1.0)[:, None]
        return matrix


def norm(x: np.ndarray) -> float:
    """The L2 norm of a 1-d float64 array, bit-identical to ``np.linalg.norm``
    (which also takes the square root of ``x.dot(x)``)."""
    return math.sqrt(x.dot(x))


def query_cosine(query: np.ndarray, query_norm: float, vec: np.ndarray) -> float:
    """``cosine(query, vec)`` of float64 arrays, bit for bit, given
    ``norm(query)``: a query scored against many vectors costs one dot and
    one norm per vector."""
    if query.shape != vec.shape:
        raise ValueError(f"dimension mismatch: {query.shape} vs {vec.shape}")
    vec_norm = math.sqrt(vec.dot(vec))
    if query_norm == 0.0 or vec_norm == 0.0:
        logger.warning("cosine of a zero-norm vector defined as 0.0")
        return 0.0
    return min(max(float(query.dot(vec) / (query_norm * vec_norm)), -1.0), 1.0)


def row_norms(matrix: np.ndarray) -> np.ndarray:
    """The norm of each row of a float64 matrix, bit-identical to
    :func:`norm` of the row."""
    return np.sqrt(np.vecdot(matrix, matrix))


def query_cosines(query: np.ndarray, query_norm: float, rows: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """``query_cosine(query, query_norm, row)`` of each of ``rows``, bit for
    bit, given the rows' ``norms`` (:func:`row_norms`): the same operations
    in the same order, on a C-contiguous query and C-contiguous rows (another
    layout may sum a dot product in another order). A zero query scores 0.0
    with a warning; a zero row scores 0.0 silently, since the rows' owner
    knows them ahead of any query (a search's score context reports an
    index's zero rows once)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = np.vecdot(rows, query) / (query_norm * norms)
    if query_norm == 0.0:
        logger.warning("cosine of a zero-norm query vector defined as 0.0")
        sims[:] = 0.0
    elif not norms.all():
        sims[norms == 0.0] = 0.0
    return sims.clip(-1.0, 1.0, out=sims)


def query_vector(query: np.ndarray, dimension: int) -> np.ndarray:
    """``query`` as a C-contiguous float64 vector of ``dimension`` finite
    components, which :func:`query_cosines` needs; otherwise ``ValueError``."""
    query = np.ascontiguousarray(query, dtype=np.float64)
    if query.shape != (dimension,):
        raise ValueError(f"dimension mismatch: query {query.shape} vs index ({dimension},)")
    if not np.isfinite(query).all():
        raise ValueError("query has non-finite components")
    return query


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity in [-1, 1].

    A zero-norm operand scores 0 (with a warning) rather than erroring, so a
    degenerate embedder output cannot abort a batch run.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return query_cosine(a, norm(a), b)


@dataclass(eq=False)
class EmbeddingIndex:
    """One vector per entity and per relation of a single graph: each
    vocabulary's strictly sorted names and a C-contiguous float64 matrix of
    finite components whose row i is name i, so row i is the graph's id i.
    Any other shape, or a non-finite component, is a ``ValueError``.
    The rows are not changed after build, and queries are thread-safe.
    Indexes compare by identity (their matrices have no truth value).
    """

    fingerprint: str
    dimension: int
    entity_names: tuple[str, ...]
    relation_names: tuple[str, ...]
    entity_matrix: np.ndarray = field(repr=False)
    relation_matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.entity_names, self.relation_names = tuple(self.entity_names), tuple(self.relation_names)
        self.entity_matrix = np.ascontiguousarray(self.entity_matrix, dtype=np.float64)
        self.relation_matrix = np.ascontiguousarray(self.relation_matrix, dtype=np.float64)
        for kind, names, matrix in (("entity", self.entity_names, self.entity_matrix),
                                    ("relation", self.relation_names, self.relation_matrix)):
            if any(a >= b for a, b in zip(names, names[1:])):
                raise ValueError(f"index {kind} names are not strictly sorted")
            if matrix.shape != (len(names), self.dimension):
                shape = (len(names), self.dimension)
                raise ValueError(f"index {kind} matrix is {matrix.shape}, not {shape}")
            # a NaN or an infinity shows in the extremes, found without a
            # temporary the size of the matrix
            if matrix.size and not np.isfinite((matrix.min(), matrix.max())).all():
                raise ValueError(f"index {kind} matrix has non-finite components")


def check_index(g: KnowledgeGraph, idx: EmbeddingIndex) -> None:
    """Raise ``ValueError`` unless ``idx`` names exactly ``g``'s entities and
    relations, so that its row i is the graph's id i."""
    for kind, names, indexed in (("entity", g.entity_names, idx.entity_names),
                                 ("relation", g.relation_names, idx.relation_names)):
        if names != indexed:
            missing, extra = sorted(set(names) - set(indexed)), sorted(set(indexed) - set(names))
            raise ValueError(
                f"the index's {kind} names are not the graph's: {len(missing)} of the graph's "
                f"not indexed {missing[:3]}, {len(extra)} indexed not in the graph {extra[:3]}"
            )


def build_index(g: KnowledgeGraph, emb: Embedder) -> EmbeddingIndex:
    """Embed every entity and relation of ``g`` into one matrix, one
    ``emb.embed_many`` call per ``TEXT_CHUNK`` identifiers.

    A chunk that is not one row per identifier, as wide as the first chunk,
    is a ``ValueError``, and a non-finite row an :class:`EmbedderError` naming
    the first such identifier; an exception from ``embed_many`` propagates.
    """
    if not g.entity_names and not g.relation_names:
        raise ValueError("cannot index an empty graph")
    identifiers = g.entity_names + g.relation_names
    matrix = None
    for start, rows in _embedded_chunks(emb, identifiers):
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            raise EmbedderError(identifiers[start + int(np.argmin(finite))], ValueError("non-finite components"))
        if matrix is None:
            matrix = np.empty((len(identifiers), rows.shape[1]))
        matrix[start : start + len(rows)] = rows
    n = len(g.entity_names)
    return EmbeddingIndex(emb.fingerprint, matrix.shape[1], g.entity_names, g.relation_names, matrix[:n], matrix[n:])


def _embedded_chunks(emb: Embedder, texts: Sequence[str], row_shape: tuple | None = None):
    """``(start, emb.embed_many(texts[start : start + TEXT_CHUNK]))`` per chunk, as C-contiguous
    float64 rows of ``row_shape`` (by default, the first chunk's); another shape is a ``ValueError``."""
    for start in range(0, len(texts), TEXT_CHUNK):
        chunk = texts[start : start + TEXT_CHUNK]
        rows = np.ascontiguousarray(emb.embed_many(chunk), dtype=np.float64)
        row_shape = rows.shape[1:] if row_shape is None else row_shape
        if rows.ndim != 2 or rows.shape != (len(chunk), *row_shape):
            shape = f"{rows.shape} array for {len(chunk)} texts of shape {row_shape}"
            raise ValueError(f"dimension mismatch: embed_many gave a {shape}")
        yield start, rows


def text_cosines(emb: Embedder, query: np.ndarray, texts: Sequence[str]) -> np.ndarray:
    """``cosine(query, emb.embed(text))`` of each of ``texts``, bit for bit,
    from one ``emb.embed_many`` call per ``TEXT_CHUNK`` texts. A query of
    another dimension than the texts' vectors is a ``ValueError``."""
    query = np.ascontiguousarray(query, dtype=np.float64)
    query_norm = norm(query)
    sims = np.empty(len(texts))
    for start, rows in _embedded_chunks(emb, texts, query.shape):
        sims[start : start + len(rows)] = query_cosines(query, query_norm, rows, row_norms(rows))
    return sims


def top_m(scores: np.ndarray, m: int) -> tuple[list[int], list[float]]:
    """The positions and scores of the ``m`` highest ``scores``, descending;
    equal scores keep their positions' order, and fewer than m give all."""
    if m < 1:
        raise ValueError("m must be >= 1")
    top = np.argsort(-scores, kind="stable")[:m]
    return top.tolist(), scores[top].tolist()


def _rank(names: tuple[str, ...], matrix: np.ndarray, query: np.ndarray, m: int):
    query = query_vector(query, matrix.shape[1])
    # the names are sorted, so equal scores keep ascending name order
    top, scores = top_m(query_cosines(query, norm(query), matrix, row_norms(matrix)), m)
    return list(zip(map(names.__getitem__, top), scores))


def top_m_entities(idx: EmbeddingIndex, query: np.ndarray, m: int) -> list[tuple[str, float]]:
    """The m entities with highest cosine to ``query``, score-descending.

    Ties break by ascending identifier; fewer than m entities returns all.
    """
    return _rank(idx.entity_names, idx.entity_matrix, query, m)


def top_m_relations(idx: EmbeddingIndex, query: np.ndarray, m: int) -> list[tuple[str, float]]:
    """As :func:`top_m_entities`, over the relation vocabulary."""
    return _rank(idx.relation_names, idx.relation_matrix, query, m)


def save_index(idx: EmbeddingIndex, path: str | Path) -> None:
    """Write a ``kgreason-index/2`` file (bit-exact round trip).

    One sorted-key JSON header line names the format, fingerprint, dimension
    and the sorted entity and relation identifiers. Every vector follows as
    raw little-endian float64, in header order: entities, then relations.
    """
    header = {"format": INDEX_FORMAT, "fingerprint": idx.fingerprint, "dimension": idx.dimension,
              "entities": list(idx.entity_names), "relations": list(idx.relation_names)}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for matrix in (idx.entity_matrix, idx.relation_matrix):
            fh.write(np.ascontiguousarray(matrix, dtype="<f8").data)


def load_index(path: str | Path) -> EmbeddingIndex:
    """Read a file written by :func:`save_index`. Another format, a header
    without a string fingerprint or a non-negative integer dimension, entity
    or relation lists that are not strictly sorted lists of strings (the
    index refuses unsorted ones), a body of the wrong length or a trailing
    byte is a ``ValueError``."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        if not header_line:
            raise ValueError(f"empty index file: {path}")
        header = json.loads(header_line)
        found = header.get("format") if isinstance(header, dict) else None
        if found != INDEX_FORMAT:
            raise ValueError(f"unsupported index format {found!r}, expected {INDEX_FORMAT!r}")
        dimension, fingerprint = header.get("dimension"), header.get("fingerprint")
        if type(dimension) is not int or dimension < 0 or not isinstance(fingerprint, str):
            raise ValueError(f"index header of {path} lacks a string fingerprint or a dimension >= 0")
        entities, relations = header.get("entities"), header.get("relations")
        for key, names in (("entities", entities), ("relations", relations)):
            if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
                raise ValueError(f"index {key} of {path} are not a list of strings")
        rows = len(entities) + len(relations)
        wrong = f"index body of {path} does not hold {rows} vectors of dimension {dimension}"
        # Compare lengths before reading, so a huge claimed dimension allocates nothing.
        if os.fstat(fh.fileno()).st_size - fh.tell() != rows * dimension * 8:
            raise ValueError(wrong)
        matrix = np.fromfile(fh, dtype="<f8", count=rows * dimension)
        if matrix.size != rows * dimension or fh.read(1):
            raise ValueError(wrong)
    matrix, n = matrix.reshape(rows, dimension), len(entities)
    return EmbeddingIndex(fingerprint, dimension, entities, relations, matrix[:n], matrix[n:])
