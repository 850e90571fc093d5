"""Candidate reasoning-step retrieval.

Given query keywords and a frontier entity, build and score the candidate
next steps that the search will choose from. The default scorer combines the
semantic alignment of a step with a one-hop lookahead bonus, so a step that
looks dull by itself but leads somewhere promising still ranks; it reads the
graph's CSR rows and keeps one question's scores by graph id. Two baseline
retrievers (vanilla concatenation and triple-to-text) are included for
comparison runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import starmap
from typing import Iterable, Sequence

import numpy as np

from .embedding import Embedder, EmbeddingIndex, cosine, norm, query_cosine
from .kg import KnowledgeGraph, ReasoningPath, ReasoningStep, Triple

MODE_PATH_RAG = "path-rag"
MODE_VANILLA = "vanilla"
MODE_KAPING = "kaping"
RETRIEVER_MODES = (MODE_PATH_RAG, MODE_VANILLA, MODE_KAPING)

# How far an approximate Path-RAG score may lie from the exact one. Let
# u = 2^-53 and d the dimension. A dot product of d terms, summed in any order
# and with or without fused multiply-adds, is within d*u*|x|*|y| (to first
# order) of the true one (Higham, Accuracy and Stability of Numerical
# Algorithms, section 3.1), as long as nothing overflows or underflows, which
# holds when every squared norm is 0 or lies in _SAFE_SQUARED_NORMS. A norm
# sqrt(x.x) is then within (d/2 + 1)u of the true one, relatively, and a
# quotient by it within (d/2 + 2)u. So a cosine from one matrix-vector
# product of the rows with the query over its norm, times each row's inverse
# norm, and one from ``query_cosine``, are each within (2d + 5)u of the true
# cosine, and of each other within (4d + 10)u. A base (two similarities, two
# additions) is then off by at most (8d + 24)u, a bonus (a max of bases) by
# as much, and a total base + alpha*bonus by at most (1 + alpha)(8d + 32)u.
# For d up to _MAX_DIMENSION, _BASE_ERROR exceeds (8d + 32)u by almost 2^-31,
# which covers the rounding of the band arithmetic. A larger index, or an
# alpha above 2^900 (whose totals may overflow), is scored exactly.
_BASE_ERROR = 2.0**-30
_MAX_DIMENSION = 2**19
_SAFE_SQUARED_NORMS = (2.0**-900, 2.0**900)


@dataclass(frozen=True)
class ScoredCandidate:
    """A candidate step with its base score, lookahead bonus and total."""

    step: ReasoningStep
    base_score: float
    lookahead_bonus: float
    total_score: float


@dataclass(frozen=True)
class RetrievalConfig:
    m: int = 10
    alpha: float = 0.3
    mode: str = MODE_PATH_RAG

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not 0 <= self.alpha < math.inf:
            raise ValueError("alpha must be finite and >= 0")
        if self.mode not in RETRIEVER_MODES:
            raise ValueError(f"unknown retriever mode {self.mode!r}")


def _rows(vectors: dict[str, np.ndarray], matrix: np.ndarray | None, names: tuple[str, ...]):
    """One vocabulary of an index laid out by a graph's ids: each id's vector
    (``None`` if not indexed), their stacked matrix (zero rows for those) and
    one over each row's norm (0 for a zero row); the last two are ``None``
    when the rows differ in length or have no proven approximation."""
    rows = [vectors.get(name) for name in names]
    if matrix is None or tuple(vectors) != names:  # not built or loaded in the graph's id order
        rows = [None if vec is None else np.asarray(vec, dtype=np.float64) for vec in rows]
        try:
            zero = np.zeros_like(next(vec for vec in rows if vec is not None))
            matrix = np.stack([zero if vec is None else vec for vec in rows])
        except (StopIteration, ValueError):  # nothing indexed, or vectors of different lengths
            return rows, None, None
    if matrix.ndim != 2 or matrix.shape[1] > _MAX_DIMENSION:
        return rows, None, None
    squared = np.einsum("ij,ij->i", matrix, matrix)
    low, high = _SAFE_SQUARED_NORMS
    if not np.all((squared == 0.0) | ((squared >= low) & (squared <= high))):
        return rows, None, None
    with np.errstate(divide="ignore"):
        return rows, matrix, np.where(squared == 0.0, 0.0, 1.0 / np.sqrt(squared))


class ScoreContext:
    """The Path-RAG scores of one question's query, shared by every frontier
    of its search and by its coverage walk; one question, one thread.

    Built for one graph, index and embedder, it binds the query on first use
    and raises ``ValueError`` when used with any other. Cosines are first
    approximated by matrix-vector products: every relation's on binding, an
    entity's when a ranked frontier first reaches it. Every frontier is ranked
    by one rule: approximate totals pick the steps and onward steps that can
    decide its top m, and only those are scored exactly, each identifier once
    per question, kept by graph id; all are, when no error bound is proven.
    """

    def __init__(self, g: KnowledgeGraph, idx: EmbeddingIndex, emb: Embedder):
        self.g, self.idx, self.emb = g, idx, emb
        self.query_text: str | None = None
        self.query_vec: np.ndarray | None = None

    def embed_query(self, text: str) -> np.ndarray:
        """The query vector of ``text``, embedded only on the first call."""
        if text != self.query_text:
            if self.query_text is not None:
                raise ValueError(f"score context is bound to another query than {text!r}")
            self._bind_vector(self.emb.embed(text))
            self.query_text = text
        return self.query_vec

    def bind(self, g, idx, emb, query_vec: np.ndarray) -> ScoreContext:
        """This context, checked against the arguments of a scoring call."""
        if g is not self.g or idx is not self.idx or emb is not self.emb:
            raise ValueError("score context was built for another graph, index or embedder")
        self._bind_vector(query_vec)
        return self

    def _bind_vector(self, query_vec: np.ndarray) -> None:
        if self.query_vec is not None:
            if query_vec is not self.query_vec and not np.array_equal(query_vec, self.query_vec):
                raise ValueError("score context was built for another query vector")
            return
        self.query_vec = query_vec
        self._query = np.asarray(query_vec, dtype=np.float64)
        self._query_norm = norm(self._query)
        g, idx, layout = self.g, self.idx, self.idx.by_graph
        if layout is None or layout[0] is not g:  # the first use of this graph and index
            layout = idx.by_graph = (
                g,
                _rows(idx.relation_vectors, idx.relation_matrix, g.relation_names),
                _rows(idx.entity_vectors, idx.entity_matrix, g.entity_names),
            )
        self._rows = layout[1:]
        self._sims = ([None] * len(g.relation_names), [None] * len(g.entity_names))
        self._ranked: dict[tuple[int, int, float], list[ScoredCandidate]] = {}
        # Approximate cosines, each within (2d + 5)u of the true one, when
        # that is proven: the relations' now, an entity's on first use.
        self._approx = None
        query_squared = float(self._query.dot(self._query)) if self._query.ndim == 1 else 0.0
        low, high = _SAFE_SQUARED_NORMS
        if low <= query_squared <= high and all(
            matrix is not None and matrix.shape[1] == len(self._query) for _, matrix, _ in self._rows
        ):
            self._unit = self._query / math.sqrt(query_squared)
            _, matrix, inverse_norms = self._rows[0]
            self._approx = (matrix @ self._unit * inverse_norms, np.full(len(g.entity_names), np.nan))

    def _base(self, relation: int, entity: int) -> float:
        """The exact base of a step; each similarity is computed once."""
        relation_sims, entity_sims = self._sims
        if relation_sims[relation] is None:
            relation_sims[relation] = self._cosine(self._rows[0][0][relation])
        if entity_sims[entity] is None:
            entity_sims[entity] = self._cosine(self._rows[1][0][entity])
        # Summed from 0.0 so that two -0.0 similarities give 0.0, not -0.0.
        return 0.0 + relation_sims[relation] + entity_sims[entity]

    def _cosine(self, vec: np.ndarray | None) -> float:
        return 0.0 if vec is None else query_cosine(self._query, self._query_norm, vec)

    def top_candidates(self, entity: str, m: int, alpha: float) -> list[ScoredCandidate]:
        """The candidates :meth:`rank` gives ``entity``, none if unknown."""
        self.rank([entity], m, alpha)
        return list(self._ranked.get((self.g.entity_ids.get(entity), m, alpha), ()))

    def rank(self, entities: Sequence[str], m: int, alpha: float) -> None:
        """Score the frontiers ``entities`` together, each once per m and
        alpha: exactly, the steps whose approximate total is within twice its
        error bound of their frontier's m-th largest, each with the maximum
        bonus of the onward steps whose approximate base is within twice its
        error bound of theirs; both bands hold every step that can decide the
        result. A search depth's frontiers pay numpy's per-call cost once."""
        g = self.g
        heads = [g.entity_ids.get(entity) for entity in dict.fromkeys(entities)]
        heads = np.array([h for h in heads if h is not None and (h, m, alpha) not in self._ranked], dtype=np.int64)
        if not len(heads):
            return
        # the frontiers' steps, then their onward edges, as CSR positions, a run
        # each (array methods: numpy's function wrappers cost more, this small)
        step_counts = g.offsets[heads + 1] - g.offsets[heads]
        step_ends = step_counts.cumsum()
        steps_at = np.arange(step_ends[-1]) + (g.offsets[heads] - step_ends + step_counts).repeat(step_counts)
        relations, tails = g.edge_relations[steps_at], g.edge_tails[steps_at]
        firsts = g.offsets[tails]
        counts = g.offsets[tails + 1] - firsts
        ends = counts.cumsum()
        starts = ends - counts
        onward = np.arange(ends[-1] if len(ends) else 0) + (firsts - starts).repeat(counts)
        onward_relations, onward_tails = g.edge_relations[onward], g.edge_tails[onward]
        steps, kept = range(len(tails)), np.arange(len(onward))
        if self._approx is not None and alpha <= 2.0**900:
            relation_sims, entity_sims = self._approx
            ids = np.concatenate((tails, onward_tails))
            new = ids[np.isnan(entity_sims[ids])]  # not yet approximated
            _, matrix, inverse_norms = self._rows[1]
            entity_sims[new] = matrix[new] @ self._unit * inverse_norms[new]
            onward_bases = relation_sims[onward_relations] + entity_sims[onward_tails]
            # each step's best onward base, 0 for a dead end: a run that is
            # empty reads the element after it, or the -inf appended
            best = np.maximum.reduceat(np.append(onward_bases, -np.inf), starts)
            best[counts == 0] = 0.0
            totals = relation_sims[relations] + entity_sims[tails] + alpha * best
            floors = [
                np.sort(totals[end - count : end])[-min(m, count)] if count else 0.0
                for end, count in zip(step_ends.tolist(), step_counts.tolist())
            ]
            floors = np.array(floors).repeat(step_counts) - 2 * (1 + alpha) * _BASE_ERROR
            steps = (totals >= floors).nonzero()[0].tolist()
            kept = (onward_bases >= (best - 2 * _BASE_ERROR).repeat(counts)).nonzero()[0]
        pairs = list(zip(onward_relations[kept].tolist(), onward_tails[kept].tolist()))
        firsts, lasts = kept.searchsorted(starts).tolist(), kept.searchsorted(ends).tolist()
        frontier_of = np.arange(len(heads)).repeat(step_counts).tolist()
        relations, tails = relations.tolist(), tails.tolist()
        ranked = [[] for _ in range(len(heads))]
        for i in steps:
            base = self._base(relations[i], tails[i])
            bonus = max(starmap(self._base, pairs[firsts[i] : lasts[i]]), default=0.0)
            step = ReasoningStep(g.relation_names[relations[i]], g.entity_names[tails[i]])
            ranked[frontier_of[i]].append(ScoredCandidate(step, base, bonus, base + alpha * bonus))
        for head, candidates in zip(heads.tolist(), ranked):
            self._ranked[head, m, alpha] = candidates


def candidate_steps(
    g: KnowledgeGraph,
    idx: EmbeddingIndex,
    emb: Embedder,
    query_vec: np.ndarray,
    frontier_entity: str,
    config: RetrievalConfig,
    *,
    context: ScoreContext | None = None,
) -> list[ScoredCandidate]:
    """Rank the frontier entity's true 1-hop neighborhood as candidate steps.

    Candidates are never fabricated: every returned step is an actual edge
    out of the frontier. Scoring depends on the retriever mode; the ranking
    is score-descending with a lexicographic tie-break and truncated to m.
    Path-RAG scores come from ``context`` (a private one when none is given).
    """
    scores = (context or ScoreContext(g, idx, emb)).bind(g, idx, emb, query_vec)
    if config.mode == MODE_PATH_RAG:
        candidates = scores.top_candidates(frontier_entity, config.m, config.alpha)
    else:
        candidates = []
        for relation, entity in g.steps(frontier_entity):
            text = f"{relation} {entity}"  # vanilla scores the step as text
            if config.mode == MODE_KAPING:  # and kaping the frontier's whole triple
                text = f"{frontier_entity} {text}"
            score = cosine(query_vec, emb.embed(text))
            candidates.append(ScoredCandidate(ReasoningStep(relation, entity), score, 0.0, score))
    candidates.sort(key=lambda c: (-c.total_score, c.step.relation, c.step.entity))
    return candidates[: config.m]


def kaping_retrieve(
    g: KnowledgeGraph,
    emb: Embedder,
    query_text: str,
    k: int,
    *,
    query_vec: np.ndarray | None = None,
) -> list[tuple[Triple, float]]:
    """Rank whole triples by similarity of their text rendering to the query,
    embedded from ``query_text`` unless its ``query_vec`` is given.

    Each triple renders as ``head relation tail``. Returns the top-k with
    scores, all triples when k exceeds the graph size.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    query_vec = emb.embed(query_text) if query_vec is None else query_vec
    scored = [
        (Triple(head, relation, tail), cosine(query_vec, emb.embed(f"{head} {relation} {tail}")))
        for head, relation, tail in g.edges()
    ]
    scored.sort(key=lambda pair: (-pair[1], pair[0].head, pair[0].relation, pair[0].tail))
    return scored[:k]


def coverage_ratio(
    retrieved_steps_per_hop: Sequence[Iterable[ReasoningStep]],
    ground_truth: ReasoningPath,
) -> float:
    """Fraction of ground-truth steps present in the retrieved set for
    their hop."""
    if not ground_truth.steps:
        raise ValueError("ground truth path must be non-empty")
    hits = sum(
        hop < len(retrieved_steps_per_hop) and step in set(retrieved_steps_per_hop[hop])
        for hop, step in enumerate(ground_truth.steps)
    )
    return hits / len(ground_truth.steps)


def retrieved_steps_along_path(
    g: KnowledgeGraph,
    idx: EmbeddingIndex,
    emb: Embedder,
    query_vec: np.ndarray,
    query_text: str,
    ground_truth: ReasoningPath,
    config: RetrievalConfig,
    *,
    context: ScoreContext | None = None,
) -> list[set[ReasoningStep]]:
    """Retrieved candidate sets at each hop while walking the ground-truth
    path, for coverage-ratio comparisons between retriever modes.

    The per-frontier retrievers re-rank at every hop; the triple-to-text
    retriever selects one global top-m set that is charged at every hop.
    Scores come from ``context`` (a private one when none is given), which
    embeds ``query_text`` at most once; ``query_vec`` must be its vector.
    """
    context = context or ScoreContext(g, idx, emb)
    if config.mode == MODE_KAPING:
        query_vec = context.bind(g, idx, emb, query_vec).embed_query(query_text)
        ranked = kaping_retrieve(g, emb, query_text, config.m, query_vec=query_vec)
        return [{ReasoningStep(t.relation, t.tail) for t, _ in ranked} for _ in ground_truth.steps]
    return [
        {c.step for c in candidate_steps(g, idx, emb, query_vec, frontier, config, context=context)}
        for frontier in ground_truth.entities()[:-1]
    ]
