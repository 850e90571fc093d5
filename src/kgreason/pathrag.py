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
import weakref
from dataclasses import dataclass
from itertools import starmap
from typing import Iterable, Sequence

import numpy as np

from .embedding import Embedder, EmbeddingIndex, check_index, cosine, norm, query_cosine
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


def _inverse_norms(matrix: np.ndarray) -> np.ndarray | None:
    """One over the norm of each row of ``matrix`` (0 for a zero row), or
    ``None`` when the rows have no proven approximation."""
    if matrix.shape[1] > _MAX_DIMENSION:
        return None
    squared = np.einsum("ij,ij->i", matrix, matrix)
    low, high = _SAFE_SQUARED_NORMS
    if not np.all((squared == 0.0) | ((squared >= low) & (squared <= high))):
        return None
    with np.errstate(divide="ignore"):
        return np.where(squared == 0.0, 0.0, 1.0 / np.sqrt(squared))


# Each index's inverse row norms, relations' then entities', with the graph
# its names were last checked against: every question's context of one
# (graph, index) pair shares them. A pure cache, held only while its index lives.
_CHECKED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _checked_norms(g: KnowledgeGraph, idx: EmbeddingIndex):
    checked = _CHECKED.get(idx)
    if checked is None or checked[0] is not g:
        check_index(g, idx)
        norms = _inverse_norms(idx.relation_matrix), _inverse_norms(idx.entity_matrix)
        checked = _CHECKED[idx] = (g, *norms)
    return checked[1:]


class ScoreContext:
    """The Path-RAG scores of one question's query, shared by every frontier
    of its search and by its coverage walk; one question, one thread. It is
    the one handle retrieval takes.

    Built for one graph, its index and an embedder, it refuses (``ValueError``)
    an index whose names are not the graph's, checked once per graph and
    index, and reads the index's own matrices. It binds one query, once.
    Cosines are first approximated by matrix-vector products: every
    relation's on binding, an entity's when a ranked frontier first reaches
    it. Every frontier is ranked by one rule: approximate totals pick the
    steps and onward steps that can decide its top m, and only those are
    scored exactly, each identifier once per question, kept by graph id; all
    are, when no error bound is proven.
    """

    def __init__(self, g: KnowledgeGraph, idx: EmbeddingIndex, emb: Embedder):
        self.g, self.idx, self.emb = g, idx, emb
        self._norms = _checked_norms(g, idx)
        self._query: np.ndarray | None = None

    @property
    def query_vec(self) -> np.ndarray:
        """The bound query vector."""
        if self._query is None:
            raise ValueError("score context has no query bound")
        return self._query

    def bind_query(self, query: str | np.ndarray) -> np.ndarray:
        """Bind the question's query, a vector or a text to embed; once."""
        if self._query is not None:
            raise ValueError("score context is already bound to a query")
        query = self.emb.embed(query) if isinstance(query, str) else query
        self._query = np.asarray(query, dtype=np.float64)
        self._query_norm = norm(self._query)
        g, idx = self.g, self.idx
        self._sims = ([None] * len(g.relation_names), [None] * len(g.entity_names))
        self._ranked: dict[tuple[int, int, float], list[ScoredCandidate]] = {}
        # Approximate cosines, each within (2d + 5)u of the true one, when
        # that is proven: the relations' now, an entity's on first use.
        self._approx = None
        query_squared = float(self._query.dot(self._query)) if self._query.ndim == 1 else 0.0
        low, high = _SAFE_SQUARED_NORMS
        relation_norms, entity_norms = self._norms
        if (low <= query_squared <= high and idx.dimension == len(self._query)
                and relation_norms is not None and entity_norms is not None):
            self._unit = self._query / math.sqrt(query_squared)
            relation_sims = idx.relation_matrix @ self._unit * relation_norms
            self._approx = (relation_sims, np.full(len(g.entity_names), np.nan))
        return self._query

    def _base(self, relation: int, entity: int) -> float:
        """The exact base of a step; each similarity is computed once."""
        (relation_sims, entity_sims), query, query_norm = self._sims, self._query, self._query_norm
        if relation_sims[relation] is None:
            relation_sims[relation] = query_cosine(query, query_norm, self.idx.relation_matrix[relation])
        if entity_sims[entity] is None:
            entity_sims[entity] = query_cosine(query, query_norm, self.idx.entity_matrix[entity])
        # Summed from 0.0 so that two -0.0 similarities give 0.0, not -0.0.
        return 0.0 + relation_sims[relation] + entity_sims[entity]

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
            inverse_norms = self._norms[1]
            entity_sims[new] = self.idx.entity_matrix[new] @ self._unit * inverse_norms[new]
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
    context: ScoreContext, frontier_entity: str, config: RetrievalConfig
) -> list[ScoredCandidate]:
    """Rank the frontier entity's true 1-hop neighborhood as candidate steps
    for the query bound to ``context``.

    Candidates are never fabricated: every returned step is an actual edge
    out of the frontier. Scoring depends on the retriever mode; the ranking
    is score-descending with a lexicographic tie-break and truncated to m.
    """
    query_vec = context.query_vec
    if config.mode == MODE_PATH_RAG:
        candidates = context.top_candidates(frontier_entity, config.m, config.alpha)
    else:
        candidates = []
        for relation, entity in context.g.steps(frontier_entity):
            text = f"{relation} {entity}"  # vanilla scores the step as text
            if config.mode == MODE_KAPING:  # and kaping the frontier's whole triple
                text = f"{frontier_entity} {text}"
            score = cosine(query_vec, context.emb.embed(text))
            candidates.append(ScoredCandidate(ReasoningStep(relation, entity), score, 0.0, score))
    candidates.sort(key=lambda c: (-c.total_score, c.step.relation, c.step.entity))
    return candidates[: config.m]


def kaping_retrieve(
    g: KnowledgeGraph, emb: Embedder, query_vec: np.ndarray, k: int
) -> list[tuple[Triple, float]]:
    """Rank whole triples by similarity of their text rendering to the query
    vector.

    Each triple renders as ``head relation tail``. Returns the top-k with
    scores, all triples when k exceeds the graph size.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
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
    context: ScoreContext, ground_truth: ReasoningPath, config: RetrievalConfig
) -> list[set[ReasoningStep]]:
    """Retrieved candidate sets at each hop while walking the ground-truth
    path against the query bound to ``context``, for coverage-ratio
    comparisons between retriever modes.

    The per-frontier retrievers re-rank at every hop; the triple-to-text
    retriever selects one global top-m set that is charged at every hop.
    """
    if config.mode == MODE_KAPING:
        ranked = kaping_retrieve(context.g, context.emb, context.query_vec, config.m)
        return [{ReasoningStep(t.relation, t.tail) for t, _ in ranked} for _ in ground_truth.steps]
    return [
        {c.step for c in candidate_steps(context, frontier, config)}
        for frontier in ground_truth.entities()[:-1]
    ]
