"""Candidate reasoning-step retrieval.

Given query keywords and a frontier entity, build and score the candidate
next steps that the search will choose from. The default scorer combines the
semantic alignment of a step with a one-hop lookahead bonus, so a step that
looks dull by itself but leads somewhere promising still ranks. Two baseline
retrievers (vanilla concatenation and triple-to-text) are included for
comparison runs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .embedding import Embedder, EmbeddingIndex, cosine, norm, query_cosine
from .kg import KnowledgeGraph, ReasoningPath, ReasoningStep, Triple, neighbors

MODE_PATH_RAG = "path-rag"
MODE_VANILLA = "vanilla"
MODE_KAPING = "kaping"
RETRIEVER_MODES = (MODE_PATH_RAG, MODE_VANILLA, MODE_KAPING)

# How far an approximate Path-RAG score may lie from the exact one. Let
# u = 2^-53 and d the dimension. A dot product of d terms, summed in any order
# and with or without fused multiply-adds, is within d*u*|x|*|y| (to first
# order) of the true one (Higham, Accuracy and Stability of Numerical
# Algorithms, section 3.1), as long as nothing overflows or underflows, which
# holds when every squared norm is 0 or lies in _SAFE_SQUARED_NORMS. So a
# cosine from a matrix product and vectorized row norms, and one from
# ``query_cosine``, are each within (2d + 5)u of the true cosine, and of each
# other within (4d + 10)u. A base (two similarities, two additions) is then
# off by at most (8d + 24)u, a bonus (a max of bases) by as much, and a total
# base + alpha*bonus by at most (1 + alpha)(8d + 32)u. For every d up to
# _MAX_DIMENSION, _BASE_ERROR exceeds (8d + 32)u by over 2^-31, a margin that
# covers the rounding of the band arithmetic itself. A larger index is
# scored exactly.
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
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.mode not in RETRIEVER_MODES:
            raise ValueError(f"unknown retriever mode {self.mode!r}")


class ScoreContext:
    """The Path-RAG scores of one question's query, shared by every frontier
    of its search and by its coverage walk; one question, one thread.

    Built for one graph, index and embedder, it binds the query on first use
    and raises ``ValueError`` when used with any other. Each relation's and
    entity's cosine to the query (0 if not indexed) and each entity's best
    onward step are computed once, on first use. On a frontier with more
    neighbours than m, the cosines of its steps and of their onward steps are
    first approximated, with one matrix product per frontier and each
    identifier once, so that only the steps and onward steps that can come
    out on top are scored exactly.
    """

    def __init__(self, g: KnowledgeGraph, idx: EmbeddingIndex, emb: Embedder):
        self.g, self.idx, self.emb = g, idx, emb
        self.query_text: str | None = None
        self.query_vec: np.ndarray | None = None
        self.relation_sims: dict[str, float] = {}
        self.entity_sims: dict[str, float] = {}
        self.best_next: dict[str, float] = {}
        self.approx_relation_sims: dict[str, float] = {}
        self.approx_entity_sims: dict[str, float] = {}
        self.approx_next: dict[str, float] = {}

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
        if self.query_vec is None:
            self.query_vec = query_vec
            self._query = np.asarray(query_vec, dtype=np.float64)
            self._query_norm = norm(self._query)
        elif query_vec is not self.query_vec and not np.array_equal(query_vec, self.query_vec):
            raise ValueError("score context was built for another query vector")

    def _similarity(
        self, sims: dict[str, float], vectors: dict[str, np.ndarray], identifier: str
    ) -> float:
        sim = sims.get(identifier)
        if sim is None:
            vec = vectors.get(identifier)
            sim = sims[identifier] = (
                0.0
                if vec is None
                else query_cosine(self._query, self._query_norm, np.asarray(vec, dtype=np.float64))
            )
        return sim

    def base(self, relation: str, entity: str) -> float:
        # Summed from 0.0 so that two -0.0 similarities give 0.0, not -0.0.
        return (
            0.0
            + self._similarity(self.relation_sims, self.idx.relation_vectors, relation)
            + self._similarity(self.entity_sims, self.idx.entity_vectors, entity)
        )

    def best_onward(self, entity: str) -> float:
        """The best base over the entity's onward pairs. Once their maximum
        has been approximated, only the pairs within twice the error bound of
        it are scored exactly: the exact maximum's pair is among them."""
        best = self.best_next.get(entity)
        if best is None:
            pairs = self.g.adjacency.get(entity, ())
            if entity in self.approx_next and len(pairs) > 1:
                floor = self.approx_next[entity] - 2 * _BASE_ERROR
                approx = self._approx_bases(pairs)
                pairs = [pair for pair, score in zip(pairs, approx) if score >= floor]
            best = self.best_next[entity] = max(
                (self.base(relation, tail) for relation, tail in pairs), default=0.0
            )
        return best

    def score(self, relation: str, entity: str, alpha: float) -> ScoredCandidate:
        base = self.base(relation, entity)
        bonus = self.best_onward(entity)
        return ScoredCandidate(ReasoningStep(relation, entity), base, bonus, base + alpha * bonus)

    def top_candidates(
        self, pairs: list[tuple[str, str]], m: int, alpha: float
    ) -> list[ScoredCandidate]:
        """Exact scores of every ``(relation, entity)`` step that can rank
        among the top m. That is every step of a frontier of at most m. On a
        wider one it is the steps whose approximate total lies within twice
        its error bound of the m-th largest, unless an approximation is not
        proven."""
        if len(pairs) <= m or not math.isfinite(alpha) or not self._approximate(pairs):
            return [self.score(relation, entity, alpha) for relation, entity in pairs]
        totals = [
            base + alpha * self._approx_onward(entity)
            for base, (_, entity) in zip(self._approx_bases(pairs), pairs)
        ]
        floor = heapq.nlargest(m, totals)[-1] - 2 * (1 + alpha) * _BASE_ERROR
        return [
            self.score(relation, entity, alpha)
            for (relation, entity), total in zip(pairs, totals)
            if total >= floor
        ]

    def _approximate(self, pairs: list[tuple[str, str]]) -> bool:
        """Approximate the similarity of each relation and entity of
        ``pairs`` and of their entities' onward pairs, once per identifier;
        ``False`` when one of them has no proven error bound."""
        relations = {relation for relation, _ in pairs}
        entities = {entity for _, entity in pairs}
        for entity in [entity for entity in entities if entity not in self.approx_next]:
            onward = self.g.adjacency.get(entity)
            if onward:
                onward_relations, tails = zip(*onward)
                relations.update(onward_relations)
                entities.update(tails)
        return self._approximate_some(
            self.approx_relation_sims, self.idx.relation_vectors, relations
        ) and self._approximate_some(self.approx_entity_sims, self.idx.entity_vectors, entities)

    def _approximate_some(
        self, sims: dict[str, float], vectors: dict[str, np.ndarray], identifiers: set[str]
    ) -> bool:
        new = [identifier for identifier in identifiers if identifier not in sims]
        indexed = [identifier for identifier in new if identifier in vectors]
        approx = _approximate_cosines([vectors[identifier] for identifier in indexed], self._query)
        if approx is None:
            return False
        sims.update(dict.fromkeys(new, 0.0))
        sims.update(zip(indexed, approx))
        return True

    def _approx_bases(self, pairs: Iterable[tuple[str, str]]) -> list[float]:
        relation_sims, entity_sims = self.approx_relation_sims, self.approx_entity_sims
        return [relation_sims[relation] + entity_sims[entity] for relation, entity in pairs]

    def _approx_onward(self, entity: str) -> float:
        best = self.approx_next.get(entity)
        if best is None:
            bases = self._approx_bases(self.g.adjacency.get(entity, ()))
            best = self.approx_next[entity] = max(bases, default=0.0)
        return best


def _approximate_cosines(vectors: list[np.ndarray], query: np.ndarray) -> list[float] | None:
    """The cosines of ``vectors`` to ``query`` from one matrix product and
    vectorized norms, each within (2d + 5)u of the true one (see
    _BASE_ERROR); ``None`` when that bound is not proven."""
    if not vectors:
        return []
    if query.ndim != 1 or query.shape[0] > _MAX_DIMENSION:
        return None
    try:
        rows = np.array(vectors, dtype=np.float64)
    except ValueError:  # vectors of different lengths
        return None
    if rows.shape != (len(vectors), query.shape[0]):
        return None
    low, high = _SAFE_SQUARED_NORMS
    query_squared = float(query.dot(query))
    row_squared = np.einsum("ij,ij->i", rows, rows)
    zero = row_squared == 0.0
    in_range = zero | ((row_squared >= low) & (row_squared <= high))
    if not low <= query_squared <= high or not np.all(in_range):
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        cosines = rows @ query / (np.sqrt(row_squared) * math.sqrt(query_squared))
    return np.where(zero, 0.0, np.clip(cosines, -1.0, 1.0)).tolist()


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
    pairs = sorted(neighbors(g, frontier_entity))
    if config.mode == MODE_PATH_RAG:
        candidates = scores.top_candidates(pairs, config.m, config.alpha)
    else:
        candidates = []
        for relation, entity in pairs:
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
) -> list[tuple[Triple, float]]:
    """Rank whole triples by similarity of their text rendering to the query.

    Each triple renders as ``head relation tail``. Returns the top-k with
    scores, all triples when k exceeds the graph size.
    """
    return _rank_triples(g, emb, emb.embed(query_text), k)


def _rank_triples(
    g: KnowledgeGraph, emb: Embedder, query_vec: np.ndarray, k: int
) -> list[tuple[Triple, float]]:
    if k < 1:
        raise ValueError("k must be >= 1")
    scored = [
        (Triple(head, relation, tail), cosine(query_vec, emb.embed(f"{head} {relation} {tail}")))
        for head, pairs in g.adjacency.items()
        for relation, tail in pairs
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
    hits = 0
    for hop, step in enumerate(ground_truth.steps):
        retrieved = (
            set(retrieved_steps_per_hop[hop]) if hop < len(retrieved_steps_per_hop) else set()
        )
        if step in retrieved:
            hits += 1
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
        ranked = _rank_triples(g, emb, query_vec, config.m)
        return [{ReasoningStep(t.relation, t.tail) for t, _ in ranked} for _ in ground_truth.steps]
    sets: list[set[ReasoningStep]] = []
    frontier = ground_truth.start
    for step in ground_truth.steps:
        ranked = candidate_steps(g, idx, emb, query_vec, frontier, config, context=context)
        sets.append({c.step for c in ranked})
        frontier = step.entity
    return sets
