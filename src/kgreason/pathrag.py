"""Candidate reasoning-step retrieval.

Given query keywords and a frontier entity, build and score the candidate
next steps that the search will choose from. The default scorer combines the
semantic alignment of a step with a one-hop lookahead bonus, so a step that
looks dull by itself but leads somewhere promising still ranks. It reads the
graph's CSR rows, computes every similarity exactly, in batches, once per
question, keeps them by graph id and ranks all the frontiers of a search
depth in one numpy pass. Two baseline retrievers (vanilla concatenation and
triple-to-text) are included for comparison runs.
"""

from __future__ import annotations

import logging
import math
import weakref
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .embedding import (
    Embedder, EmbeddingIndex, check_index, norm, query_cosines, query_vector, row_norms, text_cosines, top_m,
)
from .kg import KnowledgeGraph, ReasoningPath, ReasoningStep

logger = logging.getLogger(__name__)

MODE_PATH_RAG = "path-rag"
MODE_VANILLA = "vanilla"
MODE_KAPING = "kaping"
RETRIEVER_MODES = (MODE_PATH_RAG, MODE_VANILLA, MODE_KAPING)


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


# Each index's row norms, relations' then entities', with the graph its
# names were last checked against: every question's context of one (graph,
# index) pair shares them, and the pair's zero rows are reported once, when
# they are computed. A cache held only while its index lives.
_CHECKED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _checked_norms(g: KnowledgeGraph, idx: EmbeddingIndex):
    checked = _CHECKED.get(idx)
    if checked is None or checked[0] is not g:
        check_index(g, idx)
        checked = _CHECKED[idx] = (g, row_norms(idx.relation_matrix), row_norms(idx.entity_matrix))
        zero_relations, zero_entities = (int((norms == 0.0).sum()) for norms in checked[1:])
        if zero_relations or zero_entities:
            logger.warning(
                "index has %d zero-norm entity rows and %d zero-norm relation rows;"
                " their cosines are defined as 0.0", zero_entities, zero_relations,
            )
    return checked[1:]


class ScoreContext:
    """The Path-RAG scores of one question's query, shared by every frontier
    of its search and by its coverage walk; one question, one thread. It is
    the one handle retrieval takes.

    Built for one graph, its index and an embedder, it refuses (``ValueError``)
    an index whose names are not the graph's, checked once per graph and
    index, and reads the index's own matrices. It binds one query, once, of
    the index's dimension and finite. Every similarity is exact and computed
    in a batch: every relation's on binding, and an entity's the first time
    a ranked depth's frontiers reach it, so each identifier once per
    question, kept by graph id. Each frontier's steps are then ranked in
    numpy, all the frontiers of a depth in one pass.
    """

    def __init__(self, g: KnowledgeGraph, idx: EmbeddingIndex, emb: Embedder):
        self.g, self.idx, self.emb = g, idx, emb
        self._norms = _checked_norms(g, idx)
        self._query: np.ndarray | None = None
        self._ranked: dict[tuple[int, int, float], list[ScoredCandidate]] = {}

    @property
    def query_vec(self) -> np.ndarray:
        """The bound query vector."""
        if self._query is None:
            raise ValueError("score context has no query bound")
        return self._query

    def bind_query(self, query: str | np.ndarray) -> np.ndarray:
        """Bind the question's query, a vector or a text to embed; once. A
        query that is not a finite vector of the index's dimension is a
        ``ValueError``."""
        if self._query is not None:
            raise ValueError("score context is already bound to a query")
        query = self.emb.embed(query) if isinstance(query, str) else query
        self._query = query_vector(query, self.idx.dimension)
        self._query_norm = norm(self._query)
        relation_norms, entity_norms = self._norms
        self._relation_sims = query_cosines(
            self._query, self._query_norm, self.idx.relation_matrix, relation_norms
        )
        self._entity_sims = np.zeros(len(entity_norms))
        self._entity_scored = np.zeros(len(entity_norms), dtype=bool)
        return self._query

    def top_candidates(self, entity: str, m: int, alpha: float) -> list[ScoredCandidate]:
        """The candidates :meth:`rank` gives ``entity``, none if unknown."""
        key = (self.g.entity_ids.get(entity), m, alpha)
        if key not in self._ranked:
            self.rank([entity], m, alpha)
        return list(self._ranked.get(key, ()))

    def rank(self, entities: Sequence[str], m: int, alpha: float) -> None:
        """Rank the steps out of the frontiers ``entities`` together, each
        frontier once per m and alpha, and keep each one's top m, ordered by
        descending total, then relation and entity name. A step's base is the
        sum of its relation's and entity's similarities, its bonus the best
        base of the steps out of its entity (0 for a dead end), and its total
        base + alpha * bonus. A search depth's frontiers pay numpy's per-call
        cost once."""
        query, g = self.query_vec, self.g
        heads = map(g.entity_ids.get, dict.fromkeys(entities))
        heads = np.array([h for h in heads if h is not None and (h, m, alpha) not in self._ranked], dtype=np.int64)
        if not len(heads):
            return
        # the frontiers' steps, then their onward edges, as CSR positions, a run
        # each (array methods: numpy's function wrappers cost more, this small)
        step_firsts = g.offsets[heads]
        step_counts = g.offsets[heads + 1] - step_firsts
        frontier_of = np.arange(len(heads)).repeat(step_counts)
        within = np.arange(len(frontier_of)) - (step_counts.cumsum() - step_counts)[frontier_of]
        steps_at = step_firsts[frontier_of] + within
        relations, tails = g.edge_relations[steps_at], g.edge_tails[steps_at]
        firsts = g.offsets[tails]
        counts = g.offsets[tails + 1] - firsts
        starts = counts.cumsum() - counts
        onward = np.arange(counts.sum()) + (firsts - starts).repeat(counts)
        onward_relations, onward_tails = g.edge_relations[onward], g.edge_tails[onward]
        # the entities reached for the first time, each once, in one batch
        new = np.concatenate((tails, onward_tails))
        new = np.sort(new[~self._entity_scored[new]])
        if len(new):
            new = new[np.concatenate(([True], new[1:] != new[:-1]))]
            entity_rows, entity_norms = self.idx.entity_matrix[new], self._norms[1][new]
            self._entity_sims[new] = query_cosines(query, self._query_norm, entity_rows, entity_norms)
            self._entity_scored[new] = True
        relation_sims, entity_sims = self._relation_sims, self._entity_sims
        # Summed from 0.0 so that two -0.0 similarities give 0.0, not -0.0.
        bases = 0.0 + relation_sims[relations] + entity_sims[tails]
        onward_bases = 0.0 + relation_sims[onward_relations] + entity_sims[onward_tails]
        # each step's best onward base, 0 for a dead end: a run that is empty
        # reads the element after it, or the -inf appended
        bonuses = np.maximum.reduceat(np.concatenate((onward_bases, [-np.inf])), starts)
        bonuses[counts == 0] = 0.0
        with np.errstate(over="ignore"):  # a large alpha may overflow to +inf, as floats do
            totals = bases + alpha * bonuses
        # One stable sort by frontier, then descending total: equal totals
        # keep CSR order, which is (relation, entity) name order. Each
        # frontier's run then starts with its top m.
        top = np.lexsort((-totals, frontier_of))[within < m]
        steps = map(
            ReasoningStep,
            map(g.relation_names.__getitem__, relations[top].tolist()),
            map(g.entity_names.__getitem__, tails[top].tolist()),
        )
        ranked = list(map(ScoredCandidate, steps, bases[top].tolist(), bonuses[top].tolist(), totals[top].tolist()))
        ends = np.minimum(step_counts, m).cumsum().tolist()
        for head, start, end in zip(heads.tolist(), [0, *ends], ends):
            self._ranked[head, m, alpha] = ranked[start:end]


def candidate_steps(
    context: ScoreContext, frontier_entity: str, config: RetrievalConfig
) -> list[ScoredCandidate]:
    """Rank the frontier entity's true 1-hop neighborhood as candidate steps
    for the query bound to ``context``.

    Candidates are never fabricated: every returned step is an actual edge
    out of the frontier. Scoring depends on the retriever mode; the ranking
    is score-descending with a lexicographic tie-break and truncated to m.
    """
    if config.mode == MODE_PATH_RAG:  # ranked and truncated already
        return context.top_candidates(frontier_entity, config.m, config.alpha)
    steps = context.g.steps(frontier_entity)
    # vanilla scores the step as text, and kaping the frontier's whole triple
    head = f"{frontier_entity} " if config.mode == MODE_KAPING else ""
    texts = [f"{head}{relation} {entity}" for relation, entity in steps]
    # steps come in (relation, entity) order, which equal scores keep
    top, scores = top_m(text_cosines(context.emb, context.query_vec, texts), config.m)
    return [ScoredCandidate(ReasoningStep(*steps[i]), s, 0.0, s) for i, s in zip(top, scores)]


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
    comparisons between retriever modes: each hop's set is what
    :func:`candidate_steps`, the search's own retriever, gives that hop's
    gold frontier.
    """
    return [
        {c.step for c in candidate_steps(context, frontier, config)}
        for frontier in ground_truth.entities()[:-1]
    ]
