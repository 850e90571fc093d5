"""Candidate reasoning-step retrieval.

Given query keywords and a frontier entity, build and score the candidate
next steps that the search will choose from. The default scorer combines the
semantic alignment of a step with a one-hop lookahead bonus, so a step that
looks dull by itself but leads somewhere promising still ranks. Two baseline
retrievers (vanilla concatenation and triple-to-text) are included for
comparison runs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .embedding import Embedder, EmbeddingIndex, cosine
from .kg import KnowledgeGraph, ReasoningPath, ReasoningStep, Triple, neighbors

logger = logging.getLogger(__name__)

MODE_PATH_RAG = "path-rag"
MODE_VANILLA = "vanilla"
MODE_KAPING = "kaping"
RETRIEVER_MODES = (MODE_PATH_RAG, MODE_VANILLA, MODE_KAPING)


@dataclass(frozen=True)
class KeywordSet:
    """Query keywords; their space-joined text is what gets embedded."""

    keywords: tuple[str, ...]

    def __post_init__(self):
        if not self.keywords:
            raise ValueError("keyword set must be non-empty")

    @property
    def joined_text(self) -> str:
        return " ".join(self.keywords)


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
    neighbor_cap: int = 256
    mode: str = MODE_PATH_RAG

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.neighbor_cap < 1:
            raise ValueError("neighbor_cap must be >= 1")
        if self.mode not in RETRIEVER_MODES:
            raise ValueError(f"unknown retriever mode {self.mode!r}")


def base_score(idx: EmbeddingIndex, query_vec: np.ndarray, step: ReasoningStep) -> float:
    """Semantic alignment of a step: relation similarity plus entity
    similarity to the query, each in [-1, 1].

    Identifiers missing from the index contribute similarity 0.
    """
    total = 0.0
    rel_vec = idx.relation_vector(step.relation)
    if rel_vec is None:
        logger.debug("relation %r not in index; scoring its part as 0", step.relation)
    else:
        total += cosine(query_vec, rel_vec)
    ent_vec = idx.entity_vector(step.entity)
    if ent_vec is None:
        logger.debug("entity %r not in index; scoring its part as 0", step.entity)
    else:
        total += cosine(query_vec, ent_vec)
    return total


def lookahead_score(
    g: KnowledgeGraph,
    idx: EmbeddingIndex,
    query_vec: np.ndarray,
    step: ReasoningStep,
    alpha: float,
    neighbor_cap: int = 256,
) -> ScoredCandidate:
    """Score a step as base score plus alpha times the best next-hop base
    score reachable from its entity (0 if the entity is a dead end).

    On hub entities with more than ``neighbor_cap`` outgoing pairs, the max
    runs over the cap's worth of pairs with highest relation similarity.
    """
    base = base_score(idx, query_vec, step)
    next_pairs = sorted(neighbors(g, step.entity))
    if len(next_pairs) > neighbor_cap:
        next_pairs.sort(
            key=lambda pair: (
                -_relation_similarity(idx, query_vec, pair[0]),
                pair[0],
                pair[1],
            )
        )
        next_pairs = next_pairs[:neighbor_cap]
    bonus = 0.0
    if next_pairs:
        bonus = max(
            base_score(idx, query_vec, ReasoningStep(relation=r, entity=e))
            for r, e in next_pairs
        )
    return ScoredCandidate(
        step=step,
        base_score=base,
        lookahead_bonus=bonus,
        total_score=base + alpha * bonus,
    )


def _relation_similarity(idx: EmbeddingIndex, query_vec: np.ndarray, relation: str) -> float:
    vec = idx.relation_vector(relation)
    return cosine(query_vec, vec) if vec is not None else 0.0


def candidate_steps(
    g: KnowledgeGraph,
    idx: EmbeddingIndex,
    emb: Embedder,
    query_vec: np.ndarray,
    frontier_entity: str,
    config: RetrievalConfig,
) -> list[ScoredCandidate]:
    """Rank the frontier entity's true 1-hop neighborhood as candidate steps.

    Candidates are never fabricated: every returned step is an actual edge
    out of the frontier. Scoring depends on the retriever mode; the ranking
    is score-descending with a lexicographic tie-break and truncated to m.
    """
    pairs = sorted(neighbors(g, frontier_entity))
    if not pairs:
        return []
    candidates: list[ScoredCandidate] = []
    for relation, entity in pairs:
        step = ReasoningStep(relation=relation, entity=entity)
        if config.mode == MODE_PATH_RAG:
            candidates.append(
                lookahead_score(g, idx, query_vec, step, config.alpha, config.neighbor_cap)
            )
        elif config.mode == MODE_VANILLA:
            score = cosine(query_vec, emb.embed(f"{relation} {entity}"))
            candidates.append(
                ScoredCandidate(step=step, base_score=score, lookahead_bonus=0.0, total_score=score)
            )
        else:  # kaping: rank the frontier's triples by their text rendering
            text = f"{frontier_entity} {relation} {entity}"
            score = cosine(query_vec, emb.embed(text))
            candidates.append(
                ScoredCandidate(step=step, base_score=score, lookahead_bonus=0.0, total_score=score)
            )
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
    if k < 1:
        raise ValueError("k must be >= 1")
    query_vec = emb.embed(query_text)
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
) -> list[set[ReasoningStep]]:
    """Retrieved candidate sets at each hop while walking the ground-truth
    path, for coverage-ratio comparisons between retriever modes.

    The per-frontier retrievers re-rank at every hop; the triple-to-text
    retriever selects one global top-m set that is charged at every hop.
    """
    if config.mode == MODE_KAPING:
        retrieved = {
            ReasoningStep(relation=t.relation, entity=t.tail)
            for t, _ in kaping_retrieve(g, emb, query_text, config.m)
        }
        return [set(retrieved) for _ in ground_truth.steps]
    sets: list[set[ReasoningStep]] = []
    frontier = ground_truth.start
    for step in ground_truth.steps:
        ranked = candidate_steps(g, idx, emb, query_vec, frontier, config)
        sets.append({c.step for c in ranked})
        frontier = step.entity
    return sets
