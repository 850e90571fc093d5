"""Seeded synthetic knowledge graphs and planted QA datasets.

Everything here is a pure function of a ``numpy.random.Generator``: the same
seed gives byte-identical TSV, dataset and mock-script files. Only the
standard library and numpy are used, in a single process.

Entity labels imitate real KG labels (spaces, punctuation, some with commas
such as ``Harlow, Kent``) and never contain ``->``, ``>``, tabs, newlines,
surrounding whitespace or a leading ``#``, so every label survives the TSV
loader and the arrow path format unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GIVEN = (
    "Ada Alma Anton Aris Bea Bruno Cai Clara Dario Edith Elio Farah Felix Greta "
    "Hugo Ines Ivo Jana Jonas Kira Lars Lena Luca Mara Milo Nadia Nils Olga Omar "
    "Pia Rafael Rosa Sami Selma Tariq Thea Uma Vera Wim Yara Zeno"
).split()
FAMILY = (
    "Abbott Bauer Castell Dunmore Eriksen Falk Garrow Hale Iversen Jarvis Kessler "
    "Lindqvist Marlow Novak Oyelaran Petrov Quaye Rourke Sato Thorne Ueda Varga "
    "Whitlock Xu Yilmaz Zeller O'Brien McAllister Duval Brandt Okafor Halloran "
    "Ferreira Moreau Nakamura Castillo Wexford Ambrose Kowalski Lund"
).split()
TOWN_HEAD = "Ash Brook Clay Elm Fair Glen Hart Kings Lark Mill Oak Rich Stone Thorn West Wick".split()
TOWN_TAIL = "ford field ham ley mouth port stead ton wick worth bury dale".split()
REGION = (
    "Kent Ontario Tasmania Bavaria Oregon Galicia Limpopo Jutland Victoria "
    "Yorkshire Quebec Saxony Patagonia Hokkaido Andalusia Otago Manitoba D.C."
).split()
ADJ = "Silent Crimson Hollow Golden Broken Northern Last Hidden Iron Distant Bright Quiet".split()
NOUN = "River Harbor Garden Crown Letter Winter Mirror Orchard Signal Lantern Frontier Archive".split()
ORG = "Records Institute Holdings Press Partners Foundation Labs Society Pictures Trust".split()
BUILDING = "Abbey Hospital College Chapel Academy Bridge".split()

DOMAINS = (
    "people location film music book organization sports government education "
    "business medicine award tv architecture religion"
).split()
TYPES = "person place work group event object region title entity record".split()
PROPERTIES = (
    "spouse place_of_birth capital currency_used founded_by directed_by "
    "member_of located_in headquarters genre language_spoken award_won "
    "parent_company contains nationality author publisher religion employer "
    "alma_mater team coach architect composer producer official_language "
    "form_of_government time_zone sibling child successor owner sponsor "
    "instrument editor"
).split()


def entity_labels(rng: np.random.Generator, n: int) -> list[str]:
    """``n`` distinct KG-style labels; about a tenth contain a comma."""
    templates = (
        (0.30, lambda: f"{_pick(rng, GIVEN)} {_pick(rng, FAMILY)}"),
        (0.15, lambda: f"{_pick(rng, GIVEN)} {chr(65 + int(rng.integers(26)))}. {_pick(rng, FAMILY)}"),
        (0.10, lambda: f"{_pick(rng, TOWN_HEAD)}{_pick(rng, TOWN_TAIL)}, {_pick(rng, REGION)}"),
        (0.10, lambda: f"{_pick(rng, FAMILY)} & {_pick(rng, FAMILY)} {_pick(rng, ORG)}"),
        (0.15, lambda: f"{_pick(rng, ADJ)} {_pick(rng, NOUN)} ({1920 + int(rng.integers(100))} film)"),
        (0.10, lambda: f"St. {_pick(rng, GIVEN)}'s {_pick(rng, BUILDING)}"),
        (0.10, lambda: f"{_pick(rng, FAMILY)}-{_pick(rng, FAMILY)}"),
    )
    weights = np.array([w for w, _ in templates])
    choices = rng.choice(len(templates), size=n, p=weights / weights.sum())
    labels: list[str] = []
    seen: set[str] = set()
    for choice in choices:
        label = templates[choice][1]()
        if label in seen:
            suffix = 2
            while f"{label} ({suffix})" in seen:
                suffix += 1
            label = f"{label} ({suffix})"
        seen.add(label)
        labels.append(label)
    return labels


def relation_labels(rng: np.random.Generator, n: int) -> list[str]:
    """``n`` distinct Freebase-style ``domain.type.property`` relations."""
    total = len(DOMAINS) * len(TYPES) * len(PROPERTIES)
    if n > total:
        raise ValueError(f"at most {total} relations")
    codes = rng.choice(total, size=n, replace=False)
    out = []
    for code in codes:
        code, p = divmod(int(code), len(PROPERTIES))
        d, t = divmod(code, len(TYPES))
        out.append(f"{DOMAINS[d]}.{TYPES[t]}.{PROPERTIES[p]}")
    return out


def _pick(rng: np.random.Generator, words) -> str:
    return words[int(rng.integers(len(words)))]


@dataclass
class Graph:
    """Edges as an ``(m, 3)`` int array of (head, relation, tail) ids,
    sorted by head, with CSR offsets into it."""

    labels: list[str]
    relations: list[str]
    edges: np.ndarray
    offsets: np.ndarray

    @classmethod
    def from_edges(cls, labels, relations, heads, rels, tails) -> "Graph":
        n, r = len(labels), len(relations)
        keys = np.unique((heads.astype(np.int64) * r + rels) * n + tails)
        edges = np.stack([keys // (r * n), (keys // n) % r, keys % n], axis=1)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(edges[:, 0], minlength=n), out=offsets[1:])
        return cls(labels, relations, edges, offsets)

    def out_degree(self) -> np.ndarray:
        return np.diff(self.offsets)

    def out_edges(self, entity: int) -> np.ndarray:
        return self.edges[self.offsets[entity] : self.offsets[entity + 1]]


def uniform_graph(rng, n_entities: int, n_triples: int, n_relations: int) -> Graph:
    """Heads, relations and tails all drawn uniformly (out-degree ~ Poisson)."""
    labels = entity_labels(rng, n_entities)
    relations = relation_labels(rng, n_relations)
    heads = rng.integers(n_entities, size=n_triples)
    tails = (heads + 1 + rng.integers(n_entities - 1, size=n_triples)) % n_entities
    rels = rng.integers(n_relations, size=n_triples)
    return Graph.from_edges(labels, relations, heads, rels, tails)


def power_law_degrees(
    n_entities: int, n_triples: int, max_degree: int, exponent: float = 2.0, min_degree: int = 3
) -> np.ndarray:
    """Out-degrees ``c / rank**exponent`` clipped to ``[min_degree,
    max_degree]``, with ``c`` set so they sum to about ``n_triples``. The
    sequence is fixed; the seed only decides which entity gets which degree."""
    ranks = np.arange(1, n_entities + 1, dtype=np.float64) ** exponent

    def degrees(c: float) -> np.ndarray:
        return np.clip(np.round(c / ranks), min_degree, max_degree)

    lo, hi = 0.0, float(n_triples) * n_entities
    for _ in range(100):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if degrees(mid).sum() < n_triples else (lo, mid)
    return degrees(lo).astype(np.int64)


def power_law_graph(
    rng, n_entities: int, n_triples: int, n_relations: int, max_degree: int
) -> Graph:
    """Power-law out-degrees (real hubs); relations uniform.

    Each head's tails are a systematic sample over the other entities
    sorted by out-degree, started at a golden-ratio fraction of the head's
    own rank. Tails spread evenly over the entities, and a hub's tails hold
    the same mix of out-degrees for every seed, so the lookahead work behind
    a hub question, and with it the latency tail, varies little with the
    seed; the seed decides labels, relations and which entity has which
    out-degree."""
    labels = entity_labels(rng, n_entities)
    relations = relation_labels(rng, n_relations)
    degrees = power_law_degrees(n_entities, n_triples, max_degree)
    owner = rng.permutation(n_entities)  # owner[i] has the i-th largest out-degree
    rank = np.empty(n_entities, dtype=np.int64)
    rank[owner] = np.arange(n_entities)
    heads = np.repeat(owner, degrees)
    spacing = (n_entities - 1) / np.repeat(degrees, degrees)
    k = np.arange(heads.size) - np.repeat(np.cumsum(degrees) - degrees, degrees)
    start = np.repeat(np.arange(n_entities) * ((5**0.5 - 1) / 2) % 1.0, degrees)
    # Positions among the other n - 1 entities, skipping the head itself.
    position = ((start + k) * spacing).astype(np.int64)
    position += position >= rank[heads]
    tails = owner[position]
    rels = rng.integers(n_relations, size=heads.size)
    return Graph.from_edges(labels, relations, heads, rels, tails)


def _phrase(relation: str) -> str:
    return relation.rsplit(".", 1)[1].replace("_", " ")


def plant_questions(
    rng, graph: Graph, n_questions: int, depth: int, by_out_degree: bool, prefix: str
) -> list[dict]:
    """Questions answered by a ``depth``-hop walk from a topic entity.

    Topics are drawn uniformly among entities with out-edges, or in
    proportion to out-degree by systematic sampling over the entities sorted
    by degree, so each hub's share of the questions is the same for every
    seed. A topic with no fresh walk gives way to the next entity in the
    sampling order. The answers are all tails of the walk's last (entity,
    relation) hop, so some questions have several. Question texts are
    distinct.
    """
    degree = graph.out_degree()
    if by_out_degree:
        order = np.lexsort((rng.permutation(len(degree)), -degree))
        cumulative = np.cumsum(degree[order])
        spacing = cumulative[-1] / n_questions
        slots = rng.uniform(0, spacing) + spacing * np.arange(n_questions)
        positions = np.searchsorted(cumulative, slots, side="right")
    else:
        order = rng.permutation(np.flatnonzero(degree))
        positions = np.arange(n_questions)
    questions: list[dict] = []
    seen: set[str] = set()
    for position in positions:
        for topic in order[position:]:
            question = _fresh_question(rng, graph, degree, int(topic), depth, seen)
            if question is not None:
                question["id"] = f"{prefix}-{len(questions):04d}"
                questions.append(question)
                break
        else:
            raise ValueError(f"too few {depth}-hop walks for {n_questions} questions")
    return questions


def _fresh_question(rng, graph: Graph, degree, topic: int, depth: int, seen: set[str], tries: int = 20):
    for _ in range(tries):
        walk = _walk(rng, graph, degree, topic, depth)
        if walk is None:
            continue
        question = _question(graph, walk)
        if question["question"] not in seen:
            seen.add(question["question"])
            return question
    return None


def _walk(rng, graph: Graph, degree: np.ndarray, start: int, depth: int):
    steps = []
    current = start
    for hop in range(depth):
        out = graph.out_edges(current)
        if hop + 1 < depth:
            out = out[degree[out[:, 2]] > 0]
        if out.size == 0:
            return None
        _, relation, tail = out[int(rng.integers(len(out)))]
        steps.append((int(relation), int(tail)))
        current = int(tail)
    return start, steps


def _question(graph: Graph, walk) -> dict:
    start, steps = walk
    L, R = graph.labels, graph.relations
    last_head = steps[-2][1] if len(steps) > 1 else start
    last_rel = steps[-1][0]
    out = graph.out_edges(last_head)
    answers = [L[t] for t in out[out[:, 1] == last_rel][:, 2]]
    phrases = [_phrase(R[r]) for r, _ in steps]
    chain = " of the ".join(reversed(phrases))
    path = " -> ".join([L[start]] + [part for r, t in steps for part in (R[r], L[t])])
    return {
        "question": f"What is the {chain} of {L[start]}?",
        "answers": answers,
        "topic_entities": [L[start]],
        "ground_truth_paths": [path],
        "plan": {
            "keywords": phrases + [R[r] for r, _ in steps],
            "planning_steps": [f"Start from the entity {L[start]}."]
            + [f"Follow the relation {R[r]}." for r, _ in steps],
            "declarative_statement": f"The {chain} of {L[start]} is *placeholder*.",
        },
    }


def write_tsv(graph: Graph, path: Path) -> None:
    L, R = graph.labels, graph.relations
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{L[h]}\t{R[r]}\t{L[t]}\n" for h, r, t in graph.edges.tolist())


def write_dataset(questions: list[dict], dataset_path: Path, script_path: Path) -> None:
    """The dataset in ``load_dataset`` form and the answer key and plans in
    ``load_mock_script`` form."""
    with open(dataset_path, "w", encoding="utf-8", newline="\n") as fh:
        for q in questions:
            record = {k: q[k] for k in ("id", "question", "answers", "topic_entities", "ground_truth_paths")}
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    script = {q["question"]: {"answers": q["answers"], "plan": q["plan"]} for q in questions}
    with open(script_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(script, fh, sort_keys=True, indent=1)
        fh.write("\n")
