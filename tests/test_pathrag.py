import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgreason import embedding, pathrag
from kgreason.embedding import EmbeddingIndex, HashingEmbedder, build_index, cosine
from kgreason.kg import (
    KnowledgeGraph,
    ReasoningPath,
    ReasoningStep,
    load_triples,
    neighbors,
)
from kgreason.pathrag import (
    MODE_KAPING,
    MODE_VANILLA,
    RETRIEVER_MODES,
    RetrievalConfig,
    ScoreContext,
    ScoredCandidate,
    candidate_steps,
    coverage_ratio,
    retrieved_steps_along_path,
)


def load_fixture(name):
    with open(f"fixtures/{name}") as fh:
        return load_triples(fh)


def oracle_cosine(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def row(idx, kind, name):
    """The row of ``name`` in the index's ``kind`` ("entity" or "relation") matrix."""
    names, matrix = getattr(idx, f"{kind}_names"), getattr(idx, f"{kind}_matrix")
    return matrix[names.index(name)]


def oracle_candidate(g, idx, q, step, alpha):
    """Path-RAG's score of ``step`` by brute force: base plus alpha times the
    best base over every edge out of its entity."""

    def base(relation, entity):
        return 0.0 + oracle_cosine(q, row(idx, "relation", relation)) + oracle_cosine(
            q, row(idx, "entity", entity)
        )

    score = base(step.relation, step.entity)
    bonus = max((base(r, e) for r, e in sorted(neighbors(g, step.entity))), default=0.0)
    return ScoredCandidate(step, score, bonus, score + alpha * bonus)


def hand_index(g, entity_vecs, relation_vecs, dimension=2):
    """An index of ``g`` with the given rows; a name given none has a zero row."""

    def matrix(names, vecs):
        return np.array([vecs.get(name, [0.0] * dimension) for name in names], dtype=float).reshape(
            len(names), dimension
        )

    return EmbeddingIndex(
        "hand/1", dimension, g.entity_names, g.relation_names,
        matrix(g.entity_names, entity_vecs), matrix(g.relation_names, relation_vecs),
    )


def bound(g, idx, q, emb=None):
    """A score context of ``g`` and ``idx`` bound to the query vector ``q``."""
    context = ScoreContext(g, idx, emb or HashingEmbedder())
    context.bind_query(q)
    return context


def brute_force_candidates(g, idx, q, frontier, config):
    """Every step out of ``frontier`` scored by ``oracle_candidate``, fully
    sorted by (-total, relation, entity), head of m."""
    candidates = [
        oracle_candidate(g, idx, q, ReasoningStep(r, e), config.alpha)
        for r, e in sorted(neighbors(g, frontier))
    ]
    candidates.sort(key=lambda c: (-c.total_score, c.step.relation, c.step.entity))
    return candidates[: config.m]


def as_text(candidates):
    """Steps and the reprs of their scores, so that -0.0 differs from 0.0."""
    return [
        (c.step, repr(c.base_score), repr(c.lookahead_bonus), repr(c.total_score))
        for c in candidates
    ]


class CountingScores:
    """Patches ``pathrag.query_cosines`` and ``ScoreContext.rank``: ``batches``
    holds the rows of each batch of similarities, ``ranks`` the number of
    ``rank`` calls."""

    def __init__(self, monkeypatch):
        self.batches, self.ranks = [], 0
        real_cosines, real_rank = pathrag.query_cosines, ScoreContext.rank

        def counting_cosines(query, query_norm, rows, norms):
            self.batches.append(rows)
            return real_cosines(query, query_norm, rows, norms)

        def counting_rank(context, *args):
            self.ranks += 1
            return real_rank(context, *args)

        monkeypatch.setattr(pathrag, "query_cosines", counting_cosines)
        monkeypatch.setattr(ScoreContext, "rank", counting_rank)

    def entities(self, idx):
        """The entities of the rows scored after the first batch, which is the
        relations' (the index's rows are distinct), in the order scored."""
        by_row = {vec.tobytes(): name for name, vec in zip(idx.entity_names, idx.entity_matrix)}
        assert len(by_row) == len(idx.entity_names)
        return [by_row[vec.tobytes()] for rows in self.batches[1:] for vec in rows]

    def check_batches(self, idx):
        """One relation batch, the index's own matrix, then at most one entity
        batch per ``rank`` call, each entity once; the entities scored."""
        assert self.batches[0] is idx.relation_matrix
        assert len(self.batches) - 1 <= self.ranks
        scored = self.entities(idx)
        assert len(scored) == len(set(scored))
        return set(scored)


# --- config ----------------------------------------------------------------


def test_retrieval_config_validation():
    with pytest.raises(ValueError):
        RetrievalConfig(m=0)
    with pytest.raises(ValueError):
        RetrievalConfig(alpha=-0.1)
    for alpha in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            RetrievalConfig(alpha=alpha)
    with pytest.raises(ValueError):
        RetrievalConfig(mode="something-else")


# --- base score ------------------------------------------------------------


def candidate_for(g, idx, q, frontier, step, alpha=0.3, emb=None):
    """The candidate for ``step`` among those ranked out of ``frontier``."""
    ranked = candidate_steps(bound(g, idx, q, emb), frontier, RetrievalConfig(alpha=alpha))
    (cand,) = [c for c in ranked if c.step == step]
    return cand


def test_base_score_maximal_alignment_is_two():
    q = np.array([1.0, 0.0])
    g = KnowledgeGraph([("F", "r", "E")])
    idx = hand_index(g, {"E": [1.0, 0.0]}, {"r": [1.0, 0.0]})
    cand = candidate_for(g, idx, q, "F", ReasoningStep("r", "E"))
    assert cand.base_score == pytest.approx(2.0, abs=1e-12)


def test_zero_rows_are_reported_once_per_graph_and_index(caplog):
    """Zero rows score 0.0 in every ranking, but only their first context
    of a (graph, index) pair warns, naming how many rows of each kind are
    zero; a zero query still warns on its own."""
    g = KnowledgeGraph([("S", "r", "A"), ("S", "r", "Z"), ("A", "q", "Z"), ("Z", "z", "A")])
    idx = hand_index(g, {"S": [1.0, 0.0], "A": [0.0, 1.0]}, {"r": [1.0, 1.0], "q": [1.0, 0.0]})
    config = RetrievalConfig(m=5)
    with caplog.at_level(logging.WARNING, logger="kgreason"):
        for x in range(1, 30):
            context = bound(g, idx, np.array([1.0, x / 10]))
            context.rank(["S", "A", "Z"], config.m, config.alpha)
            scored = {c.step.entity: c.base_score for c in candidate_steps(context, "S", config)}
            assert scored["Z"] == pytest.approx(oracle_cosine(np.array([1.0, x / 10]), [1.0, 1.0]))
        messages = [r.getMessage() for r in caplog.records]
        assert messages == [
            "index has 1 zero-norm entity rows and 1 zero-norm relation rows;"
            " their cosines are defined as 0.0"
        ]
        bound(g, idx, np.zeros(2))
        assert [r.getMessage() for r in caplog.records][1:] == [
            "cosine of a zero-norm query vector defined as 0.0"
        ]


def test_base_score_orthogonal_is_zero():
    q = np.array([1.0, 0.0])
    g = KnowledgeGraph([("F", "r", "E")])
    idx = hand_index(g, {"E": [0.0, 1.0]}, {"r": [0.0, 1.0]})
    assert candidate_for(g, idx, q, "F", ReasoningStep("r", "E")).base_score == 0.0


def test_base_score_fixture_value_matches_oracle():
    g = load_fixture("iran.tsv")
    emb = HashingEmbedder()
    idx = build_index(g, emb)
    q = emb.embed("Iran government")
    step = ReasoningStep("location.country.form_of_government", "Theocracy")
    expected = oracle_cosine(q, row(idx, "relation", step.relation)) + oracle_cosine(
        q, row(idx, "entity", step.entity)
    )
    got = candidate_for(g, idx, q, "Iran", step, emb=emb).base_score
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.2672612419124244, abs=1e-12)


# --- lookahead scoring -------------------------------------------------------


def test_alpha_zero_reduces_to_base_score():
    g = load_fixture("iran.tsv")
    emb = HashingEmbedder()
    idx = build_index(g, emb)
    q = emb.embed("Iran government")
    step = ReasoningStep("finance.currency.countries_used", "Iran")
    cand = candidate_for(g, idx, q, "Iranian_rial", step, alpha=0.0, emb=emb)
    assert cand.total_score == cand.base_score
    assert cand.lookahead_bonus > 0  # Iran has outgoing edges; only the weight is off


def test_leaf_entity_gets_zero_bonus():
    g = load_fixture("iran.tsv")
    emb = HashingEmbedder()
    idx = build_index(g, emb)
    q = emb.embed("Iran government")
    step = ReasoningStep("location.country.form_of_government", "Theocracy")
    cand = candidate_for(g, idx, q, "Iran", step, emb=emb)
    assert cand.lookahead_bonus == 0.0
    assert cand.total_score == cand.base_score


def test_lookahead_rescues_promising_intermediate():
    """Chain F -> B -> C where B itself is dull but C matches the query;
    a dead-end sibling D with the same dull base score must rank below B."""
    g = KnowledgeGraph(
        [("F", "r", "B"), ("F", "r", "D"), ("B", "r2", "C")]
    )
    q = np.array([1.0, 0.0])
    idx = hand_index(
        g,
        {"F": [0.0, 1.0], "B": [0.0, 1.0], "D": [0.0, 1.0], "C": [1.0, 0.0]},
        {"r": [0.0, 1.0], "r2": [0.0, 1.0]},
    )
    into_b = candidate_for(g, idx, q, "F", ReasoningStep("r", "B"))
    into_d = candidate_for(g, idx, q, "F", ReasoningStep("r", "D"))
    assert into_b.base_score == into_d.base_score == 0.0
    assert into_b.lookahead_bonus == pytest.approx(1.0, abs=1e-12)
    assert into_b.total_score == pytest.approx(0.3, abs=1e-12)
    assert into_d.total_score == 0.0
    assert into_b.total_score > into_d.total_score


def test_hub_lookahead_is_the_max_over_every_onward_pair():
    """300 pairs out of hub H; the best one has the least query-aligned
    relation, so a max over the best-aligned relations alone would miss it."""
    q = np.array([1.0, 0.0])
    triples = [("F", "r", "H"), ("H", "r_least", "E_best")]
    relation_vecs = {"r": [0.0, 1.0], "r_least": [-1.0, 0.0]}
    entity_vecs = {"F": [0.0, 1.0], "H": [0.0, 1.0], "E_best": [1.0, 0.0]}
    for i in range(299):
        angle = 0.45 + 1.6 * i / 299  # relation cosines from 0.90 down to -0.46
        relation_vecs[f"r{i:03d}"] = [np.cos(angle), np.sin(angle)]
        entity_vecs[f"e{i:03d}"] = [-1.0, 0.0]
        triples.append(("H", f"r{i:03d}", f"e{i:03d}"))
    g = KnowledgeGraph(triples)
    idx = hand_index(g, entity_vecs, relation_vecs)
    onward = sorted(neighbors(g, "H"))
    assert len(onward) == 300
    brute = max(
        0.0 + oracle_cosine(q, row(idx, "relation", r)) + oracle_cosine(q, row(idx, "entity", e))
        for r, e in onward
    )
    assert brute == 0.0  # (r_least, E_best): -1 + 1; every other pair scores below -0.09
    assert candidate_for(g, idx, q, "F", ReasoningStep("r", "H")).lookahead_bonus == brute


def test_candidate_steps_computes_each_cosine_once(monkeypatch):
    """A and B share their onward pairs; each identifier is scored once, in
    one batch per vocabulary."""
    g = KnowledgeGraph(
        [
            ("F", "r", "A"),
            ("F", "r", "B"),
            ("F", "s", "C"),
            ("A", "t", "X"),
            ("A", "u", "Y"),
            ("B", "t", "X"),
            ("B", "u", "Y"),
            ("C", "t", "Z"),
        ]
    )
    rng = np.random.default_rng(3)
    idx = hand_index(
        g,
        {name: rng.standard_normal(2) for name in "ABCFXYZ"},
        {name: rng.standard_normal(2) for name in "rstu"},
    )
    q = np.array([0.6, 0.8])
    expected = {
        step: oracle_candidate(g, idx, q, step, 0.3)
        for step in (ReasoningStep("r", "A"), ReasoningStep("r", "B"), ReasoningStep("s", "C"))
    }
    counting = CountingScores(monkeypatch)
    got = candidate_steps(bound(g, idx, q), "F", RetrievalConfig())
    assert {c.step: c for c in got} == expected
    # every relation in one batch, then the entities of the three steps and
    # of their onward steps (A and B share theirs) in one batch, each once
    assert counting.ranks == 1 and len(counting.batches) == 2
    assert counting.check_batches(idx) == set("ABCXYZ")


def test_hub_frontier_scores_a_few_dozen_identifiers_exactly(monkeypatch):
    """300 steps out of hub H, each to an entity with two onward steps: the
    top m equal a full sort of the oracle, and the entities are scored in
    one batch, each once."""
    rng = np.random.default_rng(11)
    triples = [("H", f"r{i % 3}", f"n{i:03d}") for i in range(300)]
    triples += [
        (f"n{i:03d}", f"s{j}", f"leaf{rng.integers(60):02d}")
        for i in range(300)
        for j in range(2)
    ]
    g = KnowledgeGraph(triples)
    idx = hand_index(
        g,
        {name: rng.standard_normal(16) for name in sorted(g.entities)},
        {name: rng.standard_normal(16) for name in sorted(g.relations)},
        dimension=16,
    )
    q = rng.standard_normal(16)
    config = RetrievalConfig()
    expected = brute_force_candidates(g, idx, q, "H", config)
    counting = CountingScores(monkeypatch)
    assert candidate_steps(bound(g, idx, q), "H", config) == expected
    reached = {e for _, e in neighbors(g, "H")} | {e for n in g.entities if n != "H" for _, e in neighbors(g, n)}
    assert counting.check_batches(idx) == reached


def test_narrow_frontier_scores_only_onward_steps_that_can_give_a_bonus(monkeypatch):
    """5 steps out of F, fewer than m, each to an entity with 20 onward
    steps: the candidates equal the oracle's, and the steps' and onward
    steps' entities are scored in one batch, each once."""
    rng = np.random.default_rng(5)
    triples = [("F", f"r{i}", f"n{i}") for i in range(5)]
    triples += [(f"n{i}", f"s{j:02d}", f"t{i}.{j:02d}") for i in range(5) for j in range(20)]
    g = KnowledgeGraph(triples)
    idx = hand_index(
        g,
        {name: rng.standard_normal(16) for name in sorted(g.entities)},
        {name: rng.standard_normal(16) for name in sorted(g.relations)},
        dimension=16,
    )
    q = rng.standard_normal(16)
    config = RetrievalConfig(m=10)
    expected = brute_force_candidates(g, idx, q, "F", config)
    counting = CountingScores(monkeypatch)
    assert candidate_steps(bound(g, idx, q), "F", config) == expected
    assert counting.check_batches(idx) == set(g.entities) - {"F"}


def test_alpha_that_overflows_the_totals_still_ranks_like_the_oracle():
    """Both steps total +inf with alpha 1e308; the one kept is the first by
    name, as a full sort of the oracle gives."""
    g = KnowledgeGraph(
        [("F", "r", "A"), ("F", "r", "B"), ("A", "s", "C"), ("B", "s", "C")]
    )
    idx = hand_index(g, {name: [1.0, 0.0] for name in "FABC"}, {"r": [1.0, 0.0], "s": [1.0, 0.0]})
    q = np.array([1.0, 0.0])
    config = RetrievalConfig(m=1, alpha=1e308)
    got = candidate_steps(bound(g, idx, q), "F", config)
    assert got == brute_force_candidates(g, idx, q, "F", config)
    assert [c.step.entity for c in got] == ["A"]


def test_graph_and_index_are_aligned_once_per_pair(monkeypatch):
    g = load_fixture("combined.tsv")
    emb = HashingEmbedder()
    idx = build_index(g, emb)
    checks = []
    real_check = pathrag.check_index
    monkeypatch.setattr(pathrag, "check_index", lambda *pair: checks.append(pair) or real_check(*pair))
    counting = CountingScores(monkeypatch)
    contexts = [bound(g, idx, emb.embed(text), emb) for text in ("ex wife father", "father")]
    assert checks == [(g, idx)]
    bound(load_fixture("combined.tsv"), idx, emb.embed("father"), emb)
    assert len(checks) == 2  # another graph, even one with the same names
    for context in contexts:
        candidate_steps(context, "Justin_Bieber", RetrievalConfig())
    # the index's own relation matrix on each binding, then rows of its entity matrix
    relation_batches, entity_batches = counting.batches[:3], counting.batches[3:]
    assert all(rows is idx.relation_matrix for rows in relation_batches)
    assert len(entity_batches) == counting.ranks == 2
    entity_rows = {vec.tobytes() for vec in idx.entity_matrix}
    assert all(vec.tobytes() in entity_rows for rows in entity_batches for vec in rows)


def test_score_context_refuses_an_index_of_another_graph():
    g = load_fixture("combined.tsv")
    emb = HashingEmbedder()
    with pytest.raises(ValueError, match="entity names are not the graph's"):
        ScoreContext(g, build_index(load_fixture("iran.tsv"), emb), emb)
    extra = KnowledgeGraph([*g.edges(), ("Justin_Bieber", "new_relation", "Erin_Wagner")])
    with pytest.raises(ValueError, match=r"relation names are not the graph's: 1 .* \['new_relation'\]"):
        ScoreContext(extra, build_index(g, emb), emb)


VECTOR_KINDS = st.sampled_from(["pool"] * 30 + ["zero", "missing", "tiny"])
SCALES = st.sampled_from([1.0, 3.0, 0.1, 5.0, 7.0, 11.0, 1e3])


@st.composite
def wide_frontiers(draw):
    """A graph whose frontier F has more steps than m; an index of 3-d
    vectors drawn as scaled copies of a small pool, so that exact ties and
    ties up to rounding are common, plus zero rows (also for names drawn as
    missing) and rows with a subnormal squared norm; a query, possibly zero;
    and a config, whose alpha may be large enough to overflow a total."""
    m = draw(st.integers(min_value=1, max_value=5))
    entities = [f"e{i}" for i in range(draw(st.integers(min_value=6, max_value=14)))]
    relations = [f"r{i}" for i in range(draw(st.integers(min_value=1, max_value=3)))]
    steps = draw(
        st.lists(
            st.tuples(st.sampled_from(relations), st.sampled_from(entities)),
            min_size=m + 1, max_size=m + 10, unique=True,
        )
    )
    triples = [("F", r, e) for r, e in steps]
    for entity in draw(st.lists(st.sampled_from(entities), max_size=4, unique=True)):
        onward = draw(
            st.lists(
                st.tuples(st.sampled_from(relations), st.sampled_from(entities + ["F"])),
                min_size=1, max_size=6,
            )
        )
        triples += [(entity, r, t) for r, t in onward]
    # generic components: small integers would make most cosines exact
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    pool = rng.uniform(-4, 4, (draw(st.integers(min_value=1, max_value=2)), 3)).tolist()
    rows = {"zero": [0.0, -0.0, 0.0], "tiny": [1e-160, 0.0, 0.0]}

    def vectors(names):
        drawn = {}
        for name in names:
            kind = draw(VECTOR_KINDS)
            if kind == "pool":
                # scaled copies share a true cosine but round differently
                scale = draw(SCALES)
                drawn[name] = [scale * x for x in draw(st.sampled_from(pool))]
            elif kind != "missing":
                drawn[name] = rows[kind]
        return drawn

    entity_vecs, relation_vecs = vectors(["F"] + entities), vectors(relations)
    query = draw(st.sampled_from(pool + [rng.uniform(-4, 4, 3).tolist(), [0.0, 0.0, 0.0]]))
    config = RetrievalConfig(m=m, alpha=draw(st.sampled_from([0.0, 0.3, 1.0, 2.5, 1e308])))
    g = KnowledgeGraph(triples)
    return g, hand_index(g, entity_vecs, relation_vecs, dimension=3), np.array(query), config


@settings(max_examples=200, deadline=None)
@given(wide_frontiers())
def test_wide_frontier_equals_a_full_sort_of_the_oracle(drawn):
    g, idx, q, config = drawn
    expected = brute_force_candidates(g, idx, q, "F", config)
    got = candidate_steps(bound(g, idx, q), "F", config)
    assert as_text(got) == as_text(expected)
    assert got == expected


def test_wide_frontier_bonus_is_exact_when_onward_steps_tie_up_to_rounding():
    """n0's twelve onward steps lead to scaled copies of one vector, so their
    bases are equal up to rounding, which approximate and exact cosines
    round differently; n0 ranks first on a frontier wider than m and its
    bonus must still be the exact maximum."""
    scales = [1.0, 3.0, 0.1, 7.0, 1e3, 5.0, 11.0, 13.0, 0.3, 17.0, 19.0, 23.0]
    triples = [("F", "r", f"n{i}") for i in range(3)]
    triples += [("n0", "s", f"t{i:02d}") for i in range(len(scales))]
    g = KnowledgeGraph(triples)
    step = ReasoningStep("r", "n0")
    for seed in range(100):
        rng = np.random.default_rng(seed)
        v, q = rng.uniform(-4, 4, 3), rng.uniform(-4, 4, 3)
        entity_vecs = {f"t{i:02d}": v * scale for i, scale in enumerate(scales)}
        entity_vecs.update(n0=q, n1=-q, n2=-q)
        idx = hand_index(g, entity_vecs, {"r": rng.uniform(-4, 4, 3), "s": rng.uniform(-4, 4, 3)}, dimension=3)
        got = candidate_steps(bound(g, idx, q), "F", RetrievalConfig(m=2))
        assert got[0] == oracle_candidate(g, idx, q, step, 0.3)


def test_score_context_binds_one_query_once():
    g = load_fixture("iran.tsv")
    emb = HashingEmbedder()
    idx = build_index(g, emb)
    gt = ReasoningPath.from_arrow("Iranian_rial -> finance.currency.countries_used -> Iran")
    unbound = ScoreContext(g, idx, emb)
    for mode in RETRIEVER_MODES:
        with pytest.raises(ValueError, match="no query bound"):
            candidate_steps(unbound, "Iran", RetrievalConfig(mode=mode))
        with pytest.raises(ValueError, match="no query bound"):
            retrieved_steps_along_path(unbound, gt, RetrievalConfig(mode=mode))
    by_text = ScoreContext(g, idx, emb)
    q = by_text.bind_query("Iran government")
    assert q.tobytes() == emb.embed("Iran government").tobytes()
    assert by_text.query_vec is q
    by_vector = bound(g, idx, emb.embed("Iran government"), emb)
    assert candidate_steps(by_text, "Iran", RetrievalConfig()) == candidate_steps(
        by_vector, "Iran", RetrievalConfig()
    )
    for query in ("Iran government", "ex wife father", q):
        with pytest.raises(ValueError, match="already bound"):
            by_text.bind_query(query)


def test_rank_before_a_query_is_bound_is_refused():
    g = load_fixture("iran.tsv")
    emb = HashingEmbedder()
    with pytest.raises(ValueError, match="no query bound"):
        ScoreContext(g, build_index(g, emb), emb).rank(["Iran"], 10, 0.3)


@pytest.mark.parametrize("query", [
    [float("nan")] + [0.0] * 63,
    [1.0] * 63 + [float("-inf")],
    [1.0] * 63,  # another dimension
    [[1.0] * 64],  # not a vector
], ids=["nan", "inf", "dimension", "2-d"])
def test_score_context_refuses_a_query_it_cannot_score(query):
    g = load_fixture("iran.tsv")
    emb = HashingEmbedder()
    context = ScoreContext(g, build_index(g, emb), emb)
    with pytest.raises(ValueError):
        context.bind_query(np.array(query))
    with pytest.raises(ValueError, match="no query bound"):
        context.query_vec
    # a strided query is bound as a contiguous copy, and scores as one
    strided = np.stack([emb.embed("Iran government")] * 2, axis=1)[:, 0]
    assert not strided.flags.c_contiguous
    assert context.bind_query(strided).flags.c_contiguous
    expected = candidate_steps(bound(g, context.idx, emb.embed("Iran government"), emb), "Iran", RetrievalConfig())
    assert candidate_steps(context, "Iran", RetrievalConfig()) == expected


def test_shared_context_scores_like_private_ones():
    g = load_fixture("combined.tsv")
    emb = HashingEmbedder()
    idx = build_index(g, emb)
    q = emb.embed("ex wife father")
    for mode in (MODE_VANILLA, MODE_KAPING, "path-rag"):
        config = RetrievalConfig(mode=mode)
        context = bound(g, idx, q, emb)
        for frontier in sorted(g.entities) * 2:
            shared = candidate_steps(context, frontier, config)
            assert shared == candidate_steps(bound(g, idx, q, emb), frontier, config)


def test_candidates_never_fabricated_and_match_eq2():
    g = load_fixture("iran.tsv")
    emb = HashingEmbedder()
    idx = build_index(g, emb)
    q = emb.embed("Iran government")
    got = candidate_steps(bound(g, idx, q, emb), "Iran", RetrievalConfig())
    assert {c.step for c in got} == {
        ReasoningStep("location.country.form_of_government", "Islamic_republic"),
        ReasoningStep("location.country.form_of_government", "Theocracy"),
        ReasoningStep("location.country.form_of_government", "Unitary_state"),
    }
    scores = [c.total_score for c in got]
    assert scores == sorted(scores, reverse=True)
    for cand in got:
        expected = oracle_cosine(q, row(idx, "relation", cand.step.relation)) + oracle_cosine(
            q, row(idx, "entity", cand.step.entity)
        )
        assert cand.total_score == pytest.approx(expected, abs=1e-12)  # all leaves


def test_candidates_empty_frontier():
    g = load_fixture("iran.tsv")
    emb = HashingEmbedder()
    idx = build_index(g, emb)
    assert candidate_steps(bound(g, idx, emb.embed("x"), emb), "Theocracy", RetrievalConfig()) == []


def test_candidates_m1_is_head_of_full_ranking():
    g = load_fixture("iran.tsv")
    emb = HashingEmbedder()
    idx = build_index(g, emb)
    q = emb.embed("Iran government")
    full = candidate_steps(bound(g, idx, q, emb), "Iran", RetrievalConfig(m=10))
    head = candidate_steps(bound(g, idx, q, emb), "Iran", RetrievalConfig(m=1))
    assert head == full[:1]


def test_vanilla_mode_scores_concatenated_step_text():
    g = load_fixture("iran.tsv")
    emb = HashingEmbedder()
    idx = build_index(g, emb)
    q = emb.embed("Iran government")
    got = candidate_steps(bound(g, idx, q, emb), "Iran", RetrievalConfig(mode=MODE_VANILLA))
    for cand in got:
        expected = oracle_cosine(
            q, emb.embed(f"{cand.step.relation} {cand.step.entity}")
        )
        assert cand.total_score == pytest.approx(expected, abs=1e-12)
        assert cand.lookahead_bonus == 0.0


# --- triple-to-text retrieval ---------------------------------------------------


def test_kaping_mode_identical_triple_text_scores_one():
    """KAPING ranks a frontier's triples as ``head relation tail`` texts, so
    a query that is one of them scores it 1."""
    g = load_fixture("iran.tsv")
    emb = HashingEmbedder()
    q = emb.embed("Iranian_rial finance.currency.countries_used Iran")
    got = candidate_steps(bound(g, build_index(g, emb), q, emb), "Iranian_rial", RetrievalConfig(mode=MODE_KAPING))
    assert got[0].step == ReasoningStep("finance.currency.countries_used", "Iran")
    assert got[0].total_score == pytest.approx(1.0, abs=1e-12)


def scalar_candidate_steps(context, frontier_entity, config):
    """The vanilla and kaping branch of ``candidate_steps`` as it was when it
    embedded one text at a time and scored it with the scalar ``cosine``:
    the oracle of the batched branch."""
    candidates = []
    for relation, entity in context.g.steps(frontier_entity):
        text = f"{relation} {entity}"
        if config.mode == MODE_KAPING:
            text = f"{frontier_entity} {text}"
        score = cosine(context.query_vec, context.emb.embed(text))
        candidates.append(ScoredCandidate(ReasoningStep(relation, entity), score, 0.0, score))
    candidates.sort(key=lambda c: (-c.total_score, c.step.relation, c.step.entity))
    return candidates[: config.m]


# Labels with commas, spaces and non-ASCII. "Alma Thorne" and "Anton Dunmore"
# embed to zero rows at d=64, and so does a text that joins "Alma" and
# "Thorne"; labels that differ only in case or separators embed alike, so
# their texts tie.
TEXT_LABELS = [
    "Alma", "Thorne", "Alma Thorne", "Anton Dunmore", "Washington, D.C.", "washington_d.c",
    "S\u00e3o Paulo", "s\u00e3o paulo", "Z\u00fcrich", "\u65e5\u672c", "b c", "B_C", "r",
]


@st.composite
def text_graphs(draw):
    """A graph of drawn labels around a frontier, the frontier, a query
    (a label text's vector, random or zero) and m."""
    labels = st.sampled_from(TEXT_LABELS)
    frontier = draw(labels)
    steps = draw(st.lists(st.tuples(labels, labels), min_size=1, max_size=12, unique=True))
    others = draw(st.lists(st.tuples(labels, labels, labels), max_size=12))
    g = KnowledgeGraph([(frontier, relation, entity) for relation, entity in steps] + others)
    kind = draw(st.sampled_from(["text", "random", "zero"]))
    if kind == "text":
        query = HashingEmbedder().embed(" ".join(draw(st.lists(labels, min_size=1, max_size=3))))
    else:
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
        query = rng.standard_normal(64) if kind == "random" else np.zeros(64)
    return g, frontier, query, draw(st.integers(min_value=1, max_value=15))


def assert_text_retrieval_is_the_scalar_loop(g, frontier, q, m):
    emb = HashingEmbedder()
    idx = build_index(g, emb)
    for mode in (MODE_VANILLA, MODE_KAPING):
        config = RetrievalConfig(m=m, mode=mode)
        context = bound(g, idx, q, emb)
        assert as_text(candidate_steps(context, frontier, config)) == as_text(
            scalar_candidate_steps(context, frontier, config)
        )


@settings(max_examples=150, deadline=None)
@given(text_graphs(), st.sampled_from([1, 2, 3, 5]))
def test_batched_text_retrieval_is_the_scalar_loop_bit_for_bit(drawn, chunk):
    """Steps in the same order, with the same score bits, as the
    one-text-at-a-time loop, in chunks smaller than the texts."""
    with mock.patch.object(embedding, "TEXT_CHUNK", chunk):
        assert_text_retrieval_is_the_scalar_loop(*drawn)


@pytest.mark.parametrize("m", [10, 1000])
def test_batched_text_retrieval_across_a_chunk_is_the_scalar_loop(m):
    """A frontier with more steps than one chunk of ``TEXT_CHUNK`` texts."""
    n = embedding.TEXT_CHUNK + 3
    labels = TEXT_LABELS
    g = KnowledgeGraph(
        [("Hub", labels[i % len(labels)], f"{labels[i * 7 % len(labels)]} {i % 50}") for i in range(n)]
        + [(labels[i % len(labels)], "r", "Hub") for i in range(n)]
    )
    assert len(g.steps("Hub")) > embedding.TEXT_CHUNK
    assert_text_retrieval_is_the_scalar_loop(g, "Hub", HashingEmbedder().embed("Alma Washington 7"), m)


def test_text_scores_refuse_a_query_of_another_dimension():
    with pytest.raises(ValueError, match="dimension mismatch"):
        embedding.text_cosines(HashingEmbedder(), np.ones(63), ["Iran Theocracy"])


# --- coverage ratio -------------------------------------------------------------


GT = ReasoningPath(
    "Justin_Bieber",
    (
        ReasoningStep("people.person.father", "Jeremy_Bieber"),
        ReasoningStep("people.married_to.person", "Erin_Wagner"),
    ),
)


def test_coverage_full_containment():
    retrieved = [{GT.steps[0]}, {GT.steps[1]}]
    assert coverage_ratio(retrieved, GT) == 1.0


def test_coverage_disjoint_sets():
    noise = ReasoningStep("noise.rel", "Nobody")
    assert coverage_ratio([{noise}, {noise}], GT) == 0.0


def test_coverage_first_hop_only_is_half():
    noise = ReasoningStep("noise.rel", "Nobody")
    assert coverage_ratio([{GT.steps[0]}, {noise}], GT) == 0.5


def test_retrieved_steps_along_path_per_mode():
    g = load_fixture("bieber.tsv")
    emb = HashingEmbedder()
    idx = build_index(g, emb)
    q = emb.embed("ex wife father")
    per_hop = retrieved_steps_along_path(bound(g, idx, q, emb), GT, RetrievalConfig())
    assert len(per_hop) == 2
    assert GT.steps[0] in per_hop[0]
    assert GT.steps[1] in per_hop[1]
    config = RetrievalConfig(mode=MODE_KAPING, m=2)
    kaping_hops = retrieved_steps_along_path(bound(g, idx, q, emb), GT, config)
    # each hop's set is what the search's retriever gives that hop's frontier
    assert kaping_hops == [
        {c.step for c in candidate_steps(bound(g, idx, q, emb), frontier, config)}
        for frontier in ("Justin_Bieber", "Jeremy_Bieber")
    ]
    assert kaping_hops[0] != kaping_hops[1]
