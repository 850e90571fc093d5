import hashlib
import json
import logging
import re
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgreason.embedding import (
    TEXT_CHUNK,
    EmbedderError,
    HashingEmbedder,
    build_index,
    cosine,
    load_index,
    norm,
    query_cosine,
    query_cosines,
    row_norms,
    save_index,
    top_m_entities,
    top_m_relations,
)
from kgreason.kg import KnowledgeGraph, load_triples


def load_fixture(name):
    with open(f"fixtures/{name}") as fh:
        return load_triples(fh)


def brute_force_rank(names, matrix, query, m):
    """Independent oracle: full sort by (-cosine, id), head of m."""
    scored = []
    for identifier, vec in zip(names, matrix):
        qn = np.linalg.norm(query)
        vn = np.linalg.norm(vec)
        score = 0.0 if qn == 0 or vn == 0 else float(np.dot(query, vec) / (qn * vn))
        scored.append((identifier, max(-1.0, min(1.0, score))))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:m]


# --- index construction -------------------------------------------------------


def test_iran_index_vocabulary_counts():
    idx = build_index(load_fixture("iran.tsv"), HashingEmbedder())
    assert len(idx.entity_names) == len(idx.entity_matrix) == 6
    assert len(idx.relation_names) == len(idx.relation_matrix) == 2
    assert idx.dimension == 64
    assert idx.fingerprint == "hashing-embedder/1 d=64"


def test_entity_only_graph_has_no_relation_vectors():
    g = KnowledgeGraph(entities=["A", "B"])
    idx = build_index(g, HashingEmbedder())
    assert len(idx.entity_names) == 2
    assert idx.relation_names == () and idx.relation_matrix.shape == (0, 64)


def test_empty_graph_rejected():
    with pytest.raises(ValueError):
        build_index(KnowledgeGraph(), HashingEmbedder())


def test_rebuild_is_byte_identical():
    g = load_fixture("iran.tsv")
    a = build_index(g, HashingEmbedder())
    b = build_index(g, HashingEmbedder())
    assert (a.entity_names, a.relation_names) == (b.entity_names, b.relation_names)
    assert a.entity_matrix.tobytes() == b.entity_matrix.tobytes()
    assert a.relation_matrix.tobytes() == b.relation_matrix.tobytes()


def test_indexes_compare_by_identity():
    g = load_fixture("iran.tsv")
    a, b = build_index(g, HashingEmbedder()), build_index(g, HashingEmbedder())
    assert a == a and a != b
    assert len({a, b}) == 2


class ExplodingEmbedder:
    fingerprint = "exploding/1"

    def embed(self, text):
        raise RuntimeError("boom")

    def embed_many(self, texts):
        raise RuntimeError("boom")


def test_embedder_failure_propagates_unchanged():
    with pytest.raises(RuntimeError, match="^boom$") as exc:
        build_index(load_fixture("iran.tsv"), ExplodingEmbedder())
    assert type(exc.value) is RuntimeError


BUILD_ORDER = ("a", "b", "c", "d", "r", "s")  # entities, then relations
# how a faulty embedder damages an identifier's row; build_index refuses each
# as non-finite components
FAULTS = {
    "inf": lambda v: np.where(np.arange(len(v)) == 5, np.inf, v),
    "-inf": lambda v: np.where(np.arange(len(v)) == 0, -np.inf, v),
    "nan": lambda v: np.full(len(v), np.nan),
}


class FaultyEmbedder:
    """``HashingEmbedder``, except for the rows of the identifiers given a
    fault kind."""

    fingerprint = "faulty/1"

    def __init__(self, faults):
        self.faults, self.inner = faults, HashingEmbedder()

    def embed(self, text):
        return self.embed_many([text])[0]

    def embed_many(self, texts):
        matrix = self.inner.embed_many(texts)
        for i, text in enumerate(texts):
            if text in self.faults:
                matrix[i] = FAULTS[self.faults[text]](matrix[i])
        return matrix


def build_faulty_index(faults):
    g = KnowledgeGraph([("a", "r", "b"), ("c", "s", "d")])
    assert g.entity_names + g.relation_names == BUILD_ORDER
    with pytest.raises(EmbedderError) as exc:
        build_index(g, FaultyEmbedder(faults))
    return exc.value


@pytest.mark.parametrize("identifier", ["a", "d", "s"])
def test_build_index_names_a_non_finite_vector(identifier):
    error = build_faulty_index({identifier: "inf"})
    assert error.identifier == identifier
    assert str(error) == f"embedding failed for {identifier!r}: non-finite components"


@pytest.mark.parametrize("first,second", [(f, s) for f in FAULTS for s in FAULTS if f != s])
def test_build_index_names_the_first_of_two_failures_of_different_kinds(first, second):
    error = build_faulty_index({"b": first, "r": second})
    assert error.identifier == "b"
    assert str(error) == "embedding failed for 'b': non-finite components"


# --- cosine -------------------------------------------------------------------


def test_cosine_identity():
    v = np.array([0.3, -1.2, 4.0])
    assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)


def test_cosine_orthogonal():
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_cosine_hand_arithmetic():
    got = cosine(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
    assert got == pytest.approx(0.9746318461970762, abs=1e-9)


def test_cosine_zero_vector_scores_zero_with_warning(caplog):
    with caplog.at_level(logging.WARNING):
        got = cosine(np.zeros(3), np.array([1.0, 2.0, 3.0]))
    assert got == 0.0
    assert any("zero" in rec.message.lower() for rec in caplog.records)


vectors = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False),
    min_size=4,
    max_size=4,
)


@given(vectors, vectors)
def test_cosine_bounded_and_symmetric(a, b):
    va, vb = np.array(a), np.array(b)
    s = cosine(va, vb)
    assert -1.0 <= s <= 1.0
    assert s == pytest.approx(cosine(vb, va), abs=1e-12)


def linalg_cosine(a, b):
    """``cosine`` as written with ``np.linalg.norm`` for both operands."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return min(max(float(np.dot(a, b) / (na * nb)), -1.0), 1.0)


EDGE_VALUES = st.floats(allow_nan=False, allow_infinity=False, width=64) | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2250738585072009e-308, 1e-160, 1.7976931348623157e308, -1e154]
)


@settings(max_examples=300)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda d: st.tuples(
            st.lists(EDGE_VALUES, min_size=d, max_size=d) | st.just([0.0] * d),
            st.lists(
                st.lists(EDGE_VALUES, min_size=d, max_size=d) | st.just([-0.0] * d),
                min_size=1, max_size=4,
            ),
        )
    )
)
def test_query_cosine_is_bit_identical_to_cosine(drawn):
    query, rows = np.array(drawn[0]), [np.array(row) for row in drawn[1]]
    with np.errstate(all="ignore"):
        query_norm = norm(query)
        assert struct.pack("<d", query_norm) == struct.pack("<d", np.linalg.norm(query))
        for vec in rows:
            expected = struct.pack("<d", linalg_cosine(query, vec))
            assert struct.pack("<d", query_cosine(query, query_norm, vec)) == expected
            assert struct.pack("<d", cosine(query, vec)) == expected


def test_query_cosine_refuses_another_dimension():
    with pytest.raises(ValueError):
        query_cosine(np.ones(3), 3.0**0.5, np.ones(2))


# --- hashing embedder ---------------------------------------------------------


def test_hashing_embedder_unit_norm_and_determinism():
    emb = HashingEmbedder()
    v1 = emb.embed("location.country.form_of_government")
    v2 = emb.embed("location.country.form_of_government")
    assert v1.tobytes() == v2.tobytes()
    assert np.linalg.norm(v1) == pytest.approx(1.0, abs=1e-12)


def test_hashing_embedder_case_and_separator_insensitive():
    emb = HashingEmbedder()
    assert emb.embed("Erin_Wagner").tobytes() == emb.embed("erin wagner").tobytes()


def test_hashing_embedder_tokenless_text_is_zero():
    emb = HashingEmbedder()
    assert np.linalg.norm(emb.embed("!!! ???")) == 0.0


@given(st.text(max_size=30))
def test_hashing_embedder_norm_is_zero_or_one(text):
    norm = float(np.linalg.norm(HashingEmbedder().embed(text)))
    assert norm == pytest.approx(0.0, abs=1e-12) or norm == pytest.approx(1.0, abs=1e-12)


def blake2b_per_token_embed(text, dimension):
    """``HashingEmbedder.embed`` as one blake2b hash per token occurrence and
    ``np.linalg.norm``, kept as an oracle for the memoized embedder."""
    vec = np.zeros(dimension, dtype=np.float64)
    for token in re.findall(r"[a-z0-9]+", text.lower()):
        value = int.from_bytes(hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "big")
        vec[value % dimension] += 1.0 if (value >> 63) & 1 == 0 else -1.0
    vec_norm = np.linalg.norm(vec)
    if vec_norm > 0:
        vec /= vec_norm
    return vec


# tokens, digits, separators and non-ASCII letters, some of which lowercase
# to ASCII (the Kelvin sign to k, dotted capital I to i plus a combining dot)
EMBED_PIECES = ["a", "Bc", "7", "42", "x9", " ", "_", ".", "-", "\u00e9", "\u00df", "\u212a", "\u0130", "\u65e5"]
EMBED_TEXT = st.lists(st.sampled_from(EMBED_PIECES), max_size=12).map("".join) | st.text(max_size=20)


@settings(max_examples=200)
@given(st.sampled_from([1, 5, 64]), st.lists(EMBED_TEXT, min_size=1, max_size=6))
def test_hashing_embedder_is_bit_identical_to_hashing_every_token(dimension, texts):
    emb = HashingEmbedder(dimension)
    # one instance, each text embedded three times, interleaved with the others
    for text in texts + texts[::-1] + texts:
        assert emb.embed(text).tobytes() == blake2b_per_token_embed(text, dimension).tobytes()


def test_threads_sharing_one_embedder_get_the_vectors_of_hashing_every_token():
    texts = [f"tok{i % 37} Shared_{i % 5}.x{i}" for i in range(300)]
    expected = [blake2b_per_token_embed(text, 64).tobytes() for text in texts]
    emb, results = HashingEmbedder(), {}

    def embed_all(k):  # each thread starts at another text, so first uses race
        order = list(range(k * 37, len(texts))) + list(range(k * 37))
        results[k] = {i: emb.embed(texts[i]).tobytes() for i in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=embed_all, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [[results[k][i] for i in range(len(texts))] for k in range(8)] == [expected] * 8


# labels whose two tokens hash to one bucket with opposite signs at d=64, so
# their vectors are zero; commas, non-ASCII and tokenless texts
EMBED_LABELS = ["Alma Thorne", "Anton Dunmore", "Washington, D.C.", "S\u00e3o Paulo", "", "!!! ???"]


@settings(max_examples=200)
@given(st.sampled_from([1, 5, 64]), st.lists(EMBED_TEXT | st.sampled_from(EMBED_LABELS), max_size=8))
def test_embed_many_rows_are_embed_bit_for_bit(dimension, texts):
    emb = HashingEmbedder(dimension)
    batch = emb.embed_many(texts)  # on a fresh memo; embed then reuses it
    assert batch.shape == (len(texts), dimension) and batch.dtype == np.float64
    rows = [row.tobytes() for row in batch]
    assert rows == [emb.embed(text).tobytes() for text in texts]
    assert rows == [blake2b_per_token_embed(text, dimension).tobytes() for text in texts]


def test_labels_whose_tokens_cancel_embed_to_zero_rows():
    batch = HashingEmbedder().embed_many(EMBED_LABELS[:2] + ["Alma"])
    assert not batch[:2].any() and row_norms(batch[2:]).tolist() == [1.0]


class BatchEmbedder:
    """``HashingEmbedder.embed_many``, its matrix passed through ``damage``;
    ``build_index`` must not fall back to ``embed``."""

    fingerprint = HashingEmbedder().fingerprint

    def __init__(self, damage=lambda matrix: matrix):
        self.inner, self.damage = HashingEmbedder(), damage

    def embed(self, text):
        raise AssertionError("embedded one identifier at a time")

    def embed_many(self, texts):
        return self.damage(self.inner.embed_many(texts))


def test_build_index_rows_are_the_embed_vectors_of_the_identifiers():
    g = load_fixture("combined.tsv")
    idx, emb = build_index(g, BatchEmbedder()), HashingEmbedder()
    for names, matrix in ((idx.entity_names, idx.entity_matrix), (idx.relation_names, idx.relation_matrix)):
        assert [row.tobytes() for row in matrix] == [emb.embed(name).tobytes() for name in names]


def test_build_index_names_a_non_finite_row_of_a_batch():
    def poison(matrix):
        matrix[[3, 4], 1] = np.nan  # "d" and "r"
        return matrix

    with pytest.raises(EmbedderError) as exc:
        build_index(KnowledgeGraph([("a", "r", "b"), ("c", "s", "d")]), BatchEmbedder(poison))
    assert (exc.value.identifier, str(exc.value)) == ("d", "embedding failed for 'd': non-finite components")


@pytest.mark.parametrize("damage", [lambda m: m[1:], lambda m: m[0], lambda m: m[None]], ids=["rows", "1-d", "3-d"])
def test_build_index_refuses_a_batch_of_another_shape(damage):
    with pytest.raises(ValueError, match="embed_many gave a"):
        build_index(KnowledgeGraph([("a", "r", "b")]), BatchEmbedder(damage))


# a graph of 341 identifiers (301 entities, then 40 relations): one chunk of
# TEXT_CHUNK, then 85
WIDE_GRAPH = KnowledgeGraph([(f"entity {i}", f"relation {i % 40}", f"entity {i + 1}") for i in range(300)])
WIDE_ORDER = WIDE_GRAPH.entity_names + WIDE_GRAPH.relation_names


def test_build_index_embeds_chunk_by_chunk_into_the_embed_rows():
    calls = []
    idx = build_index(WIDE_GRAPH, BatchEmbedder(lambda matrix: calls.append(len(matrix)) or matrix))
    assert calls == [TEXT_CHUNK, len(WIDE_ORDER) - TEXT_CHUNK]
    rows = np.vstack([idx.entity_matrix, idx.relation_matrix])
    assert [row.tobytes() for row in rows] == [HashingEmbedder().embed(name).tobytes() for name in WIDE_ORDER]


def test_build_index_names_the_first_non_finite_row_of_a_later_chunk():
    first, second = WIDE_ORDER[TEXT_CHUNK + 3], WIDE_ORDER[-5]
    assert second in WIDE_GRAPH.relation_ids  # later in the same chunk as the first
    with pytest.raises(EmbedderError) as exc:
        build_index(WIDE_GRAPH, FaultyEmbedder({second: "nan", first: "inf"}))
    assert (exc.value.identifier, str(exc.value)) == (first, f"embedding failed for {first!r}: non-finite components")


def test_build_index_refuses_a_later_chunk_of_another_width():
    emb = BatchEmbedder(lambda matrix: matrix if len(matrix) == TEXT_CHUNK else matrix[:, :32])
    with pytest.raises(ValueError, match=r"^dimension mismatch: embed_many gave a \(85, 32\) array"):
        build_index(WIDE_GRAPH, emb)


def test_an_exception_from_a_later_chunk_reaches_the_caller_unchanged():
    error = KeyError("lost on the second chunk")

    calls = []

    def fault(matrix):
        if calls:
            raise error
        calls.append(len(matrix))
        return matrix

    with pytest.raises(KeyError) as exc:
        build_index(WIDE_GRAPH, BatchEmbedder(fault))
    assert exc.value is error and calls == [TEXT_CHUNK]


# --- top-m retrieval ----------------------------------------------------------


def test_top_m_saturates_to_full_vocabulary():
    idx = build_index(load_fixture("iran.tsv"), HashingEmbedder())
    got = top_m_entities(idx, HashingEmbedder().embed("Iran"), 100)
    assert len(got) == 6
    assert got == brute_force_rank(idx.entity_names, idx.entity_matrix, HashingEmbedder().embed("Iran"), 100)


def test_top_m_exact_match_scores_one():
    emb = HashingEmbedder()
    idx = build_index(load_fixture("iran.tsv"), emb)
    got = top_m_entities(idx, emb.embed("Theocracy"), 1)
    assert got[0][0] == "Theocracy"
    assert got[0][1] == pytest.approx(1.0, abs=1e-12)


def test_top_m_relations_exact_match():
    emb = HashingEmbedder()
    idx = build_index(load_fixture("iran.tsv"), emb)
    got = top_m_relations(idx, emb.embed("finance.currency.countries_used"), 1)
    assert got[0][0] == "finance.currency.countries_used"
    assert got[0][1] == pytest.approx(1.0, abs=1e-12)


def test_top_m_rejects_nonpositive_m():
    idx = build_index(load_fixture("iran.tsv"), HashingEmbedder())
    with pytest.raises(ValueError):
        top_m_entities(idx, HashingEmbedder().embed("Iran"), 0)


def test_top_m_ties_break_by_ascending_identifier():
    g = KnowledgeGraph(entities=["b_twin", "a_twin"])

    class ConstantEmbedder:
        fingerprint = "constant/1"

        def embed(self, text):
            return np.array([1.0, 0.0])

        def embed_many(self, texts):
            return np.tile([1.0, 0.0], (len(texts), 1))

    idx = build_index(g, ConstantEmbedder())
    got = top_m_entities(idx, np.array([1.0, 0.0]), 2)
    assert [name for name, _ in got] == ["a_twin", "b_twin"]


def test_top_m_matches_brute_force_on_random_vectors():
    rng = np.random.default_rng(7)
    from kgreason.embedding import EmbeddingIndex

    names = [f"e{i:04d}" for i in range(1000)]
    idx = EmbeddingIndex("random/1", 64, names, [], rng.standard_normal((1000, 64)), np.empty((0, 64)))
    query = rng.standard_normal(64)
    assert top_m_entities(idx, query, 10) == brute_force_rank(names, idx.entity_matrix, query, 10)


# --- persistence --------------------------------------------------------------


def test_index_save_load_round_trip(tmp_path):
    emb = HashingEmbedder()
    idx = build_index(load_fixture("iran.tsv"), emb)
    path = tmp_path / "iran.idx"
    save_index(idx, path)
    loaded = load_index(path)
    assert loaded.fingerprint == idx.fingerprint
    assert loaded.dimension == idx.dimension
    assert (loaded.entity_names, loaded.relation_names) == (idx.entity_names, idx.relation_names)
    assert loaded.entity_matrix.tobytes() == idx.entity_matrix.tobytes()
    assert loaded.relation_matrix.tobytes() == idx.relation_matrix.tobytes()


def test_index_save_is_deterministic(tmp_path):
    idx = build_index(load_fixture("iran.tsv"), HashingEmbedder())
    first = tmp_path / "a.idx"
    second = tmp_path / "b.idx"
    save_index(idx, first)
    save_index(idx, second)
    assert first.read_bytes() == second.read_bytes()


def test_load_rejects_foreign_format(tmp_path):
    path = tmp_path / "bogus.idx"
    path.write_text('{"format": "something-else/9"}\n')
    with pytest.raises(ValueError):
        load_index(path)


def without(key):
    return lambda header: {k: v for k, v in header.items() if k != key}


# Each damage keeps the body the undamaged header describes, so only the
# header is at fault. A huge dimension must be refused before any allocation.
HEADER_DAMAGE = {
    "unsorted-entities": lambda header: {**header, "entities": header["entities"][::-1]},
    "duplicate-entity": lambda header: {**header, "entities": header["entities"][:1] * 6},
    "string-entities": lambda header: {**header, "entities": "abcdef"},
    "non-string-relation": lambda header: {**header, "relations": [1, 2]},
    "float-dimension": lambda header: {**header, "dimension": 64.0},
    "string-dimension": lambda header: {**header, "dimension": "64"},
    "null-dimension": lambda header: {**header, "dimension": None},
    "negative-dimension": lambda header: {**header, "dimension": -1},
    "huge-dimension": lambda header: {**header, "dimension": 2**40},
    "no-dimension": without("dimension"),
    "no-entities": without("entities"),
    "no-fingerprint": without("fingerprint"),
    "no-relations": without("relations"),
}


@pytest.mark.parametrize("damage", HEADER_DAMAGE.values(), ids=HEADER_DAMAGE.keys())
def test_load_rejects_a_malformed_header(tmp_path, damage):
    path = tmp_path / "iran.idx"
    save_index(build_index(load_fixture("iran.tsv"), HashingEmbedder()), path)
    header_line, body = path.read_bytes().split(b"\n", 1)
    path.write_bytes(json.dumps(damage(json.loads(header_line))).encode("utf-8") + b"\n" + body)
    with pytest.raises(ValueError):
        load_index(path)


# rows scaled from 1e-150 to 1e150, and below, where squared norms are subnormal
ROW_SCALES = st.floats(min_value=-150, max_value=150).map(lambda e: 10.0**e) | st.sampled_from([1e-160, 1e-162])
ROW_KINDS = st.sampled_from(["scaled"] * 6 + ["zero", "negative zero"])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_query_cosines_are_query_cosine_bit_for_bit(data):
    """Batched cosines of rows gathered by ids, repeats included, and batched
    row norms equal the scalar ones bit for bit, for any dimension up to 300,
    zero and -0.0 rows and a zero query."""
    d = data.draw(st.integers(min_value=1, max_value=300))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32)))

    def vector(kind):
        if kind == "scaled":
            return rng.standard_normal(d) * data.draw(ROW_SCALES)
        return np.full(d, 0.0 if kind == "zero" else -0.0)

    matrix = np.array([vector(kind) for kind in data.draw(st.lists(ROW_KINDS, min_size=1, max_size=8))])
    query = vector(data.draw(st.sampled_from(["scaled", "scaled", "zero"])))
    ids = data.draw(st.lists(st.integers(min_value=0, max_value=len(matrix) - 1), min_size=1, max_size=12))
    with np.errstate(all="ignore"):
        query_norm, norms = norm(query), row_norms(matrix)
        assert norms.tobytes() == np.array([norm(vec) for vec in matrix]).tobytes()
        got = query_cosines(query, query_norm, matrix[ids], norms[ids])
        expected = np.array([query_cosine(query, query_norm, matrix[i]) for i in ids])
    assert got.tobytes() == expected.tobytes()


def test_built_and_loaded_indexes_hold_one_matrix_per_vocabulary(tmp_path):
    g = load_fixture("combined.tsv")
    built = build_index(g, HashingEmbedder())
    save_index(built, tmp_path / "combined.idx")
    for idx in (built, load_index(tmp_path / "combined.idx")):
        for names, indexed, matrix in (
            (g.entity_names, idx.entity_names, idx.entity_matrix),
            (g.relation_names, idx.relation_names, idx.relation_matrix),
        ):
            assert indexed == names  # rows in sorted identifier order, as graph ids
            assert matrix.dtype == np.float64 and matrix.shape == (len(names), 64)
        assert idx.entity_matrix.tobytes() == built.entity_matrix.tobytes()
        assert idx.relation_matrix.tobytes() == built.relation_matrix.tobytes()


def test_index_file_is_header_line_then_raw_rows(tmp_path):
    from kgreason.embedding import EmbeddingIndex

    idx = EmbeddingIndex("hand/1", 2, ["a", "b"], ["r"], [[1.0, -0.0], [3.0, 4.0]], [[0.5, -2.25]])
    path = tmp_path / "hand.idx"
    save_index(idx, path)
    header = (
        b'{"dimension": 2, "entities": ["a", "b"], "fingerprint": "hand/1", '
        b'"format": "kgreason-index/2", "relations": ["r"]}\n'
    )
    assert path.read_bytes() == header + struct.pack("<6d", 1.0, -0.0, 3.0, 4.0, 0.5, -2.25)


IDENTIFIERS = st.text(alphabet=st.sampled_from(list('ab,"\\ \'é→ß日\t')) | st.characters(), min_size=1)
ROW_VALUES = st.floats(width=64, allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, -2.2250738585072009e-308, 1.7976931348623157e308])


@settings(max_examples=50)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda d: st.tuples(
        st.just(d),
        st.dictionaries(IDENTIFIERS, st.lists(ROW_VALUES, min_size=d, max_size=d), max_size=5),
        st.dictionaries(IDENTIFIERS, st.lists(ROW_VALUES, min_size=d, max_size=d), max_size=3),
    )
))
def test_index_round_trip_is_bit_exact_for_any_identifiers_and_values(tmp_path_factory, drawn):
    from kgreason.embedding import EmbeddingIndex

    dimension, entities, relations = drawn

    def matrix(rows):
        return np.array([rows[key] for key in sorted(rows)], dtype=float).reshape(len(rows), dimension)

    idx = EmbeddingIndex(
        "drawn/1", dimension, sorted(entities), sorted(relations), matrix(entities), matrix(relations)
    )
    path = tmp_path_factory.mktemp("idx") / "drawn.idx"
    save_index(idx, path)
    loaded = load_index(path)
    assert (loaded.dimension, loaded.fingerprint) == (dimension, "drawn/1")
    for original, restored in ((entities, zip(loaded.entity_names, loaded.entity_matrix)),
                               (relations, zip(loaded.relation_names, loaded.relation_matrix))):
        restored = dict(restored)
        assert sorted(restored) == sorted(original)
        for key, values in original.items():
            assert restored[key].tobytes() == np.array(values, dtype=float).tobytes()


@pytest.mark.parametrize("cut", [lambda body: body[:-1], lambda body: body + b"\0"],
                         ids=["truncated", "trailing-byte"])
def test_load_rejects_a_body_of_the_wrong_length(tmp_path, cut):
    path = tmp_path / "iran.idx"
    save_index(build_index(load_fixture("iran.tsv"), HashingEmbedder()), path)
    path.write_bytes(cut(path.read_bytes()))
    with pytest.raises(ValueError):
        load_index(path)


@pytest.mark.parametrize("entities, rows", [
    (["a"], [[1.0, 0.0, 0.0]]),  # a row of another dimension
    (["a", "b"], [[1.0, 0.0]]),  # fewer rows than names
    (["b", "a"], [[1.0, 0.0], [0.0, 1.0]]),  # unsorted names
    (["a", "a"], [[1.0, 0.0], [0.0, 1.0]]),  # a duplicate name
])
def test_index_refuses_rows_of_another_shape_or_unsorted_names(entities, rows):
    from kgreason.embedding import EmbeddingIndex

    with pytest.raises(ValueError):
        EmbeddingIndex("hand/1", 2, entities, [], rows, np.empty((0, 2)))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
def test_index_and_loader_refuse_a_non_finite_row(tmp_path, value):
    """A row that cannot be scored is refused when built and when read back."""
    from kgreason.embedding import EmbeddingIndex

    with pytest.raises(ValueError, match="entity matrix has non-finite"):
        EmbeddingIndex("hand/1", 2, ["a", "b"], ["r"], [[1.0, 0.0], [value, 0.0]], [[0.5, 0.5]])
    with pytest.raises(ValueError, match="relation matrix has non-finite"):
        EmbeddingIndex("hand/1", 2, ["a"], ["r"], [[1.0, 0.0]], [[0.5, value]])
    path = tmp_path / "hand.idx"
    save_index(EmbeddingIndex("hand/1", 2, ["a", "b"], ["r"], [[1.0, 0.0], [3.0, 4.0]], [[0.5, 0.5]]), path)
    path.write_bytes(path.read_bytes()[:-8] + struct.pack("<d", value))
    with pytest.raises(ValueError, match="relation matrix has non-finite"):
        load_index(path)


def test_index_holds_c_contiguous_rows():
    """Rows given in another layout are stored C-contiguous, whose dot
    products ``query_cosines`` sums as the 1-d ``dot`` does (a strided row
    may sum in another order, and round differently)."""
    from kgreason.embedding import EmbeddingIndex

    rng = np.random.default_rng(2)
    names = [f"e{i:02d}" for i in range(40)]
    rows = np.asfortranarray(rng.standard_normal((40, 64)))
    idx = EmbeddingIndex("random/1", 64, names, [], rows, np.empty((0, 64)))
    assert idx.entity_matrix.flags.c_contiguous and idx.entity_matrix.tobytes() == rows.tobytes(order="C")
    query = rng.standard_normal(64)
    assert top_m_entities(idx, query, 40) == brute_force_rank(names, np.ascontiguousarray(rows), query, 40)


@settings(max_examples=25)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=10))
def test_top_m_always_matches_oracle(seed, m):
    rng = np.random.default_rng(seed)
    from kgreason.embedding import EmbeddingIndex

    names = [f"e{i:02d}" for i in range(rng.integers(1, 30))]
    idx = EmbeddingIndex("random/1", 8, names, [], rng.standard_normal((len(names), 8)), np.empty((0, 8)))
    query = rng.standard_normal(8)
    assert top_m_entities(idx, query, m) == brute_force_rank(names, idx.entity_matrix, query, m)
