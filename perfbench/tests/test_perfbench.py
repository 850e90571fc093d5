"""Tests of the benchmark's own code: generator determinism and shape, the
metric arithmetic, and the tracer's rebinding.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import gen  # noqa: E402
from worker import LatencyBackend  # noqa: E402
from tracing import Tracer, covered_seconds, percentile, samples_beyond, self_time  # noqa: E402


def _files(out: Path, seed: int, shape: str) -> list[bytes]:
    rng = np.random.default_rng(seed)
    if shape == "uniform":
        graph = gen.uniform_graph(rng, 300, 1500, 20)
    else:
        graph = gen.power_law_graph(rng, 300, 1500, 20, max_degree=100)
    questions = gen.plant_questions(rng, graph, 40, 2, shape != "uniform", "t")
    out.mkdir()
    gen.write_tsv(graph, out / "kg.tsv")
    gen.write_dataset(questions, out / "dataset.jsonl", out / "mock.json")
    return [(out / name).read_bytes() for name in ("kg.tsv", "dataset.jsonl", "mock.json")]


@pytest.mark.parametrize("shape", ["uniform", "power-law"])
def test_same_seed_gives_byte_identical_inputs(tmp_path, shape):
    first = _files(tmp_path / "a", 7, shape)
    second = _files(tmp_path / "b", 7, shape)
    other = _files(tmp_path / "c", 8, shape)
    assert first == second
    assert first != other


def test_labels_look_like_kg_labels_and_survive_arrow_format():
    labels = gen.entity_labels(np.random.default_rng(0), 5000)
    assert len(set(labels)) == len(labels)
    for label in labels:
        assert label == label.strip() and label
        assert "->" not in label and ">" not in label
        assert "\t" not in label and "\n" not in label and not label.startswith("#")
    with_comma = sum("," in label for label in labels) / len(labels)
    assert 0.05 < with_comma < 0.2
    assert any(" " in label for label in labels)


def test_power_law_degrees_have_hubs_and_sum_to_target():
    degrees = gen.power_law_degrees(10_000, 40_000, 1000)
    assert abs(int(degrees.sum()) - 40_000) < 100
    assert degrees.max() == 1000
    assert degrees.min() >= 3
    assert (degrees > 256).sum() >= 5


def test_power_law_hub_tails_have_the_same_degree_mix_for_every_seed():
    n, m, cap = 2000, 8000, 300
    mixes = []
    for seed in (1, 2, 3):
        graph = gen.power_law_graph(np.random.default_rng(seed), n, m, 10, max_degree=cap)
        degree = graph.out_degree()
        assert sorted(degree.tolist()) == sorted(gen.power_law_degrees(n, m, cap).tolist())
        assert not (graph.edges[:, 0] == graph.edges[:, 2]).any()
        hubs = np.flatnonzero(degree > 50)
        mixes.append(sorted(sorted(degree[graph.out_edges(h)[:, 2]].tolist()) for h in hubs))
    assert mixes[0] == mixes[1] == mixes[2]


@pytest.mark.parametrize("by_out_degree", [False, True])
def test_planted_questions_follow_real_edges_and_answer_with_every_tail(by_out_degree):
    rng = np.random.default_rng(3)
    graph = gen.power_law_graph(rng, 400, 2000, 15, max_degree=120)
    questions = gen.plant_questions(rng, graph, 60, 3, by_out_degree, "t")
    index = {label: i for i, label in enumerate(graph.labels)}
    rel_index = {r: i for i, r in enumerate(graph.relations)}
    triples = {tuple(e) for e in graph.edges.tolist()}
    assert len({q["question"] for q in questions}) == len(questions)
    for q in questions:
        (path,) = q["ground_truth_paths"]
        parts = path.split(" -> ")
        assert parts[0] == q["topic_entities"][0]
        hops = [(parts[i - 1], parts[i], parts[i + 1]) for i in range(1, len(parts), 2)]
        assert len(hops) == 3
        for h, r, t in hops:
            assert (index[h], rel_index[r], index[t]) in triples
        last_head, last_rel, _ = hops[-1]
        tails = {graph.labels[t] for h, r, t in triples if h == index[last_head] and r == rel_index[last_rel]}
        assert set(q["answers"]) == tails
        assert q["plan"]["declarative_statement"].count("*placeholder*") == 1


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile([3.0], 90) == 3.0
    assert percentile([5, 1, 4, 2, 3], 50) == 3
    with pytest.raises(ValueError):
        percentile([], 50)


def test_p90_has_ten_samples_beyond_from_one_hundred_samples():
    assert samples_beyond(99, 90) == 9
    for n in range(100, 5001):
        assert samples_beyond(n, 90) >= 10
    for n in (1, 9, 10, 99, 100, 101, 199, 200, 1234):
        values = list(range(n))
        assert sum(v > percentile(values, 90) for v in values) == samples_beyond(n, 90)


def test_self_time_subtracts_the_union_of_children_and_leaves():
    assert covered_seconds(0, 10, []) == 0
    # Overlapping and nested children count once; parts outside are clipped.
    children = [(1, 3), (2, 4), (2.5, 2.6), (-5, 0.5), (9, 20)]
    assert covered_seconds(0, 10, children) == pytest.approx(3 + 0.5 + 1)
    assert self_time(0, 10, children) == pytest.approx(10 - 4.5)
    assert self_time(0, 10, children, leaf_seconds=1.5) == pytest.approx(4.0)
    assert self_time(0, 1, [(0, 1)], leaf_seconds=0.1) == 0.0


def _fake_package():
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def leaf(x):
        return x + 1

    def work(x):
        return a.leaf(x) + a.leaf(x)

    a.leaf = leaf
    a.work = work
    b.work = work  # bound where it is imported, as ``from .a import work``

    def outer(x):
        return b.work(x)

    b.outer = outer
    pkg.work = work
    return pkg, a, b


def test_tracer_rebinds_every_import_site_and_restores(monkeypatch):
    pkg, a, b = _fake_package()
    for name, module in (("fakepkg", pkg), ("fakepkg.a", a), ("fakepkg.b", b)):
        monkeypatch.setitem(sys.modules, name, module)
    original = a.work
    tracer = Tracer()
    probes = [
        ("b", "outer", lambda f: tracer.span("b.outer", f)),
        ("a", "work", lambda f: tracer.span("a.work", f)),
        ("a", "leaf", lambda f: tracer.leaf("a.leaf", f)),
        ("a", "missing", lambda f: tracer.span("never", f)),
    ]
    with tracer.installed("fakepkg", probes) as installed:
        assert installed == ["b.outer", "a.work", "a.leaf"]
        assert b.outer(1) == 4
        assert pkg.work is not original and b.work is not original
    assert a.work is original and b.work is original and pkg.work is original
    outer, work = sorted(tracer.spans, key=lambda s: s.id)
    assert (outer.name, work.name) == ("b.outer", "a.work")
    assert work.parent == outer.id and work.root == outer.id == outer.root
    assert tracer.leaf_totals()["a.leaf"][0] == 2
    children = tracer.children()
    assert tracer.self_seconds(outer, children) <= outer.duration - work.duration + 1e-9


def test_latency_backend_keeps_concurrency_limit_and_books_waiting():
    class Inner:
        concurrency_limit = 64

        def complete(self, rendered, params):
            return rendered

    backend = LatencyBackend(Inner(), latency_s=0.002)
    assert backend.concurrency_limit == 64
    assert backend.complete("p", None) == "p"
    assert backend.calls == 1 and backend.waited_s >= 0.002
    backend.reset()
    assert backend.calls == 0 and backend.waited_s == 0.0
