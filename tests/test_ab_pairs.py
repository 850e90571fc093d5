"""The pair runner's summary (``tools/ab_pairs.py``) on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "ab_pairs", Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)

P50 = {"name": "question_p50_ms", "better": "lower", "bound": 0.25}
RATE = {"name": "questions_per_s", "better": "higher", "bound": 0.25}
CALLS = {"name": "llm_calls_per_question", "better": "lower", "bound": 0.05}


def pairs_of(metric, parent, change):
    return [{"parent": {metric: p}, "change": {metric: c}} for p, c in zip(parent, change)]


def test_ties_count_for_neither_side():
    summary = ab_pairs.summarize(pairs_of("llm_calls_per_question", [11.2] * 10, [11.2] * 10), [CALLS])
    calls = summary["llm_calls_per_question"]
    assert (calls["change_wins"], calls["ties"], calls["pairs"]) == (0, 10, 10)
    assert calls["median_difference"] == 0.0 and calls["parent_iqr"] == 0.0
    assert not calls["claim_holds"]
    assert calls["within_bound"] and not calls["unresolved"]


def test_a_claim_holds_on_nine_of_ten_wins_beyond_the_parent_iqr():
    parent = [1.00, 1.02, 1.04, 1.01, 1.03, 1.00, 1.02, 1.04, 1.01, 0.80]
    change = [0.90, 0.91, 0.92, 0.90, 0.91, 0.89, 0.92, 0.90, 0.91, 0.95]
    p50 = ab_pairs.summarize(pairs_of("question_p50_ms", parent, change), [P50])["question_p50_ms"]
    assert p50["change_wins"] == 9 and p50["ties"] == 0
    assert p50["parent_median"] == pytest.approx(1.015)
    assert p50["parent_quartiles"] == pytest.approx([1.0025, 1.0275])
    assert p50["change_median"] == pytest.approx(0.91)
    assert p50["claim_holds"] and p50["within_bound"] and not p50["unresolved"]


def test_a_claim_fails_on_eight_wins_or_a_gain_inside_the_parent_iqr():
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]
    eight = [p - 0.3 for p in parent[:8]] + [p + 0.1 for p in parent[8:]]
    narrow = [p - 0.05 for p in parent]
    for change, wins in ((eight, 8), (narrow, 10)):
        p50 = ab_pairs.summarize(pairs_of("question_p50_ms", parent, change), [P50])["question_p50_ms"]
        assert p50["change_wins"] == wins
        assert not p50["claim_holds"]
    # a higher-is-better metric wins when it rises; fewer than ten pairs claim nothing
    rate = ab_pairs.summarize(pairs_of("questions_per_s", [900, 910, 905], [1000, 1010, 1005]), [RATE])
    assert rate["questions_per_s"]["change_wins"] == 3 and not rate["questions_per_s"]["claim_holds"]


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [1.0, 2.0, 1.0, 2.0]  # IQR 1.0 around a median of 1.5
    worse = [1.7, 1.6, 1.7, 1.6]
    p50 = ab_pairs.summarize(pairs_of("question_p50_ms", parent, worse), [P50])["question_p50_ms"]
    assert p50["unresolved"] and p50["within_bound"]
    # unless every change run reads better than every parent run
    better = [0.5, 0.6, 0.5, 0.6]
    p50 = ab_pairs.summarize(pairs_of("question_p50_ms", parent, better), [P50])["question_p50_ms"]
    assert not p50["unresolved"]
    # a worsening beyond the bound is out of bound however it spreads
    p50 = ab_pairs.summarize(pairs_of("question_p50_ms", [1.0] * 4, [1.3] * 4), [P50])["question_p50_ms"]
    assert not p50["within_bound"] and not p50["unresolved"]


def test_seed_ranges_are_inclusive():
    assert ab_pairs.parse_seeds("3001-3003") == [3001, 3002, 3003]
    assert ab_pairs.parse_seeds("7") == [7]
