"""Release acceptance suite: ten end-to-end checks, one test per shipped
guarantee, each printing a single [PASS] line when it holds (use -s or -rA
to see them). Everything here is deterministic: fixed seeds, the hashing
embedder, and scripted mock backends.
"""

import random
import string
import time
from contextlib import contextmanager
from pathlib import Path

import logging

import numpy as np

from kgreason.embedding import (
    EmbeddingIndex,
    HashingEmbedder,
    build_index,
    top_m_entities,
    top_m_relations,
)
from kgreason.evaluate import (
    accuracy,
    f1_score,
    hits_at_1,
    load_dataset,
    normalize,
    run_experiment,
)
from kgreason.kg import (
    KnowledgeGraph,
    ReasoningPath,
    ReasoningStep,
    load_triples,
    neighbors,
    validate_path,
)
from kgreason.llm import LlmClient, MockBackend, ReplayBackend, UsageLedger, load_mock_script
from kgreason.pathrag import RetrievalConfig, ScoreContext, candidate_steps, retrieved_steps_along_path
from kgreason.pathrag import coverage_ratio as library_coverage_ratio
from kgreason.search import AnswerSet, SearchConfig, run_dvbs

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

BIEBER_Q = "Who is the ex-wife of Justin Bieber's father?"
IRAN_Q = "What form of government is in the country that uses the Iranian rial?"

EMB = HashingEmbedder()


def ok(criterion: int, detail: str):
    print(f"[PASS] criterion {criterion}: {detail}")


@contextmanager
def quiet_cosine_warnings():
    """Mass randomized runs occasionally hash a name to a zero vector; the
    resulting warnings (one per index, from retrieval) are expected noise
    here, not a finding."""
    log = logging.getLogger("kgreason")
    previous = log.level
    log.setLevel(logging.ERROR)
    try:
        yield
    finally:
        log.setLevel(previous)


def fixture_world():
    with open(FIXTURES / "combined.tsv", "r", encoding="utf-8") as fh:
        g = load_triples(fh)
    idx = build_index(g, EMB)
    answer_key, plan_script = load_mock_script(FIXTURES / "mock_script.json")
    return g, idx, answer_key, plan_script


def bound(g, idx, query) -> ScoreContext:
    """A score context of ``g`` and ``idx`` bound to ``query``, a text or a vector."""
    context = ScoreContext(g, idx, EMB)
    context.bind_query(query)
    return context


def np_cosine(a: np.ndarray, b: np.ndarray) -> float:
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


# --- 1. fixture end-to-end -------------------------------------------------------


def test_criterion_01_fixture_end_to_end():
    started = time.perf_counter()
    g, idx, answer_key, plan_script = fixture_world()
    dataset = load_dataset(str(FIXTURES / "dataset.jsonl"))
    backend = MockBackend(g, answer_key, plan_script)
    report = run_experiment(dataset, g, idx, EMB, backend)
    elapsed = time.perf_counter() - started

    by_id = {r.record_id: r for r in report.results}
    assert set(by_id["bieber-1"].answers) == {"Erin_Wagner"}
    assert set(by_id["iran-1"].answers) == {"Islamic_republic", "Theocracy", "Unitary_state"}
    assert report.aggregates["hits_at_1"] == 1.0
    assert report.aggregates["f1"] == 1.0
    assert elapsed < 1.0
    ok(1, f"both fixture answer sets exact, hits@1=1.0 f1=1.0 in {elapsed:.3f}s")


# --- 2. structural validity under randomized verdicts ----------------------------


def random_kg(rng: random.Random) -> tuple[KnowledgeGraph, str]:
    n_entities = rng.randint(5, 50)
    entities = [f"E{i}" for i in range(n_entities)]
    relations = [f"r{i}" for i in range(rng.randint(1, 5))]
    triples = []
    for head in entities:
        for _ in range(rng.randint(0, 3)):
            triples.append((head, rng.choice(relations), rng.choice(entities)))
    if not triples:
        triples.append((entities[0], relations[0], entities[-1]))
    g = KnowledgeGraph(triples)
    topic = rng.choice(sorted(g.entities))
    return g, topic


def test_criterion_02_validity_ratio_is_always_one():
    started = time.perf_counter()
    paths_seen = 0
    with quiet_cosine_warnings():
        for seed in range(1000):
            rng = random.Random(seed)
            g, topic = random_kg(rng)
            idx = build_index(g, EMB)
            q = f"synthetic question {seed}?"
            verdict_rng = random.Random(seed + 10_000)
            backend = MockBackend(
                g,
                answer_key={q: []},
                plan_script={
                    q: {
                        "keywords": [topic] + sorted(g.relations),
                        "planning_steps": [],
                        "declarative_statement": "The answer is *placeholder*.",
                    }
                },
                global_rule=lambda bindings: verdict_rng.random() < 0.3,
            )
            answers, _ = run_dvbs(
                q,
                [topic],
                ScoreContext(g, idx, EMB),
                LlmClient(backend),
                search_config=SearchConfig(beam_width=3, max_depth=3),
            )
            emitted = answers.supporting_paths + answers.indirect_paths
            for path in emitted:
                report = validate_path(g, path)
                assert report.valid_step_count == report.total_step_count == len(path.steps)
            paths_seen += len(emitted)
    elapsed = time.perf_counter() - started
    assert paths_seen > 0
    assert elapsed < 30.0
    ok(2, f"{paths_seen} emitted paths across 1000 graphs, all VR=1.000, {elapsed:.1f}s")


# --- 3. call budget --------------------------------------------------------------


def dense_layered_world(depth: int, fanout: int):
    """Every non-leaf entity has exactly ``fanout`` out-edges, so the pooled
    candidates exceed any beam width below it at every depth."""
    triples = []
    layers = [["hub"]]
    for level in range(1, depth + 1):
        layer = [f"l{level}n{i}" for i in range(fanout)]
        layers.append(layer)
        for src in layers[level - 1]:
            for dst in layer:
                triples.append((src, f"r{level}", dst))
    return KnowledgeGraph(triples), layers


def run_counting_calls(g, layers, global_rule, width, depth):
    idx = build_index(g, EMB)
    q = "what lies at the far end of the chain?"
    backend = MockBackend(
        g,
        answer_key={q: []},
        plan_script={
            q: {
                "keywords": ["hub"] + [f"r{i}" for i in range(1, depth + 1)],
                "planning_steps": [],
                "declarative_statement": "The far end of the chain is *placeholder*.",
            }
        },
        global_rule=global_rule,
    )
    ledger = UsageLedger()
    client = LlmClient(backend, ledger=ledger)
    run_dvbs(
        q,
        ["hub"],
        ScoreContext(g, idx, EMB),
        client,
        search_config=SearchConfig(beam_width=width, max_depth=depth),
    )
    return ledger.llm_calls


def test_criterion_03_call_budget():
    width, depth = 4, 4
    bound = width * depth + depth + 1  # 21

    g, layers = dense_layered_world(depth, fanout=6)
    final_layer = set(layers[-1])

    saturating = run_counting_calls(
        g, layers, lambda b: b["terminal_entity"] in final_layer, width, depth
    )
    assert saturating == bound == 21

    never_halting = run_counting_calls(g, layers, lambda b: False, width, depth)
    assert never_halting <= bound

    # Early-halting fixture questions stay strictly under the depth-4 bound.
    g2, idx2, answer_key, plan_script = fixture_world()
    dataset = load_dataset(str(FIXTURES / "dataset.jsonl"))
    report = run_experiment(dataset, g2, idx2, EMB, MockBackend(g2, answer_key, plan_script))
    for result in report.results:
        assert result.llm_calls <= bound
        assert result.llm_calls < bound
    calls = sorted(r.llm_calls for r in report.results)
    ok(3, f"saturating run used exactly {saturating} calls; fixtures used {calls} < {bound}")


# --- 4. lookahead scoring arithmetic ---------------------------------------------


def test_criterion_04_lookahead_matches_brute_force():
    # Six nodes: F fans out to A, B, C; A and B continue one hop; C is a leaf.
    g = KnowledgeGraph(
        [
            ("F", "into_a", "A"),
            ("F", "into_b", "B"),
            ("F", "into_c", "C"),
            ("A", "onward_d", "D"),
            ("B", "onward_e", "E"),
        ]
    )
    idx = build_index(g, EMB)
    query_vec = EMB.embed("onward e target")
    alpha = 0.3

    def brute_base(step: ReasoningStep) -> float:
        return np_cosine(query_vec, EMB.embed(step.relation)) + np_cosine(
            query_vec, EMB.embed(step.entity)
        )

    def brute_total(step: ReasoningStep) -> float:
        onward = [
            brute_base(ReasoningStep(relation=r, entity=e))
            for r, e in sorted(neighbors(g, step.entity))
        ]
        return brute_base(step) + alpha * (max(onward) if onward else 0.0)

    checked = 0
    for frontier in ("F", "A", "B"):
        ranked = candidate_steps(bound(g, idx, query_vec), frontier, RetrievalConfig(m=10, alpha=alpha))
        assert ranked
        for cand in ranked:
            assert abs(cand.total_score - brute_total(cand.step)) <= 1e-12
            checked += 1

    # alpha = 0 must order candidates exactly like the base score alone.
    zero = candidate_steps(bound(g, idx, query_vec), "F", RetrievalConfig(m=10, alpha=0.0))
    by_base = sorted(
        (ReasoningStep(relation=r, entity=e) for r, e in neighbors(g, "F")),
        key=lambda s: (-brute_base(s), s.relation, s.entity),
    )
    assert [c.step for c in zero] == by_base
    ok(4, f"{checked} candidate totals match brute force at 1e-12; alpha=0 ranking = base")


# --- 5. top-m exactness ----------------------------------------------------------


def test_criterion_05_top_m_equals_brute_force_argsort():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    names = [f"v{i:04d}" for i in range(1000)]
    rows = rng.standard_normal((1000, 64))
    idx = EmbeddingIndex("hand/1", 64, names, names, rows, rows * -1.0)

    def brute(matrix, query):
        scored = [(name, np_cosine(query, vec)) for name, vec in zip(names, matrix)]
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored

    for trial in range(25):
        query = rng.standard_normal(64)
        # one full oracle ranking per query and vocabulary, cut for each m
        entities, relations = brute(idx.entity_matrix, query), brute(idx.relation_matrix, query)
        for m in (1, 5, 50):
            assert top_m_entities(idx, query, m) == entities[:m]
            assert top_m_relations(idx, query, m) == relations[:m]
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    ok(5, f"25 queries x m in (1, 5, 50) exact set-and-order over 1000 vectors, {elapsed:.2f}s")


# --- 6. brute-force search oracle ------------------------------------------------

SYLLABLES = [
    "ka", "mo", "zu", "li", "ren", "tav", "sol", "pir", "nex", "dra",
    "vel", "oth", "gim", "fy", "lux", "qor", "ast", "brem", "chi", "dov",
]


def name_pool(rng: random.Random, count: int) -> list[str]:
    names = set()
    while len(names) < count:
        names.add("".join(rng.sample(SYLLABLES, 3)))
    return sorted(names)


def layered_kg(rng: random.Random, depth: int) -> tuple[KnowledgeGraph, str]:
    """A small layered DAG with distinct, token-unique names per node, so
    path enumeration is exhaustive and embedding scores do not alias."""
    widths = [rng.randint(1, 2)] + [rng.randint(2, 4) for _ in range(depth)]
    pool = name_pool(rng, sum(widths) + 4)
    names = iter(pool)
    layers = [[next(names) for _ in range(w)] for w in widths]
    relations = [f"rel_{next(names)}" for _ in range(4)]
    triples = []
    for level in range(depth):
        for src in layers[level]:
            for _ in range(rng.randint(1, 3)):
                triples.append((src, rng.choice(relations), rng.choice(layers[level + 1])))
    return KnowledgeGraph(triples), layers[0][0]


def enumerate_paths(g: KnowledgeGraph, start: str, depth: int) -> list[list[tuple[str, str]]]:
    found = []

    def walk(entity, steps):
        if steps:
            found.append(list(steps))
        if len(steps) == depth:
            return
        for rel, tail in sorted(neighbors(g, entity)):
            steps.append((rel, tail))
            walk(tail, steps)
            steps.pop()

    walk(start, [])
    return found


def test_criterion_06_search_matches_exhaustive_oracle():
    depth = 3
    runs = 500
    failures = []
    with quiet_cosine_warnings():
        for seed in range(runs):
            rng = random.Random(1000 + seed)
            g, topic = layered_kg(rng, depth)
            idx = build_index(g, EMB)

            all_paths = enumerate_paths(g, topic, depth)
            gt_steps = rng.choice(all_paths)
            answer = gt_steps[-1][1]
            # Oracle: every enumerated path whose terminal entails the answer.
            oracle_arrows = {
                ReasoningPath(
                    start=topic,
                    steps=tuple(ReasoningStep(relation=r, entity=e) for r, e in steps),
                ).to_arrow()
                for steps in all_paths
                if normalize(steps[-1][1]) == normalize(answer)
            }
            assert oracle_arrows  # a ground-truth path exists by construction

            branching = max(len(neighbors(g, e)) for e in g.entities)
            q = f"find the target {seed}?"
            keywords = (
                [r for r, _ in gt_steps] + [e for _, e in gt_steps] + [answer, answer]
            )
            backend = MockBackend(
                g,
                answer_key={q: [answer]},
                plan_script={
                    q: {
                        "keywords": keywords,
                        "planning_steps": [],
                        "declarative_statement": "The answer is *placeholder*.",
                    }
                },
            )
            answers, trace = run_dvbs(
                q,
                [topic],
                ScoreContext(g, idx, EMB),
                LlmClient(backend),
                search_config=SearchConfig(beam_width=branching, max_depth=depth),
            )
            found = any(p.to_arrow() in oracle_arrows for p in answers.supporting_paths)
            if not found:
                reasons = {e["reason"] for e in trace.events if e["event"] == "prune"}
                failures.append((seed, reasons))

    for seed, reasons in failures:
        assert reasons == {"width-truncation"}, f"seed {seed} failed for {reasons}"
    success_rate = (runs - len(failures)) / runs
    assert success_rate >= 0.99
    ok(6, f"oracle path found in {success_rate:.1%} of {runs} runs "
          f"({len(failures)} width-truncation failures)")


# --- 7. deductive halting beats premature adequacy -------------------------------


def test_criterion_07_adequacy_halts_early_and_scores_worse():
    g, idx, answer_key, plan_script = fixture_world()
    dataset = load_dataset(str(FIXTURES / "dataset.jsonl"))  # both answers sit 2 hops out

    deductive = run_experiment(dataset, g, idx, EMB, MockBackend(g, answer_key, plan_script))
    premature = MockBackend(g, answer_key, plan_script, adequacy_rule=lambda bindings: True)
    adequacy = run_experiment(
        dataset, g, idx, EMB, premature, search_config=SearchConfig(adequacy_mode=True)
    )

    assert adequacy.aggregates["avg_depth"] < deductive.aggregates["avg_depth"]
    assert adequacy.aggregates["hits_at_1"] < deductive.aggregates["hits_at_1"]
    ok(7, f"adequacy depth {adequacy.aggregates['avg_depth']:.1f} < "
          f"{deductive.aggregates['avg_depth']:.1f}, hits@1 "
          f"{adequacy.aggregates['hits_at_1']:.1f} < {deductive.aggregates['hits_at_1']:.1f}")


# --- 8. lookahead rescues coverage -----------------------------------------------


def rescue_family(n_distractors: int) -> tuple[KnowledgeGraph, ReasoningPath, str]:
    """The bridge hop scores poorly on its own but leads straight to the
    target hop; distractor relations at the hub share the query's tokens."""
    triples = [
        ("start_hub", "linked_via", "bridge_node"),
        ("bridge_node", "target_relation_alpha", "answer_beta"),
    ]
    for i in range(n_distractors):
        triples.append(("start_hub", f"alpha_decoy_rel_{i}", f"decoy_{i}"))
    gt = ReasoningPath(
        start="start_hub",
        steps=(
            ReasoningStep(relation="linked_via", entity="bridge_node"),
            ReasoningStep(relation="target_relation_alpha", entity="answer_beta"),
        ),
    )
    return KnowledgeGraph(triples), gt, "target relation alpha answer beta"


def brute_force_cr(g, gt, query_text, mode, m, alpha) -> float:
    """Independent coverage recomputation straight from the mode formulas."""
    query_vec = EMB.embed(query_text)

    def base(step):
        return np_cosine(query_vec, EMB.embed(step[0])) + np_cosine(
            query_vec, EMB.embed(step[1])
        )

    per_hop = []
    frontier = gt.start
    for step in gt.steps:
        pairs = sorted(neighbors(g, frontier))
        if mode == "path-rag":
            def total(pair):
                onward = [base(nxt) for nxt in sorted(neighbors(g, pair[1]))]
                return base(pair) + alpha * (max(onward) if onward else 0.0)
        elif mode == "kaping":  # one flat similarity over the frontier's whole triple text
            def total(pair):
                return np_cosine(query_vec, EMB.embed(f"{frontier} {pair[0]} {pair[1]}"))
        else:  # vanilla: one flat similarity over the joined step text
            def total(pair):
                return np_cosine(query_vec, EMB.embed(f"{pair[0]} {pair[1]}"))
        ranked = sorted(pairs, key=lambda p: (-total(p), p[0], p[1]))
        per_hop.append(set(ranked[:m]))
        frontier = step.entity

    hits = sum(
        1 for hop, step in enumerate(gt.steps) if (step.relation, step.entity) in per_hop[hop]
    )
    return hits / len(gt.steps)


def test_criterion_08_lookahead_coverage_beats_baselines():
    m, alpha = 2, 0.3
    for n_distractors in (3, 5, 8):
        g, gt, query_text = rescue_family(n_distractors)
        idx = build_index(g, EMB)

        cr = {}
        for mode in ("path-rag", "vanilla", "kaping"):
            config = RetrievalConfig(m=m, alpha=alpha, mode=mode)
            sets = retrieved_steps_along_path(bound(g, idx, query_text), gt, config)
            cr[mode] = library_coverage_ratio(sets, gt)
            assert cr[mode] == brute_force_cr(g, gt, query_text, mode, m, alpha)

        assert cr["path-rag"] > cr["vanilla"]
        assert cr["path-rag"] >= cr["kaping"]
    ok(8, f"CR path-rag={cr['path-rag']:.2f} > vanilla={cr['vanilla']:.2f}, "
          f">= kaping={cr['kaping']:.2f} for 3/5/8 distractors, oracle-matched")


# --- 9. determinism and replay ---------------------------------------------------


def test_criterion_09_byte_identical_traces_and_replay():
    def one_run():
        g, idx, answer_key, plan_script = fixture_world()
        client = LlmClient(MockBackend(g, answer_key, plan_script))
        return run_dvbs(BIEBER_Q, ["Justin_Bieber"], ScoreContext(g, idx, EMB), client), (g, idx)

    (answers_a, trace_a), (g, idx) = one_run()
    (answers_b, trace_b), _ = one_run()
    assert trace_a.to_jsonl() == trace_b.to_jsonl()
    assert answers_a == answers_b

    # Replay re-serves recorded completions; no mock script is in reach.
    replay_client = LlmClient(ReplayBackend(trace_a.call_records()))
    replay_answers, replay_trace = run_dvbs(
        BIEBER_Q, ["Justin_Bieber"], ScoreContext(g, idx, EMB), replay_client
    )
    assert replay_answers.answers == answers_a.answers
    assert replay_trace.to_jsonl() == trace_a.to_jsonl()
    ok(9, "repeat runs byte-identical; replay reproduced answers without the backend")


# --- 10. metric unit suite -------------------------------------------------------


def random_token(rng: random.Random, solid: bool = False) -> str:
    """A short random string; ``solid`` guarantees it survives normalization,
    which the gold side of every metric requires."""
    alphabet = string.ascii_letters + string.digits + "_ "
    text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
    if solid:
        text = rng.choice(string.ascii_lowercase) + text
    return text


def test_criterion_10_metric_units_and_bounds():
    assert f1_score(["a", "b", "c"], ["a", "b", "c", "d", "e"]) == 0.75

    rng = random.Random(99)
    for _ in range(1000):
        text = random_token(rng)
        assert normalize(normalize(text)) == normalize(text)

    for _ in range(10_000):
        gold = [random_token(rng, solid=True) for _ in range(rng.randint(1, 4))]
        predicted = tuple(random_token(rng) for _ in range(rng.randint(0, 4)))
        answer_set = AnswerSet(answers=predicted)
        assert hits_at_1(answer_set, gold) in (0, 1)
        assert accuracy(answer_set, gold) in (0, 1)
        score = f1_score(predicted, gold)
        assert 0.0 <= score <= 1.0
    ok(10, "f1 3-of-5 = 0.75; normalization idempotent; 10k random pairs stay in [0, 1]")
