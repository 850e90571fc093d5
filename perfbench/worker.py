"""One benchmark worker process: set up the program from the generated
inputs, run the dataset once through ``run_experiment`` (or, traced, one
untraced and one traced pass), check the outputs and write the raw
measurements as JSON.

Usage: ``python3 perfbench/worker.py JOB.json OUT.json``; ``run.py`` writes
the job and launches the workers one after another.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import resource
import shutil
import sys
import threading
import time
from pathlib import Path

import numpy as np

from run import P_TAIL, PACKAGE, ROOT, WORKLOADS, Workload
from tracing import Tracer, percentile


def import_program():
    """Import kgreason from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no {PACKAGE} sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import kgreason

    if Path(kgreason.__file__).resolve().parent != (src / PACKAGE).resolve():
        print(f"perfbench: imported {kgreason.__file__}, not the checkout's", file=sys.stderr)
        sys.exit(2)
    logging.getLogger(PACKAGE).setLevel(logging.ERROR)
    return kgreason


class LatencyBackend:
    """Wraps a MockBackend and sleeps a fixed time per call. Keeps the
    wrapped backend's ``concurrency_limit`` and books each call's time
    (mock work plus sleep) as time spent waiting on the model."""

    def __init__(self, inner, latency_s: float):
        self.inner = inner
        self.latency_s = latency_s
        self.concurrency_limit = inner.concurrency_limit
        self._lock = threading.Lock()
        self.calls = 0
        self.waited_s = 0.0

    def complete(self, rendered, params):
        start = time.perf_counter()
        completion = self.inner.complete(rendered, params)
        if self.latency_s:
            time.sleep(self.latency_s)
        elapsed = time.perf_counter() - start
        with self._lock:
            self.calls += 1
            self.waited_s += elapsed
        return completion

    def reset(self) -> None:
        with self._lock:
            self.calls = 0
            self.waited_s = 0.0


def set_up(kr, inputs: dict, index_dir: Path, timed=None):
    """TSV -> graph -> index -> file -> loaded index, as ``kgreason index``
    and ``kgreason eval`` do. Returns the graph, the loaded index and the
    seconds taken; ``timed(name, fn)`` may wrap each step."""
    timed = timed or (lambda name, fn: fn)
    shutil.rmtree(index_dir, ignore_errors=True)
    index_dir.mkdir()
    index_path = index_dir / "kg.index"
    start = time.perf_counter()
    with open(inputs["kg"], "r", encoding="utf-8") as fh:
        g = timed("kg.load_triples", kr.load_triples)(fh)
    built = timed("embedding.build_index", kr.build_index)(g, kr.HashingEmbedder())
    timed("embedding.save_index", kr.save_index)(built, index_path)
    del built
    idx = timed("embedding.load_index", kr.load_index)(index_path)
    return g, idx, time.perf_counter() - start


class Harness:
    """One loaded workload: graph, index, dataset and backend."""

    def __init__(self, kr, w: Workload, g, idx, inputs: dict):
        from kgreason.llm import load_mock_script

        self.kr = kr
        self.w = w
        self.g = g
        self.idx = idx
        self.emb = kr.HashingEmbedder(dimension=idx.dimension)
        self.dataset = kr.load_dataset(str(inputs["dataset"]))
        answer_key, plan_script = load_mock_script(str(inputs["script"]))
        self.backend = LatencyBackend(kr.MockBackend(g, answer_key, plan_script), w.latency_s)
        self.search_config = kr.SearchConfig(max_depth=w.max_depth)
        self.retrieval_config = kr.RetrievalConfig()
        self.workers = max(1, min(w.parallelism, self.backend.concurrency_limit, len(self.dataset)))

    def run_pass(self, rng=None):
        """Evaluate the whole dataset once, in dataset order or, given
        ``rng``, in a shuffled order; each question is timed from outside,
        around ``evaluate_question``. Shuffling spreads the few heavy
        questions over the pass, so a short stall of the machine lands on
        different questions in different passes and the per-question
        median over passes drops it."""
        from kgreason import evaluate

        dataset = self.dataset
        if rng is not None:
            dataset = [dataset[i] for i in rng.permutation(len(dataset))]

        latencies: dict[str, float] = {}
        inner = evaluate.evaluate_question

        def timed(record, *args, **kwargs):
            start = time.perf_counter()
            try:
                return inner(record, *args, **kwargs)
            finally:
                latencies[record.id] = time.perf_counter() - start

        evaluate.evaluate_question = timed
        try:
            start = time.perf_counter()
            report = self.kr.run_experiment(
                dataset, self.g, self.idx, self.emb, self.backend,
                self.search_config, self.retrieval_config, parallelism=self.w.parallelism,
            )
            wall = time.perf_counter() - start
        finally:
            evaluate.evaluate_question = inner
        return report, wall, latencies

    def trace_mismatches(self, sample: int = 4) -> list[str]:
        """Records of a spread sample whose two traces differ byte for byte."""
        from kgreason.evaluate import evaluate_question

        step = max(1, len(self.dataset) // sample)
        problems = []
        for record in self.dataset[::step][:sample]:
            texts = []
            for _ in range(2):
                _, trace = evaluate_question(
                    record, self.g, self.idx, self.emb, self.backend,
                    self.search_config, self.retrieval_config,
                )
                texts.append(trace.to_jsonl() if trace is not None else None)
            if texts[0] is None or texts[0] != texts[1]:
                problems.append(f"question {record.id}: traces of two runs differ")
        return problems

    def output_problems(self, report) -> list[str]:
        budget = self.kr.call_budget(self.search_config)
        problems = []
        for r in report.results:
            if r.failed:
                problems.append(f"question {r.record_id} failed: {r.failure}")
            if r.llm_calls > budget:
                problems.append(f"question {r.record_id}: {r.llm_calls} model calls > budget {budget}")
            for text in r.paths:
                path = self.kr.ReasoningPath.from_arrow(text)
                if not self.kr.validate_path(self.g, path).all_valid:
                    problems.append(f"question {r.record_id}: invalid path {text!r}")
        return problems


def digest(report) -> str:
    """sha256 of every question's (id, answers, paths), in id order."""
    rows = sorted([r.record_id, list(r.answers), list(r.paths)] for r in report.results)
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def traced(h: Harness, tracer: Tracer, index_bytes: int):
    """One untraced and one traced pass; per-layer metrics from the spans
    ``tracer`` already holds from set-up and those of the traced pass."""
    from kgreason import search

    report_plain, wall_plain, _ = h.run_pass()
    neighbors = h.kr.neighbors
    cap_default = getattr(h.retrieval_config, "neighbor_cap", math.inf)

    def lookahead_counts(g, idx, query_vec, step, alpha, neighbor_cap=cap_default):
        onward = len(neighbors(g, step.entity))
        return {
            "pathrag.lookahead_pairs": min(onward, neighbor_cap),
            "pathrag.capped_frontiers": int(onward > neighbor_cap),
        }

    def note_pools(span, result):
        _, trace = result
        span.attrs["pools"] = [len(e.get("pool", ())) for e in trace.events if e.get("event") == "depth"]

    def note_halt(span, result):
        span.attrs["halted"] = bool(result)

    def note_mode(span, result):
        span.attrs["by_llm"] = result[1] == search.SELECT_BY_LLM

    probes = [
        ("evaluate", "evaluate_question", lambda f: tracer.span("evaluate.question", f)),
        ("search", "run_dvbs", lambda f: tracer.span("search.run_dvbs", f, note_pools)),
        ("llm", "generate_plan", lambda f: tracer.span("llm.generate_plan", f)),
        ("pathrag", "candidate_steps", lambda f: tracer.span("pathrag.candidate_steps", f)),
        ("search", "select_steps", lambda f: tracer.span("search.select_steps", f, note_mode)),
        ("search", "verify_global", lambda f: tracer.span("search.verify", f, note_halt)),
        ("search", "adequacy_verify", lambda f: tracer.span("search.verify", f, note_halt)),
        ("search", "final_reason", lambda f: tracer.span("search.final_reason", f)),
        ("llm", "complete_json", lambda f: tracer.span("llm.complete_json", f)),
        ("evaluate", "retrieved_steps_along_path", lambda f: tracer.span("evaluate.coverage", f)),
        ("pathrag", "lookahead_score", lambda f: tracer.counter(f, lookahead_counts)),
        ("embedding", "cosine", lambda f: tracer.leaf("embedding.cosine", f)),
        ("embedding", "HashingEmbedder.embed", lambda f: tracer.leaf("embedding.embed", f)),
        ("kg", "neighbors", lambda f: tracer.leaf("kg.neighbors", f)),
        ("kg", "validate_path", lambda f: tracer.leaf("kg.validate_path", f)),
        ("prompts", "render", lambda f: tracer.leaf("prompts.render", f)),
        ("llm", "extract_json", lambda f: tracer.leaf("llm.extract_json", f)),
    ]
    h.backend.reset()
    with tracer.installed(PACKAGE, probes) as installed:
        report_traced, wall_traced, _ = h.run_pass()
    missing = [f"{module}.{path}" for module, path, _ in probes if f"{module}.{path}" not in installed]
    m = layer_metrics(tracer, wall_traced * h.workers, index_bytes)
    m["llm.complete_calls"] = h.backend.calls
    m["llm.complete_s"] = h.backend.waited_s
    m["trace_overhead_ratio"] = wall_traced / wall_plain
    return m, [report_plain, report_traced], missing


def layer_metrics(tracer: Tracer, busy_capacity_s: float, index_bytes: int) -> dict:
    by_name: dict[str, list] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    children = tracer.children()
    leaves = tracer.leaf_totals()

    def spans(name):
        return by_name.get(name, [])

    def total_s(name):
        return sum(s.duration for s in spans(name))

    def leaf(name):
        return leaves.get(name, [0, 0.0])

    def ratio(num, den):
        return num / den if den else 0.0

    steps_ms = [s.duration * 1000 for s in spans("pathrag.candidate_steps")] or [0.0]
    json_spans = spans("llm.complete_json") + spans("llm.generate_plan")
    json_attempts = sum(s.leaves.get("llm.extract_json", [0])[0] for s in json_spans)
    verifies = spans("search.verify")
    selects = spans("search.select_steps")
    pools = [p for s in spans("search.run_dvbs") for p in s.attrs.get("pools", ())]
    return {
        "kg.load_triples_s": total_s("kg.load_triples"),
        "kg.neighbors_calls": leaf("kg.neighbors")[0],
        "kg.neighbors_s": leaf("kg.neighbors")[1],
        "kg.validate_path_calls": leaf("kg.validate_path")[0],
        "embedding.build_index_s": total_s("embedding.build_index"),
        "embedding.save_index_s": total_s("embedding.save_index"),
        "embedding.load_index_s": total_s("embedding.load_index"),
        "embedding.index_bytes": index_bytes,
        "embedding.cosine_calls": leaf("embedding.cosine")[0],
        "embedding.cosine_s": leaf("embedding.cosine")[1],
        "embedding.embed_calls": leaf("embedding.embed")[0],
        "pathrag.candidate_steps_calls": len(spans("pathrag.candidate_steps")),
        "pathrag.candidate_steps_s": total_s("pathrag.candidate_steps"),
        "pathrag.candidate_steps_p50_ms": percentile(steps_ms, 50),
        "pathrag.candidate_steps_p90_ms": percentile(steps_ms, P_TAIL),
        "pathrag.lookahead_pairs": leaf("pathrag.lookahead_pairs")[0],
        "pathrag.capped_frontiers": leaf("pathrag.capped_frontiers")[0],
        "prompts.render_calls": leaf("prompts.render")[0],
        "prompts.render_s": leaf("prompts.render")[1],
        "llm.extract_json_calls": leaf("llm.extract_json")[0],
        "llm.extract_json_s": leaf("llm.extract_json")[1],
        "llm.json_retries": ratio(json_attempts - len(json_spans), len(json_spans)),
        "search.run_dvbs_s": total_s("search.run_dvbs"),
        "search.self_s": sum(tracer.self_seconds(s, children) for s in spans("search.run_dvbs")),
        "search.verify_calls": len(verifies),
        "search.verify_halt_ratio": ratio(sum(s.attrs["halted"] for s in verifies), len(verifies)),
        "search.select_calls": len(selects),
        "search.select_by_llm_ratio": ratio(sum(s.attrs["by_llm"] for s in selects), len(selects)),
        "search.pool_size_mean": ratio(sum(pools), len(pools)),
        "evaluate.coverage_s": total_s("evaluate.coverage"),
        "evaluate.busy_ratio": ratio(total_s("evaluate.question"), busy_capacity_s),
    }


def main(job_path: str, out_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    kr = import_program()
    inputs = {name: Path(path) for name, path in job["inputs"].items()}
    index_dir = Path(job["index_dir"])
    tracer = Tracer()
    timed = tracer.span if job["trace"] else None
    setup_times = []
    for _ in range(job["setups"]):
        g = idx = None
        g, idx, seconds = set_up(kr, inputs, index_dir, timed)
        setup_times.append(seconds)
    index_bytes = sum(p.stat().st_size for p in index_dir.iterdir())
    h = Harness(kr, WORKLOADS[job["workload"]], g, idx, inputs)
    problems = h.trace_mismatches()
    out = {"setup_s": setup_times, "workers": h.workers, "questions": len(h.dataset)}
    if job["trace"]:
        layers, reports, missing = traced(h, tracer, index_bytes)
        tracer.write(job["spans"])
        out.update(layers=layers, missing_probes=missing)
    else:
        report, wall, latencies = h.run_pass(np.random.default_rng(job["order_seed"]))
        reports = [report]
        out["passes"] = [{"wall": wall, "latencies": latencies}]
    for report in reports:
        problems.extend(h.output_problems(report))
    out.update(
        aggregates=reports[0].aggregates,
        digests=[digest(r) for r in reports],
        attempted=sum(len(r.results) for r in reports),
        failed=sum(r.aggregates["failures"] for r in reports),
        problems=problems,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    Path(out_path).write_text(json.dumps(out, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
