"""kgreason benchmark: seeded synthetic graphs and QA datasets, run through
the public API the way ``kgreason index`` then ``kgreason eval`` would.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload uniform-eval --seed 1 --seconds 40 --trace 0

Each run generates a graph (written as TSV), a dataset and a mock-backend
script from ``--seed``. It then starts worker processes (``worker.py``) one
after another until ``--seconds`` are used, at least one. Each worker sets
up ``load_triples`` -> ``build_index`` -> ``save_index`` -> ``load_index``
and evaluates the whole dataset once with ``run_experiment``, in an order
shuffled from the seed and the worker's number. Fresh processes are used
because on a shared machine a process's speed varies more between
processes than between passes within one; the reported timings are
medians over the workers. The load is closed-loop: each
worker's ``run_experiment`` threads are the clients.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A failed correctness check prints
that object with ``correct: false`` and exits 1; missing program sources
exit 2 without a result.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one worker
that makes an untraced and a traced pass over the same dataset and reports
the per-layer metrics, whose counts depend only on the seed, plus the
traced pass's wall time over the untraced one; the spans are written to
``perfbench/work/spans-<workload>.jsonl``.

Workloads, and why each is here:

- ``uniform-eval``: uniform random graph, 20k entities and 100k triples
  (out-degree about 5), depth-2 planted questions, no model latency, one
  thread. Typical-frontier Path-RAG retrieval (``candidate_steps`` and its
  per-pair ``cosine`` calls) dominates the questions, and set-up is large.
- ``hub-eval``: power-law graph, 10k entities and 40k triples, with a few
  hubs at the 1k out-degree cap; topics drawn in proportion to out-degree, as
  real KG topics are popular entities, and every hub's tails holding the
  same mix of out-degrees for every seed. No model latency, one thread. Hub
  frontiers and the ``neighbor_cap`` branch make the p90 tail.
- ``slow-llm-eval``: small uniform graph (2k entities, 8k triples), depth-3
  questions, beam 4, depth 3, 10 ms of sleep per model call, two threads.
  Most wall time waits on the model, so concurrent verification should move
  this workload and faster retrieval should leave it flat.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen
from tracing import percentile, samples_beyond

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
PACKAGE = "kgreason"
P_TAIL = 90
DEADLINE_S = 170


@dataclass(frozen=True)
class Workload:
    shape: str
    entities: int
    triples: int
    relations: int
    questions: int
    depth: int
    max_depth: int = 4
    latency_s: float = 0.0
    parallelism: int = 1
    setups: int = 1  # per worker
    max_degree: int = 0


WORKLOADS = {
    "uniform-eval": Workload("uniform", 20_000, 100_000, 200, questions=400, depth=2),
    "hub-eval": Workload("power-law", 10_000, 40_000, 100, questions=150, depth=2, max_degree=1000),
    "slow-llm-eval": Workload(
        "uniform", 2_000, 8_000, 100, questions=240, depth=3, max_depth=3,
        latency_s=0.010, parallelism=2, setups=5,
    ),
}


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_start": list(os.getloadavg()),
    }


def generate(w: Workload, seed: int, name: str, rundir: Path) -> tuple[dict, str]:
    rng = np.random.default_rng(seed)
    if w.shape == "uniform":
        graph = gen.uniform_graph(rng, w.entities, w.triples, w.relations)
    else:
        graph = gen.power_law_graph(rng, w.entities, w.triples, w.relations, w.max_degree)
    questions = gen.plant_questions(
        rng, graph, w.questions, w.depth, by_out_degree=w.shape == "power-law", prefix=name
    )
    paths = {"kg": rundir / "kg.tsv", "dataset": rundir / "dataset.jsonl", "script": rundir / "mock.json"}
    gen.write_tsv(graph, paths["kg"])
    gen.write_dataset(questions, paths["dataset"], paths["script"])
    shape = f"triples={len(graph.edges)} max_out_degree={int(graph.out_degree().max())}"
    return {name: str(path) for name, path in paths.items()}, shape


def run_worker(job: dict, rundir: Path, k: int, deadline: float) -> dict:
    job_path, out_path = rundir / f"job-{k}.json", rundir / f"worker-{k}.json"
    job_path.write_text(json.dumps(dict(job, order_seed=[job["seed"], k])), encoding="utf-8")
    command = [sys.executable, str(HERE / "worker.py"), str(job_path), str(out_path)]
    try:
        proc = subprocess.run(command, stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: worker {k} ran past the deadline")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker {k} exited with {proc.returncode}")
    return json.loads(out_path.read_text(encoding="utf-8"))


def end_to_end(results: list[dict]):
    """Medians over the workers (one pass each) of every timing."""
    passes = [p for r in results for p in r["passes"]]
    ids = list(passes[0]["latencies"])
    # Each question's latency is its median over the passes, so a slow
    # process or a stall of the shared machine does not land in the tail.
    latencies_ms = [statistics.median(p["latencies"][i] for p in passes) * 1000 for i in ids]
    first = results[0]["aggregates"]
    if first["coverage_ratio"] is None:
        raise SystemExit("perfbench: no coverage ratio in the report")
    setups = [s for r in results for s in r["setup_s"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "question_p50_ms": percentile(latencies_ms, 50),
        "question_p90_ms": percentile(latencies_ms, P_TAIL),
        "questions_per_s": statistics.median(len(ids) / p["wall"] for p in passes),
        "llm_calls_per_question": first["avg_llm_calls"],
        "prompt_tokens_per_question": first["avg_prompt_tokens"],
        "hits_at_1": first["hits_at_1"],
        "coverage_ratio": first["coverage_ratio"],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    n = len(latencies_ms)
    if n < 100 or samples_beyond(n, P_TAIL) < 10:
        raise SystemExit(f"perfbench: {n} latency samples are too few for p{P_TAIL}")
    each = f"mean over {n} questions"
    samples = {
        "setup_s": f"median of {len(setups)} set-ups in {len(results)} processes",
        "question_p50_ms": f"n={n} questions, each the median of {len(passes)} passes",
        "question_p90_ms": f"n={n} questions, {samples_beyond(n, P_TAIL)} beyond",
        "questions_per_s": f"median of {len(passes)} passes",
        "llm_calls_per_question": each,
        "prompt_tokens_per_question": each,
        "hits_at_1": each,
        "coverage_ratio": each,
        "peak_rss_mb": f"median of {len(results)} worker processes",
    }
    return metrics, samples


def declared_units(trace: int) -> dict[str, str]:
    """Metric names and units as BENCHMARK.json declares them, in order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no {PACKAGE} sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    host = machine()
    w = WORKLOADS[args.workload]
    rundir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        inputs, shape = generate(w, args.seed, args.workload, rundir)
        job = {
            "workload": args.workload,
            "seed": args.seed,
            "inputs": inputs,
            "index_dir": str(rundir / "index"),
            "trace": args.trace,
            "setups": w.setups,
            "spans": str(WORK / f"spans-{args.workload}.jsonl"),
        }
        results: list[dict] = []
        walls: list[float] = []
        started = time.monotonic()
        # Another worker starts while at least half of one fits in the time
        # left, so the run measures about --seconds, give or take half a worker.
        while not results or (
            not args.trace and time.monotonic() - started + statistics.mean(walls) / 2 <= args.seconds
        ):
            begun = time.monotonic()
            results.append(run_worker(job, rundir, len(results), deadline))
            walls.append(time.monotonic() - begun)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    if args.trace:
        metrics = results[0]["layers"]
        samples = {}
    else:
        metrics, samples = end_to_end(results)
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    problems = [p for r in results for p in r["problems"]]
    digests = sorted({d for r in results for d in r["digests"]})
    if len(digests) != 1:
        problems.append(f"outputs differ between passes: {digests}")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)

    print(f"machine: {json.dumps(host, sort_keys=True)}")
    print(
        f"workload: {args.workload} seed={args.seed} trace={args.trace} {shape} "
        f"questions={results[0]['questions']} threads={results[0]['workers']} "
        f"latency_ms={w.latency_s * 1000:g} processes={len(results)}"
    )
    for name, unit in units.items():
        note = f"  ({samples[name]})" if name in samples else ""
        print(f"  {name:34s} {metrics[name]:>16.6f} {unit}{note}")
    if args.trace:
        print(f"probes not found: {', '.join(results[0]['missing_probes']) or 'none'}")
    print(f"outputs digest (id, answers, paths): {' '.join(digests)}")
    print(f"questions: {attempted} attempted, {failed} failed")
    for problem in problems:
        print(f"CORRECTNESS: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = dict(result, machine=host, digests=digests, samples=samples)
    (WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8"
    )
    print(json.dumps(result, sort_keys=True))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
