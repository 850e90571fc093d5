"""Alternating parent/change pairs of benchmark runs, summarized into a
``BENCH_<label>.json`` at the root of this checkout.

Usage, from the root of a checkout:

    python3 tools/ab_pairs.py --parent REV --change REV --workload uniform-eval \
        --seeds 3001-3010 --seconds 40 --label pr29

Both revisions are exported with ``git archive`` into a temporary directory,
and ``perfbench/run.py --workload W --seed N --seconds S --trace 0`` runs in
each tree, once per seed. Pair i (0-based) runs the parent first when i is
even and the change first when it is odd. Every run's last JSON line and
outputs digest are kept. The first run that exits non-zero or reads
``correct: false`` ends the series; it is recorded and no summary is made.

The workload's section of the BENCH file (other workloads' sections are
kept; a section of the same parent, change and seconds gains the new pairs,
so a second series is summarized with the first) holds every run and, per
end-to-end metric declared in
``BENCHMARK.json``, each side's median and quartiles (``numpy.percentile``,
linear), the change's wins (ties count for neither side), whether a claim
of a gain would hold (at least 9 of 10 pairs won, and the medians differ by
more than the parent's interquartile range), whether the change's median is
within the metric's bound, and whether the metric is unresolved: the
parent's own interquartile range, relative to its median, is wider than the
bound, and not every change run reads better than every parent run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DIGEST_PREFIX = "outputs digest (id, answers, paths): "
MACHINE_PREFIX = "machine: "
CLAIM_MIN_PAIRS = 10
CLAIM_WIN_SHARE = 0.9


def export(rev: str, dest: Path) -> None:
    """The tree of ``rev`` in this repository, written under ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", rev], stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    finally:
        archive.stdout.close()
        if archive.wait():
            raise SystemExit(f"ab_pairs: git archive {rev} failed")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: its exit code, last JSON line (None if
    it printed none), outputs digest and machine line."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    found = {prefix: line.removeprefix(prefix) for line in lines
             for prefix in (DIGEST_PREFIX, MACHINE_PREFIX) if line.startswith(prefix)}
    return {"exit": done.returncode, "result": result, "digest": found.get(DIGEST_PREFIX),
            "machine": json.loads(found.get(MACHINE_PREFIX, "null")),
            "stderr_tail": done.stderr.splitlines()[-5:]}


def failed(run: dict) -> bool:
    return run["exit"] != 0 or not run["result"] or run["result"].get("correct") is not True


def quartiles(values) -> tuple[float, float, float]:
    q1, median, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return float(q1), float(median), float(q3)


def summarize(pairs: list[dict], declared: list[dict]) -> dict:
    """Per declared metric, the statistics of the pairs' ``parent`` and
    ``change`` runs (each a ``{metric: value}`` dict). ``declared`` is
    ``BENCHMARK.json``'s ``end_to_end`` list: name, better and bound."""
    out = {}
    for metric in declared:
        name, lower_is_better, bound = metric["name"], metric["better"] == "lower", metric["bound"]
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        p_q1, p_med, p_q3 = quartiles(parent)
        c_q1, c_med, c_q3 = quartiles(change)
        sign = -1.0 if lower_is_better else 1.0
        gains = [sign * (c - p) for p, c in zip(parent, change)]
        wins = sum(gain > 0 for gain in gains)
        ties = sum(gain == 0 for gain in gains)
        improvement = sign * (c_med - p_med)  # positive when the change is better
        parent_iqr = p_q3 - p_q1
        worsening = -improvement / abs(p_med) if p_med else (0.0 if improvement >= 0 else float("inf"))
        spread = parent_iqr / abs(p_med) if p_med else (0.0 if parent_iqr == 0 else float("inf"))
        every_change_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
        out[name] = {
            "better": metric["better"],
            "bound": bound,
            "pairs": len(pairs),
            "parent_median": p_med,
            "parent_quartiles": [p_q1, p_q3],
            "parent_iqr": parent_iqr,
            "change_median": c_med,
            "change_quartiles": [c_q1, c_q3],
            "median_difference": c_med - p_med,
            "relative_difference": (c_med - p_med) / abs(p_med) if p_med else None,
            "change_wins": wins,
            "ties": ties,
            "claim_holds": len(pairs) >= CLAIM_MIN_PAIRS
            and wins >= CLAIM_WIN_SHARE * len(pairs)
            and improvement > parent_iqr,
            "within_bound": worsening <= bound,
            "unresolved": spread > bound and not every_change_run_better,
        }
    return out


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="A-B, inclusive")
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)

    runs, failure = [], None
    with tempfile.TemporaryDirectory(prefix="ab-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        for side, tree in trees.items():
            export(getattr(args, side), tree)
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], args.workload, seed, args.seconds)
                print(f"ab_pairs: {args.workload} seed {seed} {side}: exit {pair[side]['exit']}", file=sys.stderr)
                if failed(pair[side]):
                    failure = {"seed": seed, "side": side}
                    break
            runs.append(pair)
            if failure:
                break

    path = ROOT / f"BENCH_{args.label}.json"
    bench = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {"label": args.label}
    seeds = [f"{args.seeds[0]}-{args.seeds[-1]}"]
    earlier = bench.get("workloads", {}).get(args.workload)
    if earlier and [earlier[key] for key in ("parent", "change", "seconds")] == [args.parent, args.change, args.seconds]:
        # another series of the same comparison: every pair run counts
        runs, seeds = earlier["runs"] + runs, earlier["seeds"] + seeds
        failure = failure or earlier["failure"]
    section = {
        "parent": args.parent,
        "change": args.change,
        "seeds": seeds,
        "seconds": args.seconds,
        "command": "python3 perfbench/run.py --workload <workload> --seed <seed> --seconds <seconds> --trace 0",
        "runs": runs,
        "failure": failure,
    }
    if failure is None:
        values = [{side: {name: m["value"] for name, m in pair[side]["result"]["metrics"].items()}
                   for side in ("parent", "change")} for pair in runs]
        section["digests_identical"] = all(pair["parent"]["digest"] == pair["change"]["digest"] for pair in runs)
        section["summary"] = summarize(values, benchmark["end_to_end"])
    bench.setdefault("workloads", {})[args.workload] = section
    path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"ab_pairs: wrote {args.workload} to {path.name}", file=sys.stderr)
    return 1 if failure else 0


if __name__ == "__main__":
    sys.exit(main())
