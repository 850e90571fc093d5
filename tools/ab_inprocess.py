"""Interleaved set-ups and questions of two revisions in one process, for
readings that subprocess pairs (``tools/ab_pairs.py``) cannot resolve.

Usage, from the root of a checkout:

    python3 tools/ab_inprocess.py --parent REV --change REV --workload slow-llm-eval \
        --seed 3001 --passes 5 --label NAME

Both revisions are exported with ``git archive`` and imported into this one
process as two packages, ``kgreason_parent`` and ``kgreason_change``. The
workload's inputs are generated once from ``--seed`` by this checkout's
``perfbench``. Each pass runs perfbench's set-up (``load_triples`` ->
``build_index`` -> ``save_index`` -> ``load_index``) once per side and then
every question once per side through ``evaluate_question``, one question at
a time, behind perfbench's ``LatencyBackend`` with the workload's model
latency (or ``--latency-ms``). The parent goes first in even passes and the
change in odd ones, and within a pass the order flips from question to
question, so a drift of the machine's speed lands on both sides alike.

Every question's trace must be byte-identical between the sides; the first
that differs ends the run with exit 1 and nothing written. Otherwise the
``inprocess`` section of ``BENCH_<label>.json`` gains, under the workload's
name, one entry: the revisions and settings; per side, every pass's set-up
seconds with their median and quartiles, the sum over questions of each
question's fastest time, the median of those fastest times, and one pass's
calls and prompt tokens; the median over questions of the change/parent
ratio of fastest times, and the median over passes of the change/parent
ratio of set-up seconds, each with a bootstrap 95% interval (2,000
resamples, seeded from ``--seed``).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import logging
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "perfbench")]

from ab_pairs import export, quartiles  # noqa: E402
from run import WORKLOADS, generate  # noqa: E402
from worker import LatencyBackend, set_up  # noqa: E402

SIDES = ("parent", "change")


def import_tree(src: Path, name: str):
    """The ``kgreason`` package under ``src``, imported as ``name``."""
    init = src / "kgreason" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    logging.getLogger(name).setLevel(logging.ERROR)
    return package


def median_interval(values, rng, resamples: int = 2000) -> list[float]:
    """A bootstrap 95% interval of the median of ``values``."""
    draws = rng.choice(np.asarray(values, dtype=float), size=(resamples, len(values)))
    low, high = np.percentile(np.median(draws, axis=1), [2.5, 97.5])
    return [float(low), float(high)]


def side_summary(setups: list[float], fastest: dict[str, float], calls: int, tokens: int) -> dict:
    q1, median, q3 = quartiles(setups)
    return {
        "setup_s": setups,
        "setup_s_median": median,
        "setup_s_quartiles": [q1, q3],
        "question_min_s_sum": sum(fastest.values()),
        "question_min_ms_median": 1000 * float(np.median(list(fastest.values()))),
        "llm_calls": calls,
        "prompt_tokens": tokens,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--latency-ms", type=float, help="model latency per call; the workload's by default")
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    latency_s = w.latency_s if args.latency_ms is None else args.latency_ms / 1000

    setups = {side: [] for side in SIDES}
    fastest = {side: {} for side in SIDES}
    usage = {}
    with tempfile.TemporaryDirectory(prefix="ab-inprocess-") as tmp:
        tmp = Path(tmp)
        kr = {}
        for side in SIDES:
            export(getattr(args, side), tmp / side)
            kr[side] = import_tree(tmp / side / "src", f"kgreason_{side}")
        (tmp / "inputs").mkdir()
        inputs, _ = generate(w, args.seed, args.workload, tmp / "inputs")
        loaded = {}
        for i in range(args.passes):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                g, idx, seconds = set_up(kr[side], inputs, tmp / f"index-{side}")
                setups[side].append(seconds)
                loaded[side] = g, idx
            if i == 0:
                runs = {}
                for side in SIDES:
                    k, (g, idx) = kr[side], loaded[side]
                    answer_key, plan_script = k.llm.load_mock_script(inputs["script"])
                    runs[side] = (
                        k.load_dataset(inputs["dataset"]), g, idx, k.HashingEmbedder(dimension=idx.dimension),
                        LatencyBackend(k.MockBackend(g, answer_key, plan_script), latency_s),
                        k.SearchConfig(max_depth=w.max_depth), k.RetrievalConfig(),
                    )
            totals = {side: [0, 0] for side in SIDES}
            for n, record in enumerate(runs["parent"][0]):
                texts = {}
                for side in order if n % 2 == 0 else order[::-1]:
                    dataset, *rest = runs[side]
                    start = time.perf_counter()
                    result, trace = kr[side].evaluate.evaluate_question(dataset[n], *rest)
                    seconds = time.perf_counter() - start
                    fastest[side][record.id] = min(seconds, fastest[side].get(record.id, seconds))
                    texts[side] = trace.to_jsonl() if trace is not None else None
                    totals[side][0] += result.llm_calls
                    totals[side][1] += result.prompt_tokens
                if texts["parent"] != texts["change"]:
                    print(f"ab_inprocess: question {record.id}: traces differ", file=sys.stderr)
                    return 1
            usage = totals
            print(f"ab_inprocess: {args.workload} pass {i + 1} of {args.passes} done", file=sys.stderr)

    rng = np.random.default_rng(args.seed)
    ratios = [fastest["change"][q] / fastest["parent"][q] for q in fastest["parent"]]
    setup_ratios = [c / p for p, c in zip(setups["parent"], setups["change"])]
    entry = {
        "revisions": {side: getattr(args, side) for side in SIDES},
        "seed": args.seed,
        "passes": args.passes,
        "latency_s": latency_s,
        "questions": len(ratios),
        "question_ratio_median": float(np.median(ratios)),
        "question_ratio_interval": median_interval(ratios, rng),
        "setup_ratio_median": float(np.median(setup_ratios)),
        "setup_ratio_interval": median_interval(setup_ratios, rng),
        **{side: side_summary(setups[side], fastest[side], *usage[side]) for side in SIDES},
    }
    path = ROOT / f"BENCH_{args.label}.json"
    bench = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {"label": args.label}
    bench.setdefault("inprocess", {}).setdefault(args.workload, []).append(entry)
    path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({k: v for k, v in entry.items() if k not in SIDES}), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
