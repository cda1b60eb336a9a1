"""Alternating before/after pairs of `bench/run.py`, summarized per metric.

    python3 tools/bench_pairs.py PARENT CHANGE --workload box-nd [--workload constants ...]
                                 [--seed 0] [--pairs 10] [--seconds 10]

PARENT and CHANGE are the roots of two checkouts (a `git archive` copy of
the parent commit and a copy of the change, say).  For each workload, pair i
runs `python3 bench/run.py --workload W --seed S --seconds T --trace 0` once
in each checkout, from its root; the parent goes first in even pairs and the
change in odd ones, so a drift of the host's speed does not favour one side.
Progress goes to stderr.  Stdout gets one JSON object in the `workloads`
layout of the `BENCH_<n>.json` files: for each `W@seedS`, the pair count,
whether every job's output passed its check, the failed-job count, and for
each end-to-end metric the per-pair values, each side's median and
quartiles (`statistics.quantiles(n=4)` over the pairs' run medians), the
number of pairs in which the change was lower, the change's median relative
to the parent's, and the parent's interquartile distance.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(pairs: list[dict]) -> dict:
    """The `BENCH_<n>.json` entry of one workload from its pairs.

    Each pair is {"first": side, "parent": result, "change": result}, a
    result being the last stdout line of `bench/run.py`: {"correct",
    "failed", "metrics": {name: {"value", "unit"}}}.  Metrics missing from
    either side of any pair are left out.
    """
    names = [m for m in pairs[0]["parent"]["metrics"]
             if all(m in p[side]["metrics"] for p in pairs for side in SIDES)]
    metrics = {}
    for name in names:
        per_pair = [{"first": p["first"], **{side: p[side]["metrics"][name]["value"] for side in SIDES}}
                    for p in pairs]
        stats = {side: _quartiles([p[side] for p in per_pair]) for side in SIDES}
        parent, change = stats["parent"]["median"], stats["change"]["median"]
        metrics[name] = {
            **stats,
            "pairs_change_lower": sum(p["change"] < p["parent"] for p in per_pair),
            "median_change_rel": round((change - parent) / parent, 4) if parent else None,
            "parent_iqr": stats["parent"]["q3"] - stats["parent"]["q1"],
            "per_pair": per_pair,
        }
    results = [p[side] for p in pairs for side in SIDES]
    return {"pairs": len(pairs), "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results), "metrics": metrics}


def _run(root: str, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench/run.py in {root} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the checkout to compare against")
    parser.add_argument("change", help="root of the checkout with the change")
    parser.add_argument("--workload", action="append", required=True, help="repeat for several workloads")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0, help="--seconds of each bench/run.py run")
    args = parser.parse_args(argv)
    roots = {"parent": args.parent, "change": args.change}
    workloads = {}
    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                pair[side] = _run(roots[side], workload, args.seed, args.seconds)
            pairs.append(pair)
            wall = {side: pair[side]["metrics"]["wall_s"]["value"] for side in SIDES}
            print(f"{workload} pair {i + 1}/{args.pairs}: wall_s parent {wall['parent']:.6g}, "
                  f"change {wall['change']:.6g}", file=sys.stderr)
        workloads[f"{workload}@seed{args.seed}"] = summarize(pairs)
    print(json.dumps({"workloads": workloads}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
