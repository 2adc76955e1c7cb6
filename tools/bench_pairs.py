"""Run the benchmark of two checkouts in alternating pairs and compare them.

Each run is one ``bench/run.py --workload W`` process of its own tree, at
the same seed, size and length.  The two trees take turns, and the one
that goes first swaps every pair.  One line per run gives its end-to-end
metrics.  Then one line per metric gives each tree's median and
quartiles, the first tree's interquartile range, and how many pairs the
second tree won (ties count for neither).  The last column says whether
the second tree's gain holds: it wins at least nine tenths of the pairs,
and the medians differ by more than the first tree's interquartile range.
For example, parent against change:

    python tools/bench_pairs.py PARENT CHANGE --workload grid-qlearn \\
        --pairs 10 --seconds 55 --seed 0

Every run must be ``correct`` with no failed operation; otherwise the
script stops at that run and exits with 1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def run_once(tree: Path, args) -> dict:
    """``{metric: value}`` of one benchmark run of ``tree``."""
    cmd = [sys.executable, "-B", str(tree / "bench" / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--size", args.size]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: bench/run.py exited with {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{tree}: run not correct or with failed operations: "
                         f"correct={result['correct']} failed={result['failed']} "
                         f"of {result['attempted']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(name: str, lower: bool, a: list, b: list) -> str:
    """One line comparing metric ``name`` over the pairs ``zip(a, b)``."""
    qa, qb = np.percentile(a, [25, 50, 75]), np.percentile(b, [25, 50, 75])
    iqr = qa[2] - qa[0]
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    better = qa[1] - qb[1] if lower else qb[1] - qa[1]
    gain = wins >= 0.9 * len(a) and better > iqr
    return (f"{name:<12} A {qa[1]:10.4f} [{qa[0]:.4f}, {qa[2]:.4f}]  "
            f"B {qb[1]:10.4f} [{qb[0]:.4f}, {qb[2]:.4f}]  "
            f"A IQR {iqr:.4f}  B wins {wins}/{len(a)}  gain {'yes' if gain else 'no'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path, help="first checkout (e.g. the parent)")
    parser.add_argument("tree_b", type=Path, help="second checkout (e.g. the change)")
    parser.add_argument("--workload", required=True, help="bench workload, e.g. grid-qlearn")
    parser.add_argument("--pairs", type=int, default=10, help="number of A/B pairs")
    parser.add_argument("--seconds", type=float, default=55.0, help="length of each run")
    parser.add_argument("--seed", type=int, default=0, help="workload seed of every run")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    trees = {"A": args.tree_a.resolve(), "B": args.tree_b.resolve()}
    bench = json.loads((trees["B"] / "BENCHMARK.json").read_text())
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    values = {"A": [], "B": []}
    for k in range(args.pairs):
        for name in ("AB" if k % 2 == 0 else "BA"):
            metrics = run_once(trees[name], args)
            values[name].append(metrics)
            shown = "  ".join(f"{m} {metrics[m]:.4f}" for m in lower)
            print(f"pair {k + 1} {name}  {shown}", flush=True)
    for m, is_lower in lower.items():
        print(summary(m, is_lower, [r[m] for r in values["A"]], [r[m] for r in values["B"]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
