"""Time one CLI subcommand of two checkouts in alternating fresh processes.

Each run is a new ``python -B`` process that imports ``actiongov`` from
the ``src`` of its tree and runs one subcommand into its own temporary
directory, so no run sees another's caches or warm heap.  The two trees
take turns, and the one that goes first swaps every pair.  One line per
run gives its wall time and the sha256 of every artifact it wrote; the
last lines give each tree's median time and whether every run wrote the
same bytes.  For example, parent against change:

    python tools/cli_pairs.py PARENT CHANGE --command learn-q \\
        --config configs/double_integrator.json --pairs 3
"""

from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

RUN = "import sys; from actiongov.cli import main; sys.exit(main(sys.argv[1:]))"


def run_once(tree: Path, command: str, config: Path) -> tuple:
    """Wall time in seconds and ``{file name: sha256}`` of one fresh run."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryDirectory() as out:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-B", "-c", RUN, command, "--config", str(config), "--out", out],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise SystemExit(f"{tree}: actiongov {command} exited with {proc.returncode}\n"
                             f"{proc.stderr}")
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(Path(out).iterdir())}
    return wall, digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path, help="first checkout (e.g. the parent)")
    parser.add_argument("tree_b", type=Path, help="second checkout (e.g. the change)")
    parser.add_argument("--command", required=True, help="actiongov subcommand, e.g. learn-q")
    parser.add_argument("--config", required=True, type=Path, help="path to the JSON config")
    parser.add_argument("--pairs", type=int, default=3, help="number of A/B pairs")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    trees = {"A": args.tree_a.resolve(), "B": args.tree_b.resolve()}
    config = args.config.resolve()
    times = {"A": [], "B": []}
    outputs = set()
    for k in range(args.pairs):
        for name in ("AB" if k % 2 == 0 else "BA"):
            wall, digests = run_once(trees[name], args.command, config)
            times[name].append(wall)
            outputs.add(tuple(digests.items()))
            files = "  ".join(f"{d} {f}" for f, d in digests.items())
            print(f"pair {k + 1} {name} {wall:8.3f} s  {files}", flush=True)
    for name, tree in trees.items():
        print(f"median {name} {statistics.median(times[name]):8.3f} s  {tree}")
    print(f"artifacts {'identical' if len(outputs) == 1 else 'DIFFER'} across all runs")
    return 0 if len(outputs) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
