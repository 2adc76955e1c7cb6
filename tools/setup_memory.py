"""Print the memory each safe-set backend's set-up takes, one line per backend.

Each of ``simlab.build_grid_backend`` and ``simlab.build_moas_backend`` is
built in its own new ``python -B`` process that imports the ``actiongov``
of this tree, after ``build_rig`` of the config.  The line gives:

- ``maxrss_before`` and ``maxrss_after``: the process's ``ru_maxrss`` in
  MB just before and just after the first build (the figure a fresh run
  such as ``bench/run.py`` reports as ``peak_rss_mb`` is the larger of
  the two, plus what the run does later);
- ``minflt``: the minor page faults of that first build;
- ``traced_peak``: the ``tracemalloc`` peak in MB of a second build in
  the same process, once the first one's result is freed.  It counts
  the Python and numpy allocations of the build alone.

Comparing two checkouts is one diff of a run in each:

    diff <(python A/tools/setup_memory.py --config configs/double_integrator.json) \\
         <(python B/tools/setup_memory.py --config configs/double_integrator.json)

The shipped config takes a few seconds on a 2-core machine.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BACKENDS = ("grid", "moas")
SRC = Path(__file__).resolve().parent.parent / "src"

MEASURE = """
import gc, json, resource, sys, tracemalloc
from actiongov import simlab
backend, config = sys.argv[1:]
build = getattr(simlab, f"build_{backend}_backend")
cfg = simlab.ScenarioConfig.from_json(config)
rig = simlab.build_rig(cfg)
before = resource.getrusage(resource.RUSAGE_SELF)
result = build(cfg, rig)
after = resource.getrusage(resource.RUSAGE_SELF)
del result
gc.collect()
tracemalloc.start()
build(cfg, rig)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(json.dumps({"maxrss_before": before.ru_maxrss / 1024, "maxrss_after": after.ru_maxrss / 1024,
                  "minflt": after.ru_minflt - before.ru_minflt, "traced_peak": peak / 2**20}))
"""


def measure(backend: str, config: Path) -> dict:
    """The figures of one backend's set-up, from a new process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-B", "-c", MEASURE, backend, str(config)],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"build_{backend}_backend exited with {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, type=Path, help="path to the JSON config")
    args = parser.parse_args(argv)
    print(f"{'backend':<8} {'maxrss_before':>14} {'maxrss_after':>13} {'minflt':>8} "
          f"{'traced_peak':>12}")
    for backend in BACKENDS:
        m = measure(backend, args.config.resolve())
        print(f"{backend:<8} {m['maxrss_before']:>11.2f} MB {m['maxrss_after']:>10.2f} MB "
              f"{m['minflt']:>8d} {m['traced_peak']:>9.2f} MB", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
