"""Benchmark of the action supervisor: set-up cost and supervised-step latency.

Usage (from the repository root):

    python3 bench/run.py --workload koopman-learn --seed 0 --seconds 55 --trace 0
    python3 bench/run.py --workload all          # the three workloads, one process each
    python3 bench/run.py --smoke                 # tiny sizes, checks every metric is emitted

One workload runs per process, with one BLAS/OpenMP thread, on one CPU
at a time.  The run is three blocks, each a set-up of the backend
(``setup_s`` is the median of the three) followed by identical passes of
supervised work on inputs generated from ``--seed``; the three blocks
together last ``--seconds``.  Each step of a pass is taken at its
fastest over the passes, so a slow spell of the machine has to cover the
same step in every pass to move the step metrics.  Correctness checks
(no failed or violating step, identical artifact digests across set-ups
and passes, an independent reference) run outside the timed phase.  With
``--trace 1`` a traced set-up and pass follow and the per-layer metrics
are reported instead of the end-to-end ones.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "double_integrator.json"
SPEC = HERE / "workloads.json"
NAMES = ("moas-govern", "grid-qlearn", "koopman-learn")
SETUP_REPEATS = 3  # set-ups per run, one per block of passes; setup_s is their median
TINY_GRID = {"grid_dx1": 2.5, "grid_dx2": 2.5, "grid_dv": 2.5, "grid_dw": 1.0,
             "action_du": 2.0}


def _load_library():
    """Import actiongov from this checkout's ``src``; fail if it is absent."""
    if not (SRC / "actiongov" / "__init__.py").is_file() or not CONFIG.is_file():
        sys.exit(f"error: {SRC / 'actiongov'} or {CONFIG} not found; "
                 "run from a full checkout of the repository")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import actiongov

    if Path(actiongov.__file__).resolve().parent != (SRC / "actiongov").resolve():
        sys.exit(f"error: imported actiongov from {actiongov.__file__}, not from {SRC}")


def _machine(cpus):
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "cpus": cpus}


def _median(values):
    return float(np.median(values))


def _percentile(values, q):
    return float(np.percentile(values, q))


def _blocks(wl, seed, seconds, cpus):
    """``SETUP_REPEATS`` blocks, each one set-up followed by identical passes.

    The set-ups are spread over the run, so that a slow spell of the
    machine reaches at most one of them.  ``seconds`` bounds the whole
    measured phase, set-ups included: passes repeat until the time since
    the first set-up began reaches the block's share of ``seconds`` (at
    least one pass per block), so a workload with a quick set-up gets
    more passes.  Set-ups and passes take the CPUs of ``cpus`` in turn, one
    each, so that a slow spell of one CPU reaches only some of the
    passes.  Only one backend is alive at a time, so the set-ups do not
    raise the peak memory.  Returns the last block's state and inputs, the
    set-up times and digests, and the passes (only the first keeps its
    trajectories, so memory does not grow with the number of passes).
    """
    from workloads import StepClock

    times, digests, passes = [], [], []
    start = time.perf_counter()
    for block in range(SETUP_REPEATS):
        state = inputs = None
        gc.collect()
        _pin(cpus, block)
        t0 = time.perf_counter()
        state = wl.setup()
        times.append(time.perf_counter() - t0)
        digests.append(wl.setup_digest(state))
        inputs = wl.make_inputs(state, seed)
        target = seconds * (block + 1) / SETUP_REPEATS
        block_start = len(passes)
        while len(passes) == block_start or time.perf_counter() - start < target:
            _pin(cpus, len(passes))
            clock = StepClock()
            result = wl.run_pass(state, inputs, clock)
            result.samples = clock.samples()
            if passes:
                result.trajectories = []
            passes.append(result)
    return state, inputs, times, digests, passes


def _pin(cpus, i):
    """Run on the ``i``-th CPU of ``cpus`` (cyclically), and only there."""
    os.sched_setaffinity(0, {cpus[i % len(cpus)]})


def _run_workload(args) -> int:
    _load_library()
    cpus = sorted(os.sched_getaffinity(0))
    from actiongov.simlab import ScenarioConfig
    from workloads import SIZES, WORKLOADS

    spec = json.loads(SPEC.read_text())[args.workload]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    cfg = ScenarioConfig.from_json(CONFIG)
    if args.size == "tiny":
        for key, value in TINY_GRID.items():
            setattr(cfg, key, value)
    seed = spec["default_seed"] if args.seed is None else args.seed
    wl = WORKLOADS[args.workload](cfg, SIZES[args.workload][args.size])
    print(f"# workload {args.workload} seed {seed} size {args.size} "
          f"seconds {args.seconds} trace {args.trace}")
    print("# machine " + json.dumps(_machine(cpus), sort_keys=True))

    state, inputs, setup_times, setup_digests, passes = _blocks(wl, seed, args.seconds, cpus)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    steps = sum(p.steps for p in passes)
    failed = sum(p.failed for p in passes)
    wall = sum(p.wall_s for p in passes)
    first = passes[0]
    # Every pass does the same work in the same order, so step i of one
    # pass repeats step i of every other.  Each step is taken at its
    # fastest over the passes: a slow spell of the machine then has to
    # cover the same step in every pass to move the figures.  The loop time
    # outside the samples (before the first and after the last step of
    # each loop call) is taken at its least over the passes.
    best_step = np.vstack([p.samples for p in passes]).min(axis=0)
    best_rest = min(p.wall_s - p.samples.sum() for p in passes)
    e2e = {
        "setup_s": _median(setup_times),
        "step_p50_us": _percentile(best_step, 50) * 1e6,
        "step_p99_us": _percentile(best_step, 99) * 1e6,
        "steps_per_s": first.steps / (best_step.sum() + best_rest),
        "peak_rss_mb": rss_mb,
    }
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    pass_p50 = [_percentile(p.samples, 50) * 1e6 for p in passes]
    best_of = f"best of {len(passes)} passes, {best_step.size} steps each"
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups: "
                   + ", ".join(f"{t:.3f}" for t in setup_times),
        "step_p50_us": f"{best_of}; per-pass medians {min(pass_p50):.1f} to {max(pass_p50):.1f}",
        "step_p99_us": f"{best_of}; {best_step.size // 100} samples beyond p99",
        "steps_per_s": f"{first.steps} steps of a pass at their best of {len(passes)} passes; "
                       f"all passes {steps / wall:.1f}/s",
        "peak_rss_mb": "ru_maxrss",
    }
    for name, value in e2e.items():
        print(f"{name:<14} {value:>14.4f} {units[name]:<6} ({notes[name]})")
    # outcome figures: printed, not declared in BENCHMARK.json (fail_rate must
    # be 0, and mean_cost is fixed by the seed's inputs, not measured)
    print(f"{'fail_rate':<14} {failed / max(steps, 1):>14.4f} {'ratio':<6} "
          f"({failed} failed of {steps} attempted)")
    print(f"{'mean_cost':<14} {first.cost_sum / max(first.steps, 1):>14.4f} {'cost':<6} "
          f"(over one pass of {first.steps} steps)")

    checks = {
        "fail_rate == 0": (failed == 0, f"{failed} failed of {steps} attempted"),
        "set-up digest repeats": (len(set(setup_digests)) == 1, setup_digests[0]),
        "pass digest repeats": (len({p.digest for p in passes}) == 1, first.digest),
    }
    checks["independent reference"] = wl.reference_check(state, inputs, first)

    metrics = e2e
    if args.trace:
        state = inputs = None
        gc.collect()
        metrics = _traced(wl, seed, _median(setup_times), _median(pass_p50) / 1e6, checks, spec)
        for name, value in metrics.items():
            print(f"{name:<48} {value:>14.6g} {units.get(name, '')}")
    ok = True
    for name, (passed, detail) in checks.items():
        ok &= bool(passed)
        print(f"check {name:<24} {'ok' if passed else 'FAILED'}  {detail}")
    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": bool(ok),
        "attempted": int(steps),
        "failed": int(failed),
        "metrics": {n: {"value": float(metrics[n]), "unit": units[n]} for n in wanted},
    }
    print(json.dumps(result))
    return 0


def _traced(wl, seed, setup_s, step_p50, checks, expect):
    """Traced set-up and pass; returns the per-layer metrics.

    ``setup_s`` and ``step_p50`` are the untraced run's medians (over
    set-ups and over passes), the reference of ``trace.overhead.*``.
    """
    from tracer import TARGETS, Tracer, layer_metrics
    from workloads import StepClock

    tr = Tracer()
    bound = tr.install()
    tr.phase = "setup"
    t0 = time.perf_counter()
    state = wl.setup()
    traced_setup = time.perf_counter() - t0
    tr.phase = "inputs"
    inputs = wl.make_inputs(state, seed)
    clock = StepClock()
    clock.tracer = tr
    tr.phase = "run"
    wl.run_pass(state, inputs, clock)
    tr.phase = "done"
    m = layer_metrics(tr)
    m["trace.overhead.step_p50"] = _percentile(clock.samples(), 50) / step_p50
    m["trace.overhead.setup"] = traced_setup / setup_s

    # A wrapper lost to an import refactor shows as an unbound target or a
    # layer without spans.  trace.coverage is reported, not gated: it is a
    # share of time, so a correct speed-up of a wrapped call lowers it.
    unbound = sorted({t[0] for t in TARGETS} - set(bound))
    checks["trace wrappers bound"] = (not unbound, f"unbound: {unbound or 'none'}")
    seen = {n for n, p in zip(tr.names, tr.phase_of) if p in ("setup", "run")}
    missing = [p for p in expect["exercises"] if not any(n.startswith(p) for n in seen)]
    stray = [p for p in expect["bypasses"] if any(n.startswith(p) for n in seen)]
    checks["layers exercised"] = (not missing, f"missing: {missing or 'none'}")
    checks["layers bypassed"] = (not stray, f"unexpected: {stray or 'none'}")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{wl.name}-seed{seed}.json"
    tr.dump(path)
    print(f"# wrote {len(tr.names)} spans to {path.relative_to(ROOT)}")
    return m


def _children(args, workloads, traces, size):
    """Run each (workload, trace) in its own process; returns the parsed results."""
    results = {}
    for name in workloads:
        for trace in traces:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seconds", str(args.seconds), "--trace", str(trace), "--size", size]
            if args.seed is not None:
                cmd += ["--seed", str(args.seed)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
            sys.stdout.write("".join(f"  {line}\n" for line in proc.stdout.splitlines()[:-1]))
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"error: {name} trace {trace} exited with code {proc.returncode}")
                results[(name, trace)] = None
                continue
            results[(name, trace)] = json.loads(lines[-1])
    return results


def _run_all(args) -> int:
    results = _children(args, NAMES, [args.trace], args.size)
    ok = all(r is not None and r["correct"] for r in results.values())
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in results.values() if r),
        "failed": sum(r["failed"] for r in results.values() if r),
        "metrics": {f"{name}.{m}": v for (name, _), r in results.items() if r
                    for m, v in r["metrics"].items()},
    }))
    return 0 if ok else 1


def _smoke(args) -> int:
    """All workloads at tiny size, traced and untraced; checks metric names only."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    args.seconds = 1
    results = _children(args, NAMES, [0, 1], "tiny")
    problems = []
    for (name, trace), r in results.items():
        kind = "per_layer" if trace else "end_to_end"
        if r is None:
            problems.append(f"{name} trace {trace}: no result")
            continue
        wanted = {m["name"] for m in bench[kind]}
        if set(r["metrics"]) != wanted:
            problems.append(f"{name} trace {trace}: metric names differ: "
                            f"{sorted(set(r['metrics']) ^ wanted)}")
        if not r["correct"] or r["failed"] or r["attempted"] < 1:
            problems.append(f"{name} trace {trace}: correct={r['correct']} "
                            f"failed={r['failed']} attempted={r['attempted']}")
    for p in problems:
        print(f"smoke: {p}")
    print(json.dumps({"smoke": "ok" if not problems else "failed", "runs": len(results)}))
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--smoke", action="store_true", help="tiny sizes, all workloads, both modes")
    args = p.parse_args(argv)
    if args.smoke:
        return _smoke(args)
    if args.workload == "all":
        return _run_all(args)
    return _run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
