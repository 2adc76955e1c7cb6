"""In-memory span recorder that wraps the library's layer entry points.

Spans are recorded from the benchmark side only: every entry point listed
in ``TARGETS`` is replaced by a timing wrapper in each ``actiongov`` module
that binds it (modules import names with ``from .x import y``, so one
function can be bound in several modules), and methods are wrapped on
their class.  A span holds its name, start, end, parent span, the step id
current when it opened, the phase (``setup`` or ``run``) and, for some
entry points, a small tuple of attributes read from the arguments or the
result.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np


def _lp_attrs(args, kwargs, result):
    c, a_ub = args[0], args[1]
    return (int(np.size(c)), int(np.atleast_2d(a_ub).shape[0]))


def _govern_attrs(args, kwargs, result):
    outcome = result[0]
    u1 = np.atleast_1d(np.asarray(args[1], dtype=float))
    return (outcome.branch.value, not np.array_equal(outcome.u, u1))


def _discretize_attrs(args, kwargs, result):
    return (result.table.nbytes, int(result.grid.n_pairs))


def _safe_set_attrs(args, kwargs, result):
    return (len(result.sweep_counts) - 1,)


def _moas_attrs(args, kwargs, result):
    return (int(result.t_star), result.set_xv.n_rows, result.proj_x.n_rows)


# (span name, defining module, class or None, attribute, attribute hook)
TARGETS = [
    ("lp.solve", "actiongov.lp", None, "solve_lp", _lp_attrs),
    ("convexset.support", "actiongov.convexset", None, "support", None),
    ("convexset.pontryagin_diff", "actiongov.convexset", None, "pontryagin_diff", None),
    ("convexset.remove_redundancy", "actiongov.convexset", None, "remove_redundancy", None),
    ("convexset.project_out", "actiongov.convexset", None, "project_out", None),
    ("convexset.nearest_affine_point", "actiongov.convexset", None, "nearest_affine_point", None),
    ("convexset.bounding_box", "actiongov.convexset", "HPolytope", "bounding_box", None),
    ("convexset.rejection_sample", "actiongov.convexset", None, "rejection_sample", None),
    ("moas.build_moas", "actiongov.moas", None, "build_moas", _moas_attrs),
    ("governor.govern", "actiongov.governor", None, "govern", _govern_attrs),
    ("discrete_safeset.discretize", "actiongov.discrete_safeset", None, "discretize",
                                    _discretize_attrs),
    ("discrete_safeset.build_seed", "actiongov.discrete_safeset", None, "build_seed", None),
    ("discrete_safeset.compute_safe_set", "actiongov.discrete_safeset", None,
                                          "compute_safe_set", _safe_set_attrs),
    ("discrete_safeset.constraint_table", "actiongov.discrete_safeset", None,
                                          "constraint_table", None),
    ("discrete_safeset.feasible_actions", "actiongov.discrete_safeset", "DiscreteGridOracle",
                                          "feasible_actions", None),
    ("discrete_safeset.snap_x", "actiongov.discrete_safeset", "GridSpec", "snap_x", None),
    ("control_linalg.dare_solve", "actiongov.control_linalg", None, "dare_solve", None),
    ("control_linalg.riccati_finite", "actiongov.control_linalg", None, "riccati_finite", None),
    ("control_linalg.dlyap_scaled", "actiongov.control_linalg", None, "dlyap_scaled", None),
    ("safe_learning.koopman_control", "actiongov.safe_learning", None, "koopman_control", None),
    ("safe_learning.rls_update", "actiongov.safe_learning", None, "rls_update", None),
    ("safe_learning.loop", "actiongov.safe_learning", None, "run_safe_q", None),
    ("safe_learning.loop", "actiongov.safe_learning", None, "run_safe_koopman", None),
    ("simlab.run_supervised", "actiongov.simlab", None, "run_supervised", None),
    ("simlab.build_rig", "actiongov.simlab", None, "build_rig", None),
]

# spans whose direct children make up trace.coverage
LOOP_SPANS = ("safe_learning.loop", "simlab.run_supervised")


class Tracer:
    """Records spans in memory; ``phase`` and ``step`` are set by the caller."""

    def __init__(self):
        self.names: list[str] = []
        self.t0: list[float] = []
        self.t1: list[float] = []
        self.parent: list[int] = []
        self.step_id: list[int] = []
        self.phase_of: list[str] = []
        self.attrs: list = []
        self._stack: list[int] = []
        self.phase = "setup"
        self.step = -1

    def wrap(self, name, fn, hook=None):
        names, t0s, t1s, parents = self.names, self.t0, self.t1, self.parent
        steps, phases, attrs, stack = self.step_id, self.phase_of, self.attrs, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            steps.append(self.step)
            phases.append(self.phase)
            attrs.append(None)
            t1s.append(0.0)
            stack.append(idx)
            t0s.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1s[idx] = clock()
                stack.pop()
            if hook is not None:
                attrs[idx] = hook(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target at every binding inside the loaded package.

        Returns the number of bindings replaced per span name; a name with
        zero bindings means the entry point moved and ``TARGETS`` is stale.
        """
        bound = {}
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "actiongov" or k.startswith("actiongov."))]
        for span, mod_name, cls_name, attr, hook in TARGETS:
            mod = sys.modules[mod_name]
            if cls_name is not None:
                cls = getattr(mod, cls_name)
                setattr(cls, attr, self.wrap(span, getattr(cls, attr), hook))
                bound[span] = bound.get(span, 0) + 1
                continue
            original = getattr(mod, attr)
            wrapper = self.wrap(span, original, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        bound[span] = bound.get(span, 0) + 1
        return bound

    def arrays(self):
        n = len(self.names)
        t0 = np.asarray(self.t0[:n])
        t1 = np.asarray(self.t1[:n])
        parent = np.asarray(self.parent[:n], dtype=np.int64)
        dur = t1 - t0
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name": np.asarray(self.names[:n], dtype=object),
            "phase": np.asarray(self.phase_of[:n], dtype=object),
            "dur": dur,
            "self": dur - child,
        }

    def dump(self, path):
        """Write every span as one JSON document (times relative to the first span)."""
        n = len(self.names)
        base = self.t0[0] if n else 0.0
        with open(path, "w") as fh:
            fh.write('{"fields": ["name", "start_s", "end_s", "parent", "step", "phase", '
                     '"attrs"], "spans": [\n')
            for i in range(n):
                row = [self.names[i], self.t0[i] - base, self.t1[i] - base, self.parent[i],
                       self.step_id[i], self.phase_of[i], self.attrs[i]]
                fh.write(json.dumps(row) + (",\n" if i + 1 < n else "\n"))
            fh.write("]}\n")


def _q(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics from the recorded spans (see BENCHMARK.json)."""
    a = tr.arrays()
    name, phase, dur, self_t = a["name"], a["phase"], a["dur"], a["self"]
    attrs = tr.attrs
    setup = phase == "setup"
    run = phase == "run"

    def sel(n, mask=None):
        # spans of input generation (e.g. the Koopman warm-up) are not counted
        return (name == n) & (setup | run if mask is None else mask)

    def attr_rows(n, mask=None):
        return [attrs[i] for i in np.nonzero(sel(n, mask))[0]]

    m = {}
    # lp
    lp_rows = attr_rows("lp.solve")
    lp_setup = attr_rows("lp.solve", setup)
    m["lp.solves.setup"] = int(sel("lp.solve", setup).sum())
    m["lp.solves.setup_1var"] = sum(1 for v, _ in lp_setup if v == 1)
    m["lp.solves.run"] = int(sel("lp.solve", run).sum())
    m["lp.solve_us_p50"] = _q(dur[sel("lp.solve")], 50) * 1e6
    m["lp.self_s"] = float(self_t[sel("lp.solve")].sum())
    m["lp.rows_mean"] = float(np.mean([r for _, r in lp_rows])) if lp_rows else 0.0
    m["lp.vars_max"] = max((v for v, _ in lp_rows), default=0)
    # convexset
    m["convexset.support.calls"] = int(sel("convexset.support").sum())
    m["convexset.support.s"] = float(dur[sel("convexset.support")].sum())
    for op in ("pontryagin_diff", "remove_redundancy", "project_out"):
        m[f"convexset.{op}.s"] = float(dur[sel(f"convexset.{op}")].sum())
    m["convexset.nearest_affine_point.calls"] = int(sel("convexset.nearest_affine_point").sum())
    m["convexset.nearest_affine_point.us_p50"] = _q(dur[sel("convexset.nearest_affine_point")],
                                                    50) * 1e6
    m["convexset.bounding_box.calls"] = int(sel("convexset.bounding_box").sum())
    m["convexset.rejection_sample.us_p50"] = _q(dur[sel("convexset.rejection_sample")], 50) * 1e6
    # moas
    m["moas.build_moas.s"] = float(dur[sel("moas.build_moas")].sum())
    m["moas.build_moas.self_s"] = float(self_t[sel("moas.build_moas")].sum())
    moas_rows = attr_rows("moas.build_moas")
    t_star, set_rows, proj_rows = moas_rows[0] if moas_rows else (0, 0, 0)
    m["moas.t_star"], m["moas.set_rows"], m["moas.proj_rows"] = t_star, set_rows, proj_rows
    # governor
    gov = sel("governor.govern", run)
    gov_rows = attr_rows("governor.govern", run)
    m["governor.govern.calls"] = int(gov.sum())
    m["governor.govern.us_p50"] = _q(dur[gov], 50) * 1e6
    m["governor.govern.us_p99"] = _q(dur[gov], 99) * 1e6
    m["governor.govern.self_s"] = float(self_t[gov].sum())
    for branch in ("adjusted", "backup_fresh", "backup_held"):
        m[f"governor.branch.{branch}"] = sum(1 for b, _ in gov_rows if b == branch)
    m["governor.moved_ratio"] = (sum(1 for _, moved in gov_rows if moved) / len(gov_rows)
                                 if gov_rows else 0.0)
    # discrete_safeset
    disc_rows = attr_rows("discrete_safeset.discretize")
    m["discrete_safeset.discretize.calls"] = int(sel("discrete_safeset.discretize").sum())
    m["discrete_safeset.discretize.s"] = float(dur[sel("discrete_safeset.discretize")].sum())
    m["discrete_safeset.build_seed.self_s"] = float(
        self_t[sel("discrete_safeset.build_seed")].sum())
    m["discrete_safeset.compute_safe_set.s"] = float(
        dur[sel("discrete_safeset.compute_safe_set")].sum())
    m["discrete_safeset.constraint_table.calls"] = int(
        sel("discrete_safeset.constraint_table").sum())
    sweeps = attr_rows("discrete_safeset.compute_safe_set")
    m["discrete_safeset.sweeps"] = sweeps[0][0] if sweeps else 0
    m["discrete_safeset.pairs"] = disc_rows[0][1] if disc_rows else 0
    m["discrete_safeset.table_mb"] = disc_rows[0][0] / 1e6 if disc_rows else 0.0
    m["discrete_safeset.feasible_actions.us_p50"] = _q(
        dur[sel("discrete_safeset.feasible_actions", run)], 50) * 1e6
    m["discrete_safeset.snap_x.calls"] = int(sel("discrete_safeset.snap_x", run).sum())
    # control_linalg
    dare = sel("control_linalg.dare_solve", run)
    m["control_linalg.dare_solve.calls"] = int(dare.sum())
    m["control_linalg.dare_solve.us_p50"] = _q(dur[dare], 50) * 1e6
    m["control_linalg.dare_solve.self_s"] = float(self_t[dare].sum())
    m["control_linalg.riccati_finite.calls"] = int(sel("control_linalg.riccati_finite", run).sum())
    m["control_linalg.dlyap_scaled.s"] = float(dur[sel("control_linalg.dlyap_scaled")].sum())
    # safe_learning
    m["safe_learning.koopman_control.self_us_p50"] = _q(
        self_t[sel("safe_learning.koopman_control", run)], 50) * 1e6
    m["safe_learning.rls_update.us_p50"] = _q(dur[sel("safe_learning.rls_update", run)], 50) * 1e6
    m["safe_learning.loop.self_s"] = float(self_t[sel("safe_learning.loop", run)].sum())
    # simlab
    m["simlab.env_step.us_p50"] = _q(dur[sel("simlab.env_step", run)], 50) * 1e6
    m["simlab.build_rig.s"] = float(dur[sel("simlab.build_rig", setup)].sum())
    # trace: share of loop wall time inside the loop's direct child spans
    loops = np.isin(name, LOOP_SPANS) & run
    loop_total = float(dur[loops].sum())
    m["trace.coverage"] = (1.0 - float(self_t[loops].sum()) / loop_total) if loop_total else 0.0
    m["trace.spans"] = int((setup | run).sum())
    return m

