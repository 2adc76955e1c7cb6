"""The library API that the benchmark under ``bench/`` drives.

``bench/run.py --trace 1`` wraps the entry points listed in
``bench/tracer.py`` and reads attributes of their results through the
tracer's hooks (the supervision step's outcome, the grid build, the
admissible-set build, the LP solve); a refactor that moves one of them
would otherwise only show when the benchmark runs.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from actiongov import moas as moas_mod
from actiongov import safe_learning, simlab
from actiongov.governor import GovernorState, govern
from actiongov.lp import LpStatus, solve_lp

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


def test_every_trace_target_is_a_package_function(tracer):
    assert tracer.TARGETS
    for span, mod_name, cls_name, attr, _ in tracer.TARGETS:
        owner = importlib.import_module(mod_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name)
        fn = getattr(owner, attr, None)
        assert inspect.isfunction(fn), f"{span}: {mod_name} has no function {attr}"
        assert fn.__module__.startswith("actiongov"), span


@pytest.mark.parametrize("oracle", [None, "clamp"])
def test_govern_returns_outcome_and_state(tracer, oracle):
    class Clamp:
        def adjust(self, x, u1, dist):
            return np.clip(u1, -1.0, 1.0)

    args = (np.zeros(2), np.array([3.0]), GovernorState(), None if oracle is None else Clamp())
    assert list(inspect.signature(govern).parameters)[:2] == ["x", "u1"]
    result = govern(*args)
    outcome, state = result
    assert isinstance(outcome.branch.value, str)
    assert isinstance(outcome.u, np.ndarray)
    assert isinstance(state, GovernorState)
    branch, moved = tracer._govern_attrs(args, {}, result)
    assert branch == outcome.branch.value
    assert moved == (oracle is not None)


def test_grid_build_hooks_read_a_real_build(tracer, tiny_grid):
    cfg = simlab.ScenarioConfig(seed=0, **tiny_grid)
    _, dss, tt, grid = simlab.build_grid_backend(cfg, simlab.build_rig(cfg))
    assert tracer._discretize_attrs((), {}, tt) == (tt.table.nbytes, grid.n_pairs)
    (sweeps,) = tracer._safe_set_attrs((), {}, dss)
    assert sweeps == len(dss.sweep_counts) - 1 >= 1
    assert all(sum(totals) == grid.n_pairs for totals in dss.sweep_counts)


def test_moas_hook_reads_a_real_build(tracer, moas_bundle):
    _, moas = moas_bundle
    t_star, set_rows, proj_rows = tracer._moas_attrs((), {}, moas)
    assert t_star == moas.t_star > 0
    assert (set_rows, proj_rows) == (moas.set_xv.n_rows, moas.proj_x.n_rows)


def test_lp_hook_reads_a_real_solve(tracer):
    args = ([1.0, -1.0], [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1.0, 1.0, 2.0, 2.0])
    result = solve_lp(*args)
    assert result.status is LpStatus.OPTIMAL
    assert tracer._lp_attrs(args, {}, result) == (2, 4)


def test_workload_entry_points_exist(base_cfg, rig, moas_bundle, grid_bundle):
    for name in ("build_rig", "build_moas_backend", "build_grid_backend", "make_koopman_env",
                 "make_grid_q_env", "make_example_qtable", "example_initial_koopman",
                 "run_supervised", "X1_BOUNDS", "X2_BOUNDS"):
        assert hasattr(simlab, name), name
    assert list(inspect.signature(simlab.run_supervised).parameters) == [
        "rig", "controller", "oracle", "x0", "steps", "dist"]
    for env in (safe_learning.SafeQEnv, safe_learning.KoopmanEnv):
        names = {f.name for f in dataclasses.fields(env)}
        assert {"initial_state", "step"} <= names, env.__name__
    # the benchmark wraps each env's step in a pass-through ``stamped(*args)``
    oracle, _, _, grid = grid_bundle
    for env in (simlab.make_koopman_env(base_cfg, rig, *moas_bundle),
                simlab.make_grid_q_env(base_cfg, rig, oracle, grid)):
        assert list(inspect.signature(env.step).parameters) == ["x", "u"]
    # the admissible-set workload re-solves recorded adjustments with HiGHS
    # over the rule's action polytope at each recorded state
    assert list(inspect.signature(moas_mod.feasible_action_set).parameters) == [
        "moas", "plant", "out", "x"]
    upoly = moas_mod.feasible_action_set(moas_bundle[1], rig.plant, rig.out, np.zeros(2))
    assert upoly.dim == 1 and upoly.contains([0.0])
