"""The library API that the benchmark under ``bench/`` drives.

``bench/run.py --trace 1`` wraps the entry points listed in
``bench/tracer.py`` and reads the supervision step's outcome; a refactor
that moves one of them would otherwise only show when the benchmark runs.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from actiongov import safe_learning, simlab
from actiongov.governor import GovernorState, govern

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


def test_workload_entry_points_exist():
    for name in ("build_rig", "build_moas_backend", "build_grid_backend", "make_koopman_env",
                 "make_grid_q_env", "make_example_qtable", "example_initial_koopman",
                 "run_supervised", "X1_BOUNDS", "X2_BOUNDS"):
        assert hasattr(simlab, name), name
    assert list(inspect.signature(simlab.run_supervised).parameters) == [
        "rig", "controller", "oracle", "x0", "steps", "dist"]
    for env in (safe_learning.SafeQEnv, safe_learning.KoopmanEnv):
        names = {f.name for f in dataclasses.fields(env)}
        assert {"initial_state", "step"} <= names, env.__name__
