"""Shared fixtures; the expensive constructions are built once per session."""

import ast
import os
from pathlib import Path

# One BLAS/OpenMP thread, set before numpy loads its BLAS, as bench/run.py
# does: the bitwise pins in test_dare_bitwise.py are stated for it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import pytest

from actiongov import lp, moas
from actiongov.simlab import (
    ScenarioConfig,
    build_grid_backend,
    build_moas_backend,
    build_rig,
    learn_koopman,
)


@pytest.fixture(scope="session")
def base_cfg():
    return ScenarioConfig(seed=0)


@pytest.fixture(scope="session")
def rig(base_cfg):
    return build_rig(base_cfg)


@pytest.fixture(scope="session")
def moas_bundle(base_cfg, rig):
    """(oracle, moas) for the worked example."""
    return build_moas_backend(base_cfg, rig)


@pytest.fixture(scope="session")
def grid_bundle(base_cfg, rig):
    """(oracle, dss, tt, grid) on the full example grid."""
    return build_grid_backend(base_cfg, rig)


@pytest.fixture(scope="session")
def counted_koopman_learning(base_cfg, rig, moas_bundle):
    """Full supervised learning run, counted: ``((model, trajectory),
    simplex_runs, selections)``, the numbers of ``lp._two_phase`` runs and
    of ``moas.nearest_affine_point`` calls during the run.  The counters
    pass every call through, so the run is the uncounted one."""
    counts = {"runs": 0, "selections": 0}
    two_phase, nearest = lp._two_phase, moas.nearest_affine_point

    def counted_two_phase(*args):
        counts["runs"] += 1
        return two_phase(*args)

    def counted_nearest(*args, **kwargs):
        counts["selections"] += 1
        return nearest(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "_two_phase", counted_two_phase)
        mp.setattr(moas, "nearest_affine_point", counted_nearest)
        run = learn_koopman(base_cfg, rig, *moas_bundle)
    return run, counts["runs"], counts["selections"]


@pytest.fixture(scope="session")
def koopman_learning(counted_koopman_learning):
    """Full supervised learning run: (model, trajectory)."""
    return counted_koopman_learning[0]


@pytest.fixture(scope="session")
def tiny_grid():
    """The ``TINY_GRID`` config overrides of ``bench/run.py``, read without
    importing it (the script pins thread-pool variables in the environment
    on import)."""
    tree = ast.parse((Path(__file__).resolve().parent.parent / "bench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TINY_GRID"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py defines no TINY_GRID")
