"""Bitwise pins of the library's Riccati solvers and recursive update.

``control_linalg.riccati_finite`` must carry the bits of the plain
recursion in ``references.py``.  ``control_linalg.dare_solve`` and
``safe_learning.rls_update`` form their products with ``np.dot`` and the
doubling's ``A X`` and ``A Y`` in one product; they must return the bytes
of ``dare_solve_reference`` and ``rls_update_reference``, the same
algorithms written with ``@``, on every model of a seeded shipped learning
run and on random one- and two-input models.  Pinned on scipy-openblas
0.3.31 (numpy 2.4) with one BLAS thread; on a BLAS/LAPACK build that
rounds differently these tests fail instead of a gain shifting silently.
The DARE's outcome and tolerance against the fixed-point loop and scipy
are checked in ``test_dare_agreement.py``.
"""

import ctypes
import glob
import os

import numpy as np
import pytest

from actiongov import safe_learning
from actiongov.control_linalg import dare_solve, riccati_finite
from actiongov.errors import ActionGovError
from actiongov.safe_learning import KoopmanModel, rls_update
from actiongov.simlab import example_initial_koopman, make_koopman_env
from references import (
    dare_solve_reference,
    identity_observables,
    random_two_input_model,
    riccati_finite_reference,
    rls_update_reference,
)


def _openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it has no such call."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                get = getattr(lib, name)
                get.argtypes, get.restype = [], ctypes.c_int
                return get()
    return None


def test_bitwise_pins_run_on_one_blas_thread():
    assert os.environ.get("OPENBLAS_NUM_THREADS") == "1"
    assert _openblas_threads() in (None, 1)


def test_one_state_finite_horizon_gains_equal_the_plain_recursion():
    # a single right-hand side is divided, not multiplied by the reciprocal
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b, r = rng.normal(), rng.normal(), rng.uniform(0.1, 10.0)
        assert (riccati_finite([[a]], [[b]], [[1.0]], [[r]], [[1.0]], 50).tobytes()
                == riccati_finite_reference([[a]], [[b]], [[1.0]], [[r]], [[1.0]], 50).tobytes())


def test_two_input_finite_horizon_gains_equal_the_plain_recursion():
    rng = np.random.default_rng(77)
    for _ in range(50):
        A, B, Q, R = random_two_input_model(rng)
        assert (riccati_finite(A, B, Q, R, Q, 50).tobytes()
                == riccati_finite_reference(A, B, Q, R, Q, 50).tobytes())


def _same_outcome(fn, ref, *args):
    """``fn(*args)`` and ``ref(*args)`` return arrays of equal bytes, or
    both raise the same type; returns whether ``fn`` solved."""
    outcomes = []
    for f in (fn, ref):
        try:
            outcomes.append(f(*args))
        except (ValueError, ActionGovError) as exc:  # the type is the outcome
            outcomes.append(type(exc))
    got, want = outcomes
    if isinstance(got, type) or isinstance(want, type):
        assert got is want
        return False
    if isinstance(got, KoopmanModel):
        got, want = ((k.A, k.B, k.gamma_cov) for k in (got, want))
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    return True


@pytest.fixture(scope="module")
def shipped_calls(base_cfg, rig, moas_bundle):
    """The arguments of every ``dare_solve`` and ``rls_update`` call in the
    first 2,000 steps of the shipped learn-koopman scenario."""
    oracle, moas = moas_bundle
    env = make_koopman_env(base_cfg, rig, oracle, moas)
    km0 = example_initial_koopman(base_cfg.koopman_lambda, base_cfg.koopman_delta)
    calls = {"dare": [], "rls": []}
    real = {"dare": safe_learning.dare_solve, "rls": safe_learning.rls_update}

    def recorder(name):
        def record(*args):
            calls[name].append(args)
            return real[name](*args)
        return record

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(safe_learning, "dare_solve", recorder("dare"))
        mp.setattr(safe_learning, "rls_update", recorder("rls"))
        safe_learning.run_safe_koopman(env, km0, 2000, base_cfg.reset_every,
                                       np.random.default_rng(base_cfg.seed))
    return calls


def test_dare_equals_the_matmul_reference_on_the_shipped_run(shipped_calls):
    assert len(shipped_calls["dare"]) == 2000
    for args in shipped_calls["dare"]:
        assert _same_outcome(dare_solve, dare_solve_reference, *args)


def test_rls_update_equals_the_matmul_reference_on_the_shipped_run(shipped_calls):
    assert len(shipped_calls["rls"]) == 2000
    for args in shipped_calls["rls"]:
        assert _same_outcome(rls_update, rls_update_reference, *args)


def test_dare_equals_the_matmul_reference_on_random_models():
    rng = np.random.default_rng(77)
    solved = 0
    for _ in range(100):
        A, B, Q, R = random_two_input_model(rng)
        solved += _same_outcome(dare_solve, dare_solve_reference, A, B, Q, R)
        solved += _same_outcome(dare_solve, dare_solve_reference, A, B[:, :1], Q, R[:1, :1])
    assert solved >= 150


def test_rls_update_equals_the_matmul_reference_on_random_models():
    rng = np.random.default_rng(78)
    for _ in range(100):
        A, B, _, _ = random_two_input_model(rng)
        for m in (1, 2):
            C = rng.normal(size=(4 + m, 4 + m))
            km = KoopmanModel(A, B[:, :m], C @ C.T + 0.1 * np.eye(4 + m),
                              rng.uniform(0.9, 1.0), identity_observables(4))
            args = km, rng.normal(size=4), rng.normal(size=m), rng.normal(size=4)
            assert _same_outcome(rls_update, rls_update_reference, *args)
            new = rls_update(*args)
            assert (new.lam, new.observables) == (km.lam, km.observables)
