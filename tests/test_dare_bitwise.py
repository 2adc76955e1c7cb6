"""Bitwise pins of the buffered Riccati recursions against the plain ones.

``control_linalg.dare_solve`` and ``riccati_finite`` run the Riccati map
in preallocated buffers and, for one-input models, replace the 1x1 solve
by a multiply with the reciprocal of ``R + B'PB``.  Both must return the
bits of the plain recursions in ``references.py``.  Pinned on
scipy-openblas 0.3.31 (numpy 2.4) with one BLAS thread; on a BLAS/LAPACK
build that rounds differently these tests fail instead of the learning
outputs shifting silently.
"""

import ctypes
import glob
import os

import numpy as np
import pytest
import scipy.linalg

from actiongov import safe_learning
from actiongov.control_linalg import dare_solve, riccati_finite
from actiongov.errors import NoStabilizingSolutionError
from actiongov.simlab import example_initial_koopman, example_system, make_koopman_env
from references import dare_reference, riccati_finite_reference


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


def _same_outcome(f, g, *args):
    """Both calls return bitwise-equal ``(P, K)``, or raise the same type."""
    outcomes = []
    for fn in (f, g):
        try:
            outcomes.append(fn(*args))
        except Exception as exc:  # the exception type is the outcome
            outcomes.append(type(exc))
    a, b = outcomes
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return all(x.tobytes() == y.tobytes() and x.shape == y.shape for x, y in zip(a, b))


def _random_two_input_model(rng):
    A = rng.normal(size=(4, 4)) / 2.0
    B = rng.normal(size=(4, 2))
    C = rng.normal(size=(4, 4))
    N = rng.normal(size=(2, 2))
    return A, B, C @ C.T / 4.0 + 0.1 * np.eye(4), N @ N.T + 0.5 * np.eye(2)


def test_bitwise_pins_run_on_one_blas_thread():
    assert os.environ.get("OPENBLAS_NUM_THREADS") == "1"
    assert _openblas_threads() in (None, 1)


def test_reciprocal_equals_the_lapack_one_input_solve():
    rng = np.random.default_rng(2024)
    plant, _, _ = example_system()
    p_dare, _ = dare_solve(plant.A, plant.B, np.eye(2), [[10.0]])
    cases = [(plant.A, plant.B, np.eye(2), 10.0), (plant.A, plant.B, p_dare, 10.0)]
    for _ in range(240):
        n = int(rng.integers(2, 10))
        C = rng.normal(size=(n, n))
        cases.append((rng.normal(size=(n, n)), rng.normal(size=(n, 1)),
                      C @ C.T + 0.1 * np.eye(n), float(rng.uniform(0.1, 10.0))))
    for A, B, P, r in cases:
        G = r + B.T @ P @ B
        BtP_A = B.T @ P @ A
        assert (BtP_A * (1.0 / G)).tobytes() == np.linalg.solve(G, BtP_A).tobytes()


def test_one_state_models_keep_the_lapack_solve():
    # a single right-hand side is divided, not multiplied by the reciprocal
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b, r = rng.normal(), rng.normal(), rng.uniform(0.1, 10.0)
        assert _same_outcome(dare_solve, dare_reference, [[a]], [[b]], [[1.0]], [[r]])
        assert (riccati_finite([[a]], [[b]], [[1.0]], [[r]], [[1.0]], 50).tobytes()
                == riccati_finite_reference([[a]], [[b]], [[1.0]], [[r]], [[1.0]], 50).tobytes())


@pytest.fixture(scope="module")
def learned_models(base_cfg, rig, moas_bundle):
    """Every ``(A, B, Q, R)`` that the first 300 steps of the shipped
    learn-koopman scenario pass to ``dare_solve``, as the live arrays."""
    oracle, moas = moas_bundle
    env = make_koopman_env(base_cfg, rig, oracle, moas)
    km0 = example_initial_koopman(base_cfg.koopman_lambda, base_cfg.koopman_delta)
    seen = []
    real = safe_learning.dare_solve

    def record(*args):
        seen.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(safe_learning, "dare_solve", record)
        safe_learning.run_safe_koopman(env, km0, 300, base_cfg.reset_every,
                                       np.random.default_rng(base_cfg.seed))
    return seen


def test_dare_matches_the_plain_loop_on_learned_models(learned_models):
    assert len(learned_models) == 300
    for args in learned_models:
        assert _same_outcome(dare_solve, dare_reference, *args)


def test_two_input_models_match_the_plain_loops_and_scipy():
    rng = np.random.default_rng(77)
    solved = 0
    for _ in range(50):
        A, B, Q, R = _random_two_input_model(rng)
        assert _same_outcome(dare_solve, dare_reference, A, B, Q, R)
        assert (riccati_finite(A, B, Q, R, Q, 50).tobytes()
                == riccati_finite_reference(A, B, Q, R, Q, 50).tobytes())
        try:
            P, _ = dare_solve(A, B, Q, R)
        except NoStabilizingSolutionError:
            continue
        solved += 1
        ref = scipy.linalg.solve_discrete_are(A, B, Q, R)
        assert np.max(np.abs(P - ref)) < 1e-6 * max(1.0, np.max(np.abs(ref)))
    assert solved >= 40
