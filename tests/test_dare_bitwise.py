"""The DARE against the plain fixed-point loop and scipy, and bitwise pins
of the buffered finite-horizon recursion against the plain one.

``control_linalg.riccati_finite`` runs the Riccati map in preallocated
buffers and, for one-input models, replaces the 1x1 solve by a multiply
with the reciprocal of ``R + B'PB``.  It must return the bits of the plain
recursion in ``references.py``.  Pinned on scipy-openblas 0.3.31 (numpy
2.4) with one BLAS thread; on a BLAS/LAPACK build that rounds differently
these tests fail instead of the learning outputs shifting silently.

``control_linalg.dare_solve`` solves by doubling, which cannot reproduce
the fixed-point loop's bits.  On the same models it must reach the same
outcome as ``references.dare_reference`` (both solve, or both raise the
same type), and its ``P`` must lie within ``1e-12 * max(1, |P|)`` of
``scipy.linalg.solve_discrete_are``.
"""

import ctypes
import glob
import os

import numpy as np
import pytest
import scipy.linalg

from actiongov import safe_learning
from actiongov.control_linalg import dare_solve, riccati_finite, spectral_radius
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


def _solves_like_the_reference(A, B, Q, R):
    """``dare_solve`` and ``dare_reference`` both solve, or both raise the
    same type; a solution's ``P`` is exactly symmetric and within
    ``1e-12 * max(1, |P|)`` of scipy's."""
    outcomes = []
    for fn in (dare_solve, dare_reference):
        try:
            outcomes.append(fn(A, B, Q, R))
        except Exception as exc:  # the exception type is the outcome
            outcomes.append(type(exc))
    got, ref = outcomes
    if isinstance(got, type) or isinstance(ref, type):
        return got is ref
    P = got[0]
    p_scipy = scipy.linalg.solve_discrete_are(*(np.atleast_2d(m) for m in (A, B, Q, R)))
    return (np.array_equal(P, P.T)
            and np.max(np.abs(P - p_scipy)) <= 1e-12 * max(1.0, np.max(np.abs(p_scipy))))


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
        assert _solves_like_the_reference([[a]], [[b]], [[1.0]], [[r]])
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
        assert _solves_like_the_reference(*args)


def test_two_input_models_match_the_plain_loops_and_scipy():
    rng = np.random.default_rng(77)
    solved = 0
    for _ in range(50):
        A, B, Q, R = _random_two_input_model(rng)
        assert _solves_like_the_reference(A, B, Q, R)
        assert (riccati_finite(A, B, Q, R, Q, 50).tobytes()
                == riccati_finite_reference(A, B, Q, R, Q, 50).tobytes())
        try:
            dare_solve(A, B, Q, R)
        except NoStabilizingSolutionError:
            continue
        solved += 1
    assert solved >= 40


def test_slowly_converging_model_is_solved():
    # a discretized double integrator with a light state penalty: the closed
    # loop's radius is 0.993, so the fixed-point loop needs thousands of sweeps
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    B = np.array([[0.005], [0.1]])
    Q, R = 1e-4 * np.eye(2), np.array([[1.0]])
    with pytest.raises(NoStabilizingSolutionError, match="limit"):
        dare_reference(A, B, Q, R, max_iter=1000)
    P, K = dare_solve(A, B, Q, R)
    p_scipy = scipy.linalg.solve_discrete_are(A, B, Q, R)
    assert np.max(np.abs(P - p_scipy)) <= 1e-10 * max(1.0, np.max(np.abs(p_scipy)))
    assert spectral_radius(A + B @ K) < 1.0
