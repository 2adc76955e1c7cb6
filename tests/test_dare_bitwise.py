"""Bitwise pins of the buffered Riccati step against the plain recursion.

``control_linalg.riccati_finite`` runs the Riccati map in preallocated
buffers and, for one-input models, replaces the 1x1 solve by a multiply
with the reciprocal of ``R + B'PB``; ``dare_solve`` takes its gain from one
call of the same step.  The finite-horizon gain must carry the bits of the
plain recursion in ``references.py``, and the reciprocal those of the
LAPACK solve.  Pinned on scipy-openblas 0.3.31 (numpy 2.4) with one BLAS
thread; on a BLAS/LAPACK build that rounds differently these tests fail
instead of the learning outputs shifting silently.  The DARE itself is
checked by outcome and tolerance in ``test_dare_agreement.py``.
"""

import ctypes
import glob
import os

import numpy as np

from actiongov.control_linalg import dare_solve, riccati_finite
from actiongov.simlab import example_system
from references import random_two_input_model, riccati_finite_reference


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
