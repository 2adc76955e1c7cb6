"""Bitwise pins of the library's finite-horizon Riccati recursion.

``control_linalg.riccati_finite`` must carry the bits of the plain
recursion in ``references.py``.  Pinned on scipy-openblas 0.3.31
(numpy 2.4) with one BLAS thread; on a BLAS/LAPACK build that rounds
differently these tests fail instead of a gain shifting silently.  The
DARE is checked by outcome and tolerance in ``test_dare_agreement.py``.
"""

import ctypes
import glob
import os

import numpy as np

from actiongov.control_linalg import riccati_finite
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
