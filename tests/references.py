"""Reference routines that only the tests use: set intersection and
inclusion, the batch least-squares fit the recursive estimator must match,
and the identity lifting for linear test systems."""

import numpy as np

from actiongov.convexset import DEFAULT_TOL, HPolytope, support
from actiongov.errors import EmptySetError, UnboundedSetError
from actiongov.safe_learning import ObservableMap


def intersect(p: HPolytope, q: HPolytope) -> HPolytope:
    if q.dim != p.dim:
        raise ValueError("dimension mismatch in intersection")
    return HPolytope(np.vstack([p.normals, q.normals]), np.concatenate([p.offsets, q.offsets]))


def is_subset(p: HPolytope, q: HPolytope, tol: float = DEFAULT_TOL) -> bool:
    """True iff every halfspace of ``q`` is satisfied by all of ``p``."""
    if p.dim != q.dim:
        raise ValueError("dimension mismatch in subset test")
    if p.is_empty:
        raise EmptySetError("subset test requires a nonempty left operand")
    for a, b in zip(q.normals, q.offsets):
        try:
            if support(p, a) > b + tol:
                return False
        except UnboundedSetError:
            return False
    return True


def batch_fit(z_plus, z, u1, ridge: float = 0.0):
    """Least-squares fit of ``z+ ~ A z + B u`` from column-sample matrices.

    Uses the pseudoinverse, so rank-deficient data yields the minimum-norm
    solution; a ridge term is available when explicit regularization is
    preferred.
    """
    z_plus = np.atleast_2d(np.asarray(z_plus, dtype=float))
    z = np.atleast_2d(np.asarray(z, dtype=float))
    u1 = np.atleast_2d(np.asarray(u1, dtype=float))
    if not (z_plus.shape[1] == z.shape[1] == u1.shape[1]):
        raise ValueError("sample counts must agree across z+, z and u")
    g = np.vstack([z, u1])
    if ridge > 0.0:
        gram = g @ g.T + ridge * np.eye(g.shape[0])
        theta = z_plus @ g.T @ np.linalg.inv(gram)
    else:
        theta = z_plus @ np.linalg.pinv(g)
    nz = z.shape[0]
    return theta[:, :nz], theta[:, nz:]


def prediction_residual(A, B, z_plus, z, u1) -> float:
    """Frobenius-norm fit diagnostic for a lifted linear model."""
    return float(np.linalg.norm(z_plus - A @ z - B @ u1, "fro"))


def identity_observables(n: int) -> ObservableMap:
    return ObservableMap(fn=lambda x: x, n_z=n, name="identity")
