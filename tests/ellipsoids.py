"""Ellipsoids with an exact support function.

The library never builds ellipsoids as sets (the grid seed tests membership
with a quadratic form), so they live here as the tests' independent
reference for the steady-state seed construction.
"""

import numpy as np


class Ellipsoid:
    """Set ``{x : (x - center)^T shape^{-1} (x - center) <= 1}``.

    ``shape`` must be symmetric (within 1e-12) positive definite.
    """

    __slots__ = ("center", "shape")

    def __init__(self, center, shape):
        center = np.asarray(center, dtype=float).ravel()
        shape = np.asarray(shape, dtype=float)
        if shape.shape != (center.size, center.size):
            raise ValueError("shape matrix must be n x n for an n-vector center")
        if np.max(np.abs(shape - shape.T), initial=0.0) > 1e-12:
            raise ValueError("shape matrix must be symmetric within 1e-12")
        if np.min(np.linalg.eigvalsh(shape)) <= 0.0:
            raise ValueError("shape matrix must be positive definite")
        center.flags.writeable = False
        shape.flags.writeable = False
        self.center = center
        self.shape = shape

    @property
    def dim(self) -> int:
        return self.center.size

    def __repr__(self):
        return f"Ellipsoid(dim={self.dim})"


def ellipsoid_support(e: Ellipsoid, direction) -> float:
    """Exact supremum of ``direction . x`` over the ellipsoid."""
    direction = np.asarray(direction, dtype=float).ravel()
    if direction.size != e.dim:
        raise ValueError("direction dimension mismatch")
    quad = float(direction @ e.shape @ direction)
    return float(direction @ e.center) + np.sqrt(max(quad, 0.0))


def ellipsoid_contains(e: Ellipsoid, x, tol: float = 1e-12) -> bool:
    x = np.asarray(x, dtype=float).ravel()
    if x.size != e.dim:
        raise ValueError("point dimension mismatch")
    d = x - e.center
    return float(d @ np.linalg.solve(e.shape, d)) <= 1.0 + tol
