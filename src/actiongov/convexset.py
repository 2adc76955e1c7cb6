"""Halfspace polytopes and the set algebra built on them.

All sets are carried in H-representation ``{z : normals z <= offsets}``;
no vertex representation is maintained anywhere.  Queries whose floats
are returned (support, bounding box, emptiness) are solved by the dense
simplex :func:`actiongov.lp.solve_lp`; so is the nearest point of an
affine image, except in one dimension, where it is a clip to an interval
and no LP is set up.  Redundancy removal (and through it projection)
only needs a yes/no answer per row, which :func:`actiongov.lp.max_exceeds`
gives from a certified dual bound and falls back to the same simplex when
the bound is too close to call.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptySetError, UnboundedSetError
from .lp import LpStatus, Sense, max_exceeds, solve_lp

DEFAULT_TOL = 1e-9


class HPolytope:
    """Convex polytope ``{z : normals z <= offsets}``.

    Values are immutable after construction; emptiness and the bounding box
    are decided lazily through the module's own LP and cached.
    A polytope with zero rows represents the whole space.
    """

    __slots__ = ("normals", "offsets", "_empty", "_bbox")

    def __init__(self, normals, offsets):
        # copies, frozen below: the caller's own arrays stay writable
        normals = np.atleast_2d(np.array(normals, dtype=float))
        offsets = np.array(offsets, dtype=float).ravel()
        if normals.size == 0:
            normals = normals.reshape(0, normals.shape[1] if normals.ndim == 2 else 0)
        if normals.shape[0] != offsets.size:
            raise ValueError(
                f"normals has {normals.shape[0]} rows but offsets has {offsets.size} entries"
            )
        if normals.size and not np.all(np.isfinite(normals)):
            raise ValueError("normals must be finite")
        if offsets.size and not np.all(np.isfinite(offsets)):
            raise ValueError("offsets must be finite")
        normals.flags.writeable = False
        offsets.flags.writeable = False
        self.normals = normals
        self.offsets = offsets
        self._empty = None
        self._bbox = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_bounds(cls, lo, hi) -> "HPolytope":
        """Axis-aligned box ``lo <= z <= hi``."""
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.size != hi.size:
            raise ValueError("lo and hi must have equal length")
        if np.any(lo > hi):
            raise ValueError("lo must not exceed hi")
        n = lo.size
        eye = np.eye(n)
        return cls(np.vstack([eye, -eye]), np.concatenate([hi, -lo]))

    # -- basic queries ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    @property
    def n_rows(self) -> int:
        return self.normals.shape[0]

    def contains(self, z, tol: float = DEFAULT_TOL):
        """Membership of one point (bool) or of rows of a matrix (bool array)."""
        z = np.asarray(z, dtype=float)
        if z.ndim == 1:
            return bool(np.all(self.normals @ z <= self.offsets + tol))
        slack = z @ self.normals.T - self.offsets
        return np.all(slack <= tol, axis=1)

    @property
    def is_empty(self) -> bool:
        if self._empty is None:
            res = solve_lp(np.zeros(self.dim), self.normals, self.offsets, Sense.MIN)
            self._empty = res.status is LpStatus.INFEASIBLE
        return self._empty

    def bounding_box(self):
        """Tight axis-aligned bounds ``(lo, hi)`` as read-only arrays, solved
        once and cached; requires nonempty and bounded."""
        if self._bbox is None:
            lo = np.empty(self.dim)
            hi = np.empty(self.dim)
            for d in range(self.dim):
                e = np.zeros(self.dim)
                e[d] = 1.0
                hi[d] = support(self, e)
                lo[d] = -support(self, -e)
            lo.flags.writeable = False
            hi.flags.writeable = False
            self._bbox = (lo, hi)
        return self._bbox

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {"normals": self.normals.tolist(), "offsets": self.offsets.tolist()}

    def __repr__(self):
        return f"HPolytope(dim={self.dim}, rows={self.n_rows})"


# -- operations -----------------------------------------------------------------


def support(poly: HPolytope, direction) -> float:
    """Support function ``h_P(a) = sup_P a.z``.

    Raises :class:`EmptySetError` for empty polytopes and
    :class:`UnboundedSetError` when the supremum is infinite.
    """
    res = solve_lp(direction, poly.normals, poly.offsets, Sense.MAX)
    if res.status is LpStatus.INFEASIBLE:
        raise EmptySetError("support of an empty polytope")
    if res.status is LpStatus.UNBOUNDED:
        raise UnboundedSetError("support is unbounded in the given direction")
    return res.value


def pontryagin_diff(poly: HPolytope, map_matrix, w_set: HPolytope) -> HPolytope:
    """``poly (-) map_matrix W``: shrink each offset by the support of the
    mapped subtrahend.  Exact for H-representations with compact convex W."""
    map_matrix = np.atleast_2d(np.asarray(map_matrix, dtype=float))
    if map_matrix.shape != (poly.dim, w_set.dim):
        raise ValueError(
            f"map must be {poly.dim} x {w_set.dim}, got {map_matrix.shape}"
        )
    if w_set.is_empty:
        raise EmptySetError("Pontryagin difference with an empty subtrahend")
    shrink = np.array([support(w_set, map_matrix.T @ a) for a in poly.normals])
    return HPolytope(poly.normals, poly.offsets - shrink)


def _eliminate_one(normals, offsets, col, tol=1e-11):
    """Fourier-Motzkin elimination of a single column."""
    a = normals[:, col]
    zero = np.abs(a) <= tol
    pos = a > tol
    neg = a < -tol
    kept_n = [normals[zero]]
    kept_b = [offsets[zero]]
    if np.any(pos) and np.any(neg):
        pn = normals[pos] / a[pos, None]
        pb = offsets[pos] / a[pos]
        nn = normals[neg] / (-a[neg, None])
        nb = offsets[neg] / (-a[neg])
        comb_n = pn[:, None, :] + nn[None, :, :]
        comb_b = pb[:, None] + nb[None, :]
        kept_n.append(comb_n.reshape(-1, normals.shape[1]))
        kept_b.append(comb_b.ravel())
    new_n = np.vstack(kept_n)
    new_b = np.concatenate(kept_b)
    return np.delete(new_n, col, axis=1), new_b


def _dedupe_rows(normals, offsets, tol=1e-10):
    """Drop trivial rows, normalize, and collapse duplicate halfspaces."""
    norms = np.linalg.norm(normals, axis=1)
    trivial = norms <= tol
    if np.any(offsets[trivial] < -tol):
        # 0.z <= negative: keep one such row so emptiness is preserved
        keep = np.ones(normals.shape[0], dtype=bool)
    else:
        keep = ~trivial
    normals, offsets, norms = normals[keep], offsets[keep], norms[keep]
    norms = np.where(norms <= tol, 1.0, norms)
    normals = normals / norms[:, None]
    offsets = offsets / norms
    # sort primarily by normal so duplicate halfspaces become adjacent
    order = np.lexsort(np.column_stack([normals, offsets]).T[::-1])
    normals, offsets = normals[order], offsets[order]
    rows = np.column_stack([normals, offsets])
    kept = []
    for i in range(rows.shape[0]):
        if kept and np.allclose(rows[i, :-1], rows[kept[-1], :-1], atol=tol):
            # identical normal: keep only the smaller offset
            if rows[i, -1] < rows[kept[-1], -1]:
                kept[-1] = i
        else:
            kept.append(i)
    kept = np.asarray(kept, dtype=int)
    return normals[kept], offsets[kept]


def remove_redundancy(poly: HPolytope) -> HPolytope:
    """Minimal H-representation of the same point set.

    Each retained halfspace is certified non-redundant by an LP decision:
    relaxing its bound by 1 lets its value exceed the bound.  Deterministic
    and idempotent.
    """
    if poly.is_empty:
        raise EmptySetError("cannot reduce an empty polytope")
    normals, offsets = _dedupe_rows(poly.normals.copy(), poly.offsets.copy())
    active = list(range(normals.shape[0]))
    i = 0
    while i < len(active):
        row = active[i]
        others = [r for r in active if r != row]
        test_n = np.vstack([normals[others], normals[row][None, :]])
        test_b = np.concatenate([offsets[others], [offsets[row] + 1.0]])
        if max_exceeds(normals[row], test_n, test_b, offsets[row] + DEFAULT_TOL):
            i += 1
        else:
            active.pop(i)
    return HPolytope(normals[active], offsets[active])


def project_out(poly: HPolytope, dims) -> HPolytope:
    """Project away the listed coordinates by Fourier-Motzkin elimination.

    Membership is preserved: ``x`` is in the result iff some lift ``(x, z)``
    lies in ``poly``.  Redundancy is removed after each eliminated variable
    to control row growth.
    """
    dims = sorted(set(int(d) for d in np.atleast_1d(dims)))
    if not dims:
        return poly
    if any(d < 0 or d >= poly.dim for d in dims):
        raise ValueError("projection dimensions out of range")
    if len(dims) >= poly.dim:
        raise ValueError("cannot eliminate every dimension")
    normals, offsets = poly.normals.copy(), poly.offsets.copy()
    for col in reversed(dims):
        normals, offsets = _eliminate_one(normals, offsets, col)
        normals, offsets = _dedupe_rows(normals, offsets)
        reduced = remove_redundancy(HPolytope(normals, offsets))
        normals, offsets = reduced.normals.copy(), reduced.offsets.copy()
    return HPolytope(normals, offsets)


def _nearest_on_line(poly: HPolytope, gain: float, shift: float, target: float):
    """:func:`nearest_affine_point` for scalar ``z`` and a scalar map.

    The rows cut the line to an interval ``[lo, hi]``: rows with a positive
    coefficient bound it above, rows with a negative one below, and rows
    with a zero coefficient only test ``0 <= offset``.  The minimizer of
    ``|gain z + shift - target|`` is ``(target - shift) / gain`` clipped to
    the interval (l1 and linf agree in one dimension); when ``gain == 0``
    every point of the interval attains ``|shift - target|`` and the one
    nearest 0 is returned.  The clipped point must meet every row up to
    ``DEFAULT_TOL * (1 + max |offset|)``, else the interval counts as empty
    and ``None`` comes back.
    """
    a = poly.normals[:, 0]
    b = poly.offsets
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ends = b / a
    hi = float(ends[a > 0.0].min(initial=np.inf))
    lo = float(ends[a < 0.0].max(initial=-np.inf))
    z = min(max((target - shift) / gain if gain != 0.0 else 0.0, lo), hi)
    if not np.all(a * z - b <= DEFAULT_TOL * (1.0 + np.abs(b).max(initial=0.0))):
        return None
    return np.array([z]), abs(gain * z + shift - target)


def nearest_affine_point(poly: HPolytope, lin_map, offset, target, norm: str = "l1"):
    """Minimize ``||target - (lin_map z + offset)||`` over ``z`` in ``poly``.

    Returns ``(z, value)`` or ``None`` when the polytope is empty.  The norm
    is ``"l1"`` or ``"linf"``.  For scalar ``z`` and a scalar map the answer
    is a clip to an interval (:func:`_nearest_on_line`); otherwise both
    norms are posed as a single LP with epigraph variables, so the
    minimizer is deterministic (simplex pivot order).
    """
    lin_map = np.atleast_2d(np.asarray(lin_map, dtype=float))
    offset = np.asarray(offset, dtype=float).ravel()
    target = np.asarray(target, dtype=float).ravel()
    k, nz = lin_map.shape
    if nz != poly.dim or offset.size != k or target.size != k:
        raise ValueError("inconsistent dimensions in nearest_affine_point")
    if norm not in ("l1", "linf"):
        raise ValueError(f"unsupported norm {norm!r}")
    if k == nz == 1:
        return _nearest_on_line(poly, float(lin_map[0, 0]), float(offset[0]), float(target[0]))
    ns = k if norm == "l1" else 1
    # variables: (z, s); rows: poly on z, then +/-(map z + offset - target) <= s
    rows_a = np.hstack([poly.normals, np.zeros((poly.n_rows, ns))])
    rows_b = poly.offsets
    if norm == "l1":
        s_sel = np.eye(k)
    else:
        s_sel = np.ones((k, 1))
    upper = np.hstack([lin_map, -s_sel])
    lower = np.hstack([-lin_map, -s_sel])
    a_all = np.vstack([rows_a, upper, lower])
    b_all = np.concatenate([rows_b, target - offset, offset - target])
    c = np.concatenate([np.zeros(nz), np.ones(ns)])
    res = solve_lp(c, a_all, b_all, Sense.MIN)
    if res.status is not LpStatus.OPTIMAL:
        return None
    return res.point[:nz], res.value


def rejection_sample(poly: HPolytope, rng, n: int, margin: float = 0.0, max_tries: int = 200000):
    """Uniform samples from a bounded polytope via bounding-box rejection."""
    lo, hi = poly.bounding_box()
    out = np.empty((n, poly.dim))
    got = 0
    for _ in range(max_tries):
        z = rng.uniform(lo, hi)
        if np.all(poly.normals @ z <= poly.offsets - margin):
            out[got] = z
            got += 1
            if got == n:
                return out
    raise EmptySetError("rejection sampling failed; set may have negligible volume")
