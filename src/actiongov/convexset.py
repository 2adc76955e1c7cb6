"""Halfspace polytopes, their generators, and the set algebra built on both.

Sets are given in H-representation ``{z : normals z <= offsets}``.  Their
vertex representation -- vertices, plus rays and lines when the set is
unbounded -- is listed by the double description method
(:class:`Generators`) and cached on the polytope.  Redundancy removal,
projection and the Pontryagin difference work on the generators: a row is
kept iff the generators on it span a hyperplane, a projection is the
generators projected and turned back into rows by the same routine on the
polar cone, and each shrink is a maximum over the subtrahend's vertices;
so is a support, and the bounding box is the supports of the axes.
Emptiness is decided by the dense simplex :func:`actiongov.lp.solve_lp`,
and so is the nearest point of an affine image, except in one dimension,
where it is a clip to an interval and no LP is set up.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptySetError, UnboundedSetError
from .lp import LpStatus, solve_lp

DEFAULT_TOL = 1e-9
# a generator lies on a row when the row's residual there is within this
# fraction of the magnitude of the terms it sums (and within DEFAULT_TOL)
VERTEX_TOL = 1e-12


class HPolytope:
    """Convex polytope ``{z : normals z <= offsets}``.

    Values are immutable after construction; emptiness is decided lazily
    by the module's own LP, the generators by the double description method
    and the bounding box from the generators, and all three are cached.
    A polytope with zero rows represents the whole space.
    """

    __slots__ = ("normals", "offsets", "_empty", "_bbox", "_gens")

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
        self._gens = None

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
            res = solve_lp(np.zeros(self.dim), self.normals, self.offsets)
            self._empty = res.status is LpStatus.INFEASIBLE
        return self._empty

    def bounding_box(self):
        """Tight bounds ``(lo, hi)``, the supports of the axes, as read-only
        arrays read once and cached; requires nonempty and bounded."""
        if self._bbox is None:
            axes = np.eye(self.dim)
            lo = np.array([-support(self, -e) for e in axes])
            hi = np.array([support(self, e) for e in axes])
            lo.flags.writeable = False
            hi.flags.writeable = False
            self._bbox = (lo, hi)
        return self._bbox

    def generators(self) -> "Generators":
        """The vertex representation, listed once and cached; do not cut it."""
        if self._gens is None:
            self._gens = Generators.of(self.normals, self.offsets)
        return self._gens

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {"normals": self.normals.tolist(), "offsets": self.offsets.tolist()}

    def __repr__(self):
        return f"HPolytope(dim={self.dim}, rows={self.n_rows})"


class Generators:
    """Generators of ``{z : normals z <= offsets}`` by the double description
    method (Motzkin, Raiffa, Thompson & Thrall 1953; Fukuda & Prodon 1996).

    The set is carried homogenized, as the cone ``{(z, t) : a.z - b t <= 0
    for every row, t >= 0}``.  Each row of ``gens`` is an extreme ray
    ``(y, t)`` of that cone modulo its lineality space: a vertex ``y`` of
    the set when ``t = 1``, a ray of it when ``t = 0`` (unit length).  The
    rows of ``hlines`` (``t = 0``, unit length) span the lineality space.
    ``tight[k, i]`` records that generator ``k`` lies on row ``i - 1``;
    column 0 is the row ``t >= 0``, on which exactly the rays lie.  A
    generator's incidences are classified once, when it is made, and then
    inherited, so adjacency is decided combinatorially and never re-measured.

    Start from the whole space (:meth:`__init__`) or from rows (:meth:`of`);
    :meth:`cut` intersects with one more row in place.  An empty set keeps
    no vertex.
    """

    __slots__ = ("gens", "hlines", "tight", "normals", "offsets", "extent")

    def __init__(self, dim: int):
        # the whole space: the origin and every coordinate line
        self.gens = np.zeros((1, dim + 1))
        self.gens[0, dim] = 1.0
        self.hlines = np.eye(dim, dim + 1)
        self.tight = np.zeros((1, 1), dtype=bool)
        self.normals = np.empty((0, dim))
        self.offsets = np.empty(0)
        self.extent = 1.0  # the largest vertex coordinate seen so far

    @classmethod
    def of(cls, normals, offsets) -> "Generators":
        """The whole space cut by each row in turn."""
        normals = np.atleast_2d(np.asarray(normals, dtype=float))
        gens = cls(normals.shape[1])
        for a, b in zip(normals, np.asarray(offsets, dtype=float).ravel()):
            gens.cut(a, b)
        return gens

    @property
    def vertices(self) -> np.ndarray:
        return self.gens[self.gens[:, -1] > 0.0, :-1]

    @property
    def rays(self) -> np.ndarray:
        return self.gens[self.gens[:, -1] == 0.0, :-1]

    @property
    def lines(self) -> np.ndarray:
        return self.hlines[:, :-1]

    @property
    def is_empty(self) -> bool:
        return not np.any(self.gens[:, -1] > 0.0)

    def polytope(self) -> HPolytope:
        """The rows cut so far as an :class:`HPolytope` whose cached
        generators are these; cut them no further."""
        poly = HPolytope(self.normals, self.offsets)
        poly._gens = self
        return poly

    def support(self, directions) -> np.ndarray:
        """``max a.z`` over the set for each row ``a`` of ``directions``
        (one value for one direction): ``+inf`` where a ray or a line
        leaves by more than ``VERTEX_TOL |a|``, ``-inf`` for the empty set."""
        d = np.asarray(directions, dtype=float)
        dirs = np.atleast_2d(d)
        verts = self.vertices
        if not verts.shape[0]:
            out = np.full(dirs.shape[0], -np.inf)
        else:
            out = (dirs @ verts.T).max(axis=1)
            reach = np.abs(dirs).sum(axis=1) * VERTEX_TOL
            leaves = ((dirs @ self.rays.T) > reach[:, None]).any(axis=1)
            leaves |= (np.abs(dirs @ self.lines.T) > reach[:, None]).any(axis=1)
            out[leaves] = np.inf
        return out if d.ndim == 2 else out[0]

    def cut(self, a, b) -> None:
        """Intersect the set with ``a.z <= b`` in place.

        A generator is outside when its residual exceeds ``VERTEX_TOL``
        times the magnitude of the terms it sums (a vertex's coordinates
        taken at the largest extent the set has had), capped at
        ``DEFAULT_TOL``; on the row within that, and inside otherwise.
        Outside generators are dropped, and each edge from an outside to an
        inside one gives a new generator on the row.
        """
        a = np.asarray(a, dtype=float).ravel()
        h = np.append(a, -float(b))
        self.normals = np.vstack([self.normals, a])
        self.offsets = np.append(self.offsets, float(b))
        if self.hlines.shape[0]:
            on_lines = self.hlines @ h
            j = int(np.argmax(np.abs(on_lines)))
            if abs(on_lines[j]) > VERTEX_TOL * np.abs(a).sum():
                self._cut_line(h, j, on_lines[j])
                return
        gens = self.gens
        s = gens @ h
        # a vertex carries the rounding of the generators it was made from,
        # so its error scales with the largest extent the set has had, not
        # with its own coordinates (a vertex at 0 can come out as 1e-11)
        finite = gens[:, -1] > 0.0
        self.extent = np.abs(gens[finite, :-1]).max(initial=self.extent)
        tol = np.minimum(VERTEX_TOL * (np.abs(a).sum() * np.where(finite, self.extent, 1.0)
                                       + abs(float(b)) * gens[:, -1]), DEFAULT_TOL)
        out = s > tol
        on = s >= -tol
        if not out.any():
            self.tight = np.hstack([self.tight, on[:, None]])
            return
        p, n = np.nonzero(out)[0], np.nonzero(~on)[0]
        # two generators span an edge only if they share enough rows, and
        # only if no third generator lies on every row they share
        incidence = self.tight.astype(np.float32)  # counts stay exact integers
        need = gens.shape[1] - self.hlines.shape[0] - 2
        pi, ni = np.nonzero(incidence[p] @ incidence[n].T >= need)
        p, n = p[pi], n[ni]
        common = self.tight[p] & self.tight[n]
        if p.size:
            missing = common.astype(np.float32) @ (1.0 - incidence).T
            edge = np.count_nonzero(missing == 0.0, axis=1) == 2
            p, n, common = p[edge], n[edge], common[edge]
        new = s[p, None] * gens[n] - s[n, None] * gens[p]
        vert = new[:, -1] > 0.0
        new[vert] /= new[vert, -1:]
        new[vert, -1] = 1.0
        new[~vert] /= np.linalg.norm(new[~vert], axis=1)[:, None]
        keep = ~out
        self.gens = np.vstack([gens[keep], new])
        self.tight = np.vstack([
            np.hstack([self.tight[keep], on[keep, None]]),
            np.hstack([common, np.ones((common.shape[0], 1), dtype=bool)]),
        ])

    def _cut_line(self, h, j, hj):
        """A cut that leaves the lineality space: line ``j`` crosses the row.
        Every generator and every other line is moved along it onto the row
        (or parallel to it), and its inward half becomes a ray."""
        ray = self.hlines[j] * (-np.sign(hj))
        hj = -abs(hj)
        lines = np.delete(self.hlines, j, axis=0)
        lines -= np.outer(lines @ h / hj, ray)
        self.hlines = lines / np.linalg.norm(lines, axis=1)[:, None]
        gens = self.gens - np.outer(self.gens @ h / hj, ray)
        rays = gens[:, -1] == 0.0
        gens[rays] /= np.linalg.norm(gens[rays], axis=1)[:, None]
        self.gens = np.vstack([gens, ray])
        # lines lie on every earlier row and on t >= 0; the moved generators
        # keep their incidences and lie on the new row
        m = self.tight.shape[1]
        self.tight = np.vstack([
            np.hstack([self.tight, np.ones((self.tight.shape[0], 1), dtype=bool)]),
            np.append(np.ones(m, dtype=bool), False)[None, :],
        ])


# -- operations -----------------------------------------------------------------


def support(poly: HPolytope, direction) -> float:
    """Support function ``h_P(a) = sup_P a.z``, the maximum over the
    vertices of ``poly.generators()``.

    Raises :class:`EmptySetError` for empty polytopes and
    :class:`UnboundedSetError` when a ray or a line leaves.
    """
    direction = np.asarray(direction, dtype=float).ravel()
    if not np.all(np.isfinite(direction)):
        raise ValueError("direction must be finite")
    value = float(poly.generators().support(direction))
    if value == -np.inf:
        raise EmptySetError("support of an empty polytope")
    if value == np.inf:
        raise UnboundedSetError("support is unbounded in the given direction")
    return value


def pontryagin_diff(poly: HPolytope, map_matrix, w_set: HPolytope) -> HPolytope:
    """``poly (-) map_matrix W``: shrink each offset by the support of the
    mapped subtrahend, a maximum over the vertices of W.  Exact for
    H-representations with compact convex W."""
    map_matrix = np.atleast_2d(np.asarray(map_matrix, dtype=float))
    if map_matrix.shape != (poly.dim, w_set.dim):
        raise ValueError(
            f"map must be {poly.dim} x {w_set.dim}, got {map_matrix.shape}"
        )
    w_gens = w_set.generators()
    if w_gens.is_empty:
        raise EmptySetError("Pontryagin difference with an empty subtrahend")
    shrink = w_gens.support(poly.normals @ map_matrix)
    if np.isinf(shrink).any():
        raise UnboundedSetError("support is unbounded in the given direction")
    return HPolytope(poly.normals, poly.offsets - shrink)


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
        if kept and np.allclose(rows[i, :-1], rows[kept[-1], :-1], rtol=0.0, atol=tol):
            # identical normal: keep only the smaller offset
            if rows[i, -1] < rows[kept[-1], -1]:
                kept[-1] = i
        else:
            kept.append(i)
    kept = np.asarray(kept, dtype=int)
    return normals[kept], offsets[kept]


def remove_redundancy(poly: HPolytope) -> HPolytope:
    """Minimal H-representation of the same point set.

    A row is kept iff the generators on it, with the lines, span a
    hyperplane of the set's span: it carries a facet.  Rows that hold with
    equality on the whole set are kept too.  The kept rows are normalized
    and sorted; duplicates and rows ``0.z <= b`` go.  Deterministic and
    idempotent.
    """
    gens = poly.generators()
    if gens.is_empty:
        raise EmptySetError("cannot reduce an empty polytope")
    full = np.vstack([gens.gens, gens.hlines])
    facet_rank = np.linalg.matrix_rank(full) - 1
    n_lines = gens.hlines.shape[0]
    keep = np.zeros(poly.n_rows, dtype=bool)
    # the generators on a row span at most a hyperplane; rounding can only
    # add rank, so a row whose generators reach it carries a facet
    for i, on in enumerate(gens.tight[:, 1:].T):
        keep[i] = on.all() or (on.sum() + n_lines >= facet_rank and np.linalg.matrix_rank(
            np.vstack([gens.gens[on], gens.hlines])) >= facet_rank)
    normals, offsets = _dedupe_rows(poly.normals[keep], poly.offsets[keep])
    return HPolytope(normals, offsets)


def project_out(poly: HPolytope, dims) -> HPolytope:
    """Project away the listed coordinates.

    Membership is preserved: ``x`` is in the result iff some lift ``(x, z)``
    lies in ``poly``.  The generators are projected, and the rows of the
    projection are the extreme rays of the polar of the projected cone,
    listed by the same double description; the result is normalized and
    sorted like :func:`remove_redundancy`'s.
    """
    dims = sorted(set(int(d) for d in np.atleast_1d(dims)))
    if not dims:
        return poly
    if any(d < 0 or d >= poly.dim for d in dims):
        raise ValueError("projection dimensions out of range")
    if len(dims) >= poly.dim:
        raise ValueError("cannot eliminate every dimension")
    gens = poly.generators()
    if gens.is_empty:
        raise EmptySetError("cannot project an empty polytope")
    cols = [c for c in range(poly.dim + 1) if c not in dims]
    lines = gens.hlines[:, cols]
    # polar cone {h : h.g <= 0 for every projected generator, h.l = 0 for
    # every projected line}; each of its rays h = (a, -b) is a row a.x <= b
    polar = Generators.of(np.vstack([gens.gens[:, cols], lines, -lines]),
                          np.zeros(gens.gens.shape[0] + 2 * lines.shape[0]))
    rows = np.vstack([polar.rays, polar.lines, -polar.lines]) + 0.0  # no -0.0
    normals, offsets = _dedupe_rows(rows[:, :-1], -rows[:, -1])
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
    res = solve_lp(c, a_all, b_all)
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
