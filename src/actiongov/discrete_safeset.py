"""Grid discretization of the nominal closed loop and safe-set classification.

The closed loop is discretized onto a regular product grid (nearest grid
point in Euclidean distance, which on a product grid reduces to nearest
per coordinate; exact ties take the smaller index).  A seed of certified
safe and invariant pairs is grown from steady-state ellipsoids, then a
sweep-to-fixed-point classification sorts every ``(x, v)`` pair into
provably-safe, provably-unsafe, or unresolved.

Reference semantics of the classification is the sequential pair-by-pair
sweep; the implementation evaluates each sweep in a vectorized batch and
applies the updates at sweep end, which reaches the same fixed point
because both class sets only ever grow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .control_linalg import ClosedLoop, NominalGain, OutputMap, dlyap_scaled
from .errors import SeedConstructionError
from .governor import nearest_candidate

REMAIN = 0
SAFE_PLUS = 1
MINUS = 2

WITNESS_NONE = -3
WITNESS_CONSTRAINT = -1

_SNAP_TIE = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Regular grids for the 2-D state, scalar reference and scalar disturbance."""

    x_lo: tuple
    x_hi: tuple
    x_delta: tuple
    v_lo: float
    v_hi: float
    v_delta: float
    w_lo: float
    w_hi: float
    w_delta: float

    def __post_init__(self):
        for lo, hi, d in (*zip(self.x_lo, self.x_hi, self.x_delta),
                          (self.v_lo, self.v_hi, self.v_delta),
                          (self.w_lo, self.w_hi, self.w_delta)):
            if d <= 0:
                raise ValueError("grid resolution must be positive")
            if lo >= hi:
                raise ValueError("grid range must satisfy lo < hi")
            n = (hi - lo) / d
            if abs(n - round(n)) > 1e-9:
                raise ValueError("grid range must be an integer number of steps")

    @staticmethod
    def _axis(lo, hi, d):
        n = int(round((hi - lo) / d)) + 1
        axis = lo + d * np.arange(n)
        axis.flags.writeable = False
        return axis

    @cached_property
    def x_axes(self):
        return tuple(self._axis(lo, hi, d) for lo, hi, d in zip(self.x_lo, self.x_hi, self.x_delta))

    @cached_property
    def v_values(self):
        return self._axis(self.v_lo, self.v_hi, self.v_delta)

    @cached_property
    def w_values(self):
        return self._axis(self.w_lo, self.w_hi, self.w_delta)

    @property
    def n_x(self):
        return tuple(len(a) for a in self.x_axes)

    @property
    def n_xpairs(self) -> int:
        return int(np.prod(self.n_x))

    @property
    def n_v(self) -> int:
        return len(self.v_values)

    @property
    def n_w(self) -> int:
        return len(self.w_values)

    @property
    def n_pairs(self) -> int:
        return self.n_xpairs * self.n_v

    def x_points(self) -> np.ndarray:
        """All grid states, row-major in (x1, x2), shape (n_xpairs, 2)."""
        a1, a2 = self.x_axes
        g1, g2 = np.meshgrid(a1, a2, indexing="ij")
        return np.column_stack([g1.ravel(), g2.ravel()])

    @staticmethod
    def _snap_axis(vals, lo, hi, delta, n):
        """Nearest index per coordinate; ties round down; -1 out of range."""
        vals = np.asarray(vals, dtype=float)
        t = (vals - lo) / delta
        k = np.floor(t)
        frac = t - k
        k = k + (frac > 0.5 + _SNAP_TIE)
        k = k.astype(np.int64)
        tol = _SNAP_TIE * max(1.0, abs(hi), abs(lo))
        oob = (vals < lo - tol) | (vals > hi + tol)
        k = np.clip(k, 0, n - 1)
        return np.where(oob, -1, k)

    def snap_x(self, points) -> np.ndarray:
        """Flat x-pair indices of the nearest grid states; -1 when outside."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        n1, n2 = self.n_x
        i1 = self._snap_axis(pts[:, 0], self.x_lo[0], self.x_hi[0], self.x_delta[0], n1)
        i2 = self._snap_axis(pts[:, 1], self.x_lo[1], self.x_hi[1], self.x_delta[1], n2)
        flat = i1 * n2 + i2
        return np.where((i1 < 0) | (i2 < 0), -1, flat)

    def snap_v(self, vals) -> np.ndarray:
        return self._snap_axis(vals, self.v_lo, self.v_hi, self.v_delta, self.n_v)


class TransitionTable:
    """Successor x-pair index for every ``(x, v, w)`` grid triple.

    ``table[i, j, k]`` is the flat index of the grid state nearest to the
    closed-loop successor, or -1 when the successor leaves the grid range.
    """

    __slots__ = ("table", "grid", "cl")

    def __init__(self, table: np.ndarray, grid: GridSpec, cl: ClosedLoop):
        self.table = table
        self.grid = grid
        self.cl = cl


def discretize(cl: ClosedLoop, grid: GridSpec) -> TransitionTable:
    """Tabulate the nominal closed loop on the grid."""
    pts = grid.x_points()
    base = pts @ cl.At.T
    bt = cl.Bt.ravel()
    ew = cl.plant.E.ravel()
    table = np.empty((grid.n_xpairs, grid.n_v, grid.n_w), dtype=np.int32)
    for j, v in enumerate(grid.v_values):
        shift_v = base + bt * v
        for k, w in enumerate(grid.w_values):
            table[:, j, k] = grid.snap_x(shift_v + ew * w)
    return TransitionTable(table, grid, cl)


def _greatest_invariant_subset(mask: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Largest subset of ``mask`` closed under every disturbance successor."""
    vidx = np.arange(mask.shape[1])[None, :, None]
    current = mask.copy()
    while True:
        ok = (table >= 0) & current[np.clip(table, 0, None), vidx]
        stay = current & ok.all(axis=2)
        if (stay == current).all():
            return stay
        current = stay


def _forward_closure(core: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Smallest superset of ``core`` closed under every disturbance successor.

    Successors keep the reference coordinate, so closure proceeds slice by
    slice.  Callers must ensure successors never leave the grid.
    """
    seed = core.copy()
    frontier = core.copy()
    while frontier.any():
        rows, cols = np.nonzero(frontier)
        succ = table[rows, cols, :]
        if (succ < 0).any():
            raise SeedConstructionError("seed closure left the grid range")
        flat_new = np.zeros_like(seed)
        flat_new[succ.ravel(), np.repeat(cols, table.shape[2])] = True
        frontier = flat_new & ~seed
        seed |= frontier
    return seed


def build_seed(cl: ClosedLoop, out: OutputMap, tt: TransitionTable, ok: np.ndarray,
               alpha: float) -> np.ndarray:
    """Boolean mask (n_xpairs, n_v) of the certified safe invariant seed.

    ``tt`` is the loop's transition table and ``ok`` its
    :func:`constraint_table`.

    A reference is eligible when the worst case of every output constraint
    over its steady-state ellipsoid is admissible; the raw collection is the
    grid states inside eligible ellipsoids.  Snapping the dynamics to the
    grid can make that collection non-invariant (worst-case disturbances
    drive boundary members just outside), so the collection is completed to
    its forward closure inside the greatest invariant admissible pair set.
    When the collection is already invariant the closure adds nothing.
    """
    P = dlyap_scaled(cl.At, cl.plant.E, alpha)
    n = cl.At.shape[0]
    xv_dir = np.linalg.solve(np.eye(n) - cl.At, cl.Bt)  # steady state per unit v
    H = out.constraint_set.normals
    h = out.constraint_set.offsets
    HC = H @ cl.Ct
    spread = np.sqrt(np.maximum(np.einsum("ij,jk,ik->i", HC, P, HC), 0.0))
    coef = (HC @ xv_dir + H @ cl.Dt).ravel()
    margin = h - spread
    grid = tt.grid
    v_vals = grid.v_values
    eligible = np.all(coef[None, :] * v_vals[:, None] <= margin[None, :] + 1e-12, axis=1)

    pts = grid.x_points()
    p_inv = np.linalg.inv(P)
    members = np.zeros((grid.n_xpairs, grid.n_v), dtype=bool)
    for j in np.nonzero(eligible)[0]:
        d = pts - (xv_dir.ravel() * v_vals[j])
        quad = np.einsum("ij,jk,ik->i", d, p_inv, d)
        members[:, j] = quad <= 1.0 + 1e-12
    if not members.any():
        raise SeedConstructionError("no grid pair passed the ellipsoid constraint check")

    invariant = _greatest_invariant_subset(ok, tt.table)
    core = members & invariant
    if not core.any():
        raise SeedConstructionError(
            "no ellipsoid member lies in any invariant admissible set"
        )
    return _forward_closure(core, tt.table)


class DiscreteSafeSet:
    """Classification of every grid pair plus the seed it grew from.

    ``class_map`` holds REMAIN / SAFE_PLUS / MINUS codes; ``pi`` is the
    selected safe set (the full SAFE_PLUS class).  ``witness_w`` records,
    for MINUS pairs, the disturbance-grid index that leads to a MINUS or
    out-of-grid successor (or -1 when the pair itself violates the
    constraints).  ``sweep_counts`` lists (safe, minus, remain) totals at
    every sweep boundary.
    """

    __slots__ = ("class_map", "seed", "grid", "witness_w", "sweep_counts", "_proj")

    def __init__(self, class_map, seed, grid, witness_w, sweep_counts):
        self.class_map = class_map
        self.seed = seed
        self.grid = grid
        self.witness_w = witness_w
        self.sweep_counts = sweep_counts
        self._proj = None

    @property
    def pi(self) -> np.ndarray:
        return self.class_map == SAFE_PLUS

    @property
    def proj_mask(self) -> np.ndarray:
        if self._proj is None:
            self._proj = self.pi.any(axis=1)
        return self._proj

    def counts(self) -> dict:
        return {
            "safe": int((self.class_map == SAFE_PLUS).sum()),
            "minus": int((self.class_map == MINUS).sum()),
            "remain": int((self.class_map == REMAIN).sum()),
        }


def constraint_table(out: OutputMap, gain: NominalGain, grid: GridSpec) -> np.ndarray:
    """Admissibility of ``(x, pi0(x, v))`` for every grid pair."""
    Ct = out.C + out.D @ gain.K
    Dt = out.D @ gain.L
    H = out.constraint_set.normals
    h = out.constraint_set.offsets
    xh = grid.x_points() @ (H @ Ct).T
    vh = np.outer(grid.v_values, (H @ Dt).ravel())
    ok = np.empty((grid.n_xpairs, grid.n_v), dtype=bool)
    for j in range(grid.n_v):
        ok[:, j] = np.all(xh + vh[j] <= h + 1e-9, axis=1)
    return ok


def compute_safe_set(seed: np.ndarray, tt: TransitionTable, ok: np.ndarray,
                     k_max: int | None = None) -> DiscreteSafeSet:
    """Classify all grid pairs by repeated sweeps until a fixed point.

    ``ok`` is the :func:`constraint_table` of the loop.  A remaining pair
    becomes SAFE_PLUS when its own constraint holds and every disturbance
    successor is already SAFE_PLUS; it becomes MINUS when the constraint
    fails or some successor is MINUS or out of grid.  Pairs that never
    resolve stay REMAIN and are excluded from the safe set.
    """
    grid = tt.grid
    if not seed.any():
        raise SeedConstructionError("seed is empty")
    if k_max is None:
        k_max = 50 * grid.n_pairs
    cls = np.zeros((grid.n_xpairs, grid.n_v), dtype=np.int8)
    cls[seed] = SAFE_PLUS
    witness = np.full(cls.shape, WITNESS_NONE, dtype=np.int16)
    vidx = np.arange(grid.n_v)[None, :, None]
    succ = tt.table
    valid = succ >= 0
    succ_clip = np.clip(succ, 0, None)
    counts = [(int((cls == SAFE_PLUS).sum()), int((cls == MINUS).sum()),
               int((cls == REMAIN).sum()))]
    visits = 0
    while visits < k_max:
        remain = cls == REMAIN
        if not remain.any():
            break
        scls = np.where(valid, cls[succ_clip, vidx], MINUS)
        all_safe = (scls == SAFE_PLUS).all(axis=2)
        any_minus = (scls == MINUS).any(axis=2)
        new_minus = remain & (~ok | any_minus)
        new_safe = remain & ok & all_safe & ~new_minus
        first_minus_w = np.argmax(scls == MINUS, axis=2).astype(np.int16)
        witness[new_minus & ~ok] = WITNESS_CONSTRAINT
        via_succ = new_minus & ok
        witness[via_succ] = first_minus_w[via_succ]
        cls[new_minus] = MINUS
        cls[new_safe] = SAFE_PLUS
        visits += int(remain.sum())
        counts.append((int((cls == SAFE_PLUS).sum()), int((cls == MINUS).sum()),
                       int((cls == REMAIN).sum())))
        if not (new_minus.any() or new_safe.any()):
            break
    return DiscreteSafeSet(cls, seed, grid, witness, counts)


def compute_safe_set_sequential(seed: np.ndarray, tt: TransitionTable, ok: np.ndarray,
                                k_max: int | None = None) -> DiscreteSafeSet:
    """Pair-at-a-time reference semantics of :func:`compute_safe_set`.

    Visits remaining pairs in index order and applies every reclassification
    immediately.  Intended for small grids and cross-checking; the batched
    sweep reaches the same fixed point.
    """
    grid = tt.grid
    if not seed.any():
        raise SeedConstructionError("seed is empty")
    if k_max is None:
        k_max = 50 * grid.n_pairs
    cls = np.zeros((grid.n_xpairs, grid.n_v), dtype=np.int8)
    cls[seed] = SAFE_PLUS
    witness = np.full(cls.shape, WITNESS_NONE, dtype=np.int16)
    counts = [(int((cls == SAFE_PLUS).sum()), int((cls == MINUS).sum()),
               int((cls == REMAIN).sum()))]
    visits = 0
    changed = True
    while changed and visits < k_max:
        changed = False
        for i in range(grid.n_xpairs):
            for j in range(grid.n_v):
                if cls[i, j] != REMAIN:
                    continue
                visits += 1
                if not ok[i, j]:
                    cls[i, j] = MINUS
                    witness[i, j] = WITNESS_CONSTRAINT
                    changed = True
                    continue
                succ = tt.table[i, j]
                s_cls = np.where(succ >= 0, cls[np.clip(succ, 0, None), j], MINUS)
                if (s_cls == SAFE_PLUS).all():
                    cls[i, j] = SAFE_PLUS
                    changed = True
                elif (s_cls == MINUS).any():
                    cls[i, j] = MINUS
                    witness[i, j] = int(np.argmax(s_cls == MINUS))
                    changed = True
                if visits >= k_max:
                    break
            if visits >= k_max:
                break
        counts.append((int((cls == SAFE_PLUS).sum()), int((cls == MINUS).sum()),
                       int((cls == REMAIN).sum())))
    return DiscreteSafeSet(cls, seed, grid, witness, counts)


class DiscreteGridOracle:
    """Governor oracle over the grid classification.

    Continuous queries are snapped to the grid; states outside the grid
    range are treated as outside the safe set.  Feasible actions are the
    configured action-grid values whose current constraint holds and whose
    successors stay inside the safe projection for every disturbance-grid
    value; both selections enumerate with :func:`nearest_candidate`.
    """

    def __init__(self, dss: DiscreteSafeSet, tt: TransitionTable, out: OutputMap,
                 action_values: np.ndarray):
        self.dss = dss
        self.grid = grid = tt.grid
        self.gain = tt.cl.gain
        self.action_values = np.asarray(action_values, dtype=float)
        if self.action_values.size == 0:
            raise ValueError("action grid must be nonempty")
        plant = tt.cl.plant
        self._A = plant.A
        self._B = plant.B.ravel()
        self._E = plant.E.ravel()
        # successor offsets per (action, disturbance) pair, shape (A, W, 2)
        self._shift = (self._B[None, None, :] * self.action_values[:, None, None]
                       + self._E[None, None, :] * grid.w_values[None, :, None])
        H = out.constraint_set.normals
        self._Hy_c = H @ out.C
        self._Hy_d = (H @ out.D).ravel()
        self._h = out.constraint_set.offsets

    def _index(self, x) -> int:
        return int(self.grid.snap_x(np.atleast_2d(np.ravel(x)))[0])

    def member(self, x, v) -> bool:
        i = self._index(x)
        j = int(self.grid.snap_v([float(np.atleast_1d(v)[0])])[0])
        return i >= 0 and j >= 0 and bool(self.dss.class_map[i, j] == SAFE_PLUS)

    def proj_member(self, x) -> bool:
        i = self._index(x)
        return bool(i >= 0 and self.dss.proj_mask[i])

    def pi0(self, x, v):
        return self.gain.policy(x, v)

    def feasible_actions(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).ravel()
        now_ok = self._Hy_c @ x + np.outer(self.action_values, self._Hy_d) <= self._h + 1e-9
        now_ok = now_ok.all(axis=1)
        succ = self.grid.snap_x(((self._A @ x)[None, None, :] + self._shift).reshape(-1, 2))
        succ = succ.reshape(self.action_values.size, self.grid.n_w)
        proj = self.dss.proj_mask
        robust = ((succ >= 0) & proj[np.clip(succ, 0, None)]).all(axis=1)
        return self.action_values[now_ok & robust]

    def adjust(self, x, u1, dist):
        return nearest_candidate(self.feasible_actions(x), lambda u: dist(u1, u))

    def backup(self, x, u1, dist):
        i = self._index(x)
        if i < 0:
            return None
        refs = self.grid.v_values[self.dss.class_map[i] == SAFE_PLUS]
        return nearest_candidate(refs, lambda v: dist(u1, self.pi0(x, v)))
