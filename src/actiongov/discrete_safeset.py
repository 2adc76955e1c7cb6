"""Grid discretization of the nominal closed loop and safe-set classification.

The closed loop is discretized onto a regular product grid (nearest grid
point in Euclidean distance, which on a product grid reduces to nearest
per coordinate; exact ties take the smaller index).  Each ``(x, v)`` pair
is classified safe, unsafe or unresolved in three stages: a backward fixed
point marks the unsafe pairs, leaving the greatest invariant admissible
set; a seed built from steady-state ellipsoids inside that set; and the
growth of the safe set from the seed.  The fixed points apply each
vectorized sweep at its end, which reaches the same sets as a
pair-at-a-time sweep because the marked sets only ever grow.

The nominal loop holds the reference, so every successor of a pair
``(x, v)`` is a pair of the same reference slice ``v``, and no slice reads
another.  The set-up therefore holds one slice's successors at a time:
:func:`discretize` prepares the snapping, and
:meth:`TransitionTable.slice_block` tabulates the successors of some
states of one slice into a buffer that the next slice overwrites.  The
block is disturbance-major, one contiguous row per disturbance and one
column per state, so the sweeps reduce across a few long rows.  The
classification reads the successors of admissible pairs only (an
inadmissible pair is unsafe before any sweep, and the seed and the safe
set lie inside the invariant set), so one pass per slice tabulates just
those columns and takes them through all three stages, then certifies
that the slice's safe set is closed on the same block.  Sweep ``r`` of a
slice marks exactly the pairs of that slice that sweep ``r`` over the
whole grid would mark; the totals after sweep ``r`` of the whole grid are
therefore the totals before the growth plus every slice's growth in its
first ``r`` sweeps.  The whole table, :attr:`TransitionTable.table`, is
assembled from the slices on demand; no pipeline reads it.

Each successor coordinate is snapped along the axes it moves with only: a
coordinate the reference does not move is snapped once per table, and one
the disturbance does not move is snapped once per state and broadcast over
the disturbances.  The rest is snapped slice by slice, for the requested
states only, into buffers allocated once per table, so tabulating a slice
frees and re-faults no slice-sized temporaries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .control_linalg import ClosedLoop, dlyap_scaled
from .convexset import DEFAULT_TOL
from .errors import SafeSetClosureError, SeedConstructionError
from .governor import nearest_candidate

REMAIN = 0
SAFE_PLUS = 1
MINUS = 2

WITNESS_NONE = -3
WITNESS_CONSTRAINT = -1

_SNAP_TIE = 1e-9
_SNAP_HALF = 0.5 + _SNAP_TIE  # a fraction above this rounds up


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
        if any(np.shape(a) != (2,) for a in (self.x_lo, self.x_hi, self.x_delta)):
            raise ValueError("x_lo, x_hi and x_delta must each give the two state axes")
        for lo, hi, d in (*zip(self.x_lo, self.x_hi, self.x_delta),
                          (self.v_lo, self.v_hi, self.v_delta),
                          (self.w_lo, self.w_hi, self.w_delta)):
            if not np.isfinite((lo, hi, d)).all():
                raise ValueError("grid bounds and resolution must be finite")
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

    @cached_property
    def _snap_axes(self):
        """Per-axis snapping constants ``(lo, delta, lo - tol, hi + tol, n - 1)``
        for x1, x2 and v."""
        def consts(lo, hi, d, n):
            # Python numbers, which :meth:`index_of` computes with directly
            lo, hi, d = float(lo), float(hi), float(d)
            tol = _SNAP_TIE * max(1.0, abs(hi), abs(lo))
            return lo, d, lo - tol, hi + tol, n - 1

        (n1, n2) = self.n_x
        return (consts(self.x_lo[0], self.x_hi[0], self.x_delta[0], n1),
                consts(self.x_lo[1], self.x_hi[1], self.x_delta[1], n2),
                consts(self.v_lo, self.v_hi, self.v_delta, self.n_v))

    @staticmethod
    def _snap_axis(vals, axis, out=None):
        """Nearest index per coordinate (ties round down, clamped into the
        axis) and the mask of coordinates outside the axis range or NaN.

        Out of place by default: on small arrays ``out=`` costs more.  Given
        ``out``, buffers ``(t, k, index, outside, scratch)`` of the shape of
        ``vals`` (float64, float64, int64, bool, bool), the same operations
        write every intermediate there and return ``index`` and ``outside``.
        """
        lo, delta, lo_tol, hi_tol, top = axis
        t, k, idx, outside, scratch = (None,) * 5 if out is None else out
        t = np.divide(np.subtract(vals, lo, out=t), delta, out=t)
        k = np.floor(t, out=k)
        # t - k takes the place of t, which is not read again
        k = np.add(k, np.greater(np.subtract(t, k, out=t), _SNAP_HALF, out=scratch), out=k)
        if idx is None:
            idx = k.astype(np.int64)
        else:
            np.copyto(idx, k, casting="unsafe")
        idx = np.minimum(np.maximum(idx, 0, out=idx), top, out=idx)
        # written as "not inside" so that NaN counts as outside
        inside = np.bitwise_and(np.greater_equal(vals, lo_tol, out=outside),
                                np.less_equal(vals, hi_tol, out=scratch), out=outside)
        return idx, np.invert(inside, out=outside)

    def _flat_index(self, snap1, snap2, out=None):
        """Flat x-pair indices (-1 outside) from the ``(index, outside)``
        snaps of x1 and x2, broadcast together; written into ``out`` if
        given."""
        (i1, out1), (i2, out2) = snap1, snap2
        flat = np.add(np.multiply(i1, self._snap_axes[1][4] + 1, out=out), i2, out=out)
        np.copyto(flat, -1, where=out1)
        np.copyto(flat, -1, where=out2)
        return flat

    def snap_x(self, points) -> np.ndarray:
        """Flat x-pair indices of the nearest grid states; -1 when outside.

        ``points`` is one state or a stack of them.  Each coordinate snaps on
        its own axis with constants computed once per grid.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        ax1, ax2, _ = self._snap_axes
        return self._flat_index(self._snap_axis(pts[:, 0], ax1), self._snap_axis(pts[:, 1], ax2))

    def index_of(self, x) -> int:
        """Flat x-pair index of the grid state nearest one state ``x`` (-1
        outside the range, NaN or infinite).

        ``x`` must have exactly two coordinates.  The snap is that of
        :meth:`snap_x`, in Python floats: the range test first, then the
        same operations in the same order as :meth:`_snap_axis`.
        """
        coords = np.asarray(x, dtype=float).ravel()
        if coords.size != 2:
            raise ValueError(f"a grid state has 2 coordinates, got {coords.size}")
        x1, x2 = coords.tolist()
        ax1, ax2, _ = self._snap_axes
        i1 = _snap_one(x1, ax1)
        i2 = _snap_one(x2, ax2)
        return -1 if i1 < 0 or i2 < 0 else i1 * (ax2[4] + 1) + i2


def _snap_one(val: float, axis) -> int:
    """:meth:`GridSpec._snap_axis` of one Python float (-1 outside)."""
    lo, delta, lo_tol, hi_tol, top = axis
    # checked first: floor of NaN or infinity raises
    if not (val >= lo_tol and val <= hi_tol):
        return -1
    t = (val - lo) / delta
    k = math.floor(t)
    k += t - k > _SNAP_HALF
    return min(max(k, 0), top)


class TransitionTable:
    """Successor x-pair indices of ``(x, v, w)`` grid triples, for some
    states of one reference slice at a time.

    Entry ``[k, r]`` of :meth:`slice_block` ``(j, states)`` is the flat
    index of the grid state nearest to the closed-loop successor of grid
    state ``states[r]`` under reference ``j`` and disturbance ``k``, or -1
    when the successor leaves the grid range.  :attr:`table` holds every
    state of every slice at once.  Every later stage reads the grid and the
    loop ``cl`` from the table.
    """

    __slots__ = ("grid", "cl", "_snaps", "_block", "_table")

    def __init__(self, snaps, grid: GridSpec, cl: ClosedLoop):
        self.grid = grid
        self.cl = cl
        self._snaps = snaps
        self._block = np.empty(grid.n_w * grid.n_xpairs, dtype=np.intp)
        self._table = None

    def slice_block(self, j: int, states: np.ndarray) -> np.ndarray:
        """The successors (n_w, len(states)) of the grid states ``states``
        (flat x-pair indices) under reference slice ``j``, as intp, one row
        per disturbance: column ``r`` is ``table[states[r], j]``.  A
        C-contiguous view of the first ``n_w * len(states)`` entries of one
        buffer of the table, which the next call overwrites."""
        shape = (self.grid.n_w, len(states))
        out = self._block[:shape[0] * shape[1]].reshape(shape)
        v = self.grid.v_values[j]
        return self.grid._flat_index(*(snap(v, states) for snap in self._snaps), out=out)

    @property
    def table(self) -> np.ndarray:
        """Every slice's successors, ``table[i, j, k]``, assembled from the
        transposed :meth:`slice_block` on first read and kept, read-only.
        Indices are int16 when every x-pair index fits, int32 otherwise."""
        if self._table is None:
            grid = self.grid
            narrow = grid.n_xpairs <= np.iinfo(np.int16).max
            table = np.empty((grid.n_xpairs, grid.n_v, grid.n_w),
                             dtype=np.int16 if narrow else np.int32)
            states = np.arange(grid.n_xpairs)
            for j in range(grid.n_v):
                table[:, j] = self.slice_block(j, states).T
            table.flags.writeable = False
            self._table = table
        return self._table


def discretize(cl: ClosedLoop, grid: GridSpec) -> TransitionTable:
    """The nominal closed loop on the grid, ready to tabulate slice by slice.

    Successor coordinate ``a`` of a state ``x`` is ``(At x)_a + Bt_a v +
    E_a w``, formed by the same float operations in the same order as one
    successor at a time, and snapped along the axes it moves with only (see
    :func:`_coordinate_snap`): here, once, when ``Bt_a`` is 0, and one row
    broadcast over the disturbances when ``E_a`` is 0.  A term left out
    adds +-0.0, which leaves the value as it is or turns -0.0 into +0.0, and
    both snap to the same index, so the entries are those of the full sums.
    Nothing is tabulated here: :meth:`TransitionTable.slice_block` snaps
    what depends on the reference, for the states it is given, into the
    first entries of ``n_w * n_xpairs`` buffers allocated here, once per
    table.
    """
    snaps = [_coordinate_snap(b, bt, e * grid.w_values if e != 0 else None, axis)
             for b, bt, e, axis in zip((grid.x_points() @ cl.At.T).T, cl.Bt.ravel(),
                                       cl.plant.E.ravel(), grid._snap_axes)]
    return TransitionTable(snaps, grid, cl)


def _coordinate_snap(b, bt, ew, axis):
    """``(v, states) -> (index, outside)``: the snap on ``axis`` of the
    successor coordinate ``(b + bt v)[states] + ew[:, None]`` of the grid
    states ``states`` (columns) under every disturbance (rows) at the
    reference ``v``.

    ``ew`` is None for a zero disturbance entry: the coordinate is then the
    one row ``b + bt v``.  When ``bt`` is 0 the coordinate does not depend
    on ``v``: every state is snapped here, once, and each call gathers the
    columns of ``states``.  Otherwise each call snaps the columns of
    ``states`` only, into the first ``n_rows * len(states)`` entries of
    flat buffers allocated here for every state, which the next call
    overwrites; only the row ``b[states] + bt v`` is new per call.
    """
    col = None if ew is None else ew[:, None]
    if bt == 0:
        fixed = GridSpec._snap_axis(b[None, :] if col is None else b + col, axis)
        return lambda v, states: tuple(a.take(states, axis=1) for a in fixed)
    n_rows = 1 if col is None else col.size
    size = n_rows * b.size
    sums = None if col is None else np.empty(size)
    buffers = (np.empty(size), np.empty(size), np.empty(size, dtype=np.int64),
               np.empty(size, dtype=bool), np.empty(size, dtype=bool))

    def snap(v, states):
        shape = (n_rows, len(states))
        n = shape[0] * shape[1]
        vals = b[states]
        vals += bt * v
        vals = vals[None, :]
        if col is not None:
            vals = np.add(vals, col, out=sums[:n].reshape(shape))
        return GridSpec._snap_axis(vals, axis, tuple(buf[:n].reshape(shape) for buf in buffers))

    return snap


def _forward_closure(core: np.ndarray, block: np.ndarray, col_of: np.ndarray) -> np.ndarray:
    """Smallest superset of ``core`` closed under every disturbance successor.

    ``core`` is a pair mask (n_xpairs,) of one reference slice, ``block``
    successors of that slice, one row per disturbance as
    :meth:`TransitionTable.slice_block` gives them, and ``col_of`` the
    column of ``block`` that holds each state's successors; successors keep
    the reference, so the slice closes on its own, frontier by frontier.
    Every state the closure reaches must have a column.  Callers must
    ensure successors never leave the grid.
    """
    reached = core.copy()
    frontier = np.flatnonzero(core)
    while frontier.size:
        succ = block.take(col_of[frontier], axis=1)
        if (succ < 0).any():
            raise SeedConstructionError("seed closure left the grid range")
        new = np.zeros_like(reached)
        new[succ.ravel()] = True
        new &= ~reached
        reached |= new
        frontier = np.flatnonzero(new)
    return reached


def build_seed(tt: TransitionTable, alpha: float) -> np.ndarray:
    """Boolean mask (n_xpairs, n_v) of the raw seed collection of the loop
    ``tt.cl``: the grid states inside the eligible steady-state ellipsoids.

    A reference is eligible when the worst case of every output constraint
    over its steady-state ellipsoid is admissible.  Snapping the dynamics to
    the grid can make the collection non-invariant (worst-case disturbances
    drive boundary members just outside), so :func:`compute_safe_set`
    completes its members inside the invariant set to their forward
    closure; when the collection is already invariant the closure adds
    nothing.
    """
    cl = tt.cl
    P = dlyap_scaled(cl.At, cl.plant.E, alpha)
    n = cl.At.shape[0]
    xv_dir = np.linalg.solve(np.eye(n) - cl.At, cl.Bt)  # steady state per unit v
    H = cl.out.constraint_set.normals
    h = cl.out.constraint_set.offsets
    HC = H @ cl.Ct
    spread = np.sqrt(np.maximum(np.einsum("ij,jk,ik->i", HC, P, HC), 0.0))
    coef = (HC @ xv_dir + H @ cl.Dt).ravel()
    margin = h - spread
    grid = tt.grid
    v_vals = grid.v_values
    eligible = np.all(coef[None, :] * v_vals[:, None] <= margin[None, :] + 1e-12, axis=1)

    x1, x2 = grid.x_points().T.copy()
    (a11, a12), (a21, a22) = np.linalg.inv(P)
    members = np.zeros((grid.n_xpairs, grid.n_v), dtype=bool)
    for j in np.nonzero(eligible)[0]:
        c1, c2 = xv_dir.ravel() * v_vals[j]
        d1, d2 = x1 - c1, x2 - c2
        # d' P^-1 d term by term in the order of np.einsum("ij,jk,ik->i"),
        # which gives the same bits in a fifth of the time
        quad = d1 * a11 * d1 + d1 * a12 * d2 + d2 * a21 * d1 + d2 * a22 * d2
        members[:, j] = quad <= 1.0 + 1e-12
    if not members.any():
        raise SeedConstructionError("no grid pair passed the ellipsoid constraint check")
    return members


class DiscreteSafeSet:
    """Classification of every grid pair plus the seed it grew from.

    ``class_map`` holds REMAIN / SAFE_PLUS / MINUS codes; ``pi`` is the
    selected safe set (the full SAFE_PLUS class).  ``witness_w`` is every
    pair's witness of unsafety (see :func:`compute_safe_set`).
    ``sweep_counts`` lists (safe, minus, remain) totals once the seed and
    the MINUS class are known, then after every sweep of the safe set's
    growth.
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
        safe, minus, remain = self.sweep_counts[-1]
        return {"safe": safe, "minus": minus, "remain": remain}


def constraint_table(tt: TransitionTable) -> np.ndarray:
    """Admissibility of ``(x, pi0(x, v))`` under ``tt.cl.out`` for every pair of ``tt.grid``."""
    cl, grid = tt.cl, tt.grid
    H = cl.out.constraint_set.normals
    h = cl.out.constraint_set.offsets
    xh = grid.x_points() @ (H @ cl.Ct).T
    vh = np.outer(grid.v_values, (H @ cl.Dt).ravel())
    # one broadcast per constraint row over a block of 256 states: the
    # temporaries stay near 200 KB, so the table sets no memory peak
    ok = np.ones((grid.n_xpairs, grid.n_v), dtype=bool)
    for s in range(0, grid.n_xpairs, 256):
        block = ok[s:s + 256]
        for r in range(h.size):
            block &= xh[s:s + 256, r, None] + vh[:, r] <= h[r] + DEFAULT_TOL
    return ok


def _certify_closed(safe, admissible, block, col_of, j):
    """Raise :class:`SafeSetClosureError` unless every pair of the slice-``j``
    mask ``safe`` is admissible and each of its successors, read from the
    tabulated ``block`` through ``col_of``, is on the grid and in ``safe``."""
    pairs = np.flatnonzero(safe)
    bad = ~admissible[pairs]
    if bad.any():
        what = "is inadmissible"
    else:
        succ = block.take(col_of[pairs], axis=1)
        # an off-grid successor (-1) reads an arbitrary entry; the first test decides it
        bad = ((succ < 0) | ~safe[succ]).any(axis=0)
        what = "has a successor off the grid or outside the safe set"
    if bad.any():
        raise SafeSetClosureError(
            f"safe pair (x-pair {pairs[np.argmax(bad)]}, reference slice {j}) {what}")


def compute_safe_set(tt: TransitionTable, alpha: float) -> DiscreteSafeSet:
    """Classify all grid pairs of the loop discretized in ``tt``.

    ``alpha`` is the seed's Lyapunov scaling.  One pass per reference slice
    tabulates, with :meth:`TransitionTable.slice_block`, the successors of
    the slice's pairs admissible in the loop's :func:`constraint_table` and
    of no other pair, so the whole table is never held, and runs three
    stages on that block, one row per disturbance and one column per pair.
    The unsafe fixed point marks MINUS every pair with a successor off the
    grid or MINUS, its witness the first such disturbance-grid index
    (``WITNESS_CONSTRAINT`` for an inadmissible pair, whose column is never
    read), so every witness chain ends at a violation or an exit.  The
    slice's :func:`build_seed` members among the pairs left (the greatest
    invariant admissible set, at ``WITNESS_NONE``) close forward to the
    seed, reading each visited pair's column through a state-to-column
    map.  A pair left becomes SAFE_PLUS once every disturbance successor
    is; invariant pairs that never reach the seed stay REMAIN.  Last, the
    same block certifies the slice's safe set: every SAFE_PLUS pair must be
    admissible with every successor on the grid and SAFE_PLUS at the same
    reference, or :class:`SafeSetClosureError` names the slice and the
    pair.

    Each sweep reduces over the block's disturbance rows, which is cheap in
    this layout.  The unsafe fixed point sweeps the whole block every time
    rather than compacting it; the growth compacts it once, to the
    invariant pairs outside the seed.

    ``sweep_counts`` lists (safe, minus, remain) totals once the seed and
    the MINUS class are known, then after every sweep of the growth: the
    totals after sweep ``r`` add up every slice's growth in its first ``r``
    sweeps, and the last entry repeats the one before, as the sweep that
    grows no slice any more.
    """
    ok = constraint_table(tt)
    members = build_seed(tt, alpha)
    witness = np.full(ok.shape, WITNESS_NONE, dtype=np.int16)
    witness[~ok] = WITNESS_CONSTRAINT
    cls = np.full(ok.shape, REMAIN, dtype=np.int8)
    seed = np.zeros_like(ok)
    minus = 0
    grown = []  # pairs grown in sweep r, summed over the slices
    # column of the slice's block per state; read for admissible states only
    col_of = np.empty(tt.grid.n_xpairs, dtype=np.intp)
    for j in range(tt.grid.n_v):
        states = np.flatnonzero(ok[:, j])
        block = tt.slice_block(j, states)
        col_of[states] = np.arange(states.size)
        # one extra entry, always marked, which the off-grid successors (-1) read
        unsafe = np.append(~ok[:, j], True)
        while True:
            hit = unsafe[block]
            new = hit.any(axis=0) & ~unsafe[states]
            if not new.any():
                break
            marked = states[new]
            witness[marked, j] = np.argmax(np.compress(new, hit, axis=1), axis=0)
            unsafe[marked] = True
        unsafe = unsafe[:-1]
        safe = _forward_closure(members[:, j] & ~unsafe, block, col_of)
        seed[:, j] = safe
        # the invariant pairs outside the seed: their successors are
        # invariant too, hence on the grid
        keep = np.flatnonzero(~(unsafe[states] | safe[states]))
        states, succ = states.take(keep), block.take(keep, axis=1)
        for r in itertools.count():
            new = safe[succ].all(axis=0) & ~safe[states]
            if r == len(grown):
                grown.append(0)
            grown[r] += int(np.count_nonzero(new))
            if not new.any():
                break
            safe[states[new]] = True
        _certify_closed(safe, ok[:, j], block, col_of, j)
        cls[unsafe, j] = MINUS
        cls[safe, j] = SAFE_PLUS
        minus += int(np.count_nonzero(unsafe))
    if not seed.any():
        raise SeedConstructionError("no ellipsoid member lies in any invariant admissible set")
    safe0 = int(np.count_nonzero(seed))
    remain = tt.grid.n_pairs - safe0 - minus
    counts = [(safe0, minus, remain)] + [(safe0 + n, minus, remain - n)
                                         for n in itertools.accumulate(grown)]
    return DiscreteSafeSet(cls, seed, tt.grid, witness, counts)


class DiscreteGridOracle:
    """Governor oracle over the grid classification of the loop ``tt.cl``.

    Continuous queries are snapped to the grid; states outside the grid
    range are treated as outside the safe set.  Feasible actions are the
    configured action-grid values whose current constraint holds and whose
    successors stay inside the safe projection for every disturbance-grid
    value; they depend on the state alone, so they are memoized per grid
    point, keyed by its coordinate pair, and returned read-only.  The
    action grid is sorted once here, so the feasible actions are ascending
    and ``adjust``, on this single-input loop where l1 and linf are both
    ``|u - u1|``, is one argmin whose first minimum is the lowest nearest
    action, the tie rule of :func:`nearest_candidate`.  The backup scores
    each safe reference by its nominal action ``K x + L v`` with
    :meth:`ActionDistance.many` and picks with :func:`nearest_candidate`.
    """

    def __init__(self, dss: DiscreteSafeSet, tt: TransitionTable, action_values: np.ndarray):
        self.dss = dss
        self.grid = grid = tt.grid
        self.gain = tt.cl.gain
        out = tt.cl.out
        plant = tt.cl.plant
        if plant.B.shape[1] != 1:
            raise ValueError("the grid oracle supervises a single-input plant")
        # stable, so equal values (0.0 and -0.0) keep the order they were given in
        self.action_values = np.sort(np.asarray(action_values, dtype=float).ravel(),
                                     kind="stable")
        if self.action_values.size == 0:
            raise ValueError("action grid must be nonempty")
        self._A = plant.A
        # successor offsets B u + E w, one row per (action, disturbance) pair
        shift = (plant.B.ravel()[None, None, :] * self.action_values[:, None, None]
                 + plant.E.ravel()[None, None, :] * grid.w_values[None, :, None])
        self._shift = shift.reshape(-1, 2)
        H = out.constraint_set.normals
        self._Hy_c = H @ out.C
        self._Hy_u = np.outer(self.action_values, (H @ out.D).ravel())  # one row per action
        self._h_tol = out.constraint_set.offsets + DEFAULT_TOL
        self._axes = tuple(a.tolist() for a in grid.x_axes)
        self._memo = {}  # grid point's (x1, x2) -> feasible actions there

    def pi0(self, x, v):
        return self.gain.policy(x, v)

    def feasible_actions(self, x) -> np.ndarray:
        """The feasible actions at ``x``, as a read-only array.

        A result is stored only when ``x`` is its grid point coordinate for
        coordinate, so the memo holds at most ``n_xpairs`` entries and a
        stored state is answered without a snap; any other state is
        computed on every call.
        """
        x = np.asarray(x, dtype=float).ravel()
        key = tuple(x.tolist())
        feas = self._memo.get(key)
        if feas is not None:
            return feas
        i = self.grid.index_of(x)
        a1, a2 = self._axes
        # the grid point of index i, row-major as in GridSpec.x_points
        if i >= 0 and key == (a1[i // len(a2)], a2[i % len(a2)]):
            feas = self._memo[key] = self._feasible(x)
            return feas
        return self._feasible(x)

    def _feasible(self, x) -> np.ndarray:
        now_ok = (self._Hy_c @ x + self._Hy_u <= self._h_tol).all(axis=1)
        succ = self.grid.snap_x(self._A @ x + self._shift).reshape(self.action_values.size, -1)
        # an off-grid successor (-1) reads an arbitrary entry; the first test decides it
        robust = ((succ >= 0) & self.dss.proj_mask[succ]).all(axis=1)
        feas = self.action_values[now_ok & robust]
        feas.flags.writeable = False
        return feas

    def adjust(self, x, u1, dist):
        feas = self.feasible_actions(x)
        if feas.size == 0:
            return None
        k = np.abs(feas - u1).argmin()
        return feas[k:k + 1].copy()

    def backup(self, x, u1, dist):
        i = self.grid.index_of(x)
        if i < 0:
            return None
        refs = self.grid.v_values[self.dss.class_map[i] == SAFE_PLUS]
        x = np.asarray(x, dtype=float).ravel()
        nominal = self.gain.K @ x + refs[:, None] @ self.gain.L.T
        return nearest_candidate(refs, dist.many(u1, nominal))
