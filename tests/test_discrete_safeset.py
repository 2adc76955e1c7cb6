import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from actiongov import discrete_safeset
from actiongov.control_linalg import ClosedLoop, LinearPlant, NominalGain, OutputMap
from actiongov.convexset import HPolytope
from actiongov.control_linalg import dlyap_scaled
from actiongov.discrete_safeset import (
    MINUS,
    REMAIN,
    SAFE_PLUS,
    WITNESS_CONSTRAINT,
    WITNESS_NONE,
    DiscreteGridOracle,
    DiscreteSafeSet,
    GridSpec,
    TransitionTable,
    build_seed,
    compute_safe_set,
    constraint_table,
    discretize,
)
from actiongov.errors import SafeSetClosureError, SeedConstructionError
from actiongov.governor import ActionDistance
from actiongov.simlab import ScenarioConfig, build_grid_backend, example_system
from ellipsoids import Ellipsoid, ellipsoid_support
from references import (
    build_seed_reference,
    discretize_reference,
    feasible_actions_reference,
    forward_closure_reference,
    grid_member,
    grid_proj_member,
    grow_reference,
    output_admissible,
    plant_step,
    snap_v,
    unsafe_witness_reference,
)


def small_example(w_hi=1.0, dw=0.5):
    """The worked example on a coarse grid, cheap enough for unit tests."""
    plant, out, gain = example_system()
    cl = ClosedLoop(plant, out, gain)
    grid = GridSpec((-25.0, -10.0), (25.0, 15.0), (1.0, 1.0),
                    -20.0, 20.0, 1.0, -w_hi, w_hi, dw)
    return plant, out, gain, cl, grid


def reference_snap(c, lo, hi, d):
    """Nearest index of ``c`` on the axis ``lo, lo + d, ..., hi``, one value at
    a time: -1 outside the range widened by 1e-9 * max(1, |lo|, |hi|), and
    scaled distances within 2e-9 of the least count as ties, which go to the
    smaller index."""
    tol = 1e-9 * max(1.0, abs(lo), abs(hi))
    if not lo - tol <= c <= hi + tol:
        return -1
    axis = lo + d * np.arange(int(round((hi - lo) / d)) + 1)
    dist = np.abs(axis - c) / d
    return int(np.flatnonzero(dist <= dist.min() + 2e-9)[0])


def grid_tables(cl, out, grid):
    """Transition table and constraint table, the inputs of every stage."""
    tt = discretize(cl, grid)
    return tt, constraint_table(tt)


def invariant_set(tt, ok):
    """Greatest invariant admissible pair set, the domain of the seed."""
    return unsafe_witness_reference(tt, ok) == WITNESS_NONE


def seed_on(cl, out, grid, alpha=0.75):
    return compute_safe_set(discretize(cl, grid), alpha).seed


def compute_safe_set_sequential(seed, tt, ok):
    """Pair-at-a-time reference semantics of :func:`compute_safe_set`.

    Visits remaining pairs in index order and applies every reclassification
    immediately.  Intended for small grids and cross-checking; the batched
    sweep reaches the same fixed point.
    """
    grid = tt.grid
    if not seed.any():
        raise SeedConstructionError("seed is empty")
    cls = np.zeros((grid.n_xpairs, grid.n_v), dtype=np.int8)
    cls[seed] = SAFE_PLUS
    witness = np.full(cls.shape, WITNESS_NONE, dtype=np.int16)
    counts = [(int((cls == SAFE_PLUS).sum()), int((cls == MINUS).sum()),
               int((cls == REMAIN).sum()))]
    changed = True
    while changed:
        changed = False
        for i in range(grid.n_xpairs):
            for j in range(grid.n_v):
                if cls[i, j] != REMAIN:
                    continue
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
        counts.append((int((cls == SAFE_PLUS).sum()), int((cls == MINUS).sum()),
                       int((cls == REMAIN).sum())))
    return DiscreteSafeSet(cls, seed, grid, witness, counts)


class TestGridSpec:
    def test_axes_and_counts(self):
        g = GridSpec((-1.0, -2.0), (1.0, 2.0), (0.5, 1.0), -1.0, 1.0, 0.5, -1.0, 1.0, 0.5)
        assert g.n_x == (5, 5)
        assert g.n_v == 5 and g.n_w == 5
        assert g.n_pairs == 125
        assert np.allclose(g.v_values, [-1, -0.5, 0, 0.5, 1])

    def test_axes_are_built_once_and_read_only(self):
        g = GridSpec((-1.0, -2.0), (1.0, 2.0), (0.5, 1.0), -1.0, 1.0, 0.5, -1.0, 1.0, 0.5)
        assert g.x_axes is g.x_axes and g.v_values is g.v_values and g.w_values is g.w_values
        with pytest.raises(ValueError):
            g.v_values[0] = 3.0
        assert g == GridSpec(*(getattr(g, f) for f in ("x_lo", "x_hi", "x_delta", "v_lo",
                                                        "v_hi", "v_delta", "w_lo", "w_hi",
                                                        "w_delta")))

    @pytest.mark.parametrize("x_lo, x_hi, x_delta", [
        ((0.0, 0.0), (1.0, 1.0), (1.0,)),
        ((0.0,), (1.0, 1.0), (1.0, 1.0)),
        ((0.0, 0.0), (1.0,), (1.0, 1.0)),
        ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (1.0, 1.0, 1.0)),
        (0.0, 1.0, 1.0),
    ], ids=["one-delta", "one-lo", "one-hi", "three-axes", "scalars"])
    def test_state_axes_must_number_two(self, x_lo, x_hi, x_delta):
        # each must give both axes; a check over zip() alone stops at the shortest
        with pytest.raises(ValueError, match="two state axes"):
            GridSpec(x_lo, x_hi, x_delta, 0.0, 1.0, 0.5, 0.0, 1.0, 0.5)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            GridSpec((0.0, 0.0), (1.0, 1.0), (0.3, 0.5), 0.0, 1.0, 0.5, 0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            GridSpec((1.0, 0.0), (0.0, 1.0), (0.5, 0.5), 0.0, 1.0, 0.5, 0.0, 1.0, 0.5)

    @pytest.mark.parametrize("lo, hi, d", [(0.0, 1.0, np.inf), (-np.inf, 1.0, 0.5),
                                          (0.0, np.nan, 0.5), (0.0, 1.0, np.nan)],
                             ids=["step-infinite", "lo-infinite", "hi-nan", "step-nan"])
    def test_non_finite_axis_rejected(self, lo, hi, d):
        # an infinite step passed the step-count test (0 steps) and built a
        # one-point axis at 0 * inf = NaN
        with pytest.raises(ValueError, match="must be finite"):
            GridSpec((lo, 0.0), (hi, 1.0), (d, 0.5), 0.0, 1.0, 0.5, 0.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="must be finite"):
            GridSpec((0.0, 0.0), (1.0, 1.0), (0.5, 0.5), lo, hi, d, 0.0, 1.0, 0.5)

    def test_snap_exact_points_map_to_themselves(self):
        g = GridSpec((-2.0, -2.0), (2.0, 2.0), (0.5, 0.5), -1.0, 1.0, 0.5, -1.0, 1.0, 0.5)
        pts = g.x_points()
        assert np.array_equal(g.snap_x(pts), np.arange(g.n_xpairs))

    def test_snap_tie_takes_smaller_index(self):
        g = GridSpec((0.0, 0.0), (4.0, 4.0), (1.0, 1.0), 0.0, 1.0, 1.0, 0.0, 1.0, 1.0)
        idx = g.snap_x([[0.5, 2.5]])[0]
        # halfway points round down in each coordinate
        assert idx == 0 * 5 + 2

    def test_snap_out_of_range(self):
        g = GridSpec((0.0, 0.0), (4.0, 4.0), (1.0, 1.0), 0.0, 1.0, 1.0, 0.0, 1.0, 1.0)
        assert g.snap_x([[5.1, 0.0]])[0] == -1
        assert g.snap_x([[-0.2, 0.0]])[0] == -1
        assert g.snap_x([[4.0, 4.0]])[0] == g.n_xpairs - 1

    def test_snap_nan_is_outside(self):
        g = GridSpec((0.0, 0.0), (4.0, 4.0), (1.0, 1.0), 0.0, 1.0, 1.0, 0.0, 1.0, 1.0)
        nan = np.nan
        with np.errstate(invalid="ignore"):
            assert np.array_equal(g.snap_x([[nan, 0.0], [0.0, nan], [nan, nan], [1.0, 1.0]]),
                                  [-1, -1, -1, 6])
            assert np.array_equal(snap_v(g, [nan, 0.0]), [-1, 0])

    def test_snap_matches_a_per_point_reference(self):
        # distinct axes, so a swapped or shared axis constant shows
        g = GridSpec((-3.0, -1.0), (2.0, 4.0), (0.25, 0.5), -2.0, 3.0, 0.5, -1.0, 1.0, 0.5)
        rng = np.random.default_rng(12)

        def coords(lo, hi, d):
            tol = 1e-9 * max(1.0, abs(lo), abs(hi))
            n = int(round((hi - lo) / d))
            # exact half steps, and half steps moved inside the tie tolerance
            halves = lo + (np.arange(n)[:, None] + [0.5, 0.5 + 2e-10, 0.5 - 2e-10]).ravel() * d
            edges = [lo - 2 * tol, lo - tol / 2, lo + tol / 2, hi - tol / 2, hi + tol / 2,
                     hi + 2 * tol, lo - 10.0, hi + 10.0]
            return np.concatenate([rng.uniform(lo - 1.0, hi + 1.0, 150), halves, edges])

        c1 = coords(g.x_lo[0], g.x_hi[0], g.x_delta[0])
        c2 = coords(g.x_lo[1], g.x_hi[1], g.x_delta[1])
        special = np.array([(a, b) for a in c1[150:] for b in c2[150:]])
        pts = np.concatenate([np.column_stack([c1[:150], c2[:150]]), special])
        n2 = g.n_x[1]
        expect = []
        for p in pts:
            i1 = reference_snap(p[0], g.x_lo[0], g.x_hi[0], g.x_delta[0])
            i2 = reference_snap(p[1], g.x_lo[1], g.x_hi[1], g.x_delta[1])
            expect.append(-1 if min(i1, i2) < 0 else i1 * n2 + i2)
        assert np.array_equal(g.snap_x(pts), expect)
        assert all(g.snap_x(p)[0] == e for p, e in zip(pts[::37], expect[::37]))
        vals = coords(g.v_lo, g.v_hi, g.v_delta)
        assert np.array_equal(snap_v(g, vals),
                              [reference_snap(v, g.v_lo, g.v_hi, g.v_delta) for v in vals])

    def test_snap_matches_brute_force_nearest(self):
        g = GridSpec((-3.0, -2.0), (3.0, 2.0), (0.5, 0.5), -1.0, 1.0, 0.5, -1.0, 1.0, 0.5)
        pts = g.x_points()
        rng = np.random.default_rng(0)
        for _ in range(100):
            q = rng.uniform([-3, -2], [3, 2])
            idx = g.snap_x([q])[0]
            d = np.linalg.norm(pts - q, axis=1)
            assert d[idx] == pytest.approx(d.min(), abs=1e-12)


def edge_coordinates(axis, lo, hi):
    """Every grid value of ``axis``; each midpoint between neighbours and the
    next float on either side of it; each end at +- its range tolerance and
    one ulp beyond; NaN, +-inf and -0.0."""
    tol = 1e-9 * max(1.0, abs(lo), abs(hi))
    mid = (axis[:-1] + axis[1:]) / 2
    edges = np.array([lo - tol, lo + tol, hi - tol, hi + tol])
    beyond = np.array([np.nextafter(lo - tol, -np.inf), np.nextafter(hi + tol, np.inf)])
    return np.concatenate([axis, mid, np.nextafter(mid, -np.inf), np.nextafter(mid, np.inf),
                           edges, beyond, [np.nan, np.inf, -np.inf, -0.0]])


class TestIndexOf:
    @pytest.mark.parametrize("which", ["shipped", "tiny"])
    def test_equals_snap_x_on_every_point_tie_and_edge(self, which, base_cfg, tiny_grid):
        cfg = base_cfg if which == "shipped" else ScenarioConfig(seed=0, **tiny_grid)
        g = cfg.grid_spec()
        pts = g.x_points()
        assert [g.index_of(p) for p in pts] == list(range(g.n_xpairs))
        c1, c2 = (edge_coordinates(a, lo, hi)
                  for a, lo, hi in zip(g.x_axes, g.x_lo, g.x_hi))
        # every pair of special coordinates, so each axis meets each case of the other
        special = np.column_stack([np.repeat(c1, c2.size), np.tile(c2, c1.size)])
        with np.errstate(invalid="ignore"):
            expect = g.snap_x(special)
        got = np.array([g.index_of(p) for p in special])
        assert np.array_equal(got, expect)
        # the cases the list is meant to reach do occur
        assert (got == -1).any() and (got >= 0).sum() > g.n_xpairs

    @pytest.mark.parametrize("x", [[1.0, 2.0, 99.0], [1.0], [], 1.0, np.zeros((2, 2))],
                             ids=["three", "one", "none", "scalar", "two-states"])
    def test_a_state_has_exactly_two_coordinates(self, x):
        g = GridSpec((0.0, 0.0), (4.0, 4.0), (1.0, 1.0), 0.0, 1.0, 1.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="2 coordinates"):
            g.index_of(x)

    def test_accepts_a_one_row_state(self):
        g = GridSpec((0.0, 0.0), (4.0, 4.0), (1.0, 1.0), 0.0, 1.0, 1.0, 0.0, 1.0, 1.0)
        assert g.index_of([[1.0, 1.0]]) == g.index_of((1, 1)) == 6


def snap_buffers(shape, fill):
    """``GridSpec._snap_axis`` buffers of ``shape``, the float ones filled
    with ``fill`` and the bool ones with ``fill != fill``, so that over a
    NaN fill and a number fill an entry left unwritten shows."""
    return (np.full(shape, fill), np.full(shape, fill), np.full(shape, 7, dtype=np.int64),
            np.full(shape, fill != fill), np.full(shape, True))


class TestBufferedSnap:
    # distinct axes, as in test_snap_matches_a_per_point_reference
    GRID = GridSpec((-3.0, -1.0), (2.0, 4.0), (0.25, 0.5), -2.0, 3.0, 0.5, -1.0, 1.0, 0.5)

    @pytest.mark.parametrize("which", [0, 1, 2], ids=["x1", "x2", "v"])
    @pytest.mark.parametrize("fill", [np.nan, 7.0], ids=["nan-filled", "number-filled"])
    def test_buffers_give_the_out_of_place_bits(self, which, fill):
        g = self.GRID
        axis = g._snap_axes[which]
        lo, hi = [(g.x_lo[0], g.x_hi[0]), (g.x_lo[1], g.x_hi[1]), (g.v_lo, g.v_hi)][which]
        grid_vals = (g.x_axes + (g.v_values,))[which]
        d = grid_vals[1] - grid_vals[0]
        # ties (exact half steps and half steps within the tie tolerance),
        # each end's tolerance and beyond, NaN, +-inf and -0.0
        halves = lo + (np.arange(grid_vals.size - 1)[:, None]
                       + [0.5, 0.5 + 2e-10, 0.5 - 2e-10]).ravel() * d
        vals = np.concatenate([edge_coordinates(grid_vals, lo, hi), halves,
                               [lo - 10.0, hi + 10.0, 0.0]])
        for shaped in (vals, vals[None, :], vals[:, None], np.tile(vals, (3, 1))):
            buffers = snap_buffers(shaped.shape, fill)
            with np.errstate(invalid="ignore"):
                want = GridSpec._snap_axis(shaped, axis)
                got = GridSpec._snap_axis(shaped, axis, buffers)
            # the results are the buffers that hold them
            assert got[0] is buffers[2] and got[1] is buffers[3]
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
        assert want[1].any() and not want[1].all()


def width_grid(n1):
    """An ``n1 x n1`` state grid around the origin: 181 x 181 = 32,761 x-pairs
    fit int16 indices, 182 x 182 = 33,124 do not."""
    half = (n1 - 1) / 2 * 0.25
    return GridSpec((-half, -half), (half, half), (0.25, 0.25), -1.0, 1.0, 2.0, -1.0, 1.0, 2.0)


class TestDiscretize:
    def test_near_identity_loop_fixes_grid_points(self):
        # a loop matrix within a hair of the identity keeps every grid
        # point in its own cell, so the table maps each point to itself
        plant = LinearPlant(0.999999 * np.eye(2), [[0.0], [1.0]], [[0.0], [0.0]])
        out = OutputMap(np.eye(2), np.zeros((2, 1)),
                        HPolytope.from_bounds([-30, -30], [30, 30]))
        gain = NominalGain([[0.0, 0.0]], [[0.0]])
        cl = ClosedLoop(plant, out, gain)
        grid = GridSpec((-2.0, -2.0), (2.0, 2.0), (0.5, 0.5), -1.0, 1.0, 1.0, -1.0, 1.0, 1.0)
        tt = discretize(cl, grid)
        expect = np.arange(grid.n_xpairs)
        for j in range(grid.n_v):
            for k in range(grid.n_w):
                assert np.array_equal(tt.table[:, j, k], expect)

    # B and E columns: each coordinate moves with the reference when its B
    # entry is nonzero (Bt = B L) and with the disturbance when its E entry is
    LOOPS = {
        "both-move-with-v-and-w": ([[0.5], [1.0]], [[0.5], [1.0]]),
        "x1-moves-with-w-only": ([[0.0], [1.0]], [[0.5], [1.0]]),
        "x1-moves-with-neither": ([[0.0], [1.0]], [[0.0], [1.0]]),
        "x1-with-neither-signed-zeros": ([[-0.0], [1.0]], [[-0.0], [1.0]]),
        "x1-w-only-x2-v-only": ([[0.0], [1.0]], [[0.5], [0.0]]),
    }

    @classmethod
    def snapping_case(cls, case):
        B, E = cls.LOOPS[case]
        plant = LinearPlant([[0.5, 0.8], [-0.4, 0.6]], B, E)
        out = OutputMap(np.eye(2), np.zeros((2, 1)),
                        HPolytope.from_bounds([-30, -30], [30, 30]))
        cl = ClosedLoop(plant, out, NominalGain([[-0.1, -0.2]], [[0.3]]))
        grid = GridSpec((-25.0, -10.0), (25.0, 15.0), (1.0, 1.0),
                        -20.0, 20.0, 1.0, -1.0, 1.0, 0.5)
        return cl, grid

    @pytest.mark.parametrize("case", LOOPS)
    def test_each_snapping_case_equals_the_reference(self, case):
        cl, grid = self.snapping_case(case)
        tt = discretize(cl, grid)
        want = discretize_reference(cl, grid).table
        assert tt.table.dtype == want.dtype and tt.table.shape == want.shape
        assert tt.table.tobytes() == want.tobytes()
        # successors inside and outside the grid, and the reference and
        # disturbance move the table where the loop says they do
        assert (want == -1).any() and (want >= 0).mean() > 0.5
        moves_v = (cl.Bt != 0).any()
        moves_w = (cl.plant.E != 0).any()
        assert (want != want[:, :1]).any() == moves_v
        assert (want != want[:, :, :1]).any() == moves_w

    @pytest.mark.parametrize("case", LOOPS)
    def test_rows_of_some_states_equal_the_table(self, case):
        cl, grid = self.snapping_case(case)
        tt = discretize(cl, grid)
        table = tt.table
        rng = np.random.default_rng(3)
        n = grid.n_xpairs
        subsets = {"full": np.arange(n), "random": rng.choice(n, n // 3, replace=False),
                   "single": np.array([n // 2]), "empty": np.array([], dtype=np.intp)}
        for j in range(grid.n_v):
            for states in subsets.values():
                got = tt.slice_block(j, states)
                want = table[states, j].astype(np.intp)
                assert got.dtype == np.intp and got.shape == (grid.n_w, states.size)
                assert got.flags.c_contiguous
                assert got.T.tobytes() == want.tobytes()

    def test_slices_share_one_buffer_and_the_table_is_assembled_once(self):
        _, _, _, cl, grid = small_example()
        tt = discretize(cl, grid)
        states = np.arange(grid.n_xpairs)
        first = tt.slice_block(0, states).copy()
        block = tt.slice_block(grid.n_v - 1, states)
        assert block.dtype == np.intp and block.shape == (grid.n_w, grid.n_xpairs)
        again = tt.slice_block(0, states)
        assert np.shares_memory(again, block) and np.array_equal(block, first)
        # fewer states fill the first n_w * m entries of the same buffer
        m = states[::2].size
        assert np.shares_memory(tt.slice_block(0, states[::2]), block)
        assert np.array_equal(block.ravel()[:grid.n_w * m], first[:, ::2].ravel())
        table = tt.table
        assert tt.table is table and not table.flags.writeable
        for j in range(grid.n_v):
            assert np.array_equal(table[:, j], tt.slice_block(j, states).T)

    @pytest.mark.parametrize("n1, dtype", [(181, np.int16), (182, np.int32)])
    def test_index_width_follows_the_grid_size(self, n1, dtype):
        _, _, _, cl, _ = small_example()
        grid = width_grid(n1)
        tt = discretize(cl, grid)
        assert tt.table.dtype == dtype
        assert (tt.table == -1).any() and tt.table.max() > 30000
        base = grid.x_points() @ cl.At.T
        for j, v in enumerate(grid.v_values):
            for k, w in enumerate(grid.w_values):
                succ = base + cl.Bt.ravel() * v + cl.plant.E.ravel() * w
                assert np.array_equal(tt.table[:, j, k], grid.snap_x(succ))

    def test_entries_match_direct_nearest_scan(self):
        _, out, gain, cl, grid = small_example()
        tt = discretize(cl, grid)
        pts = grid.x_points()
        rng = np.random.default_rng(1)
        for _ in range(100):
            i = int(rng.integers(grid.n_xpairs))
            j = int(rng.integers(grid.n_v))
            k = int(rng.integers(grid.n_w))
            succ = cl.At @ pts[i] + cl.Bt.ravel() * grid.v_values[j] \
                + cl.plant.E.ravel() * grid.w_values[k]
            got = tt.table[i, j, k]
            inside = np.all(succ >= [-25, -10]) and np.all(succ <= [25, 15])
            if not inside:
                assert got == -1
            else:
                d = np.linalg.norm(pts - succ, axis=1)
                assert d[got] == pytest.approx(d.min(), abs=1e-12)

    def test_fresh_process_call_takes_few_page_faults(self):
        # the shipped grid's first classification in a new process, which
        # tabulates every slice's admissible rows; a set-up that allocates
        # and frees its slice temporaries slice after slice takes over
        # 100,000 minor faults there, one with buffers allocated once per
        # table about 2,500
        src = Path(__file__).resolve().parent.parent / "src"
        script = (
            "import resource\n"
            "from actiongov.discrete_safeset import compute_safe_set, discretize\n"
            "from actiongov.simlab import ScenarioConfig, build_rig\n"
            "cfg = ScenarioConfig(seed=0)\n"
            "cl, grid = build_rig(cfg).cl, cfg.grid_spec()\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "compute_safe_set(discretize(cl, grid), cfg.alpha)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 20_000


class TestBuildSeed:
    def test_disturbance_free_seed_equals_ellipsoid_collection(self):
        plant, out, gain, cl, grid = small_example(w_hi=1.0, dw=1.0)
        grid0 = GridSpec(grid.x_lo, grid.x_hi, grid.x_delta, grid.v_lo, grid.v_hi,
                         grid.v_delta, -0.0001, 0.0001, 0.0001)
        tt = discretize(cl, grid0)
        members = build_seed(tt, 0.75)
        seed = compute_safe_set(tt, 0.75).seed
        # reproduce the collection with an independent membership check
        P = dlyap_scaled(cl.At, plant.E, 0.75)
        xv = np.linalg.solve(np.eye(2) - cl.At, cl.Bt).ravel()
        pts = grid0.x_points()
        H, h = out.constraint_set.normals, out.constraint_set.offsets
        expected = np.zeros(seed.shape, dtype=bool)
        for j, v in enumerate(grid0.v_values):
            ell = Ellipsoid(xv * v, P)
            ok = all(
                ellipsoid_support(ell, (H[i] @ cl.Ct)) + H[i] @ cl.Dt @ [v] <= h[i] + 1e-12
                for i in range(H.shape[0])
            )
            if not ok:
                continue
            d = pts - xv * v
            expected[:, j] = np.einsum("ij,jk,ik->i", d, np.linalg.inv(P), d) <= 1 + 1e-12
        assert np.array_equal(members, expected)
        assert np.array_equal(seed, expected)

    def test_origin_pair_included(self):
        _, out, gain, cl, grid = small_example()
        seed = seed_on(cl, out, grid)
        i = grid.snap_x([[0.0, 0.0]])[0]
        j = snap_v(grid, [0.0])[0]
        assert seed[i, j]

    def test_edge_references_excluded(self):
        # references whose ellipsoid worst case violates the position bound
        # contribute no pairs at all
        plant, out, gain, cl, grid = small_example()
        seed = seed_on(cl, out, grid)
        P = dlyap_scaled(cl.At, plant.E, 0.75)
        r1 = np.sqrt(P[0, 0])
        for j, v in enumerate(grid.v_values):
            if abs(v) + r1 > 20.0 + 1e-9:
                assert not seed[:, j].any()

    def test_seed_is_invariant_under_the_table(self):
        _, out, gain, cl, grid = small_example()
        tt = discretize(cl, grid)
        seed = compute_safe_set(tt, 0.75).seed
        rows, cols = np.nonzero(seed)
        succ = tt.table[rows, cols, :]
        assert np.all(succ >= 0)
        assert np.all(seed[succ, cols[:, None]])

    def test_no_eligible_ellipsoid_raises(self):
        # every reference in 40..60 puts its ellipsoid past the position bound
        cl = small_example()[3]
        grid = GridSpec((-25.0, -10.0), (25.0, 15.0), (2.5, 2.5), 40.0, 60.0, 5.0,
                        -1.0, 1.0, 1.0)
        with pytest.raises(SeedConstructionError, match="ellipsoid constraint check"):
            compute_safe_set(discretize(cl, grid), 0.75)

    def test_no_invariant_member_raises(self):
        # a grid well inside the constraint box: every pair's successors
        # leave it, so no pair is invariant although ellipsoid members exist
        # (else the first message would be raised)
        cl = small_example()[3]
        grid = GridSpec((-2.0, -2.0), (2.0, 2.0), (1.0, 1.0), -1.0, 1.0, 1.0, -1.0, 1.0, 1.0)
        tt, ok = grid_tables(cl, None, grid)
        assert ok.all() and not invariant_set(tt, ok).any()
        with pytest.raises(SeedConstructionError, match="no ellipsoid member lies in any"):
            compute_safe_set(tt, 0.75)


@pytest.fixture(scope="module")
def bundle():
    plant, out, gain, cl, grid = small_example()
    tt, ok = grid_tables(cl, out, grid)
    dss = compute_safe_set(tt, 0.75)
    return plant, out, gain, cl, grid, tt, dss.seed, dss


@pytest.fixture(scope="module")
def oracle(bundle):
    plant, out, gain, cl, grid, tt, seed, dss = bundle
    acts = np.arange(-6.0, 6.5, 0.5)
    return DiscreteGridOracle(dss, tt, acts), dss, grid


SMALL_GRIDS = [
    GridSpec((-25.0, -10.0), (25.0, 15.0), (2.5, 2.5), -20.0, 20.0, 2.5, -1.0, 1.0, 1.0),
    GridSpec((-25.0, -10.0), (25.0, 15.0), (2.0, 1.25), -10.0, 10.0, 2.0, -1.0, 1.0, 0.5),
    GridSpec((-25.0, -10.0), (25.0, 15.0), (2.5, 2.5), -20.0, 20.0, 2.5, -0.5, 0.5, 0.25),
    GridSpec((-25.0, -10.0), (25.0, 15.0), (5.0, 2.5), -15.0, 15.0, 5.0, -2.0, 2.0, 1.0),
    GridSpec((-25.0, -10.0), (25.0, 15.0), (1.0, 2.5), -10.0, 10.0, 2.5, -1.5, 1.5, 0.5),
    # inside the constraint box, so admissible pairs also exit the grid
    GridSpec((-15.0, -3.0), (15.0, 8.0), (2.5, 1.0), -25.0, 25.0, 5.0, -1.0, 1.0, 0.5),
]


class TestComputeSafeSet:
    def test_seed_classified_safe_at_initialization(self, bundle):
        *_, seed, dss = bundle
        assert dss.sweep_counts[0][0] == seed.sum()
        assert np.all(dss.class_map[seed] == SAFE_PLUS)

    def test_constraint_violating_pair_is_minus_with_witness(self, bundle):
        plant, out, gain, cl, grid, tt, seed, dss = bundle
        # x2 = 12 violates the position bound regardless of the reference
        i = grid.snap_x([[0.0, 12.0]])[0]
        assert np.all(dss.class_map[i] == MINUS)
        assert np.all(dss.witness_w[i] == WITNESS_CONSTRAINT)

    def test_partition_and_monotonicity_every_sweep(self, bundle):
        *_, grid, tt, seed, dss = bundle
        total = grid.n_pairs
        prev = None
        for safe, minus, remain in dss.sweep_counts:
            assert safe + minus + remain == total
            if prev is not None:
                assert safe >= prev[0] and minus >= prev[1] and remain <= prev[2]
            prev = (safe, minus, remain)
        # the last entry is the final classification, which counts() reports
        remain, safe, minus = np.bincount(dss.class_map.ravel(), minlength=3)
        assert dss.counts() == {"safe": safe, "minus": minus, "remain": remain}

    @pytest.mark.parametrize("grid", SMALL_GRIDS)
    def test_sequential_reference_reaches_the_same_fixed_point(self, grid):
        plant, out, gain, cl, _ = small_example()
        tt, ok = grid_tables(cl, out, grid)
        batched = compute_safe_set(tt, 0.75)
        sequential = compute_safe_set_sequential(batched.seed, tt, ok)
        assert np.array_equal(batched.class_map, sequential.class_map)

    def test_safe_rollouts_reach_the_seed(self, bundle):
        plant, out, gain, cl, grid, tt, seed, dss = bundle
        rng = np.random.default_rng(3)
        safe_pairs = np.argwhere(dss.pi & ~seed)
        ok_table = dss_constraint_oracle(out, gain, grid)
        for _ in range(200):
            i, j = safe_pairs[rng.integers(len(safe_pairs))]
            steps = 0
            while not seed[i, j]:
                assert ok_table[i, j]
                i = tt.table[i, j, rng.integers(grid.n_w)]
                assert i >= 0
                steps += 1
                assert steps <= grid.n_xpairs

    def test_minus_witness_chains_reach_violation_or_exit(self, bundle):
        plant, out, gain, cl, grid, tt, seed, dss = bundle
        ok_table = dss_constraint_oracle(out, gain, grid)
        # follow every MINUS pair's chain at once
        i, j = np.nonzero(dss.class_map == MINUS)
        steps = 0
        while True:
            w = dss.witness_w[i, j]
            violation = w == WITNESS_CONSTRAINT
            assert not ok_table[i[violation], j[violation]].any()
            i, j, w = i[~violation], j[~violation], w[~violation]
            if not i.size:
                break
            succ = tt.table[i, j, w]
            i, j = succ[succ >= 0], j[succ >= 0]  # the others left the verified range
            steps += 1
            assert steps <= grid.n_xpairs

    def test_shipped_safe_set_is_closed_under_every_disturbance(self, grid_bundle):
        # exhaustive where the rollouts above sample: every SAFE pair of the
        # shipped grid (45,902) is admissible, and each of its successors,
        # one per disturbance grid value, is on the grid and SAFE at the
        # same reference
        _, dss, tt, grid = grid_bundle
        i, j = np.nonzero(dss.pi)
        assert i.size > 0
        assert np.all(constraint_table(tt)[i, j])
        succ = tt.table[i, j, :]
        assert succ.shape[1] == grid.n_w
        assert np.all(succ >= 0)
        assert np.all(dss.pi[succ, j[:, None]])

    @pytest.mark.parametrize("kind", ["inadmissible", "exits"])
    def test_unsound_closure_fails_the_build_time_certificate(self, bundle, kind,
                                                              monkeypatch):
        # a seed closure that also returns one MINUS pair of one slice: an
        # inadmissible pair, or an admissible one whose witness successor is
        # off the grid or MINUS
        *_, tt, _, dss = bundle
        pick = dss.witness_w == WITNESS_CONSTRAINT if kind == "inadmissible" else dss.witness_w >= 0
        i, j = np.argwhere(pick)[0]
        real = discrete_safeset._forward_closure
        slices = iter(range(tt.grid.n_v))

        def unsound(core, block, col_of):
            reached = real(core, block, col_of)
            # the closure runs once per slice, in slice order
            if next(slices) == j:
                reached[i] = True
            return reached

        monkeypatch.setattr(discrete_safeset, "_forward_closure", unsound)
        what = ("is inadmissible" if kind == "inadmissible"
                else "has a successor off the grid or outside the safe set")
        with pytest.raises(SafeSetClosureError, match=rf"x-pair {i}, reference slice {j}\) {what}"):
            compute_safe_set(tt, 0.75)


def dss_constraint_oracle(out, gain, grid):
    """Independent recomputation of the per-pair admissibility table."""
    pts = grid.x_points()
    H, h = out.constraint_set.normals, out.constraint_set.offsets
    ok = np.empty((grid.n_xpairs, grid.n_v), dtype=bool)
    for j, v in enumerate(grid.v_values):
        u0 = pts @ gain.K.T + (gain.L @ [v])[0]
        y = np.column_stack([pts, u0])
        ok[:, j] = np.all(y @ H.T <= h + 1e-9, axis=1)
    return ok


class TestOracle:
    def test_member_on_seed_and_minus_pairs(self, oracle):
        orc, dss, grid = oracle
        pts = grid.x_points()
        i, j = np.argwhere(dss.seed)[0]
        assert grid_member(orc, pts[i], grid.v_values[j])
        i, j = np.argwhere(dss.class_map == MINUS)[0]
        assert not grid_member(orc, pts[i], grid.v_values[j])

    def test_proj_member_agrees_with_exhaustive_scan(self, oracle):
        orc, dss, grid = oracle
        pts = grid.x_points()
        rng = np.random.default_rng(5)
        for i in rng.integers(0, grid.n_xpairs, size=200):
            expected = any(dss.pi[i, j] for j in range(grid.n_v))
            assert grid_proj_member(orc, pts[i]) == expected

    def test_out_of_grid_states_are_outside(self, oracle):
        orc, _, _ = oracle
        assert not grid_proj_member(orc, [100.0, 0.0])
        assert not grid_member(orc, [100.0, 0.0], 0.0)

    def test_feasible_actions_are_truly_robust(self, oracle):
        orc, dss, grid = oracle
        plant, out, gain, cl, _ = small_example()
        pts = grid.x_points()
        rng = np.random.default_rng(6)
        proj = dss.proj_mask
        for _ in range(50):
            x = pts[rng.integers(grid.n_xpairs)]
            for u in orc.feasible_actions(x):
                assert output_admissible(out, x, [u])
                for w in grid.w_values:
                    succ = plant_step(plant, x, [u], [w])
                    idx = grid.snap_x([succ])[0]
                    assert idx >= 0 and proj[idx]

    @pytest.mark.parametrize("norm", ["l1", "linf"])
    def test_adjust_is_the_nearest_feasible_action(self, oracle, norm):
        orc, dss, grid = oracle
        pts = grid.x_points()
        dist = ActionDistance(norm)
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = pts[rng.integers(grid.n_xpairs)]
            u1 = float(rng.uniform(-8.0, 8.0))
            got = orc.adjust(x, np.array([u1]), dist)
            feas = orc.feasible_actions(x)
            if feas.size == 0:
                assert got is None
            else:
                assert got[0] == min(feas, key=lambda u: (abs(u1 - u), u))

    @pytest.mark.parametrize("norm", ["l1", "linf"])
    def test_midpoint_of_two_feasible_actions_gets_the_lower(self, oracle, norm):
        orc, _, grid = oracle
        dist = ActionDistance(norm)
        seen = 0
        for x in grid.x_points()[::7]:
            feas = orc.feasible_actions(x)
            for lo, hi in zip(feas[:-1], feas[1:]):
                mid = (lo + hi) / 2  # exact: the action grid steps by 0.5
                assert mid - lo == hi - mid
                got = orc.adjust(x, np.array([mid]), dist)
                assert got.shape == (1,) and got[0] == lo
                seen += 1
        assert seen > 100

    @pytest.mark.parametrize("norm", ["l1", "linf"])
    def test_unsorted_action_grid_answers_as_the_sorted_one(self, bundle, oracle, norm):
        orc, dss, grid = oracle
        tt = bundle[5]
        rng = np.random.default_rng(12)
        shuffled = DiscreteGridOracle(dss, tt, rng.permutation(orc.action_values))
        dist = ActionDistance(norm)
        pts = grid.x_points()
        for i in rng.integers(0, grid.n_xpairs, 300):
            x = pts[i]
            # half steps are midpoints, whose tie the lower action takes
            for u1 in (float(rng.uniform(-8.0, 8.0)), float(rng.integers(-16, 17)) / 2 + 0.25):
                got = shuffled.adjust(x, np.array([u1]), dist)
                want = orc.adjust(x, np.array([u1]), dist)
                assert (got is None) == (want is None)
                if want is not None:
                    assert got.tobytes() == want.tobytes()

    def test_refuses_a_plant_of_more_inputs(self, oracle):
        orc, dss, _ = oracle
        two_inputs = SimpleNamespace(grid=orc.grid, cl=SimpleNamespace(
            plant=SimpleNamespace(B=np.zeros((2, 2))), gain=orc.gain, out=None))
        with pytest.raises(ValueError, match="single-input"):
            DiscreteGridOracle(dss, two_inputs, orc.action_values)

    @pytest.mark.parametrize("norm", ["l1", "linf"])
    def test_backup_matches_exhaustive_member_search(self, oracle, norm):
        orc, dss, grid = oracle
        pts = grid.x_points()
        dist = ActionDistance(norm)
        rng = np.random.default_rng(8)
        inside = np.nonzero(dss.proj_mask)[0]
        for i in np.concatenate([rng.choice(inside, 40), rng.integers(0, grid.n_xpairs, 40)]):
            x = pts[i]
            u1 = float(rng.uniform(-8.0, 8.0))
            got = orc.backup(x, np.array([u1]), dist)
            feas = [v for v in grid.v_values if grid_member(orc, x, v)]
            assert (got is None) == (not feas) == (not grid_proj_member(orc, x))
            if feas:
                best = min(feas, key=lambda v: (abs(u1 - orc.pi0(x, [v])[0]), v))
                assert got[0] == best


class TestFeasibleActionsMemo:
    @pytest.fixture
    def fresh(self, base_cfg, grid_bundle):
        """A grid oracle of the shipped scenario with an empty memo."""
        _, dss, tt, grid = grid_bundle
        return DiscreteGridOracle(dss, tt, base_cfg.action_values()), grid

    def test_every_grid_point_cold_and_warm_equals_a_fresh_computation(self, fresh):
        orc, grid = fresh
        for x in grid.x_points():
            cold = orc.feasible_actions(x)
            ref = feasible_actions_reference(orc, x)
            assert cold.dtype == ref.dtype and np.array_equal(cold, ref)
            warm = orc.feasible_actions(x)
            assert warm is cold and np.array_equal(warm, ref)
        assert len(orc._memo) == grid.n_xpairs

    def test_off_grid_states_are_answered_but_not_stored(self, fresh):
        orc, grid = fresh
        origin = grid.index_of([0.0, 0.0])
        x0 = grid.x_points()[origin]
        # a grid point moved off it, and the middle of a grid cell
        for x in (x0 + 1e-3, x0 + np.array(grid.x_delta) / 2, x0 - 1e-3):
            got = orc.feasible_actions(x)
            ref = feasible_actions_reference(orc, x)
            assert got.size and got.dtype == ref.dtype and np.array_equal(got, ref)
            assert orc.feasible_actions(x) is not got
        assert orc._memo == {}
        orc.feasible_actions(x0)
        assert list(orc._memo) == [tuple(x0.tolist())]
        assert np.array_equal(orc.feasible_actions(x0 + 1e-3),
                              feasible_actions_reference(orc, x0 + 1e-3))

    def test_returned_arrays_are_read_only(self, fresh):
        orc, grid = fresh
        x = grid.x_points()[grid.index_of([0.0, 0.0])]
        for feas in (orc.feasible_actions(x), orc.feasible_actions(x),
                     orc.feasible_actions(x + 1e-3)):
            assert feas.size
            with pytest.raises(ValueError, match="read-only"):
                feas[0] = 99.0
        assert np.array_equal(orc.feasible_actions(x), feasible_actions_reference(orc, x))

    def test_negative_zero_gives_the_set_of_positive_zero(self, fresh, base_cfg, grid_bundle):
        orc, _ = fresh
        other = DiscreteGridOracle(orc.dss, grid_bundle[2], base_cfg.action_values())
        for x2 in (0.0, 5.0):
            neg = orc.feasible_actions([-0.0, x2])  # cold: computed at -0.0 and stored
            assert neg.size and np.array_equal(neg, feasible_actions_reference(orc, [0.0, x2]))
            assert orc.feasible_actions([0.0, x2]) is neg
            assert np.array_equal(other.feasible_actions([0.0, x2]), neg)
        assert np.array_equal(other.feasible_actions([-0.0, -0.0]),
                              feasible_actions_reference(orc, [0.0, 0.0]))


class TestConstraintTable:
    def test_reads_the_loop_bitwise_as_the_plant_formula(self, rig, grid_bundle):
        # the table the loop's Ct, Dt give equals the one formed from the
        # plant's output map and gain (u = K x + L v) on the shipped grid
        _, _, tt, grid = grid_bundle
        out, gain = rig.out, rig.gain
        Ct = out.C + out.D @ gain.K
        Dt = out.D @ gain.L
        H = out.constraint_set.normals
        h = out.constraint_set.offsets
        xh = grid.x_points() @ (H @ Ct).T
        vh = np.outer(grid.v_values, (H @ Dt).ravel())
        expected = np.empty((grid.n_xpairs, grid.n_v), dtype=bool)
        for j in range(grid.n_v):
            expected[:, j] = np.all(xh + vh[j] <= h + 1e-9, axis=1)
        got = constraint_table(tt)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        assert 0 < got.sum() < got.size


class TestPipeline:
    def test_grid_backend_builds_each_table_once(self, monkeypatch):
        from actiongov import discrete_safeset, simlab

        calls = {"discretize": 0, "constraint_table": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            wrapper = counting(name, getattr(discrete_safeset, name))
            for module in (discrete_safeset, simlab):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        cfg = simlab.ScenarioConfig(seed=0, grid_dx1=2.5, grid_dx2=2.5, grid_dv=2.5,
                                    grid_dw=1.0, action_du=2.0)
        simlab.build_grid_backend(cfg, simlab.build_rig(cfg))
        assert calls == {"discretize": 1, "constraint_table": 1}

    def test_grid_backend_never_assembles_the_whole_table(self, rig, base_cfg, monkeypatch):
        def whole_table(tt):
            raise AssertionError("the set-up read the whole transition table")

        monkeypatch.setattr(TransitionTable, "table", property(whole_table))
        _, dss, _, _ = build_grid_backend(base_cfg, rig)
        assert dss.pi.any()

    def test_grid_backend_tabulates_the_admissible_rows_only(self, rig, base_cfg,
                                                             monkeypatch):
        # the classification reads no inadmissible pair's successors: they
        # are MINUS before any sweep
        real = TransitionTable.slice_block
        tabulated = {}

        def spy(self, j, states):
            tabulated[j] = states.copy()
            return real(self, j, states)

        monkeypatch.setattr(TransitionTable, "slice_block", spy)
        _, _, tt, grid = build_grid_backend(base_cfg, rig)
        ok = constraint_table(tt)
        assert sorted(tabulated) == list(range(grid.n_v))
        for j, states in tabulated.items():
            assert np.array_equal(states, np.flatnonzero(ok[:, j]))
        assert sum(s.size for s in tabulated.values()) == 167_039

    def test_grid_backend_peak_memory_stays_below_the_whole_table(self, rig, base_cfg):
        # the shipped grid's whole table alone is 5,151 x 101 x 21 int16
        # indices, 21.9 MB; holding one slice's rows at a time keeps the
        # set-up's traced peak near 9 MB
        tracemalloc.start()
        try:
            build_grid_backend(base_cfg, rig)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


# references up to +-60: the loop's action K x + L v leaves U at every grid
# state of at least one of them
WIDE_V_GRID = GridSpec((-25.0, -10.0), (25.0, 15.0), (2.5, 2.5), -60.0, 60.0, 5.0,
                       -1.0, 1.0, 1.0)


class TestSliceWiseStages:
    """The slice-wise stages equal the whole-grid sweeps of ``references``
    exactly: table values and dtype, witness, seed, classes and totals."""

    @staticmethod
    def whole_grid(cl, grid, alpha):
        tt = discretize_reference(cl, grid)
        ok = constraint_table(tt)
        witness = unsafe_witness_reference(tt, ok)
        invariant = witness == WITNESS_NONE
        seed = build_seed_reference(tt, invariant, alpha)
        cls, counts, grown_at = grow_reference(tt, invariant, seed)
        return tt, ok, witness, seed, cls, counts, grown_at

    @staticmethod
    def assert_same(tt, dss, ref):
        ref_tt, _, witness, seed, cls, counts, _ = ref
        for got, want in ((tt.table, ref_tt.table), (dss.witness_w, witness),
                          (dss.seed, seed), (dss.class_map, cls)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert dss.sweep_counts == counts
        assert all(type(c) is int for row in dss.sweep_counts for c in row)

    @pytest.mark.parametrize("grid", SMALL_GRIDS + [WIDE_V_GRID])
    def test_small_grids(self, grid):
        cl = small_example()[3]
        ref = self.whole_grid(cl, grid, 0.75)
        tt = discretize(cl, grid)
        self.assert_same(tt, compute_safe_set(tt, 0.75), ref)
        if grid is WIDE_V_GRID:
            ok = ref[1]
            assert (~ok).all(axis=0).any() and ok.any(axis=0).any()

    @pytest.mark.parametrize("n1, dtype", [(181, np.int16), (182, np.int32)])
    def test_index_width_grids(self, n1, dtype):
        cl = small_example()[3]
        grid = width_grid(n1)
        ref = self.whole_grid(cl, grid, 0.75)
        tt = discretize(cl, grid)
        assert tt.table.dtype == dtype
        self.assert_same(tt, compute_safe_set(tt, 0.75), ref)

    @pytest.mark.parametrize("case", TestDiscretize.LOOPS)
    def test_snapping_case_grids(self, case):
        # coordinates that move with the reference, the disturbance, both or
        # neither, and signed zeros: the gathered and the per-slice snaps
        # both feed the witness and the sweeps
        cl, grid = TestDiscretize.snapping_case(case)
        ref = self.whole_grid(cl, grid, 0.75)
        tt = discretize(cl, grid)
        dss = compute_safe_set(tt, 0.75)
        self.assert_same(tt, dss, ref)
        assert all(n > 0 for n in dss.sweep_counts[-1])

    def test_shipped_grid(self, rig, base_cfg, grid_bundle):
        _, dss, tt, grid = grid_bundle
        ref = self.whole_grid(rig.cl, grid, base_cfg.alpha)
        self.assert_same(tt, dss, ref)
        # slices stop growing at different sweeps, so the totals add up
        # slices that have finished and slices that still grow
        last_growth = np.maximum(ref[-1].max(axis=0), 0)
        assert len(set(last_growth.tolist())) > 1

    def test_forward_closure_of_random_cores(self):
        _, _, _, cl, grid = small_example()
        tt, ok = grid_tables(cl, None, grid)
        invariant = invariant_set(tt, ok)
        rng = np.random.default_rng(9)
        col_of = np.full(grid.n_xpairs, -1)
        for share in (0.001, 0.01, 0.1):
            core = invariant & (rng.random(invariant.shape) < share)
            want = forward_closure_reference(core, tt.table)
            for j in range(grid.n_v):
                # the admissible columns, as compute_safe_set tabulates them
                states = np.flatnonzero(ok[:, j])
                col_of[states] = np.arange(states.size)
                got = discrete_safeset._forward_closure(
                    core[:, j], tt.slice_block(j, states), col_of)
                assert np.array_equal(got, want[:, j])
                assert not (got & ~invariant[:, j]).any()

    def test_forward_closure_leaving_the_grid_raises(self):
        _, _, _, cl, grid = small_example()
        tt = discretize(cl, grid)
        core = np.zeros((grid.n_xpairs, grid.n_v), dtype=bool)
        i, j, _ = np.argwhere(tt.table < 0)[0]
        core[i, j] = True
        with pytest.raises(SeedConstructionError, match="left the grid"):
            discrete_safeset._forward_closure(core[:, j], tt.table[:, j].T,
                                              np.arange(grid.n_xpairs))
        with pytest.raises(SeedConstructionError, match="left the grid"):
            forward_closure_reference(core, tt.table)
