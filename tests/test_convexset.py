import numpy as np
import pytest

from actiongov import convexset
from actiongov.convexset import (
    HPolytope,
    nearest_affine_point,
    pontryagin_diff,
    project_out,
    rejection_sample,
    remove_redundancy,
    support,
)
from actiongov.errors import EmptySetError, UnboundedSetError
from actiongov.lp import LpStatus, Sense, solve_lp
from ellipsoids import Ellipsoid, ellipsoid_contains, ellipsoid_support
from references import hpolytope_from_dict, intersect, is_subset


def vertices_2d(poly: HPolytope, tol=1e-7):
    """Oracle: enumerate 2-D vertices by pairwise halfspace intersection."""
    A, b = poly.normals, poly.offsets
    verts = []
    for i in range(A.shape[0]):
        for j in range(i + 1, A.shape[0]):
            M = np.array([A[i], A[j]])
            if abs(np.linalg.det(M)) < 1e-10:
                continue
            v = np.linalg.solve(M, [b[i], b[j]])
            if np.all(A @ v <= b + tol):
                verts.append(v)
    return np.array(verts)


def random_poly_2d(rng, rows=6):
    """Random bounded 2-D polytope: box plus random cutting halfspaces."""
    box = HPolytope.from_bounds(rng.uniform(-3, -1, 2), rng.uniform(1, 3, 2))
    normals = rng.normal(size=(rows, 2))
    offsets = rng.uniform(0.5, 2.0, rows)
    return intersect(box, HPolytope(normals, offsets))


unit_box = HPolytope.from_bounds([-1, -1], [1, 1])
triangle = HPolytope([[-1, 0], [0, -1], [1, 1]], [0, 0, 1])


class TestSupport:
    def test_box_diagonal(self):
        assert support(unit_box, [1, 1]) == pytest.approx(2.0, abs=1e-9)

    def test_zero_direction(self):
        assert support(unit_box, [0, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_triangle_vertex_oracle(self):
        d = np.array([2.0, 1.0])
        expected = max(v @ d for v in vertices_2d(triangle))
        assert support(triangle, d) == pytest.approx(expected, abs=1e-7)
        assert expected == pytest.approx(2.0)

    def test_empty_raises(self):
        empty = HPolytope([[1.0], [-1.0]], [0.0, -1.0])
        with pytest.raises(EmptySetError):
            support(empty, [1.0])

    def test_unbounded_raises(self):
        half = HPolytope([[1.0, 0.0]], [1.0])
        with pytest.raises(UnboundedSetError):
            support(half, [0.0, 1.0])

    def test_lp_support_matches_vertex_oracle_random(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            poly = random_poly_2d(rng)
            verts = vertices_2d(poly)
            if verts.size == 0:
                continue
            d = rng.normal(size=2)
            assert support(poly, d) == pytest.approx(float((verts @ d).max()), abs=1e-7)


class TestPontryagin:
    def test_interval_shrink(self):
        w = HPolytope.from_bounds([-0.5, -0.5], [0.5, 0.5])
        diff = pontryagin_diff(unit_box, np.eye(2), w)
        assert np.allclose(diff.offsets, 0.5)

    def test_zero_subtrahend_is_identity(self):
        zero = HPolytope([[1.0], [-1.0]], [0.0, 0.0])
        diff = pontryagin_diff(unit_box, np.zeros((2, 1)), zero)
        assert np.allclose(diff.offsets, unit_box.offsets)

    def test_action_interval(self):
        interval = HPolytope.from_bounds([-6.0], [6.0])
        w = HPolytope.from_bounds([-1.0], [1.0])
        diff = pontryagin_diff(interval, np.eye(1), w)
        assert np.allclose(sorted(diff.offsets), [5.0, 5.0])

    def test_empty_subtrahend_raises(self):
        empty = HPolytope([[1.0], [-1.0]], [0.0, -1.0])
        with pytest.raises(EmptySetError):
            pontryagin_diff(unit_box, np.zeros((2, 1)), empty)

    def test_difference_plus_subtrahend_inside_original(self):
        # (P - W) + W subset of P, via vertex enumeration at n = 2
        rng = np.random.default_rng(9)
        for _ in range(20):
            poly = random_poly_2d(rng)
            w = HPolytope.from_bounds(rng.uniform(-0.4, -0.1, 2), rng.uniform(0.1, 0.4, 2))
            diff = pontryagin_diff(poly, np.eye(2), w)
            if diff.is_empty:
                continue
            for dv in vertices_2d(diff):
                for wv in vertices_2d(w):
                    assert poly.contains(dv + wv, tol=1e-7)


class TestProjection:
    def test_box_drops_dimension(self):
        b3 = HPolytope.from_bounds([-1, -1, -1], [1, 1, 1])
        p = project_out(b3, [2])
        assert p.dim == 2
        assert is_subset(p, unit_box) and is_subset(unit_box, p)

    def test_hand_elimination(self):
        poly = HPolytope([[1, 1], [0, -1], [0, 1]], [1, 0, 1])
        p = project_out(poly, [1])
        # by hand: x + v <= 1 with v >= 0 gives x <= 1
        assert p.dim == 1
        assert support(p, [1.0]) == pytest.approx(1.0, abs=1e-9)

    def test_membership_equivalence_lift_lp(self):
        rng = np.random.default_rng(21)
        hits = 0
        for _ in range(12):
            box = HPolytope.from_bounds(rng.uniform(-3, -1, 3), rng.uniform(1, 3, 3))
            poly = intersect(box, HPolytope(rng.normal(size=(4, 3)), rng.uniform(0.5, 2, 4)))
            if poly.is_empty:
                continue
            proj = project_out(poly, [2])
            for _ in range(100):
                x = rng.uniform(-3.5, 3.5, 2)
                # lift feasibility: does some z exist with (x, z) in poly?
                a_z = poly.normals[:, 2:]
                rhs = poly.offsets - poly.normals[:, :2] @ x
                lift = solve_lp(np.zeros(1), a_z, rhs, Sense.MIN)
                feasible = lift.status is not LpStatus.INFEASIBLE
                member = proj.contains(x, tol=1e-7)
                if feasible != member:
                    # disagreement allowed only within tolerance of the boundary
                    slack = np.max(proj.normals @ x - proj.offsets)
                    assert abs(slack) < 1e-6
                hits += 1
        assert hits >= 1000

    def test_eliminating_everything_rejected(self):
        with pytest.raises(ValueError):
            project_out(unit_box, [0, 1])


class TestRedundancy:
    def test_dominated_row_removed(self):
        poly = HPolytope([[1.0], [1.0]], [1.0, 2.0])
        red = remove_redundancy(poly)
        assert red.n_rows == 1
        assert support(red, [1.0]) == pytest.approx(1.0)

    def test_duplicated_box_rows(self):
        dup = HPolytope(
            np.vstack([unit_box.normals, unit_box.normals]),
            np.concatenate([unit_box.offsets, unit_box.offsets]),
        )
        assert remove_redundancy(dup).n_rows == 4

    def test_same_point_set_by_sampling(self):
        rng = np.random.default_rng(2)
        poly = random_poly_2d(rng, rows=10)
        red = remove_redundancy(poly)
        pts = rng.uniform(-3.5, 3.5, size=(1000, 2))
        assert np.array_equal(poly.contains(pts), red.contains(pts))

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        poly = random_poly_2d(rng, rows=9)
        once = remove_redundancy(poly)
        twice = remove_redundancy(once)
        assert once.n_rows == twice.n_rows
        assert np.allclose(once.normals, twice.normals)
        assert np.allclose(once.offsets, twice.offsets)

    def test_empty_raises(self):
        empty = HPolytope([[1.0], [-1.0]], [0.0, -1.0])
        with pytest.raises(EmptySetError):
            remove_redundancy(empty)


class TestSubset:
    def test_nested_boxes(self):
        small = HPolytope.from_bounds([-0.5, -0.5], [0.5, 0.5])
        assert is_subset(small, unit_box)
        assert not is_subset(unit_box, small)

    def test_agrees_with_sampling(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            p = random_poly_2d(rng)
            q = random_poly_2d(rng)
            claim = is_subset(p, q)
            pts = rejection_sample(p, rng, 1000)
            sampled = bool(np.all(q.contains(pts, tol=1e-7)))
            if claim:
                assert sampled
            # a failed subset claim needs no sampled witness: the violating
            # face may have negligible volume, so only the implication holds


class TestEllipsoid:
    def test_unit_ball_support(self):
        e = Ellipsoid([0.5, 0.0], np.eye(2))
        assert ellipsoid_support(e, [1, 0]) == pytest.approx(1.5)

    def test_zero_direction(self):
        e = Ellipsoid([3.0, -1.0], np.eye(2))
        assert ellipsoid_support(e, [0, 0]) == pytest.approx(0.0)

    def test_axis_length(self):
        e = Ellipsoid([0, 0], np.diag([4.0, 1.0]))
        assert ellipsoid_support(e, [1, 0]) == pytest.approx(2.0)

    def test_contains(self):
        e = Ellipsoid([0, 0], np.diag([4.0, 1.0]))
        assert ellipsoid_contains(e, [0, 0])
        assert ellipsoid_contains(e, [2.0, 0.0])  # boundary included
        assert not ellipsoid_contains(e, [4.0, 0.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            Ellipsoid([0, 0], [[1.0, 1e-6], [0.0, 1.0]])  # not symmetric
        with pytest.raises(ValueError):
            Ellipsoid([0, 0], [[1.0, 0.0], [0.0, -0.1]])  # not PD


class TestHPolytope:
    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            HPolytope([[1.0, 0.0]], [1.0, 2.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            HPolytope([[np.inf, 0.0]], [1.0])

    def test_caller_arrays_stay_writable(self):
        normals = np.array([[1.0, 0.0], [-1.0, 0.0]])
        offsets = np.array([1.0, 1.0])
        poly = HPolytope(normals, offsets)
        assert normals.flags.writeable and offsets.flags.writeable
        normals[0, 0] = 2.0
        offsets[0] = 3.0
        assert poly.normals[0, 0] == 1.0 and poly.offsets[0] == 1.0
        with pytest.raises(ValueError):
            poly.normals[0, 0] = 0.0
        with pytest.raises(ValueError):
            poly.offsets[0] = 0.0

    def test_emptiness_and_boundedness_flags(self):
        assert not unit_box.is_empty
        assert HPolytope([[1.0], [-1.0]], [0.0, -1.0]).is_empty

    def test_degenerate_difference_is_empty_not_error(self):
        big_w = HPolytope.from_bounds([-2, -2], [2, 2])
        diff = pontryagin_diff(unit_box, np.eye(2), big_w)
        assert diff.is_empty

    def test_bounding_box_is_solved_once_and_read_only(self, monkeypatch):
        poly = HPolytope(triangle.normals, triangle.offsets)
        lo, hi = poly.bounding_box()
        verts = vertices_2d(poly)
        assert np.allclose(lo, verts.min(axis=0), atol=1e-9)
        assert np.allclose(hi, verts.max(axis=0), atol=1e-9)

        def no_more_lps(*args):
            raise AssertionError("bounding box solved again")

        monkeypatch.setattr(convexset, "support", no_more_lps)
        again = poly.bounding_box()
        assert again[0] is lo and again[1] is hi
        with pytest.raises(ValueError):
            lo[0] = 0.0

    def test_json_round_trip(self):
        data = triangle.to_dict()
        back = hpolytope_from_dict(data)
        assert np.array_equal(back.normals, triangle.normals)
        assert np.array_equal(back.offsets, triangle.offsets)
        assert set(data) == {"normals", "offsets"}


class TestNearestAffine:
    def test_clamp(self):
        seg = HPolytope.from_bounds([-1.0], [1.0])
        z, val = nearest_affine_point(seg, np.eye(1), np.zeros(1), [3.0], "l1")
        assert z[0] == pytest.approx(1.0, abs=1e-9)
        assert val == pytest.approx(2.0, abs=1e-9)

    def test_interior_target_zero_distance(self):
        z, val = nearest_affine_point(unit_box, np.eye(2), np.zeros(2), [0.2, -0.3], "linf")
        assert val == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(z, [0.2, -0.3], atol=1e-7)

    def test_empty_returns_none(self):
        empty = HPolytope([[1.0], [-1.0]], [0.0, -1.0])
        assert nearest_affine_point(empty, np.eye(1), np.zeros(1), [0.0]) is None
