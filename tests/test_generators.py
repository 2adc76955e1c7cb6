"""The double description of ``convexset.Generators`` against HiGHS and
against brute-force vertex enumeration, on 1-3-dimensional sets."""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from actiongov.convexset import Generators, HPolytope, project_out, remove_redundancy
from actiongov.errors import EmptySetError
from references import highs_support

KINDS = ("bounded", "unbounded", "duplicate", "near_parallel", "degenerate", "far", "empty")


@st.composite
def row_sets(draw):
    """``(kind, normals, offsets)`` in 1-3 dimensions."""
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(m, n))
    b = rng.uniform(0.1, 2.0, m)
    box = np.vstack([np.eye(n), -np.eye(n)])
    box_b = rng.uniform(1.0, 3.0, 2 * n)
    if kind == "unbounded":
        # every row decreases along d, so the set contains the ray d
        d = rng.normal(size=n)
        a = a - np.outer(a @ d / (d @ d), d) - rng.uniform(0.1, 1.0, (m, 1)) * d
        return kind, a, b
    if kind in ("degenerate", "far"):
        # small integers: many rows meet at one vertex
        a = rng.integers(-1, 2, size=(m + n, n)).astype(float)
        b = rng.integers(0, 2, size=m + n).astype(float)
    if kind == "far":
        # ... and a box up to 1e6 wide, so vertices near 0 carry its rounding
        box_b *= 10.0 ** rng.uniform(3, 6)
    a, b = np.vstack([box, a]), np.concatenate([box_b, b])
    k = rng.integers(0, a.shape[0], size=3)
    if kind == "duplicate":
        # positively scaled copies of rows: the same halfspace or a looser one
        scale = rng.uniform(0.5, 2.0, 3)
        a = np.vstack([a, a[k] * scale[:, None]])
        b = np.concatenate([b, b[k] * scale * rng.choice([1.0, 1.5], 3)])
    elif kind == "near_parallel":
        # a row turned by 1e-8..1e-2 radians about a point of its plane
        angle = 10.0 ** rng.uniform(-8, -2)
        row = a[k[0]]
        if n == 1:
            turned = row * (1.0 + angle)
        else:
            u = rng.normal(size=n)
            u -= (u @ row) / (row @ row) * row
            turned = row * np.cos(angle) + np.linalg.norm(row) * np.sin(angle) * u / np.linalg.norm(u)
        point = row * b[k[0]] / (row @ row)
        a, b = np.vstack([a, turned]), np.append(b, turned @ point)
    elif kind == "empty":
        a = np.vstack([a, a[k[0]], -a[k[0]]])
        b = np.concatenate([b, [-1.0, -1.0]])
    return kind, a, b


def brute_force_vertices(a, b, tol=1e-9):
    """Every point where ``dim`` linearly independent rows meet and every
    row holds to ``tol`` times the data's scale, duplicates merged."""
    n = a.shape[1]
    scale = 1.0 + np.abs(b).max()
    found = []
    for rows in itertools.combinations(range(a.shape[0]), n):
        sub = a[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-9:
            continue
        z = np.linalg.solve(sub, b[list(rows)])
        if np.all(a @ z <= b + tol * scale) and not any(
            np.allclose(z, v, rtol=0.0, atol=1e-8) for v in found
        ):
            found.append(z)
    return np.array(found).reshape(-1, n)


PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=200, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])


@PROPERTY_SETTINGS
@given(row_sets())
def test_supports_agree_with_highs(instance):
    kind, a, b = instance
    gens = Generators.of(a, b)
    status, _ = highs_support(np.zeros(a.shape[1]), a, b)
    assert gens.is_empty == (status == 2), kind
    assert status in (0, 2)
    if kind == "empty":
        assert gens.is_empty
    if status == 2:
        assert gens.support(np.ones(a.shape[1])) == -np.inf
        return
    # rounding scales with the data: offsets reach 1e6 in the far kind
    tol = 1e-10 * (1.0 + np.abs(b).max())
    rng = np.random.default_rng(a.shape[0])
    for d in np.vstack([a, rng.normal(size=(8, a.shape[1]))]):
        status, value = highs_support(d, a, b)
        if status == 3:
            assert gens.support(d) == np.inf, kind
        else:
            assert gens.support(d) == pytest.approx(value, abs=tol * (1.0 + abs(value))), kind
    assert np.all(gens.vertices @ a.T <= b + tol)


@PROPERTY_SETTINGS
@given(row_sets())
def test_vertices_agree_with_brute_force(instance):
    kind, a, b = instance
    if kind in ("unbounded", "near_parallel"):
        return  # rays, or vertices whose position is ill-conditioned
    verts = Generators.of(a, b).vertices
    want = brute_force_vertices(a, b)
    assert verts.shape == want.shape, kind
    for v in verts:
        assert np.abs(want - v).max(axis=1).min() <= 1e-9 * (1.0 + np.abs(b).max()), kind


@PROPERTY_SETTINGS
@given(row_sets())
def test_redundancy_removal_keeps_the_needed_rows_only(instance):
    kind, a, b = instance
    poly = HPolytope(a, b)
    gens = poly.generators()
    if gens.is_empty:
        with pytest.raises(EmptySetError):
            remove_redundancy(poly)
        return
    red = remove_redundancy(poly)
    # the same set: every given row holds on the reduced one
    tol = 1e-9 * (1.0 + np.abs(b).max())
    for row, offset in zip(a, b):
        status, value = highs_support(row, red.normals, red.offsets)
        assert status == 0 and value <= offset + tol, kind
    full_dimensional = np.linalg.matrix_rank(np.vstack([gens.gens, gens.hlines])) == a.shape[1] + 1
    if kind == "near_parallel" or not full_dimensional:
        return  # facets of width 1e-8 or less; rows that hold with equality
    # no row can go: without it HiGHS finds a point beyond it
    for i in range(red.n_rows):
        status, value = highs_support(red.normals[i], np.delete(red.normals, i, axis=0),
                                      np.delete(red.offsets, i))
        assert status == 3 or value > red.offsets[i] + tol, kind


def test_whole_space_and_one_cut():
    gens = Generators(2)
    assert np.array_equal(gens.vertices, [[0.0, 0.0]]) and gens.lines.shape == (2, 2)
    assert gens.support([1.0, 0.0]) == np.inf
    gens.cut([1.0, 1.0], 2.0)  # a halfplane: one line left, one ray
    assert gens.lines.shape == (1, 2) and gens.rays.shape == (1, 2)
    assert gens.support([1.0, 1.0]) == pytest.approx(2.0, abs=1e-15)
    assert gens.support([[1.0, 1.0], [1.0, 0.0], [-1.0, -1.0]]).tolist()[1:] == [np.inf, np.inf]


def test_vertices_keep_their_rows_after_the_set_shrinks_from_far_away():
    # a box 7e5 wide cut down to the triangle (0, 0), (0, 1), (-0.5, 0.5):
    # the vertices carry the box's rounding (about 1e-11), which the
    # tolerance must cover after the extent has shrunk, or the vertex on
    # four rows at (0, 1) splits in two
    a = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0], [-1.0, -1.0],
                  [0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [0.0, 1.0]])
    b = np.array([6.18820973e5, 4.26417909e5, 7.48431151e5, 7.18694956e5, 1.0, 0.0, 1.0, 0.0,
                  1.0, 1.0, 1.0, 1.0])
    verts = Generators.of(a, b).vertices
    assert verts.shape == (3, 2)
    want = np.array([[0.0, 0.0], [0.0, 1.0], [-0.5, 0.5]])
    assert all(np.abs(want - v).max(axis=1).min() <= 1e-9 for v in verts)


def test_polytope_caches_the_generators():
    gens = Generators.of([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1.0, 1.0, 1.0, 1.0])
    poly = gens.polytope()
    assert poly.generators() is gens and poly.n_rows == 4
    assert sorted(map(tuple, gens.vertices)) == [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]


def test_redundancy_and_projection_of_a_flat_set():
    # the segment x1 = 0, |x2| <= 1 in the plane, given with a looser copy
    # of one equality row: the equalities are kept, the copy goes
    poly = HPolytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [2.0, 0.0]],
                     [0.0, 0.0, 1.0, 1.0, 1.0])
    red = remove_redundancy(poly)
    assert red.n_rows == 4
    proj = project_out(poly, [1])  # {0}
    assert sorted(zip(proj.normals[:, 0], proj.offsets)) == [(-1.0, 0.0), (1.0, 0.0)]
    assert np.array_equal(project_out(poly, [0]).offsets, [1.0, 1.0])
