"""Property tests of the supervisor's selections.

The finite test oracles' ``nearest_candidate`` breaks exact distance ties
towards the lexicographically smallest candidate.  The admissible-set
oracle selects through ``nearest_affine_point``, which for a scalar
variable and map clips to an interval instead of solving an LP; HiGHS
solves the LP and is the reference.  The clip agrees with it on random
one-dimensional problems, the oracle's ``adjust`` moves a proposal by the
least distance that satisfies the one-step rule, and its ``backup`` picks
the reference whose nominal action is nearest the proposal.
"""

import numpy as np
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from actiongov.convexset import DEFAULT_TOL, HPolytope, nearest_affine_point
from actiongov.governor import ActionDistance
from actiongov.moas import feasible_action_set
from enumerated_oracle import nearest_candidate

PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=100, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])


@st.composite
def scored_candidates(draw):
    """Candidates and distances drawn from a few values each, so that tied
    minima and tied leading coordinates are common."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 3))
    cands = draw(st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m),
                          min_size=n, max_size=n))
    dists = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=n, max_size=n))
    return np.array(cands, dtype=float), np.array(dists)


@PROPERTY_SETTINGS
@given(scored_candidates(), st.booleans())
def test_nearest_candidate_takes_the_smallest_tied_minimum(scored, scalars):
    cands, dists = scored
    if scalars:
        cands = cands[:, 0]  # scalar candidates are 1-vectors
    want = min(tuple(np.atleast_1d(c)) for c, d in zip(cands, dists) if d == dists.min())
    assert tuple(nearest_candidate(cands, dists)) == want


def highs_nearest_on_line(a, b, gain, shift, target):
    """Least ``|gain z + shift - target|`` over ``{z : a z <= b}`` for scalar
    ``z``, by HiGHS: minimize ``s`` over ``(z, s)`` with
    ``|gain z + shift - target| <= s``.  Returns ``(status, s)``; status 2
    is infeasible."""
    a_ub = np.vstack([np.column_stack([a, np.zeros_like(a)]), [[gain, -1.0], [-gain, -1.0]]])
    b_ub = np.concatenate([b, [target - shift, shift - target]])
    ref = linprog([0.0, 1.0], A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * 2, method="highs")
    return ref.status, ref.fun


@PROPERTY_SETTINGS
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-12.0, 12.0),
       st.sampled_from(["l1", "linf"]))
def test_admissible_set_adjustment_moves_the_least(rig, moas_bundle, f1, f2, u1, norm):
    oracle, moas = moas_bundle
    assert rig.plant.B.shape[1] == 1  # so both norms measure |u - u1|
    lo, hi = moas.proj_x.bounding_box()
    x = lo + np.array([f1, f2]) * (hi - lo)
    assume(moas.proj_x.contains(x))
    upoly = feasible_action_set(moas, rig.plant, rig.out, x)
    status, least = highs_nearest_on_line(upoly.normals[:, 0], upoly.offsets, 1.0, 0.0, u1)
    got = oracle.adjust(x, np.array([u1]), ActionDistance(norm))
    assert status in (0, 2)
    if status == 2:
        assert got is None
        return
    assert got is not None and upoly.contains(got)
    event("moved" if least > 0.0 else "passed through")
    moved = abs(float(got[0]) - u1)
    assert abs(moved - least) <= 1e-7 * max(1.0, least), (x, u1, moved, least)


# coefficients include 0 (rows that only test feasibility); anchors,
# slacks, map values and targets lie on a 1/8 grid, so the row ends
# (anchor + slack / coefficient) either meet or lie at least 1/48 apart,
# and only the gaps drawn below make an interval nearly empty
COEFS = st.sampled_from([0.0, -1.0, 2.0, -3.0, 0.25, 1.0, -0.5, 0.0])
EIGHTHS = st.integers(-40, 40).map(lambda i: i / 8.0)
# a row's slack at the anchor point: mostly met, sometimes violated
SLACKS = st.integers(-4, 40).map(lambda i: i / 8.0)
# an interval [anchor, anchor + gap]: gaps below 0 are empty, 0 a point,
# and the 1e-12 ones are empty or wide by less than the clip's tolerance
GAPS = st.sampled_from([0.5, 0.0, 1e-12, -1e-12, -1.0])


@st.composite
def line_problems(draw):
    """Rows ``a z <= b`` (possibly none, possibly one-sided) with offsets
    drawn as slacks at an anchor point, optionally with a scaled pair
    bounding a short or empty interval, and a map ``z -> gain z + shift``."""
    anchor = draw(EIGHTHS)
    n = draw(st.integers(0, 5))
    a = [draw(COEFS) for _ in range(n)]
    b = [ai * anchor + draw(SLACKS) for ai in a]
    if draw(st.booleans()):
        gap, scale = draw(GAPS), draw(st.sampled_from([1.0, 4.0, 0.5]))
        event(f"interval of width {gap:g}")
        a += [scale, -scale]
        b += [scale * (anchor + gap), -scale * anchor]
    gain = draw(st.sampled_from([0.0, 1.0, -2.0, 3.0, -0.5]))
    return np.array(a), np.array(b), gain, draw(EIGHTHS), draw(EIGHTHS)


@PROPERTY_SETTINGS
@given(line_problems())
def test_one_dimensional_nearest_point_agrees_with_highs(problem):
    a, b, gain, shift, target = problem
    poly = HPolytope(a.reshape(-1, 1), b)
    status, least = highs_nearest_on_line(a, b, gain, shift, target)
    assert status in (0, 2)
    got = {norm: nearest_affine_point(poly, [[gain]], [shift], [target], norm)
           for norm in ("l1", "linf")}
    if status == 2:
        event("empty")
        assert got == {"l1": None, "linf": None}
        return
    event("one-sided or unbounded" if np.all(a >= 0.0) or np.all(a <= 0.0) else "two-sided")
    (z, value), (z_inf, value_inf) = got["l1"], got["linf"]
    assert z.shape == (1,) and z[0] == z_inf[0] and value == value_inf  # one clip for both
    assert poly.contains(z, DEFAULT_TOL)
    assert value == abs(gain * z[0] + shift - target)
    assert abs(value - least) <= 1e-9 * max(1.0, least), (problem, value, least)
    if gain == 0.0:
        # every point of the interval is a minimizer; the one nearest 0 is returned
        event("zero map")
        assert value == abs(shift - target)
        _, smallest = highs_nearest_on_line(a, b, 1.0, 0.0, 0.0)
        assert abs(abs(z[0]) - smallest) <= 1e-9 * max(1.0, smallest)


@PROPERTY_SETTINGS
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-12.0, 12.0),
       st.sampled_from(["l1", "linf"]))
def test_admissible_set_backup_takes_the_nearest_nominal_action(rig, moas_bundle, f1, f2, u1,
                                                               norm):
    oracle, moas = moas_bundle
    n = moas.proj_x.dim
    assert oracle.gain.L.shape == (1, 1)  # one input, one reference
    lo, hi = moas.proj_x.bounding_box()
    x = lo + np.array([f1, f2]) * (hi - lo)  # the box's corners lie outside the projection
    normals = moas.set_xv.normals
    slice_a = normals[:, n]
    slice_b = moas.set_xv.offsets - normals[:, :n] @ x
    kx = float((oracle.gain.K @ x)[0])
    status, least = highs_nearest_on_line(slice_a, slice_b, float(oracle.gain.L[0, 0]), kx, u1)
    got = oracle.backup(x, np.array([u1]), ActionDistance(norm))
    assert status in (0, 2)
    if status == 2:
        event("outside the projection")
        assert got is None
        return
    assert got is not None and moas.set_xv.contains(np.concatenate([x, got]))
    gap = abs(float(oracle.gain.policy(x, got)[0]) - u1)
    event("nominal action reaches u1" if least == 0.0 else "nearest reference on the boundary")
    assert abs(gap - least) <= 1e-7 * max(1.0, least), (x, u1, gap, least)
