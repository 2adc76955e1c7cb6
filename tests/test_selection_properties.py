"""Property tests of the supervisor's two selections.

``nearest_candidate`` breaks exact distance ties towards the
lexicographically smallest candidate; the admissible-set oracle's
``adjust`` moves a proposal by the least distance that satisfies the
one-step rule, as a HiGHS solve of the same minimal-adjustment LP finds it.
"""

import numpy as np
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from actiongov.governor import ActionDistance, nearest_candidate
from actiongov.moas import feasible_action_set

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


def highs_least_move(upoly, u1):
    """Least ``|u - u1|`` over the one-input action polytope ``upoly``, by
    HiGHS: minimize ``t`` over ``(u, t)`` with ``A u <= b`` and
    ``|u - u1| <= t``.  Returns ``(status, t)``; status 2 is infeasible."""
    a = upoly.normals[:, 0]
    a_ub = np.vstack([np.column_stack([a, np.zeros_like(a)]), [[1.0, -1.0], [-1.0, -1.0]]])
    b_ub = np.concatenate([upoly.offsets, [u1, -u1]])
    ref = linprog([0.0, 1.0], A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * 2, method="highs")
    return ref.status, ref.fun


@PROPERTY_SETTINGS
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-12.0, 12.0),
       st.sampled_from(["l1", "linf"]))
def test_admissible_set_adjustment_moves_the_least(rig, moas_bundle, f1, f2, u1, norm):
    oracle, moas = moas_bundle
    assert rig.plant.n_inputs == 1  # so both norms measure |u - u1|
    lo, hi = moas.proj_x.bounding_box()
    x = lo + np.array([f1, f2]) * (hi - lo)
    assume(moas.proj_x.contains(x))
    upoly = feasible_action_set(moas, rig.plant, rig.out, x)
    status, least = highs_least_move(upoly, u1)
    got = oracle.adjust(x, np.array([u1]), ActionDistance(norm))
    assert status in (0, 2)
    if status == 2:
        assert got is None
        return
    assert got is not None and upoly.contains(got)
    event("moved" if least > 0.0 else "passed through")
    moved = abs(float(got[0]) - u1)
    assert abs(moved - least) <= 1e-7 * max(1.0, least), (x, u1, moved, least)
