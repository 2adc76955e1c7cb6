"""Sampled invariance of both safe-set backends under supervision.

From any state of a backend's safe projection, a supervised run never
violates a constraint and never leaves that projection, whatever the
proposed actions and whichever disturbances occur: any point of W for the
admissible set; any point of the disturbance grid for the grid
classification, whose successors are snapped back onto the grid as the
learning environment (``make_grid_q_env``) does.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from actiongov.governor import GovernorState, govern
from actiongov.simlab import W_BOUNDS, is_violated

STEPS = 25
PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=100, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])

fractions = st.floats(0.0, 1.0)
proposals = st.lists(st.floats(-12.0, 12.0), min_size=STEPS, max_size=STEPS)


def supervise(x, proposals, disturbances, oracle, dist, step, inside):
    """Run ``govern`` on the proposals; after every step check the applied
    pair and the successor ``step(x, u, w)`` with ``inside``."""
    gs = GovernorState()
    for t, (u1, w) in enumerate(zip(proposals, disturbances)):
        outcome, gs = govern(x, [u1], gs, oracle, dist)
        assert not is_violated(x, outcome.u), (t, x, outcome)
        x = step(x, outcome.u, w)
        assert inside(x), (t, x, outcome)


@PROPERTY_SETTINGS
@given(fractions, fractions, proposals,
       st.lists(st.floats(*W_BOUNDS), min_size=STEPS, max_size=STEPS))
def test_admissible_set_backend_stays_in_its_projection(rig, moas_bundle, f1, f2, us, ws):
    oracle, moas = moas_bundle
    lo, hi = moas.proj_x.bounding_box()
    x0 = lo + np.array([f1, f2]) * (hi - lo)
    assume(moas.proj_x.contains(x0))
    supervise(x0, us, ws, oracle, rig.dist,
              lambda x, u, w: rig.plant.step(x, u, [w]), moas.proj_x.contains)


@PROPERTY_SETTINGS
@given(st.data(), proposals)
def test_grid_backend_stays_in_its_projection(rig, grid_bundle, data, us):
    oracle, dss, _, grid = grid_bundle
    pts = grid.x_points()
    safe = np.nonzero(dss.proj_mask)[0]
    x0 = pts[safe[data.draw(st.integers(0, safe.size - 1), label="start")]]
    ks = data.draw(st.lists(st.integers(0, grid.n_w - 1), min_size=STEPS, max_size=STEPS),
                   label="disturbance indices")

    def snapped_step(x, u, w):
        idx = grid.index_of(rig.plant.step(x, u, [w]))
        assert idx >= 0, "successor left the grid"
        return pts[idx]

    supervise(x0, us, grid.w_values[ks], oracle, rig.dist, snapped_step,
              lambda x: dss.proj_mask[grid.index_of(x)])
