"""Tour of the convex-set layer: supports, erosion, projection, reduction.

Run:  python demos/01_polytope_algebra.py
"""

import numpy as np

from actiongov import (
    HPolytope,
    pontryagin_diff,
    project_out,
    remove_redundancy,
    support,
)

# A box of positions/velocities and a disturbance interval.
box = HPolytope.from_bounds([-2.0, -1.0], [2.0, 1.0])
noise = HPolytope.from_bounds([-0.5], [0.5])

print("support of the box in direction (1, 1):", support(box, [1.0, 1.0]))

# Erode the box by the one-step image of the disturbance: every point of
# the result can absorb any admissible noise and stay inside the box.
gain_into_state = np.array([[0.0], [1.0]])  # noise enters the second axis
core = pontryagin_diff(box, gain_into_state, noise)
print("eroded bounds:", core.bounding_box())
# core lies inside box: each row of box bounds core's support in its direction
assert all(support(core, a) <= b + 1e-9 for a, b in zip(box.normals, box.offsets))

# Lift to (x1, x2, v), cut with a coupling constraint, project v back out.
lifted = HPolytope(
    np.array(
        [
            [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
            [0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
            [1.0, 1.0, 1.0],  # x1 + x2 + v <= 1.5
        ]
    ),
    np.array([2.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.5]),
)
shadow = project_out(lifted, [2])
print("projected rows:")
for a, b in zip(shadow.normals, shadow.offsets):
    print("  ", np.round(a, 3), "<=", round(b, 3))

# Stack both descriptions and reduce to a minimal representation.
stacked = HPolytope(np.vstack([shadow.normals, box.normals]),
                    np.concatenate([shadow.offsets, box.offsets]))
minimal = remove_redundancy(stacked)
print(f"redundancy removal: {stacked.n_rows} rows -> {minimal.n_rows} rows")
