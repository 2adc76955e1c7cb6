"""Two routes to the same safe region: admissible-set recursion on the
linear loop versus grid classification of the discretized loop.

Both routes take a few seconds at full resolution; pass --coarse for a
quicker look.

Run:  python demos/03_safe_set_comparison.py [--coarse]
"""

import sys

import numpy as np

from actiongov.simlab import (
    ScenarioConfig,
    build_grid_backend,
    build_moas_backend,
    build_rig,
)

cfg = ScenarioConfig(seed=0)
if "--coarse" in sys.argv[1:]:
    cfg.grid_dx1 = cfg.grid_dx2 = cfg.grid_dv = 1.0
    cfg.grid_dw = 0.5

rig = build_rig(cfg)
_, moas = build_moas_backend(cfg, rig)
print(f"recursion finished at layer {moas.t_star}; "
      f"{moas.set_xv.n_rows} facets over (x, v), {moas.proj_x.n_rows} after projection")

_, dss, _, grid = build_grid_backend(cfg, rig)
counts = dss.counts()
print(f"grid classification on {grid.n_pairs} pairs: "
      f"{counts['safe']} safe, {counts['minus']} unsafe, {counts['remain']} unresolved "
      f"({len(dss.sweep_counts) - 1} sweeps growing the safe set)")

pts = grid.x_points()
in_moas = moas.proj_x.contains(pts)
in_grid = dss.proj_mask
jaccard = (in_moas & in_grid).sum() / (in_moas | in_grid).sum()
print(f"projection overlap (Jaccard): {jaccard:.3f}")
print(f"seed projection: {int(dss.seed.any(axis=1).sum())} grid states; "
      f"classified-safe projection: {int(in_grid.sum())} grid states")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 5))
    ax.plot(*pts[in_grid].T, ".", color="tab:red", ms=2, label="grid-classified safe")
    ax.plot(*pts[dss.seed.any(axis=1)].T, ".", color="tab:blue", ms=2, label="seed")
    boundary = pts[in_moas & ~in_grid]
    ax.plot(*boundary.T, "x", color="k", ms=3, label="linear-route only")
    ax.set_xlabel("x1")
    ax.set_ylabel("x2")
    ax.legend(loc="upper right")
    fig.savefig("demo_safe_sets.png", dpi=120)
    print("wrote demo_safe_sets.png")
except ImportError:
    pass
