"""Tabular Q-learning through the supervisor on the grid abstraction.

Proposed actions are epsilon-greedy; unsafe proposals are replaced by the
nearest safe grid action and the stored target carries the adjustment
penalty, so the table learns to avoid them while the run stays admissible.

Run:  python demos/05_safe_q_learning.py [batches]   (default 5000)
"""

import sys

import numpy as np

from actiongov.safe_learning import run_safe_q
from actiongov.simlab import (
    ScenarioConfig,
    build_grid_backend,
    build_rig,
    make_example_qtable,
    make_grid_q_env,
)

batches = int(sys.argv[1]) if len(sys.argv) > 1 else 5000
cfg = ScenarioConfig(seed=0, q_batches=batches)
rig = build_rig(cfg)
oracle, dss, tt, grid = build_grid_backend(cfg, rig)
env = make_grid_q_env(cfg, rig, oracle, grid)
table = make_example_qtable(cfg, grid)

table, traj = run_safe_q(env, table, cfg.q_tmax, cfg.q_batches,
                         np.random.default_rng(cfg.seed))
adjusted = sum(abs(s.u[0] - s.u1[0]) > 1e-12 for s in traj.steps)
print(f"{len(traj)} learning steps, {traj.violation_count} violations, "
      f"{adjusted} proposals adjusted by the supervisor")
visited = int((table.values != 0).any(axis=1).sum())
print(f"table covers {visited} of {table.values.shape[0]} grid states")
# disjoint windows, so a short run cannot compare a window with itself
window = min(500, len(traj) // 2)
print(f"mean cost, first {window} steps: {traj.costs[:window].mean():.2f}; "
      f"last {window} steps: {traj.costs[-window:].mean():.2f}")
