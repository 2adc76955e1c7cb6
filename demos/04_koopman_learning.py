"""Safe online learning: identify a lifted linear model of the supervised
system while the supervisor keeps every step admissible, then compare the
learned regulator with the nominal one.

Run:  python demos/04_koopman_learning.py [steps]   (default 20000)
"""

import sys

import numpy as np

from actiongov.simlab import (
    ScenarioConfig,
    average_cost,
    build_moas_backend,
    build_rig,
    koopman_controller,
    learn_koopman,
    nominal_controller,
    run_supervised,
    write_cost_csv,
)

steps = int(sys.argv[1]) if len(sys.argv) > 1 else 20000
cfg = ScenarioConfig(seed=0, learn_steps=steps)
rig = build_rig(cfg)
oracle, moas = build_moas_backend(cfg, rig)

km, traj = learn_koopman(cfg, rig, oracle, moas)
cbar = average_cost(traj)
print(f"learned for {len(traj)} steps with {traj.violation_count} violations")
print(f"average cost: {cbar[min(200, len(cbar) - 1)]:.2f} early -> {cbar[-1]:.2f} final")
print("identified lifted dynamics (rounded):")
print(np.round(km.A, 3))
print("input column:", np.round(km.B.ravel(), 3))

start = (12.0, 6.0)
nominal = run_supervised(rig, nominal_controller(rig), oracle, start, 500, rig.dist)
learned = run_supervised(rig, koopman_controller(cfg, km), oracle, start, 500, rig.dist)
print(f"tail neighborhood from {start}: nominal "
      f"{np.linalg.norm(nominal.states[-50:], axis=1).max():.2f}, learned "
      f"{np.linalg.norm(learned.states[-50:], axis=1).max():.2f}")

write_cost_csv("demo_learning_cost.csv", traj)
print("wrote demo_learning_cost.csv")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 2, figsize=(11, 4))
    axes[0].plot(cbar)
    axes[0].set_xlabel("t")
    axes[0].set_ylabel("running average cost")
    axes[1].plot(nominal.states[:, 0], nominal.states[:, 1], "r-", lw=1, label="nominal")
    axes[1].plot(learned.states[:, 0], learned.states[:, 1], "g-", lw=1, label="learned")
    axes[1].set_xlabel("x1")
    axes[1].set_ylabel("x2")
    axes[1].legend()
    fig.savefig("demo_koopman_learning.png", dpi=120)
    print("wrote demo_koopman_learning.png")
except ImportError:
    pass
