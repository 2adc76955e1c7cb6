"""Print the evidence for the Koopman learning claim, one line per seed.

For each ``cfg.seed`` it runs the configured supervised learning run
(``simlab.learn_koopman``) and prints:

- ``crit8``: acceptance criterion 8's statistic ``cbar[-1] / cbar[200]``,
  where ``cbar`` is the running mean of the step cost (the criterion asks
  for a ratio below 0.8), and ``viol``, the run's violation count;
- ``moved``: the share of the run's steps where the supervisor moved the
  action (branch ``adjusted`` with ``u != u1``);
- ``paired``: the mean step cost of the frozen learned regulator over
  that of the frozen initial one.  Each runs ``--frozen-steps`` supervised
  steps with no model update, from the configured start, with resets
  drawn from an rng seeded with ``cfg.seed``.  Both see the same reset
  sequence (common random numbers), so the ratio compares the regulators,
  not the reset draws.

It runs the ``actiongov`` of its own tree, so comparing two checkouts is
one diff of a run in each:

    diff <(python A/tools/learning_margin.py --config configs/double_integrator.json) \\
         <(python B/tools/learning_margin.py --config configs/double_integrator.json)

The shipped config with seeds 0-7 takes about two and a half minutes on
a 2-core machine.
"""

from __future__ import annotations

import argparse
import dataclasses
import statistics
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
CRITERION_8_START = 200  # criterion 8 divides by the running mean at this step


def frozen_mean_cost(env, km, steps: int, reset_every, seed: int) -> float:
    """Mean step cost of ``steps`` supervised steps of the regulator of the
    fixed model ``km``, with resets drawn from an rng seeded with ``seed``."""
    from actiongov.governor import GovernorState
    from actiongov.safe_learning import koopman_control, supervised_step
    from actiongov.trajectory import Trajectory

    rng = np.random.default_rng(seed)
    gs, traj = GovernorState(), Trajectory()
    x = np.asarray(env.initial_state, dtype=float)
    for t in range(steps):
        if t > 0 and t % reset_every == 0:
            x = np.asarray(env.sample_reset(rng), dtype=float)
        u1 = np.atleast_1d(koopman_control(km, km.observables(x), env.q_z, env.r_u))
        _, x, _ = supervised_step(env, t, x, u1, gs, traj)
    return float(traj.costs.mean())


def learning_margin(config, seeds, frozen_steps: int) -> list:
    """One ``(seed, crit8, violations, moved, paired)`` row per seed."""
    sys.path.insert(0, str(SRC))
    from actiongov import simlab

    base = simlab.ScenarioConfig.from_json(config)
    if base.learn_steps <= CRITERION_8_START:
        raise SystemExit(f"learn_steps must exceed {CRITERION_8_START} for criterion 8")
    rig = simlab.build_rig(base)
    oracle, moas = simlab.build_moas_backend(base, rig)
    rows = []
    for seed in seeds:
        cfg = dataclasses.replace(base, seed=seed)
        km, traj = simlab.learn_koopman(cfg, rig, oracle, moas)
        cbar = simlab.average_cost(traj)
        moved = sum(s.branch == "adjusted" and not np.array_equal(s.u, s.u1)
                    for s in traj.steps) / len(traj)
        env = simlab.make_koopman_env(cfg, rig, oracle, moas)
        initial = simlab.example_initial_koopman(cfg.koopman_lambda, cfg.koopman_delta)
        learned_cost, initial_cost = (frozen_mean_cost(env, model, frozen_steps,
                                                       cfg.reset_every, seed)
                                      for model in (km, initial))
        rows.append((seed, float(cbar[-1] / cbar[CRITERION_8_START]), traj.violation_count,
                     moved, learned_cost / initial_cost))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(8)),
                        help="values of cfg.seed (default 0-7)")
    parser.add_argument("--frozen-steps", type=int, default=4000,
                        help="supervised steps of each frozen regulator")
    args = parser.parse_args(argv)
    if args.frozen_steps < 1:
        parser.error("--frozen-steps must be positive")
    rows = learning_margin(args.config, args.seeds, args.frozen_steps)
    print("seed  crit8   viol  moved   paired")
    for seed, crit8, violations, moved, paired in rows:
        print(f"{seed:<4}  {crit8:.4f}  {violations:<4}  {moved:.4f}  {paired:.4f}")
    passed = sum(crit8 < 0.8 and violations == 0 for _, crit8, violations, _, _ in rows)
    paired = [row[4] for row in rows]
    print(f"criterion 8 holds on {passed} of {len(rows)} seeds; "
          f"paired median {statistics.median(paired):.4f}, "
          f"range {min(paired):.4f}-{max(paired):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
