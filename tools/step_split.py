"""Print what each part of one supervised learning step costs, in µs.

Both learners of the config are first run for ``--states`` steps, as
``learn-q`` and ``learn-koopman`` run them: the grid Q-learning loop from
the config's start with its table, and the Koopman loop with its
admissible-set backend.  Each part of a step is then called again, in this
process, on the inputs every recorded step had, ``--repeat`` times per
step; a part's figure is the median over the steps of its best call.

- grid Q: ``epsilon_greedy``, ``govern``, the env step, the cost, the
  violation check, the trajectory append, ``modified_reward`` and
  ``q_target``;
- Koopman: the regulator solve (``koopman_control``), ``rls_update``,
  ``govern``, the env step, the lift (``km.observables``) and the
  trajectory append.

A supervised step is about the sum of its parts; the loop's own glue is
not timed.  The parts read the learned table and the learned model, so
the split is that of a run's late steps.  Comparing two checkouts is one
diff of a run in each:

    diff <(python A/tools/step_split.py --config configs/double_integrator.json) \\
         <(python B/tools/step_split.py --config configs/double_integrator.json)

The shipped config takes about a second on a 2-core machine.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"


def best_us(part, repeat: int) -> float:
    """The least time of ``repeat`` calls of ``part()``, in µs."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        part()
        best = min(best, time.perf_counter() - t0)
    return best * 1e6


def split(parts: dict, steps, repeat: int) -> dict:
    """``{name: median µs}`` of ``parts``, each ``name -> f(step)``, over ``steps``."""
    return {name: float(np.median([best_us(lambda: f(s), repeat) for s in steps]))
            for name, f in parts.items()}


def fields(r) -> tuple:
    """The arguments of ``Trajectory.append`` that recorded ``r``."""
    return r.t, r.x, r.u1, r.u, r.branch, r.v_hat, r.w, r.cost, r.violated


def grid_q_parts(cfg, rig, n_steps: int, repeat: int) -> dict:
    from actiongov import simlab
    from actiongov.governor import GovernorState, govern
    from actiongov.safe_learning import epsilon_greedy, modified_reward, q_target, run_safe_q
    from actiongov.trajectory import Trajectory

    oracle, _, _, grid = simlab.build_grid_backend(cfg, rig)
    env = simlab.make_grid_q_env(cfg, rig, oracle, grid)
    rng = np.random.default_rng(cfg.seed)
    q, traj = run_safe_q(env, simlab.make_example_qtable(cfg, grid), cfg.q_tmax, n_steps, rng)
    recs = traj.steps
    index = {tuple(p): i for i, p in enumerate(grid.x_points().tolist())}
    nxt = [r.x for r in recs[1:]] + [env.step(recs[-1].x, recs[-1].u)[0]]
    steps = [(r, index[tuple(r.x.tolist())], int(np.flatnonzero(env.actions == r.u1[0])[0]),
              index[tuple(x_next.tolist())], -env.cost(r.x, r.u), GovernorState(r.v_hat),
              fields(r)) for r, x_next in zip(recs, nxt)]
    sink = Trajectory()
    return split({
        "epsilon_greedy": lambda s: epsilon_greedy(q, s[1], rng),
        "govern": lambda s: govern(s[0].x, s[0].u1, s[5], env.oracle, env.dist),
        "env_step": lambda s: env.step(s[0].x, s[0].u),
        "cost": lambda s: env.cost(s[0].x, s[0].u),
        "violated": lambda s: env.violated(s[0].x, s[0].u),
        "append": lambda s: sink.append(*s[6]),
        "reward": lambda s: modified_reward(s[4], s[0].u1, s[0].u, q.penalty_m, env.dist),
        "target": lambda s: q_target(q, s[1], s[2], s[4], s[3]),
    }, steps, repeat)


def koopman_parts(cfg, rig, n_steps: int, repeat: int) -> dict:
    from actiongov import simlab
    from actiongov.governor import GovernorState, govern
    from actiongov.safe_learning import koopman_control, rls_update, run_safe_koopman
    from actiongov.trajectory import Trajectory

    oracle, moas = simlab.build_moas_backend(cfg, rig)
    env = simlab.make_koopman_env(cfg, rig, oracle, moas)
    km0 = simlab.example_initial_koopman(cfg.koopman_lambda, cfg.koopman_delta)
    km, traj = run_safe_koopman(env, km0, n_steps, cfg.reset_every,
                                np.random.default_rng(cfg.seed))
    lift = km.observables
    steps = [(r, lift(r.x), lift(env.step(r.x, r.u)[0]), GovernorState(r.v_hat), fields(r))
             for r in traj.steps]
    sink = Trajectory()
    return split({
        "regulator_solve": lambda s: koopman_control(km, s[1], env.q_z, env.r_u),
        "rls_update": lambda s: rls_update(km, s[1], s[0].u1, s[2]),
        "govern": lambda s: govern(s[0].x, s[0].u1, s[3], env.oracle, env.dist),
        "env_step": lambda s: env.step(s[0].x, s[0].u),
        "lift": lambda s: lift(s[0].x),
        "append": lambda s: sink.append(*s[4]),
    }, steps, repeat)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, type=Path, help="path to the JSON config")
    parser.add_argument("--states", type=int, default=200,
                        help="learning steps run, and then timed, per learner; Q-learning "
                             "runs this many batches of q_tmax steps (default 200)")
    parser.add_argument("--repeat", type=int, default=7,
                        help="calls of each part per step; the best counts (default 7)")
    args = parser.parse_args(argv)
    if args.states < 1 or args.repeat < 1:
        parser.error("--states and --repeat must be positive")
    sys.path.insert(0, str(SRC))
    from actiongov import simlab

    cfg = simlab.ScenarioConfig.from_json(args.config)
    rig = simlab.build_rig(cfg)
    for learner, measure in (("grid-q", grid_q_parts), ("koopman", koopman_parts)):
        parts = measure(cfg, rig, args.states, args.repeat)
        for name, us in parts.items():
            print(f"{learner:<8} {name:<16} {us:>9.2f} us")
        print(f"{learner:<8} {'sum':<16} {sum(parts.values()):>9.2f} us", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
