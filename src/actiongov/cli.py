"""Command-line scenario runner.

One JSON config file drives every subcommand; ``--seed`` and ``--out``
override the config in place.  All numeric output is written with
round-trip-exact formatting so identical configurations reproduce
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .discrete_safeset import MINUS, REMAIN, SAFE_PLUS
from .errors import ActionGovError
from .safe_learning import run_safe_q
from .simlab import (
    ScenarioConfig,
    build_grid_backend,
    build_moas_backend,
    build_rig,
    koopman_controller,
    learn_koopman,
    make_grid_q_env,
    make_example_qtable,
    nominal_controller,
    run_supervised,
    simulate,
    write_cost_csv,
)
from .trajectory import fmt

_CLASS_NAMES = {SAFE_PLUS: "safe", MINUS: "unsafe", REMAIN: "unresolved"}


def _write_json(path: Path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _load_config(args) -> ScenarioConfig:
    cfg = ScenarioConfig.from_json(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return cfg


def _cmd_moas(args) -> int:
    cfg = _load_config(args)
    rig = build_rig(cfg)
    _, moas = build_moas_backend(cfg, rig)
    path = Path(cfg.out_dir) / "moas.json"
    _write_json(path, moas.to_dict())
    print(f"admissible set determined at t_star={moas.t_star}; wrote {path}")
    return 0


def _cmd_discrete_safe_set(args) -> int:
    cfg = _load_config(args)
    rig = build_rig(cfg)
    _, dss, _, grid = build_grid_backend(cfg, rig)
    path = Path(cfg.out_dir) / "discrete_safe_set.csv"
    # each ",v,class" line tail and each state are formatted once; a
    # state's lines are its prefix joined with its tails
    tails = np.array([[f",{fmt(v)},{_CLASS_NAMES[c]}\n" for v in grid.v_values]
                      for c in range(len(_CLASS_NAMES))], dtype=object)
    rows = tails[dss.class_map, np.arange(grid.n_v)].tolist()
    with open(path, "w", newline="\n") as fh:
        fh.write("x1,x2,v,class\n")
        for (x1, x2), row in zip(grid.x_points(), rows):
            prefix = f"{fmt(x1)},{fmt(x2)}"
            fh.write(prefix + prefix.join(row))
    counts = dss.counts()
    print(
        f"classified {grid.n_pairs} pairs: {counts['safe']} safe, "
        f"{counts['minus']} unsafe, {counts['remain']} unresolved; wrote {path}"
    )
    return 0


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    traj = simulate(cfg)
    path = Path(cfg.out_dir) / "trajectory.csv"
    traj.write_csv(path)
    print(f"simulated {len(traj)} steps, {traj.violation_count} violations; wrote {path}")
    return 0


def _cmd_learn_q(args) -> int:
    cfg = _load_config(args)
    rig = build_rig(cfg)
    oracle, _, _, grid = build_grid_backend(cfg, rig)
    env = make_grid_q_env(cfg, rig, oracle, grid)
    qtable = make_example_qtable(cfg, grid)
    rng = np.random.default_rng(cfg.seed)
    qtable, traj = run_safe_q(env, qtable, cfg.q_tmax, cfg.q_batches, rng)
    out = Path(cfg.out_dir)
    traj.write_csv(out / "qlearn_trajectory.csv")
    _write_json(out / "qtable.json", qtable.to_dict())
    print(
        f"ran {len(traj)} learning steps, {traj.violation_count} violations; "
        f"wrote {out / 'qlearn_trajectory.csv'} and {out / 'qtable.json'}"
    )
    return 0


def _cmd_learn_koopman(args) -> int:
    cfg = _load_config(args)
    rig = build_rig(cfg)
    oracle, moas = build_moas_backend(cfg, rig)
    km, traj = learn_koopman(cfg, rig, oracle, moas)
    out = Path(cfg.out_dir)
    traj.write_csv(out / "koopman_trajectory.csv")
    _write_json(out / "koopman_model.json", km.to_dict())
    write_cost_csv(out / "koopman_cost.csv", traj)
    print(
        f"ran {len(traj)} learning steps, {traj.violation_count} violations; "
        f"wrote model, trajectory and cost files under {out}"
    )
    return 0


def _cmd_reproduce_paper(args) -> int:
    cfg = _load_config(args)
    out = Path(cfg.out_dir)
    rig = build_rig(cfg)
    oracle, moas = build_moas_backend(cfg, rig)

    nominal = nominal_controller(rig)
    traj_plain = run_supervised(rig, nominal, None, cfg.initial_state, cfg.steps, rig.dist)
    traj_plain.write_csv(out / "fig2_nominal_ungoverned.csv")
    traj_gov = run_supervised(rig, nominal, oracle, cfg.initial_state, cfg.steps, rig.dist)
    traj_gov.write_csv(out / "fig2_nominal_governed.csv")

    km, traj_learn = learn_koopman(cfg, rig, oracle, moas)
    write_cost_csv(out / "fig4_cost.csv", traj_learn)

    traj_koop = run_supervised(
        rig, koopman_controller(cfg, km), oracle, cfg.initial_state, cfg.steps, rig.dist
    )
    traj_koop.write_csv(out / "fig2_koopman_governed.csv")

    _, dss, _, grid = build_grid_backend(cfg, rig)
    pts = grid.x_points()
    in_moas = moas.proj_x.contains(pts)
    grid_proj = dss.proj_mask
    seed_proj = dss.seed.any(axis=1)
    inter = int((in_moas & grid_proj).sum())
    union = int((in_moas | grid_proj).sum())
    _write_json(
        out / "fig3_sets.json",
        {
            "moas": moas.to_dict(),
            "grid_safe_projection_points": pts[grid_proj].tolist(),
            "seed_projection_points": pts[seed_proj].tolist(),
            "jaccard_vs_moas_projection": inter / union,
        },
    )
    print(
        "wrote fig2_nominal_ungoverned.csv, fig2_nominal_governed.csv, "
        f"fig2_koopman_governed.csv, fig3_sets.json, fig4_cost.csv under {out}"
    )
    return 0


_COMMANDS = {
    "moas": _cmd_moas,
    "discrete-safe-set": _cmd_discrete_safe_set,
    "simulate": _cmd_simulate,
    "learn-q": _cmd_learn_q,
    "learn-koopman": _cmd_learn_koopman,
    "reproduce-paper": _cmd_reproduce_paper,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actiongov",
        description="Constrained-control scenarios with action supervision",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    except ActionGovError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
