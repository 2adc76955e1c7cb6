"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Criteria 2, 3 and 9 assert behavior at the start state (14, 6).  That
state lies outside the robust admissible region of this system: the
position two steps ahead equals x1 + 2 x2 + u + w, so with x1 + 2 x2 = 26,
u >= -6 and a worst-case (indeed, the actual) disturbance the bound
x1 <= 20 is necessarily crossed, whatever the supervisor does.  The
corresponding asserts are kept faithful to their stated values and fail;
the same checks pass from governable starts (see test_simlab).
"""

import json

import numpy as np
import pytest

from actiongov.control_linalg import dare_solve
from actiongov.convexset import rejection_sample
from actiongov.cli import main as cli_main
from actiongov.errors import ActionGovError
from actiongov.moas import feasible_action_set
from actiongov.safe_learning import (
    QTable,
    KoopmanModel,
    koopman_control,
    rls_update,
    run_safe_q,
)
from actiongov.simlab import (
    ScenarioConfig,
    average_cost,
    koopman_controller,
    make_grid_q_env,
    make_example_qtable,
    nominal_controller,
    run_supervised,
    simulate,
)
from chain_mdp import chain_env, value_iteration
from references import batch_fit, closed_loop_step, identity_observables, plant_step


def report(num, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


def test_criterion_1_lqr_gain_recovery():
    _, K = dare_solve([[1.0, 1.0], [0.0, 1.0]], [[0.0], [1.0]], np.diag([1.0, 1.0]), [[10.0]])
    err = float(np.max(np.abs(K - np.array([[-0.2054, -0.7835]]))))
    ok = err < 5e-4
    assert report(1, ok, f"gain recovery, max entry error {err:.2e}"), err


def test_criterion_2_moas_validity(rig, moas_bundle):
    _, moas = moas_bundle
    finite = 0 < moas.t_star <= 500
    rng = np.random.default_rng(100)
    pts = rejection_sample(moas.set_xv, rng, 1000, margin=1e-9)
    failures = 0
    for z in pts:
        x, v = z[:2], z[2:]
        for w in (-1.0, 1.0):
            succ = np.concatenate([closed_loop_step(rig.cl, x, v, [w]), v])
            if not moas.set_xv.contains(succ, tol=1e-7):
                failures += 1
    start_inside = moas.proj_x.contains([14.0, 6.0])
    ok = finite and failures == 0 and start_inside
    report(
        2,
        ok,
        f"t_star={moas.t_star}, invariance failures={failures}/2000, "
        f"(14,6) in projection={start_inside}",
    )
    assert finite and failures == 0
    assert start_inside, (
        "(14,6) is outside the robust admissible projection: x1 + 2 x2 = 26 "
        "exceeds the reachable-safety bound 25, so no admissible action keeps "
        "x1 <= 20 two steps ahead"
    )


def test_criterion_3_all_time_safety_at_scale():
    plain = simulate(ScenarioConfig(seed=0, steps=500, initial_state=(14.0, 6.0),
                                    governor="none"))
    ungoverned_violates = plain.violation_count >= 1
    governed_flags = None
    error = None
    try:
        governed = simulate(ScenarioConfig(seed=0, steps=500, initial_state=(14.0, 6.0),
                                           governor="moas"))
        governed_flags = governed.violation_count
    except ActionGovError as exc:
        error = exc
    ok = ungoverned_violates and governed_flags == 0
    report(
        3,
        ok,
        f"ungoverned violations>=1: {ungoverned_violates}; governed flags: "
        f"{governed_flags if error is None else f'run infeasible ({error})'}",
    )
    assert ungoverned_violates
    assert error is None and governed_flags == 0, (
        "no supervisor can produce a violation-free run from (14,6): with "
        "u(0) >= -6 and w(0) = sin(140) > 0.98 the position passes 20 at t=2"
    )


def test_criterion_4_recursive_feasibility(rig, moas_bundle):
    oracle, moas = moas_bundle
    rng = np.random.default_rng(101)
    lo, hi = moas.proj_x.bounding_box()
    lo, hi = lo - 1.0, hi + 1.0
    counterexamples = 0
    tested = 0
    while tested < 1000:
        x = rng.uniform(lo, hi)
        if feasible_action_set(moas, rig.plant, rig.out, x).is_empty:
            continue
        tested += 1
        u1 = rng.uniform(-8.0, 8.0, size=1)
        u = oracle.adjust(x, u1, rig.dist)
        for w in (-1.0, 1.0):
            succ = plant_step(rig.plant, x, u, [w])
            if feasible_action_set(moas, rig.plant, rig.out, succ).is_empty:
                counterexamples += 1
    ok = counterexamples == 0
    assert report(4, ok, f"recursive feasibility, {counterexamples} counterexamples "
                         f"in 1000 states x 2 vertices")


def test_criterion_5_grid_classification_soundness(grid_bundle):
    _, dss, tt, grid = grid_bundle
    total = grid.n_pairs
    partition_ok = all(s + m + r == total for s, m, r in dss.sweep_counts)
    monotone_ok = all(
        a[0] <= b[0] and a[1] <= b[1] and a[2] >= b[2]
        for a, b in zip(dss.sweep_counts, dss.sweep_counts[1:])
    )
    rng = np.random.default_rng(102)
    safe_pairs = np.argwhere(dss.pi)
    rollout_failures = 0
    for _ in range(1000):
        i, j = safe_pairs[rng.integers(len(safe_pairs))]
        steps = 0
        while not dss.seed[i, j]:
            succ = tt.table[i, j, rng.integers(grid.n_w)]
            if succ < 0 or dss.class_map[succ, j] != 1 or steps > grid.n_xpairs:
                rollout_failures += 1
                break
            i = succ
            steps += 1
    ok = partition_ok and monotone_ok and rollout_failures == 0
    assert report(
        5,
        ok,
        f"partition={partition_ok}, monotone={monotone_ok}, "
        f"rollout failures={rollout_failures}/1000, sweeps={len(dss.sweep_counts) - 1}",
    )


def test_criterion_6_projection_agreement(grid_bundle, moas_bundle):
    _, dss, _, grid = grid_bundle
    _, moas = moas_bundle
    pts = grid.x_points()
    in_moas = moas.proj_x.contains(pts)
    in_grid = dss.proj_mask
    jaccard = float((in_moas & in_grid).sum() / (in_moas | in_grid).sum())
    ok = jaccard >= 0.9
    assert report(6, ok, f"projection Jaccard overlap {jaccard:.4f}")


def test_criterion_7_recursive_least_squares():
    rng = np.random.default_rng(103)
    A0 = np.array([[0.85, 0.1], [-0.3, 0.6]])
    B0 = np.array([[0.2], [1.0]])
    km = KoopmanModel.initial(np.zeros((2, 2)), np.zeros((2, 1)),
                              identity_observables(2), 1.0, 1e8)
    zs, us, zps = [], [], []
    for _ in range(200):
        z = rng.normal(size=2)
        u = rng.normal(size=1)
        zp = rng.normal(size=2)  # arbitrary targets: pure regression check
        km = rls_update(km, z, u, zp)
        zs.append(z)
        us.append(u)
        zps.append(zp)
    A_b, B_b = batch_fit(np.array(zps).T, np.array(zs).T, np.array(us).T)
    rls_err = max(float(np.max(np.abs(km.A - A_b))), float(np.max(np.abs(km.B - B_b))))

    km2 = KoopmanModel.initial(np.zeros((2, 2)), np.zeros((2, 1)),
                               identity_observables(2), 1.0, 1e8)
    exact_z, exact_u, exact_zp = [], [], []
    for _ in range(80):
        z = rng.normal(size=2)
        u = rng.normal(size=1)
        zp = A0 @ z + B0 @ u
        km2 = rls_update(km2, z, u, zp)
        exact_z.append(z)
        exact_u.append(u)
        exact_zp.append(zp)
    A_e, B_e = batch_fit(np.array(exact_zp).T, np.array(exact_z).T, np.array(exact_u).T)
    exact_err = max(float(np.max(np.abs(A_e - A0))), float(np.max(np.abs(B_e - B0))))
    ok = rls_err < 1e-6 and exact_err < 1e-8
    assert report(7, ok, f"recursive-vs-batch {rls_err:.2e}, exact recovery {exact_err:.2e}")


def test_criterion_8_learning_cost_trend(koopman_learning):
    _, traj = koopman_learning
    cbar = average_cost(traj)
    ratio = float(cbar[-1] / cbar[200])
    violations = traj.violation_count
    ok = ratio < 0.8 and violations == 0
    assert report(
        8,
        ok,
        f"average cost {cbar[200]:.2f} at t=200 -> {cbar[-1]:.2f} final "
        f"(ratio {ratio:.3f}), violations={violations}",
    )


def test_criterion_9_learned_control_neighborhood(base_cfg, rig, moas_bundle,
                                                  koopman_learning):
    oracle, _ = moas_bundle
    km, _ = koopman_learning
    start = (14.0, 6.0)
    stats = {}
    error = None
    try:
        nominal = run_supervised(rig, nominal_controller(rig), oracle, start, 500, rig.dist)
        learned = run_supervised(rig, koopman_controller(base_cfg, km), oracle,
                                 start, 500, rig.dist)
        stats["nominal"] = float(np.linalg.norm(nominal.states[-50:], axis=1).max())
        stats["learned"] = float(np.linalg.norm(learned.states[-50:], axis=1).max())
    except ActionGovError as exc:
        error = exc
    ok = error is None and stats.get("learned", np.inf) < stats.get("nominal", 0.0)
    report(
        9,
        ok,
        f"tail neighborhood sizes {stats}" if error is None
        else f"runs from (14,6) infeasible ({error})",
    )
    assert error is None, (
        "supervised runs cannot start from (14,6); the equivalent comparison "
        "from the governable start (12,6) is covered in test_simlab and shows "
        "the learned controller holding a smaller neighborhood"
    )
    assert stats["learned"] < stats["nominal"]


def test_criterion_10_safe_q_learning(base_cfg, rig, grid_bundle):
    env, transitions, rewards = chain_env()
    q_star = value_iteration(transitions, rewards, 0.9)
    q0 = QTable.zeros(3, 2, gamma=0.9, alpha=1.0, epsilon=0.2)
    q1, _ = run_safe_q(env, q0, 1, 10000, np.random.default_rng(104))
    chain_err = float(np.max(np.abs(q1.values - q_star)))

    oracle, _, _, grid = grid_bundle
    genv = make_grid_q_env(base_cfg, rig, oracle, grid)
    qt = make_example_qtable(base_cfg, grid)
    _, traj = run_safe_q(genv, qt, base_cfg.q_tmax, base_cfg.q_batches,
                         np.random.default_rng(base_cfg.seed))
    violations = traj.violation_count
    ok = chain_err < 1e-2 and violations == 0
    assert report(
        10,
        ok,
        f"chain error {chain_err:.2e}; governed grid run of {len(traj)} steps, "
        f"violations={violations}",
    )


def test_criterion_11_cli_determinism(tmp_path):
    base = {
        "seed": 0,
        "steps": 80,
        "learn_steps": 150,
        "q_batches": 80,
        "grid_dx1": 2.5,
        "grid_dx2": 2.5,
        "grid_dv": 2.5,
        "grid_dw": 1.0,
        "action_du": 2.0,
        "out_dir": str(tmp_path / "out"),
    }
    scenarios = {
        "moas": {},
        "simulate": {"governor": "moas"},
        "discrete-safe-set": {},
        "learn-q": {},
        "learn-koopman": {},
        "reproduce-paper": {"steps": 50},
    }
    identical = True
    for command, overrides in scenarios.items():
        cfg = dict(base, **overrides)
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        outputs = []
        for _ in range(2):
            assert cli_main([command, "--config", str(cfg_path)]) == 0
            out_dir = tmp_path / "out"
            snapshot = {
                p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            }
            outputs.append(snapshot)
            for p in out_dir.iterdir():
                p.unlink()
        if outputs[0] != outputs[1]:
            identical = False
    assert report(11, identical, "byte-identical reruns across all subcommands")
