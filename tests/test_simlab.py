import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from actiongov.control_linalg import dare_solve
from actiongov.errors import EmptySetError
from actiongov.governor import GovernorState, govern
from actiongov.discrete_safeset import DiscreteGridOracle, GridSpec
from actiongov.safe_learning import koopman_control, run_safe_koopman, run_safe_q
from actiongov.simlab import (
    ScenarioConfig,
    U_BOUNDS,
    average_cost,
    build_rig,
    disturbance,
    example_initial_koopman,
    example_observables,
    example_system,
    is_violated,
    koopman_model_from_dict,
    make_example_qtable,
    make_grid_q_env,
    make_koopman_env,
    nominal_controller,
    run_supervised,
    simulate,
    step_cost,
)
from actiongov.trajectory import CSV_HEADER


class TestExampleSystem:
    def test_gain_matches_infinite_horizon_design(self):
        plant, _, gain = example_system()
        _, K = dare_solve(plant.A, plant.B, np.diag([1.0, 1.0]), [[10.0]])
        assert np.all(np.abs(gain.K - K) < 5e-4)

    def test_reference_feedthrough(self):
        _, _, gain = example_system()
        assert gain.L[0, 0] == pytest.approx(-float(gain.K[0, 0]))

    def test_disturbance_zero_at_origin(self):
        assert disturbance([0.0, 5.0]) == 0.0

    def test_disturbance_bounded(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(-25, 25, size=(10000, 2))
        ws = np.array([disturbance(x) for x in xs])
        assert np.all(np.abs(ws) <= 1.0)

    def test_matrices(self):
        plant, out, gain = example_system()
        assert np.array_equal(plant.A, [[1.0, 1.0], [0.0, 1.0]])
        assert np.array_equal(plant.B, [[0.0], [1.0]])
        assert np.array_equal(plant.E, [[0.0], [1.0]])
        assert np.array_equal(gain.K, [[-0.2054, -0.7835]])
        # constraint box: x1 in [-20, 20], x2 in [-4, 10], u in [-6, 6]
        lo, hi = out.constraint_set.bounding_box()
        assert np.allclose(lo, [-20.0, -4.0, -6.0])
        assert np.allclose(hi, [20.0, 10.0, 6.0])


class TestSimulate:
    def test_equilibrium_at_origin(self):
        cfg = ScenarioConfig(seed=0, steps=50, initial_state=(0.0, 0.0),
                             governor="none", controller="nominal")
        traj = simulate(cfg)
        assert np.allclose(traj.states, 0.0)
        assert traj.violation_count == 0

    def test_governed_run_is_safe_where_ungoverned_violates(self, base_cfg):
        governed = simulate(ScenarioConfig(seed=0, steps=500, governor="moas"))
        assert governed.violation_count == 0
        plain = simulate(ScenarioConfig(seed=0, steps=500, governor="none"))
        assert plain.violation_count >= 1

    def test_cost_column_recomputable(self):
        cfg = ScenarioConfig(seed=0, steps=40, governor="none")
        traj = simulate(cfg)
        for s in traj.steps:
            assert s.cost == pytest.approx(float(s.x @ s.x + 10.0 * s.u[0] ** 2), abs=1e-12)

    def test_deterministic_csv(self):
        cfg = ScenarioConfig(seed=3, steps=60, governor="none")
        a = simulate(cfg).to_csv()
        b = simulate(cfg).to_csv()
        assert a == b
        assert a.splitlines()[0] == CSV_HEADER

    def test_governor_error_carries_step_index(self, moas_bundle):
        cfg = ScenarioConfig(seed=0, steps=10, initial_state=(14.0, 6.0), governor="moas")
        with pytest.raises(Exception, match="step 0"):
            simulate(cfg)

    def test_foreign_oracle_error_propagates_unchanged(self, rig):
        class Oops(Exception):
            def __init__(self, code, detail):
                super().__init__(code, detail)
                self.code = code

        class Broken:
            def adjust(self, x, u1, dist):
                raise Oops(7, "detail")

        with pytest.raises(Oops) as info:
            run_supervised(rig, nominal_controller(rig), Broken(), (12.0, 6.0), 5, rig.dist)
        assert info.value.code == 7
        assert info.value.args == (7, "detail")
        assert info.value.__cause__ is None

    def test_library_error_keeps_type_and_attributes(self, rig):
        class Lost(EmptySetError):
            def __init__(self, code, detail):
                super().__init__(code, detail)
                self.code = code

        class FailsLater:
            calls = 0

            def adjust(self, x, u1, dist):
                self.calls += 1
                if self.calls > 3:
                    raise Lost(7, "detail")
                return u1

        with pytest.raises(Lost) as info:
            run_supervised(rig, nominal_controller(rig), FailsLater(), (12.0, 6.0), 5,
                           rig.dist)
        assert info.value.code == 7
        assert info.value.step == 3
        assert str(info.value) == "step 3: (7, 'detail')"


class TestControllerAndBackendVariants:
    coarse = dict(grid_dx1=2.5, grid_dx2=2.5, grid_dv=2.5, grid_dw=1.0, action_du=2.0)

    def test_grid_backend_simulation_is_safe(self):
        cfg = ScenarioConfig(seed=0, steps=120, governor="grid", **self.coarse)
        traj = simulate(cfg)
        assert traj.violation_count == 0

    def test_qlearning_controller_from_checkpoint(self, tmp_path):
        from actiongov.safe_learning import QTable

        cfg = ScenarioConfig(seed=0, steps=30, governor="grid",
                             controller="qlearning", **self.coarse)
        grid = cfg.grid_spec()
        table = QTable.zeros(grid.n_xpairs, cfg.action_values().size)
        # bias every state toward the mid action so the proposal is benign
        table.values[:, cfg.action_values().size // 2] = 1.0
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table.to_dict()))
        cfg.model_path = str(path)
        traj = simulate(cfg)
        assert traj.violation_count == 0

    @pytest.mark.parametrize("governor", [
        "moas",
        pytest.param("grid", marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="the grid backend classifies grid points, not cells: from (-15, 1.5) the "
                   "true plant leaves x1 >= -20 at t = 7 on a held backup reference")),
    ])
    def test_example_q_table_from_a_governable_start_stays_safe(self, governor):
        # the shipped config and the example Q-table, from a start inside the
        # admissible set's projection
        path = Path(__file__).resolve().parent.parent / "configs" / "double_integrator.json"
        cfg = dataclasses.replace(ScenarioConfig.from_json(path), governor=governor,
                                  controller="qlearning", initial_state=(-15.0, 1.5), steps=200)
        assert simulate(cfg).violation_count == 0

    def test_koopman_controller_from_checkpoint(self, tmp_path):
        km = example_initial_koopman()
        path = tmp_path / "model.json"
        path.write_text(json.dumps(km.to_dict()))
        cfg = ScenarioConfig(seed=0, steps=60, governor="moas", controller="koopman",
                             model_path=str(path))
        traj = simulate(cfg)
        assert traj.violation_count == 0


class TestAverageCost:
    def test_constant_series(self):
        cfg = ScenarioConfig(seed=0, steps=3, initial_state=(0.0, 0.0), governor="none")
        traj = simulate(cfg)
        assert np.allclose(average_cost(traj), 0.0)

    def test_two_step_arithmetic(self):
        from actiongov.trajectory import Trajectory

        traj = Trajectory()
        traj.append(0, [0, 0], [0], [0], "none", None, 0.0, 0.0, False)
        traj.append(1, [0, 0], [0], [0], "none", None, 0.0, 2.0, False)
        assert np.allclose(average_cost(traj), [0.0, 1.0])

    def test_matches_recomputation_from_columns(self):
        cfg = ScenarioConfig(seed=1, steps=80, governor="none")
        traj = simulate(cfg)
        xs, us = traj.states, traj.actions
        direct = np.cumsum([x @ x + 10 * u[0] ** 2 for x, u in zip(xs, us)])
        direct = direct / (np.arange(80) + 1)
        assert np.allclose(average_cost(traj), direct, atol=1e-12)


class TestViolationCheck:
    def test_bounds(self):
        assert not is_violated([0.0, 0.0], [0.0])
        assert is_violated([20.5, 0.0], [0.0])
        assert is_violated([0.0, -4.5], [0.0])
        assert is_violated([0.0, 0.0], [6.5])
        assert not is_violated([20.0, 10.0], [6.0])  # boundary admissible


class TestConfig:
    def test_seed_mandatory(self):
        with pytest.raises(ValueError):
            ScenarioConfig.from_dict({"steps": 10})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig.from_dict({"seed": 0, "nope": 1})

    def test_backend_names_validated(self):
        with pytest.raises(ValueError):
            ScenarioConfig(seed=0, governor="magic")
        with pytest.raises(ValueError):
            ScenarioConfig(seed=0, controller="magic")

    def test_numeric_fields_are_type_checked(self):
        cfg = ScenarioConfig(seed=np.int64(3), steps=np.int64(5), grid_dx1=1, alpha=np.float64(0.5))
        assert cfg.steps == 5 and cfg.grid_dx1 == 1
        for bad in ({"steps": 2.5}, {"steps": True}, {"seed": 1.0}, {"grid_dx1": "x"},
                    {"moas_epsilon": None}, {"alpha": False}):
            with pytest.raises(ValueError, match=next(iter(bad))):
                ScenarioConfig(**{"seed": 0, **bad})

    def test_round_trip(self, tmp_path):
        cfg = ScenarioConfig(seed=5, steps=7)
        p = tmp_path / "c.json"
        with open(p, "w") as fh:
            json.dump(cfg.to_dict(), fh)
        back = ScenarioConfig.from_json(p)
        assert back.to_dict() == cfg.to_dict()

    def test_grid_reference_axis_is_the_admissible_sets_box(self):
        for cfg in (ScenarioConfig(seed=0), ScenarioConfig(seed=0, v_bound=3.0, grid_dv=1.5)):
            v = cfg.grid_spec().v_values
            assert v[0] == -cfg.v_bound and v[-1] == cfg.v_bound
            assert np.allclose(np.diff(v), cfg.grid_dv)

    def test_action_grid_spans_the_action_constraint(self):
        for du, n in ((0.5, 25), (2.0, 7), (4.0, 4)):
            a = ScenarioConfig(seed=0, action_du=du).action_values()
            assert a.size == n and (a[0], a[-1]) == U_BOUNDS
            assert np.allclose(np.diff(a), du)

    def test_koopman_penalties(self):
        cfg = ScenarioConfig(seed=0, koopman_q_diag=(1.0, 2.0, 0.5, 0.0), koopman_r=3.0)
        q_z, r_u = cfg.koopman_penalties()
        assert np.array_equal(q_z, np.diag([1.0, 2.0, 0.5, 0.0]))
        assert np.array_equal(r_u, [[3.0]])

    def test_rig_output_map_is_the_loops(self, rig):
        assert rig.out is rig.cl.out

    def test_shipped_config_writes_out_every_default(self):
        path = Path(__file__).resolve().parent.parent / "configs" / "double_integrator.json"
        shipped = json.loads(path.read_text())
        assert list(shipped) == [f.name for f in dataclasses.fields(ScenarioConfig)]
        assert ScenarioConfig.from_json(path) == ScenarioConfig(seed=0, out_dir="out")


class TestModelSerialization:
    def test_koopman_round_trip(self):
        km = example_initial_koopman()
        back = koopman_model_from_dict(json.loads(json.dumps(km.to_dict())))
        assert np.array_equal(back.A, km.A)
        assert np.array_equal(back.B, km.B)
        assert np.array_equal(back.gamma_cov, km.gamma_cov)
        z = back.observables([0.3, -0.2])
        assert z.shape == (4,)

    def test_observables_match_stated_lift(self):
        obs = example_observables()
        x = np.array([0.7, -0.3])
        z = obs(x)
        assert np.allclose(
            z,
            [0.7, -0.3, np.sin(7.0), np.sin(10 * 0.7 + 10 * -0.3)],
        )


class TestGridQEnv:
    def test_each_state_is_snapped_once(self, base_cfg, rig, grid_bundle, monkeypatch):
        # one one-point snap per env step and one per episode start; the
        # oracle snaps each distinct state once (its memo answers the rest by
        # coordinates) and makes one batched successor snap for it; the result
        # equals that of an env whose index re-snaps every state
        oracle, dss, tt, grid = grid_bundle
        pts = grid.x_points()
        starts = pts[np.nonzero(dss.proj_mask)[0][::400][:3]]
        env0 = make_grid_q_env(base_cfg, rig, oracle, grid)
        resnap = dataclasses.replace(
            env0, state_index=lambda x: int(grid.snap_x(np.atleast_2d(x))[0]))
        calls = []
        snap_x, index_of = GridSpec.snap_x, GridSpec.index_of

        def counting(self, points):
            calls.append(len(np.atleast_2d(points)))
            return snap_x(self, points)

        def counting_one(self, x):
            calls.append("index_of")
            return index_of(self, x)

        runs = []
        for env in (env0, resnap):
            # a cold memo in each run, so the batched snaps are counted alike
            env = dataclasses.replace(
                env, oracle=DiscreteGridOracle(dss, tt, base_cfg.action_values()))
            q = make_example_qtable(base_cfg, grid)
            rng = np.random.default_rng(4)
            trajs = []
            calls.clear()
            monkeypatch.setattr(GridSpec, "snap_x", counting)
            monkeypatch.setattr(GridSpec, "index_of", counting_one)
            for x0 in starts:
                q, traj = run_safe_q(dataclasses.replace(env, initial_state=x0), q, 1, 40, rng)
                trajs.append(traj)
            monkeypatch.setattr(GridSpec, "snap_x", snap_x)
            monkeypatch.setattr(GridSpec, "index_of", index_of)
            runs.append((q.values, "".join(t.to_csv() for t in trajs), list(calls)))
        (q_once, csv_once, calls_once), (q_ref, csv_ref, calls_ref) = runs
        steps = len(starts) * 40
        assert len(starts) == 3
        assert all(s.branch == "adjusted" for t in trajs for s in t.steps)
        distinct = len(np.unique(np.vstack([t.states for t in trajs]), axis=0))
        batch = base_cfg.action_values().size * grid.n_w
        assert calls_once.count("index_of") == steps + distinct + len(starts)
        assert calls_once.count(batch) == distinct < steps
        assert len(calls_once) == steps + len(starts) + 2 * distinct
        assert calls_ref.count("index_of") == steps + distinct
        assert calls_ref.count(1) == steps + len(starts)
        assert calls_ref.count(batch) == distinct
        assert np.array_equal(q_once, q_ref) and csv_once == csv_ref


class TestLearningIntegration:
    def test_supervised_learning_run_never_violates(self, base_cfg, rig, moas_bundle):
        oracle, moas = moas_bundle
        cfg = ScenarioConfig(seed=2, learn_steps=600)
        env = make_koopman_env(cfg, rig, oracle, moas)
        km0 = example_initial_koopman()
        km, traj = run_safe_koopman(env, km0, cfg.learn_steps, cfg.reset_every,
                                    np.random.default_rng(cfg.seed))
        assert traj.violation_count == 0
        assert len(traj) == 600

    def test_learned_control_shrinks_the_limit_set(self, base_cfg, rig, moas_bundle,
                                                   koopman_learning):
        # the paper-style comparison from a governable start: the learned
        # controller holds a markedly smaller neighborhood of the origin
        oracle, _ = moas_bundle
        km, _ = koopman_learning
        nominal = run_supervised(rig, nominal_controller(rig), oracle,
                                 (12.0, 6.0), 500, rig.dist)
        q_z = np.diag(base_cfg.koopman_q_diag)
        r_u = np.array([[base_cfg.koopman_r]])
        learned = run_supervised(
            rig, lambda x: koopman_control(km, km.observables(x), q_z, r_u), oracle,
            (12.0, 6.0), 500, rig.dist)
        tail_nominal = np.linalg.norm(nominal.states[-50:], axis=1).max()
        tail_learned = np.linalg.norm(learned.states[-50:], axis=1).max()
        assert learned.violation_count == 0
        assert tail_learned < tail_nominal
