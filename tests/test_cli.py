import json
from pathlib import Path

import numpy as np
import pytest

from actiongov.cli import main
from actiongov.discrete_safeset import MINUS, REMAIN, SAFE_PLUS
from actiongov.errors import NumericalError
from actiongov.safe_learning import QTable
from actiongov.simlab import (
    ScenarioConfig,
    build_grid_backend,
    build_moas_backend,
    build_rig,
    example_initial_koopman,
    learn_koopman,
)
from actiongov.trajectory import CSV_HEADER, fmt


def write_config(tmp_path, **overrides):
    cfg = {"seed": 0, "steps": 40, "governor": "none"}
    cfg.update(overrides)
    path = tmp_path / "config.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def small_grid_overrides():
    """Coarse grid so the grid-backend commands finish quickly."""
    return {
        "grid_dx1": 2.5,
        "grid_dx2": 2.5,
        "grid_dv": 2.5,
        "grid_dw": 1.0,
        "action_du": 2.0,
    }


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate", "--config", "x"]) == 2

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "absent.json")])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert json.loads(err)["error"]

    @pytest.mark.parametrize("bad", [{"bogus": True}, {"steps": "ten"}, {"initial_state": 5},
                                     {"koopman_q_diag": None},
                                     {"grid_dx1": "x", "governor": "grid"},
                                     {"moas_epsilon": "x"}, {"steps": 2.5},
                                     {"grid_w_lo": -1.0}, {"grid_v_lo": -25.0},
                                     {"grid_v_hi": 25.0}, {"action_lo": -6.0},
                                     {"action_hi": 6.0}],
                             ids=["unknown-key", "steps-text", "state-scalar", "q-diag-null",
                                  "grid-step-text", "epsilon-text", "steps-fraction",
                                  "removed-grid-w-key", "removed-grid-v-lo-key",
                                  "removed-grid-v-hi-key", "removed-action-lo-key",
                                  "removed-action-hi-key"])
    def test_bad_config_keys(self, tmp_path, capsys, bad):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"seed": 0, **bad}))
        assert main(["simulate", "--config", str(path)]) == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ValueError"

    @pytest.mark.parametrize("command, bad", [
        ("discrete-safe-set", {"grid_dx1": float("inf")}),
        ("simulate", {"controller": "koopman", "koopman_r": float("nan")}),
        ("simulate", {"initial_state": [float("nan"), 0.0]}),
        ("simulate", {"initial_state": [12.0, 6.0, 0.0]}),
        ("simulate", {"controller": "koopman", "koopman_q_diag": [1.0, 1.0, 0.0]}),
        ("simulate", {"initial_state": ["12", 6]}),
        ("simulate", {"controller": "koopman", "koopman_q_diag": [1.0, "1.0", 0.0, 0.0]}),
        ("simulate", {"initial_state": [10 ** 400, 6]}),
        ("simulate", {"controller": "koopman", "koopman_r": 10 ** 400}),
        ("simulate", {"out_dir": 5}),
        ("simulate", {"out_dir": ["a"]}),
        ("simulate", {"model_path": ["x"]}),
        ("simulate", {"model_path": 7}),
        ("simulate", {"model_path": True}),
        ("simulate", {"governor": 5}),
        ("simulate", {"controller": None}),
        ("simulate", {"norm": 1}),
    ], ids=["grid-step-infinite", "koopman-r-nan", "state-nan", "state-three-entries",
            "q-diag-three-entries", "state-text", "q-diag-text", "state-huge-integer",
            "koopman-r-huge-integer", "out-dir-number", "out-dir-list", "model-path-list",
            "model-path-number", "model-path-bool", "governor-number", "controller-null",
            "norm-number"])
    def test_non_finite_or_misshapen_values_are_bad_config(self, tmp_path, capsys, command, bad):
        # JSON's Infinity and NaN parse; they are refused with the key named
        # before any stage runs, as are vectors of the wrong length, text
        # entries, integers too large for a float, and text fields of
        # another JSON type (a number for model_path would name a file
        # descriptor to open, and a non-text out_dir fail inside pathlib)
        path = write_config(tmp_path, **{"out_dir": str(tmp_path), **bad})
        assert main([command, "--config", str(path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert err["message"].startswith(list(bad)[-1] + " must be")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("payload", [5, None, "text", ["seed"], [{"seed": 0}]],
                             ids=["number", "null", "text", "list-of-key", "list-of-object"])
    def test_config_that_is_no_json_object_is_bad_config(self, tmp_path, capsys, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ValueError", "message": "the config file holds no JSON object"}
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("bad", [
        {"koopman_r": 0.0}, {"koopman_r": -1.0}, {"koopman_q_diag": [1.0, 1.0, -0.5, 0.0]},
        {"koopman_lambda": 0.0}, {"koopman_lambda": 1.5}, {"koopman_delta": 0.0},
    ], ids=["r-zero", "r-negative", "q-diag-negative", "lambda-zero", "lambda-above-one",
            "delta-zero"])
    def test_bad_koopman_values_are_named_before_any_build(self, tmp_path, capsys, bad):
        # the regulator and the estimator would refuse these too, but only
        # after the admissible-set build and without the key
        path = write_config(tmp_path, out_dir=str(tmp_path), **bad)
        assert main(["learn-koopman", "--config", str(path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert err["message"].startswith(list(bad)[0] + " must")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("bad, message", [
        ({"v_bound": 25.1}, "integer number of steps"),
        ({**small_grid_overrides(), "action_du": 0.64}, "divide the action range"),
        ({**small_grid_overrides(), "action_du": 0.0}, "action_du must be positive"),
    ], ids=["v-bound-off-the-v-grid", "action-step-off-U", "action-step-zero"])
    def test_grid_steps_must_divide_their_ranges(self, tmp_path, capsys, bad, message):
        # the reference axis is [-v_bound, v_bound] in steps of grid_dv and
        # the action grid is U in steps of action_du
        path = write_config(tmp_path, out_dir=str(tmp_path), **bad)
        assert main(["learn-q", "--config", str(path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert message in err["message"]
        assert not (tmp_path / "qtable.json").exists()

    def test_infeasible_start_is_a_domain_error(self, tmp_path, capsys):
        path = write_config(tmp_path, governor="moas", initial_state=[14.0, 6.0],
                            out_dir=str(tmp_path))
        code = main(["simulate", "--config", str(path)])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert "step 0" in err["message"]

    @pytest.mark.parametrize("shape", [(3, 2), (5151, 13)], ids=["tiny", "other-action-step"])
    def test_misshapen_q_table_is_bad_input(self, tmp_path, capsys, shape):
        # the shipped grid has 5,151 x-pairs and its action_du of 0.5 gives
        # 25 actions; a table saved at action_du 1.0 has 13 columns
        table = QTable(np.zeros(shape), 0.95, 0.5, 0.1, 100.0)
        model = tmp_path / "qtable.json"
        model.write_text(json.dumps(table.to_dict()))
        path = write_config(tmp_path, controller="qlearning", model_path=str(model),
                            out_dir=str(tmp_path))
        assert main(["simulate", "--config", str(path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert "5151 x 25" in err["message"]
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("controller, payload, message", [
        ("qlearning", {"A": [[1.0]]}, "lacks the keys ['values', 'gamma'"),
        ("koopman", {"A": [[1.0]]}, "lacks the keys ['B', 'gamma_cov', 'lam', 'observables']"),
        ("qlearning", [[1.0]], "holds no JSON object"),
        ("koopman", [[1.0]], "holds no JSON object"),
        ("qlearning", {**QTable.zeros(2, 2).to_dict(), "gamma": "x"},
         "'gamma' must be a number, got 'x'"),
        ("koopman", {**example_initial_koopman().to_dict(), "lam": None},
         "'lam' must be a number, got None"),
        ("koopman", {**example_initial_koopman().to_dict(), "A": {"rows": 4}},
         "'A' must be an array of numbers"),
        # JSON's NaN and Infinity parse; the model refuses them before its
        # symmetry and eigenvalue checks, and before any regulator solve
        ("koopman", {**example_initial_koopman().to_dict(),
                     "A": np.where(np.eye(4), np.nan, 0.0).tolist()},
         "A must be finite"),
        ("koopman", {**example_initial_koopman().to_dict(),
                     "gamma_cov": np.where(np.eye(5), np.inf, 0.0).tolist()},
         "gamma_cov must be finite"),
    ], ids=["q-table-missing-keys", "koopman-missing-keys", "q-table-array", "koopman-array",
            "q-table-gamma-text", "koopman-lam-null", "koopman-a-object", "koopman-a-nan",
            "koopman-covariance-infinite"])
    def test_malformed_model_file_is_bad_input(self, tmp_path, capsys, controller, payload,
                                               message):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        path = write_config(tmp_path, controller=controller, model_path=str(model),
                            out_dir=str(tmp_path))
        assert main(["simulate", "--config", str(path)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert message in err["message"]
        assert not (tmp_path / "trajectory.csv").exists()

    def test_estimator_failure_is_a_numerical_error(self, tmp_path, capsys):
        path = write_config(tmp_path, learn_steps=50, koopman_lambda=1e-15,
                            out_dir=str(tmp_path))
        assert main(["learn-koopman", "--config", str(path)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "NumericalError"
        # which step loses the covariance first depends on the last bits of
        # the gains, so the step is read from an in-process run of the config
        cfg = ScenarioConfig.from_json(path)
        rig = build_rig(cfg)
        with pytest.raises(NumericalError) as raised:
            learn_koopman(cfg, rig, *build_moas_backend(cfg, rig))
        assert raised.value.step is not None
        assert err["message"].startswith(f"step {raised.value.step}:")

    def test_unstabilizable_koopman_model_fails_at_its_step(self, tmp_path, capsys):
        # the 1.2 mode of the lifted model is beyond the reach of B = e2, so
        # the regulator has no stabilizing solution at the first step
        model = tmp_path / "koopman.json"
        model.write_text(json.dumps({
            "A": np.diag([1.2, 0.5, 0.0, 0.0]).tolist(),
            "B": [[0.0], [1.0], [0.0], [0.0]],
            "gamma_cov": np.eye(5).tolist(),
            "lam": 1.0,
            "observables": "double_integrator_lift",
            "n_z": 4,
        }))
        path = write_config(tmp_path, controller="koopman", model_path=str(model),
                            out_dir=str(tmp_path))
        assert main(["simulate", "--config", str(path)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "NoStabilizingSolutionError"
        assert err["message"].startswith("step 0:")


class TestSimulateCommand:
    def test_csv_contract_and_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, out_dir=str(tmp_path))
        assert main(["simulate", "--config", str(path)]) == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 41

    def test_seed_and_out_overrides(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "elsewhere"
        assert main(["simulate", "--config", str(path), "--seed", "9",
                     "--out", str(out)]) == 0
        assert (out / "trajectory.csv").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        path = write_config(tmp_path, governor="moas", steps=120, out_dir=str(tmp_path))
        assert main(["simulate", "--config", str(path)]) == 0
        first = (tmp_path / "trajectory.csv").read_bytes()
        assert main(["simulate", "--config", str(path)]) == 0
        assert (tmp_path / "trajectory.csv").read_bytes() == first


class TestMoasCommand:
    def test_export_schema(self, tmp_path):
        path = write_config(tmp_path, out_dir=str(tmp_path))
        assert main(["moas", "--config", str(path)]) == 0
        data = json.loads((tmp_path / "moas.json").read_text())
        assert set(data) == {"t_star", "epsilon", "set_xv", "proj_x", "proj_x_shrunk"}
        for key in ("set_xv", "proj_x", "proj_x_shrunk"):
            assert set(data[key]) == {"normals", "offsets"}
        assert data["t_star"] > 0

    def test_rerun_is_byte_identical(self, tmp_path):
        path = write_config(tmp_path, out_dir=str(tmp_path))
        assert main(["moas", "--config", str(path)]) == 0
        first = (tmp_path / "moas.json").read_bytes()
        assert main(["moas", "--config", str(path)]) == 0
        assert (tmp_path / "moas.json").read_bytes() == first


class TestGridCommands:
    def test_discrete_safe_set_csv(self, tmp_path):
        path = write_config(tmp_path, out_dir=str(tmp_path), **small_grid_overrides())
        assert main(["discrete-safe-set", "--config", str(path)]) == 0
        lines = (tmp_path / "discrete_safe_set.csv").read_text().splitlines()
        assert lines[0] == "x1,x2,v,class"
        cfg = ScenarioConfig.from_json(path)
        assert len(lines) == 1 + cfg.grid_spec().n_pairs
        classes = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert classes <= {"safe", "unsafe", "unresolved"}

    def test_discrete_safe_set_csv_equals_a_per_line_rendering(self, tmp_path):
        path = write_config(tmp_path, out_dir=str(tmp_path), **small_grid_overrides())
        assert main(["discrete-safe-set", "--config", str(path)]) == 0
        cfg = ScenarioConfig.from_json(path)
        _, dss, _, grid = build_grid_backend(cfg, build_rig(cfg))
        names = {SAFE_PLUS: "safe", MINUS: "unsafe", REMAIN: "unresolved"}
        assert set(np.unique(dss.class_map).tolist()) == set(names)
        lines = ["x1,x2,v,class\n"]
        for i, x in enumerate(grid.x_points()):
            for j, v in enumerate(grid.v_values):
                lines.append(f"{fmt(x[0])},{fmt(x[1])},{fmt(v)},{names[dss.class_map[i, j]]}\n")
        assert (tmp_path / "discrete_safe_set.csv").read_bytes() == "".join(lines).encode()

    def test_learn_q_writes_artifacts(self, tmp_path):
        path = write_config(tmp_path, out_dir=str(tmp_path), q_batches=150,
                            **small_grid_overrides())
        assert main(["learn-q", "--config", str(path)]) == 0
        assert (tmp_path / "qlearn_trajectory.csv").exists()
        table = json.loads((tmp_path / "qtable.json").read_text())
        assert set(table) == {"values", "gamma", "alpha", "epsilon", "penalty_m"}

    def test_learn_q_rerun_is_byte_identical(self, tmp_path):
        path = write_config(tmp_path, out_dir=str(tmp_path), q_batches=100,
                            **small_grid_overrides())
        assert main(["learn-q", "--config", str(path)]) == 0
        first = (tmp_path / "qlearn_trajectory.csv").read_bytes()
        assert main(["learn-q", "--config", str(path)]) == 0
        assert (tmp_path / "qlearn_trajectory.csv").read_bytes() == first


class TestLearnKoopman:
    def test_artifacts_and_determinism(self, tmp_path):
        path = write_config(tmp_path, out_dir=str(tmp_path), learn_steps=200)
        assert main(["learn-koopman", "--config", str(path)]) == 0
        cost = (tmp_path / "koopman_cost.csv").read_text().splitlines()
        assert cost[0] == "t,cbar"
        assert len(cost) == 201
        model = json.loads((tmp_path / "koopman_model.json").read_text())
        assert model["observables"] == "double_integrator_lift"
        first = (tmp_path / "koopman_trajectory.csv").read_bytes()
        assert main(["learn-koopman", "--config", str(path)]) == 0
        assert (tmp_path / "koopman_trajectory.csv").read_bytes() == first


class TestReproduce:
    def test_manifest(self, tmp_path):
        path = write_config(tmp_path, out_dir=str(tmp_path), steps=60,
                            learn_steps=300, **small_grid_overrides())
        assert main(["reproduce-paper", "--config", str(path)]) == 0
        for name in (
            "fig2_nominal_ungoverned.csv",
            "fig2_nominal_governed.csv",
            "fig2_koopman_governed.csv",
            "fig3_sets.json",
            "fig4_cost.csv",
        ):
            assert (tmp_path / name).exists(), name
        sets = json.loads((tmp_path / "fig3_sets.json").read_text())
        assert 0.0 <= sets["jaccard_vs_moas_projection"] <= 1.0
