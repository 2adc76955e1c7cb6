"""Smoke test of the scripts under ``tools/`` at tiny sizes."""

import importlib.util
import json
import re
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent.parent / "tools"

ARTIFACTS = {
    "moas.json", "discrete_safe_set.csv", "trajectory.csv", "qlearn_trajectory.csv",
    "qtable.json", "koopman_trajectory.csv", "koopman_model.json", "koopman_cost.csv",
    "fig2_nominal_ungoverned.csv", "fig2_nominal_governed.csv", "fig2_koopman_governed.csv",
    "fig3_sets.json", "fig4_cost.csv",
}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tiny_config(tmp_path):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({
        "seed": 0, "steps": 15, "q_batches": 15, "learn_steps": 25,
        "grid_dx1": 2.5, "grid_dx2": 2.5, "grid_dv": 2.5, "grid_dw": 1.0, "action_du": 2.0,
        "out_dir": str(tmp_path / "unused"),
    }))
    return config


def test_artifact_digests_covers_every_cli_artifact(tmp_path, capsys):
    tool = _load("artifact_digests")
    config = _tiny_config(tmp_path)
    assert tool.main(["--config", str(config)]) == 0
    lines = capsys.readouterr().out.splitlines()
    pairs = [re.fullmatch(r"([0-9a-f]{64})  (\S+)", line).groups() for line in lines]
    names = [name for _, name in pairs]
    assert names == sorted(ARTIFACTS)
    digests = {name: digest for digest, name in pairs}
    # at the default governor and controller, ``simulate`` is the governed
    # nominal run of ``reproduce-paper``
    assert digests["trajectory.csv"] == digests["fig2_nominal_governed.csv"]
    assert not (tmp_path / "unused").exists()


def test_cli_pairs_runs_each_tree_in_a_fresh_process(tmp_path, capsys):
    tool = _load("cli_pairs")
    tree = str(TOOLS.parent)
    config = _tiny_config(tmp_path)
    assert tool.main([tree, tree, "--command", "learn-q", "--config", str(config),
                      "--pairs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    runs = [re.fullmatch(r"pair 1 ([AB]) +[0-9.]+ s  (.*)", line) for line in lines[:2]]
    assert [m.group(1) for m in runs] == ["A", "B"]
    files = [re.findall(r"([0-9a-f]{64}) (\S+)", m.group(2)) for m in runs]
    assert files[0] == files[1]
    assert sorted(name for _, name in files[0]) == ["qlearn_trajectory.csv", "qtable.json"]
    assert [line.split()[:2] for line in lines[2:4]] == [["median", "A"], ["median", "B"]]
    assert lines[4] == "artifacts identical across all runs"
    assert not (tmp_path / "unused").exists()


def test_bench_pairs_compares_every_end_to_end_metric(capsys):
    tool = _load("bench_pairs")
    tree = str(TOOLS.parent)
    assert tool.main([tree, tree, "--workload", "grid-qlearn", "--pairs", "1",
                      "--seconds", "1", "--size", "tiny"]) == 0
    lines = capsys.readouterr().out.splitlines()
    metrics = [m["name"] for m in
               json.loads((TOOLS.parent / "BENCHMARK.json").read_text())["end_to_end"]]
    number = r"[0-9.]+"
    for line, side in zip(lines[:2], "AB"):
        assert re.fullmatch(rf"pair 1 {side}  " + "  ".join(rf"{m} {number}" for m in metrics),
                            line)
    assert len(lines) == 2 + len(metrics)
    for line, name in zip(lines[2:], metrics):
        assert re.fullmatch(rf"{name} +A +{number} \[{number}, {number}\]  "
                            rf"B +{number} \[{number}, {number}\]  A IQR {number}  "
                            r"B wins [01]/1  gain (yes|no)", line)


def test_learning_margin_prints_one_row_per_seed(tmp_path, capsys):
    tool = _load("learning_margin")
    config = tmp_path / "short.json"
    config.write_text(json.dumps({"seed": 0, "learn_steps": 210,
                                  "out_dir": str(tmp_path / "unused")}))
    assert tool.main(["--config", str(config), "--seeds", "0", "1",
                      "--frozen-steps", "30"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["seed", "crit8", "viol", "moved", "paired"]
    rows = [line.split() for line in lines[1:3]]
    assert [row[0] for row in rows] == ["0", "1"]
    for _, crit8, violations, moved, paired in rows:
        assert float(crit8) > 0.0 and violations == "0"
        assert 0.0 <= float(moved) <= 1.0 and float(paired) > 0.0
    assert re.fullmatch(r"criterion 8 holds on [0-2] of 2 seeds; paired median [0-9.]+, "
                        r"range [0-9.]+-[0-9.]+", lines[3])
    assert not (tmp_path / "unused").exists()


def test_artifact_shift_reports_the_largest_gap_and_the_structure(tmp_path, capsys):
    tool = _load("artifact_shift")
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (a / "traj.csv").write_text("t,u,branch\n0,1.5,adjusted\n1,-2,backup_held\n")
    (b / "traj.csv").write_text("t,u,branch\n0,1.5000000000000002,adjusted\n1,-2.25,backup_held\n")
    (a / "model.json").write_text(json.dumps({"A": [[1.0, 0.5]], "name": "km", "n": 3}))
    (b / "model.json").write_text(json.dumps({"A": [[1.0, 0.5]], "name": "km", "n": 3}))
    assert tool.main([str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "model.json  max |diff| 0  (0 of 3 numbers differ)  structure identical",
        "traj.csv  max |diff| 0.25  (2 of 4 numbers differ)  structure identical",
        "largest shift 0.25; same files, structure identical",
    ]

    (b / "traj.csv").write_text("t,u,branch\n0,1.5,adjusted\n1,-2,backup_fresh\n")
    (b / "model.json").write_text(json.dumps({"A": [[1.0]], "name": "km", "n": 3}))
    (b / "extra.csv").write_text("t\n0\n")
    assert tool.main([str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"extra.csv  only in {b}"
    assert lines[1] == "model.json  structure differs: length at /A[0]: 2 vs 1"
    assert lines[2] == ("traj.csv  structure differs: row 2, column 'branch': "
                        "'backup_held' vs 'backup_fresh'")
    assert lines[3] == "largest shift 0; files or structure differ"


def test_set_distance_reads_both_artifacts_and_reports_the_support_gap(tmp_path, capsys):
    tool = _load("set_distance")

    def box(lo, hi, extra=()):
        n = len(lo)
        normals = [list(row) for row in np.vstack([np.eye(n), -np.eye(n)])] + [r for r, _ in extra]
        return {"normals": normals, "offsets": list(hi) + [-v for v in lo] + [b for _, b in extra]}

    sets = {"set_xv": box([-1, -1, -2], [1, 1, 2]), "proj_x": box([-1, -1], [1, 1]),
            "proj_x_shrunk": box([-0.5, -1], [0.5, 1])}
    a = tmp_path / "moas.json"
    a.write_text(json.dumps({"t_star": 52, "epsilon": 0.01, **sets}))
    # the same sets with proj_x's first bound moved by 0.25 and a redundant row added
    moved = dict(sets, proj_x=box([-1, -1], [1.25, 1], extra=[([1.0, 1.0], 5.0)]))
    b = tmp_path / "fig3_sets.json"
    b.write_text(json.dumps({"moas": {"t_star": 51, "epsilon": 0.01, **moved},
                             "jaccard_vs_moas_projection": 1.0}))
    assert tool.main([str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t_star  52 51"
    assert lines[1] == "set_xv  rows 6 6  largest support gap 0  (212 directions)"
    assert lines[2] == "proj_x  rows 4 5  largest support gap 0.25  (209 directions)"
    assert lines[3] == "proj_x_shrunk  rows 4 4  largest support gap 0  (208 directions)"


def test_setup_memory_prints_one_line_per_backend(tmp_path, capsys, tiny_grid):
    tool = _load("setup_memory")
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({"seed": 0, **tiny_grid}))
    assert tool.main(["--config", str(config)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["backend", "maxrss_before", "maxrss_after", "minflt",
                                "traced_peak"]
    rows = [re.fullmatch(r"(\w+) +([0-9.]+) MB +([0-9.]+) MB +(\d+) +([0-9.]+) MB", line)
            for line in lines[1:]]
    assert [m.group(1) for m in rows] == ["grid", "moas"]
    for m in rows:
        before, after, _, peak = (float(g) for g in m.groups()[1:])
        assert 0 < before <= after and peak > 0


def test_step_split_prints_every_part_of_each_learner(tmp_path, capsys):
    tool = _load("step_split")
    config = _tiny_config(tmp_path)
    assert tool.main(["--config", str(config), "--states", "5", "--repeat", "2"]) == 0
    rows = [re.fullmatch(r"(\S+) +(\S+) +([0-9.]+) us", line).groups()
            for line in capsys.readouterr().out.splitlines()]
    assert [(learner, part) for learner, part, _ in rows] == [
        *(("grid-q", p) for p in ("epsilon_greedy", "govern", "env_step", "cost", "violated",
                                  "append", "reward", "target", "sum")),
        *(("koopman", p) for p in ("regulator_solve", "rls_update", "govern", "env_step", "lift",
                                   "append", "sum"))]
    for learner in ("grid-q", "koopman"):
        us = [float(v) for name, _, v in rows if name == learner]
        assert all(v > 0 for v in us) and abs(sum(us[:-1]) - us[-1]) < 0.01 * len(us)
    assert not (tmp_path / "unused").exists()
