"""Every demo runs to completion at a small size.

Each demo runs as a subprocess in a temporary directory (they write their
CSV and image files to the working directory), with this checkout's
``src`` first on the import path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


# demo -> its command-line arguments, sized to finish in a few seconds
SMALL_RUNS = {
    "01_polytope_algebra": [],
    "02_supervised_control": [],
    "03_safe_set_comparison": ["--coarse"],
    "04_koopman_learning": ["300"],
    "05_safe_q_learning": ["300"],
}


def test_every_demo_is_listed():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == sorted(SMALL_RUNS)


@pytest.mark.parametrize("name", SMALL_RUNS)
def test_demo_runs(tmp_path, name):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, str(DEMOS / f"{name}.py"), *SMALL_RUNS[name]]
    proc = subprocess.run(argv, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    if name == "04_koopman_learning":
        header, *rows = (tmp_path / "demo_learning_cost.csv").read_text().splitlines()
        assert header == "t,cbar"
        assert len(rows) == int(SMALL_RUNS[name][0])
        for t, row in enumerate(rows):
            step, cbar = row.split(",")
            assert int(step) == t
            float(cbar)
