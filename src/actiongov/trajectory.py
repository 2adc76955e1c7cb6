"""Time-indexed run records shared by the simulator and the learning loops."""

from __future__ import annotations

import io
from typing import NamedTuple, Optional

import numpy as np

CSV_HEADER = "t,x1,x2,u1,u,branch,vhat,w,cost,violated"


def fmt(value: float) -> str:
    """Round-trip-exact float formatting (17 significant digits)."""
    return format(float(value), ".17g")


class TrajectoryStep(NamedTuple):
    """One recorded step; immutable, and each array is the record's own copy."""

    t: int
    x: np.ndarray
    u1: np.ndarray
    u: np.ndarray
    branch: str
    v_hat: Optional[np.ndarray]
    w: float
    cost: float
    violated: bool


class Trajectory:
    """Append-only record of a single run."""

    def __init__(self):
        self.steps: list[TrajectoryStep] = []

    def append(self, t, x, u1, u, branch, v_hat, w, cost, violated):
        self.steps.append(TrajectoryStep(
            int(t),
            np.array(x, dtype=float, ndmin=1),
            np.array(u1, dtype=float, ndmin=1),
            np.array(u, dtype=float, ndmin=1),
            str(branch),
            None if v_hat is None else np.array(v_hat, dtype=float, ndmin=1),
            float(w),
            float(cost),
            bool(violated),
        ))

    def __len__(self):
        return len(self.steps)

    @property
    def states(self) -> np.ndarray:
        return np.array([s.x for s in self.steps])

    @property
    def actions(self) -> np.ndarray:
        return np.array([s.u for s in self.steps])

    @property
    def costs(self) -> np.ndarray:
        return np.array([s.cost for s in self.steps])

    @property
    def violation_count(self) -> int:
        return sum(s.violated for s in self.steps)

    def to_csv(self) -> str:
        """Serialize a 2-state scalar-action run in the fixed column layout."""
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        for s in self.steps:
            if s.x.size != 2 or s.u.size != 1 or s.u1.size != 1:
                raise ValueError("CSV layout requires a 2-state, scalar-action run")
            vhat = "" if s.v_hat is None else fmt(s.v_hat[0])
            buf.write(
                ",".join(
                    [
                        str(s.t),
                        fmt(s.x[0]),
                        fmt(s.x[1]),
                        fmt(s.u1[0]),
                        fmt(s.u[0]),
                        s.branch,
                        vhat,
                        fmt(s.w),
                        fmt(s.cost),
                        str(int(s.violated)),
                    ]
                )
                + "\n"
            )
        return buf.getvalue()

    def write_csv(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write(self.to_csv())
