"""One action-supervision step over a safe-set oracle.

Each step the supervisor tries to minimally adjust the proposed action so
that the current constraint holds and every disturbance outcome lands in
the projection of the safe set.  When no such action exists it falls back
to the nominal policy, re-selecting the held reference whenever the state
is still inside the projection and carrying the previous one otherwise.

An oracle implements the whole contract:

* ``adjust(x, u1, dist)``: the distance-minimizing safe action, or ``None``;
* ``backup(x, u1, dist)``: the reference paired with ``x`` in the safe set
  whose nominal action is nearest ``u1``, or ``None`` outside the projection;
* ``pi0(x, v)``: the nominal policy.

The polytopic oracle solves LPs; finite oracles enumerate candidates with
:func:`nearest_candidate`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ActionGovError, UninitializedGovernorError


class ActionDistance:
    """Distance between actions; ``"l1"`` or ``"linf"``."""

    def __init__(self, norm: str = "l1"):
        if norm not in ("l1", "linf"):
            raise ValueError(f"unsupported norm {norm!r}")
        self.norm = norm

    def __call__(self, u1, u) -> float:
        d = np.atleast_1d(np.asarray(u1, dtype=float)) - np.atleast_1d(
            np.asarray(u, dtype=float)
        )
        return float(np.sum(np.abs(d))) if self.norm == "l1" else float(np.max(np.abs(d)))


class Branch(enum.Enum):
    NONE = "none"
    ADJUSTED = "adjusted"
    BACKUP_FRESH = "backup_fresh"
    BACKUP_HELD = "backup_held"


@dataclass
class GovernorState:
    """Held reference (``None`` until the backup branch first solves) and
    the number of supervision steps taken."""

    v_hat: Optional[np.ndarray] = None
    step: int = 0


@dataclass(frozen=True)
class GovernorOutcome:
    u: np.ndarray
    branch: Branch


def nearest_candidate(candidates, distance):
    """Candidate minimizing ``distance(candidate)``, or ``None`` when there
    are none; exact ties go to the lexicographically smallest candidate.

    Candidates are the rows of ``candidates`` (scalars become 1-vectors).
    """
    cands = np.asarray(candidates, dtype=float)
    if cands.size == 0:
        return None
    cands = cands.reshape(cands.shape[0], -1)
    dvals = np.array([distance(c) for c in cands])
    tied = np.nonzero(dvals == dvals.min())[0]
    if tied.size > 1:
        tied = tied[np.lexsort(cands[tied].T[::-1])]
    return cands[tied[0]].copy()


def govern(x, u1, gs: GovernorState, oracle, dist: ActionDistance = None):
    """One supervision step; returns ``(outcome, gs)`` with ``gs`` updated.

    ``oracle = None`` passes ``u1`` through unsupervised.  Raises
    :class:`UninitializedGovernorError` when both the adjustment and the
    backup selection are infeasible and no reference was ever held
    (supervision presumes the adjustment is feasible at the first step).
    Library errors leave with ``step`` set to this step's index.
    """
    step = gs.step
    gs.step += 1
    u1 = np.atleast_1d(np.asarray(u1, dtype=float))
    if oracle is None:
        return GovernorOutcome(u=u1, branch=Branch.NONE), gs
    if dist is None:
        dist = ActionDistance()
    try:
        u = oracle.adjust(x, u1, dist)
        if u is not None:
            return GovernorOutcome(u=np.atleast_1d(u), branch=Branch.ADJUSTED), gs
        v = oracle.backup(x, u1, dist)
        if v is not None:
            gs.v_hat = np.atleast_1d(np.asarray(v, dtype=float))
            branch = Branch.BACKUP_FRESH
        elif gs.v_hat is not None:
            branch = Branch.BACKUP_HELD
        else:
            raise UninitializedGovernorError(
                "no feasible adjustment or backup and no previously held reference"
            )
        u = np.atleast_1d(np.asarray(oracle.pi0(x, gs.v_hat), dtype=float))
        return GovernorOutcome(u=u, branch=branch), gs
    except ActionGovError as exc:
        exc.step = step
        raise
