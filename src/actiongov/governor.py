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

The polytopic oracle selects by :func:`actiongov.convexset.nearest_affine_point`,
a clip to an interval for one input (an LP only in more dimensions).  Finite
oracles score all their candidates at once with :meth:`ActionDistance.many`
and pick with :func:`nearest_candidate`; the single-input grid oracle's
``adjust`` needs only one argmin over its sorted feasible actions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonFiniteInputError, UninitializedGovernorError


class ActionDistance:
    """Distance between actions; ``"l1"`` or ``"linf"``.

    ``dist(u1, u)`` is the distance from ``u1`` to one action of the same
    size; ``dist.many(u1, us)`` the distances to every row of ``us``
    (scalars are 1-vectors).  Both take ``|u - u1|`` and then its sum or
    maximum, so they agree bit for bit.
    """

    def __init__(self, norm: str = "l1"):
        if norm not in ("l1", "linf"):
            raise ValueError(f"unsupported norm {norm!r}")
        self.norm = norm

    def many(self, u1, us) -> np.ndarray:
        u1 = np.ravel(np.asarray(u1, dtype=float))
        d = np.abs(np.reshape(np.asarray(us, dtype=float), (-1, u1.size)) - u1)
        return d.sum(axis=1) if self.norm == "l1" else d.max(axis=1)

    def __call__(self, u1, u) -> float:
        u1 = np.ravel(np.asarray(u1, dtype=float))
        u = np.ravel(np.asarray(u, dtype=float))
        if u.size != u1.size:
            raise ValueError(f"actions of different sizes: {u1.size} and {u.size}")
        d = np.abs(u - u1)
        return float(d.sum() if self.norm == "l1" else d.max())


class Branch(enum.Enum):
    NONE = "none"
    ADJUSTED = "adjusted"
    BACKUP_FRESH = "backup_fresh"
    BACKUP_HELD = "backup_held"


@dataclass
class GovernorState:
    """Held reference: ``None`` until the backup branch first solves."""

    v_hat: Optional[np.ndarray] = None


@dataclass(frozen=True)
class GovernorOutcome:
    u: np.ndarray
    branch: Branch


def nearest_candidate(candidates, distances):
    """Candidate of least distance, or ``None`` when there are none; exact
    ties go to the lexicographically smallest candidate.

    Candidates are the rows of ``candidates`` (scalars become 1-vectors);
    ``distances`` holds one distance per candidate, in the same order.
    """
    cands = np.asarray(candidates, dtype=float)
    if cands.size == 0:
        return None
    cands = cands.reshape(cands.shape[0], -1)
    dvals = np.asarray(distances, dtype=float)
    tied = np.flatnonzero(dvals == dvals.min())
    if tied.size > 1:
        tied = tied[np.lexsort(cands[tied].T[::-1])]
    return cands[tied[0]].copy()


def govern(x, u1, gs: GovernorState, oracle, dist: ActionDistance = None):
    """One supervision decision; returns ``(outcome, gs)`` with ``gs`` updated.

    ``oracle = None`` passes ``u1`` through unsupervised.  Otherwise raises
    :class:`NonFiniteInputError` before the oracle is consulted when ``x``
    or ``u1`` has a NaN or infinite entry, and
    :class:`UninitializedGovernorError` when both the adjustment and the
    backup selection are infeasible and no reference was ever held
    (supervision presumes the adjustment is feasible at the first step).
    ``govern`` knows no time: its errors and the oracle's leave without a
    ``step``, which the loop that holds the step index sets.
    """
    u1 = np.atleast_1d(np.asarray(u1, dtype=float))
    if oracle is None:
        return GovernorOutcome(u=u1, branch=Branch.NONE), gs
    if dist is None:
        dist = ActionDistance()
    xs = np.asarray(x, dtype=float)
    # a scalar loop: on these few entries it is cheaper than np.isfinite
    if not all(map(math.isfinite, xs.ravel().tolist() + u1.tolist())):
        raise NonFiniteInputError(
            f"non-finite input to the supervisor: x={xs.tolist()}, u1={u1.tolist()}"
        )
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
