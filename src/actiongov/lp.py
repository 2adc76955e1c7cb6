"""Small inequality-form linear programs: a dense two-phase simplex.

:func:`solve_lp` solves ``min/max c.z  s.t.  A z <= b`` with free variables,
by splitting ``z = p - q`` (``p, q >= 0``) and adding one slack per row.
:func:`_two_phase` solves that standard form with one artificial per row
for phase 1.  Pivot columns follow Dantzig's rule until progress stalls,
then switch to Bland's rule, which rules out cycling; the pivot sequence
is deterministic either way, so reported optimizers are reproducible.
Intended scale is tens of variables and a few hundred rows; everything is
kept as a dense numpy tableau with vectorized pivots.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
_BLAND_AFTER = 60  # pivots without objective progress before anti-cycling kicks in


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class Sense(enum.Enum):
    MIN = "min"
    MAX = "max"


@dataclass(frozen=True)
class LpResult:
    """Outcome of an LP solve.

    ``value`` and ``point`` are only meaningful when ``status`` is OPTIMAL;
    they are ``nan`` / empty otherwise.
    """

    status: LpStatus
    value: float
    point: np.ndarray


def _pivot(T, basis, row, col):
    T[row] = T[row] / T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    basis[row] = col


def _run_simplex(T, basis, cost, n_cols, max_iter):
    """Iterate to optimality; returns "optimal" or "unbounded".

    ``cost`` is the reduced-cost row (entry -1 tracks minus the objective),
    updated in place alongside the tableau.
    """
    stall = 0
    last_obj = cost[-1]
    for _ in range(max_iter):
        negative = cost[:n_cols] < -OPT_TOL
        if not negative.any():
            return "optimal"
        if stall < _BLAND_AFTER:
            enter = int(np.argmin(cost[:n_cols]))
        else:  # Bland: lowest eligible index
            enter = int(np.nonzero(negative)[0][0])
        col = T[:, enter]
        positive = col > FEAS_TOL
        if not positive.any():
            return "unbounded"
        ratios = np.full(col.shape, np.inf)
        ratios[positive] = T[positive, -1] / col[positive]
        best = ratios.min()
        tied = np.nonzero(ratios <= best + FEAS_TOL)[0]
        if tied.size == 1:
            leave = int(tied[0])
        else:  # break ties on the smallest basic-variable index (Bland)
            leave = int(tied[np.argmin(basis[tied])])
        cost -= (cost[enter] / T[leave, enter]) * T[leave]
        _pivot(T, basis, leave, enter)
        if cost[-1] > last_obj + OPT_TOL or cost[-1] < last_obj - OPT_TOL:
            stall = 0
            last_obj = cost[-1]
        else:
            stall += 1
    raise NumericalError("simplex exceeded iteration limit")


def _lp_data(c, a_ub, b_ub):
    """Validated float arrays ``(c, a_ub, b_ub)`` with ``a_ub`` of shape (m, n)."""
    c = np.asarray(c, dtype=float).ravel()
    a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
    b_ub = np.asarray(b_ub, dtype=float).ravel()
    n = c.size
    if a_ub.size == 0:
        a_ub = a_ub.reshape(0, n)
    if a_ub.shape[1] != n or b_ub.size != a_ub.shape[0]:
        raise ValueError("inconsistent LP dimensions")
    if not (np.all(np.isfinite(a_ub)) and np.all(np.isfinite(b_ub)) and np.all(np.isfinite(c))):
        raise ValueError("LP data must be finite")
    return c, a_ub, b_ub


def _two_phase(a_eq, b_eq, cost, infeasible_tol):
    """Two-phase simplex on ``min cost.x  s.t.  a_eq x = b_eq, x >= 0``.

    Returns ``(status, T, basis)``: the final tableau, whose columns are the
    structural ones, one artificial per row and the right-hand side, and
    the basic column of each row.  Phase 1 starts from the artificial basis
    (rows with ``b_eq < 0`` negated) and gives INFEASIBLE when the
    artificials sum to more than ``infeasible_tol``.  Each artificial left
    basic is then pivoted out on its row's first structural entry; one
    without any stays basic at level zero (a redundant row).  Phase 2
    prices the structural columns only, so no artificial re-enters.  A
    phase 1 that reports unbounded, or either phase at its iteration
    limit, raises :class:`NumericalError`.
    """
    m, k = a_eq.shape
    n_total = k + m
    T = np.zeros((m, n_total + 1))
    T[:, :k] = a_eq
    T[:, -1] = b_eq
    T[b_eq < 0.0] *= -1.0
    T[:, k:n_total] = np.eye(m)
    basis = np.arange(k, n_total)
    max_iter = 5000 + 50 * (m + n_total)

    # phase 1: minimize the sum of artificials
    cost1 = np.zeros(n_total + 1)
    cost1[k:n_total] = 1.0
    cost1 -= T.sum(axis=0)
    if _run_simplex(T, basis, cost1, n_total, max_iter) == "unbounded":
        # phase 1 is bounded below by 0 in exact arithmetic, but FEAS_TOL and
        # OPT_TOL are absolute: on badly row-scaled rows the tableau entries
        # grow large and rounding can leave a reduced cost below -OPT_TOL on
        # a column with no entry above FEAS_TOL
        raise NumericalError("phase-1 simplex reported unbounded")
    if -cost1[-1] > infeasible_tol:
        return LpStatus.INFEASIBLE, T, basis
    for r in range(m):
        if basis[r] >= k:
            structural = np.nonzero(np.abs(T[r, :k]) > FEAS_TOL)[0]
            if structural.size:
                _pivot(T, basis, r, int(structural[0]))

    # phase 2: reduced costs of the basis, one basic row at a time
    red = np.zeros(n_total + 1)
    red[:k] = cost
    basic_costs = red[basis]
    for r in np.nonzero(basic_costs != 0.0)[0]:
        red -= basic_costs[r] * T[r]
    if _run_simplex(T, basis, red, k, max_iter) == "unbounded":
        return LpStatus.UNBOUNDED, T, basis
    return LpStatus.OPTIMAL, T, basis


def solve_lp(c, a_ub, b_ub, sense: Sense = Sense.MIN) -> LpResult:
    """Solve ``min`` (or ``max``) ``c.z`` over ``{z : a_ub z <= b_ub}``.

    Free variables; no implicit bounds.  Infeasibility and unboundedness
    are reported through the result status, never raised.
    """
    c, a_ub, b_ub = _lp_data(c, a_ub, b_ub)
    n = c.size
    m = a_ub.shape[0]
    obj = c if sense is Sense.MIN else -c
    # standard form columns: [p (n), q (n), slack (m)] with z = p - q
    status, T, basis = _two_phase(np.hstack([a_ub, -a_ub, np.eye(m)]), b_ub,
                                  np.concatenate([obj, -obj, np.zeros(m)]), 1e-7)
    if status is not LpStatus.OPTIMAL:
        return LpResult(status, np.nan, np.empty(0))
    x = np.zeros(T.shape[1] - 1)
    x[basis] = T[:, -1]
    z = x[:n] - x[n : 2 * n]
    return LpResult(LpStatus.OPTIMAL, float(c @ z), z)
