"""Small inequality-form linear programs: a dense two-phase simplex and a
certified decision routine built on it.

:func:`solve_lp` solves ``min/max c.z  s.t.  A z <= b`` with free variables,
by splitting ``z = p - q`` (``p, q >= 0``), adding one slack per row and one
artificial per row for phase 1.  Pivot columns follow Dantzig's rule until
progress stalls, then switch to Bland's rule, which rules out cycling; the
pivot sequence is deterministic either way, so reported optimizers are
reproducible.  Intended scale is tens of variables and a few hundred rows;
everything is kept as a dense numpy tableau with vectorized pivots.

:func:`max_exceeds` answers only whether ``max c.z`` exceeds a threshold.
It runs the same simplex on the standard-form dual, whose tableau has one
row per variable, and bounds the optimum from both sides with explicitly
checked residuals (weak duality, as in Neumaier & Shcherbina, Math. Prog.
2004).  When the threshold is not clear of those bounds by
``DECISION_MARGIN`` it falls back to :func:`solve_lp`, so its answers are
the ones :func:`solve_lp` gives.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
DECISION_MARGIN = 1e-6  # relative gap a certified bound must keep from a threshold
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
            basis_arr = np.asarray(basis)
            leave = int(tied[np.argmin(basis_arr[tied])])
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


def solve_lp(c, a_ub, b_ub, sense: Sense = Sense.MIN) -> LpResult:
    """Solve ``min`` (or ``max``) ``c.z`` over ``{z : a_ub z <= b_ub}``.

    Free variables; no implicit bounds.  Infeasibility and unboundedness
    are reported through the result status, never raised.
    """
    c, a_ub, b_ub = _lp_data(c, a_ub, b_ub)
    n = c.size
    m = a_ub.shape[0]

    obj = c if sense is Sense.MIN else -c
    if m == 0:
        # unconstrained: optimal iff the objective is identically zero
        if np.all(np.abs(obj) <= OPT_TOL):
            return LpResult(LpStatus.OPTIMAL, 0.0, np.zeros(n))
        return LpResult(LpStatus.UNBOUNDED, np.nan, np.empty(0))

    # standard form columns: [p (n), q (n), slack (m), artificial (m)]
    n_struct = 2 * n + m
    n_total = n_struct + m
    T = np.zeros((m, n_total + 1))
    T[:, :n] = a_ub
    T[:, n : 2 * n] = -a_ub
    T[:, 2 * n : 2 * n + m] = np.eye(m)
    T[:, -1] = b_ub
    neg = T[:, -1] < 0.0
    T[neg] *= -1.0
    T[:, n_struct:n_total] = np.eye(m)
    basis = [n_struct + r for r in range(m)]

    max_iter = 5000 + 50 * (m + n_total)

    # phase 1: minimize the sum of artificials
    cost1 = np.zeros(n_total + 1)
    cost1[n_struct:n_total] = 1.0
    cost1 -= T.sum(axis=0)
    state = _run_simplex(T, basis, cost1, n_total, max_iter)
    if state == "unbounded":
        # phase 1 is bounded below by 0 in exact arithmetic, but FEAS_TOL and
        # OPT_TOL are absolute: on badly row-scaled rows the tableau entries
        # grow large and rounding can leave a reduced cost below -OPT_TOL on
        # a column with no entry above FEAS_TOL
        raise NumericalError("phase-1 simplex reported unbounded")
    if -cost1[-1] > 1e-7:
        return LpResult(LpStatus.INFEASIBLE, np.nan, np.empty(0))
    # drive leftover artificials out of the basis
    for r in range(m):
        if basis[r] >= n_struct:
            structural = np.nonzero(np.abs(T[r, :n_struct]) > FEAS_TOL)[0]
            if structural.size:
                _pivot(T, basis, r, int(structural[0]))
            # else: redundant row, harmless to leave a zero-level artificial

    # phase 2 on the structural columns only (artificials are never
    # entering candidates because the scan stops at n_struct)
    cost2 = np.zeros(n_total + 1)
    cost2[:n] = obj
    cost2[n : 2 * n] = -obj
    red = cost2.copy()
    basic_costs = cost2[np.asarray(basis)]
    nz = np.nonzero(basic_costs != 0.0)[0]
    for r in nz:
        red -= basic_costs[r] * T[r]
    state = _run_simplex(T, basis, red, n_struct, max_iter)
    if state == "unbounded":
        return LpResult(LpStatus.UNBOUNDED, np.nan, np.empty(0))

    x = np.zeros(n_total)
    for r in range(m):
        if basis[r] < n_total:
            x[basis[r]] = T[r, -1]
    z = x[:n] - x[n : 2 * n]
    value = float(c @ z)
    return LpResult(LpStatus.OPTIMAL, value, z)


def _dual_bounds(c, a_ub, b_ub):
    """Bounds ``(lo, hi)`` on ``max c.z`` over ``{a_ub z <= b_ub}`` from the
    dual simplex basis, or ``None`` when no basis certifies them.

    The two-phase simplex runs on ``min b.y  s.t.  a_ub^T y = c, y >= 0``
    (n rows, m + n columns with the phase-1 artificials).  Its final basis
    names n rows of ``a_ub``; the vertex ``z`` and the multiplier ``y`` are
    solved afresh from those rows, so the tableau's rounding does not carry
    over.  The basis certifies only if ``y >= 0`` and ``z`` satisfies every
    row, each up to ``FEAS_TOL`` relative to the data; then

    * ``lo = c.z - (1.y) max(a_ub z - b_ub)_+``: ``z`` is feasible once the
      rows are loosened by its largest violation, which moves the optimum
      by at most ``1.y`` times that amount;
    * ``hi = b.y + |a_ub^T y - c|.|z|``: weak duality, widened by the dual
      residual at the vertex.

    An empty set, an unbounded objective, a rank-deficient ``a_ub`` or a
    basis that fails the checks gives ``None``.
    """
    m, n = a_ub.shape
    n_cols = m + n
    T = np.zeros((n, n_cols + 1))
    T[:, :m] = a_ub.T
    T[:, -1] = c
    T[c < 0.0] *= -1.0
    T[:, m:n_cols] = np.eye(n)
    basis = list(range(m, n_cols))
    max_iter = 5000 + 50 * (n + n_cols)

    cost1 = np.zeros(n_cols + 1)
    cost1[m:n_cols] = 1.0
    cost1 -= T.sum(axis=0)
    if (_run_simplex(T, basis, cost1, n_cols, max_iter) == "unbounded"
            or -cost1[-1] > FEAS_TOL * (1.0 + np.abs(c).max())):
        return None  # no dual point: the set is empty or the maximum is unbounded
    for r in range(n):
        if basis[r] >= m:
            structural = np.nonzero(np.abs(T[r, :m]) > FEAS_TOL)[0]
            if not structural.size:
                return None  # a_ub has rank below n: no vertex
            _pivot(T, basis, r, int(structural[0]))
    cost2 = np.zeros(n_cols + 1)
    cost2[:m] = b_ub
    rows = np.asarray(basis)
    cost2 -= cost2[rows] @ T
    if _run_simplex(T, basis, cost2, m, max_iter) == "unbounded":
        return None  # the dual is unbounded: the set is empty

    rows = np.asarray(basis)
    a_b = a_ub[rows]
    try:
        z = np.linalg.solve(a_b, b_ub[rows])
        y = np.linalg.solve(a_b.T, c)
    except np.linalg.LinAlgError:
        return None
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(y))):
        return None
    violation = max(float(np.max(a_ub @ z - b_ub)), 0.0)
    if y.min() < -FEAS_TOL * (1.0 + np.abs(y).max()) or violation > FEAS_TOL * (
        1.0 + np.abs(b_ub).max()
    ):
        return None  # the basis is not optimal: y < 0 or z outside the set
    y = np.maximum(y, 0.0)
    lo = float(c @ z) - violation * float(y.sum())
    hi = float(b_ub[rows] @ y) + float(np.abs(a_b.T @ y - c) @ np.abs(z))
    return lo, hi


def max_exceeds(c, a_ub, b_ub, threshold) -> bool:
    """Decide whether ``sup {c.z : a_ub z <= b_ub}`` exceeds ``threshold``.

    The supremum of an empty set is -inf and that of an unbounded objective
    +inf, so those answer False and True.  Sized for few variables: the
    dual tableau has one row per variable.  The certified bounds of
    :func:`_dual_bounds` decide when the threshold lies more than
    ``DECISION_MARGIN * (1 + |threshold|)`` outside them; otherwise
    :func:`solve_lp` decides.
    """
    c, a_ub, b_ub = _lp_data(c, a_ub, b_ub)
    threshold = float(threshold)
    bounds = _dual_bounds(c, a_ub, b_ub) if a_ub.size else None
    if bounds is not None:
        margin = DECISION_MARGIN * (1.0 + abs(threshold))
        if bounds[0] > threshold + margin:
            return True
        if bounds[1] < threshold - margin:
            return False
    res = solve_lp(c, a_ub, b_ub, Sense.MAX)
    if res.status is LpStatus.OPTIMAL:
        return res.value > threshold
    return res.status is LpStatus.UNBOUNDED
