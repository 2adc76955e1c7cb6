"""Supervised online learning loops: tabular Q-learning and data-driven
Koopman control, both run through the action supervisor.

The Q-learning loop penalizes proposals by how far the supervisor had to
move them, so the table learns to stay inside the safe action set while
the applied trajectory never violates constraints.  The Koopman loop fits
a lifted linear model recursively from the pre-adjustment actions and
re-solves the infinite-horizon regulator (the DARE) on the lifted state
every step; a model with no stabilizing solution ends the run with
:class:`NoStabilizingSolutionError` at that step.  Both loops, and the
simulator, take every step through :func:`supervised_step`; only the
proposer and the learning update are their own.
"""

from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .control_linalg import _is_pd, dare_solve
from .errors import ActionGovError, NumericalError
from .governor import ActionDistance, GovernorState, govern
from .trajectory import Trajectory


# ---------------------------------------------------------------------------
# the supervised step shared by every loop


@dataclass(kw_only=True)
class SupervisedEnv:
    """The true system a supervised loop runs on.

    ``step(x, u) -> (x_next, w)`` advances it and reports the disturbance;
    ``cost(x, u)`` and ``violated(x, u)`` score the applied action.  With
    ``oracle=None`` the proposals pass through unsupervised.
    """

    initial_state: object
    step: Callable
    cost: Callable
    violated: Callable
    oracle: object = None
    dist: ActionDistance = field(default_factory=ActionDistance)


def supervised_step(env: SupervisedEnv, t: int, x, u1, gs: GovernorState, traj: Trajectory):
    """Govern the proposal ``u1`` at ``x``, advance ``env`` and record step
    ``t`` in ``traj``; ``gs`` is updated in place.  Returns ``(u, x_next,
    cost)``.  The loop's index ``t`` is the one step count: library errors
    of govern, its oracle and the env leave with ``step = t``."""
    try:
        outcome, _ = govern(x, u1, gs, env.oracle, env.dist)
        u = outcome.u
        x_next, w = env.step(x, u)
        cost = env.cost(x, u)
        traj.append(t, x, u1, u, outcome.branch.value, gs.v_hat, w, cost, env.violated(x, u))
    except ActionGovError as exc:
        exc.step = t
        raise
    return u, x_next, cost


# ---------------------------------------------------------------------------
# tabular Q-learning


def require_keys(data, keys, what: str, scalars=()):
    """Raise ``ValueError`` unless ``data``, a saved ``what`` read from
    JSON, is an object holding every key in ``keys``, and each key in
    ``scalars`` holds a number (not a bool)."""
    if not isinstance(data, dict):
        raise ValueError(f"the {what} file holds no JSON object")
    missing = [k for k in keys if k not in data]
    if missing:
        raise ValueError(f"the {what} file lacks the keys {missing}")
    for k in scalars:
        if isinstance(data[k], bool) or not isinstance(data[k], numbers.Real):
            raise ValueError(f"the {what} file's {k!r} must be a number, got {data[k]!r}")


def float_array(data, key: str, what: str) -> np.ndarray:
    """``data[key]`` of a saved ``what`` as a float array; ``ValueError`` if
    it nests anything but numbers and lists."""
    try:
        return np.asarray(data[key], dtype=float)
    except TypeError:
        raise ValueError(f"the {what} file's {key!r} must be an array of numbers") from None


@dataclass
class QTable:
    """Lookup-table Q estimate with its learning hyperparameters."""

    values: np.ndarray
    gamma: float
    alpha: float
    epsilon: float
    penalty_m: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("values must be (n_states, n_actions)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("Q values must be finite")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie in (0, 1)")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        if not (0.0 <= self.epsilon <= 1.0):
            raise ValueError("epsilon must lie in [0, 1]")
        if self.penalty_m <= 0.0:
            raise ValueError("penalty coefficient must be positive")

    @classmethod
    def zeros(cls, n_states, n_actions, gamma=0.95, alpha=0.5, epsilon=0.1, penalty_m=100.0):
        return cls(np.zeros((n_states, n_actions)), gamma, alpha, epsilon, penalty_m)

    def copy(self) -> "QTable":
        return QTable(self.values.copy(), self.gamma, self.alpha, self.epsilon, self.penalty_m)

    def to_dict(self) -> dict:
        return {
            "values": self.values.tolist(),
            "gamma": self.gamma,
            "alpha": self.alpha,
            "epsilon": self.epsilon,
            "penalty_m": self.penalty_m,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QTable":
        require_keys(data, ("values", "gamma", "alpha", "epsilon", "penalty_m"), "Q table",
                     scalars=("gamma", "alpha", "epsilon", "penalty_m"))
        return cls(
            float_array(data, "values", "Q table"),
            data["gamma"],
            data["alpha"],
            data["epsilon"],
            data["penalty_m"],
        )


def epsilon_greedy(q: QTable, state_idx: int, rng) -> int:
    """Greedy action with probability 1 - epsilon, else uniform.

    Greedy ties resolve to the lowest action index.
    """
    if rng.random() < q.epsilon:
        return int(rng.integers(q.values.shape[1]))
    return int(q.values[state_idx].argmax())


def modified_reward(r_applied: float, u1, u, m: float, dist: ActionDistance) -> float:
    """Applied-action reward minus the adjustment penalty."""
    return float(r_applied) - m * dist(u1, u)


def q_target(q: QTable, state_idx: int, action_idx: int, r_tilde: float, next_idx: int) -> float:
    """Blend of the stored estimate and the one-step bootstrapped return."""
    best_next = float(q.values[next_idx].max())
    return (1.0 - q.alpha) * float(q.values[state_idx, action_idx]) + q.alpha * (
        float(r_tilde) + q.gamma * best_next
    )


@dataclass(kw_only=True)
class SafeQEnv(SupervisedEnv):
    """Supervised Q-learning env: ``actions`` maps action indices to the
    action values proposed to the supervisor, and ``state_index`` maps a
    state to its table row.  The reward is minus ``cost``."""

    actions: np.ndarray
    state_index: Callable


def run_safe_q(env: SafeQEnv, q: QTable, t_max: int, big_t_max: int, rng):
    """Run the supervised Q-learning loop for ``big_t_max`` batches of
    ``t_max`` steps; returns the updated table and the trajectory.

    Targets are computed against the table as of the last batch apply and
    written under the pre-adjustment action.  ``t_max = 1`` (immediate
    apply) is the intended setting for lookup tables.
    """
    if t_max < 1 or big_t_max < 1:
        raise ValueError("t_max and big_t_max must be positive")
    q = q.copy()
    gs = GovernorState()
    traj = Trajectory()
    x = env.initial_state
    s = env.state_index(x)
    t = 0
    for _ in range(big_t_max):
        pending = []  # (state, action, target) writes, applied when the batch ends
        for _ in range(t_max):
            a = epsilon_greedy(q, s, rng)
            u1 = np.atleast_1d(np.asarray(env.actions[a], dtype=float))
            u, x_next, cost = supervised_step(env, t, x, u1, gs, traj)
            r_tilde = modified_reward(-cost, u1, u, q.penalty_m, env.dist)
            s_next = env.state_index(x_next)
            pending.append((s, a, q_target(q, s, a, r_tilde, s_next)))
            x, s = x_next, s_next
            t += 1
        for row, col, val in pending:
            q.values[row, col] = val
    return q, traj


# ---------------------------------------------------------------------------
# data-driven Koopman control


@dataclass(frozen=True)
class ObservableMap:
    """Named lifting of the state into observable space.

    The original state coordinates are expected to lead the lifted vector,
    which the shipped maps and the regulator penalties rely on.  A lift of
    the wrong size is a ``ValueError``; a non-finite one, the mark of a
    diverged state, a :class:`NumericalError`.
    """

    fn: Callable
    n_z: int
    name: str = ""

    def __call__(self, x) -> np.ndarray:
        z = np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float).ravel()
        if z.size != self.n_z:
            raise ValueError(f"observable map returned {z.size} values, expected {self.n_z}")
        if not np.all(np.isfinite(z)):
            raise NumericalError("observable map produced non-finite values")
        return z


class KoopmanModel:
    """Lifted-state linear model with its recursive estimator state."""

    __slots__ = ("A", "B", "gamma_cov", "lam", "observables")

    def __init__(self, A, B, gamma_cov, lam: float, observables: ObservableMap):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.B = np.atleast_2d(np.asarray(B, dtype=float))
        nz = observables.n_z
        if self.A.shape != (nz, nz):
            raise ValueError("A must be n_z x n_z")
        if self.B.shape[0] != nz:
            raise ValueError("B must have n_z rows")
        p = nz + self.B.shape[1]
        gamma_cov = np.atleast_2d(np.asarray(gamma_cov, dtype=float))
        if gamma_cov.shape != (p, p):
            raise ValueError("covariance must be (n_z + m) square")
        if np.max(np.abs(gamma_cov - gamma_cov.T)) > 1e-9:
            raise ValueError("covariance must be symmetric")
        if np.min(np.linalg.eigvalsh(gamma_cov)) <= 0.0:
            raise ValueError("covariance must be positive definite")
        if not (0.0 < lam <= 1.0):
            raise ValueError("forgetting factor must lie in (0, 1]")
        self.gamma_cov = gamma_cov
        self.lam = float(lam)
        self.observables = observables

    @classmethod
    def initial(cls, A0, B0, observables: ObservableMap, lam: float = 1.0, delta: float = 1e3):
        nz = observables.n_z
        m = np.atleast_2d(np.asarray(B0, dtype=float)).shape[1]
        return cls(A0, B0, delta * np.eye(nz + m), lam, observables)

    def to_dict(self) -> dict:
        return {
            "A": self.A.tolist(),
            "B": self.B.tolist(),
            "gamma_cov": self.gamma_cov.tolist(),
            "lam": self.lam,
            "observables": self.observables.name,
            "n_z": self.observables.n_z,
        }


def rls_update(km: KoopmanModel, z_prev, u1_prev, z_now) -> KoopmanModel:
    """One recursive least-squares step on a transition of lifted states;
    returns a new model and leaves ``km`` unchanged.

    The correction pairs the prediction error with a gain row built from
    the covariance; the covariance is deflated by the forgetting factor and
    re-symmetrized every step.  A covariance that is not finite, or no
    longer positive definite, raises :class:`NumericalError`: the Cholesky
    test alone lets some NaN and infinite entries through.
    """
    u1_prev = np.atleast_1d(np.asarray(u1_prev, dtype=float))
    phi = np.concatenate([z_prev, u1_prev])
    gamma_phi = km.gamma_cov @ phi
    denom = float(phi @ gamma_phi) + km.lam
    if abs(denom) < 1e-14:
        raise NumericalError("vanishing denominator in the recursive update")
    gain_row = gamma_phi / denom
    err = z_now - km.A @ z_prev - km.B @ u1_prev
    theta = np.hstack([km.A, km.B]) + np.outer(err, gain_row)
    new_cov = (km.gamma_cov - np.outer(gamma_phi, gain_row)) / km.lam
    new_cov = 0.5 * (new_cov + new_cov.T)
    if not np.isfinite(new_cov).all():
        raise NumericalError("the recursive update produced a non-finite covariance")
    if not _is_pd(new_cov):
        raise NumericalError("the recursive update lost positive definiteness")
    nz = km.observables.n_z
    new = copy.copy(km)
    new.A, new.B, new.gamma_cov = theta[:, :nz], theta[:, nz:], new_cov
    return new


def koopman_control(km: KoopmanModel, z, q_z, r_u):
    """First action of the infinite-horizon regulator at the lifted state ``z``.

    A model with no stabilizing solution raises
    :class:`NoStabilizingSolutionError`; there is no other regulator.
    """
    _, K = dare_solve(km.A, km.B, q_z, r_u)
    return K @ z


@dataclass(kw_only=True)
class KoopmanEnv(SupervisedEnv):
    """Supervised Koopman learning env: the regulator penalties ``q_z`` and
    ``r_u``, and ``sample_reset(rng)``, which draws a state inside the safe
    projection so supervision stays feasible after every reset."""

    q_z: np.ndarray
    r_u: np.ndarray
    sample_reset: Callable


def run_safe_koopman(env: KoopmanEnv, km: KoopmanModel, steps: int, reset_every, rng):
    """Supervised control-and-identify loop; returns the final model and
    the trajectory.

    The state is redrawn with ``env.sample_reset`` every ``reset_every``
    steps, a positive integer or ``inf`` for no resets.  Model updates
    always pair the pre-adjustment action with the observed transition of
    the supervised system, so the estimator learns the dynamics as seen
    through the supervisor.  Each state is lifted once (``km.observables``)
    for the regulator and the update; ``km`` is left unchanged.  The start
    state's lift belongs to step 0 and a reset draw to the step it starts:
    library errors of the draw, the lift, the regulator, the supervised
    step and the update leave with ``step`` set to that step's index.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    if not (reset_every == math.inf
            or (isinstance(reset_every, numbers.Integral) and reset_every >= 1)):
        raise ValueError(f"reset period must be a positive integer or inf, got {reset_every!r}")
    gs = GovernorState()
    traj = Trajectory()
    x = np.asarray(env.initial_state, dtype=float).copy()
    for t in range(steps):
        try:
            if t == 0:
                z = km.observables(x)
            # t % inf is t, so an infinite period never resets
            elif t % reset_every == 0:
                x = np.asarray(env.sample_reset(rng), dtype=float)
                z = km.observables(x)
            u1 = np.atleast_1d(koopman_control(km, z, env.q_z, env.r_u))
            _, x_next, _ = supervised_step(env, t, x, u1, gs, traj)
            z_next = km.observables(x_next)
            km = rls_update(km, z, u1, z_next)
        except ActionGovError as exc:
            exc.step = t
            raise
        x, z = np.asarray(x_next, dtype=float), z_next
    return km, traj
