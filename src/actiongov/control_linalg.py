"""Small dense control-theoretic linear algebra.

Closed-loop assembly, a scaled discrete Lyapunov equation (solved by
Kronecker vectorization), the discrete algebraic Riccati equation
(structure-preserving doubling), its finite-horizon counterpart, and the
spectral radius.

The DARE, the one regulator of the learning pipeline, is checked in
``tests/test_dare_agreement.py`` against the plain fixed-point loop's
outcome and scipy's solution.

Gain sign convention used everywhere: feedback is applied as ``u = K x``,
so stabilizing gains carry their own negative sign.
"""

from __future__ import annotations

import numpy as np

from .convexset import HPolytope
from .errors import InstabilityError, NoStabilizingSolutionError, NumericalError

SCHUR_MARGIN = 1e-9
_DARE_TOL = 1e-9  # relative change of P between doublings that ends the DARE solve
_DARE_MAX_ITER = 64  # doublings


def spectral_radius(m) -> float:
    """Largest eigenvalue magnitude of a square matrix."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.shape[0] != m.shape[1]:
        raise ValueError("spectral radius needs a square matrix")
    try:
        return float(np.max(np.abs(np.linalg.eigvals(m))))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigensolver failure
        raise NumericalError("eigenvalue computation did not converge") from exc


class LinearPlant:
    """Dynamics ``x+ = A x + B u + E w``."""

    __slots__ = ("A", "B", "E")

    def __init__(self, A, B, E):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.B = np.atleast_2d(np.asarray(B, dtype=float))
        self.E = np.atleast_2d(np.asarray(E, dtype=float))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError("A must be square")
        if self.B.shape[0] != n or self.E.shape[0] != n:
            raise ValueError("B and E must have as many rows as A")

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]

    def step(self, x, u, w):
        x = np.asarray(x, dtype=float).ravel()
        u = np.atleast_1d(np.asarray(u, dtype=float))
        w = np.atleast_1d(np.asarray(w, dtype=float))
        return self.A @ x + self.B @ u + self.E @ w


class OutputMap:
    """Constrained output ``y = C x + D u`` with ``y`` restricted to a polytope."""

    __slots__ = ("C", "D", "constraint_set")

    def __init__(self, C, D, constraint_set: HPolytope):
        self.C = np.atleast_2d(np.asarray(C, dtype=float))
        self.D = np.atleast_2d(np.asarray(D, dtype=float))
        if self.D.shape[0] != self.C.shape[0]:
            raise ValueError("C and D must have equal row counts")
        if constraint_set.dim != self.C.shape[0]:
            raise ValueError("constraint set dimension must match output dimension")
        self.constraint_set = constraint_set


class NominalGain:
    """Reference-parameterized feedback ``u = K x + L v``."""

    __slots__ = ("K", "L")

    def __init__(self, K, L):
        self.K = np.atleast_2d(np.asarray(K, dtype=float))
        self.L = np.atleast_2d(np.asarray(L, dtype=float))
        if self.L.shape[0] != self.K.shape[0]:
            raise ValueError("K and L must have equal row counts")

    def policy(self, x, v):
        x = np.asarray(x, dtype=float).ravel()
        v = np.atleast_1d(np.asarray(v, dtype=float))
        return self.K @ x + self.L @ v


class ClosedLoop:
    """Nominal closed loop ``x+ = At x + Bt v + E w``, ``y = Ct x + Dt v``.

    ``At = A + B K``, ``Bt = B L``, ``Ct = C + D K``, ``Dt = D L``.  The
    loop keeps its ``plant``, ``out`` and ``gain``.  The loop matrix must be
    Schur with margin; otherwise construction fails.
    """

    __slots__ = ("At", "Bt", "Ct", "Dt", "plant", "out", "gain")

    def __init__(self, plant: LinearPlant, out: OutputMap, gain: NominalGain):
        if gain.K.shape[1] != plant.n_states or gain.K.shape[0] != plant.n_inputs:
            raise ValueError("gain K must be m x n for the given plant")
        if out.C.shape[1] != plant.n_states or out.D.shape[1] != plant.n_inputs:
            raise ValueError("output map dimensions must match the plant")
        At = plant.A + plant.B @ gain.K
        rho = spectral_radius(At)
        if rho >= 1.0 - SCHUR_MARGIN:
            raise InstabilityError(f"closed-loop spectral radius {rho:.6f} is not < 1")
        self.At = At
        self.Bt = plant.B @ gain.L
        self.Ct = out.C + out.D @ gain.K
        self.Dt = out.D @ gain.L
        self.plant = plant
        self.out = out
        self.gain = gain

    @property
    def n_refs(self) -> int:
        return self.Bt.shape[1]

    def step(self, x, v, w):
        x = np.asarray(x, dtype=float).ravel()
        v = np.atleast_1d(np.asarray(v, dtype=float))
        w = np.atleast_1d(np.asarray(w, dtype=float))
        return self.At @ x + self.Bt @ v + self.plant.E @ w


def dlyap_scaled(At, E, alpha: float):
    """Solve ``(1/alpha) At P At' - P + (1/(1-alpha)) E E' = 0``.

    Requires ``rho(At)^2 < alpha < 1``.  Solved exactly by vectorizing to a
    Kronecker linear system; the residual is checked to 1e-10.
    """
    At = np.atleast_2d(np.asarray(At, dtype=float))
    E = np.atleast_2d(np.asarray(E, dtype=float))
    n = At.shape[0]
    if At.shape != (n, n) or E.shape[0] != n:
        raise ValueError("inconsistent dimensions in dlyap_scaled")
    rho2 = spectral_radius(At) ** 2
    if not (rho2 < alpha < 1.0):
        raise ValueError(
            f"alpha must lie strictly between rho(At)^2 = {rho2:.6f} and 1"
        )
    Q = (1.0 / (1.0 - alpha)) * (E @ E.T)
    M = np.kron(At, At) / alpha - np.eye(n * n)
    try:
        vec_p = np.linalg.solve(M, -Q.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("vectorized Lyapunov system is singular") from exc
    P = vec_p.reshape(n, n)
    P = 0.5 * (P + P.T)
    residual = At @ P @ At.T / alpha - P + Q
    if np.linalg.norm(residual, "fro") >= 1e-10:
        raise NumericalError("Lyapunov residual exceeds tolerance")
    if np.min(np.linalg.eigvalsh(P)) < -1e-10:
        raise NumericalError("Lyapunov solution is not positive semidefinite")
    return P


def dare_solve(A, B, Q, R):
    """Stabilizing solution of the discrete algebraic Riccati equation.

    Structure-preserving doubling (Chu, Fan & Lin 2005): from ``A``,
    ``G = B R^-1 B'`` and ``H = Q``, each doubling solves
    ``(I + G H) [X | Y] = [A | G]`` and sets ``H += A'H X``, ``G += A Y A'``,
    ``A = A X``; ``H`` converges quadratically to ``P``.  One Riccati step at
    ``P`` gives the gain and checks the residual.  Returns ``(P, K)`` with
    the gain in the ``u = K x`` convention, i.e. ``rho(A + B K) < 1``.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    if np.min(np.linalg.eigvalsh(0.5 * (Q + Q.T))) < -1e-12:
        raise ValueError("Q must be positive semidefinite")
    if np.min(np.linalg.eigvalsh(0.5 * (R + R.T))) <= 0.0:
        raise ValueError("R must be positive definite")
    n = A.shape[0]
    eye = np.eye(n)
    Ak, G, H = A, B @ np.linalg.solve(R, B.T), Q
    for _ in range(_DARE_MAX_ITER):
        try:
            XY = np.linalg.solve(eye + G @ H, np.concatenate((Ak, G), axis=1))
        except np.linalg.LinAlgError as exc:
            raise NoStabilizingSolutionError("Riccati doubling became singular") from exc
        H_next = H + Ak.T @ H @ XY[:, :n]
        H_next = 0.5 * (H_next + H_next.T)
        size = np.abs(H_next).max()
        # one test for both NaN/inf and divergence: NaN fails the comparison
        if not size <= 1e14:
            raise NoStabilizingSolutionError("Riccati iteration diverged")
        change = np.abs(H_next - H).max()
        H = H_next
        if change <= _DARE_TOL * (1.0 + size):
            break
        G = G + Ak @ XY[:, n:] @ Ak.T
        Ak = Ak @ XY[:, :n]
    else:
        raise NoStabilizingSolutionError("Riccati iteration exceeded the doubling limit")
    BtH = B.T @ H
    try:
        K = -np.linalg.solve(R + BtH @ B, BtH @ A)
    except np.linalg.LinAlgError as exc:
        raise NoStabilizingSolutionError("Riccati step became singular") from exc
    if np.abs(Q + A.T @ H @ (A + B @ K) - H).max() >= 1e-6:
        raise NoStabilizingSolutionError("Riccati fixed point not reached")
    if spectral_radius(A + B @ K) >= 1.0:
        raise NoStabilizingSolutionError("Riccati gain is not stabilizing")
    return H, K


def riccati_finite(A, B, Q, R, Qf, N: int):
    """Gain at step 0 of the N-step finite-horizon regulator (``u = K x``)."""
    if N < 1:
        raise ValueError("horizon must be at least 1")
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    P = np.atleast_2d(np.asarray(Qf, dtype=float))
    for _ in range(N):
        BtP = B.T @ P
        try:
            K = -np.linalg.solve(R + BtP @ B, BtP @ A)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("singular (R + B'PB) in backward recursion") from exc
        P = Q + A.T @ P @ (A + B @ K)
        P = 0.5 * (P + P.T)
    return K
