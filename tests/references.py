"""Reference routines that only the tests use: set intersection and
inclusion by LP supports, HiGHS supports at tight tolerances, the
certified LP decision (weak-duality bounds from a simplex on the dual,
the simplex itself near the threshold), the admissible-set build by those
decisions (with LP redundancy removal, Fourier-Motzkin projection and LP
supports) that the vertex build must agree with, the batch
least-squares fit the recursive estimator must match, the identity lifting
for linear test systems, the plain fixed-point DARE loop whose outcome the
doubling DARE must reach, the doubling DARE and the recursive update as
written with ``@`` products, whose bytes the library's ``np.dot``
versions must return, the plain finite-horizon Riccati recursion the
library's loop must match bitwise (and the random two-input models
all three are checked on), the whole-grid classification stages the slice-wise
library stages must match exactly, the grid oracle's feasible actions its
memo must match, the admissible-set oracle's action polytope its prebuilt
rows must match, membership queries on both oracles' safe sets, and the
plant step on any array-likes that ``simlab.true_step`` must match."""

import copy
from types import SimpleNamespace

import numpy as np
from scipy.optimize import linprog

from actiongov import lp
from actiongov.control_linalg import (
    _DARE_MAX_ITER,
    _DARE_TOL,
    _eigvalsh,
    _is_pd,
    _radius,
    _singular,
    _solve,
    dlyap_scaled,
    spectral_radius,
)
from actiongov.convexset import DEFAULT_TOL, HPolytope, _dedupe_rows
from actiongov.discrete_safeset import (
    MINUS,
    REMAIN,
    SAFE_PLUS,
    WITNESS_CONSTRAINT,
    WITNESS_NONE,
    GridSpec,
)
from actiongov.errors import (
    EmptySetError,
    MoasConstructionError,
    MoasNotDeterminedError,
    NoStabilizingSolutionError,
    NumericalError,
    SeedConstructionError,
    UnboundedSetError,
)
from actiongov.moas import Moas
from actiongov.safe_learning import ObservableMap
from ellipsoids import Ellipsoid, ellipsoid_support


def intersect(p: HPolytope, q: HPolytope) -> HPolytope:
    if q.dim != p.dim:
        raise ValueError("dimension mismatch in intersection")
    return HPolytope(np.vstack([p.normals, q.normals]), np.concatenate([p.offsets, q.offsets]))


def lp_support(poly: HPolytope, direction) -> float:
    """``sup_P a.z`` by the library's simplex, the negated minimum of
    ``-a.z``; raises as :func:`actiongov.convexset.support` does."""
    res = lp.solve_lp(np.negative(direction, dtype=float), poly.normals, poly.offsets)
    if res.status is lp.LpStatus.INFEASIBLE:
        raise EmptySetError("support of an empty polytope")
    if res.status is lp.LpStatus.UNBOUNDED:
        raise UnboundedSetError("support is unbounded in the given direction")
    return -res.value


def is_subset(p: HPolytope, q: HPolytope, tol: float = DEFAULT_TOL) -> bool:
    """True iff every halfspace of ``q`` is satisfied by all of ``p``."""
    if p.dim != q.dim:
        raise ValueError("dimension mismatch in subset test")
    if p.is_empty:
        raise EmptySetError("subset test requires a nonempty left operand")
    for a, b in zip(q.normals, q.offsets):
        try:
            if lp_support(p, a) > b + tol:
                return False
        except UnboundedSetError:
            return False
    return True


HIGHS_TIGHT = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def _highs_ray(c, a_ub) -> bool:
    """Whether HiGHS finds a ray along ``c`` in the recession cone of
    ``{a_ub z <= b_ub}``: ``max c.r`` over ``a_ub r <= 0``, ``|r| <= 1``,
    exceeds 1e-9."""
    ray = linprog(-c, A_ub=a_ub, b_ub=np.zeros(a_ub.shape[0]), bounds=[(-1, 1)] * c.size,
                  method="highs", options=HIGHS_TIGHT)
    return ray.status == 0 and -ray.fun > 1e-9


def highs_bounded(a_ub) -> bool:
    """Whether HiGHS finds the recession cone of ``{a_ub z <= b_ub}`` to be
    ``{0}``: no ray along any ``+-e_i``.  A ray ``r`` scaled to
    ``max |r_i| = 1`` would reach 1 along one of them."""
    a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
    n = a_ub.shape[1]
    return not any(_highs_ray(d, a_ub) for d in np.vstack([np.eye(n), -np.eye(n)]))


def highs_support(c, a_ub, b_ub, bounded=False):
    """HiGHS's ``(status, max c.z)`` over ``{a_ub z <= b_ub}`` at its
    tightest tolerances: status 0 optimal, 2 infeasible, 3 unbounded.
    Unboundedness is decided on the recession cone, where HiGHS itself can
    report numerical trouble at these tolerances.  ``bounded=True``, when
    :func:`highs_bounded` holds for ``a_ub``, skips that LP."""
    c = np.asarray(c, dtype=float)
    a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
    free = [(None, None)] * c.size
    if not bounded and np.any(c) and _highs_ray(c, a_ub):
        feasible = linprog(np.zeros(c.size), A_ub=a_ub, b_ub=b_ub, bounds=free,
                           method="highs", options=HIGHS_TIGHT)
        return (3, np.inf) if feasible.status == 0 else (2, np.nan)
    ref = linprog(-c, A_ub=a_ub, b_ub=b_ub, bounds=free, method="highs", options=HIGHS_TIGHT)
    return ref.status, (-ref.fun if ref.status == 0 else np.nan)


DECISION_MARGIN = 1e-6  # relative gap a certified bound must keep from a threshold


def _dual_bounds(c, a_ub, b_ub):
    """Bounds ``(lo, hi)`` on ``max c.z`` over ``{a_ub z <= b_ub}`` from the
    dual simplex basis, or ``None`` when no basis certifies them.

    The two-phase simplex runs on ``min b.y  s.t.  a_ub^T y = c, y >= 0``
    (n rows, m + n columns with the phase-1 artificials).  Its final basis
    names n rows of ``a_ub``; the vertex ``z`` and the multiplier ``y`` are
    solved afresh from those rows, so the tableau's rounding does not carry
    over.  The basis certifies only if ``y >= 0`` and ``z`` satisfies every
    row, each up to ``lp.FEAS_TOL`` relative to the data; then

    * ``lo = c.z - (1.y) max(a_ub z - b_ub)_+``: ``z`` is feasible once the
      rows are loosened by its largest violation, which moves the optimum
      by at most ``1.y`` times that amount;
    * ``hi = b.y + |a_ub^T y - c|.|z|``: weak duality, widened by the dual
      residual at the vertex.

    An empty set, an unbounded objective, a rank-deficient ``a_ub``, a
    simplex that fails numerically or a basis that fails the checks gives
    ``None``.
    """
    m = a_ub.shape[0]
    try:
        status, _, rows = lp._two_phase(a_ub.T, c, b_ub, lp.FEAS_TOL * (1.0 + np.abs(c).max()))
    except NumericalError:
        return None
    # an infeasible dual means an empty set or an unbounded maximum, an
    # unbounded one an empty set; an artificial left basic, rank below n
    if status is not lp.LpStatus.OPTIMAL or rows.max() >= m:
        return None

    a_b = a_ub[rows]
    try:
        z = np.linalg.solve(a_b, b_ub[rows])
        y = np.linalg.solve(a_b.T, c)
    except np.linalg.LinAlgError:
        return None
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(y))):
        return None
    violation = max(float(np.max(a_ub @ z - b_ub)), 0.0)
    if y.min() < -lp.FEAS_TOL * (1.0 + np.abs(y).max()) or violation > lp.FEAS_TOL * (
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
    :func:`lp.solve_lp` decides.
    """
    c, a_ub, b_ub = lp._lp_data(c, a_ub, b_ub)
    threshold = float(threshold)
    bounds = _dual_bounds(c, a_ub, b_ub) if a_ub.size else None
    if bounds is not None:
        margin = DECISION_MARGIN * (1.0 + abs(threshold))
        if bounds[0] > threshold + margin:
            return True
        if bounds[1] < threshold - margin:
            return False
    res = lp.solve_lp(-c, a_ub, b_ub)
    if res.status is lp.LpStatus.OPTIMAL:
        return -res.value > threshold
    return res.status is lp.LpStatus.UNBOUNDED


def pontryagin_diff_lp(poly: HPolytope, map_matrix, w_set: HPolytope) -> HPolytope:
    """``poly (-) map_matrix W`` with one LP support of W per row."""
    map_matrix = np.atleast_2d(np.asarray(map_matrix, dtype=float))
    if w_set.is_empty:
        raise EmptySetError("Pontryagin difference with an empty subtrahend")
    shrink = np.array([lp_support(w_set, map_matrix.T @ a) for a in poly.normals])
    return HPolytope(poly.normals, poly.offsets - shrink)


def remove_redundancy_lp(poly: HPolytope) -> HPolytope:
    """Minimal H-representation: each row is kept iff relaxing its bound by
    1 lets its value exceed the bound, one certified LP decision per row."""
    if poly.is_empty:
        raise EmptySetError("cannot reduce an empty polytope")
    normals, offsets = _dedupe_rows(poly.normals.copy(), poly.offsets.copy())
    active = list(range(normals.shape[0]))
    i = 0
    while i < len(active):
        row = active[i]
        others = [r for r in active if r != row]
        test_n = np.vstack([normals[others], normals[row][None, :]])
        test_b = np.concatenate([offsets[others], [offsets[row] + 1.0]])
        if max_exceeds(normals[row], test_n, test_b, offsets[row] + DEFAULT_TOL):
            i += 1
        else:
            active.pop(i)
    return HPolytope(normals[active], offsets[active])


def _eliminate_one(normals, offsets, col, tol=1e-11):
    """Fourier-Motzkin elimination of a single column."""
    a = normals[:, col]
    zero = np.abs(a) <= tol
    pos = a > tol
    neg = a < -tol
    kept_n = [normals[zero]]
    kept_b = [offsets[zero]]
    if np.any(pos) and np.any(neg):
        pn = normals[pos] / a[pos, None]
        pb = offsets[pos] / a[pos]
        nn = normals[neg] / (-a[neg, None])
        nb = offsets[neg] / (-a[neg])
        comb_n = pn[:, None, :] + nn[None, :, :]
        comb_b = pb[:, None] + nb[None, :]
        kept_n.append(comb_n.reshape(-1, normals.shape[1]))
        kept_b.append(comb_b.ravel())
    new_n = np.vstack(kept_n)
    new_b = np.concatenate(kept_b)
    return np.delete(new_n, col, axis=1), new_b


def project_out_fm(poly: HPolytope, dims) -> HPolytope:
    """Project away the listed coordinates by Fourier-Motzkin elimination,
    removing redundant rows after each eliminated variable."""
    normals, offsets = poly.normals.copy(), poly.offsets.copy()
    for col in reversed(sorted(set(int(d) for d in np.atleast_1d(dims)))):
        normals, offsets = _eliminate_one(normals, offsets, col)
        normals, offsets = _dedupe_rows(normals, offsets)
        reduced = remove_redundancy_lp(HPolytope(normals, offsets))
        normals, offsets = reduced.normals.copy(), reduced.offsets.copy()
    return HPolytope(normals, offsets)


def build_moas_reference(cl, w_set, v_bounds, epsilon=0.01, t_cap=500) -> Moas:
    """``moas.build_moas`` with each candidate row's cut decided by an LP
    over the stacked rows (:func:`max_exceeds`), and the LP routines above
    for the shrinks, the redundancy removal and the projection."""
    if w_set.is_empty:
        raise MoasConstructionError("disturbance set is empty")
    out = cl.out
    H = out.constraint_set.normals
    h = out.constraint_set.offsets
    n = cl.At.shape[0]
    r = cl.n_refs
    E = cl.plant.E
    eye = np.eye(n)
    a_pow = eye.copy()
    geo_sum = np.zeros((n, n))
    h_t = h.copy()

    def layer_rows(a_pow_t, geo_sum_t, offsets_t):
        m_t = cl.Ct @ geo_sum_t @ cl.Bt + cl.Dt
        return np.hstack([H @ cl.Ct @ a_pow_t, H @ m_t]), offsets_t.copy()

    rows, offs = layer_rows(a_pow, geo_sum, h_t)
    all_rows = [rows, np.hstack([np.zeros((v_bounds.n_rows, n)), v_bounds.normals])]
    all_offs = [offs, v_bounds.offsets]
    t_star = None
    y_t = out.constraint_set
    for t in range(t_cap):
        y_t = pontryagin_diff_lp(y_t, cl.Ct @ a_pow @ E, w_set)
        if y_t.is_empty:
            raise MoasConstructionError(
                f"output constraints became empty after {t + 1} disturbance steps"
            )
        geo_sum = geo_sum + a_pow
        a_pow = a_pow @ cl.At
        h_t = y_t.offsets
        cand_rows, cand_offs = layer_rows(a_pow, geo_sum, h_t)
        cur_rows, cur_offs = np.vstack(all_rows), np.concatenate(all_offs)
        cutting = [
            i
            for i, (a, b) in enumerate(zip(cand_rows, cand_offs))
            if max_exceeds(a, cur_rows, cur_offs, b + 1e-9)
        ]
        if not cutting:
            t_star = t
            break
        all_rows.append(cand_rows[cutting])
        all_offs.append(cand_offs[cutting])
    if t_star is None:
        raise MoasNotDeterminedError(f"no finite determination within t_cap = {t_cap}")
    m_inf = cl.Ct @ np.linalg.solve(eye - cl.At, cl.Bt) + cl.Dt
    all_rows.append(np.hstack([np.zeros((H.shape[0], n)), H @ m_inf]))
    all_offs.append((1.0 - epsilon) * h_t)
    stacked = HPolytope(np.vstack(all_rows), np.concatenate(all_offs))
    if stacked.is_empty:
        raise MoasConstructionError("admissible set is empty")
    set_xv = remove_redundancy_lp(stacked)
    proj_x = project_out_fm(set_xv, list(range(n, n + r)))
    proj_x_shrunk = pontryagin_diff_lp(proj_x, E, w_set)
    return Moas(t_star, set_xv, proj_x, proj_x_shrunk, epsilon)


def batch_fit(z_plus, z, u1, ridge: float = 0.0):
    """Least-squares fit of ``z+ ~ A z + B u`` from column-sample matrices.

    Uses the pseudoinverse, so rank-deficient data yields the minimum-norm
    solution; a ridge term is available when explicit regularization is
    preferred.
    """
    z_plus = np.atleast_2d(np.asarray(z_plus, dtype=float))
    z = np.atleast_2d(np.asarray(z, dtype=float))
    u1 = np.atleast_2d(np.asarray(u1, dtype=float))
    if not (z_plus.shape[1] == z.shape[1] == u1.shape[1]):
        raise ValueError("sample counts must agree across z+, z and u")
    g = np.vstack([z, u1])
    if ridge > 0.0:
        gram = g @ g.T + ridge * np.eye(g.shape[0])
        theta = z_plus @ g.T @ np.linalg.inv(gram)
    else:
        theta = z_plus @ np.linalg.pinv(g)
    nz = z.shape[0]
    return theta[:, :nz], theta[:, nz:]


def prediction_residual(A, B, z_plus, z, u1) -> float:
    """Frobenius-norm fit diagnostic for a lifted linear model."""
    return float(np.linalg.norm(z_plus - A @ z - B @ u1, "fro"))


def identity_observables(n: int) -> ObservableMap:
    return ObservableMap(fn=lambda x: x, n_z=n, name="identity")


def hpolytope_from_dict(data: dict) -> HPolytope:
    """The inverse of ``HPolytope.to_dict``."""
    return HPolytope(np.asarray(data["normals"], dtype=float),
                     np.asarray(data["offsets"], dtype=float))


def plant_step(plant, x, u, w) -> np.ndarray:
    """``A x + B u + E w`` of ``plant`` for any array-likes: ``x`` is
    flattened, ``u`` and ``w`` taken as vectors."""
    x = np.asarray(x, dtype=float).ravel()
    u = np.atleast_1d(np.asarray(u, dtype=float))
    w = np.atleast_1d(np.asarray(w, dtype=float))
    return plant.A @ x + plant.B @ u + plant.E @ w


def closed_loop_step(cl, x, v, w) -> np.ndarray:
    """``At x + Bt v + E w`` of the closed loop ``cl`` for any array-likes:
    ``x`` is flattened, ``v`` and ``w`` taken as vectors."""
    x = np.asarray(x, dtype=float).ravel()
    v = np.atleast_1d(np.asarray(v, dtype=float))
    w = np.atleast_1d(np.asarray(w, dtype=float))
    return cl.At @ x + cl.Bt @ v + cl.plant.E @ w


def output_admissible(out, x, u, tol: float = 1e-9) -> bool:
    """Whether the output ``C x + D u`` of ``out`` meets its constraint set."""
    y = out.C @ np.asarray(x, dtype=float).ravel() + out.D @ np.atleast_1d(
        np.asarray(u, dtype=float)
    )
    return out.constraint_set.contains(y, tol=tol)


def _riccati_map(P, A, B, Q, R):
    G = R + B.T @ P @ B
    K = -np.linalg.solve(G, B.T @ P @ A)
    return Q + A.T @ P @ (A + B @ K), K


def dare_reference(A, B, Q, R, tol: float = 1e-9, max_iter: int = 100000):
    """The fixed-point DARE iteration from ``P0 = Q``, written plainly;
    ``control_linalg.dare_solve`` must solve where it solves and raise the
    same type where it raises."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    if np.min(np.linalg.eigvalsh(0.5 * (Q + Q.T))) < -1e-12:
        raise ValueError("Q must be positive semidefinite")
    if np.min(np.linalg.eigvalsh(0.5 * (R + R.T))) <= 0.0:
        raise ValueError("R must be positive definite")
    P = Q.copy()
    for _ in range(max_iter):
        try:
            P_next, K = _riccati_map(P, A, B, Q, R)
        except np.linalg.LinAlgError as exc:
            raise NoStabilizingSolutionError("Riccati step became singular") from exc
        P_next = 0.5 * (P_next + P_next.T)
        if not np.all(np.isfinite(P_next)) or np.max(np.abs(P_next)) > 1e14:
            raise NoStabilizingSolutionError("Riccati iteration diverged")
        if np.max(np.abs(P_next - P)) < tol:
            P = P_next
            break
        P = P_next
    else:
        raise NoStabilizingSolutionError("Riccati iteration exceeded the sweep limit")
    P_check, K = _riccati_map(P, A, B, Q, R)
    if np.max(np.abs(P_check - P)) >= 1e-6:
        raise NoStabilizingSolutionError("Riccati fixed point not reached")
    if spectral_radius(A + B @ K) >= 1.0:
        raise NoStabilizingSolutionError("Riccati gain is not stabilizing")
    return P, K


def dare_solve_reference(A, B, Q, R):
    """``control_linalg.dare_solve`` as written with ``@`` products and
    ``Ak @ XY[:, n:] @ Ak.T``: structure-preserving doubling, then one
    Riccati step at ``P``.  The library must return its bytes."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    n = A.shape[0]
    eye = np.eye(n)
    with np.errstate(all="ignore"):
        # syevd may return finite eigenvalues for a matrix holding NaN, so
        # finiteness is tested first
        if not (np.isfinite(Q).all() and _eigvalsh(0.5 * (Q + Q.T)).min() >= -1e-12):
            raise ValueError("Q must be positive semidefinite")
        if not (np.isfinite(R).all() and _eigvalsh(0.5 * (R + R.T)).min() > 0.0):
            raise ValueError("R must be positive definite")
        Ak, G, H = A, B @ _solve(R, B.T), Q
        for _ in range(_DARE_MAX_ITER):
            lhs, rhs = eye + G @ H, np.concatenate((Ak, G), axis=1)
            XY = _solve(lhs, rhs)
            H_next = H + Ak.T @ H @ XY[:, :n]
            H_next = 0.5 * (H_next + H_next.T)
            size = np.abs(H_next).max()
            # one test for singular solves, NaN/inf and divergence: NaN fails it
            if not size <= 1e14:
                # an exactly singular R can pass the eigenvalue test by rounding
                if _singular(R, B.T):
                    raise ValueError("R must be positive definite")
                if _singular(lhs, rhs):
                    raise NoStabilizingSolutionError("Riccati doubling became singular")
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
        lhs, rhs = R + BtH @ B, BtH @ A
        K = -_solve(lhs, rhs)
        # NaN, from a singular step, fails the test as well; a finite
        # residual leaves A + B K finite for the eigenvalue solver
        if not np.abs(Q + A.T @ H @ (A + B @ K) - H).max() < 1e-6:
            if _singular(lhs, rhs):
                raise NoStabilizingSolutionError("Riccati step became singular")
            raise NoStabilizingSolutionError("Riccati fixed point not reached")
        if _radius(A + B @ K) >= 1.0:
            raise NoStabilizingSolutionError("Riccati gain is not stabilizing")
    return H, K


def rls_update_reference(km, z_prev, u1_prev, z_now):
    """``safe_learning.rls_update`` as written with ``@``, ``np.outer``,
    ``np.hstack`` and ``copy.copy``: one recursive least-squares step.
    The library must return a model of its bytes."""
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


def riccati_finite_reference(A, B, Q, R, Qf, N: int):
    """The plain backward recursion behind ``control_linalg.riccati_finite``."""
    A, B, Q, R = (np.atleast_2d(np.asarray(m, dtype=float)) for m in (A, B, Q, R))
    P = np.atleast_2d(np.asarray(Qf, dtype=float)).copy()
    K = None
    for _ in range(N):
        try:
            P, K = _riccati_map(P, A, B, Q, R)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("singular (R + B'PB) in backward recursion") from exc
        P = 0.5 * (P + P.T)
    return K


def random_two_input_model(rng):
    """A random ``(A, B, Q, R)`` with four states and two inputs, ``Q`` and
    ``R`` positive definite; most such models have a stabilizing DARE
    solution, some do not."""
    A = rng.normal(size=(4, 4)) / 2.0
    B = rng.normal(size=(4, 2))
    C = rng.normal(size=(4, 4))
    N = rng.normal(size=(2, 2))
    return A, B, C @ C.T / 4.0 + 0.1 * np.eye(4), N @ N.T + 0.5 * np.eye(2)

def discretize_reference(cl, grid) -> SimpleNamespace:
    """The closed loop tabulated one ``(v, w)`` pair at a time, one
    ``GridSpec.snap_x`` call of every grid state each: the whole table
    ``table[i, j, k]`` (int16 when every x-pair index fits, int32
    otherwise) with its ``grid`` and loop ``cl``, which the whole-grid
    references below read as they would a ``TransitionTable``."""
    pts = grid.x_points()
    base = pts @ cl.At.T
    bt = cl.Bt.ravel()
    ew = cl.plant.E.ravel()
    narrow = grid.n_xpairs <= np.iinfo(np.int16).max
    table = np.empty((grid.n_xpairs, grid.n_v, grid.n_w), dtype=np.int16 if narrow else np.int32)
    for j, v in enumerate(grid.v_values):
        shift_v = base + bt * v
        for k, w in enumerate(grid.w_values):
            table[:, j, k] = grid.snap_x(shift_v + ew * w)
    return SimpleNamespace(table=table, grid=grid, cl=cl)


def unsafe_witness_reference(tt, ok) -> np.ndarray:
    """The witness of unsafety of ``discrete_safeset.compute_safe_set`` as
    sweeps over every pair of the grid at once, each marking at its end."""
    witness = np.where(ok, WITNESS_NONE, WITNESS_CONSTRAINT).astype(np.int16)
    rows, cols = np.nonzero(ok)
    succ = tt.table[rows, cols]
    while True:
        # an off-grid successor (-1) reads an arbitrary row; the exit test decides it
        hit = (succ < 0) | (witness != WITNESS_NONE)[succ, cols[:, None]]
        marked = hit.any(axis=1)
        if not marked.any():
            return witness
        witness[rows[marked], cols[marked]] = np.argmax(hit[marked], axis=1)
        rows, cols, succ = rows[~marked], cols[~marked], succ[~marked]


def forward_closure_reference(core, table) -> np.ndarray:
    """``discrete_safeset._forward_closure`` as frontier sweeps over every
    reference slice at once: ``core`` is a pair mask (n_xpairs, n_v) and
    ``table`` the whole transition table."""
    seed = core.copy()
    frontier = core.copy()
    while frontier.any():
        rows, cols = np.nonzero(frontier)
        succ = table[rows, cols, :]
        if (succ < 0).any():
            raise SeedConstructionError("seed closure left the grid range")
        flat_new = np.zeros_like(seed)
        flat_new[succ.ravel(), np.repeat(cols, table.shape[2])] = True
        frontier = flat_new & ~seed
        seed |= frontier
    return seed


def build_seed_reference(tt, invariant, alpha) -> np.ndarray:
    """The seed of ``discrete_safeset.compute_safe_set`` over the whole grid:
    the grid states inside the steady-state ellipsoids whose support in every
    output constraint's direction is admissible, intersected with the
    ``invariant`` pair mask and closed by :func:`forward_closure_reference`."""
    cl, grid = tt.cl, tt.grid
    P = dlyap_scaled(cl.At, cl.plant.E, alpha)
    xv = np.linalg.solve(np.eye(cl.At.shape[0]) - cl.At, cl.Bt).ravel()
    H, h = cl.out.constraint_set.normals, cl.out.constraint_set.offsets
    pts, p_inv = grid.x_points(), np.linalg.inv(P)
    members = np.zeros((grid.n_xpairs, grid.n_v), dtype=bool)
    for j, v in enumerate(grid.v_values):
        ell = Ellipsoid(xv * v, P)
        if all(ellipsoid_support(ell, H[i] @ cl.Ct) + H[i] @ cl.Dt @ [v] <= h[i] + 1e-12
               for i in range(H.shape[0])):
            d = pts - xv * v
            members[:, j] = np.einsum("ij,jk,ik->i", d, p_inv, d) <= 1 + 1e-12
    return forward_closure_reference(members & invariant, tt.table)


def grow_reference(tt, invariant, seed):
    """The safe set's growth in ``discrete_safeset.compute_safe_set`` as
    sweeps over every pair of the grid at once.

    Returns ``(class_map, sweep_counts, grown_at)``; ``grown_at`` holds the
    sweep (from 1) at which each pair became SAFE_PLUS, 0 on the seed and
    -1 where it never did.
    """
    def totals(c):
        remain, safe, minus = np.bincount(c.ravel(), minlength=3)
        return int(safe), int(minus), int(remain)

    cls = np.where(invariant, REMAIN, MINUS).astype(np.int8)
    cls[seed] = SAFE_PLUS
    grown_at = np.where(seed, 0, -1)
    counts = [totals(cls)]
    rows, cols = np.nonzero(cls == REMAIN)
    succ = tt.table[rows, cols]
    while True:
        grown = (cls[succ, cols[:, None]] == SAFE_PLUS).all(axis=1)
        cls[rows[grown], cols[grown]] = SAFE_PLUS
        grown_at[rows[grown], cols[grown]] = len(counts)
        counts.append(totals(cls))
        if not grown.any():
            return cls, counts, grown_at
        rows, cols, succ = rows[~grown], cols[~grown], succ[~grown]


def snap_v(grid: GridSpec, vals) -> np.ndarray:
    """Nearest reference-grid indices of ``vals`` (-1 outside the range or NaN)."""
    k, out = grid._snap_axis(np.asarray(vals, dtype=float), grid._snap_axes[2])
    k[out] = -1
    return k


def feasible_actions_reference(oracle, x) -> np.ndarray:
    """The feasible actions of the grid oracle at ``x``, computed afresh on
    every call, which the oracle's memoized ``feasible_actions`` must match."""
    x = np.asarray(x, dtype=float).ravel()
    now_ok = (oracle._Hy_c @ x + oracle._Hy_u <= oracle._h_tol).all(axis=1)
    succ = oracle.grid.snap_x(oracle._A @ x + oracle._shift).reshape(oracle.action_values.size, -1)
    # an off-grid successor (-1) reads an arbitrary entry; the first test decides it
    robust = ((succ >= 0) & oracle.dss.proj_mask[succ]).all(axis=1)
    return oracle.action_values[now_ok & robust]


def feasible_action_set_reference(moas, plant, out, x) -> HPolytope:
    """The one-step rule's action polytope at ``x``, rows rebuilt on every
    call, which ``moas.feasible_action_set`` and the oracle must match."""
    x = np.asarray(x, dtype=float).ravel()
    rows = np.vstack([
        out.constraint_set.normals @ out.D,
        moas.proj_x_shrunk.normals @ plant.B,
    ])
    offs = np.concatenate([
        out.constraint_set.offsets - out.constraint_set.normals @ (out.C @ x),
        moas.proj_x_shrunk.offsets - moas.proj_x_shrunk.normals @ (plant.A @ x),
    ])
    return HPolytope(rows, offs)


def grid_member(oracle, x, v) -> bool:
    """Whether the grid pair nearest ``(x, v)`` is classified safe."""
    i = oracle.grid.index_of(x)
    j = int(snap_v(oracle.grid, [float(np.atleast_1d(v)[0])])[0])
    return i >= 0 and j >= 0 and bool(oracle.dss.class_map[i, j] == SAFE_PLUS)


def grid_proj_member(oracle, x) -> bool:
    """Whether the grid state nearest ``x`` lies in the safe projection."""
    i = oracle.grid.index_of(x)
    return bool(i >= 0 and oracle.dss.proj_mask[i])


def moas_member(oracle, x, v) -> bool:
    """Whether ``(x, v)`` lies in the admissible set."""
    z = np.concatenate([np.ravel(x), np.atleast_1d(np.asarray(v, dtype=float))])
    return oracle.moas.set_xv.contains(z)


def moas_proj_member(oracle, x) -> bool:
    """Whether ``x`` lies in the admissible set's state projection."""
    return oracle.moas.proj_x.contains(np.asarray(x, dtype=float).ravel())
