"""Maximal output admissible set for the disturbed linear closed loop.

The set lives over stacked ``(x, v)`` coordinates.  Construction stacks
constraint layers that propagate the output map through powers of the loop
matrix, with offsets shrunk step by step by the disturbance support
(supports add over Minkowski sums, so the per-step shrink is exact), and
stops at the first index where the next layer adds nothing.  A slightly
tightened steady-state block keeps the recursion finitely determined.

Also provides the one-step minimal-adjustment action rule for this set
(a clip to an interval for one input, an LP for more) and the oracle
through which the governor uses it.
"""

from __future__ import annotations

import numpy as np

from .convexset import (
    HPolytope,
    nearest_affine_point,
    pontryagin_diff,
    project_out,
    remove_redundancy,
)
from .control_linalg import ClosedLoop, LinearPlant, OutputMap
from .errors import (
    InfeasibleStateError,
    MoasConstructionError,
    MoasNotDeterminedError,
)
from .lp import max_exceeds


class Moas:
    """Finitely determined safe and positively invariant ``(x, v)`` set.

    ``proj_x`` is the state-space projection of ``set_xv``;
    ``proj_x_shrunk`` is that projection eroded by the one-step disturbance
    image and is the constraint carrier of the reduced action rule.
    """

    __slots__ = ("t_star", "set_xv", "proj_x", "proj_x_shrunk", "epsilon", "n_states")

    def __init__(self, t_star, set_xv, proj_x, proj_x_shrunk, epsilon, n_states):
        self.t_star = t_star
        self.set_xv = set_xv
        self.proj_x = proj_x
        self.proj_x_shrunk = proj_x_shrunk
        self.epsilon = epsilon
        self.n_states = n_states

    def to_dict(self) -> dict:
        return {
            "t_star": self.t_star,
            "epsilon": self.epsilon,
            "set_xv": self.set_xv.to_dict(),
            "proj_x": self.proj_x.to_dict(),
            "proj_x_shrunk": self.proj_x_shrunk.to_dict(),
        }


def build_moas(cl: ClosedLoop, w_set: HPolytope, v_bounds: HPolytope, epsilon: float = 0.01,
               t_cap: int = 500) -> Moas:
    """Construct the admissible set for ``x+ = At x + Bt v + E w`` under the
    loop's output constraints ``cl.out``.

    ``v_bounds`` is a box on the reference, which keeps the recursion
    bounded when the constraint rows alone do not bound ``v``;
    ``epsilon`` tightens the steady-state block (0 < epsilon < 1).
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    if w_set.is_empty:
        raise MoasConstructionError("disturbance set is empty")
    out = cl.out
    H = out.constraint_set.normals
    h = out.constraint_set.offsets
    n = cl.At.shape[0]
    r = cl.n_refs
    if v_bounds.dim != r:
        raise ValueError("v_bounds dimension must match the reference dimension")
    E = cl.plant.E

    eye = np.eye(n)
    a_pow = eye.copy()          # At^t
    geo_sum = np.zeros((n, n))  # sum_{k<t} At^k
    h_t = h.copy()              # offsets of the shrunken output set at layer t

    def layer_rows(a_pow_t, geo_sum_t, offsets_t):
        m_t = cl.Ct @ geo_sum_t @ cl.Bt + cl.Dt
        return np.hstack([H @ cl.Ct @ a_pow_t, H @ m_t]), offsets_t.copy()

    rows, offs = layer_rows(a_pow, geo_sum, h_t)
    all_rows = [rows, np.hstack([np.zeros((v_bounds.n_rows, n)), v_bounds.normals])]
    all_offs = [offs, v_bounds.offsets]

    t_star = None
    y_t = out.constraint_set
    for t in range(t_cap):
        # advance the output tightening and the layer recursion to t+1
        y_t = pontryagin_diff(y_t, cl.Ct @ a_pow @ E, w_set)
        if y_t.is_empty:
            raise MoasConstructionError(
                f"output constraints became empty after {t + 1} disturbance steps"
            )
        geo_sum = geo_sum + a_pow
        a_pow = a_pow @ cl.At
        h_t = y_t.offsets
        cand_rows, cand_offs = layer_rows(a_pow, geo_sum, h_t)
        cur_rows, cur_offs = np.vstack(all_rows), np.concatenate(all_offs)
        # keep only rows that actually cut; determination is the first layer
        # where none do (every candidate row bounds the current set's support).
        # An empty current set cuts nothing, so it ends the recursion and is
        # caught by the emptiness check after it.
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

    # tightened steady-state admissibility block on v alone
    m_inf = cl.Ct @ np.linalg.solve(eye - cl.At, cl.Bt) + cl.Dt
    omega_rows = np.hstack([np.zeros((H.shape[0], n)), H @ m_inf])
    omega_offs = (1.0 - epsilon) * h_t
    all_rows.append(omega_rows)
    all_offs.append(omega_offs)

    stacked = HPolytope(np.vstack(all_rows), np.concatenate(all_offs))
    if stacked.is_empty:
        raise MoasConstructionError("admissible set is empty")
    set_xv = remove_redundancy(stacked)
    proj_x = project_out(set_xv, list(range(n, n + r)))
    proj_x_shrunk = pontryagin_diff(proj_x, E, w_set)
    return Moas(t_star, set_xv, proj_x, proj_x_shrunk, epsilon, n)


def feasible_action_set(moas: Moas, plant: LinearPlant, out: OutputMap, x) -> HPolytope:
    """Polytope of actions satisfying the one-step rule's two constraints at ``x``."""
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


def linear_ag_step(moas: Moas, plant: LinearPlant, out: OutputMap, x, u1, norm: str = "l1"):
    """Minimal adjustment of ``u1`` keeping the current output admissible and
    the robust successor inside the admissible projection.

    Returns ``(u, adjusted)``; ``u1`` is passed through unchanged when it is
    itself feasible.  Raises :class:`InfeasibleStateError` when no action is
    feasible at ``x`` (the caller decides how to proceed).
    """
    u1 = np.atleast_1d(np.asarray(u1, dtype=float))
    upoly = feasible_action_set(moas, plant, out, x)
    if upoly.contains(u1):
        return u1.copy(), False
    m = plant.n_inputs
    sol = nearest_affine_point(upoly, np.eye(m), np.zeros(m), u1, norm=norm)
    if sol is None:
        raise InfeasibleStateError("no admissible action at the queried state")
    return sol[0], True


class LinearMoasOracle:
    """Governor oracle backed by a :class:`Moas` of the loop ``cl``.

    Action adjustment delegates to :func:`linear_ag_step` and the backup
    picks the reference from the ``v`` slice of the set, both through
    :func:`~actiongov.convexset.nearest_affine_point`: with one input and
    one reference each selection is a clip to an interval, and an LP is
    set up only for selections in more than one dimension.
    """

    def __init__(self, moas: Moas, cl: ClosedLoop):
        self.moas = moas
        self.plant = cl.plant
        self.gain = cl.gain
        self.out = cl.out

    def pi0(self, x, v):
        return self.gain.policy(x, v)

    def adjust(self, x, u1, dist):
        try:
            u, _ = linear_ag_step(self.moas, self.plant, self.out, x, u1, norm=dist.norm)
        except InfeasibleStateError:
            return None
        return u

    def backup(self, x, u1, dist):
        x = np.asarray(x, dtype=float).ravel()
        u1 = np.atleast_1d(np.asarray(u1, dtype=float))
        n = self.moas.n_states
        normals = self.moas.set_xv.normals
        refs = HPolytope(normals[:, n:], self.moas.set_xv.offsets - normals[:, :n] @ x)
        sol = nearest_affine_point(refs, self.gain.L, self.gain.K @ x, u1, norm=dist.norm)
        if sol is None:
            return None
        return sol[0]
