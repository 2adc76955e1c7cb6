"""Maximal output admissible set for the disturbed linear closed loop.

The set lives over stacked ``(x, v)`` coordinates.  Construction stacks
constraint layers that propagate the output map through powers of the loop
matrix, with offsets shrunk step by step by the disturbance support
(supports add over Minkowski sums, so the per-step shrink is exact), and
stops at the first index where the next layer adds nothing (Gilbert & Tan,
IEEE TAC 1991).  The current set is carried as its generators through the
recursion: a candidate row cuts iff its maximum over the vertices exceeds
its offset, and each kept row cuts the generators in place.  A slightly
tightened steady-state block keeps the recursion finitely determined.

The governor uses the set through :class:`LinearMoasOracle`, which owns
the one-step minimal-adjustment action rule for it (a clip to an interval
for one input, an LP for more).  :func:`feasible_action_set` is that
rule's action polytope at one state, built from the same rows, for
references and checks.
"""

from __future__ import annotations

import numpy as np

from .convexset import (
    DEFAULT_TOL,
    Generators,
    HPolytope,
    nearest_affine_point,
    pontryagin_diff,
    project_out,
    remove_redundancy,
)
from .control_linalg import ClosedLoop, LinearPlant, OutputMap
from .errors import MoasConstructionError, MoasNotDeterminedError


class Moas:
    """Finitely determined safe and positively invariant ``(x, v)`` set.

    ``proj_x`` is the state-space projection of ``set_xv``;
    ``proj_x_shrunk`` is that projection eroded by the one-step disturbance
    image and is the constraint carrier of the reduced action rule.
    """

    __slots__ = ("t_star", "set_xv", "proj_x", "proj_x_shrunk", "epsilon")

    def __init__(self, t_star, set_xv, proj_x, proj_x_shrunk, epsilon):
        self.t_star = t_star
        self.set_xv = set_xv
        self.proj_x = proj_x
        self.proj_x_shrunk = proj_x_shrunk
        self.epsilon = epsilon

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
    Its one LP is the emptiness check of the stacked set after the
    steady-state block; each layer's emptiness and W's are read from the
    vertices.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    if w_set.generators().is_empty:
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
    gens = Generators.of(np.vstack([rows, np.hstack([np.zeros((v_bounds.n_rows, n)),
                                                    v_bounds.normals])]),
                         np.concatenate([offs, v_bounds.offsets]))

    t_star = None
    y_t = out.constraint_set
    for t in range(t_cap):
        # advance the output tightening and the layer recursion to t+1
        y_t = pontryagin_diff(y_t, cl.Ct @ a_pow @ E, w_set)
        geo_sum = geo_sum + a_pow
        a_pow = a_pow @ cl.At
        h_t = y_t.offsets
        cand_rows, cand_offs = layer_rows(a_pow, geo_sum, h_t)
        # keep only rows that actually cut; determination is the first layer
        # where none do (every candidate row bounds the current set's support).
        # A cut drops every generator more than DEFAULT_TOL outside, so a kept
        # row cuts no more and a layer that empties the set leaves no vertex.
        # A set empty from the start cuts nothing; the check after catches it.
        cutting = gens.support(cand_rows) > cand_offs + DEFAULT_TOL
        if not cutting.any():
            t_star = t
            break
        for a, b in zip(cand_rows[cutting], cand_offs[cutting]):
            gens.cut(a, b)
        if gens.is_empty:
            raise MoasConstructionError(f"admissible set became empty at layer {t + 1}")
    if t_star is None:
        raise MoasNotDeterminedError(f"no finite determination within t_cap = {t_cap}")

    # tightened steady-state admissibility block on v alone
    m_inf = cl.Ct @ np.linalg.solve(eye - cl.At, cl.Bt) + cl.Dt
    for a, b in zip(np.hstack([np.zeros((H.shape[0], n)), H @ m_inf]), (1.0 - epsilon) * h_t):
        gens.cut(a, b)

    stacked = gens.polytope()
    if stacked.is_empty:
        raise MoasConstructionError("admissible set is empty")
    set_xv = remove_redundancy(stacked)
    proj_x = project_out(set_xv, list(range(n, n + r)))
    proj_x_shrunk = pontryagin_diff(proj_x, E, w_set)
    return Moas(t_star, set_xv, proj_x, proj_x_shrunk, epsilon)


def _action_rows(moas: Moas, plant: LinearPlant, out: OutputMap):
    """The one-step rule's two constraints on the action at a state ``x``,
    as rows ``normals u <= offsets(x)``: the current output stays
    admissible, and the robust successor stays in ``proj_x_shrunk``.
    Returns ``(normals, offsets)``; the rows and the state-independent
    parts of their offsets are built once, here."""
    cs, ps = out.constraint_set, moas.proj_x_shrunk
    normals = np.vstack([cs.normals @ out.D, ps.normals @ plant.B])
    normals.flags.writeable = False
    blocks = ((cs.offsets, cs.normals, out.C), (ps.offsets, ps.normals, plant.A))

    def offsets(x) -> np.ndarray:
        return np.concatenate([b - np.dot(a, np.dot(m, x)) for b, a, m in blocks])

    return normals, offsets


def feasible_action_set(moas: Moas, plant: LinearPlant, out: OutputMap, x) -> HPolytope:
    """Polytope of actions satisfying the one-step rule's two constraints at ``x``."""
    normals, offsets = _action_rows(moas, plant, out)
    return HPolytope(normals, offsets(np.asarray(x, dtype=float).ravel()))


class LinearMoasOracle:
    """Governor oracle backed by a :class:`Moas` of the loop ``cl``.

    ``adjust`` is the one-step rule on rows built once, at construction:
    ``u1`` passes through when it keeps the current output admissible and
    the robust successor inside the admissible projection, else the
    nearest such action is taken.  The backup picks the reference from the
    ``v`` slice of the set.  Both select through
    :func:`~actiongov.convexset.nearest_affine_point`: with one input and
    one reference each selection is a clip to an interval, and an LP is
    set up only for selections in more than one dimension.  Both answer
    ``None`` when nothing is feasible at ``x``.
    """

    def __init__(self, moas: Moas, cl: ClosedLoop):
        self.moas = moas
        self.gain = cl.gain
        self._normals, self._offsets = _action_rows(moas, cl.plant, cl.out)

    def pi0(self, x, v):
        return self.gain.policy(x, v)

    def adjust(self, x, u1, dist):
        x = np.asarray(x, dtype=float).ravel()
        u1 = np.atleast_1d(np.asarray(u1, dtype=float))
        offs = self._offsets(x)
        if (np.dot(self._normals, u1) <= offs + DEFAULT_TOL).all():  # HPolytope.contains
            return u1.copy()
        m = self._normals.shape[1]
        sol = nearest_affine_point(HPolytope(self._normals, offs), np.eye(m), np.zeros(m), u1,
                                   norm=dist.norm)
        return None if sol is None else sol[0]

    def backup(self, x, u1, dist):
        x = np.asarray(x, dtype=float).ravel()
        u1 = np.atleast_1d(np.asarray(u1, dtype=float))
        n = self.moas.proj_x.dim
        normals = self.moas.set_xv.normals
        refs = HPolytope(normals[:, n:], self.moas.set_xv.offsets - normals[:, :n] @ x)
        sol = nearest_affine_point(refs, self.gain.L, self.gain.K @ x, u1, norm=dist.norm)
        return None if sol is None else sol[0]
