import numpy as np
import pytest

from actiongov import convexset, lp, simlab
from actiongov import moas as moas_mod
from actiongov.control_linalg import ClosedLoop, LinearPlant, NominalGain, OutputMap
from actiongov.convexset import HPolytope, nearest_affine_point, rejection_sample
from actiongov.errors import (
    EmptySetError,
    InfeasibleStateError,
    MoasConstructionError,
    MoasNotDeterminedError,
)
from actiongov.lp import LpStatus, solve_lp
from actiongov.moas import (
    Moas,
    build_moas,
    feasible_action_set,
    linear_ag_step,
)
from actiongov.simlab import build_moas_backend, simulate
from references import (
    build_moas_reference,
    feasible_action_set_reference,
    highs_support,
    moas_member,
    moas_proj_member,
)


def scalar_toy():
    """Stable scalar loop At = 0.5, Bt = 0.5 with |x| <= 1 constraints."""
    plant = LinearPlant([[1.0]], [[1.0]], [[1.0]])
    out = OutputMap([[1.0]], [[0.0]], HPolytope([[1.0], [-1.0]], [1.0, 1.0]))
    gain = NominalGain([[-0.5]], [[0.5]])
    return plant, out, gain, ClosedLoop(plant, out, gain)


class TestBuild:
    def test_example_terminates_and_is_nonempty(self, moas_bundle):
        _, moas = moas_bundle
        assert 0 < moas.t_star <= 500
        assert not moas.set_xv.is_empty
        assert not moas.proj_x.is_empty
        assert not moas.proj_x_shrunk.is_empty

    def test_example_geometry(self, moas_bundle):
        # the binding face near the shipped start combines the action bound
        # at the first step with the position bound two steps ahead; the
        # start (14, 6) sits just outside it while (12, 6) is inside
        _, moas = moas_bundle
        assert moas.proj_x.contains([12.0, 6.0])
        assert moas.proj_x.contains([0.0, 0.0])
        assert not moas.proj_x.contains([14.0, 6.0])

    def test_zero_disturbance_leaves_offsets_unshrunk(self):
        plant, out, gain, cl = scalar_toy()
        w_zero = HPolytope([[1.0], [-1.0]], [0.0, 0.0])
        moas = build_moas(cl, w_zero, epsilon=0.01,
                          v_bounds=HPolytope.from_bounds([-2.0], [2.0]))
        # every constraint offset still carries the original bound 1
        # (modulo the steady-state tightening rows at (1 - eps))
        normals, offsets = moas.set_xv.normals, moas.set_xv.offsets
        x_rows = np.abs(normals[:, 1]) < 1e-12
        assert np.all(offsets[~x_rows] >= 1.0 - 0.011)

    def test_first_layer_rows_present_in_scalar_toy(self):
        plant, out, gain, cl = scalar_toy()
        w_zero = HPolytope([[1.0], [-1.0]], [0.0, 0.0])
        moas = build_moas(cl, w_zero, epsilon=0.01,
                          v_bounds=HPolytope.from_bounds([-2.0], [2.0]))
        rows = np.column_stack([moas.set_xv.normals, moas.set_xv.offsets])
        # |x| <= 1 rows survive reduction (normalized form (+-1, 0 | 1))
        assert any(np.allclose(r, [1.0, 0.0, 1.0], atol=1e-9) for r in rows)
        assert any(np.allclose(r, [-1.0, 0.0, 1.0], atol=1e-9) for r in rows)

    def test_output_tightening_is_monotone(self, rig):
        # direct-arithmetic oracle for the per-layer shrink of an interval
        # disturbance: support reduces offsets by |H Ct At^k E| each layer
        cl, out = rig.cl, rig.out
        H = out.constraint_set.normals
        offsets = out.constraint_set.offsets.copy()
        a_pow = np.eye(2)
        prev = offsets.copy()
        for _ in range(40):
            shrink = np.abs(H @ cl.Ct @ a_pow @ rig.plant.E).ravel()
            nxt = prev - shrink
            assert np.all(nxt <= prev + 1e-12)
            prev = nxt
            a_pow = a_pow @ cl.At

    def test_determination_index_is_minimal(self, base_cfg, rig, moas_bundle):
        _, moas = moas_bundle
        with pytest.raises(MoasNotDeterminedError):
            build_moas(rig.cl, rig.w_set, epsilon=base_cfg.moas_epsilon,
                       t_cap=moas.t_star,
                       v_bounds=HPolytope.from_bounds([-25.0], [25.0]))

    def test_empty_reference_box_raises_construction_error(self):
        # a set that starts empty cuts no candidate row, so the recursion
        # stops at once and the stacked set's emptiness LP names it
        plant, out, gain, cl = scalar_toy()
        w_set = HPolytope([[1.0], [-1.0]], [0.1, 0.1])
        empty_v = HPolytope([[1.0], [-1.0]], [-1.0, -1.0])  # v <= -1 and v >= 1
        with pytest.raises(MoasConstructionError) as info:
            build_moas(cl, w_set, v_bounds=empty_v)
        assert not isinstance(info.value, EmptySetError)

    def test_empty_disturbance_set_raises_construction_error(self):
        plant, out, gain, cl = scalar_toy()
        empty_w = HPolytope([[1.0], [-1.0]], [-1.0, -1.0])  # w <= -1 and w >= 1
        with pytest.raises(MoasConstructionError, match="disturbance set is empty"):
            build_moas(cl, empty_w, v_bounds=HPolytope.from_bounds([-2.0], [2.0]))

    @pytest.mark.parametrize("w_bound, layer", [(0.6, 3), (0.9, 2), (1.5, 1)])
    def test_over_large_disturbance_names_the_emptying_layer(self, w_bound, layer):
        # |x| <= 1 tightens to 1 - w, 1 - 1.5 w, 1 - 1.75 w over the layers,
        # so the set empties at the first layer where that offset is negative
        plant, out, gain, cl = scalar_toy()
        w_set = HPolytope.from_bounds([-w_bound], [w_bound])
        with pytest.raises(MoasConstructionError,
                           match=f"admissible set became empty at layer {layer}$"):
            build_moas(cl, w_set, v_bounds=HPolytope.from_bounds([-2.0], [2.0]))

    def test_disturbance_within_the_limit_still_builds(self):
        # the offsets tend to 1 - 2 w, so any w < 0.5 leaves a nonempty set
        plant, out, gain, cl = scalar_toy()
        moas = build_moas(cl, HPolytope.from_bounds([-0.4], [0.4]),
                          v_bounds=HPolytope.from_bounds([-2.0], [2.0]))
        assert moas.t_star == 30
        assert not moas.set_xv.is_empty

    def test_shipped_build_lp_budget_and_lp_reference(self, base_cfg, rig, monkeypatch):
        # the vertex build decides each layer's emptiness and W's from the
        # vertices; its one simplex run is the emptiness check (a zero
        # objective) of the stacked set after the steady-state block, which
        # keeps the lp.solve span bench/workloads.json asks of the set-up
        # (ROADMAP item 7 drops it)
        costs = []
        two_phase = lp._two_phase

        def recording(a_eq, b_eq, cost, infeasible_tol):
            costs.append(cost)
            return two_phase(a_eq, b_eq, cost, infeasible_tol)

        monkeypatch.setattr(lp, "_two_phase", recording)
        w_set = HPolytope(rig.w_set.normals, rig.w_set.offsets)  # nothing cached
        v_bounds = HPolytope.from_bounds([-base_cfg.v_bound], [base_cfg.v_bound])
        fast = build_moas(rig.cl, w_set, v_bounds, base_cfg.moas_epsilon, base_cfg.moas_t_cap)
        assert len(costs) == 1
        assert not np.any(costs[0])
        monkeypatch.undo()
        # the LP build decides each cut by an LP over the stacked rows; its
        # supports of W and its decisions differ in the last bits, so it may
        # stop at another layer (51 against 52), and the sets agree to 1e-7
        # (3.6e-9 seen)
        reference = build_moas_reference(rig.cl, rig.w_set, v_bounds, base_cfg.moas_epsilon,
                                         base_cfg.moas_t_cap)
        assert abs(fast.t_star - reference.t_star) <= 2
        rng = np.random.default_rng(7)
        for name in ("set_xv", "proj_x", "proj_x_shrunk"):
            a, b = getattr(fast, name), getattr(reference, name)
            assert a.n_rows == b.n_rows
            for d in np.vstack([a.normals, b.normals, rng.normal(size=(60, a.dim))]):
                (sa, ha), (sb, hb) = (highs_support(d, p.normals, p.offsets) for p in (a, b))
                assert sa == sb == 0 and ha == pytest.approx(hb, abs=1e-7), name

    def test_every_cutting_decision_agrees_with_highs(self, base_cfg, rig, monkeypatch):
        # each layer's candidates are decided by maxima over the carried
        # vertices; HiGHS re-solves every one on the rows cut so far
        decisions = []
        support = convexset.Generators.support

        def recording(gens, directions):
            result = support(gens, directions)
            if gens.normals.shape[1] == 3:  # the (x, v) set, not W
                decisions.append((gens.normals.copy(), gens.offsets.copy(),
                                  np.array(directions), result))
            return result

        monkeypatch.setattr(convexset.Generators, "support", recording)
        _, moas = build_moas_backend(base_cfg, rig)
        assert len(decisions) == moas.t_star + 1
        for normals, offsets, candidates, values in decisions:
            for d, value in zip(candidates, values):
                status, want = highs_support(d, normals, offsets)
                assert status == 0 and value == pytest.approx(want, abs=1e-9 * (1.0 + abs(want)))

    def test_layer_offsets_are_the_exact_shrinks(self, base_cfg, rig, monkeypatch):
        # for W = [-1, 1] each layer's shrink is |H Ct At^k E|, computed
        # directly as in test_output_tightening_is_monotone; H's rows are
        # signed unit vectors, so both groupings of the product are exact
        assert np.array_equal(rig.w_set.generators().vertices.ravel(), [1.0, -1.0])
        layers = []
        diff = moas_mod.pontryagin_diff

        def recording(poly, map_matrix, w_set):
            result = diff(poly, map_matrix, w_set)
            layers.append(result.offsets)
            return result

        monkeypatch.setattr(moas_mod, "pontryagin_diff", recording)
        _, moas = build_moas_backend(base_cfg, rig)
        assert len(layers) == moas.t_star + 2  # the last one erodes proj_x
        H = rig.out.constraint_set.normals
        want = rig.out.constraint_set.offsets.copy()
        a_pow = np.eye(2)
        for offsets in layers[:-1]:
            want = want - np.abs(H @ rig.cl.Ct @ a_pow @ rig.plant.E).ravel()
            assert np.array_equal(offsets, want)
            a_pow = a_pow @ rig.cl.At

    def test_invariance_certified_on_the_vertices(self, rig, moas_bundle):
        # exact where test_positive_invariance_sampled samples: a linear
        # function peaks at a vertex, so each row's largest value over the
        # successors of the set is its maximum over the vertices of M z plus
        # the largest disturbance term; HiGHS, which reads no vertex,
        # confirms each maximum
        _, moas = moas_bundle
        cl, n, s = rig.cl, moas.n_states, moas.set_xv
        verts = s.generators().vertices
        m = cl.n_refs
        M = np.block([[cl.At, cl.Bt], [np.zeros((m, n)), np.eye(m)]])
        rows = s.normals @ M
        peak = (verts @ rows.T).max(axis=0)
        shove = (rig.w_set.generators().vertices @ (s.normals[:, :n] @ rig.plant.E).T).max(axis=0)
        assert np.all(peak + shove - s.offsets <= 1e-12)
        out = rig.out.constraint_set
        outputs = verts[:, :n] @ cl.Ct.T + verts[:, n:] @ cl.Dt.T
        assert np.all(outputs @ out.normals.T - out.offsets <= 1e-12)
        for a, value in zip(rows, peak):
            status, want = highs_support(a, s.normals, s.offsets)
            assert status == 0 and abs(value - want) <= 1e-12

    def test_positive_invariance_sampled(self, rig, moas_bundle):
        _, moas = moas_bundle
        rng = np.random.default_rng(17)
        pts = rejection_sample(moas.set_xv, rng, 300, margin=1e-9)
        for z in pts:
            x, v = z[:2], z[2:]
            for w in (-1.0, 1.0):
                succ = np.concatenate([rig.cl.step(x, v, [w]), v])
                assert moas.set_xv.contains(succ, tol=1e-7)

    def test_projection_consistency(self, moas_bundle):
        # membership in the projection agrees with lift-LP feasibility
        _, moas = moas_bundle
        rng = np.random.default_rng(23)
        n = moas.n_states
        a_v = moas.set_xv.normals[:, n:]
        for _ in range(200):
            x = rng.uniform([-22, -6], [22, 12])
            rhs = moas.set_xv.offsets - moas.set_xv.normals[:, :n] @ x
            lift = solve_lp(np.zeros(1), a_v, rhs)
            feasible = lift.status is not LpStatus.INFEASIBLE
            member = moas.proj_x.contains(x, tol=1e-7)
            if feasible != member:
                slack = np.max(moas.proj_x.normals @ x - moas.proj_x.offsets)
                assert abs(slack) < 1e-6


class TestActionStep:
    def test_origin_passthrough(self, rig, moas_bundle):
        _, moas = moas_bundle
        u, adjusted = linear_ag_step(moas, rig.plant, rig.out, [0.0, 0.0], [0.0])
        assert not adjusted
        assert u[0] == 0.0

    def test_scalar_clamp(self):
        # feasible action interval [-1, 1]: proposals clamp to the boundary
        plant = LinearPlant([[0.0]], [[1.0]], [[1.0]])
        out = OutputMap([[0.0]], [[1.0]], HPolytope([[1.0], [-1.0]], [1.0, 1.0]))
        big = HPolytope.from_bounds([-100.0], [100.0])
        moas = Moas(0, HPolytope.from_bounds([-100.0, -100.0], [100.0, 100.0]),
                    big, big, 0.01, 1)
        u, adjusted = linear_ag_step(moas, plant, out, [0.0], [3.0])
        assert adjusted
        assert u[0] == pytest.approx(1.0, abs=1e-9)

    def test_adjusted_action_satisfies_both_constraints(self, rig, moas_bundle):
        _, moas = moas_bundle
        x = np.array([12.0, 6.0])
        u1 = rig.gain.K @ x
        u, adjusted = linear_ag_step(moas, rig.plant, rig.out, x, u1)
        assert adjusted
        # membership oracle on the returned action
        y = rig.out.C @ x + rig.out.D @ u
        assert rig.out.constraint_set.contains(y, tol=1e-7)
        succ = rig.plant.A @ x + rig.plant.B @ u
        assert moas.proj_x_shrunk.contains(succ, tol=1e-7)

    def test_infeasible_state_raises(self, rig, moas_bundle):
        # (14, 6) admits no action keeping the successor inside the robust
        # projection: the position constraint two steps ahead is already
        # committed by the current position and velocity
        _, moas = moas_bundle
        with pytest.raises(InfeasibleStateError):
            linear_ag_step(moas, rig.plant, rig.out, [14.0, 6.0], [0.0])

    def test_recursive_feasibility_sampled(self, rig, moas_bundle):
        _, moas = moas_bundle
        rng = np.random.default_rng(29)
        xs = rejection_sample(moas.proj_x, rng, 200, margin=1e-9)
        for x in xs:
            u1 = rng.uniform(-8.0, 8.0, size=1)
            u, _ = linear_ag_step(moas, rig.plant, rig.out, x, u1)
            for w in (-1.0, 1.0):
                succ = rig.plant.step(x, u, [w])
                assert not feasible_action_set(moas, rig.plant, rig.out, succ).is_empty

    def test_norm_variants_agree_for_scalar_actions(self, rig, moas_bundle):
        _, moas = moas_bundle
        x = np.array([10.0, 5.0])
        for u1 in ([-9.0], [2.0], [7.5]):
            ul1, _ = linear_ag_step(moas, rig.plant, rig.out, x, u1, "l1")
            uli, _ = linear_ag_step(moas, rig.plant, rig.out, x, u1, "linf")
            assert ul1[0] == pytest.approx(uli[0], abs=1e-9)

    def test_any_action_stream_stays_safe_for_500_steps(self, rig, moas_bundle):
        # arbitrary pre-adjustment proposals, supervision keeps the true
        # closed loop admissible for the whole run
        from actiongov.simlab import disturbance, is_violated

        _, moas = moas_bundle
        rng = np.random.default_rng(31)
        x = np.array([12.0, 6.0])
        for _ in range(500):
            u1 = rng.uniform(-10.0, 10.0, size=1)
            u, _ = linear_ag_step(moas, rig.plant, rig.out, x, u1)
            assert not is_violated(x, u)
            x = rig.plant.step(x, u, [disturbance(x)])


class TestGovernWithLinearOracle:
    def test_interior_safe_proposal_passes_through(self, rig, moas_bundle):
        from actiongov.governor import Branch, GovernorState, govern

        oracle, _ = moas_bundle
        gs = GovernorState()
        outcome, gs = govern(np.zeros(2), np.array([0.3]), gs, oracle, rig.dist)
        assert outcome.branch is Branch.ADJUSTED
        assert outcome.u[0] == pytest.approx(0.3, abs=1e-12)
        assert gs.v_hat is None  # the backup reference was never touched

    def test_backup_reference_polytope_route(self, rig, moas_bundle):
        # the reference slice at a member state is nonempty and the backup
        # selection lands inside it
        oracle, moas = moas_bundle
        x = np.array([5.0, 2.0])
        assert moas_proj_member(oracle, x)
        v = oracle.backup(x, np.array([0.0]), rig.dist)
        assert v is not None
        assert moas_member(oracle, x, v)


    def test_rows_built_once_give_the_per_call_decisions(self, rig, moas_bundle):
        # the oracle's rows, built at construction, give bit for bit the
        # decisions of rows rebuilt at every call
        oracle, moas = moas_bundle
        rng = np.random.default_rng(41)
        xs = np.vstack([rejection_sample(moas.proj_x, rng, 150),
                        rng.uniform([-22.0, -6.0], [22.0, 12.0], size=(150, 2))])
        moved = 0
        for x in xs:
            upoly = feasible_action_set(moas, rig.plant, rig.out, x)
            ref = feasible_action_set_reference(moas, rig.plant, rig.out, x)
            assert np.array_equal(upoly.normals, ref.normals)
            assert np.array_equal(upoly.offsets, ref.offsets)
            u1 = rng.uniform(-8.0, 8.0, size=1)
            if ref.contains(u1):
                want = u1
            else:
                sol = nearest_affine_point(ref, np.eye(1), np.zeros(1), u1, norm=rig.dist.norm)
                want = None if sol is None else sol[0]
                moved += 1
            got = oracle.adjust(x, u1, rig.dist)
            assert (got is None) == (want is None)
            assert got is None or np.array_equal(got, want)
        assert moved > 50

def test_shipped_supervised_runs_solve_no_lp(base_cfg, moas_bundle, counted_koopman_learning,
                                             monkeypatch):
    # every simplex run goes through lp._two_phase (solve_lp and the
    # certified decision alike); the reset box of the learning run is read
    # from the vertices and runs none, and after the set-up the supervised
    # steps of the shipped learning run (counted in the session's one run)
    # and of a moas-governed simulation run none either, although both
    # move actions through nearest_affine_point
    _, learning_runs, learning_selections = counted_koopman_learning
    assert learning_runs == 0 and learning_selections > 0
    runs, selections, after_build = [], [], []
    two_phase, nearest = lp._two_phase, moas_mod.nearest_affine_point
    build = simlab.build_moas_backend

    def counted_two_phase(*args):
        runs.append(None)
        return two_phase(*args)

    def counted_nearest(*args, **kwargs):
        selections.append(None)
        return nearest(*args, **kwargs)

    def counted_build(*args):
        backend = build(*args)
        after_build.append(len(runs))
        return backend

    monkeypatch.setattr(lp, "_two_phase", counted_two_phase)
    monkeypatch.setattr(moas_mod, "nearest_affine_point", counted_nearest)
    monkeypatch.setattr(simlab, "build_moas_backend", counted_build)

    _, moas = moas_bundle
    fresh = HPolytope(moas.proj_x.normals, moas.proj_x.offsets)  # nothing cached
    assert np.array_equal(fresh.bounding_box(), moas.proj_x.bounding_box())
    assert runs == []

    traj = simulate(base_cfg)
    assert base_cfg.governor == "moas" and len(traj.costs) == base_cfg.steps
    assert len(after_build) == 1 and len(runs) == after_build[0] and len(selections) > 0
