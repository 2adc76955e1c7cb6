import dataclasses

import numpy as np
import pytest

from actiongov.errors import (
    EmptySetError,
    NoStabilizingSolutionError,
    NumericalError,
    UninitializedGovernorError,
)
from actiongov.governor import ActionDistance, GovernorState, govern
from actiongov.control_linalg import dare_solve
from actiongov.safe_learning import (
    KoopmanEnv,
    KoopmanModel,
    ObservableMap,
    QTable,
    SafeQEnv,
    SupervisedEnv,
    epsilon_greedy,
    koopman_control,
    modified_reward,
    q_target,
    rls_update,
    run_safe_koopman,
    run_safe_q,
    supervised_step,
)
from actiongov.trajectory import Trajectory
from chain_mdp import chain_env, value_iteration
from enumerated_oracle import EnumeratedOracle
from references import batch_fit, identity_observables, prediction_residual

dist_l1 = ActionDistance("l1")


class GivesUpAfter(EnumeratedOracle):
    """Passes the first ``n`` proposals through, then has no safe action and
    no reference, so the next step has nothing to fall back on."""

    def __init__(self, n):
        self.n = n
        self.calls = 0

    def feasible_actions(self, x):
        self.calls += 1
        return np.array([]) if self.calls > self.n else np.array([0.0, 1.0])

    def candidate_refs(self, x):
        return np.array([])


class BacksUpTo(EnumeratedOracle):
    """No safe action anywhere, one reference ``v`` with nominal action ``-v``."""

    def __init__(self, v):
        self.v = v

    def feasible_actions(self, x):
        return np.array([])

    def candidate_refs(self, x):
        return np.array([self.v])

    def member(self, x, v):
        return True

    def pi0(self, x, v):
        return -np.atleast_1d(v)


class TestSupervisedStep:
    def test_records_one_step_with_the_envs_scores_and_the_branch(self):
        env = SupervisedEnv(initial_state=3.0, step=lambda x, u: (x + 1.0, 0.25),
                            cost=lambda x, u: 7.5, violated=lambda x, u: True,
                            oracle=BacksUpTo(2.0))
        u1 = np.array([1.0])
        expected, _ = govern(3.0, u1, GovernorState(), env.oracle, env.dist)
        gs, traj = GovernorState(), Trajectory()
        u, x_next, cost = supervised_step(env, 4, 3.0, u1, gs, traj)
        assert len(traj) == 1
        rec = traj.steps[0]
        assert (rec.t, rec.w, rec.cost, rec.violated) == (4, 0.25, 7.5, True)
        assert rec.branch == expected.branch.value == "backup_fresh"
        assert np.array_equal(rec.u, expected.u) and np.array_equal(u, expected.u)
        assert rec.u1[0] == 1.0 and rec.v_hat[0] == 2.0 and rec.x[0] == 3.0
        assert (x_next, cost) == (4.0, 7.5)

    def test_records_are_immutable_copies(self):
        traj = Trajectory()
        x, u1, u, v = np.array([1.0, 2.0]), np.array([0.5]), np.array([0.25]), np.array([3.0])
        traj.append(np.int64(2), x, u1, u, "adjusted", v, np.float64(0.1), 4, np.bool_(False))
        rec = traj.steps[0]
        for field in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, field, None)
        x[0] = u1[0] = u[0] = v[0] = 99.0
        assert (rec.x.tolist(), rec.u1.tolist(), rec.u.tolist(), rec.v_hat.tolist()) == (
            [1.0, 2.0], [0.5], [0.25], [3.0])
        assert [type(f) for f in (rec.t, rec.w, rec.cost, rec.violated)] == [int, float, float,
                                                                          bool]
        traj.append(0, 3.0, 1.0, 1.0, "none", None, 0.0, 0.0, True)
        assert traj.steps[1].x.shape == (1,) and traj.steps[1].v_hat is None


class TestEpsilonGreedy:
    def test_zero_epsilon_always_greedy(self):
        q = QTable.zeros(3, 4, epsilon=0.0)
        q.values[1] = [0.0, 2.0, 1.0, -1.0]
        rng = np.random.default_rng(0)
        assert all(epsilon_greedy(q, 1, rng) == 1 for _ in range(50))

    def test_full_exploration_is_uniform(self):
        q = QTable.zeros(2, 4, epsilon=1.0)
        rng = np.random.default_rng(1)
        counts = np.zeros(4)
        n = 10000
        for _ in range(n):
            counts[epsilon_greedy(q, 0, rng)] += 1
        sigma = np.sqrt(n * 0.25 * 0.75)
        assert np.all(np.abs(counts - n / 4) <= 3 * sigma)

    def test_tie_takes_smaller_index(self):
        q = QTable.zeros(1, 3, epsilon=0.0)
        q.values[0] = [5.0, 5.0, 1.0]
        rng = np.random.default_rng(2)
        assert epsilon_greedy(q, 0, rng) == 0


class TestModifiedReward:
    def test_untouched_action_keeps_reward(self):
        assert modified_reward(3.5, [1.0], [1.0], 100.0, dist_l1) == 3.5

    def test_arithmetic(self):
        assert modified_reward(-2.0, [1.0], [0.5], 100.0, dist_l1) == -52.0

    def test_monotone_in_distance(self):
        vals = [modified_reward(0.0, [d], [0.0], 10.0, dist_l1) for d in (0.0, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestQTarget:
    def test_pure_bellman_backup_at_full_rate(self):
        q = QTable.zeros(2, 2, gamma=0.9, alpha=1.0)
        q.values[1] = [3.0, 7.0]
        assert q_target(q, 0, 0, 1.0, 1) == pytest.approx(1.0 + 0.9 * 7.0)

    def test_zero_rate_keeps_value(self):
        q = QTable(np.array([[2.0, 0.0]]), 0.9, 1.0, 0.1, 100.0)
        q.alpha = 1e-12  # effectively zero while staying in the open interval
        assert q_target(q, 0, 0, 55.0, 0) == pytest.approx(2.0, abs=1e-9)

    def test_arithmetic(self):
        q = QTable.zeros(2, 2, gamma=0.95, alpha=0.5)
        assert q_target(q, 0, 0, 1.0, 1) == pytest.approx(0.5)

    def test_contraction_at_full_rate(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(4, 3))
        c = 0.37
        qa = QTable(base, 0.9, 1.0, 0.1, 100.0)
        qb = QTable(base + c, 0.9, 1.0, 0.1, 100.0)
        for s in range(4):
            for a in range(3):
                for s2 in range(4):
                    da = q_target(qa, s, a, 0.5, s2)
                    db = q_target(qb, s, a, 0.5, s2)
                    assert abs(da - db) <= 0.9 * c + 1e-12


class TestRunSafeQ:
    def test_single_step_batch_touches_one_cell(self):
        env, *_ = chain_env()
        q0 = QTable.zeros(3, 2, epsilon=0.0)
        q1, traj = run_safe_q(env, q0, 1, 1, np.random.default_rng(0))
        assert len(traj) == 1
        assert int((q1.values != q0.values).sum()) <= 1

    def test_chain_converges_to_value_iteration(self):
        # deterministic chain, so the full learning rate is exact
        env, transitions, rewards = chain_env()
        gamma = 0.9
        q_star = value_iteration(transitions, rewards, gamma)
        q0 = QTable.zeros(3, 2, gamma=gamma, alpha=1.0, epsilon=0.2)
        q1, traj = run_safe_q(env, q0, 1, 10000, np.random.default_rng(7))
        assert np.max(np.abs(q1.values - q_star)) < 1e-2
        assert traj.violation_count == 0

    def test_batched_updates_use_stale_table(self):
        # with t_max > 1 every target in a batch reads the pre-batch table
        env, *_ = chain_env()
        q0 = QTable.zeros(3, 2, gamma=0.9, alpha=1.0, epsilon=1.0)
        q_b, _ = run_safe_q(env, q0, 4, 1, np.random.default_rng(5))
        # all targets equal the raw rewards because max Q over the zero
        # table is zero for every buffered entry
        touched = q_b.values != 0.0
        rewards = np.array([[0.0, 1.0], [0.5, 2.0], [-1.0, 3.0]])
        assert np.allclose(q_b.values[touched], rewards[touched])

    def test_penalized_target_when_supervisor_adjusts(self):
        # a one-state environment whose oracle forbids the proposed action
        class Clamp(EnumeratedOracle):
            def member(self, x, v):
                return True

            def proj_member(self, x):
                return True

            def feasible_actions(self, x):
                return np.array([0.0])

            def candidate_refs(self, x):
                return np.array([0.0])

            def pi0(self, x, v):
                return np.array([0.0])

        env = SafeQEnv(
            actions=np.array([0.0, 1.0]),
            initial_state=0,
            state_index=lambda x: 0,
            step=lambda x, u: (0, 0.0),
            cost=lambda x, u: -1.0,
            violated=lambda x, u: False,
            oracle=Clamp(),
        )
        q0 = QTable.zeros(1, 2, gamma=0.9, alpha=1.0, epsilon=1.0, penalty_m=100.0)
        q1, traj = run_safe_q(env, q0, 1, 200, np.random.default_rng(11))
        # proposing action 1 gets clamped to 0 at distance 1: the stored
        # target carries the -100 penalty and stays far below action 0's
        assert q1.values[0, 1] < q1.values[0, 0] - 50.0
        assert all(s.u[0] == 0.0 for s in traj.steps)

    def test_each_state_is_indexed_once(self):
        env, *_ = chain_env()
        calls = []
        index = env.state_index
        env.state_index = lambda x: calls.append(x) or index(x)
        q0 = QTable.zeros(3, 2, epsilon=0.5)
        _, traj = run_safe_q(env, q0, 1, 25, np.random.default_rng(2))
        assert len(calls) == len(traj) + 1

    def test_governor_error_reports_its_step(self):
        env, *_ = chain_env()
        env.oracle = GivesUpAfter(4)
        q0 = QTable.zeros(3, 2, epsilon=0.5)
        with pytest.raises(UninitializedGovernorError, match="step 4") as info:
            run_safe_q(env, q0, 1, 10, np.random.default_rng(0))
        assert info.value.step == 4

    def test_env_error_reports_its_step(self):
        # a library error of the env's own step carries the step it was
        # raised in, as the supervisor's do
        env, *_ = chain_env()
        step, calls = env.step, []

        def failing_step(x, u):
            calls.append(x)
            if len(calls) == 3:
                raise NumericalError("plant diverged")
            return step(x, u)

        env.step = failing_step
        q0 = QTable.zeros(3, 2, epsilon=0.5)
        with pytest.raises(NumericalError, match="step 2: plant diverged") as info:
            run_safe_q(env, q0, 1, 10, np.random.default_rng(0))
        assert info.value.step == 2


class TestBatchFit:
    def test_exact_recovery(self):
        rng = np.random.default_rng(0)
        A0 = np.array([[0.9, 0.1], [-0.2, 0.7]])
        B0 = np.array([[0.0], [1.0]])
        z = rng.normal(size=(2, 50))
        u = rng.normal(size=(1, 50))
        zp = A0 @ z + B0 @ u
        A, B = batch_fit(zp, z, u)
        assert np.max(np.abs(A - A0)) < 1e-8
        assert np.max(np.abs(B - B0)) < 1e-8

    def test_identity_dynamics_without_inputs(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(2, 30))
        A, B = batch_fit(z, z, np.zeros((0, 30)))
        assert np.max(np.abs(A - np.eye(2))) < 1e-9
        assert B.shape == (2, 0)

    def test_single_sample_minimum_norm_solution_fits_exactly(self):
        z = np.array([[1.0], [2.0]])
        u = np.array([[0.5]])
        zp = np.array([[0.3], [-0.4]])
        A, B = batch_fit(zp, z, u)
        assert prediction_residual(A, B, zp, z, u) < 1e-10

    def test_ridge_variant_close_to_plain_on_full_rank_data(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(2, 40))
        u = rng.normal(size=(1, 40))
        zp = rng.normal(size=(2, 40))
        A1, B1 = batch_fit(zp, z, u)
        A2, B2 = batch_fit(zp, z, u, ridge=1e-9)
        assert np.max(np.abs(A1 - A2)) < 1e-6
        assert np.max(np.abs(B1 - B2)) < 1e-6

    def test_sample_count_mismatch(self):
        with pytest.raises(ValueError):
            batch_fit(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((1, 4)))


def fresh_model(nz=2, m=1, lam=1.0, delta=1e6):
    obs = identity_observables(nz)
    return KoopmanModel.initial(np.zeros((nz, nz)), np.zeros((nz, m)), obs, lam, delta)


def nan_covariance_model():
    """A model whose covariance holds a NaN on its diagonal, which the
    constructor's checks would refuse."""
    km = KoopmanModel.initial(np.diag([0.9, 0.9]), [[1.0], [1.0]], identity_observables(2))
    cov = km.gamma_cov.copy()
    cov[1, 1] = np.nan
    km.gamma_cov = cov
    return km


class TestRls:
    def test_zero_error_keeps_model_but_updates_covariance(self):
        km = fresh_model()
        x = np.array([1.0, -1.0])
        u = np.array([0.0])
        km2 = rls_update(km, x, u, km.A @ x + km.B @ u)
        assert np.array_equal(km2.A, km.A)
        assert np.array_equal(km2.B, km.B)
        assert not np.allclose(km2.gamma_cov, km.gamma_cov)

    def test_stream_matches_batch_fit(self):
        rng = np.random.default_rng(3)
        A0 = np.array([[0.8, 0.2], [0.0, 0.5]])
        B0 = np.array([[0.3], [1.0]])
        km = fresh_model(delta=1e8)
        zs, us, zps = [], [], []
        z = rng.normal(size=2)
        for _ in range(200):
            u = rng.normal(size=1)
            zp = A0 @ z + B0 @ u
            km = rls_update(km, z, u, zp)
            zs.append(z)
            us.append(u)
            zps.append(zp)
            z = rng.normal(size=2)
        A_b, B_b = batch_fit(np.array(zps).T, np.array(zs).T, np.array(us).T)
        assert np.max(np.abs(km.A - A_b)) < 1e-6
        assert np.max(np.abs(km.B - B_b)) < 1e-6

    def test_scalar_system_recovery(self):
        rng = np.random.default_rng(4)
        km = fresh_model(nz=1, delta=1e6)
        z = np.array([1.0])
        for _ in range(200):
            u = rng.normal(size=1)
            zp = 0.5 * z + u
            km = rls_update(km, z, u, zp)
            z = rng.normal(size=1)
        assert km.A[0, 0] == pytest.approx(0.5, abs=1e-6)
        assert km.B[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_covariance_stays_symmetric_positive_definite(self):
        rng = np.random.default_rng(5)
        for lam in (0.92, 0.97, 1.0):
            km = fresh_model(lam=lam, delta=1e3)
            z = rng.normal(size=2)
            for _ in range(300):
                u = rng.normal(size=1)
                zp = 0.5 * z + km.B.ravel() * u + rng.normal(size=2) * 0.1
                km = rls_update(km, z, u, zp)
                z = zp
            assert np.max(np.abs(km.gamma_cov - km.gamma_cov.T)) < 1e-12
            assert np.min(np.linalg.eigvalsh(km.gamma_cov)) > 0

    def test_degenerate_denominator_raises(self):
        km = fresh_model(lam=1e-16, delta=1e-16)
        with pytest.raises(NumericalError):
            rls_update(km, np.zeros(2), np.zeros(1), np.zeros(2))

    def test_nan_on_the_covariance_diagonal_raises(self):
        # the Cholesky factorization reports success on a NaN diagonal
        # entry, so the update tests finiteness first
        km = nan_covariance_model()
        with pytest.raises(NumericalError, match="non-finite covariance"):
            rls_update(km, np.array([1.0, -0.5]), np.array([0.2]), np.array([0.9, 0.4]))

    def test_update_leaves_its_argument_unchanged(self):
        km = KoopmanModel(np.diag([0.5, 0.8]), [[0.2], [1.0]], np.eye(3), 0.97,
                          identity_observables(2))
        before = {name: getattr(km, name).copy() for name in ("A", "B", "gamma_cov")}
        z = np.array([1.0, -1.0])
        km2 = rls_update(km, z, np.array([0.5]), np.array([0.3, 0.4]))
        assert km2 is not km
        for name, value in before.items():
            assert np.array_equal(getattr(km, name), value)
            assert not np.array_equal(getattr(km2, name), value)
        assert km2.lam == km.lam and km2.observables is km.observables


class TestKoopmanControl:
    def test_identity_lift_equals_plain_lqr(self):
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        B = np.array([[0.0], [1.0]])
        km = KoopmanModel.initial(A, B, identity_observables(2))
        _, K = dare_solve(A, B, np.eye(2), [[10.0]])
        x = np.array([3.0, -1.0])
        u = koopman_control(km, x, np.eye(2), [[10.0]])
        assert u[0] == pytest.approx(float((K @ x)[0]), abs=1e-9)

    def test_zero_state_zero_action(self):
        km = fresh_model()
        km = KoopmanModel(np.eye(2) * 0.5, [[0.0], [1.0]], km.gamma_cov, 1.0, km.observables)
        u = koopman_control(km, np.zeros(2), np.eye(2), [[1.0]])
        assert u[0] == pytest.approx(0.0, abs=1e-12)

    def test_block_initial_model_matches_plain_lqr_on_the_state(self):
        # zero coupling blocks keep the lifted gain equal to the plain one
        from actiongov.simlab import example_initial_koopman, example_system

        plant, _, _ = example_system()
        km = example_initial_koopman()
        _, K = dare_solve(plant.A, plant.B, np.eye(2), [[10.0]])
        x = np.array([14.0, 6.0])
        z = km.observables(x)
        u = koopman_control(km, z, np.diag([1.0, 1.0, 0.0, 0.0]), [[10.0]])
        assert u[0] == pytest.approx(float((K @ x)[0]), abs=1e-8)


def linear_koopman_env(A, B, oracle=None):
    def step(x, u):
        return A @ x + B @ np.atleast_1d(u), 0.0

    return KoopmanEnv(
        initial_state=np.array([1.0, -0.5]),
        step=step,
        cost=lambda x, u: 0.0,
        violated=lambda x, u: False,
        q_z=np.eye(2),
        r_u=np.array([[1.0]]),
        oracle=oracle,
        sample_reset=lambda rng: rng.uniform(-1, 1, size=2),
    )


UNSTABILIZABLE = pytest.mark.parametrize("A, B", [
    (np.diag([1.2, 0.5]), np.array([[0.0], [1.0]])),
    (1.5 * np.eye(2), np.zeros((2, 1))),
], ids=["uncontrollable-mode", "no-input-authority"])


class TestNoStabilizingSolution:
    # the DARE is the one regulator: a model it cannot stabilize raises

    @UNSTABILIZABLE
    def test_koopman_control_raises(self, A, B):
        km = KoopmanModel.initial(A, B, identity_observables(2))
        with pytest.raises(NoStabilizingSolutionError):
            koopman_control(km, np.array([1.0, -2.0]), np.eye(2), np.array([[1.0]]))

    @UNSTABILIZABLE
    def test_run_safe_koopman_raises_at_step_zero(self, A, B):
        km = KoopmanModel.initial(A, B, identity_observables(2))
        with pytest.raises(NoStabilizingSolutionError) as info:
            run_safe_koopman(linear_koopman_env(A, B), km, 5, np.inf, np.random.default_rng(0))
        assert info.value.step == 0


class TestRunSafeKoopman:
    def test_prediction_error_vanishes_on_linear_plant(self):
        # periodic random resets keep the data exciting enough to identify;
        # the initial input matrix must be nonzero or the regulator never
        # proposes any action and the input channel stays unexcited
        A = np.array([[0.9, 0.2], [0.0, 0.8]])
        B = np.array([[0.0], [1.0]])
        env = linear_koopman_env(A, B)
        km0 = KoopmanModel.initial(np.zeros((2, 2)), [[0.2], [0.8]],
                                   identity_observables(2), 1.0, 1e6)
        km, traj = run_safe_koopman(env, km0, 120, 10, np.random.default_rng(0))
        assert np.max(np.abs(km.A - A)) < 1e-5
        assert np.max(np.abs(km.B - B)) < 1e-5
        # one-step prediction residual on the tail of the trajectory,
        # skipping pairs that straddle a reset boundary
        xs = traj.states
        us = traj.actions
        err = 0.0
        for k in range(100, len(xs) - 1):
            if (k + 1) % 10 == 0:
                continue
            err = max(err, float(np.max(np.abs(xs[k + 1] - km.A @ xs[k] - km.B @ us[k]))))
        assert err < 1e-5

    def test_governor_error_reports_its_step(self):
        A = np.array([[0.9, 0.0], [0.0, 0.9]])
        B = np.array([[1.0], [1.0]])
        env = linear_koopman_env(A, B, oracle=GivesUpAfter(6))
        km0 = KoopmanModel.initial(A, B, identity_observables(2))
        with pytest.raises(UninitializedGovernorError, match="step 6") as info:
            run_safe_koopman(env, km0, 20, 5, np.random.default_rng(0))
        assert info.value.step == 6

    def test_estimator_error_reports_its_step(self):
        # a forgetting factor below the update's threshold at the zero state,
        # where the regressor vanishes, leaves the denominator vanishing
        A = np.array([[0.9, 0.0], [0.0, 0.9]])
        B = np.array([[1.0], [1.0]])
        env = dataclasses.replace(linear_koopman_env(A, B), initial_state=np.zeros(2))
        km0 = KoopmanModel.initial(A, B, identity_observables(2), lam=1e-15)
        with pytest.raises(NumericalError, match="step 0: vanishing denominator") as info:
            run_safe_koopman(env, km0, 20, 5, np.random.default_rng(0))
        assert info.value.step == 0

    def test_lost_definiteness_reports_its_step(self):
        # dividing by a forgetting factor this small magnifies the rounding
        # of the rank-one downdate until the covariance is indefinite
        A = np.array([[0.9, 0.0], [0.0, 0.9]])
        B = np.array([[1.0], [1.0]])
        km0 = KoopmanModel.initial(A, B, identity_observables(2), lam=1e-15)
        with pytest.raises(NumericalError, match="positive definiteness") as info:
            run_safe_koopman(linear_koopman_env(A, B), km0, 20, 5, np.random.default_rng(0))
        assert info.value.step == 1

    def test_reset_draw_error_reports_its_step(self):
        # the reset draw starts its step: a draw from an empty set at the
        # step-20 reset leaves as an error of step 20, after 20 whole steps
        A = np.array([[0.9, 0.0], [0.0, 0.9]])
        B = np.array([[1.0], [1.0]])
        env = linear_koopman_env(A, B)
        steps = []
        env.step = lambda x, u: steps.append(x) or (A @ x + B @ u, 0.0)

        def empty_reset(rng):
            raise EmptySetError("nothing to draw from")

        env.sample_reset = empty_reset
        with pytest.raises(EmptySetError) as info:
            run_safe_koopman(env, KoopmanModel.initial(A, B, identity_observables(2)),
                             40, 20, np.random.default_rng(0))
        assert info.value.step == 20
        assert str(info.value).startswith("step 20: ")
        assert len(steps) == 20

    def test_non_finite_lift_is_a_numerical_error_of_its_step(self):
        # a reset to a non-finite state is a diverged run, not bad input
        A = np.array([[0.9, 0.0], [0.0, 0.9]])
        B = np.array([[1.0], [1.0]])
        env = linear_koopman_env(A, B)
        env.sample_reset = lambda rng: np.array([np.nan, 0.0])
        with pytest.raises(NumericalError, match="non-finite") as info:
            run_safe_koopman(env, KoopmanModel.initial(A, B, identity_observables(2)),
                             40, 20, np.random.default_rng(0))
        assert info.value.step == 20
        assert str(info.value).startswith("step 20: ")

    def test_non_finite_start_state_is_a_numerical_error_of_step_zero(self):
        A = np.array([[0.9, 0.0], [0.0, 0.9]])
        B = np.array([[1.0], [1.0]])
        env = dataclasses.replace(linear_koopman_env(A, B), initial_state=[np.nan, 0.0])
        with pytest.raises(NumericalError, match="non-finite") as info:
            run_safe_koopman(env, KoopmanModel.initial(A, B, identity_observables(2)),
                             5, np.inf, np.random.default_rng(0))
        assert info.value.step == 0
        assert str(info.value).startswith("step 0: ")

    def test_non_finite_covariance_reports_its_step(self):
        # caught by the update that produced it, not by the next step's
        # regulator
        A = np.array([[0.9, 0.0], [0.0, 0.9]])
        B = np.array([[1.0], [1.0]])
        with pytest.raises(NumericalError, match="non-finite covariance") as info:
            run_safe_koopman(linear_koopman_env(A, B), nan_covariance_model(), 5, np.inf,
                             np.random.default_rng(0))
        assert info.value.step == 0
        assert str(info.value).startswith("step 0: ")

    def test_no_resets_when_period_is_infinite(self):
        A = np.array([[0.9, 0.0], [0.0, 0.9]])
        B = np.array([[1.0], [1.0]])
        env = linear_koopman_env(A, B)
        _, traj = run_safe_koopman(env, KoopmanModel.initial(A, B, identity_observables(2)),
                                   50, np.inf, np.random.default_rng(1))
        xs = traj.states
        for k in range(len(xs) - 1):
            expected = A @ xs[k] + B @ traj.steps[k].u
            assert np.allclose(xs[k + 1], expected, atol=1e-12)

    @pytest.mark.parametrize("period", [np.nan, -np.inf, 2.5, 0, -3, None],
                             ids=["nan", "minus-inf", "fraction", "zero", "negative", "none"])
    def test_reset_period_is_checked_before_the_first_step(self, period):
        A = np.array([[0.9, 0.0], [0.0, 0.9]])
        B = np.array([[1.0], [1.0]])
        env = linear_koopman_env(A, B)
        steps = []
        env.step = lambda x, u: steps.append(x) or (A @ x + B @ u, 0.0)
        with pytest.raises(ValueError, match="reset period"):
            run_safe_koopman(env, KoopmanModel.initial(A, B, identity_observables(2)),
                             20, period, np.random.default_rng(0))
        assert steps == []

    def test_each_state_is_lifted_once_and_no_model_is_rebuilt(self, monkeypatch):
        # 50 steps with a reset every 10: the start, 4 reset states and 50
        # successors are each lifted once, and the updates build no model
        # through the checking constructor
        A = np.array([[0.9, 0.0], [0.0, 0.9]])
        B = np.array([[1.0], [1.0]])
        lifts = []
        counting = ObservableMap(fn=lambda x: lifts.append(x) or x, n_z=2, name="counting")
        km0 = KoopmanModel.initial(A, B, counting)
        built = []
        init = KoopmanModel.__init__
        monkeypatch.setattr(KoopmanModel, "__init__", lambda self, *args, **kw:
                            built.append(args) or init(self, *args, **kw))
        run_safe_koopman(linear_koopman_env(A, B), km0, 50, 10, np.random.default_rng(0))
        assert len(lifts) == 50 + 1 + 4
        assert built == []

    def test_runs_from_one_model_repeat_and_leave_it_unchanged(self):
        # the same start model and rng seed give the same run twice over
        A = np.array([[0.9, 0.2], [0.0, 0.8]])
        B = np.array([[0.0], [1.0]])
        km0 = KoopmanModel.initial(np.zeros((2, 2)), [[0.2], [0.8]],
                                   identity_observables(2), 0.98, 1e3)
        start = km0.to_dict()
        runs = [run_safe_koopman(linear_koopman_env(A, B), km0, 60, 10,
                                 np.random.default_rng(3)) for _ in range(2)]
        assert km0.to_dict() == start
        (km1, traj1), (km2, traj2) = runs
        assert km1.to_dict() == km2.to_dict() != start
        assert traj1.to_csv() == traj2.to_csv()

    def test_env_without_sample_reset_fails_at_once(self):
        with pytest.raises(TypeError, match="sample_reset"):
            KoopmanEnv(initial_state=np.zeros(2), step=lambda x, u: (x, 0.0),
                       cost=lambda x, u: 0.0, violated=lambda x, u: False,
                       q_z=np.eye(2), r_u=np.array([[1.0]]))


class TestValidation:
    def test_qtable_domain_checks(self):
        with pytest.raises(ValueError):
            QTable.zeros(2, 2, gamma=1.0)
        with pytest.raises(ValueError):
            QTable.zeros(2, 2, alpha=0.0)
        with pytest.raises(ValueError):
            QTable.zeros(2, 2, penalty_m=0.0)

    def test_koopman_model_checks(self):
        obs = identity_observables(2)
        with pytest.raises(ValueError):
            KoopmanModel(np.zeros((2, 2)), np.zeros((2, 1)), np.eye(3) * -1.0, 1.0, obs)
        with pytest.raises(ValueError):
            KoopmanModel(np.zeros((2, 2)), np.zeros((2, 1)), np.eye(3), 1.5, obs)
        with pytest.raises(ValueError):
            KoopmanModel(np.zeros((3, 2)), np.zeros((2, 1)), np.eye(3), 1.0, obs)

    def test_observable_map_checks(self):
        bad = ObservableMap(fn=lambda x: [1.0], n_z=2)
        with pytest.raises(ValueError):
            bad(np.zeros(2))
        # a non-finite lift is a numerical failure of the run, not bad input
        diverged = ObservableMap(fn=lambda x: [np.inf, 0.0], n_z=2)
        with pytest.raises(NumericalError, match="non-finite"):
            diverged(np.zeros(2))
