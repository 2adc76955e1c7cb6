import numpy as np
import pytest

from actiongov.errors import (
    EmptySetError,
    NonFiniteInputError,
    UninitializedGovernorError,
)
from actiongov.governor import (
    ActionDistance,
    Branch,
    GovernorState,
    govern,
    nearest_candidate,
)
from actiongov.safe_learning import SupervisedEnv, supervised_step
from actiongov.simlab import ScenarioConfig, build_grid_backend, build_rig
from actiongov.trajectory import Trajectory
from enumerated_oracle import EnumeratedOracle


def eq9_feasible(oracle, x):
    """The backup problem at ``x`` is solvable exactly when ``x`` lies in the
    projection of the safe set (see TestBackupReference)."""
    return oracle.proj_member(x)


# ---------------------------------------------------------------------------
# ring system: the safe set is returnable but not positively invariant


class RingOracle(EnumeratedOracle):
    """Five states on a ring; the safe set covers states 0 and 1 only."""

    members = {(0, 0), (1, 0)}
    proj = {0, 1}

    def __init__(self, unsafe_pairs=frozenset({(4, 1)})):
        self.unsafe_pairs = unsafe_pairs

    def constraint_ok(self, x, u):
        return (int(x), int(round(float(np.atleast_1d(u)[0])))) not in self.unsafe_pairs

    def member(self, x, v):
        return (int(x), int(np.atleast_1d(v)[0])) in self.members

    def proj_member(self, x):
        return int(x) in self.proj

    def feasible_actions(self, x):
        return np.array(
            [
                u
                for u in (0.0, 1.0)
                if self.constraint_ok(x, u) and (int(x) + 1) % 5 in self.proj
            ]
        )

    def candidate_refs(self, x):
        return np.array([0.0])

    def pi0(self, x, v):
        return np.array([0.0])


def ring_step(x):
    return (int(x) + 1) % 5


def supervised_env(oracle):
    """A supervised env around ``oracle``: the ring's step, no cost, no violation."""
    return SupervisedEnv(initial_state=0, step=lambda x, u: (ring_step(x), 0.0),
                         cost=lambda x, u: 0.0, violated=lambda x, u: False, oracle=oracle)


class TestRing:
    def test_branch_sequence_around_the_ring(self):
        oracle, dist = RingOracle(), ActionDistance()
        gs = GovernorState()
        branches = []
        x = 0
        for _ in range(10):
            outcome, gs = govern(x, np.array([1.0]), gs, oracle, dist)
            branches.append(outcome.branch)
            if outcome.branch is Branch.BACKUP_FRESH:
                # the freshly selected reference pairs with x inside the set
                assert oracle.member(x, gs.v_hat)
            if outcome.branch is Branch.BACKUP_HELD:
                assert np.array_equal(outcome.u, oracle.pi0(x, gs.v_hat))
            x = ring_step(x)
        assert branches[:5] == [
            Branch.ADJUSTED,      # 0 -> 1 stays in the projection
            Branch.BACKUP_FRESH,  # at 1 no action keeps the successor inside
            Branch.BACKUP_HELD,   # 2 and 3 are outside the projection
            Branch.BACKUP_HELD,
            Branch.ADJUSTED,      # at 4 the successor is 0 again
        ]
        assert branches[5:] == branches[:5]

    def test_unsafe_action_filtered_at_state_4(self):
        oracle, dist = RingOracle(), ActionDistance()
        u = oracle.adjust(4, np.array([1.0]), dist)
        assert u[0] == 0.0  # action 1 violates the constraint at state 4

    def test_held_branch_without_history_is_an_error(self):
        oracle, dist = RingOracle(), ActionDistance()
        with pytest.raises(UninitializedGovernorError):
            govern(2, np.array([0.0]), GovernorState(), oracle, dist)

    def test_eventual_feasibility(self):
        # after any step with an available branch, another one occurs later
        oracle, dist = RingOracle(), ActionDistance()
        gs = GovernorState()
        feasible = []
        x = 0
        for _ in range(12):
            outcome, gs = govern(x, np.array([1.0]), gs, oracle, dist)
            eq8_feasible = outcome.branch is Branch.ADJUSTED
            feasible.append(eq8_feasible or eq9_feasible(oracle, x))
            x = ring_step(x)
        for t, ok in enumerate(feasible[:-5]):
            if ok:
                assert any(feasible[t + 1 :])

    def test_outcome_flags_consistent_with_branch(self):
        oracle, dist = RingOracle(), ActionDistance()
        gs = GovernorState()
        x = 0
        for _ in range(10):
            outcome, gs = govern(x, np.array([1.0]), gs, oracle, dist)
            eq8 = oracle.adjust(x, np.array([1.0]), dist) is not None
            eq9 = eq9_feasible(oracle, x)
            if outcome.branch is Branch.ADJUSTED:
                assert eq8
            elif outcome.branch is Branch.BACKUP_FRESH:
                assert not eq8 and eq9
            else:
                assert not eq8 and not eq9
            x = ring_step(x)


# ---------------------------------------------------------------------------
# random bounded-walk systems with a brute-force safe set


class WalkSystem:
    """Bounded random walk; edge states violate the constraints."""

    def __init__(self, n_states, w_values, rng):
        self.n = n_states
        self.actions = np.array([-1.0, 0.0, 1.0])
        self.w_values = np.array(w_values)
        self.v_values = np.arange(2, n_states - 2, dtype=float)
        self.safe_by_v = self._invariant_safe_sets()

    def f(self, x, u, w):
        return int(np.clip(int(x) + int(round(float(np.atleast_1d(u)[0]))) + int(w), 0, self.n - 1))

    def pi0(self, x, v):
        v0 = float(np.atleast_1d(v)[0])
        return np.array([float(np.sign(v0 - int(x)))])

    def constraint_ok(self, x, u):
        return 1 <= int(x) <= self.n - 2

    def _invariant_safe_sets(self):
        # greatest invariant admissible set per reference (test-side oracle)
        safe = {}
        for v in self.v_values:
            s = {x for x in range(self.n) if self.constraint_ok(x, None)}
            while True:
                nxt = {
                    x
                    for x in s
                    if all(self.f(x, self.pi0(x, v), w) in s for w in self.w_values)
                }
                if nxt == s:
                    break
                s = nxt
            safe[float(v)] = s
        return safe


class WalkOracle(EnumeratedOracle):
    def __init__(self, sys: WalkSystem):
        self.sys = sys
        self.proj = set().union(*sys.safe_by_v.values()) if sys.safe_by_v else set()

    def member(self, x, v):
        v0 = float(np.atleast_1d(v)[0])
        return v0 in self.sys.safe_by_v and int(x) in self.sys.safe_by_v[v0]

    def proj_member(self, x):
        return int(x) in self.proj

    def feasible_actions(self, x):
        return np.array(
            [
                u
                for u in self.sys.actions
                if self.sys.constraint_ok(x, u)
                and all(self.sys.f(x, u, w) in self.proj for w in self.sys.w_values)
            ]
        )

    def candidate_refs(self, x):
        return self.sys.v_values

    def pi0(self, x, v):
        return self.sys.pi0(x, v)


class TestAdjustAction:
    def test_passthrough_when_feasible(self):
        sys = WalkSystem(9, [0], np.random.default_rng(0))
        oracle, dist = WalkOracle(sys), ActionDistance()
        u = oracle.adjust(4, np.array([1.0]), dist)
        assert u[0] == 1.0

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(1)
        sys = WalkSystem(10, [-1, 0, 1], rng)
        oracle, dist = WalkOracle(sys), ActionDistance()
        for x in range(10):
            for u1 in (-2.0, -0.4, 0.0, 0.7, 2.5):
                got = oracle.adjust(x, np.array([u1]), dist)
                # independent brute force over the raw definitions
                feas = [
                    u
                    for u in sys.actions
                    if sys.constraint_ok(x, u)
                    and all(sys.f(x, u, w) in oracle.proj for w in sys.w_values)
                ]
                if not feas:
                    assert got is None
                else:
                    best = min(feas, key=lambda u: (abs(u1 - u), u))
                    assert got[0] == best

    def test_equidistant_tie_takes_smaller_action(self):
        sys = WalkSystem(9, [0], np.random.default_rng(2))
        oracle, dist = WalkOracle(sys), ActionDistance()
        u = oracle.adjust(4, np.array([0.5]), dist)
        assert u[0] == 0.0  # 0 and 1 are both at distance 0.5


class TestBackupReference:
    def test_zero_distance_reference_selected(self):
        sys = WalkSystem(10, [0], np.random.default_rng(3))
        oracle, dist = WalkOracle(sys), ActionDistance()
        x = 3
        v_star = 5.0
        u1 = sys.pi0(x, v_star)
        v = oracle.backup(x, u1, dist)
        # some feasible reference reproduces u1 exactly; distance is zero
        assert dist(u1, sys.pi0(x, v)) == 0.0

    def test_matches_exhaustive_search(self):
        sys = WalkSystem(10, [-1, 1], np.random.default_rng(4))
        oracle, dist = WalkOracle(sys), ActionDistance()
        for x in range(10):
            u1 = np.array([0.25])
            got = oracle.backup(x, u1, dist)
            feas = [v for v in sys.v_values if oracle.member(x, v)]
            if not feas:
                assert got is None
            else:
                best = min(feas, key=lambda v: (abs(u1[0] - sys.pi0(x, v)[0]), v))
                assert got[0] == best

    def test_infeasible_iff_outside_projection(self):
        sys = WalkSystem(10, [-1, 1], np.random.default_rng(5))
        oracle, dist = WalkOracle(sys), ActionDistance()
        for x in range(10):
            v = oracle.backup(x, np.array([0.0]), dist)
            assert (v is None) == (not oracle.proj_member(x))


class TestAllTimeSafety:
    def test_hundred_randomized_scenarios(self):
        # governed runs that start with a feasible adjustment never violate
        rng = np.random.default_rng(6)
        scenarios = 0
        while scenarios < 100:
            n = int(rng.integers(7, 13))
            w_vals = [[0], [-1, 1], [-1, 0, 1]][int(rng.integers(3))]
            sys = WalkSystem(n, w_vals, rng)
            oracle = WalkOracle(sys)
            dist = ActionDistance()
            x = int(rng.integers(0, n))
            if oracle.adjust(x, np.array([0.0]), dist) is None:
                continue
            scenarios += 1
            gs = GovernorState()
            for _ in range(50):
                u1 = np.array([float(rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0]))])
                outcome, gs = govern(x, u1, gs, oracle, dist)
                assert sys.constraint_ok(x, outcome.u), (n, w_vals, x)
                w = int(rng.choice(sys.w_values))
                x = sys.f(x, outcome.u, w)

    def test_determinism(self):
        sys = WalkSystem(10, [-1, 0, 1], np.random.default_rng(7))
        oracle, dist = WalkOracle(sys), ActionDistance()

        def run():
            gs = GovernorState()
            out = []
            x = 4
            for k in range(30):
                u1 = np.array([float((-1) ** k)])
                outcome, gs = govern(x, u1, gs, oracle, dist)
                out.append(float(outcome.u[0]))
                x = sys.f(x, outcome.u, [-1, 0, 1][k % 3])
            return out

        assert run() == run()


class TestDistance:
    def test_norms(self):
        l1 = ActionDistance("l1")
        linf = ActionDistance("linf")
        assert l1([1.0, 2.0], [0.0, 0.0]) == 3.0
        assert linf([1.0, 2.0], [0.0, 0.0]) == 2.0

    @pytest.mark.parametrize("norm, reduce", [("l1", sum), ("linf", max)])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_many_is_bitwise_the_scalar_call(self, norm, reduce, dim):
        dist = ActionDistance(norm)
        rng = np.random.default_rng(dim)
        u1 = rng.normal(size=dim) * 1e3
        us = np.concatenate([rng.normal(size=(40, dim)) * 10.0 ** rng.integers(-8, 8, (40, 1)),
                             u1[None, :], -u1[None, :]])
        got = dist.many(u1, us)
        assert got.shape == (us.shape[0],)
        for d, u in zip(got, us):
            assert d == dist(u1, u)
            assert d == reduce(abs(float(a) - float(b)) for a, b in zip(u1, u))
        if dim == 1:
            assert np.array_equal(dist.many(u1, us.ravel()), got)
            assert dist(float(u1[0]), float(us[0, 0])) == got[0]
        assert dist.many(u1, np.empty((0, dim))).shape == (0,)

    def test_unknown_norm_rejected(self):
        with pytest.raises(ValueError):
            ActionDistance("l2")


# ---------------------------------------------------------------------------
# the step itself: pass-through and error tagging; govern knows no time,
# and the supervised step stamps its errors with the loop's index


class FailsAtThird(RingOracle):
    calls = 0

    def adjust(self, x, u1, dist):
        self.calls += 1
        if self.calls == 3:
            raise EmptySetError("lost", 42)
        return u1


class TestGovernStep:
    def test_no_oracle_passes_through(self):
        gs = GovernorState()
        for k in range(3):
            outcome, gs = govern(0, [float(k)], gs, None)
            assert outcome.branch is Branch.NONE
            assert outcome.u.tolist() == [float(k)]
        assert gs.v_hat is None

    def test_library_error_carries_its_step(self):
        oracle, gs = FailsAtThird(), GovernorState()
        govern(0, [0.0], gs, oracle)
        govern(1, [0.0], gs, oracle)
        with pytest.raises(EmptySetError) as info:
            govern(2, [0.0], gs, oracle)
        assert info.value.step is None
        assert info.value.args == ("lost", 42)
        assert str(info.value) == str(("lost", 42))

        env, gs, traj = supervised_env(FailsAtThird()), GovernorState(), Trajectory()
        supervised_step(env, 0, 0, [0.0], gs, traj)
        supervised_step(env, 1, 1, [0.0], gs, traj)
        with pytest.raises(EmptySetError) as info:
            supervised_step(env, 2, 2, [0.0], gs, traj)
        assert info.value.step == 2
        assert info.value.args == ("lost", 42)
        assert str(info.value).startswith("step 2: ")

    def test_uninitialized_error_carries_its_step(self):
        gs = GovernorState()
        with pytest.raises(UninitializedGovernorError) as info:
            govern(2, np.array([0.0]), gs, RingOracle())
        assert info.value.step is None and "step" not in str(info.value)
        assert gs.v_hat is None

        env = supervised_env(RingOracle())
        with pytest.raises(UninitializedGovernorError, match="step 7") as info:
            supervised_step(env, 7, 2, np.array([0.0]), GovernorState(), Trajectory())
        assert info.value.step == 7


@pytest.fixture(scope="module")
def tiny_grid_bundle():
    """(oracle, dss, tt, grid) on a coarse grid (the bench's tiny-size overrides)."""
    cfg = ScenarioConfig(seed=0, grid_dx1=2.5, grid_dx2=2.5, grid_dv=2.5, grid_dw=1.0,
                         action_du=2.0)
    return build_grid_backend(cfg, build_rig(cfg))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("backend", ["tiny_grid_bundle", "moas_bundle"])
@pytest.mark.parametrize("x, u1", [([0.0, 0.0], [NAN]), ([NAN, 0.0], [0.0]),
                                   ([INF, 0.0], [0.0]), ([0.0, 0.0], [INF])],
                         ids=["nan-u1", "nan-x", "inf-x", "inf-u1"])
def test_non_finite_input_is_a_typed_error_with_its_step(request, backend, x, u1):
    bundle = request.getfixturevalue(backend)
    gs = GovernorState()
    with pytest.raises(NonFiniteInputError) as info:
        govern(np.array(x), np.array(u1), gs, bundle[0], ActionDistance())
    assert info.value.step is None
    assert gs.v_hat is None

    env, traj = supervised_env(bundle[0]), Trajectory()
    with pytest.raises(NonFiniteInputError) as info:
        supervised_step(env, 5, np.array(x), np.array(u1), gs, traj)
    assert info.value.step == 5
    assert gs.v_hat is None and len(traj) == 0


class TestNearestCandidate:
    def test_empty_is_none(self):
        assert nearest_candidate(np.array([]), np.array([])) is None
        assert nearest_candidate([], []) is None

    def test_minimum_distance_wins(self):
        cands = [3.0, -1.0, 2.0]
        got = nearest_candidate(cands, [abs(c - 1.8) for c in cands])
        assert got.tolist() == [2.0]

    def test_ties_go_to_the_lexicographically_smallest_row(self):
        cands = np.array([[1.0, 5.0], [0.0, 9.0], [0.0, 2.0], [-4.0, 0.0]])
        got = nearest_candidate(cands, [0.0 if c[0] >= 0.0 else 1.0 for c in cands])
        assert got.tolist() == [0.0, 2.0]

    def test_returns_a_copy(self):
        cands = np.array([[1.0]])
        got = nearest_candidate(cands, [0.0])
        got[0] = 5.0
        assert cands[0, 0] == 1.0
