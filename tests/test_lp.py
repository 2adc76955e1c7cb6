import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from actiongov import lp
from actiongov.errors import NumericalError
from actiongov.lp import LpStatus, Sense, solve_lp
from references import DECISION_MARGIN, _dual_bounds, max_exceeds


def test_box_support_max_x1():
    res = solve_lp([1, 0], [[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1], Sense.MAX)
    assert res.status is LpStatus.OPTIMAL
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.point[0] == pytest.approx(1.0, abs=1e-9)


def test_contradictory_halfspaces_infeasible():
    res = solve_lp([1.0], [[1.0], [-1.0]], [0.0, -1.0], Sense.MAX)
    assert res.status is LpStatus.INFEASIBLE


def test_triangle_vertex_oracle():
    # max (1,1).x over {x >= 0, x1 + x2 <= 1}: enumerate the three vertices
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    expected = max(v @ np.ones(2) for v in vertices)
    res = solve_lp([1, 1], [[-1, 0], [0, -1], [1, 1]], [0, 0, 1], Sense.MAX)
    assert res.status is LpStatus.OPTIMAL
    assert res.value == pytest.approx(expected, abs=1e-9)


def test_unbounded_reported():
    res = solve_lp([1.0, 0.0], [[0.0, 1.0], [0.0, -1.0]], [1.0, 1.0], Sense.MAX)
    assert res.status is LpStatus.UNBOUNDED


def test_unconstrained():
    res = solve_lp([0.0, 0.0], np.zeros((0, 2)), [], Sense.MIN)
    assert res.status is LpStatus.OPTIMAL and res.value == 0.0
    assert np.array_equal(res.point, np.zeros(2))
    res = solve_lp([1.0, 0.0], np.zeros((0, 2)), [], Sense.MIN)
    assert res.status is LpStatus.UNBOUNDED
    # no rows: the dual has no point unless c = 0, and then no vertex
    for c in ([0.0, 0.0], [1.0, 0.0]):
        assert _dual_bounds(*lp._lp_data(c, np.zeros((0, 2)), [])) is None


def test_row_scaled_phase_one_fails_loudly():
    # max z1 - z2 over rows scaled across nine decades, which HiGHS reports
    # unbounded: absolute pivot tolerances make phase 1 report unbounded, so
    # solve_lp raises instead of answering, and the dual gives no certificate
    scaled = ([1.0, -1.0], [[-2532.26, 0.0], [0.0, 3.3989e-6], [2902.97, 1935.32]],
              [2532.26, -6.7979e-6, -967.66])
    with pytest.raises(NumericalError, match="phase-1"):
        solve_lp(*scaled, Sense.MAX)
    assert _dual_bounds(*lp._lp_data(*scaled)) is None


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_lp([1.0, 0.0], [[1.0]], [1.0])


def test_optimal_point_feasible_within_tolerance():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = rng.integers(1, 5)
        m = rng.integers(1, 15)
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m) * 2
        c = rng.normal(size=n)
        res = solve_lp(c, A, b, Sense.MIN)
        if res.status is LpStatus.OPTIMAL:
            assert np.all(A @ res.point <= b + 1e-7)
            assert res.value == pytest.approx(float(c @ res.point), abs=1e-7)


def test_agrees_with_reference_solver():
    rng = np.random.default_rng(11)
    statuses = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}
    for _ in range(200):
        n = rng.integers(1, 5)
        m = rng.integers(1, 12)
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m) * 2
        c = rng.normal(size=n)
        res = solve_lp(c, A, b, Sense.MIN)
        ref = linprog(c, A_ub=A, b_ub=b, bounds=[(None, None)] * int(n), method="highs")
        if ref.status in statuses:
            assert res.status is statuses[ref.status]
            if ref.status == 0:
                assert res.value == pytest.approx(ref.fun, abs=1e-6)


def test_deterministic_minimizer():
    A = [[1, 1], [-1, 0], [0, -1], [1, 0], [0, 1]]
    b = [1.5, 0, 0, 1, 1]
    first = solve_lp([-1, -1], A, b, Sense.MIN)
    second = solve_lp([-1, -1], A, b, Sense.MIN)
    assert np.array_equal(first.point, second.point)


# -- max_exceeds: the certified decision ------------------------------------------


def solve_lp_decision(c, a_ub, b_ub, threshold):
    """The decision as :func:`solve_lp` states it (sup of an empty set is -inf)."""
    res = solve_lp(c, a_ub, b_ub, Sense.MAX)
    if res.status is LpStatus.OPTIMAL:
        return res.value > threshold
    return res.status is LpStatus.UNBOUNDED


def highs_max(c, a_ub, b_ub):
    """HiGHS's ``(status, max c.z)``; status 0 optimal, 2 infeasible, 3 unbounded."""
    ref = linprog(-np.asarray(c), A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * len(c),
                  method="highs")
    return ref.status, (-ref.fun if ref.status == 0 else np.nan)


@pytest.fixture
def solve_lp_calls(monkeypatch):
    """The argument tuples of every :func:`solve_lp` call made through ``lp``."""
    calls = []

    def counting(*args):
        calls.append(args)
        return solve_lp(*args)

    monkeypatch.setattr(lp, "solve_lp", counting)
    return calls


def test_max_exceeds_small_cases():
    interval = ([[1.0], [-1.0]], [2.0, 1.0])  # -1 <= z <= 2
    assert max_exceeds([1.0], *interval, 1.9)
    assert not max_exceeds([1.0], *interval, 2.1)
    assert not max_exceeds([1.0], [[1.0], [-1.0]], [0.0, -1.0], -1e9)  # empty set
    assert max_exceeds([1.0, 0.0], [[0.0, 1.0], [0.0, -1.0]], [1.0, 1.0], 1e9)  # unbounded
    assert not max_exceeds([0.0, 0.0], np.zeros((0, 2)), [], 0.0)
    assert max_exceeds([1.0, 0.0], np.zeros((0, 2)), [], 0.0)
    with pytest.raises(ValueError):
        max_exceeds([1.0], [[np.nan]], [1.0], 0.0)


def test_max_exceeds_falls_back_at_the_threshold(solve_lp_calls):
    # the certified bounds of max z over [-1, 2] are tight at 2, so only a
    # threshold inside the margin reaches the simplex
    interval = ([[1.0], [-1.0]], [2.0, 1.0])
    assert max_exceeds([1.0], *interval, 2.0 - 10 * DECISION_MARGIN)
    assert not max_exceeds([1.0], *interval, 2.0 + 10 * DECISION_MARGIN)
    assert not solve_lp_calls
    assert not max_exceeds([1.0], *interval, 2.0)
    assert len(solve_lp_calls) == 1


def test_max_exceeds_falls_back_without_a_vertex(solve_lp_calls):
    # z2 is free, so a_ub has rank 1 < 2: an artificial stays basic in the
    # dual and only the simplex decides
    strip = ([1.0, 0.0], [[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0])
    assert _dual_bounds(*lp._lp_data(*strip)) is None
    assert max_exceeds(*strip, 0.5)
    assert len(solve_lp_calls) == 1


def test_dual_phase_one_failure_falls_back(solve_lp_calls):
    # absolute pivot tolerances fail the dual's phase 1 on these badly
    # scaled rows; the decision then comes from solve_lp, whose maximum
    # agrees with HiGHS's 523270.68
    scaled = ([-265000.0, 220500.0], [[8752000.0, -11260000.0], [-0.002978, 0.0181],
                                      [-2641.0, -870.5]], [3887000.0, 0.02845, 782.5])
    c, a, b = lp._lp_data(*scaled)
    with pytest.raises(NumericalError, match="phase-1"):
        lp._two_phase(a.T, c, b, lp.FEAS_TOL * (1.0 + np.abs(c).max()))
    assert _dual_bounds(c, a, b) is None
    assert max_exceeds(*scaled, 5.2e5)
    assert not max_exceeds(*scaled, 5.3e5)
    assert len(solve_lp_calls) == 2


KINDS = ("random", "degenerate", "redundant", "scaled", "infeasible", "unbounded")
# thresholds as offsets from the optimum, relative to 1 + |optimum|
OFFSETS = (0.0, 1e-12, -1e-12, 1e-8, -1e-8, 1e-5, -1e-5, 0.1, -0.1, 3.0, -3.0)


@st.composite
def lp_instances(draw):
    """``(kind, c, a_ub, b_ub, offset)`` with 1-3 variables."""
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.sampled_from(OFFSETS))
    a = rng.normal(size=(m, n))
    b = rng.uniform(0.1, 2.0, m)
    c = rng.normal(size=n)
    if kind == "degenerate":
        # small integers: many rows meet at one vertex, objectives tie
        a = rng.integers(-1, 2, size=(m + n, n)).astype(float)
        b = rng.integers(0, 2, size=m + n).astype(float)
        c = rng.integers(-1, 2, size=n).astype(float)
    elif kind == "redundant":
        # a box plus positively scaled copies of its rows, equal or looser
        box = np.vstack([np.eye(n), -np.eye(n)])
        copies = rng.integers(0, 2 * n, size=m)
        scale = rng.uniform(0.5, 3.0, m)
        a = np.vstack([box, box[copies] * scale[:, None]])
        b = np.concatenate([np.ones(2 * n), scale * rng.choice([1.0, 1.5], m)])
    elif kind == "scaled":
        rows = 10.0 ** rng.uniform(-6, 6, m)
        a, b = a * rows[:, None], b * rows
        c = c * 10.0 ** rng.uniform(-6, 6)
    elif kind == "infeasible":
        a = np.vstack([a, a[:1], -a[:1]])
        b = np.concatenate([b, [-1.0, -1.0]])
    elif kind == "unbounded":
        # every row decreases along d, so the objective d grows without end
        d = rng.normal(size=n)
        a = a - np.outer(a @ d / (d @ d), d) - rng.uniform(0.1, 1.0, (m, 1)) * d
        c = d
    return kind, c, a, b, offset


def threshold_near_optimum(status, opt, offset):
    base = opt if status == 0 else 0.0
    return base + offset * (1.0 + abs(base))


def certified_decision(c, a_ub, b_ub, threshold):
    """``(decided, bounds)``: whether the fast path decides, and its bounds."""
    bounds = _dual_bounds(*lp._lp_data(c, a_ub, b_ub))
    if bounds is None:
        return False, None
    margin = DECISION_MARGIN * (1.0 + abs(threshold))
    return not (bounds[0] - margin <= threshold <= bounds[1] + margin), bounds


PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=150, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])


@PROPERTY_SETTINGS
@given(lp_instances())
def test_max_exceeds_matches_solve_lp(instance):
    kind, c, a, b, offset = instance
    status, opt = highs_max(c, a, b)
    threshold = threshold_near_optimum(status, opt, offset)
    try:
        want = solve_lp_decision(c, a, b, threshold)
    except NumericalError:
        # solve_lp gives no answer; max_exceeds must then either fail the
        # same way or decide by its certificate, in agreement with HiGHS
        decided, _ = certified_decision(c, a, b, threshold)
        if not decided:
            with pytest.raises(NumericalError):
                max_exceeds(c, a, b, threshold)
            return
        want = status == 3 or (status == 0 and opt > threshold)
    assert max_exceeds(c, a, b, threshold) == want


@PROPERTY_SETTINGS
@given(lp_instances())
def test_certified_bounds_contain_the_highs_optimum(instance):
    kind, c, a, b, offset = instance
    status, opt = highs_max(c, a, b)
    threshold = threshold_near_optimum(status, opt, offset)
    decided, bounds = certified_decision(c, a, b, threshold)
    if bounds is None:
        return
    # a certificate exists only for a bounded, nonempty set
    assert status in (0, 4), f"{kind}: certified bounds {bounds} but HiGHS status {status}"
    if status != 0:
        return  # HiGHS gave no optimum to compare with
    # HiGHS is accurate to its own feasibility tolerance (1e-7), ten times
    # below the decision margin, so a certified decision is also HiGHS's
    slack = 1e-7 * (1.0 + abs(opt))
    assert bounds[0] - slack <= opt <= bounds[1] + slack
    if decided:
        assert (bounds[0] > threshold) == (opt > threshold)
