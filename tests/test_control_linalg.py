import numpy as np
import pytest
import scipy.linalg

from actiongov import control_linalg
from actiongov.control_linalg import (
    ClosedLoop,
    LinearPlant,
    NominalGain,
    OutputMap,
    dare_solve,
    dlyap_scaled,
    riccati_finite,
    spectral_radius,
)
from actiongov.convexset import HPolytope
from actiongov.errors import InstabilityError, NoStabilizingSolutionError, NumericalError
from actiongov.safe_learning import KoopmanModel, ObservableMap, rls_update
from actiongov.simlab import example_system


@pytest.fixture(scope="module")
def example():
    plant, out, gain = example_system()
    return plant, out, gain


class TestClosedLoop:
    def test_matrix_assembly_matches_direct_arithmetic(self, example):
        plant, out, gain = example
        cl = ClosedLoop(plant, out, gain)
        # independent arithmetic oracle
        assert np.allclose(cl.At, plant.A + plant.B @ gain.K)
        assert np.allclose(cl.At, [[1.0, 1.0], [-0.2054, 0.2165]])
        assert np.allclose(cl.Ct, out.C + out.D @ gain.K)
        assert np.allclose(cl.Dt, out.D @ gain.L)

    def test_reference_channel_value(self, example):
        plant, out, gain = example
        cl = ClosedLoop(plant, out, gain)
        assert np.allclose(cl.Bt, [[0.0], [0.2054]])

    def test_zero_gain_rejected_for_integrator(self, example):
        plant, out, _ = example
        zero = NominalGain([[0.0, 0.0]], [[0.0]])
        with pytest.raises(InstabilityError):
            ClosedLoop(plant, out, zero)


class TestDlyapScaled:
    def test_zero_loop_matrix(self):
        P = dlyap_scaled(np.zeros((2, 2)), np.eye(2), 0.5)
        assert np.allclose(P, 2.0 * np.eye(2))

    def test_scalar_hand_solution(self):
        # (0.25/0.75) P - P + 4 = 0  =>  P = 6
        P = dlyap_scaled([[0.5]], [[1.0]], 0.75)
        assert P[0, 0] == pytest.approx(6.0, abs=1e-12)

    def test_example_loop_residual(self, example):
        plant, out, gain = example
        cl = ClosedLoop(plant, out, gain)
        P = dlyap_scaled(cl.At, plant.E, 0.75)
        res = cl.At @ P @ cl.At.T / 0.75 - P + 4.0 * plant.E @ plant.E.T
        assert np.linalg.norm(res, "fro") < 1e-10
        assert np.min(np.linalg.eigvalsh(P)) > 0

    def test_alpha_domain_checked(self, example):
        plant, out, gain = example
        cl = ClosedLoop(plant, out, gain)
        rho2 = spectral_radius(cl.At) ** 2
        with pytest.raises(ValueError):
            dlyap_scaled(cl.At, plant.E, rho2 * 0.5)
        with pytest.raises(ValueError):
            dlyap_scaled(cl.At, plant.E, 1.0)

    def test_deviation_ellipsoid_invariant_under_disturbance(self, example):
        # boundary deviations stay inside the sublevel set for vertex noise
        plant, out, gain = example
        cl = ClosedLoop(plant, out, gain)
        P = dlyap_scaled(cl.At, plant.E, 0.75)
        sqrt_p = scipy.linalg.sqrtm(P).real
        rng = np.random.default_rng(0)
        p_inv = np.linalg.inv(P)
        for _ in range(1000):
            theta = rng.uniform(0, 2 * np.pi)
            e = sqrt_p @ np.array([np.cos(theta), np.sin(theta)])
            for w in (-1.0, 1.0):
                e_next = cl.At @ e + plant.E.ravel() * w
                assert e_next @ p_inv @ e_next <= 1.0 + 1e-9


class TestDare:
    def test_example_gain(self, example):
        plant, _, _ = example
        _, K = dare_solve(plant.A, plant.B, np.eye(2), [[10.0]])
        assert np.all(np.abs(K - np.array([[-0.2054, -0.7835]])) < 5e-4)

    def test_one_step_decay(self):
        P, K = dare_solve([[0.0]], [[1.0]], [[1.0]], [[1.0]])
        assert P[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert K[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_random_stabilizable_pairs(self):
        rng = np.random.default_rng(8)
        solved = 0
        for _ in range(20):
            A = rng.normal(size=(2, 2))
            B = rng.normal(size=(2, 1))
            try:
                P, K = dare_solve(A, B, np.eye(2), [[1.0]])
            except NoStabilizingSolutionError:
                continue
            solved += 1
            assert spectral_radius(A + B @ K) < 1.0
            ref = scipy.linalg.solve_discrete_are(A, B, np.eye(2), [[1.0]])
            assert np.max(np.abs(P - ref)) < 1e-6
        assert solved >= 10

    def test_fixed_point_residual(self, example):
        plant, _, _ = example
        P, K = dare_solve(plant.A, plant.B, np.eye(2), [[10.0]])
        G = np.asarray([[10.0]]) + plant.B.T @ P @ plant.B
        res = np.eye(2) + plant.A.T @ P @ (plant.A + plant.B @ K) - P
        assert np.max(np.abs(res)) < 1e-9
        assert np.max(np.abs(K + np.linalg.solve(G, plant.B.T @ P @ plant.A))) < 1e-9

    @pytest.mark.parametrize("B, R", [([[0.0], [1.0]], [[1.0]]), (np.ones((2, 2)), np.eye(2))],
                             ids=["one-input", "two-input"])
    def test_nan_model_is_caught_by_the_divergence_test(self, B, R):
        with pytest.raises(NoStabilizingSolutionError, match="diverged"):
            dare_solve([[1.0, np.nan], [0.0, 1.0]], B, np.eye(2), R)

    def test_unstable_model_without_input_authority_diverges(self):
        with pytest.raises(NoStabilizingSolutionError, match="diverged"):
            dare_solve(1.5 * np.eye(2), np.zeros((2, 1)), np.eye(2), [[1.0]])

    def test_singular_gain_system_on_the_two_input_path(self):
        # equal input columns and an R below the rounding of B'PB make
        # R + B'PB exactly singular, while I + GH keeps its 1
        with pytest.raises(NoStabilizingSolutionError, match="step became singular"):
            dare_solve([[0.5]], [[1e-3, 1e-3]], [[1.0]], 1e-30 * np.eye(2))

    @pytest.mark.parametrize("B, R", [(np.ones((2, 1)), [[1e-20]]),
                                      (np.ones((2, 2)), 1e-20 * np.eye(2))],
                             ids=["one-input", "two-input"])
    def test_singular_doubling_system(self, B, R):
        # G = B R^-1 B' of 1e20 swamps the 1 of I + GH, whose rows are then equal
        with pytest.raises(NoStabilizingSolutionError, match="doubling became singular"):
            dare_solve(np.eye(2), B, np.eye(2), R)

    def test_r_singular_by_rounding_is_not_positive_definite(self):
        # an exactly singular R whose rounded eigenvalues are both positive
        R = [[196.0, 42.0], [42.0, 9.0]]
        assert np.linalg.eigvalsh(R).min() > 0.0
        with pytest.raises(ValueError, match="R must be positive definite"):
            dare_solve(np.eye(2), np.ones((2, 2)), np.eye(2), R)


class TestLapackGufuncs:
    """The private ``numpy.linalg._umath_linalg`` gufuncs behind the DARE and
    the RLS check must give the public functions' bits and failures."""

    @staticmethod
    def matrices():
        rng = np.random.default_rng(31)
        for n in range(1, 7):
            for _ in range(40):
                yield rng, rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3, 3)

    def test_solve_bits(self):
        for rng, a in self.matrices():
            b = rng.normal(size=(a.shape[0], 2 * a.shape[0]))
            assert control_linalg._solve(a, b).tobytes() == np.linalg.solve(a, b).tobytes()

    def test_eigvals_bits(self):
        for _, a in self.matrices():
            # the public function drops a zero imaginary part
            want = np.linalg.eigvals(a).astype(complex)
            assert control_linalg._eigvals(a).tobytes() == want.tobytes()
            assert spectral_radius(a) == float(np.max(np.abs(np.linalg.eigvals(a))))

    def test_eigvalsh_bits(self):
        for _, a in self.matrices():
            s = a + a.T
            assert control_linalg._eigvalsh(s).tobytes() == np.linalg.eigvalsh(s).tobytes()

    def test_positive_definiteness_as_cholesky_decides_it(self):
        outcomes = set()
        for rng, a in self.matrices():
            s = a @ a.T + rng.choice([-1.0, 0.0, 1.0]) * np.eye(a.shape[0])
            try:
                np.linalg.cholesky(s)
                want = True
            except np.linalg.LinAlgError:
                want = False
            assert control_linalg._is_pd(s) == want
            outcomes.add(want)
        assert outcomes == {True, False}

    def test_singular_solve_is_nan_and_diagnosed(self):
        a, b = np.ones((3, 3)), np.eye(3)
        with np.errstate(all="ignore"):
            assert np.isnan(control_linalg._solve(a, b)).all()
        assert control_linalg._singular(a, b)
        assert not control_linalg._singular(np.eye(3), b)

    def test_lost_definiteness_raises_from_rls_update(self):
        km = KoopmanModel.initial(np.eye(2), np.ones((2, 1)),
                                  ObservableMap(fn=lambda x: x, n_z=2), lam=1.0)
        km.gamma_cov = np.diag([1.0, 1.0, -1e-3])  # indefinite, as a drifted estimate
        with pytest.raises(NumericalError, match="recursive update lost positive definiteness"):
            rls_update(km, np.zeros(2), [0.0], np.zeros(2))

    def test_non_finite_matrix_has_no_spectral_radius(self):
        with pytest.raises(NumericalError, match="non-finite"):
            spectral_radius([[1.0, np.nan], [0.0, 1.0]])


def _m(rng, rows, cols):
    return rng.normal(size=(rows, cols)) * 10.0 ** rng.uniform(-3, 3)


def _v(rng, size):
    return rng.normal(size=size) * 10.0 ** rng.uniform(-3, 3)


# every operand layout that dare_solve (n = 4, m = 1 or 2), rls_update and
# the shipped admissible-set oracle pass to np.dot: C-contiguous arrays,
# transposed views, column slices of a wider array, and vectors
_DOT_LAYOUTS = {
    "4x4 by 4x4": lambda r, m: (_m(r, 4, 4), _m(r, 4, 4)),
    "4x4 .T by 4x4": lambda r, m: (_m(r, 4, 4).T, _m(r, 4, 4)),
    "4x4 by 4x4 .T": lambda r, m: (_m(r, 4, 4), _m(r, 4, 4).T),
    "4x4 by 4x8": lambda r, m: (_m(r, 4, 4), _m(r, 4, 8)),
    "4x4 by [:, :4] of 4x8": lambda r, m: (_m(r, 4, 4), _m(r, 4, 8)[:, :4]),
    "[:, :4] of 4x8 by 4x8": lambda r, m: (_m(r, 4, 8)[:, :4], _m(r, 4, 8)),
    "[:, :4] of 4x8, .T, by 4x4": lambda r, m: (_m(r, 4, 8)[:, :4].T, _m(r, 4, 4)),
    "[:, 4:] of 4x8 by 4x4 .T": lambda r, m: (_m(r, 4, 8)[:, 4:], _m(r, 4, 4).T),
    "[:, 4:] of 4x8 by its [:, :4] .T": lambda r, m: (lambda w: (w[:, 4:], w[:, :4].T))(
        _m(r, 4, 8)),
    "4xm by mx4": lambda r, m: (_m(r, 4, m), _m(r, m, 4)),
    "4xm .T by 4x4": lambda r, m: (_m(r, 4, m).T, _m(r, 4, 4)),
    "mx4 by 4xm": lambda r, m: (_m(r, m, 4), _m(r, 4, m)),
    "mx4 by 4x4": lambda r, m: (_m(r, m, 4), _m(r, 4, 4)),
    "4x4 by 4-vector": lambda r, m: (_m(r, 4, 4), _v(r, 4)),
    "[:, :4] of 4x(4+m) by 4-vector": lambda r, m: (_m(r, 4, 4 + m)[:, :4], _v(r, 4)),
    "[:, 4:] of 4x(4+m) by m-vector": lambda r, m: (_m(r, 4, 4 + m)[:, 4:], _v(r, m)),
    "(4+m)x(4+m) by (4+m)-vector": lambda r, m: (_m(r, 4 + m, 4 + m), _v(r, 4 + m)),
    "(4+m)-vector by (4+m)-vector": lambda r, m: (_v(r, 4 + m), _v(r, 4 + m)),
    "2x2 by 2-vector": lambda r, m: (_m(r, 2, 2), _v(r, 2)),
    "3x2 by 2-vector": lambda r, m: (_m(r, 3, 2), _v(r, 2)),
    "6x3 by 3-vector": lambda r, m: (_m(r, 6, 3), _v(r, 3)),
    "11x2 by 2-vector": lambda r, m: (_m(r, 11, 2), _v(r, 2)),
    "17xm by m-vector": lambda r, m: (_m(r, 17, m), _v(r, m)),
}


class TestDotIsMatmul:
    """``np.dot`` must give ``@``'s bits on every operand layout the DARE,
    the recursive update and the admissible-set oracle pass it.  A numpy
    release that routes one of these layouts to another kernel fails here,
    instead of moving the learning run's floats, and criterion 8, silently."""

    @pytest.mark.parametrize("layout", list(_DOT_LAYOUTS))
    def test_dot_bits_equal_matmul_bits(self, layout):
        rng = np.random.default_rng(41)
        for m in (1, 2):
            for _ in range(100):
                a, b = _DOT_LAYOUTS[layout](rng, m)
                assert np.dot(a, b).tobytes() == (a @ b).tobytes(), f"m = {m}"


class TestRiccatiFinite:
    def test_zero_terminal_single_step(self):
        K = riccati_finite([[1.0]], [[1.0]], [[1.0]], [[1.0]], [[0.0]], 1)
        assert K[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_converges_to_infinite_horizon(self, example):
        plant, _, _ = example
        P, K_inf = dare_solve(plant.A, plant.B, np.eye(2), [[10.0]])
        K0 = riccati_finite(plant.A, plant.B, np.eye(2), [[10.0]], P, 50)
        assert np.max(np.abs(K0 - K_inf)) < 1e-6

    def test_two_step_hand_recursion(self):
        # P2=1; K1=-1/2, P1=3/2; K0=-(1.5)/(1+1.5)=-0.6
        K = riccati_finite([[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], 2)
        assert K[0, 0] == pytest.approx(-0.6, abs=1e-12)

    def test_gain_approaches_infinite_monotonically(self, example):
        plant, _, _ = example
        _, K_inf = dare_solve(plant.A, plant.B, np.eye(2), [[10.0]])
        errs = [
            np.max(np.abs(riccati_finite(plant.A, plant.B, np.eye(2), [[10.0]],
                                         np.eye(2), N) - K_inf))
            for N in (5, 15, 40, 80)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-6


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert spectral_radius(np.diag([0.3, -0.8])) == pytest.approx(0.8)

    def test_example_loop_against_characteristic_polynomial(self, example):
        plant, out, gain = example
        At = plant.A + plant.B @ gain.K
        # 2x2 oracle: roots of z^2 - tr z + det
        tr, det = np.trace(At), np.linalg.det(At)
        roots = np.roots([1.0, -tr, det])
        expected = float(np.max(np.abs(roots)))
        rho = spectral_radius(At)
        assert rho == pytest.approx(expected, abs=1e-9)
        assert 0.0 < rho < 1.0
        assert rho**2 < 0.75  # the shipped scaling parameter is admissible

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            spectral_radius(np.ones((2, 3)))


class TestValidation:
    def test_plant_dimension_checks(self):
        with pytest.raises(ValueError):
            LinearPlant([[1.0, 0.0]], [[1.0]], [[1.0]])
        with pytest.raises(ValueError):
            LinearPlant(np.eye(2), [[1.0]], [[1.0], [0.0]])

    def test_output_map_checks(self):
        with pytest.raises(ValueError):
            OutputMap(np.eye(2), np.zeros((2, 1)), HPolytope.from_bounds([-1], [1]))

    def test_dare_penalty_checks(self):
        with pytest.raises(ValueError):
            dare_solve(np.eye(2), np.ones((2, 1)), -np.eye(2), [[1.0]])
        with pytest.raises(ValueError):
            dare_solve(np.eye(2), np.ones((2, 1)), np.eye(2), [[0.0]])

    @pytest.mark.parametrize("Q, R, message", [
        (np.eye(2), [[np.nan]], "R must be positive definite"),
        ([[1.0, 0.0], [0.0, np.nan]], [[1.0]], "Q must be positive semidefinite"),
    ], ids=["nan-r", "nan-q"])
    def test_dare_nan_penalty_is_bad_input(self, Q, R, message):
        # a NaN penalty is refused before any doubling, not reported as divergence
        with pytest.raises(ValueError, match=message):
            dare_solve(0.5 * np.eye(2), [[0.0], [1.0]], Q, R)
