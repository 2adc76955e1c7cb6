"""The doubling DARE against the plain fixed-point loop and scipy.

``control_linalg.dare_solve`` solves by doubling, which cannot reproduce
the fixed-point loop's bits.  On the same models it must reach the same
outcome as ``references.dare_reference`` (both solve, or both raise the
same type), and its ``P`` must lie within ``1e-12 * max(1, |P|)`` of
``scipy.linalg.solve_discrete_are``.  The bitwise pins of the Riccati step
are in ``test_dare_bitwise.py``.
"""

import numpy as np
import pytest
import scipy.linalg

from actiongov import safe_learning
from actiongov.control_linalg import dare_solve, spectral_radius
from actiongov.errors import NoStabilizingSolutionError
from actiongov.simlab import example_initial_koopman, make_koopman_env
from references import dare_reference, random_two_input_model


def _solves_like_the_reference(A, B, Q, R):
    """``dare_solve`` and ``dare_reference`` both solve, or both raise the
    same type; a solution's ``P`` is exactly symmetric and within
    ``1e-12 * max(1, |P|)`` of scipy's."""
    outcomes = []
    for fn in (dare_solve, dare_reference):
        try:
            outcomes.append(fn(A, B, Q, R))
        except Exception as exc:  # the exception type is the outcome
            outcomes.append(type(exc))
    got, ref = outcomes
    if isinstance(got, type) or isinstance(ref, type):
        return got is ref
    P = got[0]
    p_scipy = scipy.linalg.solve_discrete_are(*(np.atleast_2d(m) for m in (A, B, Q, R)))
    return (np.array_equal(P, P.T)
            and np.max(np.abs(P - p_scipy)) <= 1e-12 * max(1.0, np.max(np.abs(p_scipy))))


def test_one_state_models_solve_like_the_loop_and_scipy():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b, r = rng.normal(), rng.normal(), rng.uniform(0.1, 10.0)
        assert _solves_like_the_reference([[a]], [[b]], [[1.0]], [[r]])


@pytest.fixture(scope="module")
def learned_models(base_cfg, rig, moas_bundle):
    """Every ``(A, B, Q, R)`` that the first 300 steps of the shipped
    learn-koopman scenario pass to ``dare_solve``, as the live arrays."""
    oracle, moas = moas_bundle
    env = make_koopman_env(base_cfg, rig, oracle, moas)
    km0 = example_initial_koopman(base_cfg.koopman_lambda, base_cfg.koopman_delta)
    seen = []
    real = safe_learning.dare_solve

    def record(*args):
        seen.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(safe_learning, "dare_solve", record)
        safe_learning.run_safe_koopman(env, km0, 300, base_cfg.reset_every,
                                       np.random.default_rng(base_cfg.seed))
    return seen


def test_dare_matches_the_plain_loop_on_learned_models(learned_models):
    assert len(learned_models) == 300
    for args in learned_models:
        assert _solves_like_the_reference(*args)


def test_two_input_models_solve_like_the_loop_and_scipy():
    rng = np.random.default_rng(77)
    solved = 0
    for _ in range(50):
        A, B, Q, R = random_two_input_model(rng)
        assert _solves_like_the_reference(A, B, Q, R)
        try:
            dare_solve(A, B, Q, R)
        except NoStabilizingSolutionError:
            continue
        solved += 1
    assert solved >= 40


def test_slowly_converging_model_is_solved():
    # a discretized double integrator with a light state penalty: the closed
    # loop's radius is 0.993, so the fixed-point loop needs thousands of sweeps
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    B = np.array([[0.005], [0.1]])
    Q, R = 1e-4 * np.eye(2), np.array([[1.0]])
    with pytest.raises(NoStabilizingSolutionError, match="limit"):
        dare_reference(A, B, Q, R, max_iter=1000)
    P, K = dare_solve(A, B, Q, R)
    p_scipy = scipy.linalg.solve_discrete_are(A, B, Q, R)
    assert np.max(np.abs(P - p_scipy)) <= 1e-10 * max(1.0, np.max(np.abs(p_scipy)))
    assert spectral_radius(A + B @ K) < 1.0
