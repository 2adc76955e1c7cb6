"""A deterministic 3-state chain MDP and its exact Q values, on which the
Q-learning loop's convergence is checked."""

import numpy as np

from actiongov.safe_learning import SafeQEnv


def chain_env():
    """Deterministic 3-state chain: action 0 moves left, action 1 right."""
    transitions = np.array([[0, 1], [0, 2], [1, 2]])
    rewards = np.array([[0.0, 1.0], [0.5, 2.0], [-1.0, 3.0]])

    def step(x, u):
        a = int(round(float(np.atleast_1d(u)[0])))
        return int(transitions[int(x), a]), 0.0

    return SafeQEnv(
        actions=np.array([0.0, 1.0]),
        initial_state=0,
        state_index=lambda x: int(x),
        step=step,
        cost=lambda x, u: -float(rewards[int(x), int(round(float(np.atleast_1d(u)[0])))]),
        violated=lambda x, u: False,
    ), transitions, rewards


def value_iteration(transitions, rewards, gamma, tol=1e-12):
    q = np.zeros_like(rewards)
    while True:
        nxt = rewards + gamma * np.max(q[transitions], axis=2)
        if np.max(np.abs(nxt - q)) < tol:
            return nxt
        q = nxt
