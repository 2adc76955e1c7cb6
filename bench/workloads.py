"""The three benchmark workloads, driven through the library's public API.

Each workload builds its safe-set backend with the same calls the CLI
makes (``build_rig`` plus ``build_moas_backend`` or ``build_grid_backend``),
generates its inputs from the seed before timing, and then runs *passes*:
one pass is a fixed, seeded amount of supervised work, so every pass of a
run does identical work and yields identical artifacts.  Step times are
stamped from the benchmark's own env/controller callback, so one sample
is one full iteration of the library's loop.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time

import numpy as np

from actiongov import control_linalg, moas as moas_mod, safe_learning, simlab
from actiongov.errors import ActionGovError


def sha256(text) -> str:
    data = text.encode() if isinstance(text, str) else bytes(text)
    return hashlib.sha256(data).hexdigest()


def json_digest(payload: dict) -> str:
    return sha256(json.dumps(payload, sort_keys=True))


class StepClock:
    """Timestamps of consecutive callback calls, split into segments.

    A segment is one call of a library loop; the differences between
    consecutive stamps inside a segment are the per-step times.
    """

    def __init__(self):
        self.stamps: list[float] = []
        self.starts: list[int] = []
        self.tracer = None

    def begin(self):
        self.starts.append(len(self.stamps))

    def tick(self):
        self.stamps.append(time.perf_counter())
        if self.tracer is not None:
            self.tracer.step += 1

    def samples(self) -> np.ndarray:
        stamps = np.asarray(self.stamps)
        bounds = self.starts + [len(stamps)]
        parts = [np.diff(stamps[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
        return np.concatenate(parts) if parts else np.empty(0)

    def ticking(self, fn, name=None):
        """``fn`` with a stamp before each call (and a span when tracing)."""
        if self.tracer is not None and name is not None:
            fn = self.tracer.wrap(name, fn)
        tick = self.tick

        def stamped(*args):
            tick()
            return fn(*args)

        return stamped


@dataclasses.dataclass
class PassResult:
    steps: int = 0
    failed: int = 0
    cost_sum: float = 0.0
    wall_s: float = 0.0
    digest: str = ""
    trajectories: list = dataclasses.field(default_factory=list)
    samples: np.ndarray | None = None  # step times of the pass, set by the caller

    def episode(self, clock, out, call):
        """Time one call of a library loop and tally its trajectory.

        ``call()`` returns the trajectory last (alone or in a tuple); the
        result is returned, or None when the loop raised.
        """
        clock.begin()
        t0 = time.perf_counter()
        try:
            result = call()
        except ActionGovError:
            self.wall_s += time.perf_counter() - t0
            self.steps += max(len(clock.stamps) - clock.starts[-1], 1)
            self.failed += 1
            return None
        self.wall_s += time.perf_counter() - t0
        traj = result[-1] if isinstance(result, tuple) else result
        self.steps += len(traj)
        self.failed += max(traj.violation_count, _box_violations(out, traj))
        self.cost_sum += float(traj.costs.sum())
        self.trajectories.append(traj)
        return result


def _box_violations(out, traj) -> int:
    """Applied ``(x, u)`` pairs outside the output constraint box."""
    if len(traj) == 0:
        return 0
    y = traj.states @ out.C.T + traj.actions @ out.D.T
    cs = out.constraint_set
    return int((~np.all(y @ cs.normals.T <= cs.offsets + 1e-9, axis=1)).sum())


def _sample_in(poly, rng, n, lo, hi):
    """Uniform samples in ``poly`` by rejection from the box ``[lo, hi]``."""
    out = []
    while len(out) < n:
        z = rng.uniform(lo, hi)
        if poly.contains(z):
            out.append(z)
    return np.array(out)


# per-workload pass sizes (full and smoke-test); a full pass gives at least
# 1,000 step samples, so its p99 has ten samples beyond it.  ``warmup`` is
# the number of learning steps of the shipped scenario that precede
# koopman-learn's passes
SIZES = {
    "moas-govern": {"full": {"episodes": 60, "steps": 50}, "tiny": {"episodes": 2, "steps": 10}},
    "grid-qlearn": {"full": {"episodes": 10, "steps": 125}, "tiny": {"episodes": 2, "steps": 10}},
    "koopman-learn": {"full": {"episodes": 4, "steps": 260, "warmup": 600},
                      "tiny": {"episodes": 2, "steps": 25, "warmup": 20}},
}


class Workload:
    """``cfg`` is the shipped config, ``size`` one entry of ``SIZES``."""

    def __init__(self, cfg, size):
        self.cfg = cfg
        self.size = size


class MoasBacked(Workload):
    """Set-up shared by the two admissible-set workloads."""

    def setup(self):
        rig = simlab.build_rig(self.cfg)
        oracle, moas = simlab.build_moas_backend(self.cfg, rig)
        return {"rig": rig, "oracle": oracle, "moas": moas}

    def setup_digest(self, state) -> str:
        return json_digest(state["moas"].to_dict())

    def _starts(self, state, rng, n):
        lo = [simlab.X1_BOUNDS[0], simlab.X2_BOUNDS[0]]
        hi = [simlab.X1_BOUNDS[1], simlab.X2_BOUNDS[1]]
        return _sample_in(state["moas"].proj_x, rng, n, lo, hi)


class MoasGovern(MoasBacked):
    """Governed episodes of the nominal gain plus seeded proposal noise."""

    name = "moas-govern"
    noise = 4.0

    def make_inputs(self, state, seed):
        rng = np.random.default_rng(seed)
        e, t = self.size["episodes"], self.size["steps"]
        starts = self._starts(state, rng, e)
        noise = rng.uniform(-self.noise, self.noise, size=(e, t))
        return {"starts": starts, "noise": noise}

    def run_pass(self, state, inputs, clock) -> PassResult:
        rig, oracle = state["rig"], state["oracle"]
        K = rig.gain.K
        res = PassResult()
        for x0, noise in zip(inputs["starts"], inputs["noise"]):
            calls = [0]

            def controller(x, noise=noise, calls=calls):
                u = K @ np.asarray(x, dtype=float).ravel() + noise[calls[0]]
                calls[0] += 1
                return u

            control = clock.ticking(controller)
            res.episode(clock, rig.out, lambda: simlab.run_supervised(
                rig, control, oracle, x0, noise.size, rig.dist))
        res.digest = sha256("".join(t.to_csv() for t in res.trajectories))
        return res

    def reference_check(self, state, inputs, first: PassResult, limit=50):
        """HiGHS re-solves the recorded action adjustments (distance must agree)."""
        from scipy.optimize import linprog

        rig, moas = state["rig"], state["moas"]
        moved = [s for t in first.trajectories for s in t.steps
                 if s.branch == "adjusted" and not np.array_equal(s.u, s.u1)]
        worst = 0.0
        for s in moved[:limit]:
            upoly = moas_mod.feasible_action_set(moas, rig.plant, rig.out, s.x)
            u1 = float(s.u1[0])
            # variables (u, d): min d  s.t.  |u - u1| <= d,  u in upoly
            a = np.vstack([[1.0, -1.0], [-1.0, -1.0],
                           np.hstack([upoly.normals, np.zeros((upoly.n_rows, 1))])])
            b = np.concatenate([[u1, -u1], upoly.offsets])
            res = linprog([0.0, 1.0], A_ub=a, b_ub=b, bounds=[(None, None), (0, None)],
                          method="highs")
            if res.status != 0 or not upoly.contains(s.u, tol=1e-7):
                return False, f"adjustment at t={s.t} is infeasible for HiGHS or the set"
            err = abs(res.fun - abs(float(s.u[0]) - u1)) / max(1.0, abs(u1))
            worst = max(worst, err)
        ok = bool(moved) and worst <= 1e-7
        return ok, (f"HiGHS re-solved {min(len(moved), limit)} of {len(moved)} adjustments, "
                    f"max relative distance error {worst:.2e}")


class KoopmanLearn(MoasBacked):
    """Supervised Koopman learning, continued from a warmed-up model.

    The warm-up is the shipped ``learn-koopman`` scenario (initial model,
    shipped start state and config seed) for ``warmup`` steps, run before
    timing.  Each pass then continues learning from that model in
    ``episodes`` independent runs, each from a seeded start state with its
    own seeded reset sequence.  From the initial model, the fixed-point
    DARE's iteration count depends so strongly on the first few learned
    models (a few percent of fresh runs spend 25-50x longer per step) that
    per-seed step times could not be made steady.
    """

    name = "koopman-learn"
    warm = None

    def make_inputs(self, state, seed):
        cfg = self.cfg
        env = simlab.make_koopman_env(cfg, state["rig"], state["oracle"], state["moas"])
        if self.warm is None:  # the same for every set-up and seed, so made once
            km0 = simlab.example_initial_koopman(cfg.koopman_lambda, cfg.koopman_delta)
            self.warm, _ = safe_learning.run_safe_koopman(
                env, km0, self.size["warmup"], cfg.reset_every, np.random.default_rng(cfg.seed))
        rng = np.random.default_rng(seed)
        starts = self._starts(state, rng, self.size["episodes"])
        seeds = rng.integers(0, 2**63, size=self.size["episodes"])
        return {"starts": starts, "seeds": seeds, "env": env, "model": self.warm}

    def run_pass(self, state, inputs, clock) -> PassResult:
        cfg = self.cfg
        env0 = inputs["env"]
        step = clock.ticking(env0.step, "simlab.env_step")
        res = PassResult()
        models = []
        for x0, sub_seed in zip(inputs["starts"], inputs["seeds"]):
            env = dataclasses.replace(env0, initial_state=x0, step=step)
            rng = np.random.default_rng(int(sub_seed))
            out = res.episode(clock, state["rig"].out, lambda: safe_learning.run_safe_koopman(
                env, inputs["model"], self.size["steps"], cfg.reset_every, rng))
            if out is not None:
                self.final_model = out[0]
                models.append(json.dumps(out[0].to_dict(), sort_keys=True))
        res.digest = sha256("".join(t.to_csv() for t in res.trajectories) + "".join(models))
        return res

    def reference_check(self, state, inputs, first: PassResult):
        """The final model's regulator gain against scipy's DARE solver."""
        from scipy.linalg import solve_discrete_are

        km = self.final_model
        q = np.diag(self.cfg.koopman_q_diag)
        r = np.array([[self.cfg.koopman_r]])
        _, k_lib = control_linalg.dare_solve(km.A, km.B, q, r)
        p = solve_discrete_are(km.A, km.B, q, r)
        k_ref = -np.linalg.solve(r + km.B.T @ p @ km.B, km.B.T @ p @ km.A)
        err = float(np.max(np.abs(k_lib - k_ref)) / max(1.0, np.max(np.abs(k_ref))))
        return err <= 1e-6, f"final gain vs scipy solve_discrete_are, max relative error {err:.2e}"


class GridQLearn(Workload):
    """Supervised tabular Q-learning on the grid backend."""

    name = "grid-qlearn"

    def setup(self):
        rig = simlab.build_rig(self.cfg)
        oracle, dss, tt, grid = simlab.build_grid_backend(self.cfg, rig)
        return {"rig": rig, "oracle": oracle, "dss": dss, "grid": grid}

    def setup_digest(self, state) -> str:
        cm = state["dss"].class_map
        return sha256(repr(cm.shape).encode() + cm.tobytes())

    def make_inputs(self, state, seed):
        rng = np.random.default_rng(seed)
        grid, dss = state["grid"], state["dss"]
        safe = np.nonzero(dss.proj_mask)[0]
        starts = grid.x_points()[rng.choice(safe, size=self.size["episodes"])]
        env = simlab.make_grid_q_env(self.cfg, state["rig"], state["oracle"], grid)
        return {"starts": starts, "env": env, "seed": seed}

    def run_pass(self, state, inputs, clock) -> PassResult:
        cfg = self.cfg
        env0 = inputs["env"]
        step = clock.ticking(env0.step, "simlab.env_step")
        q = simlab.make_example_qtable(cfg, state["grid"])
        rng = np.random.default_rng(inputs["seed"])
        res = PassResult()
        for x0 in inputs["starts"]:
            env = dataclasses.replace(env0, initial_state=x0, step=step)
            out = res.episode(clock, state["rig"].out, lambda: safe_learning.run_safe_q(
                env, q, cfg.q_tmax, self.size["steps"], rng))
            if out is not None:
                q = out[0]
        res.digest = sha256("".join(t.to_csv() for t in res.trajectories)
                            + json.dumps(q.to_dict(), sort_keys=True))
        return res

    def reference_check(self, state, inputs, first: PassResult):
        return True, "no independent reference for the grid backend (fail_rate and digests only)"


WORKLOADS = {w.name: w for w in (MoasGovern, GridQLearn, KoopmanLearn)}
