"""Worked double-integrator scenario: system definition, configuration,
supervised/unsupervised simulation, learning-environment builders, and
running-cost bookkeeping.

The true system is nonlinear through a state-dependent disturbance; all
safety machinery treats that disturbance as a bounded set, which is what
makes supervision robust while the simulation itself stays deterministic.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .control_linalg import ClosedLoop, LinearPlant, NominalGain, OutputMap
from .convexset import DEFAULT_TOL, HPolytope, rejection_sample
from .discrete_safeset import DiscreteGridOracle, GridSpec, compute_safe_set, discretize
from .errors import ActionGovError
from .governor import ActionDistance, GovernorState
from .moas import LinearMoasOracle, Moas, build_moas
from .safe_learning import (
    KoopmanEnv,
    KoopmanModel,
    ObservableMap,
    QTable,
    SafeQEnv,
    SupervisedEnv,
    float_array,
    koopman_control,
    require_keys,
    run_safe_koopman,
    supervised_step,
)
from .trajectory import Trajectory, fmt

X1_BOUNDS = (-20.0, 20.0)
X2_BOUNDS = (-4.0, 10.0)
# the action constraint U; the action grid spans exactly this interval
U_BOUNDS = (-6.0, 6.0)
# the disturbance set W; the grid classification is sound only if the
# grid's disturbance range is exactly this interval
W_BOUNDS = (-1.0, 1.0)


def example_system():
    """Double-integrator plant, its box constraints as an output map, and the
    stabilizing reference-parameterized gain (the disturbance is :func:`disturbance`)."""
    plant = LinearPlant([[1.0, 1.0], [0.0, 1.0]], [[0.0], [1.0]], [[0.0], [1.0]])
    C = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    D = np.array([[0.0], [0.0], [1.0]])
    H = np.array(
        [
            [1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0],
        ]
    )
    h = np.array([X1_BOUNDS[1], -X1_BOUNDS[0], X2_BOUNDS[1], -X2_BOUNDS[0],
                  U_BOUNDS[1], -U_BOUNDS[0]])
    out = OutputMap(C, D, HPolytope(H, h))
    gain = NominalGain([[-0.2054, -0.7835]], [[0.2054]])
    return plant, out, gain


def disturbance(x) -> float:
    """True state-dependent disturbance; always inside the unit interval."""
    return float(np.sin(10.0 * x[0]))


def disturbance_bound() -> HPolytope:
    return HPolytope.from_bounds(*W_BOUNDS)


def example_observables() -> ObservableMap:
    """State plus the disturbance-shaped sinusoids of the worked example."""

    def lift(x):
        x1, x2 = float(x[0]), float(x[1])
        return np.array([x1, x2, math.sin(10.0 * x1), math.sin(10.0 * x1 + 10.0 * x2)])

    return ObservableMap(fn=lift, n_z=4, name="double_integrator_lift")


def example_initial_koopman(lam: float = 1.0, delta: float = 1e3) -> KoopmanModel:
    """Lifted model that matches the linear part and ignores the sinusoids."""
    plant, _, _ = example_system()
    A0 = np.zeros((4, 4))
    A0[:2, :2] = plant.A
    B0 = np.zeros((4, 1))
    B0[:2] = plant.B
    return KoopmanModel.initial(A0, B0, example_observables(), lam=lam, delta=delta)


def koopman_model_from_dict(data: dict) -> KoopmanModel:
    what = "Koopman model"
    require_keys(data, ("A", "B", "gamma_cov", "lam", "observables"), what, scalars=("lam",))
    obs = example_observables()
    if data["observables"] != obs.name:
        raise ValueError(f"unknown observable map {data['observables']!r}")
    return KoopmanModel(
        float_array(data, "A", what),
        float_array(data, "B", what),
        float_array(data, "gamma_cov", what),
        float(data["lam"]),
        obs,
    )


def step_cost(x, u) -> float:
    """Single-step quadratic cost ||x||^2 + 10 |u|^2."""
    return float(x @ x + 10.0 * (u @ u))


def is_violated(x, u) -> bool:
    """Hard-bound check on state and action, each bound widened by
    ``DEFAULT_TOL`` as :meth:`HPolytope.contains` widens it."""
    return not (
        X1_BOUNDS[0] - DEFAULT_TOL <= x[0] <= X1_BOUNDS[1] + DEFAULT_TOL
        and X2_BOUNDS[0] - DEFAULT_TOL <= x[1] <= X2_BOUNDS[1] + DEFAULT_TOL
        and U_BOUNDS[0] - DEFAULT_TOL <= u[0] <= U_BOUNDS[1] + DEFAULT_TOL
    )


def average_cost(traj: Trajectory) -> np.ndarray:
    """Running mean of the per-step costs."""
    costs = traj.costs
    if costs.size == 0:
        raise ValueError("cannot average an empty trajectory")
    return np.cumsum(costs) / (np.arange(costs.size) + 1.0)


def write_cost_csv(path, traj: Trajectory):
    """Write :func:`average_cost` as ``t,cbar`` rows, round-trip exact."""
    with open(path, "w", newline="\n") as fh:
        fh.write("t,cbar\n")
        for t, c in enumerate(average_cost(traj)):
            fh.write(f"{t},{fmt(c)}\n")


# ---------------------------------------------------------------------------
# configuration


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    """A real number, not a bool, finite as a float (a huge integer is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


# annotation of a scalar config field -> the test its value must pass
_FIELD_TYPES = {"int": (_is_integer, "an integer"),
                "float": (_is_finite_number, "a finite number"),
                "str": (lambda value: isinstance(value, str), "a string"),
                "Optional[str]": (lambda value: value is None or isinstance(value, str),
                                  "a string or null")}


@dataclass
class ScenarioConfig:
    """Flat run configuration; every tunable default is explicit here so a
    shipped config file documents the complete parameter set."""

    seed: int
    steps: int = 500
    initial_state: tuple = (12.0, 6.0)
    governor: str = "moas"          # moas | grid | none
    controller: str = "nominal"     # nominal | qlearning | koopman
    norm: str = "l1"
    moas_epsilon: float = 0.01
    moas_t_cap: int = 500
    v_bound: float = 25.0
    grid_x1_lo: float = -25.0
    grid_x1_hi: float = 25.0
    grid_x2_lo: float = -10.0
    grid_x2_hi: float = 15.0
    grid_dx1: float = 0.5
    grid_dx2: float = 0.5
    grid_dv: float = 0.5
    grid_dw: float = 0.1
    alpha: float = 0.75
    action_du: float = 0.5
    q_gamma: float = 0.95
    q_alpha: float = 0.5
    q_epsilon: float = 0.1
    q_penalty: float = 100.0
    q_tmax: int = 1
    q_batches: int = 20000
    koopman_lambda: float = 1.0
    koopman_delta: float = 1000.0
    koopman_q_diag: tuple = (1.0, 1.0, 0.0, 0.0)
    koopman_r: float = 10.0
    learn_steps: int = 20000
    reset_every: int = 20
    model_path: Optional[str] = None
    out_dir: str = "."

    def __post_init__(self):
        if self.seed is None:
            raise ValueError("seed is mandatory")
        for f in fields(self):
            valid, noun = _FIELD_TYPES.get(f.type, (None, None))
            value = getattr(self, f.name)
            if valid is not None and not valid(value):
                raise ValueError(f"{f.name} must be {noun}, got {value!r}")
        if self.governor not in ("moas", "grid", "none"):
            raise ValueError(f"unknown governor backend {self.governor!r}")
        if self.controller not in ("nominal", "qlearning", "koopman"):
            raise ValueError(f"unknown controller {self.controller!r}")
        if self.steps < 1:
            raise ValueError("steps must be positive")
        for name, size in (("initial_state", 2), ("koopman_q_diag", example_observables().n_z)):
            raw = getattr(self, name)
            if len(raw) != size or not all(map(_is_finite_number, raw)):
                raise ValueError(f"{name} must be {size} finite numbers, got {raw!r}")
            setattr(self, name, tuple(float(v) for v in raw))
        # the Koopman regulator's and estimator's own checks would refuse
        # these only after the admissible-set build, without the key
        if not self.koopman_r > 0.0:
            raise ValueError(f"koopman_r must be positive, got {self.koopman_r!r}")
        if min(self.koopman_q_diag) < 0.0:
            raise ValueError(f"koopman_q_diag must have no negative entry, "
                             f"got {self.koopman_q_diag!r}")
        if not 0.0 < self.koopman_lambda <= 1.0:
            raise ValueError(f"koopman_lambda must lie in (0, 1], got {self.koopman_lambda!r}")
        if not self.koopman_delta > 0.0:
            raise ValueError(f"koopman_delta must be positive, got {self.koopman_delta!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ValueError("the config file holds no JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "seed" not in data:
            raise ValueError("config must set a seed")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ValueError(f"malformed config value: {exc}") from exc

    @classmethod
    def from_json(cls, path) -> "ScenarioConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def grid_spec(self) -> GridSpec:
        """The classification grid: its reference range is the admissible
        set's box ``[-v_bound, v_bound]`` and its disturbance range is W."""
        return GridSpec((self.grid_x1_lo, self.grid_x2_lo), (self.grid_x1_hi, self.grid_x2_hi),
                        (self.grid_dx1, self.grid_dx2), -self.v_bound, self.v_bound,
                        self.grid_dv, *W_BOUNDS, self.grid_dw)

    def action_values(self) -> np.ndarray:
        """The action grid over U, in steps of ``action_du``."""
        lo, hi = U_BOUNDS
        if self.action_du <= 0:
            raise ValueError("action_du must be positive")
        n = (hi - lo) / self.action_du
        if abs(n - round(n)) > 1e-9:
            raise ValueError("action_du must divide the action range U")
        return lo + self.action_du * np.arange(int(round(n)) + 1)

    def koopman_penalties(self):
        """State and input penalties ``(q_z, r_u)`` of the Koopman regulator."""
        return np.diag(self.koopman_q_diag), np.array([[self.koopman_r]])


# ---------------------------------------------------------------------------
# backend assembly


@dataclass
class ExampleRig:
    """Prebuilt pieces of the worked example shared across runs."""

    plant: LinearPlant
    out: OutputMap
    gain: NominalGain
    cl: ClosedLoop
    w_set: HPolytope
    dist: ActionDistance


def build_rig(cfg: ScenarioConfig) -> ExampleRig:
    """The example's pieces; ``rig.out`` is the loop's own ``rig.cl.out``."""
    plant, out, gain = example_system()
    cl = ClosedLoop(plant, out, gain)
    return ExampleRig(plant, cl.out, gain, cl, disturbance_bound(), ActionDistance(cfg.norm))


def build_moas_backend(cfg: ScenarioConfig, rig: ExampleRig):
    moas = build_moas(
        rig.cl,
        rig.w_set,
        epsilon=cfg.moas_epsilon,
        t_cap=cfg.moas_t_cap,
        v_bounds=HPolytope.from_bounds([-cfg.v_bound], [cfg.v_bound]),
    )
    return LinearMoasOracle(moas, rig.cl), moas


def build_grid_backend(cfg: ScenarioConfig, rig: ExampleRig):
    """Grid classification of the nominal loop; the loop is discretized
    once, and its transition table carries the loop to every stage and is
    tabulated one reference slice at a time."""
    grid = cfg.grid_spec()
    tt = discretize(rig.cl, grid)
    dss = compute_safe_set(tt, cfg.alpha)
    oracle = DiscreteGridOracle(dss, tt, cfg.action_values())
    return oracle, dss, tt, grid


# ---------------------------------------------------------------------------
# simulation


def nominal_controller(rig: ExampleRig):
    """The nominal feedback ``u = K x``."""
    K = rig.gain.K

    def control(x):
        return K @ x

    return control


def koopman_controller(cfg: ScenarioConfig, km: KoopmanModel):
    """The regulator of the lifted model ``km`` under the configured penalties."""
    q_z, r_u = cfg.koopman_penalties()

    def control(x):
        return koopman_control(km, km.observables(x), q_z, r_u)

    return control


def _qtable_controller(cfg: ScenarioConfig, qtable: QTable, grid: GridSpec):
    actions = cfg.action_values()
    if qtable.values.shape != (grid.n_xpairs, actions.size):
        raise ValueError(f"Q table is {qtable.values.shape[0]} x {qtable.values.shape[1]}; "
                         f"this grid and action set need {grid.n_xpairs} x {actions.size}")

    def control(x):
        idx = grid.index_of(x)
        if idx < 0:
            raise ValueError("state left the learning grid")
        return np.atleast_1d(actions[int(np.argmax(qtable.values[idx]))])

    return control


def true_step(rig: ExampleRig):
    """The true system's step ``(x, u) -> (x_next, w)``: ``A x + B u + E w``
    with ``w = disturbance(x)``, on the 1-D float arrays every loop passes."""
    A, B, E = rig.plant.A, rig.plant.B, rig.plant.E[:, 0]

    def step(x, u):
        w = disturbance(x)
        return A @ x + B @ u + E * w, w

    return step


def run_supervised(rig: ExampleRig, controller, oracle, x0, steps: int,
                   dist: ActionDistance) -> Trajectory:
    """Step the true system under a controller, supervised unless ``oracle``
    is None.  Library errors of the controller leave with ``step`` set to
    its step's index, as those of ``supervised_step`` do."""
    env = SupervisedEnv(initial_state=x0, step=true_step(rig), cost=step_cost,
                        violated=is_violated, oracle=oracle, dist=dist)
    gs = GovernorState()
    traj = Trajectory()
    x = np.asarray(x0, dtype=float).copy()
    for t in range(steps):
        try:
            u1 = np.atleast_1d(np.asarray(controller(x), dtype=float))
        except ActionGovError as exc:
            exc.step = t
            raise
        _, x, _ = supervised_step(env, t, x, u1, gs, traj)
    return traj


def simulate(cfg: ScenarioConfig) -> Trajectory:
    """Run one configured scenario on the true system."""
    rig = build_rig(cfg)
    oracle = None
    grid = None
    if cfg.governor == "moas":
        oracle, _ = build_moas_backend(cfg, rig)
    elif cfg.governor == "grid":
        oracle, _, _, grid = build_grid_backend(cfg, rig)

    if cfg.controller == "nominal":
        controller = nominal_controller(rig)
    elif cfg.controller == "koopman":
        if cfg.model_path:
            with open(cfg.model_path) as fh:
                km = koopman_model_from_dict(json.load(fh))
        else:
            km = example_initial_koopman(cfg.koopman_lambda, cfg.koopman_delta)
        controller = koopman_controller(cfg, km)
    else:
        if grid is None:
            grid = cfg.grid_spec()
        if cfg.model_path:
            with open(cfg.model_path) as fh:
                qtable = QTable.from_dict(json.load(fh))
        else:
            qtable = make_example_qtable(cfg, grid)
        controller = _qtable_controller(cfg, qtable, grid)
    return run_supervised(rig, controller, oracle, cfg.initial_state, cfg.steps, rig.dist)


# ---------------------------------------------------------------------------
# learning environments on the worked example


def make_koopman_env(cfg: ScenarioConfig, rig: ExampleRig, oracle, moas: Moas) -> KoopmanEnv:
    """Supervised Koopman learning environment on the true system.

    Resets sample uniformly inside the safe projection (rejection sampling
    from its bounding box), so supervision stays feasible after each reset.
    The box is read here from the set's vertices, once per set, so that no
    reset of the learning loop computes it.
    """
    moas.proj_x.bounding_box()

    def sample_reset(rng):
        return rejection_sample(moas.proj_x, rng, 1)[0]

    q_z, r_u = cfg.koopman_penalties()
    return KoopmanEnv(
        initial_state=np.asarray(cfg.initial_state, dtype=float),
        step=true_step(rig),
        cost=step_cost,
        violated=is_violated,
        oracle=oracle,
        dist=rig.dist,
        q_z=q_z,
        r_u=r_u,
        sample_reset=sample_reset,
    )


def learn_koopman(cfg: ScenarioConfig, rig: ExampleRig, oracle, moas: Moas):
    """The configured supervised learning run: ``cfg.learn_steps`` steps from
    the initial lifted model, resets drawn from an rng seeded with
    ``cfg.seed``.  Returns ``(model, trajectory)``."""
    env = make_koopman_env(cfg, rig, oracle, moas)
    km = example_initial_koopman(cfg.koopman_lambda, cfg.koopman_delta)
    rng = np.random.default_rng(cfg.seed)
    return run_safe_koopman(env, km, cfg.learn_steps, cfg.reset_every, rng)


def make_grid_q_env(cfg: ScenarioConfig, rig: ExampleRig, oracle, grid: GridSpec) -> SafeQEnv:
    """Supervised Q-learning environment on the grid abstraction.

    The state lives on the grid (each true successor is snapped back), so
    the grid supervisor's guarantees apply verbatim; the disturbance is
    still the true state-dependent law.  ``state_index`` reuses the index of
    the successor ``step`` just returned, so each successor is snapped once.
    """
    pts = grid.x_points()
    pts.flags.writeable = False
    last = [None, -1]  # the grid point the last step returned, and its index

    def snap(x):
        idx = grid.index_of(x)
        if idx < 0:
            raise ValueError("state left the learning grid")
        return pts[idx], idx

    plant_step = true_step(rig)

    def step(x, u):
        x_next, w = plant_step(x, u)
        last[:] = snap(x_next)
        return last[0], w

    def state_index(x):
        # a successor the last step returned was snapped there already
        return last[1] if x is last[0] else grid.index_of(x)

    return SafeQEnv(
        initial_state=snap(cfg.initial_state)[0],
        step=step,
        cost=step_cost,
        violated=is_violated,
        oracle=oracle,
        dist=rig.dist,
        actions=cfg.action_values(),
        state_index=state_index,
    )


def make_example_qtable(cfg: ScenarioConfig, grid: GridSpec) -> QTable:
    return QTable.zeros(
        grid.n_xpairs,
        cfg.action_values().size,
        cfg.q_gamma,
        cfg.q_alpha,
        cfg.q_epsilon,
        cfg.q_penalty,
    )
