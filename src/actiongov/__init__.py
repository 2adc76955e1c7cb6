"""Constrained-control toolkit: polytope algebra, admissible-set
construction, action supervision, and safe online learning."""

from .control_linalg import (
    ClosedLoop,
    LinearPlant,
    NominalGain,
    OutputMap,
    dare_solve,
    dlyap_scaled,
    riccati_finite,
    spectral_radius,
)
from .convexset import (
    HPolytope,
    nearest_affine_point,
    pontryagin_diff,
    project_out,
    rejection_sample,
    remove_redundancy,
    support,
)
from .discrete_safeset import (
    DiscreteGridOracle,
    DiscreteSafeSet,
    GridSpec,
    TransitionTable,
    build_seed,
    compute_safe_set,
    constraint_table,
    discretize,
)
from .governor import (
    ActionDistance,
    Branch,
    GovernorOutcome,
    GovernorState,
    govern,
)
from .lp import LpResult, LpStatus
from .moas import LinearMoasOracle, Moas, build_moas, feasible_action_set
from .safe_learning import (
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
from .simlab import (
    ScenarioConfig,
    average_cost,
    disturbance,
    disturbance_bound,
    example_initial_koopman,
    example_observables,
    example_system,
    simulate,
    step_cost,
)
from .trajectory import Trajectory, TrajectoryStep

__version__ = "0.1.0"
