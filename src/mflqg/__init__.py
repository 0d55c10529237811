"""Team-optimal decentralized control of mean-field coupled LQG populations.

Workflow: describe the population with `build_model` (or load a model JSON;
every model is validated when it is built), solve the control and filter
recursions with `solve_control_riccati` / `solve_filter_riccati` or get the
optimal `GainSchedule` policy directly with `optimal_strategy`, run the
closed loop with `simulate`, evaluate policies with `exact_policy_cost` /
`monte_carlo_cost`, and verify optimality against the brute-force
centralized oracle with `check_equivalence`.
"""
from .control import (
    GainSchedule,
    LocalFilterState,
    filter_update,
    full_obs_action,
    init_filter_state,
    noisy_obs_action,
)
from .errors import (
    CapExceeded,
    DimensionMismatch,
    IncompatibleStrategy,
    MeanFieldLqgError,
    ModelFormatError,
    NotPositiveDefinite,
    NotPositiveSemidefinite,
    NotSymmetric,
    NumericalFailure,
    OutOfOrderUpdate,
    ValidationError,
)
from .model import (
    LqMeanFieldModel,
    augment_for_tracking,
    build_model,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    validate_model,
)
from .oracle import (
    EquivalenceReport,
    StackedModel,
    build_stacked_model,
    centralized_cost,
    check_equivalence,
    solve_stacked_riccati,
    structured_gains,
)
from .presets import HEATER, heater_base_model, heater_model
from .riccati import (
    ControlRiccatiSolution,
    FilterRiccatiSolution,
    solve_control_riccati,
    solve_filter_riccati,
)
from .sim import (
    RNG_SCHEME,
    LinearStrategy,
    MonteCarloCost,
    PolicyEvaluation,
    SimulationTrace,
    exact_policy_cost,
    export_trace_csv,
    monte_carlo_cost,
    optimal_strategy,
    simulate,
    trace_summary,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "ControlRiccatiSolution",
    "DimensionMismatch",
    "EquivalenceReport",
    "FilterRiccatiSolution",
    "GainSchedule",
    "HEATER",
    "IncompatibleStrategy",
    "LinearStrategy",
    "LocalFilterState",
    "LqMeanFieldModel",
    "MeanFieldLqgError",
    "ModelFormatError",
    "MonteCarloCost",
    "NotPositiveDefinite",
    "NotPositiveSemidefinite",
    "NotSymmetric",
    "NumericalFailure",
    "OutOfOrderUpdate",
    "PolicyEvaluation",
    "RNG_SCHEME",
    "SimulationTrace",
    "ValidationError",
    "augment_for_tracking",
    "build_model",
    "build_stacked_model",
    "centralized_cost",
    "check_equivalence",
    "exact_policy_cost",
    "export_trace_csv",
    "filter_update",
    "full_obs_action",
    "heater_base_model",
    "heater_model",
    "init_filter_state",
    "load_model",
    "model_from_dict",
    "model_to_dict",
    "monte_carlo_cost",
    "noisy_obs_action",
    "optimal_strategy",
    "save_model",
    "simulate",
    "solve_control_riccati",
    "solve_filter_riccati",
    "solve_stacked_riccati",
    "structured_gains",
    "trace_summary",
    "validate_model",
]
