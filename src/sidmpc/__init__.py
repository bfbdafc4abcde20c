"""System identification and model predictive control toolkit.

Pipeline: PRBS excitation -> subspace (N4SID) identification -> constrained
MPC on velocity form with a Goldfarb-Idnani dual active-set QP solver ->
multi-model supervision over a controller bank, exercised against a
configurable two-input/two-output surrogate plant.
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    DivergenceError,
    InfeasibleError,
    NumericalError,
    SidmpcError,
)
from .signals import Dataset, PrbsSpec, load_csv, prbs_generate, save_csv, split
from .ssmodel import (
    KalmanState,
    StateSpaceModel,
    estimate_initial_state,
    fit_percent,
    kalman_step,
    load_model,
    save_model,
    simulate,
    solve_dare,
)
from .subspace import (
    IdentificationReport,
    N4sidConfig,
    aic_order_select,
    aic_scores,
    block_hankel,
    estimate_n4sid,
    project_hfp,
)
from .qp import QpProblem, solve_qp
from .mpc import MpcConfig, MpcController, build_prediction
from .multimodel import ModelBank, mm_control_step, synchronize
from .plant import (
    PlantConfig,
    PlantState,
    blend_weight,
    make_default_fccu,
    make_state,
    plant_output,
    plant_step,
)
from .runner import (
    RunResult,
    Schedule,
    iae,
    parse_schedule,
    run_closed_loop,
    run_open_loop,
    step_metrics,
    summarize,
)
from .config import ExperimentConfig, load_experiment_config

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConvergenceError",
    "Dataset",
    "DivergenceError",
    "ExperimentConfig",
    "IdentificationReport",
    "InfeasibleError",
    "KalmanState",
    "ModelBank",
    "MpcConfig",
    "MpcController",
    "N4sidConfig",
    "NumericalError",
    "PlantConfig",
    "PlantState",
    "PrbsSpec",
    "QpProblem",
    "RunResult",
    "Schedule",
    "SidmpcError",
    "StateSpaceModel",
    "aic_order_select",
    "aic_scores",
    "blend_weight",
    "block_hankel",
    "build_prediction",
    "estimate_initial_state",
    "estimate_n4sid",
    "fit_percent",
    "iae",
    "kalman_step",
    "load_csv",
    "load_experiment_config",
    "load_model",
    "make_default_fccu",
    "make_state",
    "mm_control_step",
    "parse_schedule",
    "plant_output",
    "plant_step",
    "prbs_generate",
    "project_hfp",
    "run_closed_loop",
    "run_open_loop",
    "save_csv",
    "save_model",
    "simulate",
    "solve_dare",
    "solve_qp",
    "split",
    "step_metrics",
    "summarize",
    "synchronize",
]
