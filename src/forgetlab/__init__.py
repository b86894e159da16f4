"""Continual-learning lab: EWC and weight-velocity attenuation on a small MLP."""

__version__ = "0.1.0"

from .continual import (
    Strategy,
    StrategyConfig,
    accumulate,
    estimate_fisher,
    estimate_total_abs_signal,
    ewc_penalty,
    make_wva_hook,
    safe_coefficient,
    wva_factor,
)
from .data import SyntheticSpec, TaskDataset, load_mnist, make_permuted_tasks, synth_dataset
from .harness import (
    DESK_LAMBDA_GRID,
    EvalMatrix,
    ExperimentConfig,
    LambdaSurface,
    RunResult,
    average_accuracy,
    desk_preset,
    grid_search,
    paper_preset,
    run_sequence,
)
from .model import MlpParams, accuracy, backward, cross_entropy, forward, init_params
from .numerics import RandomStream
from .optim import OptimizerConfig
from .reports import emit_reports

__all__ = [
    "__version__",
    "Strategy",
    "StrategyConfig",
    "accumulate",
    "estimate_fisher",
    "estimate_total_abs_signal",
    "ewc_penalty",
    "make_wva_hook",
    "safe_coefficient",
    "wva_factor",
    "SyntheticSpec",
    "TaskDataset",
    "load_mnist",
    "make_permuted_tasks",
    "synth_dataset",
    "DESK_LAMBDA_GRID",
    "EvalMatrix",
    "ExperimentConfig",
    "LambdaSurface",
    "RunResult",
    "average_accuracy",
    "desk_preset",
    "grid_search",
    "paper_preset",
    "run_sequence",
    "MlpParams",
    "accuracy",
    "backward",
    "cross_entropy",
    "forward",
    "init_params",
    "RandomStream",
    "OptimizerConfig",
    "emit_reports",
]
