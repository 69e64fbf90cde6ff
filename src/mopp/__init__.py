"""Model-based offline planning: learned ensembles, fitted Q, guided MPPI."""

from .adm import AdmConfig, AdmEnsemble, AdmModel, adm_train, load_ensemble, save_ensemble
from .data import Dataset, generate_dataset, load_dataset, mix, save_dataset
from .envs import make_env, pointmass_constrained_env, pointmass_env, scripted_policy
from .errors import ConfigError, DataError, FormatError, MoppError, TrainingDiverged
from .nn import AdamState, DenseNet, forward
from .planner import (
    ConstraintConfig,
    EpisodeResult,
    diagnostics_csv,
    ModelBundle,
    PlannerConfig,
    initial_plan,
    mppi_update,
    plan_step,
    run_episode,
    scale_std,
    uncertainty_threshold_from_data,
)
from .value import FqeConfig, QNetwork, fqe_train, load_q, save_q

__all__ = [
    "AdamState",
    "AdmConfig",
    "AdmEnsemble",
    "AdmModel",
    "ConfigError",
    "ConstraintConfig",
    "DataError",
    "Dataset",
    "DenseNet",
    "EpisodeResult",
    "FormatError",
    "FqeConfig",
    "ModelBundle",
    "MoppError",
    "PlannerConfig",
    "QNetwork",
    "TrainingDiverged",
    "adm_train",
    "diagnostics_csv",
    "forward",
    "fqe_train",
    "generate_dataset",
    "initial_plan",
    "load_dataset",
    "load_ensemble",
    "load_q",
    "make_env",
    "mix",
    "mppi_update",
    "plan_step",
    "pointmass_constrained_env",
    "pointmass_env",
    "run_episode",
    "save_dataset",
    "save_ensemble",
    "save_q",
    "scale_std",
    "scripted_policy",
    "uncertainty_threshold_from_data",
]

__version__ = "0.1.0"
