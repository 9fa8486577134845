"""Experiment harness: profiles, model factory, runner, tables and figures."""

from repro.experiments.profiles import PAPER, SMOKE, ExperimentProfile, get_profile
from repro.experiments.models import (
    ABLATION_VARIANTS,
    MODEL_NAMES,
    HybridGNNModel,
    make_model,
)
from repro.experiments.runner import (
    RunResult,
    mean_row,
    prepare_split,
    run_seeds,
    run_single,
    split_for_seed,
)
from repro.experiments import figures, tables

__all__ = [
    "ExperimentProfile",
    "SMOKE",
    "PAPER",
    "get_profile",
    "MODEL_NAMES",
    "ABLATION_VARIANTS",
    "HybridGNNModel",
    "make_model",
    "RunResult",
    "run_single",
    "run_seeds",
    "mean_row",
    "prepare_split",
    "split_for_seed",
    "tables",
    "figures",
]
