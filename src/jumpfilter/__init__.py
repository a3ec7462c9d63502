"""Optimal filtering of finite-state Markov jump processes in additive white noise.

The package simulates a signal/observation pair (a jump process observed
through dy = x dt + beta dw), runs the unnormalized and normalized
conditional-probability filters as stochastic difference schemes, and
validates them against independent oracles (a discrete Bayes forward filter
and a small-scale path-space enumeration).

Importing the package loads :mod:`~jumpfilter.chain` and
:mod:`~jumpfilter.signalpath` (with the kernels they use). Every other name
below is served on first use (PEP 562), so that a command loads only the
modules it runs: ``filter`` never loads :mod:`~jumpfilter.wonham`,
:mod:`~jumpfilter.zakai` or :mod:`~jumpfilter.oracle`, and a tower check
never loads :mod:`~jumpfilter.harness`.
"""

import importlib

from .chain import (
    ChainModel,
    JumpPath,
    ReducibleChainError,
    model_from_json,
    model_to_json,
    simulate_jump_path,
    stationary_distribution,
    telegraph_model,
    transition_matrix,
)
from .signalpath import (
    ObservationGrid,
    coarsen,
    synthesize_observations,
    write_observations_csv,
)

__version__ = "0.1.0"

# public name -> the module that defines it, imported on first access
_LAZY = {
    **dict.fromkeys(("FilterInstabilityError", "GammaRangeError", "drift_matrix"), "kernels"),
    **dict.fromkeys((
        "FilterState", "TelegraphState", "map_decision", "mean_estimate", "predict",
        "telegraph_ito_step", "telegraph_langevin_step", "wonham_langevin_step", "wonham_step",
    ), "wonham"),
    **dict.fromkeys((
        "GammaState", "LogState", "UnnormalizedState", "from_gamma", "gamma_langevin_step",
        "init_unnormalized", "log_step", "to_gamma", "zakai_ito_step", "zakai_langevin_step",
    ), "zakai"),
    **dict.fromkeys((
        "DiscreteBayesState", "PathspaceResult", "TowerReport", "bayes_forward_step",
        "pathspace_expectation", "tower_property_check",
    ), "oracle"),
    "ExperimentConfig": "harness",
}

__all__ = [
    "ChainModel", "JumpPath", "ReducibleChainError", "model_from_json", "model_to_json",
    "simulate_jump_path", "stationary_distribution", "telegraph_model", "transition_matrix",
    "ObservationGrid", "coarsen", "synthesize_observations", "write_observations_csv",
    *_LAZY,
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
