"""Optimal filtering of finite-state Markov jump processes in additive white noise.

The package simulates a signal/observation pair (a jump process observed
through dy = x dt + beta dw), runs the unnormalized and normalized
conditional-probability filters as stochastic difference schemes, and
validates them against independent oracles (a discrete Bayes forward filter
and a small-scale path-space enumeration).
"""

from .chain import (
    ChainModel,
    JumpPath,
    ReducibleChainError,
    integrate_level,
    model_from_json,
    model_to_json,
    simulate_jump_path,
    state_at,
    stationary_distribution,
    telegraph_model,
    transition_matrix,
)
from .signalpath import (
    ObservationGrid,
    coarsen,
    read_observations_csv,
    synthesize_from_brownian,
    synthesize_observations,
    write_observations_csv,
)
from .wonham import (
    FilterState,
    TelegraphState,
    map_decision,
    mean_estimate,
    predict,
    telegraph_ito_step,
    telegraph_langevin_step,
    wonham_langevin_step,
    wonham_step,
)
from .zakai import (
    FilterInstabilityError,
    GammaRangeError,
    GammaState,
    LogState,
    UnnormalizedState,
    drift_matrix,
    from_gamma,
    gamma_langevin_step,
    init_unnormalized,
    log_step,
    normalize,
    to_gamma,
    zakai_ito_step,
    zakai_langevin_step,
)
from .oracle import (
    DiscreteBayesState,
    PathspaceResult,
    TowerReport,
    bayes_forward_step,
    pathspace_expectation,
    tower_property_check,
)
from .harness import ExperimentConfig

__version__ = "0.1.0"
