"""Normalized filter for the state distribution, telegraph specialization,
point estimates, and prediction.

The conditional distribution p solves the nonlinear Ito equation

    dp_j = (Q^T p)_j dt + beta^-2 (a_j - xbar) p_j (dy - xbar dt),
    xbar = sum_j a_j p_j,

written here in innovation form: the observation enters only through its
surprise  dy - xbar dt  relative to the filter's own prediction. The
``sign_variant`` argument also offers the 'paper' variant with
+beta^-2 xbar (a_j - xbar) p_j dt  in place of the innovation coupling; the
two differ only in the sign of that drift term and are adjudicated
numerically by the harness. Both preserve sum(p) = 1 exactly in real
arithmetic, since sum_j (a_j - xbar) p_j = 0.

For the symmetric two-state chain with levels (+1, -1) ("random telegraph
signal") the filter reduces to the scalar difference q = p_1 - p_2:

    dq = -2 nu q dt - beta^-2 q (1 - q^2) dt + beta^-2 (1 - q^2) dy

and its smooth-noise form is the Riccati equation
dq/dt = -2 nu q + beta^-2 (1 - q^2) r with r the observed signal-plus-noise
rate. The scalar steps here reproduce the two-state general filter exactly,
step by step, not just asymptotically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainModel, is_real, telegraph_model, transition_matrix
from .kernels import (
    TelegraphIto,
    TelegraphLangevin,
    WonhamIto,
    WonhamLangevin,
    check_probability_vector,
    check_scalars,
    check_state_size,
    finish_simplex_step,
    step_once,
    wonham_update_raw,
)

__all__ = [
    "FilterState",
    "TelegraphState",
    "wonham_update_raw",
    "wonham_step",
    "wonham_langevin_step",
    "telegraph_ito_step",
    "telegraph_langevin_step",
    "finish_simplex_step",
    "mean_estimate",
    "map_decision",
    "predict",
]

@dataclass(frozen=True, eq=False)
class FilterState:
    """Probability vector over states at time t; ``clamps`` counts floor events."""

    probs: np.ndarray
    t: float = 0.0
    clamps: int = 0

    def __post_init__(self):
        object.__setattr__(self, "probs", check_probability_vector(self.probs))
        check_scalars(self)


@dataclass(frozen=True, eq=False)
class TelegraphState:
    """Posterior difference q = p_plus - p_minus for the telegraph chain."""

    q: float
    t: float = 0.0
    clamps: int = 0

    def __post_init__(self):
        if not (is_real(self.q) and -1.0 <= self.q <= 1.0):  # NaN fails too
            raise ValueError(f"q must be a number in [-1, 1], not {self.q!r}")
        check_scalars(self)


def wonham_step(
    state: FilterState,
    model: ChainModel,
    beta: float,
    dt: float,
    dy: float,
    sign_variant: str = "innovation",
) -> FilterState:
    """Euler-Maruyama step of the normalized filter.

    Raises FilterInstabilityError when the sum before renormalization drifts
    from 1 by more than 1e-6 (an exact invariant of the update in real
    arithmetic).
    """
    check_state_size(len(state.probs), model)
    kernel = WonhamIto(model, dt, beta, sign_variant=sign_variant)
    (probs, _), clamped = step_once(kernel, (state.probs, 1.0), dy)
    return FilterState(probs=probs, t=state.t + dt, clamps=state.clamps + clamped)


def wonham_langevin_step(
    state: FilterState,
    model: ChainModel,
    beta: float,
    dt: float,
    dy: float,
    correction_sign: int = -1,
) -> FilterState:
    """Heun (explicit trapezoidal) step of the smooth-noise normalized filter.

    The correction term sums to zero over states for either sign, so the
    simplex sum is preserved exactly in real arithmetic.
    """
    check_state_size(len(state.probs), model)
    kernel = WonhamLangevin(model, dt, beta, correction_sign)
    (probs, _), clamped = step_once(kernel, (state.probs, 1.0), dy)
    return FilterState(probs=probs, t=state.t + dt, clamps=state.clamps + clamped)


def _telegraph_step(kernel_type, state: TelegraphState, nu, beta, dt, dy) -> TelegraphState:
    """One step of ``kernel_type`` on the telegraph chain of rate ``nu``."""
    if not 0 <= nu < np.inf:
        raise ValueError(f"nu must be finite and nonnegative, not {nu!r}")
    q, clamped = step_once(kernel_type(telegraph_model(nu), dt, beta), state.q, dy)
    return TelegraphState(q=q, t=state.t + dt, clamps=state.clamps + clamped)


def telegraph_ito_step(
    state: TelegraphState, nu: float, beta: float, dt: float, dy: float
) -> TelegraphState:
    """Euler step of  dq = -2 nu q dt - q(1-q^2)/beta^2 dt + (1-q^2)/beta^2 dy."""
    return _telegraph_step(TelegraphIto, state, nu, beta, dt, dy)


def telegraph_langevin_step(
    state: TelegraphState, nu: float, beta: float, dt: float, dy: float
) -> TelegraphState:
    """Heun step of the Riccati field  dq/dt = -2 nu q + (1-q^2) r / beta^2."""
    return _telegraph_step(TelegraphLangevin, state, nu, beta, dt, dy)


def mean_estimate(state: FilterState, model: ChainModel) -> float:
    """Posterior mean of the signal level:  xbar = sum_j a_j p_j."""
    return float(state.probs @ model.levels)


def map_decision(state: FilterState) -> int:
    """Index of the maximal posterior probability; ties go to the lowest index."""
    return int(np.argmax(state.probs))


def predict(state: FilterState, model: ChainModel, h: float) -> np.ndarray:
    """Distribution of the state h time units ahead:  p(t)^T P(h).

    Future evolution is independent of the observations given the present
    state, so prediction is one transition-matrix application, which refuses
    a negative or non-finite ``h``.
    """
    return state.probs @ transition_matrix(model, h)
