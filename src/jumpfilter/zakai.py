"""Unnormalized conditional-probability filter and its transforms.

The unnormalized weight vector psi solves the linear Ito equation

    d psi_j = -nu_j psi_j dt + sum_{i != j} nu_ij psi_i dt + (a_j psi_j / beta^2) dy

with psi(0) equal to the initial distribution; the conditional state
distribution is psi / sum(psi). Because the dynamics are linear, psi is
rescaled to unit sum after every step and the accumulated log of the scale
factors is carried separately, which keeps the floating-point range bounded
without changing the normalized output.

The smooth-noise ("Langevin") form replaces dy/dt by an ordinary driving
signal and is integrated with the explicit trapezoidal (Heun) scheme, which
converges to the Stratonovich interpretation. ``correction_sign`` selects the
sign of the (1/2) a_j^2 / beta^2 drift term: -1 is the Ito-to-Stratonovich
conversion of the equation above and is the default; +1 is retained as an
experiment variant, adjudicated numerically by the harness.

Also here: the log-domain filter theta_j = log psi_j, whose noise coefficient
a_j / beta^2 is state-independent so the Ito and smooth-noise forms coincide,
and the similarity transform Gamma(t) = exp(-A t) psi(t) that strips the
constant drift matrix A out of the smooth-noise equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainModel
from .kernels import (
    CLAMP_FAILURE_FRACTION,
    FilterInstabilityError,
    Gamma,
    GammaRangeError,
    LogDomain,
    ZakaiIto,
    ZakaiLangevin,
    drift_matrix,
    gamma_weights,
    initial_weights,
    ito_update,
    propagator_pair,
    step_once,
)
from .wonham import FilterState

__all__ = [
    "CLAMP_FAILURE_FRACTION",
    "UnnormalizedState",
    "LogState",
    "GammaState",
    "FilterInstabilityError",
    "GammaRangeError",
    "init_unnormalized",
    "ito_update",
    "zakai_ito_step",
    "zakai_langevin_step",
    "log_step",
    "normalize",
    "drift_matrix",
    "to_gamma",
    "from_gamma",
    "gamma_langevin_step",
]

@dataclass(frozen=True, eq=False)
class UnnormalizedState:
    """Rescaled unnormalized weights plus the accumulated log scale.

    The represented quantity is  exp(log_normalizer) * psi ; rescaling psi by
    c > 0 while adding log(c) to log_normalizer is an identity. ``clamps``
    counts floor events since initialization.
    """

    psi: np.ndarray
    log_normalizer: float = 0.0
    t: float = 0.0
    clamps: int = 0

    def __post_init__(self):
        psi = np.array(self.psi, dtype=float)
        if np.any(psi <= 0) or not np.all(np.isfinite(psi)):
            raise ValueError("psi entries must be positive and finite")
        psi.setflags(write=False)
        object.__setattr__(self, "psi", psi)

    @property
    def log_repr(self) -> np.ndarray:
        """Log of the represented (unrescaled) weights."""
        return self.log_normalizer + np.log(self.psi)


@dataclass(frozen=True, eq=False)
class LogState:
    """Log-domain weights, shifted so that max theta = 0 after every step."""

    theta: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        theta = np.array(self.theta, dtype=float)
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta entries must be finite")
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)


@dataclass(frozen=True, eq=False)
class GammaState:
    """Similarity-transformed weights Gamma = exp(-A t) psi.

    Carries the constant drift matrix A and the propagators exp(+-A t) at the
    current time, so stepping advances them by one factor instead of
    recomputing a matrix exponential from scratch.
    """

    gamma: np.ndarray
    t: float
    a_matrix: np.ndarray
    forward: np.ndarray   # exp(+A t)
    backward: np.ndarray  # exp(-A t)
    log_normalizer: float = 0.0

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=float)
        if not np.all(np.isfinite(gamma)):
            raise ValueError("Gamma entries must be finite")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "a_matrix", np.asarray(self.a_matrix, dtype=float))


def init_unnormalized(model: ChainModel) -> UnnormalizedState:
    """Initial weights equal the initial distribution; zeros floored to 1e-300."""
    return UnnormalizedState(psi=initial_weights(model), log_normalizer=0.0, t=0.0, clamps=0)


def _unnormalized_step(kernel, state: UnnormalizedState, dy: float) -> UnnormalizedState:
    (psi, total), clamped = step_once(kernel, (state.psi, state.log_normalizer), dy)
    return UnnormalizedState(
        psi=psi,
        log_normalizer=float(state.log_normalizer + np.log(total)),
        t=state.t + kernel.dt,
        clamps=state.clamps + clamped,
    )


def zakai_ito_step(
    state: UnnormalizedState, model: ChainModel, beta: float, dt: float, dy: float
) -> UnnormalizedState:
    """Euler-Maruyama step, then rescale by 1/sum(psi), accumulating the log."""
    return _unnormalized_step(ZakaiIto(model, dt, beta), state, dy)


def zakai_langevin_step(
    state: UnnormalizedState,
    model: ChainModel,
    beta: float,
    dt: float,
    dy: float,
    correction_sign: int = -1,
) -> UnnormalizedState:
    """Heun step of the smooth-noise form; same rescale and floor policy."""
    return _unnormalized_step(ZakaiLangevin(model, dt, beta, correction_sign), state, dy)


def log_step(
    state: LogState,
    model: ChainModel,
    beta: float,
    dt: float,
    dy: float,
    correction_sign: int = -1,
) -> LogState:
    """Euler step of  dtheta_j = (-nu_j + sign/2 a_j^2/beta^2
    + sum_i nu_ij exp(theta_i - theta_j)) dt + a_j dy / beta^2.

    The noise coefficient is state-independent, so this is simultaneously the
    Ito and the smooth-noise scheme. Exponent differences are evaluated after
    the per-step max-shift, which bounds every exponent by the current spread.
    """
    theta, _ = step_once(LogDomain(model, dt, beta, correction_sign), state.theta, dy)
    return LogState(theta=theta, t=state.t + dt)


def normalize(state: UnnormalizedState) -> FilterState:
    """Normalized distribution psi / sum(psi); the carried log scale cancels."""
    total = state.psi.sum()
    return FilterState(probs=state.psi / total, t=state.t)


def to_gamma(state: UnnormalizedState, a_matrix: np.ndarray, t: float | None = None) -> GammaState:
    """Transform psi into Gamma = exp(-A t) psi (keeps the log normalizer)."""
    t = state.t if t is None else t
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be finite and nonnegative, not {t!r}")
    a_matrix = np.asarray(a_matrix, dtype=float)
    forward, backward = propagator_pair(a_matrix, t)
    return GammaState(
        gamma=backward @ state.psi,
        t=t,
        a_matrix=a_matrix,
        forward=forward,
        backward=backward,
        log_normalizer=state.log_normalizer,
    )


def from_gamma(state: GammaState) -> UnnormalizedState:
    """Invert the transform: psi = exp(A t) Gamma; GammaRangeError unless psi
    comes back positive and finite."""
    psi = gamma_weights(state.forward, state.gamma)
    return UnnormalizedState(
        psi=psi, log_normalizer=state.log_normalizer, t=state.t, clamps=0
    )


def gamma_langevin_step(
    state: GammaState,
    model: ChainModel,
    beta: float,
    dt: float,
    dy: float,
    step_forward: np.ndarray | None = None,
    step_backward: np.ndarray | None = None,
) -> GammaState:
    """Heun step of  dGamma/dt = exp(-A t) diag(a) exp(A t) (r / beta^2) Gamma.

    ``step_forward``/``step_backward`` are exp(+-A dt); pass both in when
    stepping many times with the same dt to avoid recomputing them. Raises
    GammaRangeError when the propagators overflow or exp(A t) Gamma is no
    longer positive.
    """
    if step_forward is None or step_backward is None:
        step_forward, step_backward = propagator_pair(state.a_matrix, dt)
    kernel = Gamma(model, dt, beta, step_forward=step_forward, step_backward=step_backward)
    (gamma, forward, backward), _ = step_once(
        kernel, (state.gamma, state.forward, state.backward), dy
    )
    return GammaState(
        gamma=gamma,
        t=state.t + dt,
        a_matrix=state.a_matrix,
        forward=forward,
        backward=backward,
        log_normalizer=state.log_normalizer,
    )
