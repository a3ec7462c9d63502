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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chain import ChainModel
from .kernels import (
    Gamma,
    GammaRangeError,
    LogDomain,
    ZakaiIto,
    ZakaiLangevin,
    check_scalars,
    check_state_size,
    given_matrix,
    propagator_pair,
    step_once,
)

# Not called here; benchmark/kernel_probe.py and the acceptance suite read it
# as an attribute of this module, so it stays bound.
from .kernels import drift_matrix  # noqa: F401

__all__ = [
    "UnnormalizedState",
    "LogState",
    "GammaState",
    "init_unnormalized",
    "zakai_ito_step",
    "zakai_langevin_step",
    "log_step",
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
        check_scalars(self)

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
        check_scalars(self)


@dataclass(frozen=True, eq=False, kw_only=True)
class GammaState(UnnormalizedState):
    """Similarity-transformed weights Gamma = exp(-A t) psi.

    An :class:`UnnormalizedState` of the weights psi that the Gamma step
    advances, plus the constant drift matrix A, kept as a read-only copy;
    ValueError unless A is a finite (K, K) float array, K = len(psi). The
    read-only propagators ``forward`` and ``backward``, exp(+-A t), are
    computed from A and t on first read, which raises GammaRangeError if
    they overflow; ``gamma`` is derived from psi.
    """

    a_matrix: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        k = len(self.psi)
        a_matrix = given_matrix(self.a_matrix, k, f"a_matrix must be a finite ({k}, {k}) matrix")
        a_matrix = a_matrix.copy()
        a_matrix.setflags(write=False)
        object.__setattr__(self, "a_matrix", a_matrix)

    @cached_property
    def _propagators(self) -> tuple[np.ndarray, np.ndarray]:
        pair = propagator_pair(self.a_matrix, self.t)
        for matrix in pair:
            matrix.setflags(write=False)
        return pair

    forward = property(lambda self: self._propagators[0], doc="exp(+A t)")
    backward = property(lambda self: self._propagators[1], doc="exp(-A t)")

    @property
    def gamma(self) -> np.ndarray:
        """Gamma = exp(-A t) psi."""
        return self.backward @ self.psi


def init_unnormalized(model: ChainModel) -> UnnormalizedState:
    """Initial weights equal the initial distribution; zeros floored to 1e-300."""
    return UnnormalizedState(psi=model.start_weights, log_normalizer=0.0, t=0.0, clamps=0)


def _unnormalized_step(kernel, state: UnnormalizedState, dy: float, kind=UnnormalizedState,
                       **fields) -> UnnormalizedState:
    """One ``kernel`` step of ``state``'s weights, as a ``kind`` with ``fields``."""
    (psi, log_normalizer), clamped = step_once(kernel, (state.psi, state.log_normalizer), dy)
    return kind(psi=psi, log_normalizer=float(log_normalizer), t=state.t + kernel.dt,
                clamps=state.clamps + clamped, **fields)


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


def to_gamma(state: UnnormalizedState, a_matrix: np.ndarray, t: float | None = None) -> GammaState:
    """Transform psi into Gamma = exp(-A t) psi (keeps the log normalizer).

    ValueError unless ``t`` is finite and nonnegative and ``a_matrix`` is a
    finite (K, K) matrix; GammaRangeError when exp(+-A t) overflows."""
    gamma_state = GammaState(psi=state.psi, log_normalizer=state.log_normalizer,
                             t=state.t if t is None else t, clamps=state.clamps,
                             a_matrix=a_matrix)
    gamma_state.forward  # computes exp(+-A t), or raises GammaRangeError
    return gamma_state


def from_gamma(state: GammaState) -> UnnormalizedState:
    """Invert the transform: psi = exp(A t) Gamma; GammaRangeError when exp(+-A t)
    overflows or psi does not come back positive and finite."""
    psi = state.forward @ state.gamma
    # exp(A t) is finite and invertible here, so psi is finite only if Gamma is
    if not ((psi > 0).all() and np.isfinite(psi).all()):
        raise GammaRangeError(
            "exp(A t) Gamma left floating-point range or lost positivity; "
            "use the log-domain filter"
        )
    return UnnormalizedState(
        psi=psi, log_normalizer=state.log_normalizer, t=state.t, clamps=state.clamps
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
    """Heun step of  dGamma/dt = exp(-A t) diag(a) exp(A t) (r / beta^2) Gamma,
    re-based at t (the Gamma kernel's step of psi), then the rescale.

    ``step_forward``/``step_backward`` are exp(+-A dt); pass both in when
    stepping many times with the same dt to avoid recomputing them (ValueError
    unless both or neither are given, each (K, K) and finite). Raises
    GammaRangeError when computed ones overflow.
    """
    check_state_size(len(state.psi), model)
    if step_forward is None and step_backward is None:
        step_forward, step_backward = propagator_pair(state.a_matrix, dt)
    kernel = Gamma(model, dt, beta, step_forward=step_forward, step_backward=step_backward)
    return _unnormalized_step(kernel, state, dy, GammaState, a_matrix=state.a_matrix)
