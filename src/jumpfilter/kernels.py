"""Array kernels of every filter scheme, and the one driver loop over them.

A kernel is built once per run, ``Kernel(model, dt, beta, correction_sign,
sign_variant)``, and hoists every per-run constant (generator, correction
diagonal, rate mask, propagators, transition matrix). It then offers

* ``start(initial)``: the kernel state at t=0 (from a state object of the
  public API, an array, or None for the model's initial law);
* ``step(state, dy) -> (state, clamped)``: one pure step over a (K,) or
  (R, K) state, with no validation; ``clamped`` counts floored entries;
* ``probs(history) -> (probs, extras)``: the normalized (rows, K) history
  and the scheme's extra columns, in one vectorized pass.

:func:`drive` runs any kernel over an increment record and applies the single
error policy: finite increments at entry, a finite, on-simplex history, the
pre-renormalization sum guard and the clamp budget at exit. Per-step checks
remain only where a step cannot continue (the Gamma transform's range).

The arithmetic of each scheme lives here exactly once; the public step
functions of :mod:`jumpfilter.zakai`, :mod:`jumpfilter.wonham` and
:mod:`jumpfilter.oracle` are R=1 wrappers over these kernels. Hoisting keeps
the operation order of every expression (``psi * levels * (dy / beta**2)``
stays as written, never ``psi * (levels / beta**2) * dy``): the CLI outputs
are pinned bit for bit by ``tests/test_golden_outputs.py``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .chain import ChainModel, transition_matrix

__all__ = [
    "FLOOR",
    "CLAMP_FAILURE_FRACTION",
    "PRESUM_TOLERANCE",
    "SIMPLEX_TOLERANCE",
    "SIGN_VARIANTS",
    "FilterInstabilityError",
    "GammaRangeError",
    "KERNELS",
    "Run",
    "drive",
    "step_once",
]

# Floor for nonpositive weights and probabilities after an Euler step; keeps
# the log-domain filter total and aligns clamp statistics across schemes.
FLOOR = 1e-300

# A run fails when more than this fraction of its (replica-)steps needed the
# floor; silently projecting away instability would mask it.
CLAMP_FAILURE_FRACTION = 1e-3

# Largest drift of sum(p) before renormalization that a normalized Euler step
# may show; the update preserves the sum exactly in real arithmetic.
PRESUM_TOLERANCE = 1e-6

# Largest deviation of a stored probability row from unit sum.
SIMPLEX_TOLERANCE = 1e-9

SIGN_VARIANTS = ("innovation", "paper")


class FilterInstabilityError(RuntimeError):
    """Raised when a run clamps too often for its output to be trusted."""


class GammaRangeError(OverflowError):
    """exp(+-A t) left floating-point range; use the log-domain filter instead."""


def check_increment(dt: float, dy) -> None:
    """Input contract of a single public step: positive dt, finite increment."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not np.all(np.isfinite(dy)):
        raise ValueError("observation increment must be finite")


def initial_weights(model: ChainModel) -> np.ndarray:
    """Initial unnormalized weights: the initial law, zeros floored to 1e-300."""
    psi = np.array(model.initial_dist, dtype=float)
    if np.any(psi <= 0):
        warnings.warn(
            "zero initial probabilities floored to 1e-300 so every state stays representable",
            stacklevel=3,
        )
        psi = np.maximum(psi, FLOOR)
    return psi


def drift_matrix(model: ChainModel, beta: float, correction_sign: int = -1) -> np.ndarray:
    """Constant drift matrix of the smooth-noise unnormalized equation.

    A = Q^T + sign * (1/2) diag(a^2) / beta^2, acting on column vectors; the
    observation enters separately through diag(a) (x + n) / beta^2.
    """
    return model.generator.T + correction_sign * 0.5 * np.diag(model.levels**2) / beta**2


def propagator_pair(a_matrix: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """exp(+A t), exp(-A t); raises instead of silently returning inf/nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        forward = expm(a_matrix * t)
        backward = expm(-a_matrix * t)
    if not (np.all(np.isfinite(forward)) and np.all(np.isfinite(backward))):
        raise GammaRangeError("exp(+-A t) overflowed; use the log-domain filter")
    return forward, backward


# ---------------------------------------------------------------------------
# raw updates: the arithmetic of each scheme on any (..., K) array


def _row_sums(x: np.ndarray):
    return np.add.reduce(x, axis=-1, keepdims=x.ndim > 1)


def floor_and_total(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Floor nonpositive entries; return the floored array, its row sums and
    the number of floored entries."""
    clamped = int(np.count_nonzero(raw <= 0.0))
    if clamped:
        raw = np.maximum(raw, FLOOR)
    return raw, _row_sums(raw), clamped


def finish_simplex_step(raw: np.ndarray) -> tuple[np.ndarray, int]:
    """Floor nonpositive entries and renormalize the 1e-12-level rounding drift.

    Returns the renormalized vector and the number of floored entries. The
    pre-renormalization sum is the caller's to inspect (it is an exact
    invariant of the update in real arithmetic).
    """
    raw, total, clamped = floor_and_total(raw)
    return raw / total, clamped


def ito_update(psi, generator, levels, beta: float, dt: float, dy):
    """Raw Euler-Maruyama update of the linear unnormalized equation.

    Works on any (..., K) array; no floor or rescale applied.
    """
    return psi + dt * (psi @ generator) + psi * levels * (dy / beta**2)


def _heun_linear(psi, generator, diag, dt: float):
    """Heun step of the linear field  v @ generator + v * diag."""
    now = psi @ generator + psi * diag
    predictor = psi + dt * now
    return psi + 0.5 * dt * (now + (predictor @ generator + predictor * diag))


def _langevin_correction(levels, beta: float, correction_sign: int):
    return correction_sign * 0.5 * levels**2 / beta**2


def langevin_update(psi, generator, levels, beta: float, dt: float, dy, correction_sign: int):
    """Raw Heun update of the smooth-noise unnormalized equation.

    The drift is linear:  psi @ (Q + diag(sign/2 a^2/beta^2 + a r/beta^2))
    with r = dy/dt held constant over the step.
    """
    correction = _langevin_correction(levels, beta, correction_sign)
    return _heun_linear(psi, generator, correction + levels * (dy / dt / beta**2), dt)


def wonham_update_raw(
    probs,
    generator: np.ndarray,
    levels: np.ndarray,
    beta: float,
    dt: float,
    dy,
    sign_variant: str = "innovation",
):
    """One raw Euler update of the normalized filter, before flooring and
    renormalization.

    Works on any (..., K) array (``dy`` scalar or broadcastable (..., 1)),
    so Monte Carlo replicas are stepped in a batch with the arithmetic of
    the scalar API.
    """
    if sign_variant not in SIGN_VARIANTS:
        raise ValueError(f"sign_variant must be one of {SIGN_VARIANTS}")
    xbar = _row_sums(probs * levels)
    gain = (levels - xbar) * probs / beta**2
    drift = probs @ generator
    if sign_variant == "innovation":
        return probs + dt * drift + gain * (dy - xbar * dt)
    return probs + dt * drift + gain * dy + gain * (xbar * dt)


def _wonham_langevin_field(probs, generator, levels, levels_sq, beta_sq, rate, correction_sign):
    xbar = _row_sums(probs * levels)
    second_moment = _row_sums(probs * levels_sq)
    correction = 0.5 * probs * (levels_sq - second_moment) / beta_sq
    return (
        probs @ generator
        + correction_sign * correction
        + (levels - xbar) * probs * (rate / beta_sq)
    )


def wonham_langevin_field(probs, generator, levels, beta, rate, correction_sign):
    """Drift field of the smooth-noise normalized filter driven by ``rate``."""
    return _wonham_langevin_field(
        probs, generator, levels, levels**2, beta**2, rate, correction_sign
    )


def _clamp_q(q: float) -> tuple[float, int]:
    if q > 1.0:
        return 1.0, 1
    if q < -1.0:
        return -1.0, 1
    return q, 0


# ---------------------------------------------------------------------------
# kernels


class Kernel:
    """Per-run constants of one scheme; subclasses define start/step/probs."""

    scheme = ""
    # numpy floating-point error handling while stepping
    errstate: dict = {}

    def __init__(self, model, dt: float, beta: float, correction_sign: int = -1,
                 sign_variant: str = "innovation"):
        if correction_sign not in (-1, 1):
            raise ValueError("correction_sign must be -1 or +1")
        if sign_variant not in SIGN_VARIANTS:
            raise ValueError(f"sign_variant must be one of {SIGN_VARIANTS}")
        self.model = model
        self.dt = dt
        self.beta = beta
        self.beta_sq = beta**2
        self.correction_sign = correction_sign
        self.sign_variant = sign_variant
        if model is not None:
            self.generator = model.generator
            self.levels = model.levels

    def probs(self, history: list) -> tuple[np.ndarray, dict]:
        return np.array(history), {}


class _Unnormalized(Kernel):
    """State (psi, log_normalizer): unit-sum weights plus the carried log scale."""

    def start(self, initial=None):
        if initial is None:
            return initial_weights(self.model), 0.0
        return initial.psi, initial.log_normalizer

    @staticmethod
    def rescale(raw, log_normalizer):
        raw, total, clamped = floor_and_total(raw)
        return (raw / total, log_normalizer + np.log(total)), clamped

    def probs(self, history):
        psi = np.array([s[0] for s in history])
        log_normalizer = np.array([s[1] for s in history])
        if log_normalizer.ndim < psi.ndim:
            log_normalizer = log_normalizer[..., None]
        return (
            psi / _row_sums(psi),
            {"log_weights": log_normalizer + np.log(psi)},
        )


class ZakaiIto(_Unnormalized):
    scheme = "zakai-ito"

    def step(self, state, dy):
        psi, log_normalizer = state
        raw = ito_update(psi, self.generator, self.levels, self.beta, self.dt, dy)
        return self.rescale(raw, log_normalizer)


class ZakaiLangevin(_Unnormalized):
    scheme = "zakai-langevin"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.correction = _langevin_correction(self.levels, self.beta, self.correction_sign)

    def step(self, state, dy):
        psi, log_normalizer = state
        diag = self.correction + self.levels * (dy / self.dt / self.beta_sq)
        return self.rescale(_heun_linear(psi, self.generator, diag, self.dt), log_normalizer)


class WonhamIto(Kernel):
    """State (p, presum): probabilities and the pre-renormalization row sums
    of the step that produced them (1 at the start)."""

    scheme = "wonham-ito"

    def start(self, initial=None):
        if initial is None:
            probs = np.array(self.model.initial_dist)
        else:
            probs = initial if isinstance(initial, np.ndarray) else initial.probs
        presum = np.ones(probs.shape[:-1] + (1,)) if probs.ndim > 1 else 1.0
        return probs, presum

    def step(self, state, dy):
        raw = wonham_update_raw(
            state[0], self.generator, self.levels, self.beta, self.dt, dy, self.sign_variant
        )
        floored, total, clamped = floor_and_total(raw)
        presum = _row_sums(raw) if clamped else total
        return (floored / total, presum), clamped

    def probs(self, history):
        return (
            np.array([s[0] for s in history]),
            {"presum": np.array([s[1] for s in history])},
        )


class WonhamLangevin(Kernel):
    scheme = "wonham-langevin"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.levels_sq = self.levels**2

    def start(self, initial=None):
        return np.array(self.model.initial_dist) if initial is None else initial.probs

    def step(self, probs, dy):
        constants = (self.generator, self.levels, self.levels_sq, self.beta_sq, dy / self.dt,
                     self.correction_sign)
        now = _wonham_langevin_field(probs, *constants)
        predictor = probs + self.dt * now
        raw = probs + 0.5 * self.dt * (now + _wonham_langevin_field(predictor, *constants))
        raw, total, clamped = floor_and_total(raw)
        return raw / total, clamped


class LogDomain(Kernel):
    """State theta = log psi, shifted so that max theta = 0 after every step."""

    scheme = "log"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        model = self.model
        self.rates = model.rates
        # exponents are masked where the rate is zero, so a huge spread between
        # unconnected states cannot produce 0 * inf
        self.connected = model.rates > 0
        self.base_drift = (
            -model.exit_rates + self.correction_sign * 0.5 * self.levels**2 / self.beta_sq
        )

    def start(self, initial=None):
        psi = initial_weights(self.model) if initial is None else initial.psi
        return np.log(psi) - np.log(psi).max(axis=-1, keepdims=psi.ndim > 1)

    def step(self, theta, dy):
        # coupling_j = sum_{i != j} nu_ij exp(theta_i - theta_j); the shift cancels
        diffs = np.where(self.connected, theta[..., :, None] - theta[..., None, :], -np.inf)
        coupling = np.einsum("ij,...ij->...j", self.rates, np.exp(diffs))
        drift = self.base_drift + coupling
        updated = theta + self.dt * drift + self.levels * (dy / self.beta_sq)
        return updated - np.maximum.reduce(updated, axis=-1, keepdims=True), 0

    def probs(self, history):
        theta = np.array(history)
        shifted = np.exp(theta - np.maximum.reduce(theta, axis=-1, keepdims=True))
        return shifted / _row_sums(shifted), {"theta": theta}


class Gamma(Kernel):
    """State (Gamma, exp(+A t), exp(-A t), psi) of the transform
    Gamma = exp(-A t) psi; steps a single (K,) trajectory."""

    scheme = "gamma"

    def __init__(self, model, dt, beta, correction_sign=-1, sign_variant="innovation",
                 a_matrix=None, step_forward=None, step_backward=None):
        super().__init__(model, dt, beta, correction_sign, sign_variant)
        if a_matrix is None:
            a_matrix = drift_matrix(model, beta, correction_sign)
        self.a_matrix = a_matrix
        self.step_forward = expm(a_matrix * dt) if step_forward is None else step_forward
        self.step_backward = expm(-a_matrix * dt) if step_backward is None else step_backward
        self.diag_levels = np.diag(self.levels)

    def start(self, initial=None):
        psi = initial_weights(self.model) if initial is None else initial.psi
        forward, backward = propagator_pair(np.asarray(self.a_matrix, dtype=float), 0.0)
        gamma = backward @ psi
        return gamma, forward, backward, forward @ gamma

    def step(self, state, dy):
        """Heun step of  dGamma/dt = exp(-A t) diag(a) exp(A t) (r / beta^2) Gamma."""
        gamma, forward, backward, _ = state
        forward_next = forward @ self.step_forward
        backward_next = self.step_backward @ backward
        if not (np.isfinite(forward_next).all() and np.isfinite(backward_next).all()):
            raise GammaRangeError("exp(+-A t) overflowed; use the log-domain filter")
        d_scaled = self.diag_levels * (dy / self.dt / self.beta_sq)
        field_now = backward @ d_scaled @ forward
        field_next = backward_next @ d_scaled @ forward_next
        slope_now = field_now @ gamma
        predictor = gamma + self.dt * slope_now
        updated = gamma + 0.5 * self.dt * (slope_now + field_next @ predictor)
        # exp(A t) is finite and invertible here, so psi is finite only if Gamma is
        psi = forward_next @ updated
        if not ((psi > 0).all() and np.isfinite(psi).all()):
            raise GammaRangeError(
                "Gamma stepping left floating-point range or lost positivity; "
                "use the log-domain filter"
            )
        return (updated, forward_next, backward_next, psi), 0

    def probs(self, history):
        psi = np.array([s[3] for s in history])
        return psi / _row_sums(psi), {}


class _Telegraph(Kernel):
    """State q = p_plus - p_minus of the symmetric two-state chain, a float."""

    def __init__(self, model, dt, beta, correction_sign=-1, sign_variant="innovation",
                 nu=None):
        super().__init__(model, dt, beta, correction_sign, sign_variant)
        self.nu = float(model.rates[0, 1]) if nu is None else nu
        self.minus_two_nu = -2.0 * self.nu

    def start(self, initial=None):
        p0 = initial.probs if hasattr(initial, "probs") else self.model.initial_dist
        return float(p0[0] - p0[1])

    def probs(self, history):
        q = np.array(history)
        return np.stack([(1.0 + q) / 2.0, (1.0 - q) / 2.0], axis=1), {"q": q}


class TelegraphIto(_Telegraph):
    scheme = "telegraph-ito"

    def step(self, q, dy):
        """Euler step of  dq = -2 nu q dt - q(1-q^2)/beta^2 dt + (1-q^2)/beta^2 dy."""
        dt, beta_sq = self.dt, self.beta_sq
        spread = 1.0 - q * q
        return _clamp_q(
            q + dt * (self.minus_two_nu * q) - dt * q * spread / beta_sq + spread * dy / beta_sq
        )


class TelegraphLangevin(_Telegraph):
    scheme = "telegraph-langevin"

    def step(self, q, dy):
        """Heun step of the Riccati field  dq/dt = -2 nu q + (1-q^2) r / beta^2."""
        dt, minus_two_nu, beta_sq = self.dt, self.minus_two_nu, self.beta_sq
        rate = dy / dt
        now = minus_two_nu * q + (1.0 - q * q) * rate / beta_sq
        predictor = q + dt * now
        after = minus_two_nu * predictor + (1.0 - predictor * predictor) * rate / beta_sq
        return _clamp_q(q + 0.5 * dt * (now + after))


class BayesOracle(Kernel):
    """Discrete Bayes forward filter: exact transition matrix, then the
    Gaussian increment likelihood; state p."""

    scheme = "bayes-oracle"
    errstate = {"divide": "ignore"}

    def __init__(self, model, dt, beta, correction_sign=-1, sign_variant="innovation",
                 trans=None):
        super().__init__(model, dt, beta, correction_sign, sign_variant)
        self.trans = transition_matrix(model, dt) if trans is None else trans
        self.mean_increment = self.levels * dt
        self.two_variance = 2.0 * self.beta_sq * dt

    def start(self, initial=None):
        return np.array(self.model.initial_dist)

    def step(self, probs, dy):
        log_like = -((dy - self.mean_increment) ** 2) / self.two_variance
        log_post = np.log(probs @ self.trans) + log_like
        log_post -= np.maximum.reduce(log_post, axis=-1, keepdims=True)
        post = np.exp(log_post)
        return post / _row_sums(post), 0


KERNELS = {
    kernel.scheme: kernel
    for kernel in (
        ZakaiIto, ZakaiLangevin, WonhamIto, WonhamLangevin, LogDomain, Gamma,
        TelegraphIto, TelegraphLangevin, BayesOracle,
    )
}


# ---------------------------------------------------------------------------
# driver


@dataclass(eq=False)
class Run:
    """Result of :func:`drive`: the checked history and its statistics.

    Without a kept history, ``probs`` holds the final row only.
    """

    probs: np.ndarray
    extras: dict = field(default_factory=dict)
    clamps: int = 0
    presum_max_dev: float = 0.0
    presum_total_dev: float = 0.0


def step_once(kernel: Kernel, state, dy):
    """One kernel step under the kernel's floating-point error handling."""
    if not kernel.errstate:
        return kernel.step(state, dy)
    with np.errstate(**kernel.errstate):
        return kernel.step(state, dy)


def check_presum(presum) -> np.ndarray:
    """Deviations |presum - 1|; raises when one exceeds PRESUM_TOLERANCE or is NaN."""
    devs = np.abs(np.asarray(presum, dtype=float) - 1.0)
    if not np.all(devs <= PRESUM_TOLERANCE):
        raise ValueError(
            f"step left the simplex (pre-renormalization sum off by {float(np.max(devs))!r}); "
            "reduce dt or check the inputs"
        )
    return devs


def _discard(_state) -> None:
    pass


def drive(kernel: Kernel, state, dy: np.ndarray, keep_history: bool = True) -> Run:
    """Step ``kernel`` from ``state`` through the increments ``dy``, then check.

    ``dy`` is (n,) for one trajectory, or (n, R, 1) for R replicas stepped as
    an (R, K) batch. With ``keep_history`` false only the final state is kept
    and checked, so memory stays O(R K).

    Raises ValueError for non-finite increments, a history that is not finite
    or leaves the simplex, or a pre-renormalization sum off by more than
    PRESUM_TOLERANCE; FilterInstabilityError when more than
    CLAMP_FAILURE_FRACTION of the replica-steps clamp.
    """
    # min and max propagate NaN and expose +-inf without a full-size temporary
    if dy.size and not np.isfinite([np.min(dy), np.max(dy)]).all():
        raise ValueError("observation increments must be finite")
    n_steps = len(dy)
    history = [state]
    record = history.append if keep_history else _discard
    step = kernel.step
    clamps = 0
    with np.errstate(**kernel.errstate):
        for increment in dy.tolist() if dy.ndim == 1 else dy:
            state, clamped = step(state, increment)
            clamps += clamped
            record(state)
    probs, extras = kernel.probs(history if keep_history else [state])

    if not (np.all(np.isfinite(probs)) and all(np.all(np.isfinite(v)) for v in extras.values())):
        raise ValueError(f"{kernel.scheme}: the filter state became non-finite")
    if np.any(probs < 0) or np.any(np.abs(_row_sums(probs) - 1.0) > SIMPLEX_TOLERANCE):
        raise ValueError(f"{kernel.scheme}: probabilities left the simplex")
    run = Run(probs, extras, clamps)
    presum = extras.pop("presum", None)
    if presum is not None:
        devs = check_presum(presum)
        run.presum_max_dev = float(devs.max())
        run.presum_total_dev = float(np.cumsum(devs, axis=0)[-1].max())
    replica_steps = n_steps * (probs[0].size // probs.shape[-1])
    if clamps > CLAMP_FAILURE_FRACTION * replica_steps:
        raise FilterInstabilityError(
            f"{kernel.scheme}: {clamps} clamp events over {replica_steps} steps exceeds the "
            f"{CLAMP_FAILURE_FRACTION:.1%} budget; decrease dt"
        )
    return run
