"""Array kernels of every filter scheme, and the one driver loop over them.

A kernel is built once per run, ``Kernel(model, dt, beta, correction_sign,
sign_variant)``, and hoists every per-run constant (generator, correction
diagonal, rate mask, propagators, transition matrix). A run is split so that
the Python loop over the steps carries only the recurrence:

* ``start(initial)``: the kernel state at t=0, from None (the model's
  initial law) or a state of the scheme's ``initial_state`` type;
* ``prepare(state, dy)``: the per-step inputs of a run from ``state``
  through the increments ``dy``, every term that depends on the increment
  alone, computed in one vectorized pass before the loop (by default the
  increments themselves, as floats or as (R,) rows);
* ``step(state, inputs) -> (state, clamped)``: one pure step over a (K,)
  state, with no validation, doing only the work that the next step reads;
  ``clamped`` counts floored entries;
* ``probs(history) -> (probs, extras)``: the normalized (rows, K) history
  and the scheme's extra columns, in one vectorized pass after the loop,
  including the work that is only ever written out (the running log
  normalizer of the unnormalized schemes, Gamma's psi = exp(A t) Gamma and
  its range check).

Building a kernel also checks dt and beta (:func:`check_step`), its options
(:func:`check_signs`) and, through the kernel's ``check_model``, that the
scheme can filter the model.

Only wonham-ito also steps a batch of R replicas. Its batch is held
states-first, as a contiguous (K, R) array with one replica per column, so
the operations of a step run along length-R rows instead of broadcasting
over a length-K inner axis; ``start`` takes and ``probs`` returns the (R, K)
layout.

:func:`drive` runs any kernel over an increment record and applies the single
error policy: finite increments at entry (:func:`check_increments`, a
ValueError), then at exit :func:`check_states` and the clamp budget, whose
failures raise FilterInstabilityError (GammaRangeError, from Gamma's
``probs``, is one). No step checks anything; :func:`step_once` runs the same
:func:`check_states` on the state it steps to.

The arithmetic of each scheme lives here exactly once; the public step
functions of :mod:`jumpfilter.zakai`, :mod:`jumpfilter.wonham` and
:mod:`jumpfilter.oracle` are R=1 wrappers over these kernels, through
:func:`step_once`. Hoisting keeps the operation order of every expression
(``psi * levels * (dy / beta**2)`` stays as written, never
``psi * (levels / beta**2) * dy``), and a vectorized pass computes each
element with the operations of the per-step code it replaces (a stacked
``matmul`` runs the same BLAS call per matrix; ``np.add.accumulate`` adds
left to right): the CLI outputs are pinned bit for bit by
``tests/test_golden_outputs.py``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

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
    "Trajectory",
    "check_increments",
    "check_signs",
    "check_step",
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
    """Raised when a run's output cannot be trusted: its state became
    non-finite or left the simplex, a pre-renormalization sum drifted, or it
    clamped too often."""


class GammaRangeError(FilterInstabilityError):
    """exp(+-A t) left floating-point range; use the log-domain filter instead."""


def check_step(dt: float, beta: float) -> None:
    """The one check of a step size and a noise intensity: ValueError unless
    both are finite and positive and beta**2 and 1/beta**2 are finite and
    nonzero, as the schemes divide by beta**2."""
    if not (0 < dt < np.inf and 0 < beta < np.inf):
        raise ValueError(f"dt and beta must be finite and positive, not {dt!r} and {beta!r}")
    beta_sq = float(beta) * float(beta)  # Python floats overflow to inf without raising
    if not (0 < beta_sq < np.inf and 1.0 / beta_sq < np.inf):
        raise ValueError(f"beta={beta!r} is out of range: beta**2 and 1/beta**2 must be "
                         "finite and nonzero")


def check_signs(correction_sign: int = -1, sign_variant: str = "innovation") -> None:
    """The one check of the two variant options every scheme takes."""
    if correction_sign not in (-1, 1):
        raise ValueError("correction_sign must be -1 or +1")
    if sign_variant not in SIGN_VARIANTS:
        raise ValueError(f"sign_variant must be one of {SIGN_VARIANTS}")


def check_increments(dy: np.ndarray) -> None:
    """The one check that an array of observation increments is finite."""
    # min and max propagate NaN and expose +-inf without a full-size temporary
    if dy.size and not (np.isfinite(dy.min()) and np.isfinite(dy.max())):
        raise ValueError("observation increments must be finite")


def on_simplex(probs: np.ndarray) -> bool:
    """Whether each row of ``probs`` is nonnegative and sums to 1 +- SIMPLEX_TOLERANCE, so
    also finite: NaN fails the first test, an infinite entry the second."""
    return bool((probs >= 0).all() and (abs(_row_sums(probs) - 1.0) <= SIMPLEX_TOLERANCE).all())


def check_probability_vector(probs) -> np.ndarray:
    """A read-only float copy of ``probs``; ValueError unless :func:`on_simplex`."""
    probs = np.array(probs, dtype=float)
    if not on_simplex(probs):
        raise ValueError("probabilities must be finite and nonnegative and sum to 1")
    probs.setflags(write=False)
    return probs


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
    return model.generator.T + np.diag(correction_diagonal(model.levels, beta, correction_sign))


def correction_diagonal(levels: np.ndarray, beta: float, correction_sign: int = -1) -> np.ndarray:
    """The smooth-noise drift correction  sign * (1/2) a_j^2 / beta^2  per state;
    an entry beyond the float range is infinite, and a run over it fails."""
    with np.errstate(over="ignore"):
        return correction_sign * 0.5 * levels**2 / beta**2


def propagator_pair(a_matrix: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """exp(+A t), exp(-A t); raises instead of silently returning inf/nan."""
    # imported here: scipy.linalg takes ~0.3 s to load and only Gamma needs it
    from scipy.linalg import expm

    with np.errstate(over="ignore", invalid="ignore"):
        forward = expm(a_matrix * t)
        backward = expm(-a_matrix * t)
    if not (np.all(np.isfinite(forward)) and np.all(np.isfinite(backward))):
        raise GammaRangeError("exp(+-A t) overflowed; use the log-domain filter")
    return forward, backward


# ---------------------------------------------------------------------------
# raw updates: the arithmetic of each scheme on any (..., K) array


def _row_sums(x: np.ndarray):
    """Sums over the last axis of a (..., K) history, kept as a column."""
    return np.add.reduce(x, axis=-1, keepdims=x.ndim > 1)


def _state_sums(x: np.ndarray):
    """Sums over the states of a (K,) state (a scalar) or a states-first
    (K, R) batch (an (R,) row)."""
    return np.add.reduce(x, axis=0)


def floor_and_total(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Floor nonpositive entries of a (K,) or (K, R) state; return the floored
    array, its state sums and the number of floored entries."""
    clamped = int(np.count_nonzero(raw <= 0.0))
    if clamped:
        raw = np.maximum(raw, FLOOR)
    return raw, _state_sums(raw), clamped


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

    Works on a (K,) state with (K,) ``levels`` and a scalar ``dy``, or on a
    states-first (K, R) batch with (K, 1) ``levels`` and (R,) ``dy``, so
    Monte Carlo replicas are stepped in a batch with the arithmetic of the
    scalar API.
    """
    check_signs(sign_variant=sign_variant)
    # in-place form of  probs + dt * drift + gain * (dy - xbar * dt)  (or
    # of  ... + gain * dy + gain * (xbar * dt)), same operations and order
    xbar = _state_sums(probs * levels)
    gain = levels - xbar
    gain *= probs
    gain /= beta**2
    raw = generator.T @ probs
    raw *= dt
    raw += probs
    if sign_variant == "innovation":
        gain *= dy - xbar * dt
    else:
        raw += gain * dy
        gain *= xbar * dt
    raw += gain
    return raw


def _wonham_langevin_field(probs, generator, levels, levels_sq, beta_sq, rate, correction_sign):
    xbar = _state_sums(probs * levels)
    second_moment = _state_sums(probs * levels_sq)
    correction = 0.5 * probs * (levels_sq - second_moment) / beta_sq
    return (
        probs @ generator
        + correction_sign * correction
        + (levels - xbar) * probs * (rate / beta_sq)
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
    """Per-run constants of one scheme; subclasses define start/step/probs
    and, where a term depends on the increment alone, prepare."""

    scheme = ""
    # whether a state is (probs, presum), presum being the sums before the
    # renormalization that produced probs
    carries_presum = False
    # whether a state is (psi, scale) and probs needs the scale of every step
    carries_scale = False
    # the public state type that ``start`` takes, and its attribute holding the array
    initial_state = ("FilterState", "probs")

    def __init__(self, model, dt: float, beta: float, correction_sign: int = -1,
                 sign_variant: str = "innovation"):
        check_step(dt, beta)
        check_signs(correction_sign, sign_variant)
        self.model = model
        self.dt = dt
        self.beta = beta
        self.beta_sq = beta**2
        self.correction_sign = correction_sign
        self.sign_variant = sign_variant
        if model is not None:
            self.check_model(model)
            self.generator = model.generator
            self.levels = model.levels

    @staticmethod
    def check_model(model: ChainModel) -> None:
        """Raises ValueError when the scheme cannot filter ``model``."""

    def initial(self, state) -> np.ndarray:
        """The array of a given start state; ValueError for another state type."""
        type_name, attribute = self.initial_state
        if not hasattr(state, attribute):
            raise ValueError(
                f"{self.scheme} starts from a {type_name}, not a {type(state).__name__}"
            )
        return getattr(state, attribute)

    def prepare(self, state, dy: np.ndarray):
        """The inputs of the steps from ``state`` through ``dy``; here the
        increments themselves, floats for (n,) ``dy`` and (R,) rows for (n, R)."""
        return dy.tolist() if dy.ndim == 1 else dy

    def probs(self, history: list) -> tuple[np.ndarray, dict]:
        return np.array(history), {}


class _Unnormalized(Kernel):
    """State (psi, scale): unit-sum weights, and as scale the start's log
    normalizer or the sum before rescaling of the step that produced psi.

    The log normalizer of step r is  L_0 + log t_1 + ... + log t_r ; only
    ``probs`` forms it, as one left-to-right ``np.add.accumulate``.
    """

    initial_state = ("UnnormalizedState", "psi")
    carries_scale = True

    def start(self, initial=None):
        if initial is None:
            return initial_weights(self.model), 0.0
        return self.initial(initial), initial.log_normalizer

    @staticmethod
    def rescale(raw):
        raw, total, clamped = floor_and_total(raw)
        return (raw / total, total), clamped

    def probs(self, history):
        """Rows of the states that kept their weights (a run without a kept
        history has (None, scale) entries before its final state)."""
        log_normalizer = np.array([s[1] for s in history])
        np.log(log_normalizer[1:], out=log_normalizer[1:])
        np.add.accumulate(log_normalizer, out=log_normalizer)
        psi = np.array([s[0] for s in history if s[0] is not None])
        log_normalizer = log_normalizer[len(history) - len(psi):, None]
        return (
            psi / _row_sums(psi),
            {"log_weights": log_normalizer + np.log(psi)},
        )


class ZakaiIto(_Unnormalized):
    scheme = "zakai-ito"

    def step(self, state, dy):
        raw = ito_update(state[0], self.generator, self.levels, self.beta, self.dt, dy)
        return self.rescale(raw)


class ZakaiLangevin(_Unnormalized):
    scheme = "zakai-langevin"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.correction = correction_diagonal(self.levels, self.beta, self.correction_sign)

    def prepare(self, state, dy):
        """The diagonal  correction + a (dy / dt / beta^2)  of every step, (n, K)."""
        rate = dy / self.dt
        rate /= self.beta_sq
        diag = np.multiply.outer(rate, self.levels)
        diag += self.correction
        return diag

    def step(self, state, diag):
        """Heun step of  psi @ Q + psi * diag(correction + a r / beta^2), r = dy/dt."""
        psi = state[0]
        generator, dt = self.generator, self.dt
        now = psi @ generator + psi * diag
        predictor = psi + dt * now
        raw = psi + 0.5 * dt * (now + (predictor @ generator + predictor * diag))
        return self.rescale(raw)


class WonhamIto(Kernel):
    """State (p, presum): probabilities and the pre-renormalization sums of
    the step that produced them (1 at the start).

    p is (K,) for one trajectory or a states-first (K, R) batch, whose step
    takes an (R,) row of increments.
    """

    scheme = "wonham-ito"
    carries_presum = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.levels_column = self.levels[:, None]

    def start(self, initial=None):
        """(K,) from None, a state object or a (K,) array; (K, R) from an
        (R, K) array of replica rows."""
        if initial is None:
            return np.array(self.model.initial_dist), 1.0
        probs = initial if isinstance(initial, np.ndarray) else self.initial(initial)
        if probs.ndim == 1:
            return probs, 1.0
        return np.ascontiguousarray(probs.T), np.ones(probs.shape[0])

    def step(self, state, dy):
        probs = state[0]
        levels = self.levels if probs.ndim == 1 else self.levels_column
        raw = wonham_update_raw(
            probs, self.generator, levels, self.beta, self.dt, dy, self.sign_variant
        )
        floored, total, clamped = floor_and_total(raw)
        presum = _state_sums(raw) if clamped else total
        return (floored / total, presum), clamped

    def probs(self, history):
        probs = np.array([s[0] for s in history])
        if probs.ndim == 3:
            # (rows, K, R) batch history -> C-contiguous (rows, R, K)
            probs = np.ascontiguousarray(probs.transpose(0, 2, 1))
        return probs, {"presum": np.array([s[1] for s in history])}


class WonhamLangevin(Kernel):
    scheme = "wonham-langevin"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        with np.errstate(over="ignore"):
            self.levels_sq = self.levels**2

    def start(self, initial=None):
        return np.array(self.model.initial_dist) if initial is None else self.initial(initial)

    def step(self, probs, dy):
        constants = (self.generator, self.levels, self.levels_sq, self.beta_sq, dy / self.dt,
                     self.correction_sign)
        now = _wonham_langevin_field(probs, *constants)
        predictor = probs + self.dt * now
        return finish_simplex_step(
            probs + 0.5 * self.dt * (now + _wonham_langevin_field(predictor, *constants))
        )


class LogDomain(Kernel):
    """State theta = log psi, shifted so that max theta = 0 after every step."""

    scheme = "log"
    initial_state = _Unnormalized.initial_state

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        model = self.model
        self.rates = model.rates
        # exponents are masked where the rate is zero, so a huge spread between
        # unconnected states cannot produce 0 * inf
        self.connected = model.rates > 0
        self.base_drift = -model.exit_rates + correction_diagonal(
            self.levels, self.beta, self.correction_sign
        )

    def start(self, initial=None):
        psi = initial_weights(self.model) if initial is None else self.initial(initial)
        return np.log(psi) - np.log(psi).max(axis=-1, keepdims=psi.ndim > 1)

    def prepare(self, state, dy):
        """The observation term  a (dy / beta^2)  of every step, (n, K)."""
        return np.multiply.outer(dy / self.beta_sq, self.levels)

    def step(self, theta, observed):
        # coupling_j = sum_{i != j} nu_ij exp(theta_i - theta_j); the shift cancels
        diffs = np.where(self.connected, theta[..., :, None] - theta[..., None, :], -np.inf)
        coupling = np.einsum("ij,...ij->...j", self.rates, np.exp(diffs))
        drift = self.base_drift + coupling
        updated = theta + self.dt * drift + observed
        return updated - np.maximum.reduce(updated, axis=-1, keepdims=True), 0

    def probs(self, history):
        theta = np.array(history)
        shifted = np.exp(theta - np.maximum.reduce(theta, axis=-1, keepdims=True))
        return shifted / _row_sums(shifted), {"theta": theta}


def gamma_weights(forward: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """psi = exp(A t) Gamma of one state, or of a stack of them in one batched
    matrix-vector product; GammaRangeError unless psi is positive and finite."""
    psi = np.matmul(forward, gamma[..., None])[..., 0]
    # exp(A t) is finite and invertible here, so psi is finite only if Gamma is
    if not ((psi > 0).all() and np.isfinite(psi).all()):
        raise GammaRangeError(
            "Gamma stepping left floating-point range or lost positivity; "
            "use the log-domain filter"
        )
    return psi


class Gamma(Kernel):
    """State (Gamma, exp(+A t), exp(-A t)) of the transform
    Gamma = exp(-A t) psi; steps a single (K,) trajectory.

    The step propagators exp(+-A dt) come from ``step_forward`` and
    ``step_backward`` when both are given, else from :func:`propagator_pair`
    of the model's :func:`drift_matrix`, which raises GammaRangeError here if
    they are not finite. ``prepare`` forms the propagators of every step and
    the two Heun fields that use them, ``step`` advances Gamma alone, and
    ``probs`` maps the history back to psi = exp(A t) Gamma.
    """

    scheme = "gamma"
    initial_state = _Unnormalized.initial_state

    def __init__(self, model, dt, beta, correction_sign=-1, sign_variant="innovation",
                 step_forward=None, step_backward=None):
        super().__init__(model, dt, beta, correction_sign, sign_variant)
        if step_forward is None or step_backward is None:
            step_forward, step_backward = propagator_pair(
                drift_matrix(model, beta, correction_sign), dt
            )
        self.step_forward = step_forward
        self.step_backward = step_backward
        self.diag_levels = np.diag(self.levels)

    def start(self, initial=None):
        """At t=0 both propagators are the identity, so Gamma = psi."""
        psi = initial_weights(self.model) if initial is None else self.initial(initial)
        identity = np.eye(len(psi))
        return psi, identity, identity

    def prepare(self, state, dy):
        """(field_now, field_next, exp(A t'), exp(-A t')) of every step t -> t',
        with the fields  exp(-A s) D exp(A s), D = diag(a) (dy / dt / beta^2),
        at s = t and s = t'.

        The propagators exp(+-A t) of every grid time come from those of
        ``state`` by one product with exp(+-A dt) per step.
        """
        _, forward, backward = state
        n_steps, k = len(dy), len(forward)
        forwards = np.empty((n_steps + 1, k, k))
        backwards = np.empty((n_steps + 1, k, k))
        forwards[0], backwards[0] = forward, backward
        step_forward, step_backward = self.step_forward, self.step_backward
        for r in range(n_steps):
            np.matmul(forwards[r], step_forward, out=forwards[r + 1])
            np.matmul(step_backward, backwards[r], out=backwards[r + 1])
        rate = dy / self.dt
        rate /= self.beta_sq
        scaled = np.multiply(self.diag_levels, rate[:, None, None])
        work = np.matmul(backwards[:-1], scaled)
        field_now = np.matmul(work, forwards[:-1])
        np.matmul(backwards[1:], scaled, out=work)
        field_next = np.matmul(work, forwards[1:], out=scaled)
        return zip(field_now, field_next, forwards[1:], backwards[1:])

    def step(self, state, inputs):
        """Heun step of  dGamma/dt = exp(-A t) diag(a) exp(A t) (r / beta^2) Gamma."""
        field_now, field_next, forward, backward = inputs
        gamma = state[0]
        slope_now = field_now @ gamma
        predictor = gamma + self.dt * slope_now
        updated = gamma + 0.5 * self.dt * (slope_now + field_next @ predictor)
        return (updated, forward, backward), 0

    def probs(self, history):
        psi = gamma_weights(np.array([s[1] for s in history]),
                            np.array([s[0] for s in history]))
        return psi / _row_sums(psi), {}


class _Telegraph(Kernel):
    """State q = p_plus - p_minus of the symmetric two-state chain, a float."""

    def __init__(self, model, dt, beta, correction_sign=-1, sign_variant="innovation",
                 nu=None):
        super().__init__(model, dt, beta, correction_sign, sign_variant)
        self.nu = float(model.rates[0, 1]) if nu is None else nu
        self.minus_two_nu = -2.0 * self.nu

    @staticmethod
    def check_model(model: ChainModel) -> None:
        """The scalar filter holds for the symmetric chain with levels (1, -1) only."""
        if (
            model.n_states != 2
            or not np.allclose(model.levels, [1.0, -1.0], rtol=0.0, atol=1e-12)
            or abs(model.rates[0, 1] - model.rates[1, 0]) > 1e-12
        ):
            raise ValueError("telegraph schemes require K=2, levels (1, -1) and a symmetric rate")

    def start(self, initial=None):
        p0 = self.model.initial_dist if initial is None else self.initial(initial)
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
    Gaussian increment likelihood; state p. This is the Lie-Trotter
    splitting-up scheme of the filtering equation (Le Gland 1992; Bensoussan,
    Glowinski & Rascanu 1990): the signal's forward equation is solved
    exactly over a step, then the observation part alone."""

    scheme = "bayes-oracle"

    def __init__(self, model, dt, beta, correction_sign=-1, sign_variant="innovation",
                 trans=None):
        super().__init__(model, dt, beta, correction_sign, sign_variant)
        self.trans = transition_matrix(model, dt) if trans is None else trans
        self.mean_increment = self.levels * dt
        self.two_variance = 2.0 * self.beta_sq * dt

    def start(self, initial=None):
        return np.array(self.model.initial_dist) if initial is None else self.initial(initial)

    def prepare(self, state, dy):
        """The increment log-likelihood  -(dy - a dt)^2 / (2 beta^2 dt)  of every
        step, (n, K)."""
        log_like = np.subtract.outer(dy, self.mean_increment)
        np.square(log_like, out=log_like)
        np.negative(log_like, out=log_like)
        log_like /= self.two_variance
        return log_like

    def step(self, probs, log_like):
        log_post = np.log(probs @ self.trans) + log_like
        log_post -= np.maximum.reduce(log_post, axis=-1, keepdims=True)
        post = np.exp(log_post)
        return post / _state_sums(post), 0


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
class Trajectory:
    """Result of :func:`drive`: the checked history and its statistics.

    ``times`` is the grid r*dt, r = 0..n. ``probs`` holds the normalized rows
    (the final row only when no history is kept). ``extras`` may carry
    'log_weights' (n+1, K) for unnormalized schemes, 'q' (n+1,) for telegraph
    schemes, and 'theta' for the log-domain scheme.
    ``presum_max_dev``/``presum_total_dev`` track the pre-renormalization
    simplex defect of Euler steps where that invariant applies.
    """

    scheme: str
    times: np.ndarray
    probs: np.ndarray
    clamps: int = 0
    presum_max_dev: float = 0.0
    presum_total_dev: float = 0.0
    extras: dict = field(default_factory=dict)


# Kernels step with numpy's floating-point warnings off: a state that overflows
# or turns NaN is caught by the checks that follow and raised as a typed error,
# and a zero probability may take log 0 = -inf (bayes-oracle).
QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


def step_once(kernel: Kernel, state, dy):
    """One kernel step over the increment ``dy`` (through ``prepare``), with numpy's
    floating-point warnings off; ValueError unless ``dy`` is finite, then
    :func:`check_states` of the stepped state as a one-state history."""
    dy = np.array([dy], dtype=float)
    check_increments(dy)
    with np.errstate(**QUIET):
        (inputs,) = kernel.prepare(state, dy)
        stepped = kernel.step(state, inputs)
        probs, extras = kernel.probs([stepped[0]])
    check_states(kernel.scheme, probs, extras,
                 np.abs(extras["presum"] - 1.0) if kernel.carries_presum else None)
    return stepped


def check_states(scheme: str, probs: np.ndarray, extras: dict, presum_devs=None) -> None:
    """The one check of filter states, for a run or for one step: raises
    FilterInstabilityError unless ``probs`` and every extra are finite, every
    row of ``probs`` is :func:`on_simplex`, and no deviation |presum - 1| in
    ``presum_devs`` (wonham-ito) exceeds PRESUM_TOLERANCE or is NaN."""
    if not all(np.isfinite(v).all() for v in (probs, *extras.values())):
        raise FilterInstabilityError(f"{scheme}: the filter state became non-finite")
    if not on_simplex(probs):
        raise FilterInstabilityError(f"{scheme}: probabilities left the simplex")
    if presum_devs is not None and not (presum_devs <= PRESUM_TOLERANCE).all():
        raise FilterInstabilityError(
            f"{scheme}: step left the simplex (pre-renormalization sum off by "
            f"{float(np.max(presum_devs))!r}); reduce dt or check the inputs"
        )


def _discard(_state) -> None:
    pass


def _keep_scales(history: list):
    """A ``record`` that appends only the scale of each state, as (None, scale)."""

    def record(state):
        history.append((None, state[1]))

    return record


def _presum_tally(state):
    """Per-replica running maximum and total of |presum - 1| over the states
    passed to the returned ``record``, starting with ``state``'s."""
    first = np.abs(np.subtract(state[1], 1.0))
    worst, total = np.array(first, ndmin=1), np.array(first, ndmin=1)

    def record(state):
        devs = np.abs(state[1] - 1.0)
        np.maximum(worst, devs, out=worst)
        np.add(total, devs, out=total)

    return record, worst, total


def drive(kernel: Kernel, state, dy: np.ndarray, keep_history: bool = True) -> Trajectory:
    """Step ``kernel`` from ``state`` through the increments ``dy``, then check.

    ``dy`` is (n,) for one trajectory, or (n, R) for R replicas stepped as a
    batch (wonham-ito only). With ``keep_history`` false only the final state
    is kept and checked, so memory stays O(R K); the pre-sum guard then runs
    on a running maximum of |presum - 1| carried through the loop, and an
    unnormalized kernel keeps the O(n) scales its log normalizer sums.

    Raises ValueError for non-finite increments, before the first step;
    FilterInstabilityError from :func:`check_states`, or for more than
    CLAMP_FAILURE_FRACTION of the replica-steps clamping.
    """
    check_increments(dy)
    n_steps = len(dy)
    history = [state]
    if keep_history:
        record = history.append
    elif kernel.carries_presum:
        record, presum_worst, presum_total = _presum_tally(state)
    elif kernel.carries_scale:
        history = [(None, state[1])]
        record = _keep_scales(history)
    else:
        record = _discard
    step = kernel.step
    clamps = 0
    with np.errstate(**QUIET):
        # the loop holds the prepared inputs and releases them when it ends
        for inputs in kernel.prepare(state, dy):
            state, clamped = step(state, inputs)
            clamps += clamped
            record(state)
        if not keep_history:
            history[-1] = state
        probs, extras = kernel.probs(history)

    if kernel.carries_presum and keep_history:
        devs = np.abs(extras["presum"] - 1.0)
        presum_worst, presum_total = devs.max(axis=0), np.cumsum(devs, axis=0)[-1]
    check_states(kernel.scheme, probs, extras, presum_worst if kernel.carries_presum else None)
    run = Trajectory(kernel.scheme, np.arange(n_steps + 1) * kernel.dt, probs, clamps,
                     extras=extras)
    if kernel.carries_presum:
        del extras["presum"]
        run.presum_max_dev = float(presum_worst.max())
        run.presum_total_dev = float(presum_total.max())
    replica_steps = n_steps * (probs[0].size // probs.shape[-1])
    if clamps > CLAMP_FAILURE_FRACTION * replica_steps:
        raise FilterInstabilityError(
            f"{kernel.scheme}: {clamps} clamp events over {replica_steps} steps exceeds the "
            f"{CLAMP_FAILURE_FRACTION:.1%} budget; decrease dt"
        )
    return run
