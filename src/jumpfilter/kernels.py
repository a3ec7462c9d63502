"""Array kernels of every filter scheme, and the one driver loop over them.

A kernel is built once per run, ``Kernel(model, dt, beta, correction_sign,
sign_variant)``, and hoists every per-run constant (generator, correction
diagonal, rate mask, propagators, transition matrix). A run is split so that
the Python loop over the steps carries only the recurrence:

* ``start()``: the kernel state at t=0, from the model's initial law
  (or its floored start weights);
* ``prepare(dy)``: the per-step inputs of a block of increments ``dy``,
  every term that depends on the increment alone, computed in one
  vectorized pass before the block's steps (by default the increments
  themselves, as floats or as (R,) rows);
* ``step(state, inputs)``: one pure step over a (K,) state (or a (K, R)
  batch, see below), with no validation, doing only the work that the next
  step reads; of a state ``(array, sum)`` it takes the array and returns
  the raw update, which the driver normalizes, else ``(state, clamped)``;
* ``probs(states, sums) -> (probs, extras)``: the normalized (rows, K)
  rows of a block and the scheme's extra columns, from the arrays that
  :func:`run_steps` wrote, in one vectorized pass after the block's steps
  that may overwrite them, including the work that is only ever written out
  (the running log normalizer of the unnormalized kernels, in place of their
  step totals: row 0 carries it in, and the last row on to the next block).

Building a kernel also checks dt and beta (:func:`check_step`), its options
(:func:`check_signs`) and, through the kernel's ``check_model``, that the
scheme can filter the model.

:func:`run_steps` is the one loop. It steps a run ``BLOCK_ROWS`` rows at a
time, normalizes a simplex kernel's raw updates by a bare total and divide,
checks the block once and steps a failing block again with the floor
(:func:`normalize`); then it hands the block on, so no array of a run grows
with its length: :func:`drive` keeps every block, a written ``filter``
writes each, and the tower check keeps the final row. It alone knows the
batch layout: (n, R) increments run R copies of the state from ``start``,
or a batch's state taken back, held states-first as a contiguous (K, R)
array (so a step's operations run along length-R rows, not over a length-K
inner axis), and come back as (rows, R, K). Only a kernel whose class sets
``batches`` (wonham-ito) takes them.

The single error policy: finite increments before they are stepped
(:func:`check_increments`, a ValueError), then the faults of the rows, the
pre-sum statistics and the clamps, folded as the run goes, raised at exit by
:func:`check_run` as FilterInstabilityError. :func:`check_run` joins the
runs of replica blocks itself, so a batch stepped in blocks (the tower
check) is checked once, as one batch would be. No step checks anything.

The arithmetic of each scheme lives here exactly once, and so does the loop:
the public step functions of :mod:`jumpfilter.zakai`, :mod:`jumpfilter.wonham`
and :mod:`jumpfilter.oracle` are one-step runs of these kernels, through
:func:`step_once`. A step takes its products through ``ndarray.dot`` (the
BLAS call of ``@`` without the matmul dispatch) and reads per-run decisions
made at build. Hoisting keeps the operation order of every expression
(``psi * levels * (dy / beta**2)`` stays as written, never
``psi * (levels / beta**2) * dy``; ``0.5 * dt * x`` becomes ``half_dt * x``,
the same left-to-right product), and a vectorized pass computes each
element with the operations of the per-step code it replaces (a stacked
``matmul`` runs the same BLAS call per matrix; ``np.add.accumulate`` adds
left to right): the CLI outputs are pinned bit for bit by
``tests/test_golden_outputs.py``, and each kernel's step arithmetic by
``tests/test_kernel_contract.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .chain import CHUNK_VALUES, FLOOR, ChainModel, is_count, is_real, transition_matrix

__all__ = [
    "CLAMP_FAILURE_FRACTION",
    "PRESUM_TOLERANCE",
    "SIMPLEX_TOLERANCE",
    "SIGN_VARIANTS",
    "FilterInstabilityError",
    "GammaRangeError",
    "KERNELS",
    "BLOCK_ROWS",
    "Trajectory",
    "block_steps",
    "check_increments",
    "check_run",
    "check_signs",
    "check_step",
    "drive",
    "run_history",
    "run_steps",
    "step_once",
]

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


def check_scalars(state) -> None:
    """ValueError naming the field unless, where ``state`` has them, ``t`` is
    a finite and nonnegative real number, ``log_normalizer`` a finite one and
    the counts ``clamps`` and ``step`` are nonnegative integers (numpy's
    too, not bools)."""
    t, log_normalizer = getattr(state, "t", 0.0), getattr(state, "log_normalizer", 0.0)
    if not (is_real(t) and 0 <= t < math.inf):
        raise ValueError(f"t must be finite and nonnegative, not {t!r}")
    if not (is_real(log_normalizer) and math.isfinite(log_normalizer)):
        raise ValueError(f"log_normalizer must be a finite number, not {log_normalizer!r}")
    for name in ("clamps", "step"):
        count = getattr(state, name, 0)
        if not is_count(count):
            raise ValueError(f"{name} must be a nonnegative integer, not {count!r}")


def check_state_size(size: int, model: ChainModel) -> None:
    """ValueError unless a state of ``size`` entries has the model's K."""
    if size != model.n_states:
        raise ValueError(f"the state has K={size} entries but the model has "
                         f"K={model.n_states} states")


def given_matrix(matrix, k: int, message: str, valid=lambda m: np.isfinite(m).all()):
    """A (k, k) constant given to a kernel or a state, as a float array;
    ValueError with ``message`` unless it converts to floats, has that shape
    and ``valid`` holds (None fails)."""
    try:
        matrix = np.asarray(matrix, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(message) from None
    if matrix.shape != (k, k) or not valid(matrix):
        raise ValueError(message)
    return matrix


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


# Coefficients b_0..b_13 of the [13/13] Pade approximant to exp, and the largest
# 1-norm at which its backward error stays below double-precision unit
# roundoff (Higham 2005, "The scaling and squaring method for the matrix
# exponential revisited", SIAM J. Matrix Anal. Appl. 26(4), Table 2.3).
PADE_13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
THETA_13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a square matrix by scaling and squaring with the [13/13] Pade
    approximant (Higham 2005): a is scaled by 2^-s so that its 1-norm is at
    most THETA_13, and the approximant is squared s times. A matrix whose
    1-norm is not finite gives an all-NaN result; an overflowing square gives
    inf or NaN entries, as the caller's finite check expects."""
    norm = np.abs(a).sum(axis=0).max()
    if not norm < np.inf:
        return np.full(a.shape, np.nan)
    s = math.ceil(math.log2(norm / THETA_13)) if norm > THETA_13 else 0
    a = np.ldexp(a, -s)
    b = PADE_13
    ident = np.eye(len(a))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def propagator_pair(a_matrix: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """exp(+A t), exp(-A t); raises instead of silently returning inf/nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        forward = expm(a_matrix * t)
        backward = expm(-a_matrix * t)
    if not (np.all(np.isfinite(forward)) and np.all(np.isfinite(backward))):
        raise GammaRangeError("exp(+-A t) overflowed; use the log-domain filter")
    return forward, backward


# ---------------------------------------------------------------------------
# raw updates: the arithmetic of each scheme on a (K,) state or a (K, R) batch


def _row_sums(x: np.ndarray):
    """Sums over the last axis of a (K,) vector, or of a (rows, K) history as a column."""
    return np.add.reduce(x, axis=-1, keepdims=x.ndim > 1)


def normalize(raw: np.ndarray, presum: bool = False):
    """A simplex kernel's raw (K,) or (K, R) update, floored and divided by its
    total over the states, as ``(probs, sum, clamped)``: that total, or with
    ``presum`` the unfloored one, and the count of floored entries (a NaN
    entry is neither floored nor counted)."""
    clamped = int(np.count_nonzero(raw <= 0.0))
    floored = np.maximum(raw, FLOOR) if clamped else raw
    total = np.add.reduce(floored)
    return floored / total, np.add.reduce(raw) if presum else total, clamped


def finish_simplex_step(raw: np.ndarray) -> tuple[np.ndarray, int]:
    """:func:`normalize` of ``raw``: the renormalized vector and the number of
    floored entries."""
    probs, _, clamped = normalize(raw)
    return probs, clamped


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
    return _wonham_raw(probs, generator.T, levels, beta**2, dt, dy, sign_variant == "innovation")


def _wonham_raw(probs, generator_t, levels, beta_sq: float, dt: float, dy, innovation: bool):
    """:func:`wonham_update_raw` with the generator transposed, beta**2 and
    the variant decided by the caller."""
    # in-place form of  probs + dt * drift + gain * (dy - xbar * dt)  (or
    # of  ... + gain * dy + gain * (xbar * dt)), same operations and order
    xbar = np.add.reduce(probs * levels)
    gain = levels - xbar
    gain *= probs
    gain /= beta_sq
    raw = generator_t.dot(probs)
    raw *= dt
    raw += probs
    if innovation:
        gain *= dy - xbar * dt
    else:
        raw += gain * dy
        gain *= xbar * dt
    raw += gain
    return raw


def observation_diagonal(dy: np.ndarray, dt: float, beta_sq: float, levels: np.ndarray):
    """The diagonal  a (dy / dt / beta^2)  of the smooth-noise field of every
    step, (n, K)."""
    rate = dy / dt
    rate /= beta_sq
    return np.multiply.outer(rate, levels)


def _clamp_q(q: float) -> tuple[float, int]:
    if q > 1.0:
        return 1.0, 1
    if q < -1.0:
        return -1.0, 1
    return q, 0


# ---------------------------------------------------------------------------
# kernels


class Kernel:
    """Per-run constants of one scheme; subclasses define step and, where
    they differ from these, start, prepare and probs."""

    scheme = ""
    # whether the sum of a state (probs, sum) is the pre-sum, the total of
    # the raw update before the floor
    carries_presum = False
    # whether ``step`` also takes a states-first (K, R) batch and an (R,) row
    # of inputs, so that :func:`run_steps` runs (n, R) increments
    batches = False

    def __init__(self, model, dt: float, beta: float, correction_sign: int = -1,
                 sign_variant: str = "innovation"):
        check_step(dt, beta)
        check_signs(correction_sign, sign_variant)
        self.model = model
        self.dt = dt
        self.beta = beta
        self.beta_sq = beta**2
        self.half_dt = 0.5 * dt
        self.correction_sign = correction_sign
        self.sign_variant = sign_variant
        self.check_model(model)
        self.generator = model.generator
        self.levels = model.levels

    @staticmethod
    def check_model(model: ChainModel) -> None:
        """Raises ValueError when the scheme cannot filter ``model``."""

    def start(self):
        """The state at t=0: the model's initial law."""
        return np.array(self.model.initial_dist)

    def prepare(self, dy: np.ndarray):
        """The inputs of the steps through ``dy``; here the increments
        themselves, floats for (n,) ``dy`` and (R,) rows for (n, R)."""
        return dy.tolist() if dy.ndim == 1 else dy

    def probs(self, states: np.ndarray, sums) -> tuple[np.ndarray, dict]:
        return states, {}


class _Unnormalized(Kernel):
    """State (psi, L): unit-sum weights psi and the log normalizer L of the
    weights exp(L) psi that they stand for.

    L_r = L_{r-1} + log t_r, t_r the total of step r's raw update; only
    ``probs`` forms it, as one left-to-right ``np.add.accumulate``.
    """

    def start(self):
        return self.model.start_weights, 0.0

    @staticmethod
    def log_normalizer(sums):
        np.log(sums[1:], out=sums[1:])
        return np.add.accumulate(sums, out=sums)

    def probs(self, psi, sums):
        log_weights = np.log(psi)
        log_weights += self.log_normalizer(sums)[:, None]
        psi /= _row_sums(psi)
        return psi, {"log_weights": log_weights}


class ZakaiIto(_Unnormalized):
    scheme = "zakai-ito"

    def step(self, psi, dy):
        """Euler-Maruyama step of  d psi = psi Q dt + psi a dy / beta^2."""
        return psi + self.dt * psi.dot(self.generator) + psi * self.levels * (dy / self.beta_sq)


class ZakaiLangevin(_Unnormalized):
    scheme = "zakai-langevin"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.correction = correction_diagonal(self.levels, self.beta, self.correction_sign)

    def prepare(self, dy):
        """The diagonal  correction + a (dy / dt / beta^2)  of every step, (n, K)."""
        diag = observation_diagonal(dy, self.dt, self.beta_sq, self.levels)
        diag += self.correction
        return diag

    def step(self, psi, diag):
        """Heun step of  psi @ Q + psi * diag(correction + a r / beta^2), r = dy/dt."""
        generator = self.generator
        now = psi.dot(generator) + psi * diag
        predictor = psi + self.dt * now
        return psi + self.half_dt * (now + (predictor.dot(generator) + predictor * diag))


class WonhamIto(Kernel):
    """State (p, presum): probabilities and the pre-renormalization sums of
    the step that produced them (1 at the start).

    p is (K,) for one trajectory or a states-first (K, R) batch, whose step
    takes an (R,) row of increments.
    """

    scheme = "wonham-ito"
    carries_presum = True
    batches = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.levels_column = self.levels[:, None]
        self.generator_t = self.generator.T
        self.innovation = self.sign_variant == "innovation"

    def start(self):
        return super().start(), 1.0

    def step(self, probs, dy):
        levels = self.levels if probs.ndim == 1 else self.levels_column
        return _wonham_raw(probs, self.generator_t, levels, self.beta_sq, self.dt, dy,
                           self.innovation)


class WonhamLangevin(Kernel):
    """Heun step of the smooth-noise normalized filter: the field

        p Q + sign * (1/2) p (a^2 - E a^2) / beta^2 + (a - E a) p (r / beta^2)

    with r = dy/dt; both moments E a, E a^2 come from one (2, K) product and
    one row-sum pass, and the signed correction is added or subtracted."""

    scheme = "wonham-langevin"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        with np.errstate(over="ignore"):
            self.levels_sq = self.levels**2
        self.powers = np.stack([self.levels, self.levels_sq])
        # x + (-1 * c) is x - c exactly, and x + (+1 * c) is x + c
        self.apply_correction = np.subtract if self.correction_sign == -1 else np.add

    def start(self):
        return super().start(), 1.0

    def prepare(self, dy):
        """The scaled rate  dy / dt / beta^2  of every step, as floats."""
        rate = dy / self.dt
        rate /= self.beta_sq
        return rate.tolist()

    def field(self, probs, scaled_rate):
        xbar, second_moment = np.add.reduce(probs * self.powers, axis=1).tolist()
        correction = 0.5 * probs * (self.levels_sq - second_moment) / self.beta_sq
        return (self.apply_correction(probs.dot(self.generator), correction)
                + (self.levels - xbar) * probs * scaled_rate)

    def step(self, probs, scaled_rate):
        now = self.field(probs, scaled_rate)
        predictor = probs + self.dt * now
        return probs + self.half_dt * (now + self.field(predictor, scaled_rate))


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
        self.base_drift = -model.exit_rates + correction_diagonal(
            self.levels, self.beta, self.correction_sign
        )

    def start(self):
        theta = np.log(self.model.start_weights)
        return theta - theta.max()

    def prepare(self, dy):
        """The observation term  a (dy / beta^2)  of every step, (n, K)."""
        return np.multiply.outer(dy / self.beta_sq, self.levels)

    def step(self, theta, observed):
        # coupling_j = sum_{i != j} nu_ij exp(theta_i - theta_j); the shift cancels
        diffs = np.where(self.connected, theta[:, None] - theta, -np.inf)
        coupling = np.einsum("ij,ij->j", self.rates, np.exp(diffs))
        drift = self.base_drift + coupling
        updated = theta + self.dt * drift + observed
        return updated - np.maximum.reduce(updated), 0

    def probs(self, theta, _sums):
        shifted = np.exp(theta - np.maximum.reduce(theta, axis=-1, keepdims=True))
        return shifted / _row_sums(shifted), {"theta": theta}


class Gamma(_Unnormalized):
    """The transform Gamma = exp(-A t) psi, re-based at the start of every
    step, where Gamma = psi: the Heun step of  dGamma/ds = B(s) D F(s) Gamma,
    F(s), B(s) = exp(+-A s), over s in [0, dt], mapped back by F = F(dt),

        psi <- F (psi + dt/2 (D psi + B D F (psi + dt D psi))),

    with D = diag(a r / beta^2), r = dy/dt, normalized by the driver. F and B
    are ``step_forward`` and ``step_backward`` (both or neither, each (K, K)
    and finite, else ValueError), or else come from :func:`propagator_pair`
    of the model's :func:`drift_matrix`, which raises GammaRangeError here
    if they are not finite.
    """

    scheme = "gamma"

    def __init__(self, model, dt, beta, correction_sign=-1, sign_variant="innovation",
                 step_forward=None, step_backward=None):
        super().__init__(model, dt, beta, correction_sign, sign_variant)
        if step_forward is None and step_backward is None:
            step_forward, step_backward = propagator_pair(
                drift_matrix(model, beta, correction_sign), dt
            )
        else:
            k = model.n_states
            message = f"give both step propagators or neither, each a finite ({k}, {k}) matrix"
            step_forward = given_matrix(step_forward, k, message)
            step_backward = given_matrix(step_backward, k, message)
        self.step_forward = step_forward
        self.step_backward = step_backward

    def prepare(self, dy):
        """The diagonal  a (dy / dt / beta^2)  of every step, (n, K); the drift
        correction is inside A."""
        return observation_diagonal(dy, self.dt, self.beta_sq, self.levels)

    def step(self, psi, diag):
        forward = self.step_forward
        now = psi * diag
        predictor = psi + self.dt * now
        after = self.step_backward.dot(diag * forward.dot(predictor))
        return forward.dot(psi + self.half_dt * (now + after))

    def probs(self, psi, sums):
        self.log_normalizer(sums)  # the state's L, written to no column
        return psi / _row_sums(psi), {}


class _Telegraph(Kernel):
    """State q = p_plus - p_minus of the symmetric two-state chain, a float;
    the switching rate nu is the model's."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.minus_two_nu = -2.0 * float(self.model.rates[0, 1])

    @staticmethod
    def check_model(model: ChainModel) -> None:
        """The scalar filter holds for the symmetric chain with levels (1, -1) only."""
        if (
            model.n_states != 2
            or not np.allclose(model.levels, [1.0, -1.0], rtol=0.0, atol=1e-12)
            or abs(model.rates[0, 1] - model.rates[1, 0]) > 1e-12
        ):
            raise ValueError("telegraph schemes require K=2, levels (1, -1) and a symmetric rate")

    def start(self):
        p0 = self.model.initial_dist
        return float(p0[0] - p0[1])

    def probs(self, q, _sums):
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
    exactly over a step, then the observation part alone. A given ``trans``
    must be (K, K) with rows on the simplex (else ValueError)."""

    scheme = "bayes-oracle"

    def __init__(self, model, dt, beta, correction_sign=-1, sign_variant="innovation",
                 trans=None):
        super().__init__(model, dt, beta, correction_sign, sign_variant)
        k = model.n_states
        self.trans = transition_matrix(model, dt) if trans is None else given_matrix(
            trans, k, f"trans must be a ({k}, {k}) matrix with rows on the simplex", on_simplex)
        self.mean_increment = self.levels * dt
        self.two_variance = 2.0 * self.beta_sq * dt

    def prepare(self, dy):
        """The increment log-likelihood  -(dy - a dt)^2 / (2 beta^2 dt)  of every
        step, (n, K)."""
        log_like = np.subtract.outer(dy, self.mean_increment)
        np.square(log_like, out=log_like)
        np.negative(log_like, out=log_like)
        log_like /= self.two_variance
        return log_like

    def step(self, probs, log_like):
        log_post = np.log(probs.dot(self.trans)) + log_like
        log_post -= np.maximum.reduce(log_post)
        post = np.exp(log_post)
        return post / np.add.reduce(post), 0


KERNELS = {
    kernel.scheme: kernel
    for kernel in (
        ZakaiIto, ZakaiLangevin, WonhamIto, WonhamLangevin, LogDomain, Gamma,
        TelegraphIto, TelegraphLangevin, BayesOracle,
    )
}


# ---------------------------------------------------------------------------
# driver


# Rows that a run steps, normalizes, checks and hands on at a time; synthesis
# draws and a table formats this many rows at a time too, so that no array of
# a run grows with its length (512 rows of K=8 floats are 32 kB).
BLOCK_ROWS = 512


@dataclass(eq=False)
class Trajectory:
    """Result of a run: the rows kept, its statistics and its faults.

    ``times`` is the grid r*dt, r = 0..n_steps. ``probs`` holds the normalized
    rows kept: every row for :func:`drive` and :func:`run_history`, the final
    row for :func:`run_steps`, which hands the others to its ``consume``
    block by block. ``extras`` may carry 'log_weights' (rows, K) for the
    Zakai schemes, 'q' (rows,) for telegraph schemes, and 'theta' for the
    log-domain scheme. For (n, R) increments, ``probs`` is (rows, R, K):
    each kept row holds the R replicas' states. ``presum_max_dev`` and
    ``presum_total_dev`` track the pre-renormalization simplex defect of
    Euler steps where that invariant applies. ``nonfinite`` and
    ``off_simplex`` record whether a checked row, extras included, was not
    finite or was off the simplex; :func:`check_run` raises them. ``state``
    starts the rest of the run bit for bit, a batch's (K, R) state and (R,)
    sums included (None for joined replica blocks).
    """

    scheme: str
    dt: float
    n_steps: int
    probs: np.ndarray
    clamps: int = 0
    presum_max_dev: float = 0.0
    presum_total_dev: float = 0.0
    extras: dict = field(default_factory=dict)
    nonfinite: bool = False
    off_simplex: bool = False
    state: object = None

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


# Kernels step with numpy's floating-point warnings off: a state that overflows
# or turns NaN is caught by the checks that follow and raised as a typed error,
# and a zero probability may take log 0 = -inf (bayes-oracle).
QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


def step_once(kernel: Kernel, state, dy):
    """``(state, clamped)`` after one step over the increment ``dy``: the
    :func:`run_steps` run over it, then :func:`raise_faults` of its one row
    (no clamp budget)."""
    run = run_steps(kernel, state, np.array([dy], dtype=float))
    raise_faults(kernel.scheme, run.nonfinite, run.off_simplex, run.presum_max_dev)
    return run.state, run.clamps


def faults(probs: np.ndarray, extras: dict) -> tuple[bool, bool]:
    """Whether ``probs`` or an extra holds a non-finite value, and whether a
    row of ``probs`` is not :func:`on_simplex`."""
    return (not all(np.isfinite(v).all() for v in (probs, *extras.values())),
            not on_simplex(probs))


def raise_faults(scheme: str, nonfinite: bool, off_simplex: bool, presum_max_dev) -> None:
    """The one check of filter states, for a run or for one step: raises
    FilterInstabilityError for the first fault, in this order: a non-finite
    state or extra, a row off the simplex, ``presum_max_dev`` (the largest
    |presum - 1|, wonham-ito) above PRESUM_TOLERANCE or NaN."""
    if nonfinite:
        raise FilterInstabilityError(f"{scheme}: the filter state became non-finite")
    if off_simplex:
        raise FilterInstabilityError(f"{scheme}: probabilities left the simplex")
    if not presum_max_dev <= PRESUM_TOLERANCE:  # NaN fails too
        raise FilterInstabilityError(
            f"{scheme}: step left the simplex (pre-renormalization sum off by "
            f"{float(presum_max_dev)!r}); reduce dt or check the inputs"
        )


def drive(kernel: Kernel, state, dy: np.ndarray) -> Trajectory:
    """Step ``kernel`` from ``state`` through the increments ``dy``, keeping
    every row, then check: :func:`check_run` of :func:`run_history`."""
    return check_run(run_history(kernel, state, dy))


def run_history(kernel: Kernel, state, dy: np.ndarray) -> Trajectory:
    """:func:`run_steps` over the array ``dy``, unchecked, keeping every row
    in one (n+1)-row buffer per array, ``probs`` and each extra."""
    kept = {}

    def keep(lo, _dy, probs, extras):
        for name, rows in (("probs", probs), *extras.items()):
            if name not in kept:
                kept[name] = np.empty((len(dy) + 1, *rows.shape[1:]))
            kept[name][lo:lo + len(rows)] = rows

    run = run_steps(kernel, state, dy, keep)
    return replace(run, probs=kept.pop("probs"), extras=kept)


def block_steps(n_steps: int, rows: int | None = None):
    """The steps (lo, hi) of each block of a run of ``n_steps``: block k
    holds rows k*rows.. (default BLOCK_ROWS), row 0 being the start, and a
    last block of fewer than 4 rows joins the one before. BLAS may round a
    row of a matrix-vector product by its place in a group of 4 rows, and
    otherwise in a product of fewer (OpenBLAS at K >= 8), so a product over
    each block rounds as one over the run when ``rows`` is a multiple of 4.
    """
    rows = BLOCK_ROWS if rows is None else rows
    starts = list(range(0, n_steps + 1, rows))
    if len(starts) > 1 and n_steps + 1 - starts[-1] < 4:
        starts.pop()
    for lo, hi in zip(starts, starts[1:] + [n_steps + 1]):
        yield max(lo - 1, 0), hi - 1


def _checked(kernel: Kernel, blocks):
    """The iterable's ``blocks`` as they come, each (m,) and finite or a ValueError."""
    for block in blocks:
        if np.ndim(block) != 1:
            raise ValueError(f"{kernel.scheme} takes (m,) blocks from an iterable, "
                             f"not {np.shape(block)}")
        check_increments(block)
        yield block


def run_steps(kernel: Kernel, state, dy, consume=None) -> Trajectory:
    """Step ``kernel`` from ``state`` through the increments ``dy``, one
    block of rows (:func:`block_steps`) at a time; unchecked at exit.

    ``dy`` is (n,) for one trajectory; or (n, R) for a batch of R replicas,
    by a kernel that ``batches`` only: a contiguous states-first (K, R)
    array and an (R,) sum row, tiled from a (K,) start before the first step
    or taken as they are from a batch's ``state``, whose rows come back as
    (rows, R, K); or an iterable of (m,) blocks of one trajectory,
    synthesized as the run goes.

    A block of m steps writes rows 1..m of a buffer for the state array
    and, for a state ``(array, sum)``, of one for the sum; row 0 carries the
    start or the previous block's last row and sum as ``probs`` left it (the
    log normalizer of the unnormalized kernels, else the pre-sum or total).
    A simplex kernel's raw update is divided by its total without the floor;
    the block's rows and sums are then checked once, all positive exactly
    when no raw entry was <= 0 or NaN, and a block that fails is stepped
    again from its start through :func:`normalize`.
    ``probs`` normalizes the block's rows, and ``consume(lo, dy, probs,
    extras)`` gets its new rows lo.. as views that the next block overwrites.
    The rows handed on, or without ``consume`` the final row alone, which
    the returned run keeps, are checked (:func:`faults`); faults, clamps and
    pre-sum statistics of the steps are folded for :func:`check_run` to
    raise, and the returned ``state`` is what a next block would start from.

    Raises ValueError before the first step for an array ``dy`` of another
    shape (so (n, R) to a kernel that does not batch), with a non-finite
    increment, or (n, R) with a state that is neither a (K,) start nor
    (K, R) with (R,) sums; before its steps, for an iterable's block that
    is not (m,) or holds a non-finite increment; and for an iterable
    without a block.
    """
    array, total = state if isinstance(state, tuple) else (state, None)
    simplex = total is not None  # the kernel's step returns a raw update
    batch = False
    if isinstance(dy, np.ndarray):
        batch = dy.ndim == 2
        if not (dy.ndim == 1 or batch and kernel.batches):
            shapes = "(n,) or (n, R)" if kernel.batches else "(n,)"
            raise ValueError(f"{kernel.scheme} takes {shapes} increments, not {dy.shape}")
        check_increments(dy)
        rows_per_block = BLOCK_ROWS
        if batch:
            replicas = dy.shape[1]
            if np.ndim(array) == 1 and np.ndim(total) == 0:  # a start: R copies of it
                array = np.repeat(array[:, None], replicas, axis=1)
                total = np.full(replicas, total)
            elif not np.shape(array)[1:] == np.shape(total) == (replicas,):
                raise ValueError(f"{kernel.scheme} takes a (K,) start or a (K, {replicas}) state "
                                 f"with ({replicas},) sums for {dy.shape} increments")
            # a batch's row holds R states: at most CHUNK_VALUES states a block
            rows_per_block = max(1, min(BLOCK_ROWS, CHUNK_VALUES // replicas))
        blocks = (dy[lo:hi] for lo, hi in block_steps(len(dy), rows_per_block))
    else:
        blocks = _checked(kernel, dy)
    step, presum = kernel.step, kernel.carries_presum
    clamps = rows = 0
    nonfinite = off_simplex = False
    presum_max = presum_total = 0.0
    with np.errstate(**QUIET):
        for block in blocks:
            first = 0 if rows == 0 else 1
            # the blocks after the first take up to 4 steps more (block_steps)
            if rows == 0 or len(block) >= size:
                size = len(block) + 5
                states = np.empty((size, *np.shape(array)))
                if simplex:
                    sums = np.empty((size, *np.shape(total)))
            states[0] = array
            if simplex:
                sums[0] = total
            inputs, last, start = kernel.prepare(block), len(block), array
            if simplex:
                for i, row in enumerate(inputs, 1):
                    raw = step(array, row)
                    sums[i] = raw_total = np.add.reduce(raw)
                    array = states[i] = raw / raw_total
                # all positive exactly when no raw entry is <= 0 or NaN
                if not ((states[1:last + 1] > 0).all() and (sums[1:last + 1] > 0).all()):
                    array = start  # the block again, each step floored
                    for i, row in enumerate(inputs, 1):
                        array, raw_total, clamped = normalize(step(array, row), presum)
                        states[i], sums[i] = array, raw_total
                        clamps += clamped
            else:
                for i, row in enumerate(inputs, 1):
                    array, clamped = step(array, row)
                    states[i] = array
                    clamps += clamped
            if presum:
                # |presum - 1| of the block's steps, the running total in row
                # 0, summed left to right: np.add.reduce adds the rows of an
                # (m, R) array in order for R >= 2 but sums a column pairwise
                devs = sums[:last + 1] - 1.0
                np.abs(devs, out=devs)
                presum_max = devs[1:].max(initial=presum_max)
                devs[0] = presum_total
                presum_total = (np.add.reduce(devs) if devs[0].size > 1
                                else np.add.accumulate(devs, out=devs)[last])
            probs, extras = kernel.probs(states[:last + 1], sums[:last + 1] if simplex else None)
            if simplex:  # the one carried sum, as ``probs`` left it
                total = sums[last]
            if batch:
                probs = probs.transpose(0, 2, 1)
            if consume is not None:
                probs_on, extras_on = probs[first:], {k: v[first:] for k, v in extras.items()}
                block_nonfinite, block_off_simplex = faults(probs_on, extras_on)
                nonfinite |= block_nonfinite
                off_simplex |= block_off_simplex
                consume(rows, block, probs_on, extras_on)
            rows += last + 1 - first
    if rows == 0:
        raise ValueError(f"{kernel.scheme} takes at least one block of increments")
    probs = np.array(probs[-1:], order="C")
    extras = {name: np.array(v[-1:], order="C") for name, v in extras.items()}
    if consume is None:
        nonfinite, off_simplex = faults(probs, extras)
    state = (array, total) if simplex else array
    return Trajectory(kernel.scheme, kernel.dt, rows - 1, probs, clamps, float(presum_max),
                      float(np.max(presum_total)), extras, nonfinite, off_simplex, state)


def check_run(*runs: Trajectory) -> Trajectory:
    """The exit checks of a run, and the run once they pass. The final-row
    runs of replica blocks are first joined into one batch: probs and extras
    along replica axis 1, clamps summed, pre-sum statistics maxed, faults
    joined. Then :func:`raise_faults` (the pre-sum guard on
    ``presum_max_dev``) and the clamp budget, which raises
    FilterInstabilityError when over CLAMP_FAILURE_FRACTION of replica-steps
    clamp."""
    run = runs[0]
    if len(runs) > 1:
        run = replace(run, probs=np.concatenate([r.probs for r in runs], axis=1),
                      clamps=sum(r.clamps for r in runs),
                      presum_max_dev=float(np.max([r.presum_max_dev for r in runs])),
                      presum_total_dev=float(np.max([r.presum_total_dev for r in runs])),
                      extras={name: np.concatenate([r.extras[name] for r in runs], axis=1)
                              for name in run.extras},
                      nonfinite=any(r.nonfinite for r in runs),
                      off_simplex=any(r.off_simplex for r in runs), state=None)
    raise_faults(run.scheme, run.nonfinite, run.off_simplex, run.presum_max_dev)
    replica_steps = run.n_steps * (run.probs[0].size // run.probs.shape[-1])
    if run.clamps > CLAMP_FAILURE_FRACTION * replica_steps:
        raise FilterInstabilityError(
            f"{run.scheme}: {run.clamps} clamp events over {replica_steps} steps exceeds the "
            f"{CLAMP_FAILURE_FRACTION:.1%} budget; decrease dt"
        )
    return run
