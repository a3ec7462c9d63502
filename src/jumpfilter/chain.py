"""Finite-state Markov jump process: model, transition semigroup, exact path
simulation, and stationary behavior.

A model is a set of signal levels ``a_1..a_K``, a matrix of jump rates
``rates[i, j]`` (intensity of i -> j transitions, diagonal ignored), and an
initial distribution. Exit rates are always recomputed from the off-diagonal
rates, never stored independently.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .seeding import stream

__all__ = [
    "FLOOR",
    "ChainModel",
    "JumpPath",
    "ReducibleChainError",
    "telegraph_model",
    "transition_matrix",
    "simulate_jump_path",
    "step_level_integrals",
    "path_segments",
    "segment_integrals",
    "add_path_integrals",
    "check_horizon",
    "check_jump_budget",
    "is_count",
    "is_real",
    "stationary_distribution",
    "model_from_json",
    "model_to_json",
]

# Floor for nonpositive weights and probabilities after an Euler step and for
# zero start weights; keeps the log-domain filter total and aligns clamp
# statistics across schemes.
FLOOR = 1e-300

# Poisson tail mass dropped when truncating the uniformization series.
UNIFORMIZATION_TAIL = 1e-13

# Most jumps a simulated path may expect, horizon * max exit rate. Its jump
# lists then stay well under 100 MB, and the holding times stay far above one
# ulp of the horizon, below which the path's time would stop advancing.
JUMP_BUDGET = 1e6

# Most steps a grid may have, horizon / dt. Each per-step float array of
# such a grid fits in 80 MB, where a dt far too small would ask numpy for
# terabytes. The tests and benchmarks use at most 1e5 steps.
STEP_BUDGET = 1e7

# model document key -> ChainModel field; every key is required
MODEL_FIELDS = {"levels": "levels", "rates": "rates", "initial": "initial_dist"}


class ReducibleChainError(ValueError):
    """The jump chain is not irreducible (raised where uniqueness is needed)."""


@dataclass(frozen=True, eq=False)
class ChainModel:
    """Markov jump process with signal levels attached to its states.

    Attributes:
        levels: signal value of each state, shape (K,). Duplicates allowed;
            states are identified by index.
        rates: off-diagonal jump intensities, shape (K, K). The diagonal is
            zeroed on construction.
        initial_dist: distribution of the state at time 0, shape (K,).

    Construction raises ValueError("invalid model: ...") naming every
    violated invariant: finite levels, finite nonnegative rates, finite exit
    rates (row sums of the rates), and a finite initial law in [0, 1]
    summing to 1 within 1e-12. A zero initial probability warns once, here,
    as :attr:`start_weights` floors it.
    """

    levels: np.ndarray
    rates: np.ndarray
    initial_dist: np.ndarray

    def __post_init__(self):
        levels = np.atleast_1d(np.array(self.levels, dtype=float))
        rates = np.array(self.rates, dtype=float)
        initial = np.atleast_1d(np.array(self.initial_dist, dtype=float))
        k = levels.shape[0]
        if levels.ndim != 1 or k < 1:
            raise ValueError("levels must be a nonempty 1-d array")
        if rates.shape != (k, k):
            raise ValueError(f"rates must have shape ({k}, {k}), got {rates.shape}")
        if initial.shape != (k,):
            raise ValueError(f"initial_dist must have shape ({k},), got {initial.shape}")
        np.fill_diagonal(rates, 0.0)
        violations = []
        if not np.all(np.isfinite(levels)):
            violations.append("nonfinite level")
        if not np.all(np.isfinite(rates)):
            violations.append("nonfinite rate")
        elif np.any(rates < 0):
            violations.append("negative rate")
        else:
            with np.errstate(over="ignore"):  # finite rates may sum past the float range
                if not np.isfinite(rates.sum(axis=1)).all():
                    violations.append("nonfinite exit rate")
        if not np.all(np.isfinite(initial)):
            violations.append("nonfinite initial probability")
        else:
            if np.any(initial < 0) or np.any(initial > 1):
                violations.append("initial probability outside [0, 1]")
            if abs(initial.sum() - 1.0) > 1e-12:
                violations.append("initial distribution does not sum to 1")
        if violations:
            raise ValueError(f"invalid model: {', '.join(violations)}")
        for name, arr in (("levels", levels), ("rates", rates), ("initial_dist", initial)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if np.any(initial <= 0):
            warnings.warn("zero initial probabilities floored to 1e-300 so every state stays "
                          "representable (unnormalized and log-domain schemes)", stacklevel=3)

    @cached_property
    def start_weights(self) -> np.ndarray:
        """The unnormalized weights the unnormalized and log-domain schemes
        start from, read-only: the initial law, its zeros floored to FLOOR."""
        if not np.any(self.initial_dist <= 0):
            return self.initial_dist
        weights = np.maximum(self.initial_dist, FLOOR)
        weights.setflags(write=False)
        return weights

    @property
    def n_states(self) -> int:
        return self.levels.shape[0]

    @property
    def exit_rates(self) -> np.ndarray:
        """Total jump intensity out of each state (derived, not stored)."""
        return self.rates.sum(axis=1)

    @cached_property
    def max_exit_rate(self) -> float:
        return float(self.exit_rates.max(initial=0.0))

    @property
    def generator(self) -> np.ndarray:
        """Rate matrix Q with off-diagonals ``rates[i, j]`` and diagonal -exit_rates."""
        q = self.rates.copy()
        q[np.diag_indices(self.n_states)] = -self.exit_rates
        return q

    @cached_property
    def sampling_tables(self) -> tuple[list, list]:
        """Tables of :func:`simulate_jump_path`, built on first use.

        Returns the CDF of the initial law and, per state, None when the state
        is absorbing, else (1 / exit rate, CDF of the jump destination).
        """
        exits = []
        for rates, exit_rate in zip(self.rates, self.exit_rates):
            if exit_rate <= 0.0:
                exits.append(None)
            else:
                exits.append((float(1.0 / exit_rate), _choice_cdf(rates / exit_rate)))
        return _choice_cdf(self.initial_dist), exits


def _choice_cdf(p: np.ndarray) -> list:
    """The CDF that ``Generator.choice(len(p), p=p)`` searches, as a list.

    Draws ``bisect_right(cdf, rng.random())`` then equal the draws of
    ``rng.choice(len(p), p=p)`` and consume the same random numbers; p is
    checked as ``choice`` checks it.
    """
    if not np.all(p >= 0):
        raise ValueError("probabilities are not non-negative")
    if abs(math.fsum(p) - 1.0) > math.sqrt(np.finfo(np.float64).eps):
        raise ValueError("probabilities do not sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def telegraph_model(nu: float, initial_dist=(0.5, 0.5)) -> ChainModel:
    """Symmetric two-state chain with levels (+1, -1) and switching rate ``nu``."""
    return ChainModel(
        levels=np.array([1.0, -1.0]),
        rates=np.array([[0.0, nu], [nu, 0.0]]),
        initial_dist=np.asarray(initial_dist, dtype=float),
    )


def is_real(value) -> bool:
    """Whether ``value`` is a real number (numpy's too), not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_count(value) -> bool:
    """Whether ``value`` is a nonnegative integer (numpy's too), not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 0


def check_horizon(h: float) -> None:
    """The one check of a lookahead horizon: ValueError unless ``h`` is a
    finite and nonnegative real number."""
    if not (is_real(h) and 0 <= h < math.inf):
        raise ValueError(f"horizon must be finite and nonnegative, not {h!r}")


def transition_matrix(model: ChainModel, h: float) -> np.ndarray:
    """Transition probabilities over horizon ``h``: exp(h Q) by uniformization.

    The series  exp(hQ) = sum_m  Pois(lam*h, m) * S^m  with S = I + Q/lam and
    lam = max exit rate is truncated once the accumulated Poisson mass reaches
    1 - 1e-13. Every term is entrywise nonnegative and row-stochastic, so the
    result is a probability matrix by construction. ValueError unless ``h``
    is finite and nonnegative.
    """
    check_horizon(h)
    k = model.n_states
    lam = model.max_exit_rate
    # keep the series short: halve h until mu <= 400, then square back,
    # renormalizing the rows after each squaring, or their sums' defect
    # (1e-13 from the series, then rounding) would double every time
    squarings = 0
    while lam * h > 400.0:
        h /= 2.0
        squarings += 1
    mu = lam * h
    if mu == 0.0:
        return np.eye(k)
    stoch = np.eye(k) + model.generator / lam
    weight = np.exp(-mu)
    total = weight
    power = np.eye(k)
    out = weight * power
    m = 0
    while total < 1.0 - UNIFORMIZATION_TAIL:
        m += 1
        power = power @ stoch
        weight *= mu / m
        out += weight * power
        total += weight
    for _ in range(squarings):
        out = out @ out
        out /= out.sum(axis=1, keepdims=True)
    return out


@dataclass(frozen=True, eq=False)
class JumpPath:
    """Piecewise-constant realized trajectory: right-continuous in time.

    ``jump_times`` are strictly increasing in (0, horizon]; ``jump_states[k]``
    is the state entered at ``jump_times[k]``. At a jump instant the path
    already equals the post-jump state.
    """

    initial_state: int
    jump_times: np.ndarray
    jump_states: np.ndarray
    horizon: float

    def __post_init__(self):
        times = np.array(self.jump_times, dtype=float)
        states = np.array(self.jump_states, dtype=np.intp)
        if times.shape != states.shape or times.ndim != 1:
            raise ValueError("jump_times and jump_states must be 1-d and aligned")
        seq = np.concatenate(([self.initial_state], states))
        _check_paths(seq, times, np.array([times.size]), self.horizon)
        times.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "jump_times", times)
        object.__setattr__(self, "jump_states", states)
        object.__setattr__(self, "states_visited", seq)
        self.states_visited.setflags(write=False)

    @property
    def n_jumps(self) -> int:
        return self.jump_times.shape[0]

    def states_at(self, times) -> np.ndarray:
        """The state the path holds at each of ``times``: at a jump instant,
        the state it enters."""
        return self.states_visited[self.jump_times.searchsorted(times, side="right")]


def _check_paths(states_visited: np.ndarray, jump_times: np.ndarray, n_jumps: np.ndarray,
                 horizon: float) -> None:
    """Raises ValueError unless each of a batch of paths is a valid JumpPath.

    The batch is flat: ``states_visited`` and ``jump_times`` concatenate the
    paths' visited states (initial state first) and jump times, and
    ``n_jumps`` holds each path's number of jumps.
    """
    if jump_times.size and not (jump_times.min() > 0 and jump_times.max() <= horizon):
        raise ValueError("jump times must lie in (0, horizon]")
    owner = np.repeat(np.arange(n_jumps.size), n_jumps)
    if (jump_times[1:] <= jump_times[:-1])[owner[1:] == owner[:-1]].any():
        raise ValueError("jump times must be strictly increasing")
    owner = np.repeat(np.arange(n_jumps.size), n_jumps + 1)
    if (states_visited[1:] == states_visited[:-1])[owner[1:] == owner[:-1]].any():
        raise ValueError("consecutive states must differ")


def simulate_jump_path(model: ChainModel, horizon: float, rng: np.random.Generator) -> JumpPath:
    """Exact simulation: exponential holding times, embedded-chain jumps.

    Deterministic given ``rng``; an absorbing state (exit rate 0) ends the
    jump sequence. Each state is drawn by inverse CDF from one uniform and
    each holding time is a scaled standard exponential, which is how
    ``rng.choice(k, p=...)`` and ``rng.exponential(1 / rate)`` draw them: the
    path and the numbers consumed equal theirs.
    """
    initial, times, states = _draw_jumps(model, horizon, rng)
    return JumpPath(
        initial_state=initial,
        jump_times=times,
        jump_states=states,
        horizon=float(horizon),
    )


def check_jump_budget(model: ChainModel, horizon: float) -> None:
    """ValueError unless ``horizon`` is positive and a path over it expects at
    most :data:`JUMP_BUDGET` jumps."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if not horizon * model.max_exit_rate <= JUMP_BUDGET:
        raise ValueError(f"horizon * max exit rate = {horizon * model.max_exit_rate:.3g} "
                         f"expected jumps, above the budget of {JUMP_BUDGET:.0e}")


def _draw_jumps(model: ChainModel, horizon: float, rng: np.random.Generator):
    """The draws of :func:`simulate_jump_path`: (initial state, jump times, jump states)."""
    check_jump_budget(model, horizon)
    initial_cdf, exits = model.sampling_tables
    uniform, exponential = rng.random, rng.standard_exponential
    state = initial = bisect_right(initial_cdf, uniform())
    times, states = [], []
    t = 0.0
    while (row := exits[state]) is not None:
        scale, cdf = row
        t += scale * exponential()
        if t > horizon:
            break
        state = bisect_right(cdf, uniform())
        times.append(t)
        states.append(state)
    return initial, times, states


def add_path_integrals(model: ChainModel, horizon: float, dt: float, seed_words: np.ndarray,
                       out: np.ndarray) -> np.ndarray:
    """Draw one path per stream and add its per-step level integrals to ``out``.

    Row r of ``out`` (R, n) gets :func:`step_level_integrals` of the path that
    :func:`simulate_jump_path` draws from ``seeding.stream(seed_words[r])``,
    bit for bit. No JumpPath is built: the R paths are checked together, as
    JumpPath checks one, and their integrals are computed together, in chunks
    of rows (see :func:`_add_step_integrals`). Returns the state each path
    ends in, shape (R,).
    """
    visited, all_times = [], []
    n_jumps = np.empty(len(out), dtype=np.intp)
    for r in range(len(out)):
        initial, times, states = _draw_jumps(model, horizon, stream(seed_words[r]))
        visited.append(initial)
        visited += states
        all_times += times
        n_jumps[r] = len(times)
    visited = np.array(visited, dtype=np.intp)
    all_times = np.array(all_times, dtype=float)
    _check_paths(visited, all_times, n_jumps, horizon)
    seg_levels = model.levels[visited]
    _add_step_integrals(seg_levels, *_segment_table(seg_levels, all_times, n_jumps),
                        n_jumps + 1, _uniform_grid(out.shape[1], dt, horizon), out)
    return visited[np.cumsum(n_jumps + 1) - 1]


# Values per temporary array of :func:`_segment_table` and
# :func:`_add_step_integrals`: 32 rows of a 1000-step grid, 256 kB, so the
# few temporaries of a chunk stay under 1 MB. A block of a replica batch
# (:func:`jumpfilter.kernels.run_steps`) takes CHUNK_VALUES // R rows, so
# its state buffer holds rows x R x K floats, 256 kB times K.
CHUNK_VALUES = 1 << 15


def _segment_table(seg_levels: np.ndarray, jump_times: np.ndarray,
                   n_jumps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The knot (start time) of each segment of R paths given flat, path
    after path (``seg_levels`` holds the level of each of a path's
    ``n_jumps[r] + 1`` segments, ``jump_times`` its jump times), and c_j, the
    integral of its path up to the knot: the areas of the path's segments
    before j summed left to right, by ``cumsum`` along axis 1 of a
    zero-padded (rows, most jumps) array, ``CHUNK_VALUES`` values at a time.
    """
    paths, segments = len(n_jumps), len(seg_levels)
    # path r's segments are edges[r]:edges[r + 1], its jumps edges[r] - r:edges[r + 1] - r - 1
    edges = np.concatenate(([0], np.cumsum(n_jumps + 1)))
    inner = np.ones(segments, dtype=bool)  # the segments that start at a jump
    inner[edges[:-1]] = False
    inner_at = np.flatnonzero(inner)
    knots = np.zeros(segments)
    knots[inner] = jump_times
    ends = np.roll(inner, -1)  # the segments that end at a jump
    areas = seg_levels[ends] * (jump_times - knots[ends])
    cum_at_knots = np.zeros(segments)
    rows = max(1, CHUNK_VALUES // max(1, int(n_jumps.max(initial=0))))
    for lo in range(0, paths, rows):
        hi = min(lo + rows, paths)
        jumps = slice(edges[lo] - lo, edges[hi] - hi)
        padded = np.arange(n_jumps[lo:hi].max(initial=0)) < n_jumps[lo:hi, None]
        summed = np.zeros(padded.shape)
        summed[padded] = areas[jumps]
        cum_at_knots[inner_at[jumps]] = summed.cumsum(axis=1)[padded]
    return knots, cum_at_knots


def _add_step_integrals(seg_levels: np.ndarray, knots: np.ndarray, cum_at_knots: np.ndarray,
                        n_segments: np.ndarray, grid: np.ndarray, out: np.ndarray) -> None:
    """Add to row r of ``out`` (R, grid.size - 1) the per-step level
    integrals over ``grid``, points of a uniform grid, of path r; the one
    integral routine of the CLI's trajectories (one path, a block at a time,
    :func:`segment_integrals`) and the tower check's replicas.

    The segments are given flat, ``n_segments[r]`` of path r, by level, knot
    and c_j (:func:`_segment_table`), a path's first at or before grid[0].
    The integral at grid time g in segment j is c_j + a_j (g - knot_j), and
    segment j covers the points from ``grid.searchsorted(knot_j, "left")``
    on, so c_j, a_j and knot_j are repeated over that run of points. Rows are
    done ``CHUNK_VALUES // grid.size`` at a time.
    """
    paths = len(n_segments)
    edges = np.concatenate(([0], np.cumsum(n_segments)))
    # each segment's run of grid points, as offsets into the flattened rows
    bounds = np.empty(len(knots) + 1, dtype=np.intp)
    bounds[:-1] = np.repeat(np.arange(paths) * grid.size, n_segments)
    bounds[:-1] += grid.searchsorted(knots, side="left")
    bounds[-1] = paths * grid.size
    runs = bounds[1:] - bounds[:-1]
    rows = max(1, CHUNK_VALUES // grid.size)
    for lo in range(0, paths, rows):
        hi = min(lo + rows, paths)
        chunk = slice(edges[lo], edges[hi])
        cum = np.repeat(knots[chunk], runs[chunk]).reshape(hi - lo, grid.size)
        np.subtract(grid, cum, out=cum)
        cum *= np.repeat(seg_levels[chunk], runs[chunk]).reshape(cum.shape)
        cum += np.repeat(cum_at_knots[chunk], runs[chunk]).reshape(cum.shape)
        out[lo:hi] += np.subtract(cum[:, 1:], cum[:, :-1])


def path_segments(path: JumpPath, model: ChainModel) -> tuple:
    """The level, knot and c_j of each segment of ``path``
    (:func:`_segment_table`), for :func:`segment_integrals`."""
    seg_levels = model.levels[path.states_visited]
    return (seg_levels,
            *_segment_table(seg_levels, path.jump_times, np.array([path.n_jumps])))


def segment_integrals(segments: tuple, grid: np.ndarray) -> np.ndarray:
    """The per-step level integrals over ``grid``, points of the uniform
    grid, of the path of :func:`path_segments`, from the segments that meet
    the grid only, so that a run synthesized in blocks costs O(n + jumps)."""
    seg_levels, knots, cum_at_knots = segments
    first = knots.searchsorted(grid[0], side="right") - 1
    stop = knots.searchsorted(grid[-1], side="right")
    out = np.zeros((1, grid.size - 1))
    _add_step_integrals(seg_levels[first:stop], knots[first:stop], cum_at_knots[first:stop],
                        np.array([stop - first]), grid, out)
    return out[0]


def step_level_integrals(path: JumpPath, model: ChainModel, dt: float, n_steps: int) -> np.ndarray:
    """Exact per-step signal integrals over the uniform grid r*dt, r=0..n:
    :func:`segment_integrals` of the one path over the whole grid."""
    return segment_integrals(path_segments(path, model), _uniform_grid(n_steps, dt, path.horizon))


def _uniform_grid(n_steps: int, dt: float, horizon: float, lo: int = 0,
                  hi: int | None = None) -> np.ndarray:
    """The points r*dt, r = lo..hi (default 0..n), of the grid r*dt, r=0..n,
    whose end is capped at ``horizon``."""
    hi = n_steps if hi is None else hi
    grid = np.arange(lo, hi + 1) * dt
    if hi == n_steps:
        grid[-1] = min(grid[-1], horizon)  # guard against rounding past the end
    return grid


def stationary_distribution(model: ChainModel) -> np.ndarray:
    """Unique probability vector pi with pi^T Q = 0 (requires irreducibility)."""
    k = model.n_states
    if k == 1:
        return np.array([1.0])
    # reach[i, j]: state j can be reached from i; each squaring doubles the
    # path length covered, and k - 1 jumps reach every reachable state
    reach = np.eye(k, dtype=bool) | (model.rates > 0)
    for _ in range((k - 1).bit_length()):
        reach = reach @ reach
    mutual = reach & reach.T
    if not mutual.all():
        # each row of ``mutual`` is its state's block; list them by smallest state
        blocks = sorted({tuple(np.flatnonzero(row).tolist()) for row in mutual})
        raise ReducibleChainError(f"chain is reducible; strongly connected blocks: {blocks}")
    q = model.generator
    system = np.vstack([q.T, np.ones(k)])
    rhs = np.zeros(k + 1)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    residual = float(np.abs(pi @ q).max())
    if residual > 1e-10:
        raise RuntimeError(f"stationary solve residual {residual:.3e} exceeds 1e-10")
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def json_object(source: str | dict, what: str) -> dict:
    """JSON text or its parsed value as a dict; ValueError unless a JSON object."""
    try:
        doc = json.loads(source) if isinstance(source, str) else source
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply to parse") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(doc).__name__}")
    return doc


def json_fields(source: str | dict, what: str, fields: dict, required) -> dict:
    """The JSON object ``source`` with its keys mapped through the key table
    ``fields``; ValueError naming any unknown key, or any ``required`` key
    that is missing."""
    doc = json_object(source, f"a {what}")
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}; known keys are {tuple(fields)}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ValueError(f"missing {what} keys {missing}")
    return {fields[key]: value for key, value in doc.items()}


def model_from_json(source: str | dict) -> ChainModel:
    """Load a model from the JSON document {"levels":[...], "rates":[[...]], "initial":[...]}."""
    values = json_fields(source, "model", MODEL_FIELDS, MODEL_FIELDS)
    arrays = {}
    for key, name in MODEL_FIELDS.items():
        try:
            arrays[name] = np.asarray(values[name], dtype=float)
            entries = np.asarray(values[name], dtype=object).flat
        except (TypeError, ValueError, OverflowError):
            entries = [None]
        if not all(is_real(x) for x in entries):
            raise ValueError(f"model key {key!r} must be a number or nested lists of numbers, "
                             "not bools, strings, nulls or objects")
    return ChainModel(**arrays)


def model_to_json(model: ChainModel) -> dict:
    """Inverse of :func:`model_from_json` (diagonal rates emitted as 0)."""
    return {key: getattr(model, name).tolist() for key, name in MODEL_FIELDS.items()}
