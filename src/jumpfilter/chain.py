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
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "ChainModel",
    "JumpPath",
    "ReducibleChainError",
    "telegraph_model",
    "transition_matrix",
    "simulate_jump_path",
    "state_at",
    "integrate_level",
    "step_level_integrals",
    "add_path_integrals",
    "check_jump_budget",
    "stationary_distribution",
    "model_from_json",
    "model_to_json",
]

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
    violated invariant: finite levels, finite nonnegative rates, and a finite
    initial law in [0, 1] summing to 1 within 1e-12.
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


def transition_matrix(model: ChainModel, h: float) -> np.ndarray:
    """Transition probabilities over horizon ``h``: exp(h Q) by uniformization.

    The series  exp(hQ) = sum_m  Pois(lam*h, m) * S^m  with S = I + Q/lam and
    lam = max exit rate is truncated once the accumulated Poisson mass reaches
    1 - 1e-13. Every term is entrywise nonnegative and row-stochastic, so the
    result is a probability matrix by construction. ValueError unless ``h``
    is finite and nonnegative.
    """
    if not 0 <= h < math.inf:
        raise ValueError(f"horizon must be finite and nonnegative, not {h!r}")
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


def add_path_integrals(model: ChainModel, horizon: float, dt: float, rng: np.random.Generator,
                       stream_states, out: np.ndarray) -> np.ndarray:
    """Draw one path per stream and add its per-step level integrals to ``out``.

    Row r of ``out`` (R, n) gets :func:`step_level_integrals` of the path that
    :func:`simulate_jump_path` draws from ``rng`` once its
    ``bit_generator.state`` is set to ``stream_states[r]``. No JumpPath is
    built: the R paths are checked together, as JumpPath checks one. Returns
    the state each path ends in, shape (R,).
    """
    n_steps = out.shape[1]
    levels = model.levels
    bit_generator = rng.bit_generator
    visited, all_times = [], []
    n_jumps = np.empty(len(out), dtype=np.intp)
    final = np.empty(len(out), dtype=np.intp)
    for r, row in enumerate(out):
        bit_generator.state = stream_states[r]
        initial, times, states = _draw_jumps(model, horizon, rng)
        seq = [initial, *states]
        row += _step_integrals(levels[seq], np.array(times, dtype=float), horizon, dt, n_steps)
        visited += seq
        all_times += times
        n_jumps[r] = len(times)
        final[r] = seq[-1]
    _check_paths(np.array(visited, dtype=np.intp), np.array(all_times, dtype=float), n_jumps,
                 horizon)
    return final


def state_at(path: JumpPath, t: float) -> int:
    """State index at time ``t`` (right-continuous lookup)."""
    if not 0.0 <= t <= path.horizon:
        raise ValueError(f"time {t} outside [0, {path.horizon}]")
    idx = int(np.searchsorted(path.jump_times, t, side="right"))
    return int(path.states_visited[idx])


def _cumulative_level(seg_levels: np.ndarray, jump_times: np.ndarray, horizon: float,
                      times: np.ndarray) -> np.ndarray:
    """Exact values of  t -> integral_0^t a_{x(s)} ds  at the given times, for
    the path with levels ``seg_levels`` between its ``jump_times``."""
    edges = np.concatenate(([0.0], jump_times, [horizon]))
    knots = edges[:-1]
    cum_at_knots = np.concatenate(([0.0], (seg_levels * (edges[1:] - knots)).cumsum()))
    idx = jump_times.searchsorted(times, side="right")
    return cum_at_knots[idx] + seg_levels[idx] * (times - knots[idx])


def integrate_level(path: JumpPath, model: ChainModel, t0: float, t1: float) -> float:
    """Exact integral of the signal level over [t0, t1] (no quadrature error)."""
    if not 0.0 <= t0 <= t1 <= path.horizon:
        raise ValueError(f"bad interval [{t0}, {t1}] for horizon {path.horizon}")
    vals = _cumulative_level(model.levels[path.states_visited], path.jump_times, path.horizon,
                             np.array([t0, t1]))
    return float(vals[1] - vals[0])


def step_level_integrals(path: JumpPath, model: ChainModel, dt: float, n_steps: int) -> np.ndarray:
    """Exact per-step signal integrals over the uniform grid r*dt, r=0..n."""
    return _step_integrals(model.levels[path.states_visited], path.jump_times, path.horizon,
                           dt, n_steps)


def _step_integrals(seg_levels, jump_times, horizon, dt, n_steps) -> np.ndarray:
    cum = _cumulative_level(seg_levels, jump_times, horizon, _uniform_grid(n_steps, dt, horizon))
    return cum[1:] - cum[:-1]


@lru_cache(maxsize=16)
def _uniform_grid(n_steps: int, dt: float, horizon: float) -> np.ndarray:
    """Read-only grid r*dt, r=0..n, its end capped at ``horizon``."""
    grid = np.arange(n_steps + 1) * dt
    grid[-1] = min(grid[-1], horizon)  # guard against rounding past the end
    grid.setflags(write=False)
    return grid


def stationary_distribution(model: ChainModel) -> np.ndarray:
    """Unique probability vector pi with pi^T Q = 0 (requires irreducibility)."""
    k = model.n_states
    if k == 1:
        return np.array([1.0])
    # imported here: scipy.sparse takes ~0.3 s to load and only this check needs it
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    adjacency = csr_matrix((model.rates > 0).astype(np.int8))
    n_comp, labels = connected_components(adjacency, directed=True, connection="strong")
    if n_comp > 1:
        blocks = [tuple(np.flatnonzero(labels == c)) for c in range(n_comp)]
        raise ReducibleChainError(
            f"chain is reducible; strongly connected blocks: {blocks}"
        )
    q = model.generator
    system = np.vstack([q.T, np.ones(k)])
    rhs = np.zeros(k + 1)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    residual = float(np.abs(pi @ q).max())
    if residual > 1e-10:
        raise RuntimeError(f"stationary solve residual {residual:.3e} exceeds 1e-10")
    return np.clip(pi, 0.0, None) / np.clip(pi, 0.0, None).sum()


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
        if not all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in entries):
            raise ValueError(f"model key {key!r} must be a number or nested lists of numbers, "
                             "not bools, strings, nulls or objects")
    return ChainModel(**arrays)


def model_to_json(model: ChainModel) -> dict:
    """Inverse of :func:`model_from_json` (diagonal rates emitted as 0)."""
    return {key: getattr(model, name).tolist() for key, name in MODEL_FIELDS.items()}
