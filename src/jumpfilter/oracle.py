"""Independent ground-truth computations for validating the SDE filters.

Two oracles, both built without the stochastic difference schemes they check:

* a discrete-time Bayes forward filter whose prediction step uses the exact
  transition matrix over one grid step and whose correction step uses the
  Gaussian increment likelihood with within-step transitions ignored, and
* a small-scale path-space enumeration of the unnormalized weights

      psi_j(T) = sum_i p_i(0) * sum_m  integral over m-jump paths i -> j of
                 (path density) * exp(-1/(2 beta^2) int x~^2 ds
                                      + 1/beta^2 int x~ dy)

  with the jump-time integrals done by tensor-product Gauss-Legendre
  quadrature over the ordered simplex, and int x~ dy evaluated exactly
  against the stored piecewise increments.

Plus a Monte Carlo check of the defining property of conditional probability:
averaged over independent replicas, the filter output must match the
unconditional law, and its mean-square error must beat the best constant.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import product

import numpy as np

from .chain import STEP_BUDGET, ChainModel, add_path_integrals, transition_matrix
from .fanout import fan_out, fork_workers
from .kernels import (BayesOracle, WonhamIto, check_probability_vector, check_run, check_scalars,
                      check_state_size, is_count, run_steps, step_once)
from .seeding import ROLE_JUMP, ROLE_NOISE, _seed_words_class, derive_states, stream
from .signalpath import ObservationGrid, _step_count, cumulative_observation

# Not called here; benchmark/tracing.py wraps these names as attributes of
# this module, so they stay bound.
from .chain import simulate_jump_path, step_level_integrals  # noqa: F401
from .seeding import derive_rng  # noqa: F401
from .kernels import finish_simplex_step, wonham_update_raw  # noqa: F401

__all__ = [
    "DiscreteBayesState",
    "PathspaceResult",
    "TowerReport",
    "bayes_forward_step",
    "pathspace_expectation",
    "tower_property_check",
]


@dataclass(frozen=True, eq=False)
class DiscreteBayesState:
    """Posterior of the discrete Bayes forward filter after ``step`` updates."""

    probs: np.ndarray
    step: int = 0

    def __post_init__(self):
        object.__setattr__(self, "probs", check_probability_vector(self.probs))
        check_scalars(self)


def bayes_forward_step(
    state: DiscreteBayesState,
    model: ChainModel,
    dt: float,
    dy: float,
    beta: float,
    trans: np.ndarray | None = None,
) -> DiscreteBayesState:
    """One predict-correct cycle of the discrete Bayes filter, the Lie-Trotter
    splitting-up scheme (Le Gland 1992; Bensoussan, Glowinski & Rascanu 1990).

    Predict with the exact one-step transition matrix (all transitions
    counted), then weight state j by the Gaussian likelihood of the increment,
    exp(-(dy - a_j dt)^2 / (2 beta^2 dt)), which ignores within-step
    transitions. Normalization is done in log space with a max shift.

    ``trans`` may carry a precomputed transition matrix for this dt.
    """
    check_state_size(len(state.probs), model)
    probs, _ = step_once(BayesOracle(model, dt, beta, trans=trans), state.probs, dy)
    return DiscreteBayesState(probs=probs, step=state.step + 1)


@dataclass(frozen=True, eq=False)
class PathspaceResult:
    """Normalized path-space estimate with its de facto error budget."""

    probs: np.ndarray
    unnormalized: np.ndarray
    truncation_bound: float
    max_jumps: int
    quad_points: int


def _state_sequences(rates: np.ndarray, start: int, end: int, n_jumps: int):
    """State sequences start -> ... -> end with positive rates along the way."""
    k = rates.shape[0]
    if n_jumps == 0:
        if start == end:
            yield (start,)
        return
    for middle in product(range(k), repeat=n_jumps - 1):
        seq = (start, *middle, end)
        if all(seq[i] != seq[i + 1] and rates[seq[i], seq[i + 1]] > 0 for i in range(n_jumps)):
            yield seq


def _ordered_times(horizon: float, nodes: np.ndarray, weights: np.ndarray, m: int):
    """Tensor grid over ordered jump times 0 < tau_1 < ... < tau_m < horizon.

    Sequential map tau_k = tau_{k-1} + (horizon - tau_{k-1}) u_k from the unit
    cube; returns (times (n, m), combined quadrature weight * jacobian (n,)).
    """
    grids = np.meshgrid(*([nodes] * m), indexing="ij")
    u = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*([weights] * m), indexing="ij")
    w = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    times = np.empty_like(u)
    jac = np.ones(u.shape[0])
    prev = np.zeros(u.shape[0])
    for k in range(m):
        remaining = horizon - prev
        times[:, k] = prev + remaining * u[:, k]
        jac *= remaining
        prev = times[:, k]
    return times, w * jac


def pathspace_expectation(
    model: ChainModel,
    grid: ObservationGrid,
    horizon: float,
    max_jumps: int,
    quad_points: int,
    max_truncation: float = 1e-4,
) -> PathspaceResult:
    """Enumerate paths with up to ``max_jumps`` jumps and integrate their weights
    with ``quad_points`` Gauss-Legendre nodes per jump time.

    Refuses to run outside its honest envelope: the state space must be small
    (K <= 3), max_jumps an integer in 0..3, and the Poisson mass of the omitted
    jump counts, bounded with rate max_i nu_i, must not exceed
    ``max_truncation``. That omitted mass is reported as ``truncation_bound``
    alongside the result. ValueError unless quad_points is a positive integer.
    """
    k = model.n_states
    if k > 3:
        raise ValueError(f"path enumeration supports K <= 3 states, got {k}")
    if not is_count(max_jumps) or max_jumps > 3:
        raise ValueError(f"max_jumps must be an integer in 0..3, got {max_jumps!r}")
    if not is_count(quad_points) or quad_points < 1:
        raise ValueError(f"quad_points must be a positive integer, got {quad_points!r}")
    if _step_count(horizon, grid.dt) > grid.n_steps:
        raise ValueError("horizon must not pass the end of the grid")
    # imported here: scipy.stats takes ~1 s to load and only this bound needs it
    from scipy.stats import poisson

    lam = float(model.exit_rates.max()) * horizon
    truncation_bound = float(poisson.sf(max_jumps, lam))
    if truncation_bound > max_truncation:
        raise ValueError(
            f"omitted >= {max_jumps + 1}-jump Poisson mass {truncation_bound:.3e} "
            f"exceeds max_truncation={max_truncation:.3e}; shorten the horizon, "
            "raise max_jumps, or loosen max_truncation explicitly"
        )

    beta2 = grid.beta**2
    t_knots = np.arange(grid.n_steps + 1) * grid.dt
    y_knots = cumulative_observation(grid)
    nodes, gl_weights = np.polynomial.legendre.leggauss(quad_points)
    nodes = 0.5 * (nodes + 1.0)
    gl_weights = 0.5 * gl_weights
    exit_rates = model.exit_rates
    levels = model.levels

    def segment_weight(bounds: np.ndarray, seq) -> np.ndarray:
        # bounds: (n, m+2) segment boundaries; seq: states per segment (m+1,)
        durations = np.diff(bounds, axis=1)
        a_seq = levels[list(seq)]
        nu_seq = exit_rates[list(seq)]
        y_at = np.interp(bounds, t_knots, y_knots)
        dy_seg = np.diff(y_at, axis=1)
        log_density = -(durations @ nu_seq)
        exponent = -(durations @ (a_seq**2)) / (2.0 * beta2) + (dy_seg @ a_seq) / beta2
        return np.exp(log_density + exponent)

    psi = np.zeros(k)
    for start in range(k):
        weight0 = model.initial_dist[start]
        if weight0 == 0.0:
            continue
        for m in range(max_jumps + 1):
            if m == 0:
                bounds = np.array([[0.0, horizon]])
                contrib = segment_weight(bounds, (start,))[0]
                psi[start] += weight0 * contrib
                continue
            times, combined = _ordered_times(horizon, nodes, gl_weights, m)
            bounds = np.concatenate(
                [np.zeros((times.shape[0], 1)), times, np.full((times.shape[0], 1), horizon)],
                axis=1,
            )
            for end in range(k):
                for seq in _state_sequences(model.rates, start, end, m):
                    rate_product = math.prod(
                        model.rates[seq[i], seq[i + 1]] for i in range(m)
                    )
                    values = segment_weight(bounds, seq)
                    psi[end] += weight0 * rate_product * float(combined @ values)
    total = psi.sum()
    if total <= 0:
        raise RuntimeError("path-space enumeration produced no mass")
    return PathspaceResult(
        probs=psi / total,
        unnormalized=psi,
        truncation_bound=truncation_bound,
        max_jumps=max_jumps,
        quad_points=quad_points,
    )


@dataclass(frozen=True, eq=False)
class TowerReport:
    """Per-state z-scores of the replica-averaged filter, plus MSE comparison."""

    z_scores: np.ndarray
    mean_terminal: np.ndarray
    target: np.ndarray
    mse_filter: float
    mse_const: float
    mse_margin_se: float
    n_replicas: int


# Fewest replicas a forked child of the tower check gets. A two-child fan-out
# costs ~6 ms to start and a replica ~110 us (T=1, dt=1e-3, 2 vCPUs), so 500
# replicas (~55 ms) keep the start under a ninth of each child's share, and
# checks of up to 999 replicas (the tests' 100-300 among them) run in this
# process.
REPLICA_FLOOR = 500


def tower_property_check(
    model: ChainModel,
    horizon: float,
    dt: float,
    beta: float,
    n_replicas: int,
    master_seed: int,
) -> TowerReport:
    """Monte Carlo unbiasedness check of the normalized filter.

    Runs ``n_replicas`` independent (path, observation, filter) triples on
    the streams ``derive_rng(master_seed, r, role)`` and compares the
    replica mean of p(T) against the unconditional law initial^T P(T),
    reporting per-state z-scores. Also reports the filter's empirical
    mean-square error against the best constant predictor and the
    significance (in standard errors) of the gap.

    The replicas run in contiguous blocks (:func:`_replica_block`), fanned
    out over forked workers when each gets at least ``REPLICA_FLOOR``
    replicas. :func:`jumpfilter.kernels.check_run` joins the blocks' final
    states and checks them once, as one batch, so the report, or the error,
    is the same at any CPU count. ValueError, before any work, unless
    ``n_replicas`` (at least 100) and ``master_seed`` are integers, numpy's
    too, not bools, and the replica-steps are within ``STEP_BUDGET``.
    """
    if not isinstance(n_replicas, numbers.Integral) or n_replicas < 100:
        raise ValueError("n_replicas must be an integer of at least 100 for meaningful "
                         f"z-scores, not {n_replicas!r}")
    if isinstance(master_seed, bool) or not isinstance(master_seed, numbers.Integral):
        raise ValueError(f"master_seed must be an integer, not {master_seed!r}")
    n_steps = _step_count(horizon, dt)  # its ValueError comes before any work
    if int(n_replicas) * n_steps > STEP_BUDGET:
        raise ValueError(f"n_replicas={n_replicas} replicas of {n_steps} steps are above the "
                         f"budget of {STEP_BUDGET:.0e} replica-steps")
    kernel = WonhamIto(model, dt, beta, sign_variant="innovation")
    noise = derive_states(master_seed, n_replicas, ROLE_NOISE)
    jumps = derive_states(master_seed, n_replicas, ROLE_JUMP)
    blocks = fork_workers(n_replicas // REPLICA_FLOOR)
    edges = [n_replicas * b // blocks for b in range(blocks + 1)]
    tasks = [(kernel, horizon, noise[lo:hi], jumps[lo:hi]) for lo, hi in zip(edges, edges[1:])]
    _seed_words_class()  # loads numpy.random here, so forked workers inherit it
    runs, terminal_levels = zip(*fan_out(_replica_block, tasks, blocks))
    probs = check_run(*runs).probs[-1]
    terminal_level = np.concatenate(terminal_levels)

    target = model.initial_dist @ transition_matrix(model, horizon)
    mean_terminal = probs.mean(axis=0)
    spread = probs.std(axis=0, ddof=1)
    deviation = mean_terminal - target
    z_scores = np.zeros(model.n_states)
    nonzero = spread > 0
    z_scores[nonzero] = deviation[nonzero] / (spread[nonzero] / math.sqrt(n_replicas))
    z_scores[~nonzero & (np.abs(deviation) > 1e-12)] = np.inf

    xbar = probs @ model.levels
    const = float(target @ model.levels)
    err_filter = (terminal_level - xbar) ** 2
    err_const = (terminal_level - const) ** 2
    gap = err_const - err_filter
    gap_se = gap.std(ddof=1) / math.sqrt(n_replicas)
    return TowerReport(
        z_scores=z_scores,
        mean_terminal=mean_terminal,
        target=target,
        mse_filter=float(err_filter.mean()),
        mse_const=float(err_const.mean()),
        mse_margin_se=float(gap.mean() / gap_se) if gap_se > 0 else math.inf,
        n_replicas=n_replicas,
    )


def _replica_block(task) -> tuple:
    """For ``task = (kernel, horizon, noise_words, jump_words)``, the
    wonham-ito ``kernel``'s unchecked final-state run
    (:func:`jumpfilter.kernels.run_steps`) over the replicas whose streams'
    seed words (rows of :func:`jumpfilter.seeding.derive_states`) are given,
    and the level each replica's path ends on.

    Row r of the (R, n) increments is written in place: the replica's noise,
    drawn from its noise stream, then scaled; then
    :func:`jumpfilter.chain.add_path_integrals` adds the exact per-step
    signal integrals of the path drawn from its jump stream. The filter
    runs from ``kernel.start()`` over the transpose view, one (R,) column
    per step; :func:`jumpfilter.kernels.run_steps` makes the batch.
    """
    kernel, horizon, noise_words, jump_words = task
    model, dt = kernel.model, kernel.dt
    increments = np.empty((len(noise_words), _step_count(horizon, dt)))
    noise_scale = kernel.beta * math.sqrt(dt)
    for words, row in zip(noise_words, increments):
        stream(words).standard_normal(row.size, out=row)
        row *= noise_scale
    final_states = add_path_integrals(model, horizon, dt, jump_words, increments)
    return (run_steps(kernel, kernel.start(), increments.T),
            model.levels[final_states])
