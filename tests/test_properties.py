"""Property tests of the construction contract and of the run contract.

A ``ChainModel`` or ``ExperimentConfig`` that exists has passed its checks,
so its JSON form must load back to the same value, and corrupting one field of
a valid model must make construction fail with that field's violation. A run
on any valid model, however stiff, returns a finite on-simplex history or
raises one of the run-failure types, without numpy warnings. The
unnormalized schemes are linear and the log-domain scheme shifts its state,
so scaling their start weights leaves the normalized history unchanged. The
Pade [13/13] ``expm`` behind the Gamma propagators agrees with scipy's on
every drift matrix, and Gamma converges to zakai-langevin(-1) at first
order. The vectorized path integrals equal those of an independent
one-path reference, bit for bit, on models with absorbing states, on paths
without jumps and on jumps at grid nodes. A model warns once, when it is built,
exactly when its initial law has a zero, and its read-only start weights
floor that law as the schemes always did.
"""

import json
import os
import warnings
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

from jumpfilter import chain
from jumpfilter.chain import (ChainModel, JumpPath, add_path_integrals, model_from_json,
                              model_to_json, simulate_jump_path)
from jumpfilter.harness import SCHEMES, ExperimentConfig, run_trajectory, simulate_pair
from jumpfilter.kernels import (
    SIMPLEX_TOLERANCE,
    FilterInstabilityError,
    GammaRangeError,
    drift_matrix,
    expm,
)
from jumpfilter.seeding import ROLE_JUMP, derive_rng, derive_states
from jumpfilter.signalpath import ObservationGrid, coarsen
from jumpfilter.zakai import UnnormalizedState

PROPERTY = settings(max_examples=40, deadline=None)

# the telegraph schemes accept only the symmetric +-1 chain
GENERAL_SCHEMES = tuple(s for s in SCHEMES if not s.startswith("telegraph"))


@st.composite
def models(draw, min_states=1):
    """Irreducible K <= 5 models: a cycle of positive rates plus random others."""
    k = draw(st.integers(min_states, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rates = rng.uniform(0.1, 3.0, size=(k, k)) * (rng.random((k, k)) < 0.6)
    cycle = np.arange(k)
    rates[cycle, (cycle + 1) % k] = rng.uniform(0.1, 3.0, size=k)
    initial = rng.uniform(0.0, 1.0, size=k)
    return ChainModel(levels=rng.uniform(-1.5, 1.5, size=k), rates=rates,
                      initial_dist=initial / initial.sum())


def assert_same_model(a: ChainModel, b: ChainModel) -> None:
    for name in ("levels", "rates", "initial_dist"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


@PROPERTY
@given(model=models())
def test_model_json_round_trip_is_exact(model):
    assert_same_model(model_from_json(json.dumps(model_to_json(model))), model)


@PROPERTY
@given(
    model=models(),
    dt=st.floats(1e-5, 0.1),
    n_steps=st.integers(1, 10_000),
    beta=st.floats(1e-3, 1e3),
    scheme=st.sampled_from(GENERAL_SCHEMES),
    correction_sign=st.sampled_from((-1, 1)),
    sign_variant=st.sampled_from(("innovation", "paper")),
    master_seed=st.integers(0, 2**63 - 1),
    out_dir=st.text(min_size=1, max_size=20),
)
def test_config_json_round_trip_is_exact(model, dt, n_steps, beta, scheme, correction_sign,
                                         sign_variant, master_seed, out_dir):
    config = ExperimentConfig(model=model, horizon=n_steps * dt, dt=dt, beta=beta,
                              scheme=scheme, correction_sign=correction_sign,
                              sign_variant=sign_variant, master_seed=master_seed,
                              out_dir=out_dir)
    back = ExperimentConfig.from_json(json.dumps(config.to_json()))
    assert_same_model(back.model, config.model)
    for name in ("horizon", "dt", "beta", "scheme", "correction_sign", "sign_variant",
                 "master_seed", "out_dir"):
        assert getattr(back, name) == getattr(config, name), name


def negative_rate(levels, rates, initial, rng):
    i, j = rng.choice(len(levels), size=2, replace=False)
    rates[i, j] = -rng.uniform(1e-3, 3.0)
    return "negative rate"


def nan_level(levels, rates, initial, rng):
    levels[rng.integers(len(levels))] = np.nan
    return "nonfinite level"


def initial_off_by_1e_9(levels, rates, initial, rng):
    # the smallest entry, so it stays inside [0, 1]
    initial[np.argmin(initial)] += 1e-9
    return "initial distribution does not sum to 1"


@PROPERTY
@pytest.mark.parametrize("corrupt", [negative_rate, nan_level, initial_off_by_1e_9])
@given(model=models(min_states=2), seed=st.integers(0, 2**32 - 1))
def test_one_corrupted_field_is_named(corrupt, model, seed):
    levels, rates, initial = (np.array(getattr(model, name))
                              for name in ("levels", "rates", "initial_dist"))
    violation = corrupt(levels, rates, initial, np.random.default_rng(seed))
    with pytest.raises(ValueError, match=f"^invalid model: {violation}$"):
        ChainModel(levels=levels, rates=rates, initial_dist=initial)


def floored_start(initial: np.ndarray) -> np.ndarray:
    """The start weights as the unnormalized and log-domain schemes floored
    them at each start before models kept their own: a copy of the initial
    law, all of it floored to 1e-300 when it has a nonpositive entry."""
    psi = np.array(initial, dtype=float)
    return np.maximum(psi, 1e-300) if np.any(psi <= 0) else psi


@PROPERTY
@given(k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), zeros=st.integers(0, 4),
       tiny=st.sampled_from((0.0, 5e-324, 1e-310, 1e-300, 1e-200)))
def test_a_model_warns_once_exactly_when_its_start_has_a_zero(k, seed, zeros, tiny):
    # entry 0 takes the mass the others leave; some others are zero and the
    # last is tiny: a positive entry below 1e-300 is floored only when the
    # law also has a zero
    initial = np.random.default_rng(seed).uniform(0.1, 1.0, size=k)
    initial[1:1 + zeros] = 0.0
    initial[1:] *= 0.5 / initial.sum()
    if k > 1:
        initial[-1] = tiny
    initial[0] = 1.0 - initial[1:].sum()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = ChainModel(levels=np.zeros(k), rates=np.zeros((k, k)), initial_dist=initial)
    assert len(caught) == (model.initial_dist == 0).any()
    assert all(w.category is UserWarning and str(w.message).startswith(
        "zero initial probabilities floored to 1e-300") for w in caught)
    # reading the weights warns no more, and gives one read-only array
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        weights = model.start_weights
        assert model.start_weights is weights
    assert not weights.flags.writeable
    expected = floored_start(model.initial_dist)
    assert weights.dtype == expected.dtype and weights.tobytes() == expected.tobytes()


@st.composite
def stiff_models(draw):
    """K <= 4 models with log-uniform rates from 1e-6 to 1e6, absent edges,
    absorbing states and, half the time, a point-mass initial law."""
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rates = 10.0 ** rng.uniform(-6.0, 6.0, size=(k, k)) * (rng.random((k, k)) < 0.5)
    rates[rng.random(k) < 0.25] = 0.0
    if draw(st.booleans()):
        initial = np.eye(k)[rng.integers(k)]
    else:
        initial = rng.uniform(0.0, 1.0, size=k)
        initial /= initial.sum()
    with pytest.warns(UserWarning, match="floored") if (initial == 0).any() else nullcontext():
        return ChainModel(levels=rng.uniform(-2.0, 2.0, size=k), rates=rates,
                          initial_dist=initial)


@PROPERTY
@pytest.mark.parametrize("scheme", GENERAL_SCHEMES)
@given(model=stiff_models(), beta=st.floats(0.05, 5.0), n_steps=st.integers(1, 200),
       seed=st.integers(0, 2**32 - 1))
def test_run_is_on_the_simplex_or_raises_a_run_failure(scheme, model, beta, n_steps, seed):
    dt = 1e-3
    rng = np.random.default_rng(seed)
    level = model.levels[rng.integers(model.n_states)]
    dy = level * dt + beta * np.sqrt(dt) * rng.standard_normal(n_steps)
    grid = ObservationGrid(dt=dt, beta=beta, dy=dy, dw=np.zeros(n_steps),
                           x_level=np.full(n_steps, level))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            run = run_trajectory(model, grid, scheme)
        except (FilterInstabilityError, GammaRangeError):
            run = None
    # a run issues no warnings: numpy's floating-point warnings must not
    # escape, and the floor of a zero start warned when the model was built
    assert caught == []
    if run is not None:
        assert np.isfinite(run.probs).all() and (run.probs >= 0).all()
        assert np.abs(run.probs.sum(axis=1) - 1.0).max() <= SIMPLEX_TOLERANCE


@PROPERTY
@pytest.mark.parametrize("scheme", ["zakai-ito", "zakai-langevin", "gamma", "log"])
@given(model=models(), scale=st.floats(1e-100, 1e100), beta=st.floats(0.3, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_scaled_start_weights_leave_the_probabilities(scheme, model, scale, beta, seed):
    dt, n_steps = 1e-3, 100
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 1.0, size=model.n_states)
    dy = model.levels[0] * dt + beta * np.sqrt(dt) * rng.standard_normal(n_steps)
    grid = ObservationGrid(dt=dt, beta=beta, dy=dy, dw=np.zeros(n_steps),
                           x_level=np.zeros(n_steps))
    plain, scaled = (run_trajectory(model, grid, scheme, initial=UnnormalizedState(psi=c * weights))
                     for c in (1.0, scale))
    assert np.abs(plain.probs - scaled.probs).max() <= 1e-12


@settings(max_examples=200, deadline=None)
@given(model=st.one_of(models(), stiff_models()), beta=st.floats(0.05, 5.0),
       correction_sign=st.sampled_from((-1, 1)), log_norm=st.floats(-6.0, np.log10(50.0)),
       sign=st.sampled_from((-1.0, 1.0)))
def test_expm_of_a_drift_matrix_matches_scipy(model, beta, correction_sign, log_norm, sign):
    a = drift_matrix(model, beta, correction_sign)
    size = np.abs(a).sum(axis=0).max()
    # t of either sign, chosen so that ||A t||_1 = 10**log_norm, up to 50
    at = a * (sign * 10.0**log_norm / size)
    norm = np.abs(at).sum(axis=0).max()
    ours, reference = expm(at), scipy_expm(at)
    relative = np.abs(ours - reference).sum(axis=0).max() / np.abs(reference).sum(axis=0).max()
    assert relative <= (1e-14 if norm <= 0.1 else 1e-10)
    if norm <= 1.0:
        assert np.abs(ours @ expm(-at) - np.eye(len(a))).max() <= 1e-12


@settings(max_examples=20, deadline=None)
@given(model=models(min_states=2), beta=st.floats(0.3, 1.0),
       master_seed=st.integers(0, 2**32 - 1))
def test_gamma_meets_zakai_langevin_at_first_order(model, beta, master_seed):
    # one Brownian path at dt = 2.5e-4, coarsened to 5e-4 and 1e-3. A single
    # halving's factor is noisy, as the time of the largest gap can move
    # between grids (1.48 at least over 1300 random models, median 2.0), so
    # each halving must cut the gap by 1.25x and the two together by 1.5**2.
    config = ExperimentConfig(model=model, horizon=0.5, dt=2.5e-4, beta=beta,
                              master_seed=master_seed)
    _, fine = simulate_pair(config)
    gaps = []
    for factor in (4, 2, 1):
        grid = coarsen(fine, factor)
        gamma, langevin = (run_trajectory(model, grid, scheme, correction_sign=-1)
                           for scheme in ("gamma", "zakai-langevin"))
        gaps.append(np.abs(gamma.probs - langevin.probs).max())
    assert gaps[0] >= 1.25 * gaps[1] and gaps[1] >= 1.25 * gaps[2]
    assert gaps[0] >= 1.5**2 * gaps[2]


@st.composite
def jump_models(draw):
    """K <= 5 models with rates up to 30 or down to 1e-3 (most paths then
    have no jump), absent edges and absorbing states."""
    k = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rates = 10.0 ** rng.uniform(-3.0, 1.5, size=(k, k)) * (rng.random((k, k)) < 0.7)
    rates[rng.random(k) < 0.3] = 0.0
    initial = rng.uniform(0.0, 1.0, size=k)
    return ChainModel(levels=rng.uniform(-2.0, 2.0, size=k), rates=rates,
                      initial_dist=initial / initial.sum())


def _cumulative_level(seg_levels: np.ndarray, jump_times: np.ndarray, horizon: float,
                      times: np.ndarray) -> np.ndarray:
    """Exact values of  t -> integral_0^t a_{x(s)} ds  at the given times, for
    the path with levels ``seg_levels`` between its ``jump_times``."""
    edges = np.concatenate(([0.0], jump_times, [horizon]))
    knots = edges[:-1]
    cum_at_knots = np.concatenate(([0.0], (seg_levels * (edges[1:] - knots)).cumsum()))
    idx = jump_times.searchsorted(times, side="right")
    return cum_at_knots[idx] + seg_levels[idx] * (times - knots[idx])


def one_path_integrals(path: JumpPath, model: ChainModel, dt: float, n_steps: int) -> np.ndarray:
    """The per-step level integrals of one path, from :func:`_cumulative_level`,
    a per-path reference written apart from the package's vectorized routine."""
    cum = _cumulative_level(model.levels[path.states_visited], path.jump_times, path.horizon,
                            chain._uniform_grid(n_steps, dt, path.horizon))
    return cum[1:] - cum[:-1]


@PROPERTY
@given(model=jump_models(), dt=st.floats(1e-3, 0.1), n_steps=st.integers(1, 300),
       replicas=st.integers(1, 40), master_seed=st.integers(0, 2**63 - 1),
       chunk=st.integers(1, 2000))
def test_path_integrals_equal_one_path_at_a_time(model, dt, n_steps, replicas, master_seed,
                                                 chunk):
    horizon = n_steps * dt
    base = np.random.default_rng(master_seed % 2**32).standard_normal((replicas, n_steps))
    out = base.copy()
    with mock.patch.object(chain, "CHUNK_VALUES", chunk):
        final = add_path_integrals(model, horizon, dt,
                                   derive_states(master_seed, replicas, ROLE_JUMP), out)
    for r in range(replicas):
        path = simulate_jump_path(model, horizon, derive_rng(master_seed, r, ROLE_JUMP))
        expected = base[r].copy()
        expected += one_path_integrals(path, model, dt, n_steps)
        assert out[r].tobytes() == expected.tobytes()
        assert final[r] == path.states_visited[-1]


@PROPERTY
@given(model=jump_models(), dt=st.floats(1e-3, 0.1), n_steps=st.integers(1, 300),
       seed=st.integers(0, 2**32 - 1), chunk=st.integers(1, 2000), data=st.data())
def test_path_integrals_of_jumps_on_grid_nodes(model, dt, n_steps, seed, chunk, data):
    # paths drawn by hand, so that jump times can land exactly on grid nodes
    horizon = n_steps * dt
    grid = chain._uniform_grid(n_steps, dt, horizon)
    rng = np.random.default_rng(seed)
    paths = []
    for _ in range(data.draw(st.integers(1, 12))):
        n_jumps = data.draw(st.integers(0, 6)) if model.n_states > 1 else 0
        nodes = data.draw(st.lists(st.booleans(), min_size=n_jumps, max_size=n_jumps))
        times = np.unique([grid[rng.integers(1, n_steps + 1)] if on_node
                           else horizon * (1.0 - rng.random()) for on_node in nodes])
        states = [rng.integers(model.n_states)]
        for _ in times:
            states.append((states[-1] + rng.integers(1, model.n_states)) % model.n_states)
        paths.append(JumpPath(states[0], times, states[1:], horizon))
    out = np.zeros((len(paths), n_steps))
    with mock.patch.object(chain, "CHUNK_VALUES", chunk):
        chain._add_step_integrals(
            model.levels[np.concatenate([p.states_visited for p in paths])],
            np.concatenate([p.jump_times for p in paths]),
            np.array([p.n_jumps for p in paths]), grid, out)
    for row, path in zip(out, paths):
        assert row.tobytes() == one_path_integrals(path, model, dt, n_steps).tobytes()
        assert row.tobytes() == chain.step_level_integrals(path, model, dt, n_steps).tobytes()


def test_hypothesis_profiles_fix_tier1_draws_and_explore_draws_fresh():
    # tests/conftest.py: tier-1 replays fixed draws without an example
    # database; HYPOTHESIS_PROFILE=explore draws fresh examples
    default, explore = settings.get_profile("default"), settings.get_profile("explore")
    assert default.derandomize is True and default.database is None
    assert explore.derandomize is False and explore.database is None
    loaded = os.environ.get("HYPOTHESIS_PROFILE", "default")
    assert settings.default.derandomize is settings.get_profile(loaded).derandomize
