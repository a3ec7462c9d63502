"""Sampling tables of the jump-path simulator against the per-draw sampler.

``per_draw_path`` is how :func:`jumpfilter.chain.simulate_jump_path` drew a
path before it had tables: one ``rng.choice`` per state and one
``rng.exponential`` per holding time. The tables must give the same paths and
leave the generator in the same state, so every stream derived by
:mod:`jumpfilter.seeding` keeps its meaning. The batched Wonham kernel run on
increments synthesized from such paths must reproduce the separate runs.
"""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpfilter.chain import ChainModel, _choice_cdf, simulate_jump_path, step_level_integrals
from jumpfilter.harness import run_trajectory
from jumpfilter.kernels import (FilterInstabilityError, WonhamIto, check_run, drive, run_history,
                                run_steps)
from jumpfilter.signalpath import ObservationGrid

PROPERTY = settings(max_examples=40, deadline=None)


def per_draw_path(model, horizon, rng):
    """(initial state, jump times, jump states) drawn one numpy call per draw."""
    k = model.n_states
    exit_rates = model.exit_rates
    initial = int(rng.choice(k, p=model.initial_dist))
    state = initial
    times, states = [], []
    t = 0.0
    while True:
        rate = exit_rates[state]
        if rate <= 0.0:
            break
        t += rng.exponential(1.0 / rate)
        if t > horizon:
            break
        state = int(rng.choice(k, p=model.rates[state] / rate))
        times.append(t)
        states.append(state)
    return initial, times, states


@st.composite
def models(draw):
    """K <= 5 models with some zero rates, optionally an absorbing state and
    a zero initial probability."""
    k = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rates = rng.uniform(0.1, 3.0, size=(k, k)) * (rng.random((k, k)) < 0.8)
    if k > 1 and draw(st.booleans()):
        rates[draw(st.integers(0, k - 1))] = 0.0
    initial = rng.uniform(0.1, 1.0, size=k)
    zero_start = k > 1 and draw(st.booleans())
    if zero_start:
        initial[draw(st.integers(0, k - 1))] = 0.0
    with pytest.warns(UserWarning, match="floored") if zero_start else nullcontext():
        return ChainModel(levels=rng.uniform(-1.5, 1.5, size=k), rates=rates,
                          initial_dist=initial / initial.sum())


@PROPERTY
@given(model=models(), seed=st.integers(0, 2**32 - 1), horizon=st.floats(0.05, 4.0))
def test_tables_draw_the_per_draw_paths(model, seed, horizon):
    tables, per_draw = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(10):
        path = simulate_jump_path(model, horizon, tables)
        initial, times, states = per_draw_path(model, horizon, per_draw)
        assert path.initial_state == initial
        assert path.jump_times.tolist() == times
        assert path.jump_states.tolist() == states
    assert tables.bit_generator.state == per_draw.bit_generator.state


def test_invalid_laws_rejected_like_choice():
    # a model cannot hold these laws; the tables check them as rng.choice does
    with pytest.raises(ValueError, match="sum to 1"):
        _choice_cdf(np.array([0.5, 0.6]))
    with pytest.raises(ValueError, match="non-negative"):
        _choice_cdf(np.array([np.nan, 1.0]))


@PROPERTY
@given(model=models(), seed=st.integers(0, 2**32 - 1), replicas=st.integers(2, 6))
def test_batched_rows_equal_separate_runs(model, seed, replicas):
    rng = np.random.default_rng(seed)
    beta = float(rng.uniform(0.3, 1.0))
    dt, n_steps = 0.01, 40
    dy = np.empty((replicas, n_steps))
    for row in dy:
        path = simulate_jump_path(model, dt * n_steps, rng)
        row[:] = step_level_integrals(path, model, dt, n_steps)
        row += beta * np.sqrt(dt) * rng.standard_normal(n_steps)
    kernel = WonhamIto(model, dt, beta)
    start = kernel.start()
    try:
        singles = [
            run_trajectory(model, ObservationGrid(dt, beta, row, np.zeros(n_steps),
                                                  np.zeros(n_steps)), "wonham-ito")
            for row in dy
        ]
    except FilterInstabilityError:
        # a state nothing flows into stays at 0 and clamps every step
        with pytest.raises(FilterInstabilityError):
            drive(kernel, start, dy.T)
        return
    for run, kept in ((run_history, slice(None)), (run_steps, slice(-1, None))):
        batch = check_run(run(kernel, start, dy.T))
        assert batch.probs.flags.c_contiguous
        for r, single in enumerate(singles):
            expected = single.probs[kept]
            got = batch.probs[:, r, :]
            assert np.abs(got - expected).max() <= 1e-15
            if model.n_states <= 3:
                # from K=4 on, BLAS may round the batched drift (a matrix
                # product) apart from the single run's (a matrix-vector product)
                assert np.array_equal(got, expected)
