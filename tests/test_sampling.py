"""Sampling tables of the jump-path simulator against the per-draw sampler.

``per_draw_path`` is how :func:`jumpfilter.chain.simulate_jump_path` drew a
path before it had tables: one ``rng.choice`` per state and one
``rng.exponential`` per holding time. The tables must give the same paths and
leave the generator in the same state, so every stream derived by
:mod:`jumpfilter.seeding` keeps its meaning.
"""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpfilter.chain import ChainModel, simulate_jump_path

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
