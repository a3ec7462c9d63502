"""derive_states against the generators derive_rng builds one at a time."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpfilter.seeding import (ROLE_JUMP, ROLE_NOISE, derive_rng, derive_states,
                                seed_sequence_words)

MASTER_SEEDS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]),
    st.integers(0, 2**32 - 1),
    st.integers(2**63, 2**64 - 1),
    st.integers(0, 2**64 - 1),
)


@settings(max_examples=40, deadline=None)
@given(master_seed=MASTER_SEEDS, role=st.sampled_from([ROLE_JUMP, ROLE_NOISE]),
       replicas=st.integers(1, 40), data=st.data())
def test_states_equal_derive_rng(master_seed, role, replicas, data):
    states = derive_states(master_seed, replicas, role)
    rng = np.random.default_rng(0)
    for r in data.draw(st.lists(st.integers(0, replicas - 1), min_size=1, max_size=5)):
        reference = derive_rng(master_seed, r, role)
        assert states[r] == reference.bit_generator.state
        rng.bit_generator.state = states[r]
        assert np.array_equal(rng.random(3), reference.random(3))
        assert np.array_equal(rng.standard_normal(3), reference.standard_normal(3))


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_seed_sequence_words_one_and_two_word_entropy(seed):
    # below 2**32 a seed is one entropy word, from 2**32 on it is two
    words = seed_sequence_words(np.array([seed], dtype=np.uint64))
    expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
    assert words.dtype == np.uint64
    assert np.array_equal(words[0], expected)


def test_seed_sequence_words_batch_matches_one_at_a_time():
    seeds = np.random.default_rng(5).integers(0, 2**64 - 1, size=64, dtype=np.uint64,
                                               endpoint=True)
    words = seed_sequence_words(seeds)
    for seed, row in zip(seeds.tolist(), words):
        assert np.array_equal(row, np.random.SeedSequence(seed).generate_state(4, np.uint64))
