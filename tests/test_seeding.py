"""derive_states and stream against the generators derive_rng builds one at a time."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpfilter.seeding import (ROLE_JUMP, ROLE_NOISE, derive_rng, derive_seed,
                                derive_states, seed_sequence_words, splitmix64, stream)

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
    words = derive_states(master_seed, replicas, role)
    assert words.shape == (replicas, 4) and words.dtype == np.uint64
    for r in data.draw(st.lists(st.integers(0, replicas - 1), min_size=1, max_size=5)):
        rng, reference = stream(words[r]), derive_rng(master_seed, r, role)
        assert rng.bit_generator.state == reference.bit_generator.state
        assert np.array_equal(rng.random(3), reference.random(3))
        assert np.array_equal(rng.standard_normal(3), reference.standard_normal(3))


@pytest.mark.parametrize("words", [np.zeros(3, dtype=np.uint64), np.zeros((1, 4), np.uint64)])
def test_stream_takes_four_words(words):
    with pytest.raises(ValueError, match="4 words"):
        stream(words)


def test_stream_of_a_strided_row():
    words = derive_states(9, 3, ROLE_NOISE)
    strided = np.zeros((3, 8), dtype=np.uint64)
    strided[:, ::2] = words
    reference = derive_rng(9, 1, ROLE_NOISE)
    assert stream(strided[1, ::2]).bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("seed, equal", [(np.int64(3), 3), (np.int32(3), 3), (np.uint64(3), 3),
                                         (np.uint8(3), 3), (np.int64(-1), 2**64 - 1),
                                         (-1, 2**64 - 1)])
def test_numpy_integer_seeds_equal_python_ints(seed, equal):
    # numpy's signed integers used to raise OverflowError, np.uint64 after
    # overflow warnings; any integer is taken mod 2**64
    assert derive_seed(seed, 4, ROLE_JUMP) == derive_seed(equal, 4, ROLE_JUMP)
    assert derive_seed(5, seed, ROLE_JUMP) == derive_seed(5, equal, ROLE_JUMP)
    assert (derive_rng(seed, 4, ROLE_JUMP).bit_generator.state
            == derive_rng(equal, 4, ROLE_JUMP).bit_generator.state)
    assert np.array_equal(derive_states(seed, 5, ROLE_NOISE), derive_states(equal, 5, ROLE_NOISE))


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


def test_splitmix_is_deterministic_64bit():
    assert splitmix64(0, 1) == splitmix64(0, 1)
    assert 0 <= splitmix64(2**64 - 1, 2**63) < 2**64


def test_streams_differ_by_role_and_replica():
    seeds = {derive_seed(9, r, role) for r in range(100) for role in (ROLE_JUMP, ROLE_NOISE)}
    assert len(seeds) == 200
