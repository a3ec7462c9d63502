"""Reproducible stream derivation from a single master seed.

Every random stream in the package is a ``numpy.random.Generator`` seeded by
``derive_seed(master_seed, replica_index, role)``, so jump randomness and
observation randomness are independently replayable, and replicas never share
a stream. :func:`stream` seeds PCG64, in C, from a row of :func:`derive_states`,
the seed words of a batch of replicas' streams.

The mixing function is splitmix64 (Steele, Lea & Flood 2014): the master seed
is advanced once per key through

    z = (state + key * 0x9E3779B97F4A7C15) mod 2**64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2**64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB mod 2**64
    state = z ^ (z >> 31)

and the final state is the derived 64-bit seed.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN = 0x9E3779B97F4A7C15

ROLE_JUMP = 1
ROLE_NOISE = 2

__all__ = ["derive_seed", "derive_rng", "splitmix64", "ROLE_JUMP", "ROLE_NOISE"]


def splitmix64(state: int, key: int) -> int:
    """One splitmix64 round: absorb ``key`` into ``state``."""
    z = (state + (operator.index(key) & MASK64) * GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def derive_seed(master_seed: int, *keys: int) -> int:
    """Fold integer keys (replica index, stream role, ...) into a 64-bit seed;
    any integer, numpy's included, is taken mod 2**64."""
    state = operator.index(master_seed) & MASK64
    for key in keys:
        state = splitmix64(state, key + 1)
    return state


def derive_rng(master_seed: int, *keys: int) -> np.random.Generator:
    """Generator for the stream identified by ``keys`` under ``master_seed``."""
    return np.random.default_rng(derive_seed(master_seed, *keys))


def derive_states(master_seed: int, replicas: int, role: int) -> np.ndarray:
    """PCG64 seed words of ``derive_rng(master_seed, r, role)`` for r = 0..replicas-1.

    Row r of the (replicas, 4) uint64 table is what ``SeedSequence`` hands
    PCG64 for that stream, so ``stream(derive_states(m, R, role)[r])`` is the
    stream of ``derive_rng(m, r, role)``, without the per-call SeedSequence
    hashing of ``default_rng``.
    """
    seeds = _splitmix64_output(np.uint64(operator.index(master_seed) & MASK64)
                               + np.arange(1, replicas + 1, dtype=np.uint64) * GOLDEN)
    seeds = _splitmix64_output(seeds + np.uint64((role + 1) * GOLDEN & MASK64))
    return seed_sequence_words(seeds)


def stream(words) -> np.random.Generator:
    """The generator whose PCG64 seeds itself from the four uint64 ``words``,
    a row of :func:`derive_states`."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.shape != (4,):
        raise ValueError(f"a stream is seeded from 4 words, not from shape {words.shape}")
    return np.random.Generator(np.random.PCG64(_seed_words_class()(words)))


@functools.cache
def _seed_words_class() -> type:
    """The seed sequence that gives PCG64 fixed words, built by the first
    stream: importing the package loads no ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):  # PCG64 asks for 4 uint64
            return self.words

    return SeedWords


def _splitmix64_output(z: np.ndarray) -> np.ndarray:
    """The output function of :func:`splitmix64` over a uint64 array (wraps mod 2**64)."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)


# NumPy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
MASK32 = 0xFFFFFFFF
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def seed_sequence_words(seeds: np.ndarray) -> np.ndarray:
    """``np.random.SeedSequence(s).generate_state(4, np.uint64)`` for every
    uint64 seed s, as an (R, 4) uint64 table, in uint32 array arithmetic."""
    hash_const = INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * MULT_A & MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * MIX_MULT_L - y * MIX_MULT_R
        return result ^ (result >> 16)

    # A seed's entropy words are its 32-bit digits, low first: one word below
    # 2**32, two above. The pool has 4 slots and a slot past the entropy is
    # hashed from 0, so the one-word seed s mixes exactly as (s, 0) does.
    low = (seeds & MASK32).astype(np.uint32)
    high = (seeds >> 32).astype(np.uint32)
    zero = np.zeros_like(low)
    pool = [hashmix(word) for word in (low, high, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))

    hash_const = INIT_B
    halves = []
    for i in range(8):  # 4 uint64 words, each two uint32 words low first
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * MULT_B & MASK32
        value = value * hash_const
        halves.append((value ^ (value >> 16)).astype(np.uint64))
    return np.stack([halves[2 * w] | halves[2 * w + 1] << 32 for w in range(4)], axis=1)
