"""Bit-for-bit checks of the kernels' per-step arithmetic at its edges.

The step kernels take their products through ``ndarray.dot`` instead of
``@``, which must leave every bit unchanged; and ``normalize``, the floored
normalization of a simplex kernel's raw update that a block failing its
check is stepped again with, floors and counts at the edge values of a raw
entry. The whole step of each kernel, normalization included, is compared
with a plain reference loop in ``tests/test_kernel_contract.py``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpfilter.chain import FLOOR
from jumpfilter.kernels import QUIET, normalize


def bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


@settings(max_examples=150, deadline=None)
@given(k=st.integers(1, 32), replicas=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_dot_equals_matmul_bitwise(k, replicas, seed):
    rng = np.random.default_rng(seed)
    vector = rng.standard_normal(k)
    matrix = rng.standard_normal((k, k)) * rng.uniform(0.1, 10.0)
    batch = rng.uniform(0.0, 1.0, (k, replicas))
    assert bits(vector.dot(matrix)) == bits(vector @ matrix)
    assert bits(matrix.dot(vector)) == bits(matrix @ vector)
    assert bits(matrix.T.dot(batch)) == bits(matrix.T @ batch)


def counted_normalize(raw, presum):
    """The floored normalization written out: count the entries <= 0, floor
    them, total and divide."""
    clamped = int(np.count_nonzero(raw <= 0.0))
    floored = np.maximum(raw, FLOOR) if clamped else raw
    total = np.add.reduce(floored, axis=0)
    return floored / total, np.add.reduce(raw, axis=0) if presum else total, clamped


EDGES = [0.0, -0.0, -1.0, -5e-324, np.nan, np.inf, -np.inf, 5e-324]


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 32), replicas=st.one_of(st.none(), st.integers(1, 40)),
       edges=st.lists(st.sampled_from(EDGES), max_size=6), seed=st.integers(0, 2**32 - 1),
       presum=st.booleans())
def test_normalize_equals_counting_first_bitwise(k, replicas, edges, seed, presum):
    # floored and counted exactly where an entry is <= 0 (+-0, -inf, a
    # negative subnormal); NaN, a positive subnormal and +inf are neither
    rng = np.random.default_rng(seed)
    raw = rng.uniform(1e-300, 1.0, k if replicas is None else (k, replicas))
    raw.flat[rng.integers(raw.size, size=len(edges))] = edges
    with np.errstate(**QUIET):
        probs, total, clamped = normalize(raw.copy(), presum)
        expected = counted_normalize(raw.copy(), presum)
    assert clamped == expected[2]
    assert bits(probs) == bits(expected[0])
    assert bits(total) == bits(expected[1])
