"""A bit-for-bit oracle for the kernels' per-step arithmetic.

The step kernels take their products through ``ndarray.dot``, make their
per-run decisions when they are built and hoist constants such as ``0.5 * dt``.
Every such trim must leave each output bit unchanged, so each kernel's run
(:func:`jumpfilter.kernels.run_steps`, the loop of ``drive``, whose exit
checks a random model may fail) is compared here with a reference loop
written with the plain expressions: ``@`` products, ``correction_sign *
correction``, two separate moment sums, the sign variant chosen inside the
step, the log kernel's shift through ``np.max`` and a clamp count taken before
every floor.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpfilter import ChainModel
from jumpfilter.chain import FLOOR
from jumpfilter.kernels import KERNELS, QUIET, correction_diagonal, floor_and_total, run_steps

DT = 1e-3
BETA = 0.7  # not a power of two, so a division by beta**2 is no multiplication


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


def counted_floor(raw):
    """``floor_and_total`` as it was first written: count, then floor."""
    clamped = int(np.count_nonzero(raw <= 0.0))
    if clamped:
        raw = np.maximum(raw, FLOOR)
    return raw, np.add.reduce(raw, axis=0), clamped


EDGES = [0.0, -0.0, -1.0, -5e-324, np.nan, np.inf, -np.inf, 5e-324]


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 32), replicas=st.one_of(st.none(), st.integers(1, 40)),
       edges=st.lists(st.sampled_from(EDGES), max_size=6), seed=st.integers(0, 2**32 - 1))
def test_floor_and_total_equals_counting_first_bitwise(k, replicas, edges, seed):
    # the argmin test that skips the count must floor and count exactly
    # where counting first does: NaN, +-0, negatives and infinities included
    rng = np.random.default_rng(seed)
    raw = rng.uniform(1e-300, 1.0, k if replicas is None else (k, replicas))
    raw.flat[rng.integers(raw.size, size=len(edges))] = edges
    with np.errstate(**QUIET):
        floored, total, clamped = floor_and_total(raw.copy())
        expected = counted_floor(raw.copy())
    assert clamped == expected[2]
    assert bits(floored) == bits(expected[0])
    assert bits(total) == bits(expected[1])


def random_model(rng, k: int) -> ChainModel:
    rates = rng.uniform(0.1, 3.0, (k, k))
    np.fill_diagonal(rates, 0.0)
    initial = rng.uniform(0.1, 1.0, k)
    return ChainModel(levels=rng.uniform(-2.0, 2.0, k), rates=rates,
                      initial_dist=initial / initial.sum())


def increments(rng, model: ChainModel, beta: float, n: int, replicas: int | None = None):
    shape = (n,) if replicas is None else (n, replicas)
    level = model.levels[rng.integers(model.n_states)]
    return level * DT + beta * np.sqrt(DT) * rng.standard_normal(shape)


def rescale(raw):
    """The unnormalized kernels' floor and rescale, as (psi, total)."""
    clamped = int(np.count_nonzero(raw <= 0.0))
    if clamped:
        raw = np.maximum(raw, FLOOR)
    total = np.add.reduce(raw, axis=0)
    return (raw / total, total), clamped


def zakai_ito(kernel):
    generator, levels, beta, dt = kernel.generator, kernel.levels, kernel.beta, kernel.dt

    def step(state, dy):
        psi = state[0]
        return rescale(psi + dt * (psi @ generator) + psi * levels * (dy / beta**2))

    return step, list


def zakai_langevin(kernel):
    generator, levels, dt = kernel.generator, kernel.levels, kernel.dt
    correction = correction_diagonal(levels, kernel.beta, kernel.correction_sign)

    def step(state, dy):
        rate = dy / dt / kernel.beta_sq
        diag = rate * levels + correction
        psi = state[0]
        now = psi @ generator + psi * diag
        predictor = psi + dt * now
        return rescale(psi + 0.5 * dt * (now + (predictor @ generator + predictor * diag)))

    return step, list


def wonham_ito(kernel):
    generator, dt, beta = kernel.generator, kernel.dt, kernel.beta

    def step(state, dy):
        probs = state[0]
        levels = kernel.levels if probs.ndim == 1 else kernel.levels[:, None]
        xbar = np.add.reduce(probs * levels, axis=0)
        gain = (levels - xbar) * probs / beta**2
        drift = generator.T @ probs
        if kernel.sign_variant == "innovation":
            raw = probs + dt * drift + gain * (dy - xbar * dt)
        else:
            raw = probs + dt * drift + gain * dy + gain * (xbar * dt)
        clamped = int(np.count_nonzero(raw <= 0.0))
        floored = np.maximum(raw, FLOOR) if clamped else raw
        total = np.add.reduce(floored, axis=0)
        return (floored / total, np.add.reduce(raw, axis=0) if clamped else total), clamped

    return step, list


def wonham_langevin(kernel):
    generator, levels, dt = kernel.generator, kernel.levels, kernel.dt
    levels_sq, beta_sq, sign = levels**2, kernel.beta_sq, kernel.correction_sign

    def field(probs, rate):
        xbar = np.add.reduce(probs * levels, axis=0)
        second_moment = np.add.reduce(probs * levels_sq, axis=0)
        correction = 0.5 * probs * (levels_sq - second_moment) / beta_sq
        return probs @ generator + sign * correction + (levels - xbar) * probs * (rate / beta_sq)

    def step(probs, dy):
        rate = dy / dt
        now = field(probs, rate)
        predictor = probs + dt * now
        raw = probs + 0.5 * dt * (now + field(predictor, rate))
        clamped = int(np.count_nonzero(raw <= 0.0))
        if clamped:
            raw = np.maximum(raw, FLOOR)
        return raw / np.add.reduce(raw, axis=0), clamped

    return step, list


def gamma(kernel):
    forward, backward, levels, dt = (kernel.step_forward, kernel.step_backward, kernel.levels,
                                     kernel.dt)

    def step(state, dy):
        diag = dy / dt / kernel.beta_sq * levels
        psi = state[0]
        now = psi * diag
        predictor = psi + dt * now
        after = backward @ (diag * (forward @ predictor))
        return rescale(forward @ (psi + 0.5 * dt * (now + after)))

    return step, list


def log(kernel):
    connected, rates, dt = kernel.rates > 0, kernel.rates, kernel.dt
    drift = -kernel.model.exit_rates + correction_diagonal(kernel.levels, kernel.beta,
                                                          kernel.correction_sign)

    def step(theta, observed):
        diffs = np.where(connected, theta[:, None] - theta, -np.inf)
        coupling = np.einsum("ij,ij->j", rates, np.exp(diffs))
        updated = theta + dt * (drift + coupling) + observed
        return updated - np.max(updated), 0

    return step, kernel.prepare


def bayes_oracle(kernel):
    trans = kernel.trans

    def step(probs, log_like):
        log_post = np.log(probs @ trans) + log_like
        log_post -= np.max(log_post)
        post = np.exp(log_post)
        return post / np.add.reduce(post, axis=0), 0

    return step, kernel.prepare


REFERENCES = {
    "zakai-ito": zakai_ito,
    "zakai-langevin": zakai_langevin,
    "wonham-ito": wonham_ito,
    "wonham-langevin": wonham_langevin,
    "gamma": gamma,
    "log": log,
    "bayes-oracle": bayes_oracle,
}


def reference_history(kernel, start, dy):
    """The states of a plain loop of the reference step, as the arrays that
    ``probs`` takes (the stacked state arrays, and for a state (array, sum)
    the column of sums, else None), and its clamp count."""
    step, prepare = REFERENCES[kernel.scheme](kernel)
    history, state, clamps = [start], start, 0
    with np.errstate(**QUIET):
        for inputs in prepare(dy):
            state, clamped = step(state, inputs)
            clamps += clamped
            history.append(state)
    if isinstance(start, tuple):
        return np.array([s[0] for s in history]), np.array([s[1] for s in history]), clamps
    return np.array(history), None, clamps


def assert_same_run(kernel, start, dy):
    run = run_steps(kernel, start, dy)
    states, sums, clamps = reference_history(kernel, start, dy)
    with np.errstate(**QUIET):
        probs, extras = kernel.probs(states, sums)
    assert run.clamps == clamps
    assert bits(run.probs) == bits(probs)
    assert run.extras.keys() == extras.keys()
    for name in extras:
        assert bits(run.extras[name]) == bits(extras[name]), name


@pytest.mark.parametrize("scheme", sorted(REFERENCES))
@pytest.mark.parametrize("correction_sign", [-1, 1])
@pytest.mark.parametrize("sign_variant", ["innovation", "paper"])
@settings(max_examples=8, deadline=None)
@given(k=st.integers(1, 8), beta=st.floats(0.3, 2.0), seed=st.integers(0, 2**32 - 1))
def test_kernel_drive_equals_reference_loop_bitwise(scheme, correction_sign, sign_variant, k,
                                                    beta, seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, k)
    kernel = KERNELS[scheme](model, DT, beta, correction_sign, sign_variant)
    assert_same_run(kernel, kernel.start(), increments(rng, model, beta, 300))


@pytest.mark.parametrize("sign_variant", ["innovation", "paper"])
def test_wonham_ito_batch_equals_reference_loop_bitwise(sign_variant):
    rng = np.random.default_rng(7)
    model = random_model(rng, 5)
    kernel = KERNELS["wonham-ito"](model, DT, BETA, sign_variant=sign_variant)
    start = kernel.start(np.tile(model.initial_dist, (9, 1)))
    dy = increments(rng, model, BETA, 200, replicas=9)
    run = run_steps(kernel, start, dy)
    states, sums, clamps = reference_history(kernel, start, dy)
    assert run.clamps == clamps
    assert bits(run.probs) == bits(kernel.probs(states, sums)[0])
