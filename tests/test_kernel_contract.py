"""The one contract of every filter kernel, stated once over ``KERNELS``.

The table of cases is every scheme of ``KERNELS`` with its history kept and
not kept, plus the replica batch, over (n, R) increments, of each kernel that
batches. The clauses follow the kernel rows of README "Where each check
runs": a kernel is built only from valid options and a model it can filter;
only a kernel that batches takes (n, R) increments; increments are finite
before step 1; a history, extras included, is finite and on the simplex; the
wonham-ito pre-renormalization sum stays near 1; every floored entry is
counted, and a run fails past the clamp budget. Then the equalities: a run
without a history ends on the last kept row; a run resumed from a run's
``state``, a batch's included, is the rest of the whole run, a batch takes
back no state of another shape, a run refuses a state unlike its start (of
the other kind, of another K or of another shape) through each of
``run_steps``, ``run_history`` and ``drive``, and a carried pre-sum is not
a step;
an empty block adds nothing; a kept run floors a clamping
block as the reference loop floors each step, wherever in the block it
clamps; the rows of a batch are the separate runs; ``run_steps``, with a
history or without, is a plain reference loop bit for bit; and each public
R=1 step function is a one-step ``run_steps`` run, is its ``drive`` row bit
for bit, refuses a state of another K and fails as a run does, without a
numpy warning.
"""

import warnings
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpfilter import (
    ChainModel,
    DiscreteBayesState,
    FilterState,
    LogState,
    TelegraphState,
    bayes_forward_step,
    drift_matrix,
    gamma_langevin_step,
    init_unnormalized,
    kernels,
    log_step,
    telegraph_ito_step,
    telegraph_langevin_step,
    telegraph_model,
    to_gamma,
    wonham_langevin_step,
    wonham_step,
    zakai_ito_step,
    zakai_langevin_step,
)
from jumpfilter.chain import FLOOR
from jumpfilter.kernels import (
    BLOCK_ROWS,
    CLAMP_FAILURE_FRACTION,
    KERNELS,
    QUIET,
    FilterInstabilityError,
    Kernel,
    check_run,
    drive,
    on_simplex,
    run_history,
    run_steps,
)

TELEGRAPH = telegraph_model(1.0)
THREE = ChainModel(
    levels=[1.0, 0.3, -0.7],
    rates=[[0.0, 0.6, 0.3], [0.2, 0.0, 0.8], [0.5, 0.4, 0.0]],
    initial_dist=[0.5, 0.3, 0.2],
)
DT, BETA = 1e-3, 0.5
# the kernels that run (n, R) increments as a batch of R replicas
BATCHED = {"wonham-ito"}
REPLICAS = 4
# the kernels whose step floors an entry (or clamps q) on an increment of
# +-4 beta**2 / max|a|; the others never do on it
CLAMPING = {"zakai-ito", "wonham-ito", "wonham-langevin", "telegraph-ito", "telegraph-langevin"}


class Case(NamedTuple):
    scheme: str
    kept: bool
    replicas: int | None = None  # R of a batch, None for one trajectory

    def __str__(self):
        batch = "" if self.replicas is None else "-batch"
        return f"{self.scheme}{batch}-{'kept' if self.kept else 'unkept'}"


CASES = [Case(scheme, kept, replicas)
         for scheme in KERNELS
         for replicas in ([None, REPLICAS] if scheme in BATCHED else [None])
         for kept in (True, False)]
UNKEPT = [case for case in CASES if not case.kept]


def model_of(scheme: str) -> ChainModel:
    return TELEGRAPH if scheme.startswith("telegraph") else THREE


def build(scheme: str, model: ChainModel | None = None, **options) -> Kernel:
    return KERNELS[scheme](model_of(scheme) if model is None else model, DT, BETA, **options)


def increments(case: Case, profile, benign: float = 0.01) -> np.ndarray:
    """``profile`` as the increments of one trajectory, or as replica 1's
    column of a batch whose other replicas see ``benign`` at every step."""
    profile = np.asarray(profile, dtype=float)
    if case.replicas is None:
        return profile
    dy = np.full((len(profile), case.replicas), benign)
    dy[:, 1] = profile
    return dy


def runner(kept: bool):
    """The unchecked run that keeps every row, or the one that keeps the final row."""
    return run_history if kept else run_steps


def unchecked(case: Case, dy: np.ndarray, kernel: Kernel | None = None):
    kernel = build(case.scheme) if kernel is None else kernel
    return runner(case.kept)(kernel, kernel.start(), dy)


def checked(case: Case, dy: np.ndarray):
    return check_run(unchecked(case, dy))


def bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


# ---------------------------------------------------------------------------
# building a kernel: options, step and model


@pytest.mark.parametrize("scheme", KERNELS)
def test_build_refuses_bad_options_steps_and_models(scheme):
    for options, message in [({"correction_sign": 0}, "correction_sign"),
                             ({"sign_variant": "typo"}, "sign_variant")]:
        with pytest.raises(ValueError, match=message):
            build(scheme, **options)
    for dt, beta in [(0.0, BETA), (DT, np.nan), (DT, 1e300), (DT, 1e-200)]:
        with pytest.raises(ValueError, match="beta"):
            KERNELS[scheme](model_of(scheme), dt, beta)
    if scheme.startswith("telegraph"):
        # the scalar telegraph filter would return a wrong two-column posterior
        for model in [THREE,
                      ChainModel(levels=[1.0, -1.0], rates=[[0.0, 1.0], [3.0, 0.0]],
                                 initial_dist=[0.5, 0.5]),
                      ChainModel(levels=[1.0, 0.0], rates=[[0.0, 1.0], [1.0, 0.0]],
                                 initial_dist=[0.5, 0.5])]:
            with pytest.raises(ValueError, match="telegraph schemes require"):
                build(scheme, model)


def test_batched_is_the_set_of_kernels_that_batch():
    assert BATCHED == {scheme for scheme, kernel in KERNELS.items() if kernel.batches}


@pytest.mark.parametrize("scheme", KERNELS)
def test_only_a_kernel_that_batches_takes_increment_columns(scheme):
    kernel = build(scheme)
    shapes = r"\(n,\) or \(n, R\)" if scheme in BATCHED else r"\(n,\)"
    for dy in (np.zeros(()), np.zeros((20, 2, 2))):
        with pytest.raises(ValueError, match=rf"{scheme} takes {shapes} increments, not \("):
            drive(kernel, kernel.start(), dy)
    # distinct columns, R = 2 and R = K = 3: a kernel that steps one path
    # would feed replica r's increment to state r of a (K,) state
    for replicas in (2, 3):
        dy = 0.01 * np.arange(1, replicas + 1) * np.ones((20, 1))
        if scheme not in BATCHED:
            with pytest.raises(ValueError, match=rf"{scheme} takes \(n,\) increments, "
                                                 rf"not \(20, {replicas}\)"):
                drive(kernel, kernel.start(), dy)
            continue
        batch = drive(kernel, kernel.start(), dy)
        assert batch.probs.shape == (21, replicas, kernel.model.n_states)
        for r in range(replicas):
            assert bits(batch.probs[:, r, :]) == bits(drive(kernel, kernel.start(), dy[:, r]).probs)
    # an iterable takes (m,) blocks only: wonham-ito used to run a first (m, 3)
    # block as a batch, then feed every replica the one increment of an (m,)
    # block, or fail on an (m, 5) block with numpy's bare broadcast error
    for blocks, bad in [([(600, 3), 600], (600, 3)), ([600, (600, 5)], (600, 5))]:
        with pytest.raises(ValueError, match=rf"{scheme} takes \(m,\) blocks from an "
                                             rf"iterable, not \({bad[0]}, {bad[1]}\)"):
            check_run(run_steps(kernel, kernel.start(), (np.zeros(m) for m in blocks)))


@pytest.mark.parametrize("scheme", KERNELS)
def test_an_iterable_without_a_block_is_refused(scheme):
    # an empty iterable used to end in an UnboundLocalError after the loop;
    # one empty block is a run of 0 steps, as an empty array is
    kernel = build(scheme)
    with pytest.raises(ValueError, match=rf"{scheme} takes at least one block of increments"):
        run_steps(kernel, kernel.start(), iter([]))
    for dy in (np.zeros(0), iter([np.zeros(0)])):
        run = check_run(run_steps(kernel, kernel.start(), dy))
        assert run.n_steps == 0
        assert bits(run.probs[0]) == bits(drive(kernel, kernel.start(), np.zeros(0)).probs[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("case", CASES, ids=str)
def test_increments_are_finite_before_step_one(case, bad):
    kernel = build(case.scheme)
    steps = []
    step = kernel.step
    kernel.step = lambda state, inputs: steps.append(inputs) or step(state, inputs)
    dy = np.full(50, 0.01)
    dy[20] = bad
    with pytest.raises(ValueError, match="observation increments must be finite"):
        unchecked(case, increments(case, dy), kernel)
    assert steps == []


# ---------------------------------------------------------------------------
# the history: finite, extras included, and on the simplex


@pytest.mark.parametrize("case", CASES, ids=str)
def test_an_overflowing_run_fails_without_numpy_warnings(case):
    # the steps run with numpy's warnings off: the typed error is all a
    # caller sees
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(FilterInstabilityError):
            checked(case, increments(case, [0.01, 1e308]))
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("kept", [True, False], ids=["kept", "unkept"])
def test_a_non_finite_extra_fails_the_run(kept):
    # the probabilities stay finite and on the simplex, with 1 clamp in 2000
    # steps, but the last log_weights row holds -inf
    case = Case("zakai-ito", kept)
    run = unchecked(case, np.r_[np.full(1999, 0.01), 1e30])
    assert on_simplex(run.probs) and run.clamps == 1
    assert np.isneginf(run.extras["log_weights"][-1]).any()
    with pytest.raises(FilterInstabilityError,
                       match="zakai-ito: the filter state became non-finite"):
        check_run(run)


@pytest.mark.parametrize("kept", [True, False], ids=["kept", "unkept"])
def test_rows_off_the_simplex_fail_the_run(kept):
    class Inflating(Kernel):
        scheme = "inflating"

        def step(self, state, dy):
            return state * 1.5, 0

    with pytest.raises(FilterInstabilityError, match="inflating: probabilities left the simplex"):
        check_run(runner(kept)(Inflating(TELEGRAPH, DT, BETA), np.array([0.5, 0.5]), np.zeros(3)))


# ---------------------------------------------------------------------------
# the wonham-ito pre-sum guard


@pytest.mark.parametrize("case", [c for c in CASES if build(c.scheme).carries_presum], ids=str)
def test_presum_guard_covers_every_step(case):
    # only step 51 of 60 (of replica 1) leaves the simplex, with its sum
    # before renormalization off by ~1e-4; without a history the guard must
    # still see that step, not the final state alone
    dy = np.full(60, 0.01)
    dy[50] = 1e12
    with pytest.raises(FilterInstabilityError, match="pre-renormalization sum off by"):
        checked(case, increments(case, dy))


# ---------------------------------------------------------------------------
# clamps: counted, and a run fails past the budget


def spiked(case: Case, spike: float, n_steps: int) -> np.ndarray:
    """A clamping increment, then zeros, in replica 1 of a batch."""
    return increments(case, np.r_[spike, np.zeros(n_steps - 1)], benign=0.0)


@pytest.mark.parametrize("direction", [-1.0, 1.0], ids=["down", "up"])
@pytest.mark.parametrize("case", CASES, ids=str)
def test_clamps_are_counted_and_the_budget_holds(case, direction):
    # 4 beta**2 / max|a| = 1: an Euler step floors the weight of level 1.0
    # (or 0.3 too), and q leaves [-1, 1] both ways
    clamps = unchecked(case, spiked(case, direction, 1000)).clamps
    if case.scheme not in CLAMPING:
        assert clamps == 0
        return
    assert clamps >= 1
    # CLAMP_FAILURE_FRACTION of this many replica-steps is the count itself
    steps = round(clamps / CLAMP_FAILURE_FRACTION) // (case.replicas or 1)
    assert checked(case, spiked(case, direction, steps)).clamps == clamps
    with pytest.raises(FilterInstabilityError,
                       match=f"{case.scheme}: {clamps} clamp events over .* exceeds"):
        checked(case, spiked(case, direction, steps - 1))


# ---------------------------------------------------------------------------
# a run without a history ends on the last kept row


@pytest.mark.parametrize("case", UNKEPT, ids=str)
def test_a_run_without_history_ends_on_the_last_kept_row(case):
    # bit for bit: the final row, its extras (log_weights, theta, q), the
    # clamps and the pre-sum statistics
    kernel = build(case.scheme)
    start = kernel.start()
    if case.scheme in ("zakai-ito", "zakai-langevin", "gamma"):
        # a (psi, log normalizer) state whose normalizer the first fold carries in
        start = (np.array([0.6, 0.3, 0.1]), 1.5)
    dy = 3e-4 + BETA * np.sqrt(DT) * np.random.default_rng(4).standard_normal(400)
    dy[[100, 200]] = [1.0, -1.0]  # clamps, where the scheme floors
    dy = increments(case, dy)
    full, last = run_history(kernel, start, dy), run_steps(kernel, start, dy)
    assert (full.clamps > 0) == (case.scheme in CLAMPING)
    assert bits(last.probs) == bits(full.probs[-1:])
    assert last.extras.keys() == full.extras.keys()
    for name, rows in full.extras.items():
        assert bits(last.extras[name]) == bits(rows[-1:]), name
    assert (last.clamps, last.presum_max_dev, last.presum_total_dev) == (
        full.clamps, full.presum_max_dev, full.presum_total_dev)


# ---------------------------------------------------------------------------
# a run's state starts the rest of the run, and an empty block adds nothing


def clamping_increments(n_steps: int, spikes) -> np.ndarray:
    """Increments of one level with noise, and +1, -1, ... at the steps
    ``spikes``, where the schemes that floor do (4 beta**2 / max|a| = 1)."""
    dy = 3e-4 + BETA * np.sqrt(DT) * np.random.default_rng(5).standard_normal(n_steps)
    dy[list(spikes)] = [(-1.0) ** i for i in range(len(spikes))]
    return dy


# (replicas, rows, cut): each block's middle and end, and the merged last
# block; a batch of 100 replicas steps 327 rows a block
CUTS = {None: {"block-middle": (BLOCK_ROWS, 300), "511": (BLOCK_ROWS, 511),
               "512": (BLOCK_ROWS, 512), "rows-7": (7, 24)},
        100: {"block-middle": (BLOCK_ROWS, 300), "326": (BLOCK_ROWS, 326),
              "327": (BLOCK_ROWS, 327), "rows-7": (7, 24)}}
RESUMED = [pytest.param(scheme, replicas, rows, cut,
                        id=f"{scheme}{'' if replicas is None else '-batch'}-{name}")
           for scheme in KERNELS
           for replicas in ([None, 100] if scheme in BATCHED else [None])
           for name, (rows, cut) in CUTS[replicas].items()]


@pytest.mark.parametrize("scheme, replicas, rows, cut", RESUMED)
def test_a_run_resumed_from_its_state_is_the_whole_run(scheme, replicas, rows, cut, monkeypatch):
    # bit for bit: the rows and extras after the cut, the clamps summed and
    # the largest pre-sum deviation; the Zakai log weights used to resume
    # from the last step's total instead of the running log normalizer, and
    # a batch's (K, R) state used to be tiled again
    monkeypatch.setattr(kernels, "BLOCK_ROWS", rows)
    kernel = build(scheme)
    dy = clamping_increments(1100, [10, 700])  # a clamp on each side of the cut
    if replicas is not None:  # replica 1 clamps, the others see their own noise
        noise = BETA * np.sqrt(DT) * np.random.default_rng(6).standard_normal((len(dy), replicas))
        noise[:, 1] = dy
        dy = noise
    whole = run_history(kernel, kernel.start(), dy)
    head = run_steps(kernel, kernel.start(), dy[:cut])
    rest = run_history(kernel, head.state, dy[cut:])
    assert (whole.clamps > 0) == (scheme in CLAMPING)
    assert bits(head.probs) == bits(whole.probs[cut])
    assert bits(rest.probs) == bits(whole.probs[cut:])
    assert rest.extras.keys() == whole.extras.keys()
    for name, kept in whole.extras.items():
        assert bits(rest.extras[name]) == bits(kept[cut:]), name
    assert head.clamps + rest.clamps == whole.clamps
    assert max(head.presum_max_dev, rest.presum_max_dev) == whole.presum_max_dev
    if kernel.carries_presum:
        # the pre-sum that a state carries in is not a step of the run: a
        # start that carries 1.5 has the pre-sum statistics of one that carries 1
        array = kernel.start()[0]
        one, off = (run_steps(kernel, (array, carried), dy[:cut]) for carried in (1.0, 1.5))
        assert (off.presum_max_dev, off.presum_total_dev) == (
            one.presum_max_dev, one.presum_total_dev)


def refusal(run, kernel: Kernel, state, dy) -> str:
    """The message of the ValueError with which ``run`` refuses ``state``."""
    with pytest.raises(ValueError) as refused:
        run(kernel, state, dy)
    return str(refused.value)


def test_a_batch_takes_back_only_a_state_of_its_shape():
    # one of another R, or a (K, R) array without an (R,) sum row, used to
    # fail with numpy's untyped broadcast error, or to be stepped
    kernel = build("wonham-ito")
    dy = np.full((20, REPLICAS), 0.01)
    probs, sums = run_steps(kernel, kernel.start(), dy).state
    for state, message in (((probs[:, 1:], sums[1:]), "a state of shape (3, 4), not (3, 3)"),
                           ((probs, sums[1:]), "sums of shape (4,), not (3,)"),
                           ((probs, 1.0), "sums of shape (4,), not ()"),
                           ((probs[0], sums), "a state of shape (3, 4), not (4,)"),
                           ((probs[:, :, None], sums), "a state of shape (3, 4), not (3, 4, 1)")):
        assert refusal(run_steps, kernel, state, dy) == f"wonham-ito takes {message}"


RUNS = {"run_steps": run_steps, "run_history": run_history, "drive": drive}


@pytest.mark.parametrize("run", RUNS.values(), ids=RUNS)
@pytest.mark.parametrize("scheme", KERNELS)
def test_a_run_refuses_a_state_unlike_its_start(scheme, run):
    # a state of the other kind used to fail with an untyped error of numpy
    # or Python ("too many values to unpack", an inhomogeneous shape), one
    # of another K with numpy's "not aligned" or broadcast error, and a
    # (K, 2) one, a batch's state with its (2,) sums, was stepped: wonham-ito's
    # drive failed as a run, off the simplex
    kernel = build(scheme)
    start = kernel.start()
    simplex = isinstance(start, tuple)
    array = start[0] if simplex else start

    def like_start(state):
        return (state, np.full(np.shape(state)[1:], start[1])) if simplex else state

    dy = np.full(20, 0.01)
    other = array if simplex else (array, 1.0)
    assert refusal(run, kernel, other, dy) == (f"{scheme} takes a state of its start's kind "
                                               f"({type(start).__name__}), "
                                               f"not {type(other).__name__}")
    k = kernel.model.n_states
    if not scheme.startswith("telegraph"):  # a float q has no K
        for size in (k - 1, k + 1):
            assert refusal(run, kernel, like_start(np.resize(array, size)), dy) == (
                f"the state has K={size} entries but the model has K={k} states")
    columns = np.full((k, 2), np.reshape(array, (-1, 1)))
    assert refusal(run, kernel, like_start(columns), dy) == (
        f"{scheme} takes a state of shape {np.shape(array)}, not ({k}, 2)")


@pytest.mark.parametrize("sizes", [(50, 0, 70), (50, 70, 0)], ids=["0-between", "0-last"])
@pytest.mark.parametrize("scheme", KERNELS)
def test_an_empty_block_adds_nothing(scheme, sizes):
    # an iterable's empty block after the first used to fail wonham-ito's
    # pre-sum fold with numpy's untyped "zero-size array" error
    kernel = build(scheme)
    dy = clamping_increments(120, [60])
    ends = np.cumsum([0, *sizes])
    run = run_steps(kernel, kernel.start(), (dy[lo:hi] for lo, hi in zip(ends, ends[1:])))
    whole = run_steps(kernel, kernel.start(), dy)
    assert run.n_steps == whole.n_steps
    assert bits(run.probs) == bits(whole.probs)
    assert run.extras.keys() == whole.extras.keys()
    for name, row in whole.extras.items():
        assert bits(run.extras[name]) == bits(row), name
    assert (run.clamps, run.presum_max_dev, run.presum_total_dev) == (
        whole.clamps, whole.presum_max_dev, whole.presum_total_dev)


# ---------------------------------------------------------------------------
# a block is floored only when its one check fails: a clamping block is
# stepped again from its start with the floor, as the reference loop floors
# every step

# levels (1, 0), with a fast return to level 1, from the stationary law: an
# increment of -30 floors an entry in each simplex scheme, at any step
RETURNING = ChainModel(levels=[1.0, 0.0], rates=[[0.0, 1.0], [50.0, 0.0]],
                       initial_dist=[50 / 51, 1 / 51])
SIMPLEX = [scheme for scheme in KERNELS if isinstance(build(scheme).start(), tuple)]


@pytest.mark.parametrize("rows", [BLOCK_ROWS, 7])
@pytest.mark.parametrize("at", ["run-first", "block-first", "block-middle", "block-last"])
@pytest.mark.parametrize("scheme", SIMPLEX)
def test_a_clamping_block_of_a_kept_run_is_floored(scheme, at, rows, monkeypatch):
    monkeypatch.setattr(kernels, "BLOCK_ROWS", rows)
    # block 1 steps rows .. 2 rows - 1, and step s takes increment s - 1
    step = {"run-first": 1, "block-first": rows, "block-middle": rows + rows // 2,
            "block-last": 2 * rows - 1}[at]
    dy = np.zeros(3 * rows)
    dy[step - 1] = -30.0
    kernel = build(scheme, RETURNING)
    run = run_history(kernel, kernel.start(), dy)
    assert run.clamps > 0
    assert_is_the_reference_run(run, kernel, kernel.start(), dy)


def test_the_block_check_reads_the_sums():
    # every raw entry of zakai-ito's first step, about psi (1 - 4 a), is
    # negative: raw / total is positive, and only the total shows the floor
    model = ChainModel(levels=[1.0, 2.0], rates=[[0.0, 1.0], [1.0, 0.0]], initial_dist=[0.5, 0.5])
    kernel = build("zakai-ito", model)
    dy = np.r_[-1.0, np.zeros(99)]
    run = run_history(kernel, kernel.start(), dy)
    assert run.clamps == 2
    assert_is_the_reference_run(run, kernel, kernel.start(), dy)


# ---------------------------------------------------------------------------
# the rows of a batch are separate runs


def random_model(rng, k: int) -> ChainModel:
    rates = rng.uniform(0.1, 3.0, (k, k))
    np.fill_diagonal(rates, 0.0)
    initial = rng.uniform(0.1, 1.0, k)
    return ChainModel(levels=rng.uniform(-2.0, 2.0, k), rates=rates,
                      initial_dist=initial / initial.sum())


def random_increments(rng, model: ChainModel, beta: float, dt: float, shape) -> np.ndarray:
    """Increments of one level, with two spikes of +-4 beta**2 / max|a|, at
    which the schemes that floor do."""
    level = model.levels[rng.integers(model.n_states)]
    dy = level * dt + beta * np.sqrt(dt) * rng.standard_normal(shape)
    spike = 4.0 * beta**2 / max(np.abs(model.levels).max(), 1e-3)
    dy[len(dy) // 3], dy[2 * len(dy) // 3] = spike, -spike
    return dy


@pytest.mark.parametrize("scheme", sorted(BATCHED))
@pytest.mark.parametrize("kept", [True, False], ids=["kept", "unkept"])
@settings(max_examples=10, deadline=None)
@given(k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), replicas=st.integers(2, 6),
       sign_variant=st.sampled_from(["innovation", "paper"]))
def test_the_rows_of_a_batch_are_separate_runs(scheme, kept, k, seed, replicas, sign_variant):
    rng = np.random.default_rng(seed)
    model = random_model(rng, k)
    kernel = build(scheme, model, sign_variant=sign_variant)
    dy = random_increments(rng, model, BETA, DT, (60, replicas))
    batch = runner(kept)(kernel, kernel.start(), dy)
    singles = [runner(kept)(kernel, kernel.start(), dy[:, r]) for r in range(replicas)]
    assert batch.probs.shape == (61 if kept else 1, replicas, k)
    assert batch.probs.flags.c_contiguous
    assert batch.clamps == sum(single.clamps for single in singles)
    if k > 3:
        # from K=4 on, BLAS may round the batched drift (a matrix product)
        # apart from the single run's (a matrix-vector product), and with it
        # the pre-sum deviations
        for r, single in enumerate(singles):
            assert np.abs(batch.probs[:, r, :] - single.probs).max() <= 1e-15
        return
    for r, single in enumerate(singles):
        assert bits(batch.probs[:, r, :]) == bits(single.probs)
    assert batch.presum_max_dev == max(single.presum_max_dev for single in singles)
    assert batch.presum_total_dev == max(single.presum_total_dev for single in singles)


# ---------------------------------------------------------------------------
# run_steps is a plain reference loop, bit for bit
#
# The kernels take their products through ndarray.dot, decide per run when
# they are built and hoist constants such as 0.5 * dt. Each reference step
# below is written with the plain expressions instead: @ products, the
# correction as sign * 0.5 * a**2 / beta**2, two separate moment sums, the sign
# variant chosen inside the step, the log kernel's shift through np.max, and a
# clamp count taken before every floor.


def rescale(raw):
    """The floor and rescale of a simplex kernel but wonham-ito, as (probs, total)."""
    clamped = int(np.count_nonzero(raw <= 0.0))
    if clamped:
        raw = np.maximum(raw, FLOOR)
    total = np.add.reduce(raw, axis=0)
    return (raw / total, total), clamped


def correction(kernel):
    return kernel.correction_sign * 0.5 * kernel.levels**2 / kernel.beta**2


def zakai_ito(kernel):
    generator, levels, beta, dt = kernel.generator, kernel.levels, kernel.beta, kernel.dt

    def step(state, dy):
        psi = state[0]
        return rescale(psi + dt * (psi @ generator) + psi * levels * (dy / beta**2))

    return step, list


def zakai_langevin(kernel):
    generator, levels, dt, drift = kernel.generator, kernel.levels, kernel.dt, correction(kernel)

    def step(state, dy):
        diag = dy / dt / kernel.beta**2 * levels + drift
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
    levels_sq, beta_sq, sign = levels**2, kernel.beta**2, kernel.correction_sign

    def field(probs, rate):
        xbar = np.add.reduce(probs * levels, axis=0)
        second_moment = np.add.reduce(probs * levels_sq, axis=0)
        drift = 0.5 * probs * (levels_sq - second_moment) / beta_sq
        return probs @ generator + sign * drift + (levels - xbar) * probs * (rate / beta_sq)

    def step(state, dy):
        rate = dy / dt
        probs = state[0]
        now = field(probs, rate)
        predictor = probs + dt * now
        return rescale(probs + 0.5 * dt * (now + field(predictor, rate)))

    return step, list


def gamma(kernel):
    forward, backward, levels, dt = (kernel.step_forward, kernel.step_backward, kernel.levels,
                                     kernel.dt)

    def step(state, dy):
        diag = dy / dt / kernel.beta**2 * levels
        psi = state[0]
        now = psi * diag
        predictor = psi + dt * now
        after = backward @ (diag * (forward @ predictor))
        return rescale(forward @ (psi + 0.5 * dt * (now + after)))

    return step, list


def log(kernel):
    connected, rates, dt = kernel.rates > 0, kernel.rates, kernel.dt
    drift = -kernel.model.exit_rates + correction(kernel)

    def step(theta, dy):
        diffs = np.where(connected, theta[:, None] - theta, -np.inf)
        coupling = np.einsum("ij,ij->j", rates, np.exp(diffs))
        updated = theta + dt * (drift + coupling) + kernel.levels * (dy / kernel.beta**2)
        return updated - np.max(updated), 0

    return step, list


def telegraph(kernel):
    nu, dt, beta = float(kernel.model.rates[0, 1]), kernel.dt, kernel.beta

    def clamp(q):
        return min(max(q, -1.0), 1.0), int(q > 1.0 or q < -1.0)

    def ito(q, dy):
        spread = 1.0 - q * q
        return clamp(q + dt * (-2.0 * nu * q) - dt * q * spread / beta**2 + spread * dy / beta**2)

    def langevin(q, dy):
        rate = dy / dt
        now = -2.0 * nu * q + (1.0 - q * q) * rate / beta**2
        predictor = q + dt * now
        after = -2.0 * nu * predictor + (1.0 - predictor * predictor) * rate / beta**2
        return clamp(q + 0.5 * dt * (now + after))

    return (ito if kernel.scheme == "telegraph-ito" else langevin), list


def bayes_oracle(kernel):
    trans, dt, beta_sq = kernel.trans, kernel.dt, kernel.beta**2

    def step(probs, dy):
        log_post = np.log(probs @ trans) - (dy - kernel.levels * dt) ** 2 / (2.0 * beta_sq * dt)
        log_post -= np.max(log_post)
        post = np.exp(log_post)
        return post / np.add.reduce(post, axis=0), 0

    return step, list


REFERENCES = {
    "zakai-ito": zakai_ito,
    "zakai-langevin": zakai_langevin,
    "wonham-ito": wonham_ito,
    "wonham-langevin": wonham_langevin,
    "log": log,
    "gamma": gamma,
    "telegraph-ito": telegraph,
    "telegraph-langevin": telegraph,
    "bayes-oracle": bayes_oracle,
}


def reference_run(kernel, start, dy):
    """The states of a plain loop of the reference step, through ``probs``,
    with the clamp count and the pre-sum statistics: the largest |presum - 1|
    and the largest per-replica total, summed left to right."""
    step, prepare = REFERENCES[kernel.scheme](kernel)
    if dy.ndim == 2:  # R copies of the start, states-first
        start = np.tile(start[0][:, None], dy.shape[1]), np.full(dy.shape[1], start[1])
    history, state, clamps = [start], start, 0
    with np.errstate(**QUIET):
        for inputs in prepare(dy):
            state, clamped = step(state, inputs)
            clamps += clamped
            history.append(state)
        if isinstance(start, tuple):
            states, sums = np.array([s[0] for s in history]), np.array([s[1] for s in history])
        else:
            states, sums = np.array(history), None
        presums = (0.0, 0.0)
        if kernel.carries_presum:
            devs = np.abs(sums - 1.0).reshape(len(sums), -1)
            totals = []
            for column in devs.T.tolist():
                total = 0.0
                for dev in column:
                    total += dev
                totals.append(total)
            presums = (float(devs.max()), max(totals))
        probs, extras = kernel.probs(states, sums)
    if dy.ndim == 2:
        probs = probs.transpose(0, 2, 1)
    return probs, extras, clamps, presums


def assert_is_the_reference_run(run, kernel, start, dy):
    """Bit for bit: the rows of ``run`` (its final row alone when it keeps
    only that), their extras, the clamps and the pre-sum statistics are
    those of :func:`reference_run`."""
    probs, extras, clamps, presums = reference_run(kernel, start, dy)
    rows = slice(-len(run.probs), None)
    assert bits(run.probs) == bits(probs[rows])
    assert run.extras.keys() == extras.keys()
    for name in extras:
        assert bits(run.extras[name]) == bits(extras[name][rows]), name
    assert (run.clamps, run.presum_max_dev, run.presum_total_dev) == (clamps, *presums)


@pytest.mark.parametrize("case", CASES, ids=str)
@settings(max_examples=12, deadline=None)
@given(k=st.integers(1, 8), beta=st.floats(0.3, 2.0), seed=st.integers(0, 2**32 - 1),
       correction_sign=st.sampled_from([-1, 1]),
       sign_variant=st.sampled_from(["innovation", "paper"]))
def test_run_steps_equals_the_reference_loop_bitwise(case, k, beta, seed, correction_sign,
                                                     sign_variant):
    rng = np.random.default_rng(seed)
    if case.scheme.startswith("telegraph"):
        model = telegraph_model(rng.uniform(0.05, 3.0), initial_dist=rng.dirichlet([1.0, 1.0]))
    else:
        model = random_model(rng, k)
    kernel = KERNELS[case.scheme](model, DT, beta, correction_sign, sign_variant)
    start = kernel.start()
    shape = (300,) if case.replicas is None else (300, case.replicas)
    dy = random_increments(rng, model, beta, DT, shape)
    run = runner(case.kept)(kernel, start, dy)
    assert len(run.probs) == (301 if case.kept else 1)
    assert_is_the_reference_run(run, kernel, start, dy)


# ---------------------------------------------------------------------------
# the public R=1 step functions: drive rows bit for bit, the model's K, and
# the failures of a run


def public(scheme, model, beta=BETA, dt=DT, correction_sign=-1, sign_variant="innovation"):
    """The public R=1 step function of ``scheme`` as ``(start, step, row)``:
    its state at t=0 on ``model``, ``step(state, dy, model)``, and a state's
    probability row with the scheme's extra (None where it keeps none)."""
    weights = init_unnormalized(model)
    if scheme in ("zakai-ito", "zakai-langevin"):
        def step(state, dy, m):
            if scheme == "zakai-ito":
                return zakai_ito_step(state, m, beta, dt, dy)
            return zakai_langevin_step(state, m, beta, dt, dy, correction_sign)

        return weights, step, lambda s: (s.psi / s.psi.sum(), s.log_repr)
    if scheme in ("wonham-ito", "wonham-langevin"):
        def step(state, dy, m):
            if scheme == "wonham-ito":
                return wonham_step(state, m, beta, dt, dy, sign_variant)
            return wonham_langevin_step(state, m, beta, dt, dy, correction_sign)

        return FilterState(probs=model.initial_dist), step, lambda s: (s.probs, None)
    if scheme == "log":
        def row(state):
            shifted = np.exp(state.theta - state.theta.max())
            return shifted / shifted.sum(), state.theta

        theta = np.log(weights.psi)
        return (LogState(theta=theta - theta.max()),
                lambda s, dy, m: log_step(s, m, beta, dt, dy, correction_sign), row)
    if scheme == "gamma":
        return (to_gamma(weights, drift_matrix(model, beta, correction_sign), t=0.0),
                lambda s, dy, m: gamma_langevin_step(s, m, beta, dt, dy),
                lambda s: (s.psi / s.psi.sum(), None))
    if scheme == "bayes-oracle":
        return (DiscreteBayesState(probs=model.initial_dist),
                lambda s, dy, m: bayes_forward_step(s, m, dt, dy, beta),
                lambda s: (s.probs, None))
    telegraph_step = telegraph_ito_step if scheme == "telegraph-ito" else telegraph_langevin_step
    nu = float(model.rates[0, 1])
    return (TelegraphState(q=float(model.initial_dist[0] - model.initial_dist[1])),
            lambda s, dy, m: telegraph_step(s, nu, beta, dt, dy),
            lambda s: ([(1.0 + s.q) / 2.0, (1.0 - s.q) / 2.0], s.q))


def state_array(state):
    """The array (or float) of a public step state, or of a kernel state."""
    if isinstance(state, tuple):
        return state[0]
    for name in ("psi", "probs", "theta", "q"):
        if hasattr(state, name):
            return getattr(state, name)
    return state


@pytest.mark.parametrize("scheme", KERNELS)
def test_a_public_step_is_a_one_step_run(scheme):
    # from the model's initial law, over a benign increment and over
    # increments at which the schemes that floor do (4 beta**2 / max|a| = 1)
    model = model_of(scheme)
    start, step, _ = public(scheme, model)
    kernel = build(scheme)
    for dy in (0.01, 1.0, -1.0):
        stepped = step(start, dy, model)
        run = run_steps(kernel, kernel.start(), np.array([dy]))
        assert bits(state_array(stepped)) == bits(state_array(run.state))
        assert getattr(stepped, "clamps", 0) == run.clamps
        assert (run.clamps > 0) == (scheme in CLAMPING and dy != 0.01)
    if scheme == "telegraph-ito":
        # the Euler step's q overflows and is clamped to 1: a finite state
        run = run_steps(kernel, kernel.start(), np.array([1e308]))
        assert (step(start, 1e308, model).q, run.state, run.clamps) == (1.0, 1.0, 1)
        return
    with pytest.raises(FilterInstabilityError) as from_run:
        check_run(run_steps(kernel, kernel.start(), np.array([1e308])))
    with pytest.raises(FilterInstabilityError) as from_step:
        step(start, 1e308, model)
    assert str(from_step.value) == str(from_run.value)


@pytest.mark.parametrize("scheme", KERNELS)
@settings(max_examples=10, deadline=None)
@given(k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       correction_sign=st.sampled_from([-1, 1]),
       sign_variant=st.sampled_from(["innovation", "paper"]))
def test_each_public_step_is_its_drive_row_bitwise(scheme, k, seed, correction_sign,
                                                   sign_variant):
    # a random model, and a step inside the README's sensible-step rule
    rng = np.random.default_rng(seed)
    if scheme.startswith("telegraph"):
        model = telegraph_model(rng.uniform(0.05, 3.0), initial_dist=rng.dirichlet([1.0, 1.0]))
    else:
        model = random_model(rng, k)
    beta = float(rng.uniform(0.3, 1.0))
    a_max = max(float(np.abs(model.levels).max()), 1e-3)
    dt = 0.1 * min(beta**2 / a_max**2, 1.0 / float(model.exit_rates.max(initial=1e-3)))
    dy = model.levels[0] * dt + beta * np.sqrt(dt) * rng.standard_normal(40)
    state, step, row = public(scheme, model, beta, dt, correction_sign, sign_variant)
    rows = [row(state)]
    for increment in dy:
        state = step(state, increment, model)
        rows.append(row(state))
    kernel = KERNELS[scheme](model, dt, beta, correction_sign, sign_variant)
    run = run_history(kernel, kernel.start(), dy)
    assert bits(run.probs) == bits([probs for probs, _ in rows])
    assert run.clamps == getattr(state, "clamps", 0)
    extras = [extra for _, extra in rows]
    assert len(run.extras) == (extras[0] is not None)
    for name in run.extras:
        assert bits(run.extras[name]) == bits(extras), name


@pytest.mark.parametrize("scheme", KERNELS)
def test_a_public_step_refuses_another_k_and_fails_as_a_run_does(scheme):
    model = model_of(scheme)
    start, step, _ = public(scheme, model)
    if not scheme.startswith("telegraph"):  # the telegraph steps take no model
        # by run_steps, after the kernel is built; gamma checks it before any
        # kernel or propagator is built, as it builds exp(+-A dt) from the state
        with pytest.raises(ValueError, match="K=3 entries but the model has K=2 states"):
            step(start, 0.01, TELEGRAPH)
    with pytest.raises(ValueError, match="observation increments must be finite"):
        step(start, np.nan, model)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if scheme == "telegraph-ito":
            # the Euler step's q overflows and is clamped to 1: a finite state
            stepped = step(start, 1e308, model)
            assert (stepped.q, stepped.clamps) == (1.0, 1)
        else:
            # the run-failure type, not ValueError from the state's construction
            with pytest.raises(FilterInstabilityError):
                step(start, 1e308, model)
    assert [str(w.message) for w in caught] == []
