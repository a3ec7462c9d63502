import os

import numpy as np
import pytest

from jumpfilter import (
    ChainModel,
    DiscreteBayesState,
    bayes_forward_step,
    pathspace_expectation,
    telegraph_model,
    tower_property_check,
    transition_matrix,
)
from jumpfilter import oracle
from jumpfilter.harness import ExperimentConfig, run_trajectory, simulate_pair
from jumpfilter.kernels import FilterInstabilityError, WonhamIto, check_run, run_steps
from jumpfilter.oracle import _ordered_times, _state_sequences
from jumpfilter.seeding import ROLE_JUMP, ROLE_NOISE, derive_states
from jumpfilter.signalpath import coarsen

TELEGRAPH = telegraph_model(1.0)
THREE_STATE = ChainModel(
    levels=[0.9, 0.25, -0.6],
    rates=[[0.0, 0.6, 0.3], [0.2, 0.0, 0.8], [0.5, 0.4, 0.0]],
    initial_dist=[0.5, 0.3, 0.2],
)
# state 3 has exit rate 0 and starts with mass 0.3, so paths end there early
ABSORBING = ChainModel(
    levels=[1.0, -0.5, 0.2],
    rates=[[0.0, 0.8, 0.4], [0.6, 0.0, 0.5], [0.0, 0.0, 0.0]],
    initial_dist=[0.4, 0.3, 0.3],
)

# (model, horizon, dt, beta, replicas, master seed) -> (z_scores, mean_terminal,
# mse_filter, mse_const, mse_margin_se), recorded with the first implementation
# of the check: one rng.choice per state draw and one rng.exponential per
# holding time, and the batch held replicas-first as an (R, K) array.
TOWER_PINS = [
    ((TELEGRAPH, 0.2, 1e-2, 0.5, 120, 6),
     ([0.2851892653657731, -0.2851892653649254], [0.5079181618610392, 0.4920818381389608],
      0.478150164028094, 1.0, 8.549298260731733)),
    ((TELEGRAPH, 1.0, 1e-3, 0.5, 300, 3),
     ([-0.0832052373749199, 0.0832052373758924], [0.4984041759602095, 0.5015958240397905],
      0.5887477614590215, 1.0, 8.080636005958086)),
    ((THREE_STATE, 0.5, 1e-2, 0.7, 150, 7),
     ([-0.7234430344855508, 0.9391849048348673, 0.5274747604742522],
      [0.38420443126653986, 0.3273628328321658, 0.2884327359012939],
      0.3470578908578087, 0.41122099455192757, 2.878664452993469)),
    # recorded with one generator seeded per replica and role, one JumpPath each
    ((ABSORBING, 1.0, 1e-2, 0.6, 200, 11),
     ([0.026567734027112145, 0.8697483121489252, -1.1508123958361367],
      [0.21359646634090315, 0.24279621449196997, 0.5436073191671267],
      0.21482729019013833, 0.2582609681696883, 3.056264974872089)),
]


# a K=8 chain with random rates, as the benchmark's filter-k8 model
K8 = ChainModel(
    levels=np.linspace(-1.0, 1.0, 8),
    rates=np.random.default_rng(0).uniform(0.1, 1.0, (8, 8)),
    initial_dist=np.full(8, 0.125),
)
# (model, horizon, dt, beta, replicas, master seed) of tower checks that fail:
# beta=0.05 clamps ~1 in 3 replica-steps; levels of 1e7 leave the pre-sum of
# a clamped step off by ~4e-5
CLAMPING = (TELEGRAPH, 0.5, 2e-2, 0.05, 120, 0)
PRESUM_OFF = (ChainModel(levels=[1e7, -3.7e6, 1.1e6], rates=np.ones((3, 3)),
                         initial_dist=[0.2, 0.3, 0.5]), 0.1, 1e-2, 1.0, 120, 0)


def report_values(report) -> tuple:
    return (report.z_scores.tolist(), report.mean_terminal.tolist(), report.mse_filter,
            report.mse_const, report.mse_margin_se)


class TestBayesForward:
    def test_flat_likelihood_is_one_transition_application(self):
        state = DiscreteBayesState(probs=np.array([0.7, 0.3]))
        stepped = bayes_forward_step(state, TELEGRAPH, 0.05, dy=0.01, beta=1e6)
        expected = state.probs @ transition_matrix(TELEGRAPH, 0.05)
        assert np.abs(stepped.probs - expected).max() <= 1e-12

    def test_single_state_posterior_fixed(self):
        model = ChainModel(levels=[2.0], rates=[[0.0]], initial_dist=[1.0])
        state = DiscreteBayesState(probs=np.array([1.0]))
        assert bayes_forward_step(state, model, 0.1, 0.5, 0.5).probs[0] == 1.0

    def test_informative_increment_moves_mass_toward_matching_level(self):
        state = DiscreteBayesState(probs=np.array([0.5, 0.5]))
        dt = 1e-2
        up = bayes_forward_step(state, TELEGRAPH, dt, dy=+3 * dt, beta=0.5)
        down = bayes_forward_step(state, TELEGRAPH, dt, dy=-3 * dt, beta=0.5)
        assert up.probs[0] > 0.5 > down.probs[0]

    def test_tracks_wonham_under_refinement(self):
        cfg = ExperimentConfig(model=TELEGRAPH, horizon=2.0, dt=25e-5, beta=0.5, master_seed=6)
        _, fine = simulate_pair(cfg)
        errors = []
        for factor in (8, 4, 2, 1):
            grid = coarsen(fine, factor)
            bayes = run_trajectory(TELEGRAPH, grid, "bayes-oracle")
            won = run_trajectory(TELEGRAPH, grid, "wonham-ito")
            errors.append(np.abs(bayes.probs - won.probs).max())
        assert errors[-1] <= 0.65 * errors[0]

    @pytest.mark.parametrize("trans", [[[2.0, -1.0], [0.0, 1.0]], [[0.5, 0.5], [np.nan, 1.0]],
                                       np.eye(3)], ids=["negative", "nan", "3x3"])
    def test_given_transition_matrix_is_checked(self, trans):
        # [[2, -1], [0, 1]] used to give probs [1, 0] with no error
        state = DiscreteBayesState(probs=[0.5, 0.5])
        with pytest.raises(ValueError, match="trans must be a"):
            bayes_forward_step(state, TELEGRAPH, 1e-3, 0.01, 0.5, trans=trans)

    def test_zero_prior_states_stay_at_zero_probability(self):
        with pytest.warns(UserWarning, match="floored"):
            absorbing = ChainModel(
                levels=[1.0, -1.0], rates=[[0.0, 0.0], [0.0, 0.0]], initial_dist=[1.0, 0.0]
            )
        state = DiscreteBayesState(probs=np.array([1.0, 0.0]))
        stepped = bayes_forward_step(state, absorbing, 0.01, 0.0, 0.5)
        assert stepped.probs[1] == 0.0

    @pytest.mark.parametrize("step", [-3, 1.5, "2", True, None])
    def test_step_must_be_a_nonnegative_integer(self, step):
        # step=-3 used to be accepted
        with pytest.raises(ValueError, match="step must be a nonnegative integer"):
            DiscreteBayesState(probs=[0.5, 0.5], step=step)

    @pytest.mark.parametrize("probs", [[np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0]])
    def test_nonfinite_posterior_rejected(self, probs):
        # abs(nan - 1) > 1e-12 is False, so the sum test alone let NaN through
        with pytest.raises(ValueError, match="finite"):
            DiscreteBayesState(probs=probs)


class TestPathspace:
    def grid(self, horizon=0.2, dt=0.01, seed=0, model=TELEGRAPH):
        cfg = ExperimentConfig(model=model, horizon=horizon, dt=dt, beta=0.5, master_seed=seed)
        return simulate_pair(cfg)[1]

    def test_zero_jump_term_hand_formula(self):
        # no jumps: density e^{-nu T}, weight exp(-a^2 T/(2 b^2) + a y(T)/b^2)
        grid = self.grid()
        result = pathspace_expectation(TELEGRAPH, grid, 0.2, 0, 8, max_truncation=1.0)
        y_total, horizon, beta2 = grid.dy.sum(), 0.2, 0.25
        hand = (
            TELEGRAPH.initial_dist
            * np.exp(-1.0 * horizon)
            * np.exp(-horizon / (2 * beta2) + TELEGRAPH.levels * y_total / beta2)
        )
        assert result.unnormalized == pytest.approx(hand, rel=1e-14)

    def test_flat_weight_recovers_unconditional_law(self):
        # equal zero levels: the observation exponent is exactly 0, so the
        # weights are the bare path probabilities
        model = ChainModel(levels=[0.0, 0.0], rates=TELEGRAPH.rates, initial_dist=[0.8, 0.2])
        grid = self.grid(model=model)
        result = pathspace_expectation(model, grid, 0.2, 2, 24, max_truncation=2e-3)
        target = model.initial_dist @ transition_matrix(model, 0.2)
        assert np.abs(result.probs - target).max() <= result.truncation_bound + 1e-6

    def test_matches_unnormalized_filter(self):
        grid = self.grid(dt=1e-4, seed=0)
        result = pathspace_expectation(TELEGRAPH, grid, 0.2, 2, 24, max_truncation=2e-3)
        ito = run_trajectory(TELEGRAPH, grid, "zakai-ito")
        assert np.abs(result.probs - ito.probs[-1]).max() <= 1e-2

    def test_quadrature_converged_on_smooth_grid(self):
        grid = self.grid(dt=0.01)
        base = pathspace_expectation(TELEGRAPH, grid, 0.2, 2, 24, max_truncation=2e-3)
        double = pathspace_expectation(TELEGRAPH, grid, 0.2, 2, 48, max_truncation=2e-3)
        assert np.abs(double.probs - base.probs).max() <= 1e-3

    def test_extra_jump_class_changes_less_than_reported_bound(self):
        grid = self.grid(dt=1e-4)
        two = pathspace_expectation(TELEGRAPH, grid, 0.2, 2, 24, max_truncation=2e-3)
        three = pathspace_expectation(TELEGRAPH, grid, 0.2, 3, 24, max_truncation=2e-3)
        assert np.abs(three.probs - two.probs).max() < two.truncation_bound

    def test_truncation_bound_value(self):
        # Poisson(0.2) mass beyond 2 jumps: 1 - e^-0.2 (1 + 0.2 + 0.02)
        grid = self.grid()
        result = pathspace_expectation(TELEGRAPH, grid, 0.2, 2, 8, max_truncation=2e-3)
        expected = 1.0 - np.exp(-0.2) * 1.22
        assert result.truncation_bound == pytest.approx(expected, rel=1e-12)

    def test_refusals(self):
        grid = self.grid()
        four_state = ChainModel(
            levels=[1.0, 2.0, 3.0, 4.0],
            rates=np.ones((4, 4)),
            initial_dist=[0.25, 0.25, 0.25, 0.25],
        )
        with pytest.raises(ValueError, match="K <= 3"):
            pathspace_expectation(four_state, grid, 0.2, 2, 8)
        with pytest.raises(ValueError, match="max_jumps"):
            pathspace_expectation(TELEGRAPH, grid, 0.2, 5, 8)
        with pytest.raises(ValueError, match="exceeds max_truncation"):
            # default threshold 1e-4 refuses the omitted mass of 1.15e-3
            pathspace_expectation(TELEGRAPH, grid, 0.2, 2, 8)

    @pytest.mark.parametrize("name, value", [
        ("max_jumps", 1.5), ("max_jumps", True), ("max_jumps", -1), ("max_jumps", "2"),
        ("quad_points", 1.5), ("quad_points", True), ("quad_points", 0), ("quad_points", None),
    ])
    def test_counts_must_be_integers_in_range(self, name, value):
        # 1.5 used to raise TypeError, True ran as 1, and quad_points=0 gave
        # numpy's "deg must be a positive integer"
        counts = {"max_jumps": 2, "quad_points": 8, name: value}
        with pytest.raises(ValueError, match=name):
            pathspace_expectation(TELEGRAPH, self.grid(), 0.2, **counts, max_truncation=1.0)

    def test_counts_take_numpy_integers(self):
        grid = self.grid()
        plain = pathspace_expectation(TELEGRAPH, grid, 0.2, 2, 8, max_truncation=2e-3)
        typed = pathspace_expectation(TELEGRAPH, grid, 0.2, np.int64(2), np.int32(8),
                                      max_truncation=2e-3)
        assert np.array_equal(typed.unnormalized, plain.unnormalized)

    @pytest.mark.parametrize("horizon, message", [
        (0.155, "does not divide"), (0.3, "end of the grid"), (np.inf, "finite step count"),
    ])
    def test_horizon_must_be_whole_steps_within_the_grid(self, horizon, message):
        # an infinite horizon used to overflow in int(round(horizon / dt))
        with pytest.raises(ValueError, match=message):
            pathspace_expectation(TELEGRAPH, self.grid(), horizon, 2, 8, max_truncation=1.0)

    def test_state_sequences_enumeration(self):
        # telegraph: exactly one alternating sequence per (start, parity)
        assert list(_state_sequences(TELEGRAPH.rates, 0, 0, 0)) == [(0,)]
        assert list(_state_sequences(TELEGRAPH.rates, 0, 1, 1)) == [(0, 1)]
        assert list(_state_sequences(TELEGRAPH.rates, 0, 0, 2)) == [(0, 1, 0)]
        assert list(_state_sequences(TELEGRAPH.rates, 0, 0, 1)) == []

    def test_ordered_time_quadrature_integrates_simplex_volume(self):
        # integral of 1 over 0 < t1 < t2 < t3 < T is T^3 / 6
        nodes, weights = np.polynomial.legendre.leggauss(8)
        nodes, weights = 0.5 * (nodes + 1.0), 0.5 * weights
        _, combined = _ordered_times(2.0, nodes, weights, 3)
        assert combined.sum() == pytest.approx(2.0**3 / 6.0, rel=1e-12)


class TestTowerProperty:
    def test_telegraph_unbiased_and_filter_beats_constant(self):
        report = tower_property_check(TELEGRAPH, 0.5, 1e-3, 0.5, 300, master_seed=3)
        assert np.all(np.abs(report.z_scores) <= 4.0)
        assert report.mse_filter < report.mse_const
        assert report.mse_margin_se >= 3.0

    def test_uninformative_levels_give_exact_zeros(self):
        # stationary start + equal levels: every replica returns the prior,
        # so the deviation and the spread are both zero
        model = ChainModel(levels=[0.4, 0.4], rates=TELEGRAPH.rates, initial_dist=[0.5, 0.5])
        report = tower_property_check(model, 0.5, 1e-2, 0.5, 120, master_seed=4)
        assert np.array_equal(report.z_scores, [0.0, 0.0])

    def test_single_state_exact_zeros(self):
        model = ChainModel(levels=[1.5], rates=[[0.0]], initial_dist=[1.0])
        report = tower_property_check(model, 0.5, 1e-2, 0.5, 120, master_seed=5)
        assert np.array_equal(report.z_scores, [0.0])

    def test_replica_count_floor(self):
        with pytest.raises(ValueError):
            tower_property_check(TELEGRAPH, 0.5, 1e-2, 0.5, 50, master_seed=0)

    @pytest.mark.parametrize("n_replicas", [1000.0, np.float64(120.0), 150.5, "1000"])
    def test_non_integral_replica_count_rejected(self, n_replicas):
        # 1000.0 used to escape as TypeError: slice indices must be integers
        with pytest.raises(ValueError, match="n_replicas must be an integer of at least 100"):
            tower_property_check(TELEGRAPH, 0.5, 1e-2, 0.5, n_replicas, master_seed=0)

    @pytest.mark.parametrize("master_seed", [np.int64(6), np.int32(6), np.uint64(6)])
    def test_numpy_integer_seed_gives_the_int_report(self, master_seed):
        # np.int64 and np.int32 used to raise OverflowError
        case = (TELEGRAPH, 0.2, 1e-2, 0.5, 120)
        assert (report_values(tower_property_check(*case, master_seed))
                == report_values(tower_property_check(*case, 6)))

    @pytest.mark.parametrize("master_seed", [1.5, 3.0, "3", True, np.bool_(True), None])
    def test_non_integer_seed_rejected(self, master_seed, monkeypatch):
        # 1.5 used to escape as TypeError from &; nothing is derived first
        monkeypatch.setattr(oracle, "derive_states", None)
        with pytest.raises(ValueError, match="master_seed must be an integer"):
            tower_property_check(TELEGRAPH, 0.5, 1e-2, 0.5, 120, master_seed)

    def test_replica_steps_over_the_budget_rejected(self, monkeypatch):
        # 120 replicas of 50 steps are 6000 replica-steps; no seed is derived
        monkeypatch.setattr(oracle, "derive_states", None)
        monkeypatch.setattr(oracle, "STEP_BUDGET", 5999)
        with pytest.raises(ValueError, match="n_replicas=120 .* budget"):
            tower_property_check(TELEGRAPH, 0.5, 1e-2, 0.5, 120, master_seed=0)
        monkeypatch.undo()
        monkeypatch.setattr(oracle, "STEP_BUDGET", 6000)
        tower_property_check(TELEGRAPH, 0.5, 1e-2, 0.5, 120, master_seed=0)

    @pytest.mark.parametrize("horizon, dt", [(np.inf, 1e-2), (np.nan, 1e-2), (0.5, np.nan),
                                             (0.5, 0.0)])
    def test_nonfinite_step_count_rejected(self, horizon, dt):
        # an infinite horizon used to overflow in int(round(horizon / dt))
        with pytest.raises(ValueError, match="finite step count"):
            tower_property_check(TELEGRAPH, horizon, dt, 0.5, 100, master_seed=0)

    @pytest.mark.parametrize("case, expected", TOWER_PINS)
    def test_report_pinned_bit_for_bit(self, case, expected):
        assert report_values(tower_property_check(*case)) == expected


class TestBlockJoin:
    """``check_run(*runs)`` joins the final-state runs of replica blocks and
    checks them as the one batch they split."""

    @staticmethod
    def block_runs(case, edges):
        model, horizon, dt, beta, replicas, seed = case
        kernel = WonhamIto(model, dt, beta)
        noise = derive_states(seed, replicas, ROLE_NOISE)
        jumps = derive_states(seed, replicas, ROLE_JUMP)
        return [oracle._replica_block((kernel, horizon, noise[lo:hi], jumps[lo:hi]))[0]
                for lo, hi in zip(edges, edges[1:])]

    @pytest.mark.parametrize("case", [TOWER_PINS[2][0], (K8, 0.5, 1e-2, 0.5, 200, 4)])
    def test_joined_blocks_equal_the_one_batch(self, case):
        replicas = case[4]
        joined = check_run(*self.block_runs(case, [0, 37, 100, replicas]))
        batch = check_run(*self.block_runs(case, [0, replicas]))
        assert np.array_equal(joined.probs, batch.probs)
        assert joined.probs.shape == (1, replicas, case[0].n_states)
        assert (joined.clamps, joined.presum_max_dev, joined.presum_total_dev) == (
            batch.clamps, batch.presum_max_dev, batch.presum_total_dev)
        assert joined.extras == batch.extras == {}

    @pytest.mark.parametrize("bad_block", [0, 1])
    @pytest.mark.parametrize("beta, dy, match", [
        # the observed level at beta=0.05 clamps one of the batch's 100 replica-steps
        (0.05, 0.02, "1 clamp events over 100 steps"),
        # a gain of ~1e16 rounds the sum of the first raw step away from 1
        (1e-9, 0.02, "pre-renormalization sum"),
    ], ids=["clamps", "presum"])
    def test_a_failing_block_fails_as_the_one_batch(self, beta, dy, match, bad_block):
        # two blocks of two replicas; the one replica that observes the level
        # fails, the others see zero increments and stay at (1/2, 1/2)
        kernel = WonhamIto(TELEGRAPH, 2e-2, beta)
        increments = np.zeros((25, 4))
        increments[:, 2 * bad_block + 1] = dy
        failures = []
        for edges in ([0, 4], [0, 2, 4]):
            runs = [run_steps(kernel, kernel.start(), increments[:, lo:hi])
                    for lo, hi in zip(edges, edges[1:])]
            with pytest.raises(FilterInstabilityError, match=match) as raised:
                check_run(*runs)
            failures.append((type(raised.value), str(raised.value)))
        assert failures[0] == failures[1]


class TestTowerFanOut:
    """With the replica floor lowered, the replica blocks of a tower check fan
    out over forked workers; reports and failures are those of one batch."""

    @pytest.fixture
    def block_pids(self, tmp_path, monkeypatch):
        """Lower the floor to 40 replicas, and make each replica block append
        its pid to the returned file; forked workers inherit the patch."""
        monkeypatch.setattr(oracle, "REPLICA_FLOOR", 40)
        log = tmp_path / "pids.log"
        block = oracle._replica_block

        def traced(task):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return block(task)

        monkeypatch.setattr(oracle, "_replica_block", traced)
        return log

    @pytest.mark.parametrize("case", [case for case, _ in TOWER_PINS]
                             + [(K8, 0.5, 1e-2, 0.5, 200, 4)])
    def test_report_does_not_depend_on_the_cpu_count(self, case, block_pids, set_cpus):
        reports = {}
        for cpus in (1, 2, 3):
            set_cpus(cpus)
            reports[cpus] = report_values(tower_property_check(*case))
            pids = block_pids.read_text().split()
            block_pids.unlink()
            # one block per CPU, in this process only for one CPU
            assert len(pids) == cpus
            assert (str(os.getpid()) in pids) == (cpus == 1)
        assert reports[1] == reports[2] == reports[3]

    @pytest.mark.parametrize("case, match", [(CLAMPING, "clamp events over 3000 steps"),
                                             (PRESUM_OFF, "pre-renormalization sum")])
    def test_failure_does_not_depend_on_the_cpu_count(self, case, match, block_pids,
                                                      set_cpus):
        failures = {}
        for cpus in (1, 2):
            set_cpus(cpus)
            with pytest.raises(FilterInstabilityError, match=match) as raised:
                tower_property_check(*case)
            failures[cpus] = (type(raised.value), str(raised.value))
            assert len(block_pids.read_text().split()) == cpus
            block_pids.unlink()
        assert failures[1] == failures[2]

    @pytest.mark.parametrize("replicas, blocks", [(2 * oracle.REPLICA_FLOOR - 1, 1),
                                                  (2 * oracle.REPLICA_FLOOR, 2),
                                                  (4 * oracle.REPLICA_FLOOR, 3)])
    def test_each_worker_gets_at_least_the_floor(self, replicas, blocks, set_cpus,
                                                 monkeypatch):
        set_cpus(3)
        calls = []

        def in_this_process(function, tasks, workers):
            calls.append((len(tasks), workers))
            return map(function, tasks)

        monkeypatch.setattr(oracle, "fan_out", in_this_process)
        tower_property_check(TELEGRAPH, 0.1, 1e-2, 0.5, replicas, 0)
        assert calls == [(blocks, blocks)]
