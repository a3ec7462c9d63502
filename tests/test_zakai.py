import warnings

import numpy as np
import pytest

from jumpfilter import (
    ChainModel,
    GammaRangeError,
    UnnormalizedState,
    from_gamma,
    drift_matrix,
    init_unnormalized,
    log_step,
    telegraph_model,
    to_gamma,
    zakai_ito_step,
)
from jumpfilter.harness import ExperimentConfig, run_trajectory, simulate_pair
from jumpfilter.kernels import (Gamma, ZakaiLangevin, correction_diagonal, propagator_pair,
                                step_once)
from jumpfilter.signalpath import coarsen
from jumpfilter.zakai import (
    GammaState,
    LogState,
    gamma_langevin_step,
    ito_update,
)

TELEGRAPH = telegraph_model(1.0)
THREE_STATE = ChainModel(
    levels=[1.0, 0.0, -1.0],
    rates=[[0.0, 0.6, 0.3], [0.2, 0.0, 0.8], [0.5, 0.4, 0.0]],
    initial_dist=[0.5, 0.3, 0.2],
)


def single_state_model(level, nu=0.0):
    return ChainModel(levels=[level], rates=[[0.0]], initial_dist=[1.0])


def telegraph_grid(horizon=5.0, dt=1e-3, beta=0.5, seed=0):
    cfg = ExperimentConfig(model=TELEGRAPH, horizon=horizon, dt=dt, beta=beta, master_seed=seed)
    return simulate_pair(cfg)[1]


class TestInit:
    def test_uniform_initial(self):
        state = init_unnormalized(TELEGRAPH)
        assert np.array_equal(state.psi, [0.5, 0.5])
        assert state.log_normalizer == 0.0

    def test_point_mass_floored_with_warning(self):
        # the model warns once, when it is built; the start reads it silently
        with pytest.warns(UserWarning, match="floored"):
            model = telegraph_model(1.0, initial_dist=(1.0, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = init_unnormalized(model)
        assert state.psi[1] == 1e-300

    def test_a_run_from_a_law_with_a_zero_starts_from_the_floored_weights(self):
        # the unfloored law would give row 0 a log weight of -inf, and fail the run
        with pytest.warns(UserWarning, match="floored"):
            model = telegraph_model(1.0, initial_dist=(1.0, 0.0))
        run = run_trajectory(model, telegraph_grid(horizon=0.05), "zakai-ito")
        assert run.extras["log_weights"][0].tolist() == [0.0, np.log(1e-300)]

    def test_init_weights_recover_initial_dist(self):
        model = telegraph_model(1.0, initial_dist=(0.25, 0.75))
        psi = init_unnormalized(model).psi
        assert np.array_equal(psi / psi.sum(), model.initial_dist)

    def test_nonpositive_psi_rejected(self):
        with pytest.raises(ValueError):
            UnnormalizedState(psi=np.array([1.0, 0.0]))


class TestItoStep:
    def test_single_state_arithmetic(self):
        # K=1, a=2, nu=0, beta=1: pre-rescale update from psi=1 with
        # dy=0.1, dt=0.01 is 1 + 2*0.1 = 1.2
        model = single_state_model(2.0)
        raw = ito_update(np.array([1.0]), model.generator, model.levels, 1.0, 0.01, 0.1)
        assert raw[0] == pytest.approx(1.2, abs=1e-15)
        state = zakai_ito_step(UnnormalizedState(psi=np.array([1.0])), model, 1.0, 0.01, 0.1)
        assert state.psi[0] == 1.0  # rescaled back to unit sum
        assert state.log_normalizer == pytest.approx(np.log(1.2), abs=1e-15)

    def test_zero_levels_ignore_observations(self):
        model = ChainModel(levels=[0.0, 0.0], rates=TELEGRAPH.rates, initial_dist=[0.3, 0.7])
        state = UnnormalizedState(psi=np.array([0.3, 0.7]))
        a = zakai_ito_step(state, model, 0.5, 1e-2, 0.123)
        b = zakai_ito_step(state, model, 0.5, 1e-2, -4.56)
        assert np.array_equal(a.psi, b.psi)
        # and the step is plain forward-equation Euler
        euler = state.psi + 1e-2 * (state.psi @ model.generator)
        assert a.psi == pytest.approx(euler / euler.sum(), abs=1e-15)

    def test_matches_bayes_oracle_on_telegraph_run(self):
        grid = telegraph_grid(seed=0)
        ito = run_trajectory(TELEGRAPH, grid, "zakai-ito")
        bayes = run_trajectory(TELEGRAPH, grid, "bayes-oracle")
        assert np.abs(ito.probs - bayes.probs).max() <= 0.02

    def test_phi_dynamics_per_step(self):
        # pre-rescale sum changes by exactly sum_i a_i psi_i dy / beta^2:
        # the generator contributes nothing because its rows sum to zero
        rng = np.random.default_rng(5)
        beta = 0.5
        for _ in range(100):
            psi = rng.uniform(0.05, 1.0, size=2)
            psi /= psi.sum()
            dy = rng.normal(scale=0.05)
            raw = ito_update(psi, TELEGRAPH.generator, TELEGRAPH.levels, beta, 1e-3, dy)
            observed = raw.sum() - psi.sum()
            expected = (TELEGRAPH.levels * psi).sum() * dy / beta**2
            assert abs(observed - expected) <= 1e-12

    def test_no_clamps_on_benchmark(self):
        # stability region dt <= 0.1 min(beta^2/max a^2, 1/max nu): 1e-3 passes
        grid = telegraph_grid(horizon=100.0, dt=1e-3, seed=123)
        trajectory = run_trajectory(TELEGRAPH, grid, "zakai-ito")
        assert trajectory.clamps == 0


def langevin_kernel_step(model, beta, dt, dy, sign, psi):
    """One zakai-langevin kernel step from weights ``psi`` (log scale 0): the
    rescaled weights and the log normalizer that the run carries, the log of
    their sum before rescaling."""
    return step_once(ZakaiLangevin(model, dt, beta, sign), (psi, 0.0), dy)[0]


class TestLangevinStep:
    def test_zero_levels_signs_agree_and_equal_heun(self):
        model = ChainModel(levels=[0.0, 0.0], rates=TELEGRAPH.rates, initial_dist=[0.3, 0.7])
        psi = np.array([0.3, 0.7])
        minus = langevin_kernel_step(model, 0.5, 1e-2, 0.2, -1, psi)
        plus = langevin_kernel_step(model, 0.5, 1e-2, 0.2, +1, psi)
        assert np.array_equal(minus[0], plus[0]) and minus[1] == plus[1]
        q = model.generator

        def heun(v):
            pred = v + 1e-2 * (v @ q)
            return v + 0.5e-2 * (v @ q + pred @ q)

        expected = heun(psi)
        assert minus[0] == pytest.approx(expected / expected.sum(), abs=1e-16)
        assert minus[1] == pytest.approx(np.log(expected.sum()), abs=1e-16)

    def test_single_state_closed_form_local_error(self):
        # K=1, nu=0: the smooth-noise equation is scalar linear with constant
        # coefficient c = sign a^2/(2 beta^2) + a (dy/dt)/beta^2, so one exact
        # step multiplies by exp(c dt); Heun misses only the (c dt)^3/6 term
        model = single_state_model(2.0)
        beta, dt, dy = 1.0, 0.01, 0.1
        for sign in (-1, +1):
            c = sign * 0.5 * 4.0 + 2.0 * (dy / dt)
            weights, log_normalizer = langevin_kernel_step(model, beta, dt, dy, sign, np.ones(1))
            assert weights[0] == 1.0
            exact = np.exp(c * dt)
            assert abs(np.exp(log_normalizer) - exact) <= abs(c * dt) ** 3

    def test_wrong_sign_diverges_from_ito_in_log_weights(self):
        grid = telegraph_grid(horizon=1.0, seed=2)
        ito = run_trajectory(TELEGRAPH, grid, "zakai-ito")
        minus = run_trajectory(TELEGRAPH, grid, "zakai-langevin", correction_sign=-1)
        plus = run_trajectory(TELEGRAPH, grid, "zakai-langevin", correction_sign=+1)
        gap_minus = np.abs(minus.extras["log_weights"] - ito.extras["log_weights"]).max()
        gap_plus = np.abs(plus.extras["log_weights"] - ito.extras["log_weights"]).max()
        # +1 shifts the represented weights by about a^2 T / beta^2 = 4
        assert gap_plus >= 2.0
        assert gap_plus >= 10.0 * gap_minus

class TestLogStep:
    def test_decoupled_states_follow_closed_form(self):
        # zero rates: theta_j differences evolve exactly (drift is constant),
        # so Euler is exact for theta_1 - theta_2
        model = ChainModel(levels=[2.0, -1.0], rates=np.zeros((2, 2)), initial_dist=[0.5, 0.5])
        beta, dt = 0.7, 1e-2
        rng = np.random.default_rng(3)
        state = LogState(theta=np.zeros(2))
        diff_expected = 0.0
        for sign in (-1,):
            for _ in range(100):
                dy = rng.normal(scale=0.1)
                state = log_step(state, model, beta, dt, dy, sign)
                drift = (sign * 0.5 * model.levels**2 / beta**2) * dt + model.levels * dy / beta**2
                diff_expected += drift[0] - drift[1]
                assert state.theta[0] - state.theta[1] == pytest.approx(diff_expected, abs=1e-12)

    def test_every_theta_row_has_max_zero(self):
        # the start and every step shift theta so that its largest entry is 0
        run = run_trajectory(THREE_STATE, telegraph_grid(horizon=0.05), "log")
        assert (run.extras["theta"].max(axis=1) == 0.0).all()

    def test_symmetric_telegraph_stays_balanced(self):
        state = LogState(theta=np.array([0.0, 0.0]))
        stepped = log_step(state, TELEGRAPH, 0.5, 1e-3, 0.0)
        assert stepped.theta[0] == stepped.theta[1]

    def test_log_filter_tracks_unnormalized_filter(self):
        cfg = ExperimentConfig(model=TELEGRAPH, horizon=2.0, dt=25e-5, beta=0.5, master_seed=4)
        _, fine = simulate_pair(cfg)
        errors = []
        for factor in (8, 4, 1):
            grid = coarsen(fine, factor)
            logf = run_trajectory(TELEGRAPH, grid, "log", correction_sign=-1)
            ito = run_trajectory(TELEGRAPH, grid, "zakai-ito")
            errors.append(np.abs(logf.probs - ito.probs).max())
        assert errors[0] <= 0.02
        assert errors[-1] <= 0.5 * errors[0]


class TestGamma:
    def test_drift_matrix_structure(self):
        a = drift_matrix(TELEGRAPH, 0.5, -1)
        expected = TELEGRAPH.generator.T - 0.5 * np.eye(2) / 0.25
        assert a == pytest.approx(expected, abs=1e-15)
        # sign * (1/2) a^2 / beta^2, exact in binary for these levels and beta
        levels = np.array([1.0, -2.0, 0.5])
        assert correction_diagonal(levels, 0.5, -1).tolist() == [-2.0, -8.0, -0.5]

    def test_identity_at_time_zero(self):
        state = UnnormalizedState(psi=np.array([0.4, 0.6]))
        gamma = to_gamma(state, drift_matrix(TELEGRAPH, 0.5), t=0.0)
        assert gamma.gamma == pytest.approx(state.psi, abs=1e-15)

    def test_single_state_scalar_exponential(self):
        model = single_state_model(2.0)
        a = drift_matrix(model, 1.0, -1)  # scalar -a^2/(2 beta^2) = -2
        state = UnnormalizedState(psi=np.array([0.8]), t=1.5)
        gamma = to_gamma(state, a)
        assert gamma.gamma[0] == pytest.approx(0.8 * np.exp(2.0 * 1.5), rel=1e-12)

    def test_round_trip(self):
        # conditioning of the transform grows like exp(eigenvalue spread * t),
        # so "t <= 10" needs a mild spread; the benchmark drift matrix
        # (spread 2 nu = 2) is exercised up to t = 5
        rng = np.random.default_rng(21)
        cases = [
            (drift_matrix(TELEGRAPH, 0.5, -1), 5.0),
            (drift_matrix(telegraph_model(0.1), 0.5, -1), 10.0),
        ]
        for a, t_max in cases:
            for _ in range(20):
                psi = rng.uniform(0.05, 2.0, size=2)
                state = UnnormalizedState(
                    psi=psi, log_normalizer=rng.normal(), t=rng.uniform(0, t_max)
                )
                back = from_gamma(to_gamma(state, a))
                assert np.abs(back.psi - state.psi).max() <= 1e-10
                assert back.log_normalizer == state.log_normalizer

    def test_overflow_raises_and_advises(self):
        state = UnnormalizedState(psi=np.array([0.5, 0.5]), t=500.0)
        a = drift_matrix(TELEGRAPH, 0.05, -1)  # |A| ~ 200, t |A| ~ 1e5
        with pytest.raises(GammaRangeError, match="log-domain"):
            to_gamma(state, a)

    def test_infinite_a_t_raises_gamma_range_error(self):
        # A t overflows to inf: the propagators fail as a run (exit 3), not
        # with OverflowError from the scaling exponent of expm
        a = drift_matrix(TELEGRAPH, 0.5, -1)
        with pytest.raises(GammaRangeError, match="log-domain"):
            propagator_pair(a, 1e308)
        with pytest.raises(GammaRangeError, match="log-domain"):
            to_gamma(init_unnormalized(TELEGRAPH), a, t=1e308)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -1.0])
    def test_invalid_time_is_an_input_error(self, t):
        # a NaN or infinite t used to reach the propagators and raise
        # GammaRangeError, the run-failure type (exit 3)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            to_gamma(init_unnormalized(TELEGRAPH), drift_matrix(TELEGRAPH, 0.5), t=t)

    @pytest.mark.parametrize("a_matrix", [[[np.nan, 0.0], [0.0, 0.0]], [[0.0, 0.0]],
                                          np.zeros((3, 3)), "x", None],
                             ids=["nan", "1x2", "3x3", "str", "none"])
    def test_malformed_a_matrix_is_an_input_error(self, a_matrix):
        # NaN raised GammaRangeError (the run-failure type), a 1x2 matrix
        # numpy's matmul message, and a 3x3 one was accepted for a K=2 psi
        with pytest.raises(ValueError, match=r"a_matrix must be a finite \(2, 2\) matrix"):
            to_gamma(init_unnormalized(TELEGRAPH), a_matrix)

    @pytest.mark.parametrize("value", ["x", np.eye(3), np.full((2, 2), np.inf), [[1.0], [2.0]]],
                             ids=["str", "3x3", "inf", "2x1"])
    def test_gamma_state_checks_its_matrices(self, value):
        with pytest.raises(ValueError, match=r"a_matrix must be a finite \(2, 2\) matrix"):
            GammaState(psi=[0.5, 0.5], a_matrix=value)

    def test_state_keeps_read_only_matrices(self):
        # a_matrix used to alias the caller's array, so writing that array
        # changed A under the state
        mine = np.zeros((2, 2))
        state = GammaState(psi=[0.5, 0.5], t=0.1, a_matrix=mine)
        mine[0, 0] = 1.0
        assert not state.a_matrix.any()
        assert mine.flags.writeable
        for matrix in (state.a_matrix, state.forward, state.backward):
            assert not matrix.flags.writeable

    def test_overflowing_propagators_raise_when_read(self):
        # the state holds A and t; exp(+-A t) is computed when first read
        a = drift_matrix(TELEGRAPH, 0.05, -1)
        state = GammaState(psi=[0.5, 0.5], t=500.0, a_matrix=a)
        with pytest.raises(GammaRangeError, match="log-domain"):
            state.gamma
        with pytest.raises(GammaRangeError, match="log-domain"):
            state.forward

    @pytest.mark.parametrize("model", [TELEGRAPH, THREE_STATE], ids=["telegraph", "three-state"])
    def test_round_trip_after_many_public_steps(self, model):
        # the step used to advance exp(+-A t) by one product each, and after
        # 1000 steps from_gamma came back ~1e-13 off the weights it stepped
        beta, dt = 0.5, 1e-3
        state = to_gamma(init_unnormalized(model), drift_matrix(model, beta), t=0.0)
        dy = beta * np.sqrt(dt) * np.random.default_rng(3).standard_normal(1000)
        for increment in dy:
            state = gamma_langevin_step(state, model, beta, dt, increment)
        assert np.abs(from_gamma(state).psi - state.psi).max() <= 1e-14

    def test_non_finite_step_propagator_raises_when_kernel_is_built(self):
        with pytest.raises(GammaRangeError, match="log-domain"):
            Gamma(TELEGRAPH, 500.0, 0.05)

    def test_given_step_propagators_match_computed_ones(self):
        a = drift_matrix(TELEGRAPH, 0.5, -1)
        state = to_gamma(UnnormalizedState(psi=np.array([0.3, 0.7]), t=0.4), a)
        forward, backward = propagator_pair(a, 1e-3)
        given = gamma_langevin_step(state, TELEGRAPH, 0.5, 1e-3, 0.02, forward, backward)
        computed = gamma_langevin_step(state, TELEGRAPH, 0.5, 1e-3, 0.02)
        assert np.array_equal(given.gamma, computed.gamma)
        assert np.array_equal(given.forward, computed.forward)

    @pytest.mark.parametrize("given", [
        {"step_forward": np.eye(2)},
        {"step_backward": np.eye(2)},
        {"step_forward": np.full((2, 2), np.nan), "step_backward": np.eye(2)},
        {"step_forward": np.eye(2), "step_backward": np.eye(3)},
    ], ids=["forward-alone", "backward-alone", "nan-forward", "3x3-backward"])
    def test_given_step_propagators_are_checked(self, given):
        # a lone step_forward used to be ignored, both recomputed; NaN
        # propagators raised FilterInstabilityError, the run-failure type
        state = to_gamma(init_unnormalized(TELEGRAPH), drift_matrix(TELEGRAPH, 0.5))
        with pytest.raises(ValueError, match=r"both step propagators or neither, each a "
                                             r"finite \(2, 2\) matrix"):
            gamma_langevin_step(state, TELEGRAPH, 0.5, 1e-3, 0.02, **given)

    def test_equal_levels_step_is_diagonal_scaling(self):
        # levels all equal: diag(a) commutes with exp(A t), so the Gamma field
        # rescales every component by the same factor
        model = ChainModel(levels=[0.8, 0.8], rates=TELEGRAPH.rates, initial_dist=[0.5, 0.5])
        a = drift_matrix(model, 0.5, -1)
        state = to_gamma(UnnormalizedState(psi=np.array([0.3, 0.7]), t=0.4), a)
        stepped = gamma_langevin_step(state, model, 0.5, 1e-3, 0.02)
        ratios = stepped.gamma / state.gamma
        assert ratios[0] == pytest.approx(ratios[1], rel=1e-12)

    def test_zero_levels_propagate_once(self):
        # no observation term: the step is the one propagation F psi = exp(A dt) psi
        model = ChainModel(levels=[0.0, 0.0], rates=TELEGRAPH.rates, initial_dist=[0.5, 0.5])
        kernel = Gamma(model, 1e-3, 0.5)
        psi = np.array([0.3, 0.7])
        (stepped, log_normalizer), clamped = step_once(kernel, (psi, 0.0), 0.37)
        propagated = kernel.step_forward @ psi
        assert np.array_equal(stepped, propagated / propagated.sum())
        assert (log_normalizer, clamped) == (np.log(propagated.sum()), 0)

    def test_tracks_langevin_filter_through_transform(self):
        cfg = ExperimentConfig(model=TELEGRAPH, horizon=1.0, dt=5e-4, beta=0.5, master_seed=9)
        _, fine = simulate_pair(cfg)
        errors = []
        for factor in (2, 1):
            grid = coarsen(fine, factor)
            gam = run_trajectory(TELEGRAPH, grid, "gamma", correction_sign=-1)
            lan = run_trajectory(TELEGRAPH, grid, "zakai-langevin", correction_sign=-1)
            errors.append(np.abs(gam.probs - lan.probs).max())
        assert errors[0] <= 2e-3
        assert errors[1] <= 0.8 * errors[0]
