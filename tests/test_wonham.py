import numpy as np
import pytest

from jumpfilter import (
    ChainModel,
    DiscreteBayesState,
    FilterState,
    TelegraphState,
    map_decision,
    mean_estimate,
    predict,
    stationary_distribution,
    telegraph_model,
    telegraph_ito_step,
    telegraph_langevin_step,
    transition_matrix,
    wonham_langevin_step,
    wonham_step,
)
from jumpfilter.harness import ExperimentConfig, run_trajectory, simulate_pair
from jumpfilter.kernels import wonham_update_raw
from jumpfilter.signalpath import coarsen

TELEGRAPH = telegraph_model(1.0)

THREE_STATE = ChainModel(
    levels=[1.0, 0.0, -1.0],
    rates=[[0.0, 0.6, 0.3], [0.2, 0.0, 0.8], [0.5, 0.4, 0.0]],
    initial_dist=[0.5, 0.3, 0.2],
)


def random_simplex(rng, k=2):
    p = rng.uniform(0.02, 1.0, size=k)
    return p / p.sum()


class TestWonhamStep:
    def test_equal_levels_reduce_to_forward_euler(self):
        model = ChainModel(levels=[0.3, 0.3], rates=TELEGRAPH.rates, initial_dist=[0.4, 0.6])
        state = FilterState(probs=np.array([0.4, 0.6]))
        for dy in (0.0, 0.5, -1.7):
            stepped = wonham_step(state, model, 0.5, 1e-2, dy)
            euler = state.probs + 1e-2 * (state.probs @ model.generator)
            assert stepped.probs == pytest.approx(euler / euler.sum(), abs=1e-15)

    @pytest.mark.parametrize("variant", ["innovation", "paper"])
    def test_simplex_preserved_before_renormalization(self, variant):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = random_simplex(rng, 3)
            dy = rng.normal(scale=0.05)
            raw = wonham_update_raw(
                p, THREE_STATE.generator, THREE_STATE.levels, 0.5, 1e-3, dy, variant
            )
            assert abs(raw.sum() - 1.0) <= 1e-12

    def test_kolmogorov_forward_limit_small(self):
        # beta^2 -> infinity decouples the filter from the observations
        cfg = ExperimentConfig(model=THREE_STATE, horizon=0.2, dt=1e-4, beta=1e4, master_seed=1)
        _, grid = simulate_pair(cfg)
        trajectory = run_trajectory(THREE_STATE, grid, "wonham-ito")
        step = transition_matrix(THREE_STATE, 1e-4)
        reference = np.empty_like(trajectory.probs)
        reference[0] = THREE_STATE.initial_dist
        for r in range(grid.n_steps):
            reference[r + 1] = reference[r] @ step
        assert np.abs(trajectory.probs - reference).max() <= 1e-3

    def test_converges_to_normalized_unnormalized_filter(self):
        cfg = ExperimentConfig(model=TELEGRAPH, horizon=2.5, dt=1e-3 / 8, beta=0.5, master_seed=0)
        _, fine = simulate_pair(cfg)
        errors = []
        for factor in (8, 4, 2, 1):
            grid = coarsen(fine, factor)
            won = run_trajectory(TELEGRAPH, grid, "wonham-ito")
            ito = run_trajectory(TELEGRAPH, grid, "zakai-ito")
            errors.append(np.abs(won.probs - ito.probs).max())
        # strong-order-1/2 pair: require decay over 3 halvings, not a clean rate
        assert errors[-1] <= 0.65 * errors[0]
        assert errors[-1] <= 0.03


class TestTelegraphSteps:
    def test_balanced_state_is_fixed_point_without_evidence(self):
        state = TelegraphState(q=0.0)
        assert telegraph_ito_step(state, 1.0, 0.5, 1e-3, 0.0).q == 0.0
        assert telegraph_langevin_step(state, 1.0, 0.5, 1e-3, 0.0).q == 0.0

    @pytest.mark.parametrize("q0", [1.0, -1.0])
    def test_certainty_decays_at_switching_rate(self, q0):
        # at q = +-1 the observation terms vanish: dq = -2 nu q dt
        nu, dt = 1.0, 1e-3
        stepped = telegraph_ito_step(TelegraphState(q=q0), nu, 0.5, dt, 123.456)
        assert stepped.q == pytest.approx(q0 - 2.0 * nu * q0 * dt, abs=1e-15)

    def test_ito_step_matches_two_state_filter(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            q = rng.uniform(-0.999, 0.999)
            dy = rng.normal(scale=0.05)
            scalar = telegraph_ito_step(TelegraphState(q=q), 1.0, 0.5, 1e-3, dy)
            probs = np.array([(1 + q) / 2, (1 - q) / 2])
            general = wonham_step(FilterState(probs=probs), TELEGRAPH, 0.5, 1e-3, dy)
            assert scalar.q == pytest.approx(general.probs[0] - general.probs[1], abs=1e-14)

    def test_langevin_step_matches_two_state_filter(self):
        # the two-state correction term vanishes (levels squared are equal),
        # so the scalar Riccati-Heun step is the exact algebraic reduction
        rng = np.random.default_rng(29)
        for sign in (-1, +1):
            for _ in range(100):
                q = rng.uniform(-0.999, 0.999)
                dy = rng.normal(scale=0.05)
                scalar = telegraph_langevin_step(TelegraphState(q=q), 1.0, 0.5, 1e-3, dy)
                probs = np.array([(1 + q) / 2, (1 - q) / 2])
                general = wonham_langevin_step(
                    FilterState(probs=probs), TELEGRAPH, 0.5, 1e-3, dy, correction_sign=sign
                )
                assert scalar.q == pytest.approx(general.probs[0] - general.probs[1], abs=1e-14)

    def test_exponential_decay_closed_form(self):
        # zero observed rate: dq/dt = -2 nu q, Heun error is O(dt^3) per step
        nu, dt = 1.0, 1e-2
        state = TelegraphState(q=0.8)
        stepped = telegraph_langevin_step(state, nu, 0.5, dt, 0.0)
        exact = 0.8 * np.exp(-2.0 * nu * dt)
        assert abs(stepped.q - exact) <= (2.0 * nu * dt) ** 3

    def test_q_range_validated(self):
        with pytest.raises(ValueError):
            TelegraphState(q=1.5)

    @pytest.mark.parametrize("q", ["0.1", None, True, np.nan, [0.1]])
    def test_q_must_be_a_number(self, q):
        # a str q used to raise TypeError from np.isfinite
        with pytest.raises(ValueError, match="q must be a number in"):
            TelegraphState(q=q)

    @pytest.mark.parametrize("step", [telegraph_ito_step, telegraph_langevin_step],
                             ids=lambda step: step.__name__)
    @pytest.mark.parametrize("nu", [-5.0, np.nan, np.inf])
    def test_switching_rate_must_be_finite_and_nonnegative(self, step, nu):
        # a negative nu used to step silently (q = 0.04 from 0 at nu = -5), and
        # a NaN one raised FilterInstabilityError, the run-failure type; the
        # chain model of the rate refuses both
        violation = "negative rate" if nu < 0 else "nonfinite rate"
        with pytest.raises(ValueError, match=f"^invalid model: {violation}$"):
            step(TelegraphState(q=0.0), nu, 0.5, 1e-3, 0.01)


class TestEstimates:
    def test_mean_estimate_uniform_telegraph(self):
        assert mean_estimate(FilterState(probs=np.array([0.5, 0.5])), TELEGRAPH) == 0.0

    def test_mean_estimate_point_mass(self):
        probs = np.zeros(3)
        probs[1] = 1.0
        assert mean_estimate(FilterState(probs=probs), THREE_STATE) == THREE_STATE.levels[1]

    def test_mean_estimate_equals_q(self):
        state = FilterState(probs=np.array([0.8, 0.2]))
        assert mean_estimate(state, TELEGRAPH) == pytest.approx(0.6, abs=1e-15)

    def test_map_decision(self):
        assert map_decision(FilterState(probs=np.array([0.7, 0.3]))) == 0
        assert map_decision(FilterState(probs=np.array([0.3, 0.7]))) == 1
        # ties break to the lowest index
        assert map_decision(FilterState(probs=np.array([0.5, 0.5]))) == 0


class TestPredict:
    def test_long_horizon_reaches_stationary(self):
        state = FilterState(probs=np.array([1.0, 0.0, 0.0]))
        pi = stationary_distribution(THREE_STATE)
        assert np.abs(predict(state, THREE_STATE, 60.0) - pi).max() <= 1e-6

    @pytest.mark.parametrize("h", [-1.0, True])
    def test_horizon_must_be_a_nonnegative_real_number(self, h):
        # a bool used to pass as a horizon of 1
        with pytest.raises(ValueError, match="horizon"):
            predict(FilterState(probs=np.array([1.0])), ChainModel([0.0], [[0.0]], [1.0]), h)


class TestStateValidation:
    def test_probs_must_be_simplex(self):
        with pytest.raises(ValueError):
            FilterState(probs=np.array([0.7, 0.7]))
        with pytest.raises(ValueError):
            FilterState(probs=np.array([-0.1, 1.1]))

    @pytest.mark.parametrize("state", [FilterState, DiscreteBayesState],
                             ids=["FilterState", "DiscreteBayesState"])
    def test_one_simplex_tolerance(self, state):
        # both check at kernels.SIMPLEX_TOLERANCE; DiscreteBayesState used to
        # hold its own copy of the check at 1e-12
        state(probs=[0.5, 0.5 + 1e-10])
        for probs in ([0.5, 0.5 + 1e-8], [np.nan, 1.0]):
            with pytest.raises(ValueError, match="probabilities"):
                state(probs=probs)
