import numpy as np
import pytest

from jumpfilter import (
    ChainModel,
    ReducibleChainError,
    integrate_level,
    model_from_json,
    model_to_json,
    simulate_jump_path,
    state_at,
    stationary_distribution,
    telegraph_model,
    transition_matrix,
)
from jumpfilter.chain import (JUMP_BUDGET, JumpPath, _check_paths, add_path_integrals,
                              step_level_integrals)

TELEGRAPH = telegraph_model(1.0)

THREE_STATE = ChainModel(
    levels=[1.0, 0.0, -1.0],
    rates=[[0.0, 0.6, 0.3], [0.2, 0.0, 0.8], [0.5, 0.4, 0.0]],
    initial_dist=[0.5, 0.3, 0.2],
)


def single_state_model(level=2.0):
    return ChainModel(levels=[level], rates=[[0.0]], initial_dist=[1.0])


class TestValidation:
    def test_telegraph_passes(self):
        assert TELEGRAPH.n_states == 2

    def test_single_state_allowed(self):
        # degenerate chain: exit rate 0 is the natural boundary case
        assert single_state_model().n_states == 1

    # Both probe models used to be built and to reach transition_matrix,
    # predict and run_trajectory, which returned negative "probabilities" or
    # ran to the end on them.
    def test_negative_rate_fails(self):
        with pytest.raises(ValueError, match="invalid model: negative rate"):
            ChainModel(levels=[1.0, -1.0], rates=[[0, -0.5], [1, 0]], initial_dist=[0.5, 0.5])

    def test_initial_dist_must_sum_to_one(self):
        with pytest.raises(ValueError, match="initial distribution does not sum to 1"):
            ChainModel(levels=[1.0, -1.0], rates=[[0, 1], [1, 0]], initial_dist=[0.7, 0.7])

    @pytest.mark.parametrize(
        "levels, rates, initial, violations",
        [
            ([np.nan, -1.0], [[0, 1], [1, 0]], [0.5, 0.5], "nonfinite level"),
            ([1.0, -1.0], [[0, np.inf], [1, 0]], [0.5, 0.5], "nonfinite rate"),
            ([1.0, -1.0], [[0, 1], [1, 0]], [np.nan, 1.0], "nonfinite initial probability"),
            ([1.0, -1.0], [[0, 1], [1, 0]], [1.5, -0.5],
             "initial probability outside \\[0, 1\\]"),
            # every violation is named, joined by ", "
            ([np.nan, -1.0], [[0, -1], [1, 0]], [0.7, 0.7],
             "nonfinite level, negative rate, initial distribution does not sum to 1"),
        ],
        ids=["nan-level", "inf-rate", "nan-initial", "initial-outside", "all-named"],
    )
    def test_each_violation_named(self, levels, rates, initial, violations):
        with pytest.raises(ValueError, match=f"^invalid model: {violations}$"):
            ChainModel(levels=levels, rates=rates, initial_dist=initial)

    def test_exit_rates_recomputed(self):
        assert THREE_STATE.exit_rates == pytest.approx([0.9, 1.0, 0.9], abs=1e-15)

    def test_diagonal_rates_ignored(self):
        m = ChainModel(levels=[1.0, -1.0], rates=[[5.0, 1.0], [1.0, 5.0]], initial_dist=[0.5, 0.5])
        assert np.array_equal(m.exit_rates, [1.0, 1.0])
        # zeroed before the rate checks, so no diagonal value is a violation
        m = ChainModel(levels=[1.0, -1.0], rates=[[-3.0, 1.0], [1.0, np.nan]],
                       initial_dist=[0.5, 0.5])
        assert np.array_equal(m.exit_rates, [1.0, 1.0])


class TestTransitionMatrix:
    def test_zero_horizon_is_identity(self):
        assert np.array_equal(transition_matrix(THREE_STATE, 0.0), np.eye(3))

    def test_telegraph_closed_form(self):
        # 2-state symmetric generator has eigenvalues 0 and -2 nu, so
        # p_11(h) = (1 + exp(-2 nu h)) / 2
        h, nu = 0.5, 1.0
        p = transition_matrix(telegraph_model(nu), h)
        expected = 0.5 * (1.0 + np.exp(-2.0 * nu * h))
        assert p[0, 0] == pytest.approx(expected, abs=1e-12)
        assert p[1, 1] == pytest.approx(expected, abs=1e-12)

    def test_first_order_in_small_h(self):
        h = 1e-6
        p = transition_matrix(THREE_STATE, h)
        off = ~np.eye(3, dtype=bool)
        assert np.abs(p[off] - THREE_STATE.rates[off] * h).max() <= 1e-10

    @pytest.mark.parametrize("h", [1e3, 1e16, 1e308])
    def test_long_horizon_reaches_the_stationary_law(self, h):
        # the rows' defect used to double with each squaring (row sums 0.078
        # at h=1e16, 0 at 1e20), and h=1e308 recursed past Python's limit
        p = transition_matrix(THREE_STATE, h)
        assert np.abs(p - stationary_distribution(THREE_STATE)).max() <= 1e-12

    @pytest.mark.parametrize("h", [1e-6, 0.1, 1.0, 10.0])
    def test_stochastic_rows(self, h):
        p = transition_matrix(THREE_STATE, h)
        assert np.all(p >= 0.0)
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-10

    def test_semigroup_property(self):
        grid = [0.1, 0.5, 1.0, 2.0]
        for h1 in grid:
            for h2 in grid:
                lhs = transition_matrix(THREE_STATE, h1) @ transition_matrix(THREE_STATE, h2)
                rhs = transition_matrix(THREE_STATE, h1 + h2)
                assert np.abs(lhs - rhs).max() <= 1e-9

    def test_long_horizon_uses_squaring(self):
        p = transition_matrix(telegraph_model(5.0), 200.0)
        assert np.abs(p - 0.5).max() <= 1e-10

    def test_matches_scipy_expm(self):
        # independent route to the same semigroup
        from scipy.linalg import expm

        rng = np.random.default_rng(55)
        rates = rng.uniform(0.0, 2.0, size=(5, 5))
        model = ChainModel(levels=np.arange(5.0), rates=rates,
                           initial_dist=np.full(5, 0.2))
        for h in (0.05, 0.3, 2.0):
            assert np.abs(
                transition_matrix(model, h) - expm(h * model.generator)
            ).max() <= 1e-12

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            transition_matrix(THREE_STATE, -0.1)


class TestSimulation:
    def test_single_state_never_jumps(self):
        path = simulate_jump_path(single_state_model(), 10.0, np.random.default_rng(0))
        assert path.n_jumps == 0
        assert state_at(path, 7.3) == 0

    def test_jump_rate_matches_holding_time_law(self):
        # mean holding time 1/nu, so jumps per unit time should be close to nu
        nu, horizon = 1.0, 1000.0
        path = simulate_jump_path(telegraph_model(nu), horizon, np.random.default_rng(2024))
        assert path.n_jumps / horizon == pytest.approx(nu, rel=0.05)

    def test_absorbing_state_stops_jumping(self):
        m = ChainModel(levels=[1.0, -1.0], rates=[[0.0, 2.0], [0.0, 0.0]], initial_dist=[1.0, 0.0])
        path = simulate_jump_path(m, 50.0, np.random.default_rng(5))
        assert path.n_jumps <= 1
        if path.n_jumps == 1:
            assert state_at(path, 50.0) == 1

    def test_deterministic_given_stream(self):
        a = simulate_jump_path(TELEGRAPH, 5.0, np.random.default_rng(9))
        b = simulate_jump_path(TELEGRAPH, 5.0, np.random.default_rng(9))
        assert np.array_equal(a.jump_times, b.jump_times)
        assert np.array_equal(a.jump_states, b.jump_states)

    def test_empirical_marginal_matches_semigroup(self):
        # histogram of x(t) over replicas vs initial^T P(t), 4 binomial SEs
        model = telegraph_model(1.0, initial_dist=(0.7, 0.3))
        t, n = 0.7, 5000
        rng = np.random.default_rng(77)
        counts = np.zeros(2)
        for _ in range(n):
            counts[state_at(simulate_jump_path(model, t, rng), t)] += 1
        expected = model.initial_dist @ transition_matrix(model, t)
        se = np.sqrt(expected * (1.0 - expected) / n)
        assert np.all(np.abs(counts / n - expected) <= 4.0 * se)


class TestPathBatch:
    ABSORBING = ChainModel(levels=[1.0, -0.5, 0.2],
                           rates=[[0.0, 0.8, 0.4], [0.6, 0.0, 0.5], [0.0, 0.0, 0.0]],
                           initial_dist=[0.4, 0.3, 0.3])

    @pytest.mark.parametrize("model", [TELEGRAPH, ABSORBING], ids=["telegraph", "absorbing"])
    def test_rows_equal_one_path_at_a_time(self, model):
        states = [np.random.default_rng(seed).bit_generator.state for seed in range(40)]
        base = np.random.default_rng(1).standard_normal((40, 50))
        out = base.copy()
        final = add_path_integrals(model, 2.0, 0.04, np.random.default_rng(0), states, out)
        for r, state in enumerate(states):
            rng = np.random.default_rng(0)
            rng.bit_generator.state = state
            path = simulate_jump_path(model, 2.0, rng)
            expected = base[r].copy()
            expected += step_level_integrals(path, model, 0.04, 50)
            assert np.array_equal(out[r], expected)
            assert final[r] == path.states_visited[-1]

    def test_checks_each_path_not_across_paths(self):
        # path 0 jumps at 0.5 and 0.9, path 1 at 0.2: the fall across paths is fine
        _check_paths(np.array([0, 1, 0, 1, 0]), np.array([0.5, 0.9, 0.2]), np.array([2, 1]), 1.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            _check_paths(np.array([0, 1, 0, 1, 0]), np.array([0.2, 0.9, 0.5]),
                         np.array([1, 2]), 1.0)
        _check_paths(np.array([0, 1, 1, 0]), np.array([0.5, 0.2]), np.array([1, 1]), 1.0)
        with pytest.raises(ValueError, match="must differ"):
            _check_paths(np.array([0, 0, 1, 0]), np.array([0.5, 0.2]), np.array([1, 1]), 1.0)
        with pytest.raises(ValueError, match=r"\(0, horizon\]"):
            _check_paths(np.array([0, 1, 1, 0]), np.array([0.5, np.nan]), np.array([1, 1]), 1.0)


class TestPathLookup:
    @pytest.fixture
    def path(self):
        return JumpPath(
            initial_state=0,
            jump_times=np.array([0.25, 0.75]),
            jump_states=np.array([1, 0]),
            horizon=1.0,
        )

    def test_initial_state(self, path):
        assert state_at(path, 0.0) == 0

    def test_just_before_jump(self, path):
        assert state_at(path, 0.25 - 1e-12) == 0

    def test_right_continuous_at_jump(self, path):
        assert state_at(path, 0.25) == 1

    def test_out_of_range(self, path):
        with pytest.raises(ValueError):
            state_at(path, 1.5)

    def test_consecutive_states_must_differ(self):
        with pytest.raises(ValueError):
            JumpPath(0, np.array([0.5]), np.array([0]), 1.0)


class TestIntegrateLevel:
    def test_constant_path(self):
        m = single_state_model(level=2.5)
        path = simulate_jump_path(m, 4.0, np.random.default_rng(0))
        assert integrate_level(path, m, 1.0, 3.0) == pytest.approx(5.0, abs=1e-14)

    def test_empty_interval(self):
        m = single_state_model()
        path = simulate_jump_path(m, 1.0, np.random.default_rng(0))
        assert integrate_level(path, m, 0.3, 0.3) == 0.0

    def test_one_jump_two_segments(self):
        path = JumpPath(0, np.array([0.4]), np.array([1]), 1.0)
        value = integrate_level(path, TELEGRAPH, 0.1, 0.9)
        # level +1 on [0.1, 0.4), level -1 on [0.4, 0.9)
        assert value == pytest.approx(0.3 - 0.5, abs=1e-14)

    def test_additivity(self):
        path = simulate_jump_path(TELEGRAPH, 3.0, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        for _ in range(50):
            t0, t1, t2 = np.sort(rng.uniform(0, 3.0, size=3))
            whole = integrate_level(path, TELEGRAPH, t0, t2)
            split = integrate_level(path, TELEGRAPH, t0, t1) + integrate_level(path, TELEGRAPH, t1, t2)
            assert whole == pytest.approx(split, abs=1e-12)

    def test_step_integrals_match_scalar(self):
        path = simulate_jump_path(TELEGRAPH, 2.0, np.random.default_rng(8))
        dt, n = 0.01, 200
        steps = step_level_integrals(path, TELEGRAPH, dt, n)
        for r in [0, 17, 99, 199]:
            assert steps[r] == pytest.approx(
                integrate_level(path, TELEGRAPH, r * dt, (r + 1) * dt), abs=1e-13
            )

    def test_bad_interval(self):
        path = simulate_jump_path(TELEGRAPH, 1.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            integrate_level(path, TELEGRAPH, 0.8, 0.2)


class TestStationary:
    def test_telegraph_symmetric(self):
        assert stationary_distribution(TELEGRAPH) == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_single_state(self):
        assert np.array_equal(stationary_distribution(single_state_model()), [1.0])

    def test_three_state_cycle_hand_solved(self):
        # cycle 0->1->2->0 with rates 1, 2, 3: flow balance pi_0*1 = pi_1*2 = pi_2*3
        # gives pi proportional to (1, 1/2, 1/3) = (6, 3, 2)/11
        m = ChainModel(
            levels=[1.0, 2.0, 3.0],
            rates=[[0, 1.0, 0], [0, 0, 2.0], [3.0, 0, 0]],
            initial_dist=[1.0, 0.0, 0.0],
        )
        pi = stationary_distribution(m)
        assert pi == pytest.approx([6 / 11, 3 / 11, 2 / 11], abs=1e-10)
        assert np.abs(pi @ m.generator).max() <= 1e-10

    def test_reducible_chain_names_blocks(self):
        m = ChainModel(
            levels=[1.0, -1.0],
            rates=[[0.0, 2.0], [0.0, 0.0]],
            initial_dist=[1.0, 0.0],
        )
        with pytest.raises(ReducibleChainError, match="block"):
            stationary_distribution(m)


class TestJson:
    def test_round_trip(self):
        doc = model_to_json(THREE_STATE)
        back = model_from_json(doc)
        assert np.array_equal(back.levels, THREE_STATE.levels)
        assert np.array_equal(back.rates, THREE_STATE.rates)
        assert np.array_equal(back.initial_dist, THREE_STATE.initial_dist)

    def test_exact_field_names(self):
        doc = model_to_json(TELEGRAPH)
        assert set(doc) == {"levels", "rates", "initial"}

    def test_from_string(self):
        m = model_from_json('{"levels": [1, -1], "rates": [[9, 2], [2, 9]], "initial": [0.5, 0.5]}')
        assert np.array_equal(m.exit_rates, [2.0, 2.0])

    @pytest.mark.parametrize("value", [{"a": 1}, [{"a": 1}, 0.5], 10**400, ["0.5", 0.5],
                                       [True, 0.0], None],
                             ids=["object", "object-entry", "huge-int", "string-entry",
                                  "bool-entry", "null"])
    def test_value_of_the_wrong_type_names_its_key(self, value):
        # the first three used to escape as TypeError or OverflowError, the
        # string and the bool were read as numbers, and null as NaN
        doc = dict(model_to_json(TELEGRAPH), initial=value)
        with pytest.raises(ValueError, match="model key 'initial'"):
            model_from_json(doc)


class TestJumpBudget:
    def test_path_over_the_budget_is_refused(self):
        # 2e6 expected jumps; rates of 1e308 used to stall the time and hang
        model = telegraph_model(2 * JUMP_BUDGET)
        with pytest.raises(ValueError, match="budget"):
            simulate_jump_path(model, 1.0, np.random.default_rng(0))
        with pytest.raises(ValueError, match="budget"):
            add_path_integrals(model, 1.0, 0.1, np.random.default_rng(0),
                               [np.random.default_rng(0).bit_generator.state], np.zeros((1, 10)))
