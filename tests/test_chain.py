import warnings

import numpy as np
import pytest

from jumpfilter import (
    ChainModel,
    ReducibleChainError,
    model_from_json,
    model_to_json,
    simulate_jump_path,
    stationary_distribution,
    synthesize_observations,
    telegraph_model,
    transition_matrix,
)
from jumpfilter.chain import (JUMP_BUDGET, JumpPath, _check_paths, add_path_integrals,
                              step_level_integrals)
from jumpfilter.seeding import ROLE_JUMP, derive_rng, derive_states

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

    def test_overflowing_exit_rate_fails_before_any_solve(self, monkeypatch):
        # each rate is finite but the first row sums to inf: the model was
        # built, and stationary_distribution's lstsq never returned on it
        monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kwargs: pytest.fail("solved"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^invalid model: nonfinite exit rate$"):
                stationary_distribution(ChainModel(
                    levels=[1.0, 0.0, -1.0], rates=[[0, 1e308, 1e308], [1, 0, 1], [1, 1, 0]],
                    initial_dist=[0.5, 0.3, 0.2]))

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
        from scipy.linalg import expm

        p = transition_matrix(telegraph_model(5.0), 200.0)
        assert np.abs(p - 0.5).max() <= 1e-10
        # lam * h = 1000 squares the series twice, while the slow exit from
        # state 2 is far from its stationary law at h = 2
        stiff = ChainModel(levels=[1.0, 0.0, -1.0], initial_dist=[0.4, 0.3, 0.3],
                           rates=[[0.0, 500.0, 0.0], [500.0, 0.0, 0.1], [0.0, 0.1, 0.0]])
        assert np.abs(transition_matrix(stiff, 2.0) - expm(2.0 * stiff.generator)).max() <= 1e-10

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
        assert path.states_visited[-1] == 0

    def test_jump_rate_matches_holding_time_law(self):
        # mean holding time 1/nu, so jumps per unit time should be close to nu
        nu, horizon = 1.0, 1000.0
        path = simulate_jump_path(telegraph_model(nu), horizon, np.random.default_rng(2024))
        assert path.n_jumps / horizon == pytest.approx(nu, rel=0.05)

    def test_absorbing_state_stops_jumping(self):
        with pytest.warns(UserWarning, match="floored"):
            m = ChainModel(levels=[1.0, -1.0], rates=[[0.0, 2.0], [0.0, 0.0]],
                           initial_dist=[1.0, 0.0])
        path = simulate_jump_path(m, 50.0, np.random.default_rng(5))
        assert path.n_jumps <= 1
        if path.n_jumps == 1:
            assert path.states_visited[-1] == 1

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
            counts[simulate_jump_path(model, t, rng).states_visited[-1]] += 1
        expected = model.initial_dist @ transition_matrix(model, t)
        se = np.sqrt(expected * (1.0 - expected) / n)
        assert np.all(np.abs(counts / n - expected) <= 4.0 * se)


class TestPathBatch:
    ABSORBING = ChainModel(levels=[1.0, -0.5, 0.2],
                           rates=[[0.0, 0.8, 0.4], [0.6, 0.0, 0.5], [0.0, 0.0, 0.0]],
                           initial_dist=[0.4, 0.3, 0.3])

    @pytest.mark.parametrize("model", [TELEGRAPH, ABSORBING], ids=["telegraph", "absorbing"])
    def test_rows_equal_one_path_at_a_time(self, model):
        base = np.random.default_rng(1).standard_normal((40, 50))
        out = base.copy()
        final = add_path_integrals(model, 2.0, 0.04, derive_states(8, 40, ROLE_JUMP), out)
        for r in range(40):
            path = simulate_jump_path(model, 2.0, derive_rng(8, r, ROLE_JUMP))
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
    """The level a grid step takes is the path's state at the step's start."""

    def test_initial_state(self):
        # a path that starts in state 1 (level -1) and jumps only at 0.75
        path = JumpPath(1, np.array([0.75]), np.array([0]), 1.0)
        grid = synthesize_observations(path, TELEGRAPH, 0.125, 0.5, np.random.default_rng(0))
        assert grid.x_level[0] == -1.0

    def test_just_before_jump(self):
        # the jump falls just after the grid point 0.25: the step that starts
        # there still holds the state before the jump
        path = JumpPath(0, np.array([0.25 + 1e-12]), np.array([1]), 1.0)
        grid = synthesize_observations(path, TELEGRAPH, 0.125, 0.5, np.random.default_rng(0))
        assert np.array_equal(grid.x_level[1:4], [1.0, 1.0, -1.0])

    def test_right_continuous_at_jump(self):
        # jumps at 0.25 and 0.75 land on grid points: each step takes the
        # level of the state the path holds from its start on
        path = JumpPath(0, np.array([0.25, 0.75]), np.array([1, 0]), 1.0)
        grid = synthesize_observations(path, TELEGRAPH, 0.125, 0.5, np.random.default_rng(0))
        assert np.array_equal(grid.x_level, [1.0, 1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0])

    def test_states_at_holds_the_state_entered_at_a_jump(self):
        path = JumpPath(0, np.array([0.25, 0.75]), np.array([1, 0]), 1.0)
        times = [0.0, 0.25 - 1e-12, 0.25, 0.5, 0.75 - 1e-12, 0.75, 1.0]
        assert path.states_at(times).tolist() == [0, 0, 1, 1, 1, 0, 0]
        still = JumpPath(1, np.array([]), np.array([]), 1.0)
        assert still.states_at([0.0, 1.0]).tolist() == [1, 1]

    def test_consecutive_states_must_differ(self):
        with pytest.raises(ValueError):
            JumpPath(0, np.array([0.5]), np.array([0]), 1.0)


def level_integral(path, model, t0, t1):
    """The integral of the path's level over [t0, t1], one segment at a time."""
    edges = np.concatenate(([0.0], path.jump_times, [path.horizon]))
    total = 0.0
    for state, lo, hi in zip(path.states_visited, edges[:-1], edges[1:]):
        total += model.levels[state] * max(0.0, min(hi, t1) - max(lo, t0))
    return total


class TestStepLevelIntegrals:
    """Exact per-step integrals of the signal level: no quadrature error."""

    def test_constant_path(self):
        m = single_state_model(level=2.5)
        path = simulate_jump_path(m, 4.0, np.random.default_rng(0))
        steps = step_level_integrals(path, m, 0.5, 8)
        # the integral over [1, 3]
        assert steps[2:6].sum() == pytest.approx(5.0, abs=1e-14)

    def test_one_jump_two_segments(self):
        path = JumpPath(0, np.array([0.45]), np.array([1]), 1.0)
        steps = step_level_integrals(path, TELEGRAPH, 0.1, 10)
        # level +1 on [0, 0.45), level -1 on [0.45, 1]: the step across the
        # jump holds half of each
        assert steps == pytest.approx([0.1] * 4 + [0.0] + [-0.1] * 5, abs=1e-14)
        # level +1 on [0.1, 0.45), level -1 on [0.45, 0.9)
        assert steps[1:9].sum() == pytest.approx(0.35 - 0.45, abs=1e-14)

    def test_empty_interval(self):
        path = simulate_jump_path(single_state_model(), 1.0, np.random.default_rng(0))
        assert step_level_integrals(path, single_state_model(), 0.1, 0).shape == (0,)

    def test_step_integrals_match_scalar(self):
        path = simulate_jump_path(TELEGRAPH, 2.0, np.random.default_rng(8))
        dt, n = 0.01, 200
        steps = step_level_integrals(path, TELEGRAPH, dt, n)
        for r in [0, 17, 99, 199]:
            assert steps[r] == pytest.approx(
                level_integral(path, TELEGRAPH, r * dt, (r + 1) * dt), abs=1e-13
            )

    def test_last_step_ends_at_the_horizon(self):
        # 3 * 0.1 rounds past 0.3: the last step still ends at the horizon
        path = JumpPath(0, np.array([], dtype=float), np.array([], dtype=int), 0.3)
        steps = step_level_integrals(path, TELEGRAPH, 0.1, 3)
        assert 3 * 0.1 > 0.3 and steps[-1] == 0.3 - 0.2

    def test_additivity(self):
        path = simulate_jump_path(TELEGRAPH, 3.0, np.random.default_rng(3))
        fine = step_level_integrals(path, TELEGRAPH, 0.005, 600)
        coarse = step_level_integrals(path, TELEGRAPH, 0.01, 300)
        # each coarse step is the sum of the two fine steps it covers
        assert coarse == pytest.approx(fine.reshape(-1, 2).sum(axis=1), abs=1e-12)
        # and the steps add up to the integral over the whole path
        durations = np.diff(np.concatenate(([0.0], path.jump_times, [3.0])))
        whole = float(TELEGRAPH.levels[path.states_visited] @ durations)
        assert fine.sum() == pytest.approx(whole, abs=1e-12)


class TestStationary:
    def test_telegraph_symmetric(self):
        assert stationary_distribution(TELEGRAPH) == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_single_state(self):
        assert np.array_equal(stationary_distribution(single_state_model()), [1.0])

    def test_three_state_cycle_hand_solved(self):
        # cycle 0->1->2->0 with rates 1, 2, 3: flow balance pi_0*1 = pi_1*2 = pi_2*3
        # gives pi proportional to (1, 1/2, 1/3) = (6, 3, 2)/11
        with pytest.warns(UserWarning, match="floored"):
            m = ChainModel(
                levels=[1.0, 2.0, 3.0],
                rates=[[0, 1.0, 0], [0, 0, 2.0], [3.0, 0, 0]],
                initial_dist=[1.0, 0.0, 0.0],
            )
        pi = stationary_distribution(m)
        assert pi == pytest.approx([6 / 11, 3 / 11, 2 / 11], abs=1e-10)
        assert np.abs(pi @ m.generator).max() <= 1e-10

    def test_reducible_chain_names_blocks(self):
        # blocks are listed by their smallest state, as plain ints, not numpy
        # scalars in the order a graph search happens to find them
        for rates, blocks in [
            ([[0.0, 2.0], [0.0, 0.0]], "[(0,), (1,)]"),
            ([[0.0, 2.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]], "[(0,), (1,), (2,)]"),
            ([[0.0, 2.0, 1.0], [0.0, 0.0, 0.0], [3.0, 0.0, 0.0]], "[(0, 2), (1,)]"),
        ]:
            k = len(rates)
            with pytest.warns(UserWarning, match="floored"):
                m = ChainModel(levels=np.arange(k, dtype=float), rates=rates,
                               initial_dist=np.eye(k)[0])
            with pytest.raises(ReducibleChainError) as raised:
                stationary_distribution(m)
            assert str(raised.value) == f"chain is reducible; strongly connected blocks: {blocks}"

    def test_blocks_match_scipy_strong_components(self):
        # independent route to the same partition, over random rate patterns
        from scipy.sparse.csgraph import connected_components

        rng = np.random.default_rng(31)
        reducible = 0
        for _ in range(600):
            k = int(rng.integers(1, 13))
            pattern = rng.random((k, k)) < rng.uniform(0.05, 0.6)
            model = ChainModel(levels=np.arange(k, dtype=float),
                               rates=np.where(pattern, rng.uniform(0.1, 2.0, (k, k)), 0.0),
                               initial_dist=np.full(k, 1.0 / k))
            n_blocks, labels = connected_components(model.rates > 0, directed=True,
                                                    connection="strong")
            if n_blocks == 1:
                pi = stationary_distribution(model)
                assert np.abs(pi @ model.generator).max() <= 1e-10
                continue
            reducible += 1
            blocks = sorted(tuple(np.flatnonzero(labels == c).tolist()) for c in range(n_blocks))
            with pytest.raises(ReducibleChainError) as raised:
                stationary_distribution(model)
            assert str(raised.value).endswith(f"blocks: {blocks}")
        assert 100 <= reducible <= 500  # both branches run often


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
            add_path_integrals(model, 1.0, 0.1, derive_states(0, 1, ROLE_JUMP), np.zeros((1, 10)))
