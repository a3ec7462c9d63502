import numpy as np
import pytest

from jumpfilter import (
    ChainModel,
    coarsen,
    read_observations_csv,
    simulate_jump_path,
    synthesize_from_brownian,
    synthesize_observations,
    telegraph_model,
    write_observations_csv,
)
from jumpfilter.chain import step_level_integrals
from jumpfilter.signalpath import ObservationGrid, cumulative_observation

TELEGRAPH = telegraph_model(1.0)


def constant_model(level):
    return ChainModel(levels=[level], rates=[[0.0]], initial_dist=[1.0])


def test_noise_free_increments_equal_signal_integrals():
    path = simulate_jump_path(TELEGRAPH, 2.0, np.random.default_rng(1))
    grid = synthesize_from_brownian(path, TELEGRAPH, 0.01, 0.5, np.zeros(200))
    expected = step_level_integrals(path, TELEGRAPH, 0.01, 200)
    assert np.array_equal(grid.dy, expected)


def test_increment_mean_and_variance_and_quadratic_variation():
    # constant signal at level a: dy ~ N(a dt, beta^2 dt), one long run
    level, beta, dt, n = 0.7, 0.4, 1e-3, 10**6
    model = constant_model(level)
    path = simulate_jump_path(model, n * dt, np.random.default_rng(3))
    grid = synthesize_observations(path, model, dt, beta, np.random.default_rng(4))

    mean = grid.dy.mean()
    assert abs(mean - level * dt) <= 4.0 * beta * np.sqrt(dt) / 1e3

    residual = grid.dy - level * dt
    assert residual.var() == pytest.approx(beta**2 * dt, rel=0.01)

    qv = np.sum(residual**2) / (n * beta**2 * dt)
    assert abs(qv - 1.0) <= 3.0 * np.sqrt(2.0 / n)


def test_refinement_consistency():
    # summing pairs of fine increments equals synthesizing on the coarse grid
    # from the aggregated Brownian increments
    path = simulate_jump_path(TELEGRAPH, 1.0, np.random.default_rng(6))
    fine_dw = np.sqrt(5e-4) * np.random.default_rng(7).standard_normal(2000)
    fine = synthesize_from_brownian(path, TELEGRAPH, 5e-4, 0.5, fine_dw)
    coarse = coarsen(fine, 2)
    direct = synthesize_from_brownian(path, TELEGRAPH, 1e-3, 0.5, fine_dw.reshape(-1, 2).sum(axis=1))
    assert np.array_equal(coarse.dw, direct.dw)
    assert coarse.dy == pytest.approx(direct.dy, abs=1e-12)
    assert np.array_equal(coarse.x_level, direct.x_level)


def test_cumulative_observation():
    grid = ObservationGrid(dt=0.1, beta=1.0, dy=np.array([1.0, 2.0, -0.5]),
                           dw=np.zeros(3), x_level=np.ones(3))
    assert np.array_equal(cumulative_observation(grid), [0.0, 1.0, 3.0, 2.5])


def test_csv_round_trip(tmp_path):
    path = simulate_jump_path(TELEGRAPH, 0.5, np.random.default_rng(11))
    grid = synthesize_observations(path, TELEGRAPH, 0.01, 0.5, np.random.default_rng(12))
    file = tmp_path / "obs.csv"
    write_observations_csv(grid, file)
    header = file.read_text().splitlines()[0]
    assert header == "r,t,dy,dw,x_level"
    back = read_observations_csv(file, beta=0.5)
    assert back.dt == grid.dt
    assert np.array_equal(back.dy, grid.dy)
    assert np.array_equal(back.dw, grid.dw)
    assert np.array_equal(back.x_level, grid.x_level)


def test_csv_rejects_unknown_header(tmp_path):
    file = tmp_path / "bad.csv"
    file.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_observations_csv(file, beta=1.0)


def _write_rows(file, rows):
    file.write_text("r,t,dy,dw,x_level\r\n" + "".join(
        ",".join([str(r), *map(str, row)]) + "\r\n" for r, row in enumerate(rows)))


# 3 * 0.1 != 0.3 in floating point: the grid check has a tolerance
GOOD_ROWS = [(0.0, 0.01, 0.02, 1.0), (0.1, -0.03, 0.01, 1.0), (0.2, 0.05, 0.0, -1.0),
             (0.3, 0.02, 0.01, -1.0)]


def test_csv_reads_a_valid_hand_written_table(tmp_path):
    file = tmp_path / "obs.csv"
    _write_rows(file, GOOD_ROWS)
    grid = read_observations_csv(file, beta=0.5)
    assert grid.dt == 0.1 and grid.n_steps == 4
    assert np.array_equal(grid.x_level, [1.0, 1.0, -1.0, -1.0])


def test_csv_rejects_time_not_starting_at_zero(tmp_path):
    file = tmp_path / "obs.csv"
    _write_rows(file, [(0.5, 0.1, 0.0, 1.0), (0.6, 0.1, 0.0, 1.0), (0.7, 0.1, 0.0, 1.0)])
    with pytest.raises(ValueError, match="column t"):
        read_observations_csv(file, beta=0.5)


def test_csv_rejects_time_off_the_uniform_grid(tmp_path):
    file = tmp_path / "obs.csv"
    _write_rows(file, [(0.0, 0.1, 0.0, 1.0), (0.1, 0.1, 0.0, 1.0), (5.0, 0.1, 0.0, 1.0)])
    with pytest.raises(ValueError, match="column t"):
        read_observations_csv(file, beta=0.5)


def test_csv_rejects_broken_time_column_with_nan(tmp_path):
    # loaded as a 4-step grid with dt ~ 0.1 before the reader checked its input
    file = tmp_path / "obs.csv"
    _write_rows(file, [(0.5, 0.1, 0.0, 1.0), (0.6, float("nan"), 0.0, 1.0),
                       (5.0, 0.1, 0.0, 1.0), (1e9, 0.1, 0.0, 1.0)])
    with pytest.raises(ValueError):
        read_observations_csv(file, beta=0.5)


@pytest.mark.parametrize("column", [1, 2, 3], ids=["dy", "dw", "x_level"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_csv_rejects_non_finite_values(tmp_path, column, bad):
    rows = [list(row) for row in GOOD_ROWS]
    rows[1][column] = bad
    file = tmp_path / "obs.csv"
    _write_rows(file, rows)
    with pytest.raises(ValueError, match="non-finite"):
        read_observations_csv(file, beta=0.5)


def test_parameter_validation():
    path = simulate_jump_path(TELEGRAPH, 1.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        synthesize_observations(path, TELEGRAPH, -0.1, 0.5, np.random.default_rng(0))
    with pytest.raises(ValueError):
        synthesize_observations(path, TELEGRAPH, 0.1, 0.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        # dt does not divide the horizon
        synthesize_observations(path, TELEGRAPH, 0.3, 0.5, np.random.default_rng(0))


@pytest.mark.parametrize("dt, beta", [(np.nan, 0.5), (np.inf, 0.5), (0.1, np.nan),
                                      (0.1, np.inf), (0.0, 0.5), (0.1, -1.0)])
def test_grid_step_and_noise_must_be_finite_and_positive(dt, beta):
    # NaN is not <= 0, so a NaN dt or beta used to build a grid
    with pytest.raises(ValueError, match="finite and positive"):
        ObservationGrid(dt=dt, beta=beta, dy=[0.1], dw=[0.0], x_level=[1.0])


def test_coarsen_requires_divisible_factor():
    path = simulate_jump_path(TELEGRAPH, 1.0, np.random.default_rng(0))
    grid = synthesize_observations(path, TELEGRAPH, 0.01, 0.5, np.random.default_rng(0))
    with pytest.raises(ValueError):
        coarsen(grid, 3)
