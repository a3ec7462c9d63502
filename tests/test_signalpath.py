import numpy as np
import pytest

from jumpfilter import (
    ChainModel,
    coarsen,
    simulate_jump_path,
    synthesize_from_brownian,
    synthesize_observations,
    telegraph_model,
    write_observations_csv,
)
from jumpfilter.chain import step_level_integrals
from jumpfilter.kernels import BLOCK_ROWS
from jumpfilter.signalpath import FLOAT, ObservationGrid, cumulative_observation, write_table

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
    header, *rows = file.read_text().splitlines()
    assert header == "r,t,dy,dw,x_level"
    r, t, dy, dw, x_level = np.array([row.split(",") for row in rows], dtype=float).T
    assert np.array_equal(r, np.arange(grid.n_steps))
    # 17 significant digits read back to the same floats
    assert np.array_equal(t, grid.times)
    assert np.array_equal(dy, grid.dy)
    assert np.array_equal(dw, grid.dw)
    assert np.array_equal(x_level, grid.x_level)


@pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                               2 * BLOCK_ROWS + 1])
def test_table_rows_span_write_blocks(tmp_path, n):
    # rows are formatted BLOCK_ROWS at a time: none is lost or repeated
    # at a block's edge
    values = np.arange(n) / 7.0
    file = tmp_path / "table.csv"
    write_table(file, ["i", "v"], ["%d", FLOAT], [range(n), values])
    text = file.read_bytes().decode()
    assert text == "i,v\r\n" + "".join(f"{i},{FLOAT % v}\r\n" for i, v in enumerate(values))


def test_table_columns_may_be_arrays_ranges_or_lists(tmp_path):
    file = tmp_path / "table.csv"
    write_table(file, ["r", "name", "x"], ["%d", "%s", FLOAT],
                [range(3), ["a", "b", "c"], np.array([0.5, -1.0, 2.25])])
    assert file.read_bytes() == b"r,name,x\r\n0,a,0.5\r\n1,b,-1\r\n2,c,2.25\r\n"


@pytest.mark.parametrize("value", [1 / 3, -0.0, 5e-324, 1.7976931348623157e308, np.inf, np.nan],
                         ids=["third", "negative-zero", "subnormal", "max", "inf", "nan"])
def test_float_format_reads_back_to_the_same_float(value):
    back = float(FLOAT % value)
    assert np.float64(back).tobytes() == np.float64(value).tobytes()


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
