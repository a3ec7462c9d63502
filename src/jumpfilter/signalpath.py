"""Observation synthesis on a uniform grid:  dy = x dt + beta dw.

Each increment combines the exact signal integral over its step (computed
from the jump path, no Riemann error) with a Gaussian term beta*sqrt(dt)*z.
Brownian increments are retained so different schemes can consume the
identical noise realization, and so a fine grid can be aggregated into a
coarse one for refinement studies. Synthesis runs a block of steps at a time
(:func:`observation_blocks`); a whole grid is the collection of its blocks.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import kernels
from .chain import (STEP_BUDGET, ChainModel, JumpPath, _uniform_grid, is_count, path_segments,
                    segment_integrals)
from .kernels import check_step

# Not called here; benchmark/tracing.py wraps this name as an attribute of
# this module, so it stays bound.
from .chain import step_level_integrals  # noqa: F401

__all__ = [
    "ObservationGrid",
    "synthesize_observations",
    "observation_blocks",
    "cumulative_observation",
    "coarsen",
    "open_table",
    "write_rows",
    "write_table",
    "write_observations_csv",
]


@dataclass(frozen=True, eq=False)
class ObservationGrid:
    """Observation increments on a uniform grid, with y(0) = 0.

    Attributes:
        dt: step size, finite and > 0.
        beta: noise intensity, finite and > 0, with beta**2 and 1/beta**2
            finite and nonzero (:func:`jumpfilter.kernels.check_step`).
        dy: observation increments, shape (n,).
        dw: Brownian increments used to build ``dy``, shape (n,).
        x_level: signal level at the start of each step, shape (n,).
    """

    dt: float
    beta: float
    dy: np.ndarray
    dw: np.ndarray
    x_level: np.ndarray

    def __post_init__(self):
        check_step(self.dt, self.beta)
        for name in ("dy", "dw", "x_level"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.dy.ndim == 1 and self.dy.shape == self.dw.shape == self.x_level.shape):
            raise ValueError("dy, dw and x_level must be aligned 1-d arrays")

    @property
    def n_steps(self) -> int:
        return self.dy.shape[0]

    @property
    def times(self) -> np.ndarray:
        """Step start times r*dt, r = 0..n-1."""
        return np.arange(self.n_steps) * self.dt


def _step_count(horizon: float, dt: float) -> int:
    ratio = horizon / dt if dt > 0 else math.nan
    if not math.isfinite(ratio):
        raise ValueError(f"dt={dt} and horizon={horizon} give no finite step count")
    n = int(round(ratio))
    if n > STEP_BUDGET:
        raise ValueError(f"dt={dt} gives {n} steps over horizon={horizon}, above the budget "
                         f"of {STEP_BUDGET:.0e}")
    if n < 1 or abs(n * dt - horizon) > 1e-9 * max(1.0, abs(horizon)):
        raise ValueError(f"dt={dt} does not divide horizon={horizon}")
    return n


def synthesize_observations(
    path: JumpPath, model: ChainModel, dt: float, beta: float, rng: np.random.Generator
) -> ObservationGrid:
    """Draw Brownian increments and synthesize  dy_r = integral of x + beta dw_r:
    :func:`observation_blocks` collected into one grid."""
    blocks = list(observation_blocks(path, model, dt, beta, rng))
    return ObservationGrid(dt=dt, beta=beta, **{
        name: np.concatenate([getattr(block, name) for block in blocks])
        for name in ("dy", "dw", "x_level")})


def observation_blocks(
    path: JumpPath, model: ChainModel, dt: float, beta: float, rng: np.random.Generator
) -> Iterator[ObservationGrid]:
    """The one synthesis routine: the grid of :func:`synthesize_observations`
    as consecutive grids of ``kernels.BLOCK_ROWS`` steps, synthesized as each
    is asked for. For each block of steps lo..hi-1: its Brownian increments,
    ``rng``'s next draws (draws in chunks equal one draw), the exact signal
    integrals over its slice of the grid
    (:func:`jumpfilter.chain.segment_integrals`) and the level of the state
    the path holds at the start of each step (``JumpPath.states_at``)."""
    n = _step_count(path.horizon, dt)
    segments = path_segments(path, model)
    for lo, hi in kernels.block_steps(n):
        dw = np.sqrt(dt) * rng.standard_normal(hi - lo)
        signal = segment_integrals(segments, _uniform_grid(n, dt, path.horizon, lo, hi))
        levels = model.levels[path.states_at(np.arange(lo, hi) * dt)]
        yield ObservationGrid(dt=dt, beta=beta, dy=signal + beta * dw, dw=dw, x_level=levels)


def cumulative_observation(grid: ObservationGrid) -> np.ndarray:
    """y at all grid points 0..n (prefix sums, y(0) = 0), shape (n+1,)."""
    return np.concatenate(([0.0], np.cumsum(grid.dy)))


def coarsen(grid: ObservationGrid, factor: int) -> ObservationGrid:
    """Aggregate consecutive groups of ``factor`` steps into one coarse step;
    ValueError unless ``factor`` is a positive integer that divides the steps."""
    if not (is_count(factor) and factor >= 1 and grid.n_steps % factor == 0):
        raise ValueError(f"factor {factor!r} is not a positive integer that divides "
                         f"{grid.n_steps} steps")
    return ObservationGrid(
        dt=grid.dt * factor,
        beta=grid.beta,
        dy=grid.dy.reshape(-1, factor).sum(axis=1),
        dw=grid.dw.reshape(-1, factor).sum(axis=1),
        x_level=grid.x_level[::factor].copy(),
    )


# The format of every float a written table holds: 17 significant digits,
# which read back to the same float.
FLOAT = "%.17g"


def open_table(destination, header: list[str]):
    """``destination`` opened for writing a CSV table, its header row written."""
    fh = open(destination, "w", newline="")
    fh.write(",".join(header) + "\r\n")
    return fh


def write_rows(fh, formats: list[str], columns) -> None:
    """Write one row per index of ``columns`` to the open table ``fh``,
    ``kernels.BLOCK_ROWS`` rows at a time, which bounds the memory of the text.

    ``formats`` holds one %-format per column ("%d", :data:`FLOAT` or "%s");
    columns are equal-length 1-d arrays, ranges or lists. Fields never need
    quoting here, so each row is one format operation on Python scalars;
    rows end in "\\r\\n" like the csv module's.
    """
    line = ",".join(formats) + "\r\n"
    rows = kernels.BLOCK_ROWS
    for start in range(0, len(columns[0]), rows):
        block = [column[start : start + rows] for column in columns]
        block = [c.tolist() if isinstance(c, np.ndarray) else c for c in block]
        fh.write("".join([line % row for row in zip(*block)]))


def write_table(destination, header: list[str], formats: list[str], columns) -> None:
    """Write a CSV table: the header row, then :func:`write_rows`."""
    with open_table(destination, header) as fh:
        write_rows(fh, formats, columns)


def write_observations_csv(blocks, destination) -> None:
    """Write "r,t,dy,dw,x_level" rows with 17 significant digits, of
    consecutive ObservationGrids (:func:`observation_blocks`), each written
    as it comes."""
    with open_table(destination, ["r", "t", "dy", "dw", "x_level"]) as fh:
        lo = 0
        for block in blocks:
            hi = lo + block.n_steps
            write_rows(fh, ["%d"] + [FLOAT] * 4,
                       [range(lo, hi), np.arange(lo, hi) * block.dt, block.dy, block.dw,
                        block.x_level])
            lo = hi
