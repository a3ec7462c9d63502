"""Observation synthesis on a uniform grid:  dy = x dt + beta dw.

Each increment combines the exact signal integral over its step (computed
from the jump path, no Riemann error) with a Gaussian term beta*sqrt(dt)*z.
Brownian increments are retained so different schemes can consume the
identical noise realization, and so a fine grid can be aggregated into a
coarse one for refinement studies.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .chain import STEP_BUDGET, ChainModel, JumpPath, step_level_integrals
from .kernels import check_step

__all__ = [
    "ObservationGrid",
    "synthesize_observations",
    "synthesize_from_brownian",
    "cumulative_observation",
    "coarsen",
    "write_table",
    "write_observations_csv",
    "read_observations_csv",
]

CSV_HEADER = ["r", "t", "dy", "dw", "x_level"]


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
    def horizon(self) -> float:
        return self.n_steps * self.dt

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


def synthesize_from_brownian(
    path: JumpPath, model: ChainModel, dt: float, beta: float, dw: np.ndarray
) -> ObservationGrid:
    """Build observation increments from given Brownian increments."""
    dw = np.asarray(dw, dtype=float)
    n = _step_count(path.horizon, dt)
    if dw.shape != (n,):
        raise ValueError(f"dw must have shape ({n},)")
    signal = step_level_integrals(path, model, dt, n)
    starts = np.arange(n) * dt
    idx = np.searchsorted(path.jump_times, starts, side="right")
    levels = model.levels[path.states_visited[idx]]
    return ObservationGrid(dt=dt, beta=beta, dy=signal + beta * dw, dw=dw, x_level=levels)


def synthesize_observations(
    path: JumpPath, model: ChainModel, dt: float, beta: float, rng: np.random.Generator
) -> ObservationGrid:
    """Draw Brownian increments and synthesize  dy_r = integral of x + beta dw_r."""
    n = _step_count(path.horizon, dt)
    dw = np.sqrt(dt) * rng.standard_normal(n)
    return synthesize_from_brownian(path, model, dt, beta, dw)


def cumulative_observation(grid: ObservationGrid) -> np.ndarray:
    """y at all grid points 0..n (prefix sums, y(0) = 0), shape (n+1,)."""
    return np.concatenate(([0.0], np.cumsum(grid.dy)))


def coarsen(grid: ObservationGrid, factor: int) -> ObservationGrid:
    """Aggregate consecutive groups of ``factor`` steps into one coarse step."""
    if factor < 1 or grid.n_steps % factor != 0:
        raise ValueError(f"factor {factor} does not divide {grid.n_steps} steps")
    return ObservationGrid(
        dt=grid.dt * factor,
        beta=grid.beta,
        dy=grid.dy.reshape(-1, factor).sum(axis=1),
        dw=grid.dw.reshape(-1, factor).sum(axis=1),
        x_level=grid.x_level[::factor].copy(),
    )


# Rows formatted per write: bounds the memory of a table's text and lists.
ROWS_PER_WRITE = 1024


def write_table(destination, header: list[str], formats: list[str], columns) -> None:
    """Write a CSV table: the header row, then one row per index of ``columns``.

    ``formats`` holds one %-format per column ("%d", "%.17g" or "%s");
    columns are equal-length 1-d arrays, ranges or lists. Fields never need
    quoting here, so each row is one format operation on Python scalars;
    rows end in "\\r\\n" like the csv module's.
    """
    line = ",".join(formats) + "\r\n"
    with open(destination, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), ROWS_PER_WRITE):
            block = [column[start : start + ROWS_PER_WRITE] for column in columns]
            block = [c.tolist() if isinstance(c, np.ndarray) else c for c in block]
            fh.write("".join([line % row for row in zip(*block)]))


def write_observations_csv(grid: ObservationGrid, destination) -> None:
    """Write "r,t,dy,dw,x_level" rows with 17 significant digits."""
    write_table(
        destination,
        CSV_HEADER,
        ["%d", "%.17g", "%.17g", "%.17g", "%.17g"],
        [range(grid.n_steps), grid.times, grid.dy, grid.dw, grid.x_level],
    )


def read_observations_csv(source, beta: float) -> ObservationGrid:
    """Read a grid written by :func:`write_observations_csv`.

    beta is not stored in the CSV; it travels with the experiment config.
    Every value must be finite, and the times must be the uniform grid r*dt
    from 0 (to 1e-9 relative, as in :func:`_step_count`) with dt = t_1 - t_0.
    """
    with open(source, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected header {header}")
        rows = [(float(t), float(dy), float(dw), float(lvl)) for _, t, dy, dw, lvl in reader]
    if len(rows) < 2:
        raise ValueError("need at least 2 rows to recover the step size")
    columns = dict(zip(CSV_HEADER[1:], map(np.array, zip(*rows))))
    for name, column in columns.items():
        if not np.isfinite(column).all():
            raise ValueError(f"column {name} holds a non-finite value")
    t = columns.pop("t")
    dt = float(t[1] - t[0])
    if t[0] != 0 or np.abs(t - np.arange(len(t)) * dt).max() > 1e-9 * max(1.0, abs(t[-1])):
        raise ValueError("column t is not the uniform grid r*dt starting at 0")
    return ObservationGrid(dt=dt, beta=beta, **columns)
