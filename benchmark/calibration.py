"""Speed of the machine right now, from a fixed computation of the benchmark's own.

The benchmark runs on a few cores of a shared host whose speed drifts: a
fixed pure-Python loop was measured to take up to 1.6 times as long over a
few minutes, with the minimum moving as much as the median. No statistic
over one run removes a drift that lasts the whole run, so every timed
operation is bracketed by :func:`calibrate`, and its time is scaled to the
reference speed::

    reference-speed time = measured time * CAL_REF_S / calibration time

where the calibration time is the mean of the calibrations just before and
just after the operation; after a long operation several calibrations run,
so that the speed is sampled over a fixed share of its time. The calibration
never calls the package, so a change to the package moves the scaled time
and leaves the calibration as it is. Its instruction mix follows the workloads: a per-step loop over K=2
arrays (the single-trajectory filters), per-replica seeded generators with
searchsorted lookups (path simulation in the tower check) and a batched
(2000, 2) update (the tower check's filter).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Calibration time at the reference speed: the scale of every reported time.
CAL_REF_S = 0.080
# Share of an operation's time spent calibrating after it.
CAL_SHARE = 0.15

_GENERATOR = np.array([[-1.0, 1.0], [1.0, -1.0]])
_LEVELS = np.array([-1.0, 1.0])
_DT = 1e-3


def calibrate() -> float:
    """Seconds taken by the fixed calibration computation (about 75 ms)."""
    rng = np.random.default_rng(12345)
    increments = rng.standard_normal(1500) * 0.03
    grid = np.arange(1001) * _DT
    start = time.perf_counter()

    p = np.array([0.5, 0.5])
    for dy in increments:
        mean = float(_LEVELS @ p)
        p = p + (_GENERATOR.T @ p) * _DT + 0.5 * p * (_LEVELS - mean) * (dy - 0.5 * mean * _DT)
        p = np.maximum(p, 0.0)
        p = p / p.sum()

    total = 0.0
    for replica in range(350):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([7, replica, 1])))
        jumps = np.cumsum(gen.exponential(1.0, size=4))
        index = np.searchsorted(jumps, grid, side="right")
        total += float(gen.standard_normal(grid.size) @ index)

    probs = np.full((2000, 2), 0.5)
    for _ in range(120):
        dy = rng.standard_normal((2000, 1)) * 0.03
        mean = (probs @ _LEVELS)[:, None]
        probs = probs + (probs @ _GENERATOR) * _DT + 0.5 * probs * (_LEVELS - mean) * (dy - 0.5 * mean * _DT)
        probs /= probs.sum(axis=1, keepdims=True)

    elapsed = time.perf_counter() - start
    if not (np.isfinite(total) and np.all(np.isfinite(probs)) and np.isfinite(p).all()):
        raise ArithmeticError("calibration produced a non-finite value")
    return elapsed


def calibrate_after(op_s: float) -> float:
    """Mean calibration time over about ``CAL_SHARE * op_s`` seconds, at least one call."""
    calls = max(1, round(CAL_SHARE * op_s / CAL_REF_S))
    return statistics.fmean(calibrate() for _ in range(calls))


def to_reference(seconds: float, cal_s: float) -> float:
    """``seconds`` measured while the calibration took ``cal_s``, at the reference speed."""
    return seconds * CAL_REF_S / cal_s
