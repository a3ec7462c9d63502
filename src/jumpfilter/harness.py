"""Experiment drivers: simulate, filter, convergence studies, sign
adjudication, prediction, and deterministic CSV/JSON emission.

Every driver is reproducible from a single master seed: the jump randomness
and the observation randomness of replica ``r`` come from generators seeded
with ``derive_seed(master_seed, r, role)`` (see :mod:`jumpfilter.seeding`),
so either stream can be replayed independently.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .chain import (
    STEP_BUDGET,
    ChainModel,
    JumpPath,
    check_horizon,
    check_jump_budget,
    is_real,
    json_fields,
    model_from_json,
    model_to_json,
    simulate_jump_path,
)
from .kernels import KERNELS, Trajectory, check_run, check_signs, check_step, drive, run_steps
from .seeding import ROLE_JUMP, ROLE_NOISE, derive_rng
from .signalpath import (
    FLOAT,
    ObservationGrid,
    _step_count,
    coarsen,
    observation_blocks,
    open_table,
    synthesize_observations,
    write_observations_csv,
    write_rows,
    write_table,
)

if TYPE_CHECKING:
    from .wonham import FilterState
    from .zakai import UnnormalizedState

# Not called here; benchmark/tracing.py wraps these names as attributes of
# this module, so they stay bound. bayes_forward_step is served by
# __getattr__ below, so that loading this module does not load the oracle.
from .chain import transition_matrix  # noqa: F401
from .kernels import finish_simplex_step, wonham_update_raw  # noqa: F401


def __getattr__(name: str):
    if name == "bayes_forward_step":
        from .oracle import bayes_forward_step

        return bayes_forward_step
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "SCHEMES",
    "ExperimentConfig",
    "Trajectory",
    "run_trajectory",
    "run_simulate",
    "run_filter",
    "run_convergence",
    "run_adjudicate",
    "run_predict",
]

SCHEMES = tuple(KERNELS)

# config document key -> ExperimentConfig field, in the order to_json writes them
CONFIG_FIELDS = {
    "model": "model", "T": "horizon", "dt": "dt", "beta": "beta", "scheme": "scheme",
    "correction_sign": "correction_sign", "sign_variant": "sign_variant",
    "master_seed": "master_seed", "out_dir": "out_dir",
}


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """One experiment: model + horizon + step + scheme selection + seeds.

    Construction is the one check of a config. It raises ValueError unless
    the scheme is known; horizon, dt and beta are real numbers (not bools),
    finite and positive, stored as float; beta**2 and 1/beta**2 are finite
    and nonzero; correction_sign and master_seed are numbers of integral
    value (not bools), stored as int; dt divides the horizon into at most
    ``STEP_BUDGET`` steps; the sign options are valid; the scheme can filter
    the model; a path over the horizon expects at most ``JUMP_BUDGET``
    jumps; and ``out_dir`` is a str or a path, not the empty str. Messages
    name the config key.
    """

    model: ChainModel
    horizon: float
    dt: float
    beta: float
    scheme: str = "wonham-ito"
    correction_sign: int = -1
    sign_variant: str = "innovation"
    master_seed: int = 0
    out_dir: str = "."

    def __post_init__(self):
        kernel = _kernel(self.scheme)
        for key, kind in (("T", float), ("dt", float), ("beta", float),
                          ("correction_sign", int), ("master_seed", int)):
            name = CONFIG_FIELDS[key]
            object.__setattr__(self, name, _number(key, getattr(self, name), kind))
        check_step(self.dt, self.beta)
        _step_count(self.horizon, self.dt)
        check_signs(self.correction_sign, self.sign_variant)
        kernel.check_model(self.model)
        check_jump_budget(self.model, self.horizon)
        if not isinstance(self.out_dir, (str, os.PathLike)):
            raise ValueError(f"out_dir must be a str or a path, not {self.out_dir!r}")
        if self.out_dir == "":
            raise ValueError("out_dir must not be empty; write '.' for the working directory")

    def to_json(self) -> dict:
        doc = {key: getattr(self, name) for key, name in CONFIG_FIELDS.items()}
        doc.update(model=model_to_json(self.model), out_dir=str(self.out_dir))
        return doc

    @classmethod
    def from_json(cls, source: str | dict) -> "ExperimentConfig":
        """The config of a JSON document; ValueError for an unknown or a
        missing key, and for every value that construction refuses."""
        values = json_fields(source, "config", CONFIG_FIELDS, ("model", "T", "dt", "beta"))
        values["model"] = model_from_json(values["model"])
        return cls(**values)


def _kernel(scheme: str):
    """The kernel class of ``scheme``: the one check that a scheme is known."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    return KERNELS[scheme]


def _number(key: str, value, kind: type):
    """``value`` of the config key ``key`` as ``kind``: a float for a finite,
    positive real number, an int for a number of integral value; ValueError
    naming the key for a bool, a value of another type or out of range."""
    real = is_real(value)
    if kind is int:
        if real and (isinstance(value, numbers.Integral) or float(value).is_integer()):
            return int(value)
        raise ValueError(f"config key {key!r} must be a number with an integer value, "
                         f"not {value!r}")
    if not real:
        raise ValueError(f"config key {key!r} must be a number, not {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not 0 < number < math.inf:
        raise ValueError(f"config key {key!r} must be finite and positive, not {value!r}")
    return number


def run_trajectory(
    model: ChainModel,
    grid: ObservationGrid,
    scheme: str,
    correction_sign: int = -1,
    sign_variant: str = "innovation",
    initial: UnnormalizedState | FilterState | None = None,
) -> Trajectory:
    """Drive the selected scheme over the whole observation grid.

    Builds the scheme's kernel once, which checks the options and the model,
    and runs it through :func:`jumpfilter.kernels.drive`, which owns every
    check of the run: finite increments, a finite on-simplex history, the
    pre-renormalization sum guard and the clamp budget.
    """
    kernel = _kernel(scheme)(model, grid.dt, grid.beta, correction_sign, sign_variant)
    return drive(kernel, kernel.start(initial), grid.dy)


# ---------------------------------------------------------------------------
# file emission


def _write_json(destination, payload: dict) -> None:
    with open(destination, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextmanager
def _committed(out: Path):
    """Files written in ``out`` under temporary names, each moved onto its
    name (``os.replace``) only when the block ends normally; ``temp(name)``
    gives the temporary path of ``name``. If the block raises, each is
    removed, so a failed run leaves no new, partial or temporary file."""
    temps = {}

    def temp(name: str) -> Path:
        temps[name] = out / f".{name}.{os.getpid()}.tmp"
        return temps[name]

    try:
        yield temp
        for name, path in temps.items():
            os.replace(path, out / name)
    except BaseException:
        for path in temps.values():
            path.unlink(missing_ok=True)
        raise


def write_path_csv(path: JumpPath, destination) -> None:
    """Jump events as "k,t,state"; row 0 is the initial state at t=0."""
    write_table(
        destination,
        ["k", "t", "state"],
        ["%d", FLOAT, "%d"],
        [
            range(path.n_jumps + 1),
            np.concatenate(([0.0], path.jump_times)),
            path.states_visited,
        ],
    )


def write_trajectory_csv(fh, rows: range, times, y, x_level: list, probs: np.ndarray,
                         model: ChainModel) -> None:
    """Rows ``rows`` of the normalized trajectory table
    "r,t,y,x_level,p_1..p_K,xbar,map_state" to the open table ``fh``, from
    their times, observations y, formatted signal levels at t, and probs."""
    k = probs.shape[1]
    # numpy takes a one-row product through dot, which may round otherwise
    xbar = (probs if len(probs) > 1 else np.repeat(probs, 2, axis=0)) @ model.levels
    write_rows(fh, ["%d", FLOAT, FLOAT, "%s"] + [FLOAT] * k + [FLOAT, "%d"],
               [rows, times, y, x_level, *probs.T, xbar[:len(probs)],
                np.argmax(probs, axis=1)])


def write_unnormalized_csv(fh, rows: range, times, log_weights: np.ndarray) -> None:
    """Rows ``rows`` of the unnormalized trajectory table
    "r,t,psi_1..psi_K,log_normalizer" to the open table ``fh``.

    psi columns hold the rescaled weights (unit sum); log_normalizer restores
    the represented magnitude.
    """
    top = log_weights.max(axis=1)
    psi = np.exp(log_weights - top[:, None])
    total = psi.sum(axis=1)
    psi /= total[:, None]
    log_norm = top + np.log(total)
    write_rows(fh, ["%d"] + [FLOAT] * (log_weights.shape[1] + 2),
               [rows, times, *psi.T, log_norm])


class _TrajectoryTables:
    """The ``consume`` of a written filter run (:meth:`write`): the rows of
    each block go to trajectory.csv as they come, in the unnormalized format
    with estimates.csv beside it when the run carries log weights. Used as a
    context, which closes the tables."""

    def __init__(self, temp, path: JumpPath, model: ChainModel, dt: float, n_steps: int):
        self.temp, self.path, self.model, self.dt, self.n_steps = temp, path, model, dt, n_steps
        self.tables = {}
        self.y = None  # y at the last row written, once a step has been
        self.x_text = [FLOAT % level for level in model.levels.tolist()]

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        for fh in self.tables.values():
            fh.close()

    def write(self, lo: int, dy: np.ndarray, probs: np.ndarray, extras: dict) -> None:
        if not self.tables:
            k = self.model.n_states
            header = ["r", "t", "y", "x_level", *(f"p_{j + 1}" for j in range(k)), "xbar",
                      "map_state"]
            headers = {"trajectory.csv": header}
            if "log_weights" in extras:
                headers = {"trajectory.csv": ["r", "t", *(f"psi_{j + 1}" for j in range(k)),
                                              "log_normalizer"], "estimates.csv": header}
            for name, columns in headers.items():
                self.tables[name] = open_table(self.temp(name), columns)
        hi = lo + len(probs)
        rows, times = range(lo, hi), np.arange(lo, hi) * self.dt
        # y carries its running sum into the block's cumsum as its first element
        if self.y is None:
            y = np.cumsum(dy)
        else:
            y = np.cumsum(np.concatenate(([self.y], dy)))[1:]
        if lo == 0:
            y = np.concatenate(([0.0], y))
        if len(dy):
            self.y = y[-1]
        # the signal's state at each t; at t=T, the state the path ends in
        states = self.path.states_at(times)
        if hi == self.n_steps + 1:
            states[-1] = self.path.states_visited[-1]
        x_level = [self.x_text[state] for state in states.tolist()]
        if "log_weights" in extras:
            write_unnormalized_csv(self.tables["trajectory.csv"], rows, times,
                                   extras["log_weights"])
        write_trajectory_csv(self.tables.get("estimates.csv", self.tables["trajectory.csv"]),
                             rows, times, y, x_level, probs, self.model)


# ---------------------------------------------------------------------------
# drivers


def simulate_pair(config: ExperimentConfig):
    """Signal path and observation grid of the config (replica 0 of its seed)."""
    return _simulated(config, synthesize_observations)


def _simulated(config: ExperimentConfig, synthesize):
    """The config's signal path, drawn from replica 0's jump stream, and
    ``synthesize(path, model, dt, beta, rng)`` on replica 0's noise stream:
    the observation grid, or its blocks (:func:`observation_blocks`)."""
    seed = config.master_seed
    path = simulate_jump_path(config.model, config.horizon, derive_rng(seed, 0, ROLE_JUMP))
    return path, synthesize(path, config.model, config.dt, config.beta,
                            derive_rng(seed, 0, ROLE_NOISE))


def _out_dir(config: ExperimentConfig) -> Path:
    """The config's output directory, created if missing."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def run_simulate(config: ExperimentConfig) -> dict:
    """Simulate one signal/observation pair and write both CSV files, the
    observations block by block as they are synthesized."""
    out = _out_dir(config)
    path, blocks = _simulated(config, observation_blocks)
    with _committed(out) as temp:
        write_path_csv(path, temp("path.csv"))
        write_observations_csv(blocks, temp("observations.csv"))
    return {"path_csv": str(out / "path.csv"), "observations_csv": str(out / "observations.csv"),
            "n_steps": _step_count(config.horizon, config.dt)}


def run_filter(config: ExperimentConfig, write: bool = True) -> tuple[Trajectory, dict]:
    """Run the configured scheme on the config's simulated observations,
    each block of steps as it is synthesized
    (:func:`jumpfilter.kernels.run_steps`), so that memory does not grow with
    the number of steps. The returned run keeps its final row.

    With ``write``, each block's rows are written as they come
    (:class:`_TrajectoryTables`) under temporary names, which become
    trajectory.csv (and estimates.csv for a scheme with log weights) and
    run_report.json only once the exit checks pass.
    """
    path, blocks = _simulated(config, observation_blocks)
    kernel = _kernel(config.scheme)(config.model, config.dt, config.beta,
                                    config.correction_sign, config.sign_variant)
    increments = (grid.dy for grid in blocks)
    if not write:
        trajectory = check_run(run_steps(kernel, kernel.start(), increments))
        return trajectory, _filter_report(config, trajectory)
    out = _out_dir(config)
    with _committed(out) as temp:
        n_steps = _step_count(config.horizon, config.dt)
        with _TrajectoryTables(temp, path, config.model, config.dt, n_steps) as tables:
            trajectory = check_run(run_steps(kernel, kernel.start(), increments, tables.write))
        report = _filter_report(config, trajectory)
        for name in tables.tables:
            report[name.replace(".", "_")] = str(out / name)
        _write_json(temp("run_report.json"), report)
    return trajectory, report


def _filter_report(config: ExperimentConfig, trajectory: Trajectory) -> dict:
    return {
        "scheme": config.scheme,
        "correction_sign": config.correction_sign,
        "sign_variant": config.sign_variant,
        "clamps": trajectory.clamps,
        "n_steps": trajectory.n_steps,
        "dt": config.dt,
        "beta": config.beta,
        "master_seed": config.master_seed,
        "presum_max_dev": trajectory.presum_max_dev,
    }


def _field(run: Trajectory, field: str) -> np.ndarray:
    """probs, an extra, or for "q" without a "q" extra probs[:, 0] - probs[:, 1]."""
    if field == "q" and "q" not in run.extras:
        return run.probs[:, 0] - run.probs[:, 1]
    return run.probs if field == "probs" else run.extras[field]


def _filters(scheme: str, model: ChainModel) -> bool:
    try:
        KERNELS[scheme].check_model(model)
    except ValueError:
        return False
    return True


def _ladders(config: ExperimentConfig, halvings: int, pairs: dict):
    """The grids dt, dt/2, ..., dt/2^halvings, all coarsened from one Brownian
    path, and for each pair label its max-over-time discrepancy on each grid.

    A pair is (side, side, field): a side is the (scheme, correction_sign,
    sign_variant) of one run and the field is "probs", "log_weights" or "q".
    Each distinct side runs once per grid. A pair is left out when the
    scheme of either side cannot filter the config's model.
    """
    # imported here: no other command of the runners fans out
    from .fanout import fan_out, fork_workers

    _, fine = simulate_pair(replace(config, dt=math.ldexp(config.dt, -halvings)))
    grids = [coarsen(fine, 2 ** (halvings - k)) for k in range(halvings + 1)]
    pairs = {label: pair for label, pair in pairs.items()
             if all(_filters(side[0], config.model) for side in pair[:2])}
    sides = dict.fromkeys(side for pair in pairs.values() for side in pair[:2])
    ladders = {label: [] for label in pairs}
    tasks = [(config.model, grid, sides, pairs) for grid in grids]
    # the finest grid, the last task, starts first; a traced run stays in this
    # process, as a worker would keep a wrapping tracer's records to itself
    workers = 1 if hasattr(run_trajectory, "__wrapped__") else fork_workers(len(tasks))
    for values in fan_out(_grid_discrepancies, tasks, workers):
        for label, value in zip(pairs, values):
            ladders[label].append(value)
    return grids, ladders


def _grid_discrepancies(task) -> list[float]:
    """For ``task = (model, grid, sides, pairs)``: run each side once on the
    grid and return the max-over-time discrepancy of each pair, in order.

    A pair is reduced as soon as both of its sides have run, and a side's
    trajectory is dropped after its last pair, so at most the sides of the
    pairs still open are held at once."""
    model, grid, sides, pairs = task
    runs, values = {}, {}
    for side in sides:
        runs[side] = run_trajectory(model, grid, *side)
        for label, (a, b, field) in pairs.items():
            if label not in values and a in runs and b in runs:
                values[label] = float(np.abs(_field(runs[a], field) - _field(runs[b], field)).max())
        open_sides = {s for label, pair in pairs.items() if label not in values for s in pair[:2]}
        runs = {s: run for s, run in runs.items() if s in open_sides}
    return [values[label] for label in pairs]


ITO = ("zakai-ito", -1, "innovation")
WONHAM = ("wonham-ito", -1, "innovation")
LANGEVIN = {sign: ("zakai-langevin", sign, "innovation") for sign in (-1, +1)}

CONVERGENCE_PAIRS = {
    "zakai-ito|wonham-ito": (ITO, WONHAM, "probs"),
    "zakai-langevin(-1)|zakai-ito": (LANGEVIN[-1], ITO, "log_weights"),
    "zakai-langevin(+1)|zakai-ito": (LANGEVIN[+1], ITO, "log_weights"),
    "log|wonham-ito": (("log", -1, "innovation"), WONHAM, "probs"),
    "gamma|zakai-langevin(-1)": (("gamma", -1, "innovation"), LANGEVIN[-1], "probs"),
    "telegraph-ito|wonham-ito": (("telegraph-ito", -1, "innovation"), WONHAM, "q"),
}
ADJUDICATE_PAIRS = {
    -1: CONVERGENCE_PAIRS["zakai-langevin(-1)|zakai-ito"],
    +1: CONVERGENCE_PAIRS["zakai-langevin(+1)|zakai-ito"],
    "innovation": (WONHAM, ITO, "probs"),
    "paper": (("wonham-ito", -1, "paper"), ITO, "probs"),
}


def run_convergence(config: ExperimentConfig, halvings: int) -> list[dict]:
    """Mesh-refinement table of cross-scheme discrepancies and empirical orders.

    For each mesh level (dt halved ``halvings`` times, all levels consuming
    the same underlying Brownian path) the max-over-time discrepancy of each
    pair of :data:`CONVERGENCE_PAIRS` is reported together with
    log2(e_k / e_{k+1}).
    """
    if halvings < 2:
        raise ValueError("need at least 2 halvings to estimate an order")
    if _step_count(config.horizon, config.dt) * 2**halvings > STEP_BUDGET:
        raise ValueError(f"--halvings {halvings} refines dt={config.dt} beyond the step budget "
                         f"of {STEP_BUDGET:.0e} steps over T={config.horizon}")
    grids, ladders = _ladders(config, halvings, CONVERGENCE_PAIRS)
    rows = []
    for name, ladder in ladders.items():
        for k, value in enumerate(ladder):
            order = math.log2(ladder[k] / ladder[k + 1]) if (
                k + 1 < len(ladder) and ladder[k + 1] > 0 and ladder[k] > 0
            ) else math.nan
            rows.append({"pair": name, "level": k, "dt": grids[k].dt,
                         "max_discrepancy": value, "order": order})
    names = ["pair", "level", "dt", "max_discrepancy", "order"]
    write_table(
        _out_dir(config) / "convergence.csv",
        names,
        ["%s", "%d", FLOAT, FLOAT, FLOAT],
        [[row[name] for row in rows] for name in names],
    )
    return rows


NEGLIGIBLE = 1e-11       # a ladder never above this is rounding noise
PLATEAU_FACTOR = 10.0    # how far above the convergent variant the other must plateau
ADJUDICATE_HALVINGS = 2  # three grids: dt, dt/2, dt/4


def _classify_ladder(ladder: list[float]) -> str:
    if max(ladder) <= NEGLIGIBLE:
        return "negligible"
    if ladder[-1] <= 0.5 * ladder[0]:
        return "convergent"
    if ladder[-1] >= 0.7 * ladder[0]:
        return "plateau"
    return "unclear"


def _adjudicate_dimension(names: tuple, ladders: dict) -> dict:
    kinds = {name: _classify_ladder(ladders[name]) for name in names}
    result = {
        "discrepancies": {str(name): ladders[name] for name in names},
        "classification": {str(name): kinds[name] for name in names},
    }
    first, second = (np.asarray(ladders[n]) for n in names)
    scale = max(first.max(), second.max(), 1e-30)
    if all(kind == "negligible" for kind in kinds.values()) or np.all(
        np.abs(first - second) <= 1e-9 * scale
    ):
        # the variants coincide (or both sit at rounding level): nothing to decide
        result["verdict"] = "indistinguishable"
        return result
    convergent = [n for n in names if kinds[n] == "convergent"]
    plateau = [n for n in names if kinds[n] == "plateau"]
    if len(convergent) == 1 and len(plateau) == 1:
        ratio = ladders[plateau[0]][-1] / ladders[convergent[0]][-1]
        result["plateau_ratio"] = ratio
        if ratio >= PLATEAU_FACTOR:
            result["verdict"] = convergent[0]
            return result
    result["verdict"] = "inconclusive"
    return result


def run_adjudicate(config: ExperimentConfig) -> dict:
    """Decide the correction sign and the normalized-filter drift sign.

    Both smooth-noise correction signs are run against the Euler scheme of the
    Ito equation (compared in the represented log-weight domain, which is
    where the signs differ even when all a_j^2 coincide), and both normalized
    drift variants are run against the normalized unnormalized-filter output.
    A variant is accepted only when it converges under mesh halving while the
    other plateaus at least ``PLATEAU_FACTOR`` (10x) above it; otherwise the
    report says 'inconclusive' or 'indistinguishable' rather than picking.
    """
    grids, ladders = _ladders(config, ADJUDICATE_HALVINGS, ADJUDICATE_PAIRS)
    report = {
        "dt_levels": [g.dt for g in grids],
        "correction_sign": _adjudicate_dimension((-1, +1), ladders),
        "drift_variant": _adjudicate_dimension(("innovation", "paper"), ladders),
    }
    _write_json(_out_dir(config) / "adjudication.json", report)
    return report


def run_predict(config: ExperimentConfig, horizons) -> list[dict]:
    """Predictions from the terminal filter state for each lookahead horizon.

    ValueError, before any work, unless ``horizons`` holds at least one
    horizon and each is finite and nonnegative."""
    horizons = list(horizons)
    if not horizons:
        raise ValueError("give at least one prediction horizon")
    for h in horizons:
        check_horizon(h)
    from .wonham import FilterState, predict  # the one runner that loads wonham

    trajectory, _ = run_filter(config, write=False)
    state = FilterState(probs=trajectory.probs[-1])
    rows = [{"h": h, "probs": predict(state, config.model, h)} for h in horizons]
    k = config.model.n_states
    write_table(
        _out_dir(config) / "prediction.csv",
        ["h"] + [f"p_{j + 1}" for j in range(k)],
        [FLOAT] * (k + 1),
        [[row["h"] for row in rows], *np.array([row["probs"] for row in rows]).T],
    )
    return rows
