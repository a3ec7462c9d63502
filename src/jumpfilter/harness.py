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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import wonham
from .chain import (
    ChainModel,
    JumpPath,
    check_jump_budget,
    json_fields,
    model_from_json,
    model_to_json,
    simulate_jump_path,
)
from .kernels import KERNELS, Trajectory, check_signs, check_step, drive
from .seeding import ROLE_JUMP, ROLE_NOISE, derive_rng
from .signalpath import (
    ObservationGrid,
    _step_count,
    coarsen,
    cumulative_observation,
    synthesize_observations,
    write_observations_csv,
    write_table,
)
from .wonham import FilterState
from .zakai import UnnormalizedState

# Not called here; benchmark/tracing.py wraps these names as attributes of
# this module, so they stay bound.
from .chain import transition_matrix  # noqa: F401
from .oracle import bayes_forward_step  # noqa: F401
from .wonham import finish_simplex_step, wonham_update_raw  # noqa: F401

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
    jumps; and ``out_dir`` is a str or a path. Messages name the config key.
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
    real = isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))
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

FLOAT = "%.17g"


def _write_json(destination, payload: dict) -> None:
    with open(destination, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def write_trajectory_csv(
    destination, grid: ObservationGrid, trajectory: Trajectory, model: ChainModel
) -> None:
    """Normalized trajectory as "r,t,y,x_level,p_1..p_K,xbar,map_state"."""
    probs = trajectory.probs
    k = probs.shape[1]
    header = ["r", "t", "y", "x_level"] + [f"p_{j + 1}" for j in range(k)] + ["xbar", "map_state"]
    columns = [
        range(len(trajectory.times)),
        trajectory.times,
        cumulative_observation(grid),
        np.append(grid.x_level, grid.x_level[-1]),
        *probs.T,
        probs @ model.levels,
        np.argmax(probs, axis=1),
    ]
    write_table(destination, header, ["%d"] + [FLOAT] * (k + 4) + ["%d"], columns)


def write_unnormalized_csv(destination, trajectory: Trajectory) -> None:
    """Unnormalized trajectory as "r,t,psi_1..psi_K,log_normalizer".

    psi columns hold the rescaled weights (unit sum); log_normalizer restores
    the represented magnitude.
    """
    log_weights = trajectory.extras["log_weights"]
    k = log_weights.shape[1]
    top = log_weights.max(axis=1)
    psi = np.exp(log_weights - top[:, None])
    total = psi.sum(axis=1)
    psi /= total[:, None]
    log_norm = top + np.log(total)
    header = ["r", "t"] + [f"psi_{j + 1}" for j in range(k)] + ["log_normalizer"]
    columns = [range(len(trajectory.times)), trajectory.times, *psi.T, log_norm]
    write_table(destination, header, ["%d"] + [FLOAT] * (k + 2), columns)


# ---------------------------------------------------------------------------
# drivers


def simulate_pair(config: ExperimentConfig):
    """Signal path and observation grid of the config (replica 0 of its seed)."""
    seed = config.master_seed
    path = simulate_jump_path(config.model, config.horizon, derive_rng(seed, 0, ROLE_JUMP))
    grid = synthesize_observations(
        path, config.model, config.dt, config.beta, derive_rng(seed, 0, ROLE_NOISE)
    )
    return path, grid


def _out_dir(config: ExperimentConfig) -> Path:
    """The config's output directory, created if missing."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def run_simulate(config: ExperimentConfig) -> dict:
    """Simulate one signal/observation pair and write both CSV files."""
    out = _out_dir(config)
    path, grid = simulate_pair(config)
    path_file = out / "path.csv"
    obs_file = out / "observations.csv"
    write_path_csv(path, path_file)
    write_observations_csv(grid, obs_file)
    return {"path_csv": str(path_file), "observations_csv": str(obs_file), "n_steps": grid.n_steps}


def run_filter(config: ExperimentConfig, write: bool = True) -> tuple[Trajectory, dict]:
    """Run the configured scheme on the config's simulated observations."""
    _, grid = simulate_pair(config)
    trajectory = run_trajectory(
        config.model,
        grid,
        config.scheme,
        correction_sign=config.correction_sign,
        sign_variant=config.sign_variant,
    )
    report = {
        "scheme": config.scheme,
        "correction_sign": config.correction_sign,
        "sign_variant": config.sign_variant,
        "clamps": trajectory.clamps,
        "n_steps": grid.n_steps,
        "dt": grid.dt,
        "beta": grid.beta,
        "master_seed": config.master_seed,
        "presum_max_dev": trajectory.presum_max_dev,
    }
    if write:
        out = _out_dir(config)
        if "log_weights" in trajectory.extras:
            write_unnormalized_csv(out / "trajectory.csv", trajectory)
            write_trajectory_csv(out / "estimates.csv", grid, trajectory, config.model)
            report["trajectory_csv"] = str(out / "trajectory.csv")
            report["estimates_csv"] = str(out / "estimates.csv")
        else:
            write_trajectory_csv(out / "trajectory.csv", grid, trajectory, config.model)
            report["trajectory_csv"] = str(out / "trajectory.csv")
        _write_json(out / "run_report.json", report)
    return trajectory, report


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
    _, fine = simulate_pair(replace(config, dt=math.ldexp(config.dt, -halvings)))
    grids = [coarsen(fine, 2 ** (halvings - k)) for k in range(halvings + 1)]
    pairs = {label: pair for label, pair in pairs.items()
             if all(_filters(side[0], config.model) for side in pair[:2])}
    sides = dict.fromkeys(side for pair in pairs.values() for side in pair[:2])
    ladders = {label: [] for label in pairs}
    for grid in grids:
        runs = {side: run_trajectory(config.model, grid, *side) for side in sides}
        for label, (a, b, field) in pairs.items():
            diff = _field(runs[a], field) - _field(runs[b], field)
            ladders[label].append(float(np.abs(diff).max()))
    return grids, ladders


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
    """Predictions from the terminal filter state for each lookahead horizon."""
    trajectory, _ = run_filter(config, write=False)
    state = FilterState(probs=trajectory.probs[-1])
    rows = [{"h": h, "probs": wonham.predict(state, config.model, h)} for h in horizons]
    k = config.model.n_states
    write_table(
        _out_dir(config) / "prediction.csv",
        ["h"] + [f"p_{j + 1}" for j in range(k)],
        [FLOAT] * (k + 1),
        [[row["h"] for row in rows], *np.array([row["probs"] for row in rows]).T],
    )
    return rows
