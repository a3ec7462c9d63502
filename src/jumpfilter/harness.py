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
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import wonham
from .chain import (
    ChainModel,
    JumpPath,
    model_from_json,
    model_to_json,
    simulate_jump_path,
    transition_matrix,
    validate_model,
)
from .kernels import KERNELS, drive
from .seeding import ROLE_JUMP, ROLE_NOISE, derive_rng
from .signalpath import (
    ObservationGrid,
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

SCHEMES = (
    "zakai-ito",
    "zakai-langevin",
    "wonham-ito",
    "wonham-langevin",
    "log",
    "gamma",
    "telegraph-ito",
    "telegraph-langevin",
    "bayes-oracle",
)

# schemes whose native trajectory is the unnormalized-weight CSV format
LOG_WEIGHT_SCHEMES = ("zakai-ito", "zakai-langevin")
TELEGRAPH_SCHEMES = ("telegraph-ito", "telegraph-langevin")


@dataclass(eq=False)
class ExperimentConfig:
    """One experiment: model + horizon + step + scheme selection + seeds."""

    model: ChainModel
    horizon: float
    dt: float
    beta: float
    scheme: str = "wonham-ito"
    correction_sign: int = -1
    sign_variant: str = "innovation"
    master_seed: int = 0
    replicas: int = 1
    out_dir: str = "."

    def validate(self) -> None:
        report = validate_model(self.model)
        if not report.passed:
            raise ValueError(f"invalid model: {', '.join(report.violations)}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if self.dt <= 0 or self.horizon <= 0 or self.beta <= 0:
            raise ValueError("horizon, dt and beta must be positive")
        n = round(self.horizon / self.dt)
        if n < 1 or abs(n * self.dt - self.horizon) > 1e-9 * max(1.0, self.horizon):
            raise ValueError(f"dt={self.dt} does not divide horizon={self.horizon}")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.correction_sign not in (-1, 1):
            raise ValueError("correction_sign must be -1 or +1")
        if self.sign_variant not in wonham.SIGN_VARIANTS:
            raise ValueError(f"sign_variant must be one of {wonham.SIGN_VARIANTS}")
        if self.scheme in TELEGRAPH_SCHEMES:
            m = self.model
            if (
                m.n_states != 2
                or not np.allclose(m.levels, [1.0, -1.0], atol=1e-12)
                or abs(m.rates[0, 1] - m.rates[1, 0]) > 1e-12
            ):
                raise ValueError(
                    "telegraph schemes require K=2, levels (1, -1) and a symmetric rate"
                )

    @property
    def n_steps(self) -> int:
        return round(self.horizon / self.dt)

    def to_json(self) -> dict:
        return {
            "model": model_to_json(self.model),
            "T": self.horizon,
            "dt": self.dt,
            "beta": self.beta,
            "scheme": self.scheme,
            "correction_sign": self.correction_sign,
            "sign_variant": self.sign_variant,
            "master_seed": self.master_seed,
            "replicas": self.replicas,
            "out_dir": str(self.out_dir),
        }

    @classmethod
    def from_json(cls, source: str | dict) -> "ExperimentConfig":
        doc = json.loads(source) if isinstance(source, str) else source
        return cls(
            model=model_from_json(doc["model"]),
            horizon=float(doc["T"]),
            dt=float(doc["dt"]),
            beta=float(doc["beta"]),
            scheme=doc.get("scheme", "wonham-ito"),
            correction_sign=int(doc.get("correction_sign", -1)),
            sign_variant=doc.get("sign_variant", "innovation"),
            master_seed=int(doc.get("master_seed", 0)),
            replicas=int(doc.get("replicas", 1)),
            out_dir=doc.get("out_dir", "."),
        )


@dataclass(eq=False)
class Trajectory:
    """Filter output on a grid: normalized probabilities plus scheme extras.

    ``extras`` may carry 'log_weights' (n+1, K) for unnormalized schemes, 'q'
    (n+1,) for telegraph schemes, and 'theta' for the log-domain scheme.
    ``presum_max_dev``/``presum_total_dev`` track the pre-renormalization
    simplex defect of Euler steps where that invariant applies.
    """

    scheme: str
    times: np.ndarray
    probs: np.ndarray
    clamps: int = 0
    presum_max_dev: float = 0.0
    presum_total_dev: float = 0.0
    extras: dict = field(default_factory=dict)


def run_trajectory(
    model: ChainModel,
    grid: ObservationGrid,
    scheme: str,
    correction_sign: int = -1,
    sign_variant: str = "innovation",
    initial: UnnormalizedState | FilterState | None = None,
) -> Trajectory:
    """Drive the selected scheme over the whole observation grid.

    Builds the scheme's kernel once and runs it through
    :func:`jumpfilter.kernels.drive`, which owns every check: finite
    increments, a finite on-simplex history, the pre-renormalization sum
    guard and the clamp budget.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    kernel = KERNELS[scheme](model, grid.dt, grid.beta, correction_sign, sign_variant)
    run = drive(kernel, kernel.start(initial), grid.dy)
    return Trajectory(
        scheme,
        np.arange(grid.n_steps + 1) * grid.dt,
        run.probs,
        clamps=run.clamps,
        presum_max_dev=run.presum_max_dev,
        presum_total_dev=run.presum_total_dev,
        extras=run.extras,
    )


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
    psi = np.exp(log_weights - log_weights.max(axis=1, keepdims=True))
    psi /= psi.sum(axis=1, keepdims=True)
    log_norm = log_weights.max(axis=1) + np.log(
        np.exp(log_weights - log_weights.max(axis=1, keepdims=True)).sum(axis=1)
    )
    header = ["r", "t"] + [f"psi_{j + 1}" for j in range(k)] + ["log_normalizer"]
    columns = [range(len(trajectory.times)), trajectory.times, *psi.T, log_norm]
    write_table(destination, header, ["%d"] + [FLOAT] * (k + 2), columns)


# ---------------------------------------------------------------------------
# drivers


def _streams(config: ExperimentConfig, replica: int = 0):
    return (
        derive_rng(config.master_seed, replica, ROLE_JUMP),
        derive_rng(config.master_seed, replica, ROLE_NOISE),
    )


def simulate_pair(config: ExperimentConfig, replica: int = 0):
    """Signal path and observation grid for one replica of the config."""
    jump_rng, noise_rng = _streams(config, replica)
    path = simulate_jump_path(config.model, config.horizon, jump_rng)
    grid = synthesize_observations(path, config.model, config.dt, config.beta, noise_rng)
    return path, grid


def run_simulate(config: ExperimentConfig) -> dict:
    """Simulate one signal/observation pair and write both CSV files."""
    config.validate()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path, grid = simulate_pair(config)
    path_file = out / "path.csv"
    obs_file = out / "observations.csv"
    write_path_csv(path, path_file)
    write_observations_csv(grid, obs_file)
    return {"path_csv": str(path_file), "observations_csv": str(obs_file), "n_steps": grid.n_steps}


def run_filter(
    config: ExperimentConfig,
    grid: ObservationGrid | None = None,
    write: bool = True,
) -> tuple[Trajectory, dict]:
    """Run the configured scheme; co-generates observations when none given."""
    config.validate()
    if grid is None:
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
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if config.scheme in LOG_WEIGHT_SCHEMES:
            write_unnormalized_csv(out / "trajectory.csv", trajectory)
            write_trajectory_csv(out / "estimates.csv", grid, trajectory, config.model)
            report["trajectory_csv"] = str(out / "trajectory.csv")
            report["estimates_csv"] = str(out / "estimates.csv")
        else:
            write_trajectory_csv(out / "trajectory.csv", grid, trajectory, config.model)
            report["trajectory_csv"] = str(out / "trajectory.csv")
        _write_json(out / "run_report.json", report)
    return trajectory, report


def _sup_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max())


def _refined_grids(config: ExperimentConfig, levels: int) -> list[ObservationGrid]:
    """Grids at dt, dt/2, ..., dt/2^(levels-1), all from one Brownian path."""
    fine_factor = 2 ** (levels - 1)
    fine = replace(config, dt=config.dt / fine_factor)
    _, fine_grid = simulate_pair(fine)
    return [coarsen(fine_grid, 2 ** (levels - 1 - k)) for k in range(levels)]


def run_convergence(config: ExperimentConfig, halvings: int, write: bool = True) -> list[dict]:
    """Mesh-refinement table of cross-scheme discrepancies and empirical orders.

    For each mesh level (dt halved ``halvings`` times, all levels consuming
    the same underlying Brownian path) the max-over-time discrepancy of each
    scheme pair is reported together with log2(e_k / e_{k+1}).
    """
    config.validate()
    if halvings < 2:
        raise ValueError("need at least 2 halvings to estimate an order")
    grids = _refined_grids(config, halvings + 1)
    model = config.model
    telegraphable = True
    try:
        replace(config, scheme="telegraph-ito").validate()
    except ValueError:
        telegraphable = False

    ladders: dict[str, list[float]] = {}
    for grid in grids:
        ito = run_trajectory(model, grid, "zakai-ito")
        won = run_trajectory(model, grid, "wonham-ito", sign_variant="innovation")
        lan_minus = run_trajectory(model, grid, "zakai-langevin", correction_sign=-1)
        lan_plus = run_trajectory(model, grid, "zakai-langevin", correction_sign=+1)
        logf = run_trajectory(model, grid, "log", correction_sign=-1)
        gam = run_trajectory(model, grid, "gamma", correction_sign=-1)
        pairs = {
            "zakai-ito|wonham-ito": _sup_diff(ito.probs, won.probs),
            "zakai-langevin(-1)|zakai-ito": _sup_diff(
                lan_minus.extras["log_weights"], ito.extras["log_weights"]
            ),
            "zakai-langevin(+1)|zakai-ito": _sup_diff(
                lan_plus.extras["log_weights"], ito.extras["log_weights"]
            ),
            "log|wonham-ito": _sup_diff(logf.probs, won.probs),
            "gamma|zakai-langevin(-1)": _sup_diff(gam.probs, lan_minus.probs),
        }
        if telegraphable:
            tel = run_trajectory(model, grid, "telegraph-ito")
            pairs["telegraph-ito|wonham-ito"] = _sup_diff(
                tel.extras["q"], won.probs[:, 0] - won.probs[:, 1]
            )
        for name, value in pairs.items():
            ladders.setdefault(name, []).append(value)

    rows = []
    for name, ladder in ladders.items():
        for k, value in enumerate(ladder):
            order = math.log2(ladder[k] / ladder[k + 1]) if (
                k + 1 < len(ladder) and ladder[k + 1] > 0 and ladder[k] > 0
            ) else math.nan
            rows.append(
                {
                    "pair": name,
                    "level": k,
                    "dt": grids[k].dt,
                    "max_discrepancy": value,
                    "order": order,
                }
            )
    if write:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        names = ["pair", "level", "dt", "max_discrepancy", "order"]
        write_table(
            out / "convergence.csv",
            names,
            ["%s", "%d", FLOAT, FLOAT, FLOAT],
            [[row[name] for row in rows] for name in names],
        )
    return rows


def _classify_ladder(ladder: list[float], tiny: float = 1e-11) -> str:
    if max(ladder) <= tiny:
        return "negligible"
    if ladder[-1] <= 0.5 * ladder[0]:
        return "convergent"
    if ladder[-1] >= 0.7 * ladder[0]:
        return "plateau"
    return "unclear"


def _adjudicate_dimension(names: tuple, ladders: dict, plateau_factor: float = 10.0) -> dict:
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
        if ratio >= plateau_factor:
            result["verdict"] = convergent[0]
            return result
    result["verdict"] = "inconclusive"
    return result


def run_adjudicate(config: ExperimentConfig, halvings: int = 2, write: bool = True) -> dict:
    """Decide the correction sign and the normalized-filter drift sign.

    Both smooth-noise correction signs are run against the Euler scheme of the
    Ito equation (compared in the represented log-weight domain, which is
    where the signs differ even when all a_j^2 coincide), and both normalized
    drift variants are run against the normalized unnormalized-filter output.
    A variant is accepted only when it converges under mesh halving while the
    other plateaus at least ``10x`` above it; otherwise the report says
    'inconclusive' or 'indistinguishable' rather than picking.
    """
    config.validate()
    grids = _refined_grids(config, halvings + 1)
    model = config.model
    corr: dict = {-1: [], +1: []}
    variant: dict = {"innovation": [], "paper": []}
    for grid in grids:
        ito = run_trajectory(model, grid, "zakai-ito")
        for sign in (-1, +1):
            lan = run_trajectory(model, grid, "zakai-langevin", correction_sign=sign)
            corr[sign].append(
                _sup_diff(lan.extras["log_weights"], ito.extras["log_weights"])
            )
        for name in ("innovation", "paper"):
            won = run_trajectory(model, grid, "wonham-ito", sign_variant=name)
            variant[name].append(_sup_diff(won.probs, ito.probs))

    report = {
        "dt_levels": [g.dt for g in grids],
        "correction_sign": _adjudicate_dimension((-1, +1), corr),
        "drift_variant": _adjudicate_dimension(("innovation", "paper"), variant),
    }
    for part in ("correction_sign", "drift_variant"):
        verdict = report[part]["verdict"]
        if part == "correction_sign" and verdict in (-1, 1):
            report[part]["verdict"] = int(verdict)
    if write:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "adjudication.json", report)
    return report


def run_predict(
    config: ExperimentConfig,
    horizons,
    terminal: np.ndarray | None = None,
    write: bool = True,
) -> list[dict]:
    """Predictions from the terminal filter state for each lookahead horizon."""
    config.validate()
    if terminal is None:
        trajectory, _ = run_filter(config, write=False)
        terminal = trajectory.probs[-1]
    rows = []
    for h in horizons:
        if h < 0:
            raise ValueError("prediction horizons must be nonnegative")
        probs = terminal @ transition_matrix(config.model, h)
        rows.append({"h": h, "probs": probs})
    if write:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        k = config.model.n_states
        write_table(
            out / "prediction.csv",
            ["h"] + [f"p_{j + 1}" for j in range(k)],
            [FLOAT] * (k + 1),
            [[row["h"] for row in rows], *np.array([row["probs"] for row in rows]).T],
        )
    return rows
