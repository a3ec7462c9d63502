#!/usr/bin/env python3
"""Benchmark of the jumpfilter package through its public entry points.

Run from the repository root:

    python3 benchmark/run.py --workload telegraph-study --seed 0 --seconds 25 --trace 0

Each workload is one process and one client in a closed loop: every
operation is issued after the previous one returns. A *pass* is one round of
the workload's operations. The first pass warms up and is not timed; passes
then repeat until ``--seconds`` have elapsed (at least one timed pass).
Every operation is bracketed by calibrations, and its time is scaled to the
reference speed of ``calibration.py``, which takes out the drift of a shared
host's speed. Operations go through
``jumpfilter.cli.main([...])`` in-process, or through
``jumpfilter.oracle.tower_property_check`` for the Monte Carlo workload,
which has no CLI command. The seed goes to ``master_seed``; the package sees
only the generated inputs.

Workloads (see BENCHMARK.json for why each was chosen):

* ``telegraph-study``: ``convergence --halvings 2`` then ``adjudicate`` on the
  telegraph benchmark (K=2, nu=1, beta=0.5, dt=1e-3, T=0.5); 36 run_trajectory
  calls on 500/1000/2000-step grids, 42,000 nominal filter steps.
* ``filter-k8``: ``filter`` once per scheme (zakai-ito, zakai-langevin,
  wonham-ito, wonham-langevin, log, bayes-oracle) on the K=8 model (T=5);
  30,000 nominal steps.
* ``tower-mc``: the 2000-replica tower check (T=1) for 4 consecutive master
  seeds from the workload seed; 8,000,000 nominal replica-steps.

Every output is checked outside the timed section: files are finite,
trajectory rows lie on the simplex to 1e-9, run reports show no clamps, the
adjudication picks correction sign -1 and the innovation drift with plateau
ratios of at least 10, tower checks give max|z| <= 4 and an MSE margin of at
least 3 standard errors. Seeds listed in ``reference.json`` are also compared
with the values recorded there; a deviation above ``REF_TOL`` fails the
operation.

``--trace 0`` reports the end-to-end metrics: ``ref_wall_s``, the median
pass time at the reference speed, ``ref_steps_per_s``, ``setup_s`` (median
of five set-ups, also at the reference speed) and ``peak_rss_mb``; the raw
times are printed beside them. ``--trace 1`` runs untraced
passes for half of ``--seconds``, then traced passes for the other half
(``tracing.py``), then the kernel probe (``kernel_probe.py``), and reports
the per-layer metrics; spans are written to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
list the same metrics plus ``fail_frac`` and ``ref_max_dev`` as
``name = value unit``. Without the package source under ``src/`` the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import calibrate, calibrate_after, to_reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
TRACE_DIR = ROOT / ".bench_out"
REFERENCE_FILE = BENCH_DIR / "reference.json"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
SIMPLEX_TOL = 1e-9
# Reference values are recorded with full precision on the same code; the
# tolerance admits rounding-level changes such as a reordered sum.
REF_TOL = 1e-9

BETA = 0.5
DT = 1e-3


def cap_threads() -> dict:
    """Cap BLAS/OpenMP threads at the CPUs this process may use."""
    ncpu = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= ncpu:
            os.environ[var] = str(ncpu)
    return {var: int(os.environ[var]) for var in THREAD_VARS}


def import_package():
    """Import jumpfilter from this checkout's source tree, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import jumpfilter

    if Path(jumpfilter.__file__).resolve().parent != SRC / "jumpfilter":
        raise ImportError(f"jumpfilter imported from {jumpfilter.__file__}, not {SRC}")
    return jumpfilter


# ---------------------------------------------------------------------------
# operations and output checks


class Op:
    """One completed operation: its error (if any), result and exit code."""

    def __init__(self, name: str, error: str | None, result=None, code=0):
        self.name = name
        self.error = error
        self.result = result
        self.code = code


def call_cli(cli, name: str, argv: list[str], ok_codes=(0,)) -> Op:
    """``cli.main(argv)`` with its output captured; other exit codes are errors."""
    captured = io.StringIO()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a failed operation is counted, not fatal
        return Op(name, f"{type(exc).__name__}: {exc}")
    if code not in ok_codes:
        return Op(name, f"exit code {code}: {captured.getvalue()[-300:]}")
    return Op(name, None, captured.getvalue(), code)


def _finite_json(value) -> bool:
    if isinstance(value, dict):
        return all(_finite_json(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_json(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def _check_simplex_table(path: Path, prefix: str, rows: int, problems: list) -> list:
    """Check a trajectory CSV; returns its last row of ``prefix`` columns."""
    import numpy as np

    with open(path) as fh:
        header = fh.readline().strip().split(",")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    cols = [i for i, h in enumerate(header) if h.startswith(prefix)]
    if table.shape != (rows, len(header)) or not cols:
        problems.append(f"{path.name}: shape {table.shape}, expected {rows} rows")
        return []
    if not np.all(np.isfinite(table)):
        problems.append(f"{path.name}: non-finite values")
    probs = table[:, cols]
    if np.any(probs < 0) or np.max(np.abs(probs.sum(axis=1) - 1.0)) > SIMPLEX_TOL:
        problems.append(f"{path.name}: rows off the simplex")
    return list(probs[-1])


def _output_files(out: Path | None) -> list[Path]:
    return [f for f in out.rglob("*") if f.is_file()] if out is not None else []


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """A workload's operations in pass order; each returns an :class:`Op`."""

    name = ""
    out: Path | None = None

    def operations(self) -> list:
        raise NotImplementedError

    def run_pass(self) -> list[Op]:
        return [operation() for operation in self.operations()]


class TelegraphStudy(Workload):
    name = "telegraph-study"
    # T=0.5 keeps a pass near two seconds, so that a run times several passes
    horizon = 0.5
    nominal_steps = 12 * (500 + 1000 + 2000)
    # convergence runs 7 schemes per grid (6 pairs with the telegraph filter)
    conv_pairs = 6
    levels = 3

    def __init__(self, seed: int, work: Path):
        from jumpfilter import cli, telegraph_model
        from jumpfilter.harness import ExperimentConfig

        self.cli = cli
        self.out = work / "telegraph-study"
        self.out.mkdir(parents=True)
        config = ExperimentConfig(model=telegraph_model(1.0), horizon=self.horizon, dt=DT, beta=BETA,
                                  master_seed=seed, out_dir=str(self.out))
        config_file = work / "telegraph.json"
        config_file.write_text(json.dumps(config.to_json()))
        common = ["--config", str(config_file), "--seed", str(seed), "--out", str(self.out)]
        # adjudicate fixes 2 halvings; convergence uses the same 2 so that both
        # run on the same three grids.
        self.argvs = [("convergence", ["convergence", *common, "--halvings", "2"]),
                      ("adjudicate", ["adjudicate", *common])]
        self.conv_ladders: dict[str, list[float]] = {}
        self.inconclusive = 0

    def operations(self) -> list:
        # adjudicate exits with 3 when a verdict is inconclusive; the check
        # below decides whether that outcome is correct
        return [functools.partial(call_cli, self.cli, name, argv,
                                  ok_codes=(0, 3) if name == "adjudicate" else (0,))
                for name, argv in self.argvs]

    def check(self, op: Op, problems: list) -> dict:
        if op.name == "convergence":
            return self._check_convergence(problems)
        return self._check_adjudication(op.code, problems)

    def _check_convergence(self, problems: list) -> dict:
        with open(self.out / "convergence.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.conv_pairs * self.levels:
            problems.append(f"convergence.csv: {len(rows)} rows")
        observed = {}
        self.conv_ladders = {}
        for row in rows:
            level = int(row["level"])
            values = [float(row["dt"]), float(row["max_discrepancy"])]
            # the order is defined between two levels, so the finest has none
            if level < self.levels - 1:
                values.append(float(row["order"]))
            if not all(math.isfinite(v) for v in values):
                problems.append(f"convergence.csv: non-finite value in {row}")
            observed[f"conv.{row['pair']}.{level}"] = float(row["max_discrepancy"])
            self.conv_ladders.setdefault(row["pair"], []).append(float(row["max_discrepancy"]))
        return observed

    # adjudication ladder -> the convergence pair computed from the same trajectories
    SHARED_LADDERS = {
        ("correction_sign", "-1"): "zakai-langevin(-1)|zakai-ito",
        ("correction_sign", "1"): "zakai-langevin(+1)|zakai-ito",
        ("drift_variant", "innovation"): "zakai-ito|wonham-ito",
    }
    # verdicts as numbers, so that the reference comparison covers them
    VERDICT_CODES = {
        "correction_sign": {-1: 1.0, 1: -1.0, "inconclusive": 0.0},
        "drift_variant": {"innovation": 1.0, "paper": -1.0, "inconclusive": 0.0},
    }

    def _check_adjudication(self, code: int, problems: list) -> dict:
        """The paper's verdicts, or an honest "inconclusive", never the wrong one.

        With adjudicate's fixed 2 halvings the accepted variant converges at
        strong order 1/2, so its ladder ends near the 0.5x convergence
        threshold and some seeds read "inconclusive" (exit code 3).
        """
        report = json.loads((self.out / "adjudication.json").read_text())
        if not _finite_json(report):
            problems.append("adjudication.json: non-finite value")
        expected = {"correction_sign": -1, "drift_variant": "innovation"}
        observed = {}
        undecided = False
        for part, verdict in expected.items():
            section = report[part]
            if section["verdict"] == "inconclusive":
                undecided = True
            elif section["verdict"] != verdict:
                problems.append(f"{part}: verdict {section['verdict']!r}, expected {verdict!r}")
            elif not section["plateau_ratio"] >= 10.0:
                problems.append(f"{part}: plateau ratio {section['plateau_ratio']}")
            observed[f"adj.{part}.verdict"] = self.VERDICT_CODES[part].get(section["verdict"], -2.0)
            for variant, ladder in section["discrepancies"].items():
                pair = self.SHARED_LADDERS.get((part, variant))
                if pair is not None and ladder != self.conv_ladders.get(pair):
                    problems.append(f"{part} {variant}: ladder differs from convergence {pair}")
                for level, value in enumerate(ladder):
                    observed[f"adj.{part}.{variant}.{level}"] = value
        if code != (3 if undecided else 0):
            problems.append(f"exit code {code} does not match the verdicts")
        self.inconclusive += undecided
        return observed


class FilterK8(Workload):
    """K=8 model: levels linspace(-1, 1, 8), rates U(0.1, 1) from default_rng(0)."""

    name = "filter-k8"
    # gamma is left out: it raises GammaRangeError on this model at T=5
    schemes = ("zakai-ito", "zakai-langevin", "wonham-ito", "wonham-langevin", "log",
               "bayes-oracle")
    horizon = 5.0
    n_steps = 5000
    nominal_steps = len(schemes) * n_steps

    def __init__(self, seed: int, work: Path):
        from jumpfilter import cli
        from jumpfilter.harness import ExperimentConfig
        from kernel_probe import random_model

        self.cli = cli
        self.out = work / "filter-k8"
        model = random_model(8)
        self.argvs = []
        for scheme in self.schemes:
            out = self.out / scheme
            out.mkdir(parents=True)
            config = ExperimentConfig(model=model, horizon=self.horizon, dt=DT, beta=BETA,
                                      scheme=scheme, master_seed=seed, out_dir=str(out))
            config_file = work / f"filter-{scheme}.json"
            config_file.write_text(json.dumps(config.to_json()))
            self.argvs.append((scheme, ["filter", "--config", str(config_file),
                                        "--seed", str(seed), "--out", str(out)]))

    def operations(self) -> list:
        return [functools.partial(call_cli, self.cli, scheme, argv) for scheme, argv in self.argvs]

    def check(self, op: Op, problems: list) -> dict:
        out = self.out / op.name
        report = json.loads((out / "run_report.json").read_text())
        if not _finite_json(report) or json.loads(op.result) != report:
            problems.append("run report is non-finite or differs from the printed one")
        if report["clamps"] != 0 or report["scheme"] != op.name:
            problems.append(f"run report: clamps={report['clamps']} scheme={report['scheme']}")
        rows = self.n_steps + 1
        if op.name in ("zakai-ito", "zakai-langevin"):
            _check_simplex_table(out / "trajectory.csv", "psi_", rows, problems)
            terminal = _check_simplex_table(out / "estimates.csv", "p_", rows, problems)
        else:
            terminal = _check_simplex_table(out / "trajectory.csv", "p_", rows, problems)
        return {f"{op.name}.p{j + 1}": float(p) for j, p in enumerate(terminal)}


class TowerMC(Workload):
    name = "tower-mc"
    out = None  # results come back in memory
    n_checks = 4
    n_replicas = 2000
    horizon = 1.0
    nominal_steps = n_checks * n_replicas * round(horizon / DT)

    def __init__(self, seed: int, work: Path):
        from jumpfilter import oracle, telegraph_model

        self.oracle = oracle
        self.model = telegraph_model(1.0)
        self.seeds = [seed + i for i in range(self.n_checks)]

    def operations(self) -> list:
        return [functools.partial(self._tower_check, str(offset), master_seed)
                for offset, master_seed in enumerate(self.seeds)]

    def _tower_check(self, name: str, master_seed: int) -> Op:
        try:
            report = self.oracle.tower_property_check(
                self.model, self.horizon, DT, BETA, self.n_replicas, master_seed)
        except Exception as exc:  # a failed operation is counted, not fatal
            return Op(name, f"{type(exc).__name__}: {exc}")
        return Op(name, None, report)

    def check(self, op: Op, problems: list) -> dict:
        import numpy as np

        report = op.result
        z = np.asarray(report.z_scores)
        if not (np.all(np.isfinite(z)) and np.abs(z).max() <= 4.0):
            problems.append(f"tower: z-scores {z.tolist()}")
        if not report.mse_margin_se >= 3.0:
            problems.append(f"tower: MSE margin {report.mse_margin_se} standard errors")
        if not np.all(np.isfinite(report.mean_terminal)):
            problems.append("tower: non-finite mean terminal distribution")
        observed = {f"tower.{op.name}.z{j + 1}": float(v) for j, v in enumerate(z)}
        observed[f"tower.{op.name}.mse_filter"] = report.mse_filter
        observed[f"tower.{op.name}.mse_const"] = report.mse_const
        return observed



WORKLOADS = {w.name: w for w in (TelegraphStudy, FilterK8, TowerMC)}


# ---------------------------------------------------------------------------
# measurement


class Tally:
    """Operations attempted and failed, and the deviation from the reference."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.ref_max_dev = 0.0
        self.problems: list[str] = []

    def record(self, workload, ops: list[Op]) -> None:
        for op in ops:
            self.attempted += 1
            problems = [op.error] if op.error else []
            if not problems:
                try:
                    observed = workload.check(op, problems)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    problems.append(f"output unreadable: {type(exc).__name__}: {exc}")
                    observed = {}
                if self.reference is not None:
                    self._compare(observed, problems)
            if problems:
                self.failed += 1
                self.problems.extend(f"{op.name}: {p}" for p in problems)

    def _compare(self, observed: dict, problems: list) -> None:
        for name, value in observed.items():
            if name not in self.reference:
                problems.append(f"{name}: no reference value")
                continue
            dev = abs(value - self.reference[name])
            self.ref_max_dev = max(self.ref_max_dev, dev)
            if not dev <= REF_TOL:
                problems.append(f"{name}: {value!r} deviates {dev:.3g} from the reference")


def load_reference(workload: str, seed: int) -> dict | None:
    if not REFERENCE_FILE.exists():
        return None
    table = json.loads(REFERENCE_FILE.read_text())[workload]
    values = table["seeds"].get(str(seed))
    return None if values is None else dict(zip(table["names"], values))


class Timing:
    """Pass times of one measured phase, as measured and at the reference speed."""

    def __init__(self):
        self.raw_s: list[float] = []
        self.ref_s: list[float] = []


def measure(workload, seconds: float, tally: Tally, on_pass=None, warmup=False) -> Timing:
    """Closed loop of passes until ``seconds`` have elapsed (at least one timed pass).

    A calibration runs at the start of each pass and after each operation;
    each operation's time is scaled to the reference speed by the mean of the
    two calibrations around it (``calibration.py``). With ``warmup`` the first
    pass is run and checked but not timed.
    """
    timing = Timing()
    begin = time.perf_counter()
    untimed = warmup
    while not timing.ref_s or time.perf_counter() - begin < seconds:
        # each pass must write its own outputs for the checks to read
        for stale in _output_files(workload.out):
            stale.unlink()
        ops, raw_s, ref_s = [], 0.0, 0.0
        cal_before = calibrate()
        for operation in workload.operations():
            start = time.perf_counter()
            ops.append(operation())
            elapsed = time.perf_counter() - start
            cal_after = calibrate_after(elapsed)
            raw_s += elapsed
            ref_s += to_reference(elapsed, (cal_before + cal_after) / 2)
            cal_before = cal_after
        if on_pass is not None:
            on_pass()
        tally.record(workload, ops)
        if untimed:
            untimed = False
            continue
        timing.raw_s.append(raw_s)
        timing.ref_s.append(ref_s)
    return timing


def setup_sample(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time of a fresh process, and the calibration time around it.

    The calibration time is the mean of one calibration here, just before the
    process starts, and the settled calibration the process makes after its
    set-up.
    """
    cal_before = calibrate()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--measure-setup"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    setup_s, cal_s = done.stdout.strip().splitlines()[-1].split()
    return float(setup_s), (cal_before + float(cal_s)) / 2


def settled_calibration() -> float:
    """Median of three calibrations, so that a first-call cost or a blip is left out."""
    return statistics.median(calibrate() for _ in range(3))


def untraced_run(workload, args, setup_first: tuple[float, float],
                 tally: Tally) -> tuple[dict, dict, dict]:
    """End-to-end metrics, the raw times printed beside them, and run details."""
    timing = measure(workload, args.seconds, tally, warmup=True)
    setups = [setup_first] + [setup_sample(args.workload, args.seed)
                              for _ in range(SETUP_SAMPLES - 1)]
    wall = statistics.median(timing.ref_s)
    metrics = {
        "ref_wall_s": (wall, "s"),
        "ref_steps_per_s": (workload.nominal_steps / wall, "1/s"),
        "setup_s": (statistics.median(to_reference(s, c) for s, c in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw_wall = statistics.median(timing.raw_s)
    printed = {
        "raw_wall_s": (raw_wall, "s"),
        "raw_steps_per_s": (workload.nominal_steps / raw_wall, "1/s"),
        "raw_setup_s": (statistics.median(s for s, _ in setups), "s"),
    }
    info = {"passes": len(timing.ref_s), "pass_ref_s": timing.ref_s, "pass_raw_s": timing.raw_s,
            "setup_samples_s": [s for s, _ in setups],
            "setup_calibrations_s": [c for _, c in setups]}
    return metrics, printed, info


def traced_run(workload, args, tally: Tally) -> tuple[dict, dict, dict]:
    import kernel_probe
    import tracing

    untraced = measure(workload, args.seconds / 2, tally, warmup=True)
    recorder = tracing.Recorder()
    bounds: list[tuple[int, int]] = []
    emitted = [0]

    def close_pass():
        start = bounds[-1][1] if bounds else 0
        bounds.append((start, len(recorder.spans)))
        emitted[0] += sum(f.stat().st_size for f in _output_files(workload.out))

    tracing.install(recorder)
    try:
        traced = measure(workload, args.seconds / 2, tally, on_pass=close_pass)
    finally:
        recorder.uninstall()
    metrics = tracing.layer_metrics(recorder, bounds, emitted[0], traced.ref_s, untraced.ref_s)
    probe, probe_failures = kernel_probe.run_probe()
    metrics.update(probe)
    recorder.dump(TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    info = {"untraced_pass_ref_s": untraced.ref_s, "traced_pass_ref_s": traced.ref_s,
            "kernel_probe_failed": probe_failures}
    return metrics, {}, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--measure-setup", action="store_true",
                        help="only set up, and print the set-up and calibration times "
                             "(one setup_s sample)")
    args = parser.parse_args(argv)

    caps = cap_threads()
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        start = time.perf_counter()
        try:
            import_package()
        except ImportError as exc:
            print(f"cannot import the package source: {exc}", file=sys.stderr)
            return 2
        work.mkdir(parents=True)
        workload = WORKLOADS[args.workload](args.seed, work)
        setup_s = time.perf_counter() - start
        setup_first = (setup_s, settled_calibration())
        if args.measure_setup:
            print(*map(repr, setup_first))
            return 0
        tally = Tally(load_reference(args.workload, args.seed))
        if args.trace:
            metrics, printed, info = traced_run(workload, args, tally)
        else:
            metrics, printed, info = untraced_run(workload, args, setup_first, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    import numpy
    import scipy

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}; "
          f"python {sys.version.split()[0]} numpy {numpy.__version__} "
          f"scipy {scipy.__version__}; threads {caps}")
    if isinstance(workload, TelegraphStudy):
        info["adjudications_inconclusive"] = workload.inconclusive
    print(f"# {json.dumps(info)}")
    for problem in tally.problems[:20]:
        print(f"# FAILED {problem}")
    summary = dict(metrics, **printed)
    summary["fail_frac"] = (tally.failed / tally.attempted, "ratio")
    summary["ref_max_dev"] = (
        (tally.ref_max_dev, "abs") if tally.reference is not None else (math.nan, "abs"))
    for name, (value, unit) in summary.items():
        print(f"{name} = {value!r} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
