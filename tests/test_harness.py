import functools
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from jumpfilter import (
    ChainModel,
    DiscreteBayesState,
    FilterState,
    GammaState,
    JumpPath,
    LogState,
    TelegraphState,
    UnnormalizedState,
    predict,
    telegraph_model,
)
from jumpfilter import fanout, harness, kernels
from jumpfilter.cli import main
from jumpfilter.kernels import (KERNELS, FilterInstabilityError, WonhamIto, drive, run_history,
                                run_steps)
from jumpfilter.signalpath import ObservationGrid, observation_blocks
from jumpfilter.harness import (
    SCHEMES,
    ExperimentConfig,
    run_adjudicate,
    run_convergence,
    run_filter,
    run_predict,
    run_simulate,
    run_trajectory,
    simulate_pair,
)
from jumpfilter.chain import JUMP_BUDGET

TELEGRAPH = telegraph_model(1.0)


def telegraph_config(**overrides) -> ExperimentConfig:
    base = dict(model=TELEGRAPH, horizon=1.0, dt=1e-3, beta=0.5, master_seed=7)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_round_trip(self):
        config = telegraph_config(scheme="zakai-langevin", correction_sign=1)
        back = ExperimentConfig.from_json(json.dumps(config.to_json()))
        assert back.to_json() == config.to_json()

    def test_unknown_scheme_has_one_message(self):
        # run_trajectory used to keep its own check, without the list of schemes
        with pytest.raises(ValueError) as from_config:
            telegraph_config(scheme="x")
        with pytest.raises(ValueError) as from_run:
            run_trajectory(TELEGRAPH, simulate_pair(telegraph_config())[1], "x")
        assert str(from_config.value) == str(from_run.value)
        assert str(from_run.value) == f"unknown scheme 'x'; choose from {SCHEMES}"

    def test_run_trajectory_starts_from_the_model_only(self):
        # ``initial`` stays only as a name that the benchmark's tracer binds
        grid = simulate_pair(telegraph_config(horizon=0.01))[1]
        with pytest.raises(ValueError, match="hand another start state to kernels.drive"):
            run_trajectory(TELEGRAPH, grid, "zakai-ito", initial=(np.array([0.5, 0.5]), 0.0))

    def test_jump_budget_is_checked_at_construction(self):
        # the jumps of one path are bounded before any is drawn
        with pytest.raises(ValueError, match="budget"):
            telegraph_config(model=telegraph_model(1e308))
        with pytest.raises(ValueError, match="budget"):
            telegraph_config(model=telegraph_model(2 * JUMP_BUDGET))
        telegraph_config(model=telegraph_model(JUMP_BUDGET))

    @pytest.mark.parametrize("beta", [1e300, 1e-200])
    def test_beta_whose_square_leaves_the_float_range_is_refused(self, beta):
        # each used to pass construction, then fail a run with OverflowError,
        # ZeroDivisionError or a numpy warning
        with pytest.raises(ValueError, match="beta"):
            telegraph_config(beta=beta)
        with pytest.raises(ValueError, match="beta"):
            KERNELS["wonham-langevin"](TELEGRAPH, 1e-3, beta)
        with pytest.raises(ValueError, match="beta"):
            ObservationGrid(dt=1e-3, beta=beta, dy=[0.0], dw=[0.0], x_level=[1.0])

    def test_telegraph_levels_must_be_exact(self):
        # np.allclose's default rtol=1e-5 used to let levels (1 + 9e-6, -1) through
        near = ChainModel(levels=[1.0 + 9e-6, -1.0], rates=TELEGRAPH.rates,
                          initial_dist=[0.5, 0.5])
        with pytest.raises(ValueError, match="telegraph"):
            telegraph_config(model=near, scheme="telegraph-ito")
        for nu in (0.1, 1.0, 7.5):
            telegraph_config(model=telegraph_model(nu), scheme="telegraph-ito")

    def test_numpy_scalars_are_stored_as_python_numbers(self):
        config = telegraph_config(horizon=np.float64(1.0), beta=np.float32(0.5),
                                  correction_sign=np.int64(1), master_seed=np.float64(3.0))
        assert [type(getattr(config, name)) for name in
                ("horizon", "beta", "correction_sign", "master_seed")] == [float, float, int, int]
        assert (config.beta, config.correction_sign, config.master_seed) == (0.5, 1, 3)

    def test_config_is_frozen(self):
        with pytest.raises(AttributeError):
            telegraph_config().dt = 0.3

    def test_out_dir_may_be_a_path(self, tmp_path):
        assert telegraph_config(out_dir=tmp_path).out_dir == tmp_path


class TestSimulate:
    def test_single_state_constant_level_column(self, tmp_path):
        model = ChainModel(levels=[2.0], rates=[[0.0]], initial_dist=[1.0])
        config = ExperimentConfig(model=model, horizon=0.1, dt=1e-2, beta=0.5,
                                  out_dir=str(tmp_path))
        run_simulate(config)
        levels = {line.split(",")[4] for line in
                  (tmp_path / "observations.csv").read_text().splitlines()[1:]}
        assert levels == {"2"}


class TestRunFilter:
    def test_q_stays_in_range_over_run(self, tmp_path):
        config = telegraph_config(horizon=5.0, scheme="wonham-ito", out_dir=str(tmp_path))
        trajectory = run_trajectory(TELEGRAPH, simulate_pair(config)[1], "wonham-ito")
        q = trajectory.probs[:, 0] - trajectory.probs[:, 1]
        assert np.all(np.abs(q) <= 1.0)

    def test_zakai_writes_both_files(self, tmp_path):
        config = telegraph_config(scheme="zakai-ito", out_dir=str(tmp_path))
        trajectory, _ = run_filter(config)
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "r,t,psi_1,psi_2,log_normalizer"
        assert (tmp_path / "estimates.csv").exists()
        # psi columns are the unit-sum rescaled weights; together with the
        # log normalizer they reproduce the represented log-weights
        row = lines[-1].split(",")
        psi = np.array([float(row[2]), float(row[3])])
        log_norm = float(row[4])
        assert psi.sum() == pytest.approx(1.0, abs=1e-12)
        assert log_norm + np.log(psi) == pytest.approx(
            trajectory.extras["log_weights"][-1], abs=1e-12
        )

    def test_the_last_row_holds_the_level_at_t_equals_T(self, tmp_path):
        # the row at t=T used to repeat the level at the start of the last
        # step; this path jumps at t=0.4924, inside the last step
        model = telegraph_model(5.0)
        config = ExperimentConfig(model=model, horizon=0.5, dt=0.01, beta=0.5,
                                  out_dir=str(tmp_path))
        path, grid = simulate_pair(config)
        assert 0.49 < path.jump_times[-1] < 0.5 and grid.x_level[-1] == -1.0
        run_filter(config)
        rows = [line.split(",") for line in (tmp_path / "trajectory.csv").read_text().splitlines()]
        assert rows[0][3] == "x_level"
        assert [float(row[3]) for row in rows[1:-1]] == grid.x_level.tolist()
        assert float(rows[-1][3]) == model.levels[path.states_visited[-1]] == 1.0

    def test_uninformative_model_matches_forward_solution(self):
        # equal levels: observation terms vanish algebraically, so the filter
        # trajectory is the forward-equation solution (same Euler mesh)
        model = ChainModel(levels=[0.5, 0.5], rates=TELEGRAPH.rates, initial_dist=[0.9, 0.1])
        config = ExperimentConfig(model=model, horizon=1.0, dt=1e-4, beta=0.5, master_seed=2)
        trajectory = run_trajectory(model, simulate_pair(config)[1], config.scheme)
        ref = np.empty_like(trajectory.probs)
        ref[0] = model.initial_dist
        for r in range(trajectory.probs.shape[0] - 1):
            ref[r + 1] = ref[r] + 1e-4 * (ref[r] @ model.generator)
        assert np.abs(trajectory.probs - ref).max() <= 1e-6


class TestConvergence:
    def test_table_structure_and_known_behaviors(self, tmp_path):
        config = telegraph_config(out_dir=str(tmp_path))
        rows = run_convergence(config, halvings=2)
        pairs = {row["pair"] for row in rows}
        assert "zakai-ito|wonham-ito" in pairs
        assert "telegraph-ito|wonham-ito" in pairs
        by_pair = {}
        for row in rows:
            by_pair.setdefault(row["pair"], []).append(row["max_discrepancy"])
        # exact algebraic identity at every mesh, not just asymptotically
        assert max(by_pair["telegraph-ito|wonham-ito"]) <= 1e-12
        # wrong-sign smooth-noise scheme plateaus; right sign decreases
        plus = by_pair["zakai-langevin(+1)|zakai-ito"]
        minus = by_pair["zakai-langevin(-1)|zakai-ito"]
        assert plus[-1] >= 0.7 * plus[0]
        assert minus[-1] <= 0.6 * minus[0]
        assert (tmp_path / "convergence.csv").exists()

    def test_non_telegraph_model_has_no_telegraph_row(self, tmp_path):
        model = ChainModel(levels=[1.0, 0.3, -0.7], rates=[[0, 1, 0], [0, 0, 1], [1, 0, 0]],
                           initial_dist=[0.5, 0.3, 0.2])
        config = ExperimentConfig(model=model, horizon=0.2, dt=1e-3, beta=0.5,
                                  out_dir=str(tmp_path))
        rows = run_convergence(config, halvings=2)
        pairs = {row["pair"] for row in rows}
        assert len(pairs) == 5 and not any(pair.startswith("telegraph") for pair in pairs)
        lines = (tmp_path / "convergence.csv").read_text().splitlines()
        assert len(lines) == 1 + 5 * 3


class TestAdjudicate:
    def test_telegraph_verdicts(self, tmp_path):
        config = telegraph_config(horizon=2.0, out_dir=str(tmp_path))
        report = run_adjudicate(config)
        assert report["correction_sign"]["verdict"] == -1
        assert report["drift_variant"]["verdict"] == "innovation"
        assert report["correction_sign"]["plateau_ratio"] >= 10.0
        assert report["drift_variant"]["plateau_ratio"] >= 10.0
        assert (tmp_path / "adjudication.json").exists()

    def test_equal_levels_indistinguishable(self, tmp_path):
        model = ChainModel(levels=[0.0, 0.0], rates=TELEGRAPH.rates, initial_dist=[0.6, 0.4])
        config = ExperimentConfig(model=model, horizon=0.5, dt=1e-3, beta=0.5, master_seed=1,
                                  out_dir=str(tmp_path))
        report = run_adjudicate(config)
        assert report["correction_sign"]["verdict"] == "indistinguishable"
        assert report["drift_variant"]["verdict"] == "indistinguishable"


def test_ladders_run_each_distinct_side_once_per_grid(tmp_path, monkeypatch):
    # one line per call in a file, so calls made in pool workers count too
    log = tmp_path / "runs.log"

    def counted(model, grid, *side):
        with open(log, "a") as fh:
            fh.write(f"{grid.dt!r} {side}\n")
        return run_trajectory(model, grid, *side)

    def runs():
        lines = log.read_text().splitlines()
        log.unlink()
        return lines

    monkeypatch.setattr(harness, "run_trajectory", counted)
    config = telegraph_config(horizon=0.2, out_dir=str(tmp_path))
    rows = run_convergence(config, halvings=2)
    conv_runs = runs()
    assert len(conv_runs) == len(set(conv_runs)) == 7 * 3
    report = run_adjudicate(config)
    adj_runs = runs()
    assert len(adj_runs) == len(set(adj_runs)) == 5 * 3
    # a pair that both tables hold gives one ladder
    shared = [row["max_discrepancy"] for row in rows if row["pair"] == "zakai-ito|wonham-ito"]
    assert report["drift_variant"]["discrepancies"]["innovation"] == shared


def _record_pids(tmp_path, monkeypatch):
    """Make each run_trajectory call append its pid to the returned file;
    forked workers inherit the patch."""
    log = tmp_path / "pids.log"

    def traced(*args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return run_trajectory(*args)

    monkeypatch.setattr(harness, "run_trajectory", traced)
    return log


def _convergence_rows(out_dir: str) -> tuple[str, int]:
    """A pool task: the repr of run_convergence's rows (repr, as rows hold
    NaN), and the pid that ran it."""
    rows = run_convergence(telegraph_config(horizon=0.2, out_dir=out_dir), halvings=2)
    return repr(rows), os.getpid()


# run_convergence over 3 CPUs whose workers are killed at their first run
KILLED_WORKERS = """
import os, signal, sys
from jumpfilter import fanout, harness, telegraph_model
from jumpfilter.harness import ExperimentConfig, run_convergence

run, parent = harness.run_trajectory, os.getpid()

def killed(model, grid, *side):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return run(model, grid, *side)

harness.run_trajectory = killed
os.sched_getaffinity = lambda pid: {0, 1, 2}
fanout.CPU_QUOTA_FILES = ()
config = ExperimentConfig(model=telegraph_model(1.0), horizon=0.2, dt=1e-3, beta=0.5,
                          out_dir=sys.argv[1])
run_convergence(config, halvings=2)
"""


class TestLadderFanOut:
    """The grids of a ladder fan out over forked workers; outputs and
    failures are those of the serial loop, and no grid warns."""

    def test_outputs_do_not_depend_on_the_cpu_count(self, tmp_path, monkeypatch, set_cpus):
        log = _record_pids(tmp_path, monkeypatch)
        outputs = {}
        for cpus in (1, 3):
            set_cpus(cpus)
            out = tmp_path / str(cpus)
            config = telegraph_config(horizon=0.2, out_dir=str(out))
            rows = run_convergence(config, halvings=2)
            report = run_adjudicate(config)
            pids = set(log.read_text().split())
            log.unlink()
            outputs[cpus] = (repr(rows), json.dumps(report, sort_keys=True),
                             (out / "convergence.csv").read_bytes(),
                             (out / "adjudication.json").read_bytes())
            # one CPU runs in this process; three fan the grids out
            assert (pids == {str(os.getpid())}) == (cpus == 1)
        assert outputs[1] == outputs[3]

    def test_a_pool_worker_fans_out(self, tmp_path, monkeypatch, set_cpus):
        import multiprocessing

        # a daemon pool worker may not start multiprocessing children, but it
        # may fork: its ladder fans out and writes the same bytes
        set_cpus(1)
        expected, _ = _convergence_rows(str(tmp_path / "here"))
        set_cpus(3)
        log = _record_pids(tmp_path, monkeypatch)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            done = pool.apply_async(_convergence_rows, (str(tmp_path / "worker"),))
            rows, worker = done.get(timeout=120)
        assert rows == expected
        assert ((tmp_path / "worker" / "convergence.csv").read_bytes()
                == (tmp_path / "here" / "convergence.csv").read_bytes())
        # three ladder children ran the grids, none of them in the worker
        pids = set(log.read_text().split())
        assert len(pids) == 3 and str(worker) not in pids

    def test_a_killed_worker_fails_the_run(self, tmp_path):
        # a multiprocessing.Pool would wait forever for the lost task
        proc = subprocess.run([sys.executable, "-c", KILLED_WORKERS, str(tmp_path)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert "BrokenProcessPool" in proc.stderr
        assert not (tmp_path / "convergence.csv").exists()

    def test_runs_serially_beside_another_thread(self, tmp_path, monkeypatch, set_cpus):
        # a fork copies the locks other threads hold, so they stay serial
        set_cpus(3)
        log = _record_pids(tmp_path, monkeypatch)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            run_convergence(telegraph_config(horizon=0.2, out_dir=str(tmp_path)), halvings=2)
        finally:
            release.set()
            other.join(timeout=60)
        assert not other.is_alive()
        assert set(log.read_text().split()) == {str(os.getpid())}

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_ladder_workers_issue_no_warnings(self, tmp_path, set_cpus, cpus):
        set_cpus(cpus)
        # the floor warning is the model's, issued once when it is built
        with pytest.warns(UserWarning, match="floored"):
            model = ChainModel(levels=[1.0, -1.0], rates=TELEGRAPH.rates, initial_dist=[1.0, 0.0])
        config = telegraph_config(model=model, horizon=0.05, out_dir=str(tmp_path))
        # so no grid warns: a warning in a worker or in the caller would raise
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the log scheme overflows from the floored point mass on the first grid
            with pytest.raises(FilterInstabilityError, match="log: the filter state"):
                run_convergence(config, halvings=2)
            report = run_adjudicate(config)
        set_cpus(1)
        assert report == run_adjudicate(replace(config, out_dir=str(tmp_path / "serial")))

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_the_coarsest_failing_grid_raises(self, tmp_path, monkeypatch, set_cpus, cpus):
        set_cpus(cpus)
        config = telegraph_config(horizon=0.2, out_dir=str(tmp_path))
        coarse = round(config.horizon / config.dt)

        def failing(model, grid, *side):
            if grid.n_steps == coarse:
                time.sleep(0.2)  # the finest grid's failure arrives first
                raise FilterInstabilityError("coarse grid failed")
            if grid.n_steps == 4 * coarse:
                raise ValueError("fine grid failed")
            return run_trajectory(model, grid, *side)

        monkeypatch.setattr(harness, "run_trajectory", failing)
        with pytest.raises(FilterInstabilityError, match="^coarse grid failed$") as raised:
            run_convergence(config, halvings=2)
        assert not (tmp_path / "convergence.csv").exists()
        # a worker's failure carries the worker's traceback as its cause
        cause = raised.value.__cause__
        if cpus > 1:
            assert 'in failing\n    raise FilterInstabilityError("coarse grid failed")' in str(cause)
        else:
            assert cause is None

    def test_runs_serially_under_a_wrapping_tracer(self, tmp_path, monkeypatch, set_cpus):
        # a functools.wraps wrapper records in this process, which workers
        # would not reach: the tracer must see every run
        set_cpus(3)
        spans = []

        @functools.wraps(run_trajectory)
        def traced(model, grid, *side):
            spans.append((grid.dt, *side))
            return run_trajectory(model, grid, *side)

        monkeypatch.setattr(harness, "run_trajectory", traced)
        run_convergence(telegraph_config(horizon=0.2, out_dir=str(tmp_path)), halvings=2)
        assert len(spans) == len(set(spans)) == 7 * 3


@pytest.mark.parametrize("quota, cpus", [
    ({"cpu.max": "max 100000\n"}, 8),
    ({"cpu.max": "100000 100000\n"}, 1),
    ({"cpu.max": "250000 100000\n"}, 3),
    ({"cpu.max": "5000 100000\n"}, 1),
    ({"cpu.max": "1000000 100000\n"}, 8),
    ({"quota": "-1\n", "period": "100000\n"}, 8),
    ({"quota": "200000\n", "period": "100000\n"}, 2),
    ({}, 8),
])
def test_usable_cpus_are_capped_by_the_cgroup_quota(tmp_path, monkeypatch, quota, cpus):
    for name, text in quota.items():
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(fanout.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(fanout, "CPU_QUOTA_FILES", (
        (str(tmp_path / "cpu.max"),), (str(tmp_path / "quota"), str(tmp_path / "period"))))
    assert fanout.usable_cpus() == cpus


RATES = [[0.0, 1.0], [1.0, 0.0]]

# (stored attribute, constructor given the caller's array)
CONSTRUCTORS = {
    "ChainModel.levels": ("levels", lambda a: ChainModel(levels=a, rates=RATES,
                                                         initial_dist=[0.5, 0.5])),
    "ChainModel.initial_dist": ("initial_dist", lambda a: ChainModel(levels=[1.0, -1.0],
                                                                     rates=RATES,
                                                                     initial_dist=a)),
    "JumpPath.jump_times": ("jump_times", lambda a: JumpPath(0, a, [1, 0], 1.0)),
    "JumpPath.jump_states": ("jump_states", lambda a: JumpPath(0, [0.25, 0.75], a, 1.0)),
    "ObservationGrid.dy": ("dy", lambda a: ObservationGrid(0.1, 1.0, a, np.zeros(2), np.ones(2))),
    "ObservationGrid.dw": ("dw", lambda a: ObservationGrid(0.1, 1.0, np.zeros(2), a, np.ones(2))),
    "ObservationGrid.x_level": ("x_level",
                                lambda a: ObservationGrid(0.1, 1.0, np.zeros(2), np.zeros(2), a)),
    "FilterState.probs": ("probs", lambda a: FilterState(probs=a)),
    "UnnormalizedState.psi": ("psi", lambda a: UnnormalizedState(psi=a)),
    # GammaState used to keep the caller's writable array
    "GammaState.psi": ("psi", lambda a: GammaState(psi=a, t=0.0, a_matrix=np.zeros((2, 2)))),
    "LogState.theta": ("theta", lambda a: LogState(theta=a)),
    "DiscreteBayesState.probs": ("probs", lambda a: DiscreteBayesState(probs=a)),
}


@pytest.mark.parametrize("name", list(CONSTRUCTORS))
def test_constructor_leaves_callers_array_writable(name):
    # the object keeps a read-only copy; the caller's array stays theirs to write
    attribute, build = CONSTRUCTORS[name]
    mine = np.array([1, 0]) if attribute == "jump_states" else np.array([0.25, 0.75])
    stored = getattr(build(mine), attribute)
    assert mine.flags.writeable
    assert not stored.flags.writeable
    kept = stored.copy()
    mine[:] = 0
    assert np.array_equal(stored, kept)


# a valid state of each public state type, given extra fields
STATES = {
    "FilterState": lambda **kw: FilterState(probs=[0.5, 0.5], **kw),
    "UnnormalizedState": lambda **kw: UnnormalizedState(psi=[0.5, 0.5], **kw),
    "GammaState": lambda **kw: GammaState(psi=[0.5, 0.5], a_matrix=np.zeros((2, 2)), **kw),
    "LogState": lambda **kw: LogState(theta=[0.0, 0.0], **kw),
    "TelegraphState": lambda **kw: TelegraphState(q=0.0, **kw),
}
BAD_SCALARS = [
    (name, field, bad)
    for name in STATES
    for field, values in [
        ("t", [math.nan, math.inf, -1.0, "1", True]),
        ("clamps", [-1, 1.5, True, None]),
        ("log_normalizer", [math.nan, math.inf, -math.inf, None, True]),
    ]
    if (field != "clamps" or name != "LogState")
    and (field != "log_normalizer" or name in ("UnnormalizedState", "GammaState"))
    for bad in values
]


@pytest.mark.parametrize("name, field, bad", BAD_SCALARS)
def test_state_rejects_bad_scalar(name, field, bad):
    # each of these used to be accepted: FilterState(t=nan, clamps=-5),
    # UnnormalizedState(log_normalizer=inf, t=-1), ...
    with pytest.raises(ValueError, match=field):
        STATES[name](**{field: bad})


@pytest.mark.parametrize("name", list(STATES))
def test_state_takes_numpy_scalars(name):
    fields = {"t": np.float64(0.5)}
    if name != "LogState":
        fields["clamps"] = np.int64(3)
    if name in ("UnnormalizedState", "GammaState"):
        fields["log_normalizer"] = np.float64(-2.0)
    state = STATES[name](**fields)
    assert [getattr(state, field) for field in fields] == list(fields.values())


class TestPredict:
    def test_zero_horizon_reproduces_terminal_row(self, tmp_path):
        config = telegraph_config(scheme="wonham-ito", out_dir=str(tmp_path))
        trajectory, _ = run_filter(config, write=False)
        rows = run_predict(config, [0.0, 0.5])
        assert np.array_equal(rows[0]["probs"], trajectory.probs[-1])
        assert (tmp_path / "prediction.csv").read_text().splitlines()[0] == "h,p_1,p_2"

    @pytest.mark.parametrize("terminal", [[2.0, -1.0], [float("nan"), 0.5]],
                             ids=["negative", "nan"])
    def test_rejects_invalid_terminal_distribution(self, terminal):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            predict(FilterState(probs=np.array(terminal)), TELEGRAPH, 1.0)

    def test_leaves_callers_terminal_writable(self):
        terminal = np.array([0.7, 0.3])
        predict(FilterState(probs=terminal), TELEGRAPH, 1.0)
        assert terminal.flags.writeable

    def test_rejects_negative_horizon(self, tmp_path):
        with pytest.raises(ValueError, match="nonnegative"):
            run_predict(telegraph_config(out_dir=str(tmp_path / "out")), [-1.0])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("horizons, message", [
        ([], "at least one"), ([0.5, math.nan], "finite"), ([1.0, -1.0], "nonnegative"),
        ([math.inf], "finite"),
    ], ids=["empty", "nan", "negative", "inf"])
    def test_horizons_checked_before_the_filter_runs(self, tmp_path, monkeypatch, horizons,
                                                     message):
        # an empty list used to run the filter and write a header-only file,
        # and a bad horizon was refused only after the filter had run
        def no_filter(*args, **kwargs):
            raise AssertionError("the filter ran")

        monkeypatch.setattr(harness, "run_filter", no_filter)
        with pytest.raises(ValueError, match=message):
            run_predict(telegraph_config(out_dir=str(tmp_path / "out")), horizons)
        assert not (tmp_path / "out").exists()


class TestCli:
    @pytest.fixture
    def config_file(self, tmp_path):
        config = telegraph_config(out_dir=str(tmp_path / "out"))
        file = tmp_path / "config.json"
        file.write_text(json.dumps(config.to_json()))
        return file

    def test_simulate_and_filter(self, config_file, tmp_path, capsys):
        assert main(["simulate", "--config", str(config_file)]) == 0
        assert main(["filter", "--config", str(config_file)]) == 0
        assert (tmp_path / "out" / "trajectory.csv").exists()

    def test_validate_good_config(self, config_file):
        assert main(["validate", "--config", str(config_file)]) == 0

    def test_config_integer_written_as_float_is_read(self):
        doc = telegraph_config(scheme="zakai-langevin").to_json()
        doc.update(correction_sign=1.0, master_seed=12.0)
        config = ExperimentConfig.from_json(doc)
        assert (config.correction_sign, config.master_seed) == (1, 12)
        assert type(config.master_seed) is int

    @pytest.mark.parametrize("flags", [[], ["--config", "c.json", "--model", "m.json"]],
                             ids=["neither", "both"])
    def test_validate_needs_exactly_one_source(self, flags, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["validate", *flags])
        assert exit_info.value.code == 2
        assert "--config" in capsys.readouterr().err

    def test_gamma_on_the_k8_model_exits_0(self, tmp_path):
        # exp(+-A t) of this K=8 model used to overflow the Gamma transform
        # before T=5 (exit 3); re-based at every step, Gamma tracks zakai-langevin
        rates = np.random.default_rng(0).uniform(0.1, 1.0, size=(8, 8))
        np.fill_diagonal(rates, 0.0)
        model = ChainModel(levels=np.linspace(-1.0, 1.0, 8), rates=rates,
                           initial_dist=np.full(8, 1.0 / 8))
        config = ExperimentConfig(model=model, horizon=5.0, dt=1e-3, beta=0.5, scheme="gamma",
                                  out_dir=str(tmp_path / "out"))
        file = tmp_path / "k8.json"
        file.write_text(json.dumps(config.to_json()))
        assert main(["filter", "--config", str(file)]) == 0
        assert (tmp_path / "out" / "trajectory.csv").exists()
        _, grid = simulate_pair(config)
        gamma = run_trajectory(model, grid, "gamma", correction_sign=-1)
        langevin = run_trajectory(model, grid, "zakai-langevin", correction_sign=-1)
        assert gamma.clamps == 0
        assert np.abs(gamma.probs - langevin.probs).max() <= 2e-3

    def test_seed_override_changes_output(self, config_file, tmp_path):
        out = tmp_path / "out" / "observations.csv"
        main(["simulate", "--config", str(config_file)])
        first = out.read_bytes()
        main(["simulate", "--config", str(config_file), "--seed", "8"])
        assert out.read_bytes() != first

    def test_predict_prints_rows(self, config_file, capsys):
        assert main(["predict", "--config", str(config_file), "--horizons", "0,1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("h=0")


# The K=8 model of the benchmark's kernel probe and filter-k8 workload.
PROBE_RATES = np.random.default_rng(0).uniform(0.1, 1.0, size=(8, 8))
np.fill_diagonal(PROBE_RATES, 0.0)
PROBE_K8 = ChainModel(levels=np.linspace(-1.0, 1.0, 8), rates=PROBE_RATES,
                      initial_dist=np.full(8, 1.0 / 8))


@pytest.mark.parametrize("scheme", [s for s in SCHEMES if harness._filters(s, PROBE_K8)])
def test_filter_memory_does_not_grow_with_the_run(tmp_path, scheme):
    # filter synthesizes, steps and writes a block of rows at a time; it used
    # to hold its whole grid, inputs, history and written columns. A table
    # that keeps a copy of each block's rows (a row of tests/mutants.py)
    # peaks 0.56 MB higher at 10,000 steps than at 1,000, this run 0.02 MB
    peaks = []
    for horizon in (1.0, 10.0):
        config = ExperimentConfig(model=PROBE_K8, horizon=horizon, dt=1e-3, beta=0.5,
                                  scheme=scheme, out_dir=str(tmp_path))
        tracemalloc.start()
        try:
            run_filter(config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 0.25 * 2**20


class TestFailedRunsWriteNothing:
    """filter and simulate write each file under a temporary name and move it
    onto its name only once the run has passed its exit checks."""

    @pytest.fixture
    def point_mass(self, tmp_path):
        # the log scheme overflows from the floored point mass (exit 3)
        with pytest.warns(UserWarning, match="floored"):
            model = ChainModel(levels=[1.0, -1.0], rates=TELEGRAPH.rates, initial_dist=[1.0, 0.0])
        file = tmp_path / "point-mass.json"
        file.write_text(json.dumps(telegraph_config(model=model, horizon=0.05, scheme="log",
                                                    out_dir=str(tmp_path / "out")).to_json()))
        return file

    @pytest.mark.parametrize("rows", [None, 7], ids=["one-block", "7-row-blocks"])
    def test_a_failed_filter_leaves_no_file(self, tmp_path, monkeypatch, capsys, point_mass,
                                            rows):
        if rows is not None:
            monkeypatch.setattr(kernels, "BLOCK_ROWS", rows)
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="floored"):
            assert main(["filter", "--config", str(point_mass)]) == 3
        assert list(out.iterdir()) == []
        # nor does it touch the files of an earlier run
        good = tmp_path / "good.json"
        good.write_text(json.dumps(telegraph_config(horizon=0.05, out_dir=str(out)).to_json()))
        assert main(["filter", "--config", str(good)]) == 0
        written = {file.name: file.read_bytes() for file in out.iterdir()}
        assert sorted(written) == ["run_report.json", "trajectory.csv"]
        with pytest.warns(UserWarning, match="floored"):
            assert main(["filter", "--config", str(point_mass)]) == 3
        assert {file.name: file.read_bytes() for file in out.iterdir()} == written

    def test_a_filter_that_raises_leaves_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(kernels, "BLOCK_ROWS", 7)
        writes = []

        def failing(*args):
            writes.append(args[1])
            if len(writes) == 3:
                raise OSError("disk full")
            write(*args)

        write = harness.write_trajectory_csv
        monkeypatch.setattr(harness, "write_trajectory_csv", failing)
        with pytest.raises(OSError, match="disk full"):
            run_filter(telegraph_config(horizon=0.05, out_dir=str(tmp_path)))
        assert list(tmp_path.iterdir()) == []

    def test_a_simulate_that_raises_leaves_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(kernels, "BLOCK_ROWS", 7)

        def failing(*args):
            blocks = observation_blocks(*args)
            yield next(blocks)
            yield next(blocks)
            raise OSError("disk full")

        monkeypatch.setattr(harness, "observation_blocks", failing)
        with pytest.raises(OSError, match="disk full"):
            run_simulate(telegraph_config(horizon=0.05, out_dir=str(tmp_path)))
        assert list(tmp_path.iterdir()) == []


def test_run_history_peaks_near_its_output():
    # a run used to keep one Python (state, scale) tuple per step and stack the
    # list after the loop, peaking at ~6x its output and increments at any
    # length; a tuple per kept row peaks at 2.8x at these 8,000 steps, this run
    # at 0.8x
    kernel = KERNELS["zakai-ito"](TELEGRAPH, 1e-3, 0.5)
    dy = 0.5 * np.sqrt(1e-3) * np.random.default_rng(5).standard_normal(8_000)
    start = kernel.start()
    tracemalloc.start()
    try:
        run = drive(kernel, start, dy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = sum(a.nbytes for a in (run.times, run.probs, *run.extras.values()))
    assert peak <= 2 * (output + dy.nbytes)


def test_a_batch_without_history_holds_one_block_of_rows():
    # a batch's (n+1, R) presum column, or its (n+1, K, R) states, would be
    # as large as its increments; it holds a block of CHUNK_VALUES // R rows
    kernel = WonhamIto(TELEGRAPH, 1e-3, 0.5)
    start = kernel.start()
    dy = 1e-3 + 0.5 * np.sqrt(1e-3) * np.random.default_rng(6).standard_normal((1000, 500))
    tracemalloc.start()
    try:
        run_steps(kernel, start, dy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dy.nbytes / 2


@pytest.mark.parametrize("replicas", [None, 1, 2, 3])
@pytest.mark.parametrize("run_of", [run_history, run_steps])
def test_presum_total_dev_sums_left_to_right(replicas, run_of):
    # np.add.reduce over axis 0 adds the rows of an (n, R) array in order
    # for R >= 2 only: on (n,) and (n, 1) it sums pairwise, with other bits
    # than the running total
    class Drifting(WonhamIto):
        def step(self, probs, dy):
            # from (1/2, 1/2), a raw update (1 + dy) / 2 per state sums to 1 + dy
            # exactly, and normalizes back to (1/2, 1/2)
            return probs * (1.0 + dy)

    kernel = Drifting(TELEGRAPH, 1e-3, 0.5)
    shape = (3000,) if replicas is None else (3000, replicas)
    dy = np.random.default_rng(7).uniform(-0.3, 0.3, shape)
    run = run_of(kernel, kernel.start(), dy)
    presums = np.concatenate([np.ones((1, *shape[1:])), 1.0 + dy]).reshape(len(dy) + 1, -1)
    totals = []
    for column in presums.T.tolist():
        total = 0.0
        for presum in column:
            total += abs(presum - 1.0)
        totals.append(total)
    assert run.presum_total_dev == max(totals)
