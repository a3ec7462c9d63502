import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from jumpfilter import (
    ChainModel,
    DiscreteBayesState,
    FilterState,
    JumpPath,
    LogState,
    TelegraphState,
    UnnormalizedState,
    bayes_forward_step,
    drift_matrix,
    gamma_langevin_step,
    init_unnormalized,
    log_step,
    predict,
    telegraph_ito_step,
    telegraph_langevin_step,
    telegraph_model,
    to_gamma,
    wonham_langevin_step,
    wonham_step,
    zakai_ito_step,
    zakai_langevin_step,
)
from jumpfilter import harness
from jumpfilter.cli import main
from jumpfilter.kernels import (KERNELS, GammaRangeError, Kernel, TelegraphIto, WonhamIto, drive,
                                step_once)
from jumpfilter.signalpath import ObservationGrid
from jumpfilter.zakai import FilterInstabilityError
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
from jumpfilter.seeding import ROLE_JUMP, ROLE_NOISE, derive_seed, splitmix64

TELEGRAPH = telegraph_model(1.0)


def telegraph_config(**overrides) -> ExperimentConfig:
    base = dict(model=TELEGRAPH, horizon=1.0, dt=1e-3, beta=0.5, master_seed=7)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSeeding:
    def test_splitmix_is_deterministic_64bit(self):
        assert splitmix64(0, 1) == splitmix64(0, 1)
        assert 0 <= splitmix64(2**64 - 1, 2**63) < 2**64

    def test_streams_differ_by_role_and_replica(self):
        seeds = {
            derive_seed(9, r, role) for r in range(100) for role in (ROLE_JUMP, ROLE_NOISE)
        }
        assert len(seeds) == 200


class TestConfig:
    def test_round_trip(self):
        config = telegraph_config(scheme="zakai-langevin", correction_sign=1)
        back = ExperimentConfig.from_json(json.dumps(config.to_json()))
        assert back.to_json() == config.to_json()

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="scheme"):
            telegraph_config(scheme="kalman")

    def test_unknown_scheme_has_one_message(self):
        # run_trajectory used to keep its own check, without the list of schemes
        with pytest.raises(ValueError) as from_config:
            telegraph_config(scheme="x")
        with pytest.raises(ValueError) as from_run:
            run_trajectory(TELEGRAPH, simulate_pair(telegraph_config())[1], "x")
        assert str(from_config.value) == str(from_run.value)
        assert str(from_run.value) == f"unknown scheme 'x'; choose from {SCHEMES}"

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

    def test_step_budget_is_checked_before_allocating(self):
        # a 5e13-step grid used to reach numpy's allocator
        with pytest.raises(ValueError, match="budget"):
            telegraph_config(dt=1e-15)
        with pytest.raises(ValueError, match="budget"):
            run_convergence(telegraph_config(), 60)

    def test_step_must_divide_horizon(self):
        with pytest.raises(ValueError, match="divide"):
            telegraph_config(dt=0.3)

    def test_unknown_key_rejected(self):
        # ignoring a misspelled key would silently run the default scheme
        doc = telegraph_config().to_json()
        doc["sheme"] = doc.pop("scheme")
        with pytest.raises(ValueError, match="sheme"):
            ExperimentConfig.from_json(json.dumps(doc))

    def test_telegraph_scheme_needs_telegraph_model(self):
        three = ChainModel(
            levels=[1.0, 0.0, -1.0],
            rates=[[0, 1, 0], [0, 0, 1], [1, 0, 0]],
            initial_dist=[1.0, 0.0, 0.0],
        )
        with pytest.raises(ValueError, match="telegraph"):
            ExperimentConfig(model=three, horizon=1.0, dt=1e-3, beta=0.5,
                             scheme="telegraph-ito")

    def test_telegraph_levels_must_be_exact(self):
        # np.allclose's default rtol=1e-5 used to let levels (1 + 9e-6, -1) through
        near = ChainModel(levels=[1.0 + 9e-6, -1.0], rates=TELEGRAPH.rates,
                          initial_dist=[0.5, 0.5])
        with pytest.raises(ValueError, match="telegraph"):
            telegraph_config(model=near, scheme="telegraph-ito")
        for nu in (0.1, 1.0, 7.5):
            telegraph_config(model=telegraph_model(nu), scheme="telegraph-ito")

    def test_invalid_model_rejected(self):
        with pytest.raises(ValueError, match="invalid model"):
            bad = ChainModel(levels=[1.0, -1.0], rates=[[0, -1], [1, 0]], initial_dist=[0.5, 0.5])
            ExperimentConfig(model=bad, horizon=1.0, dt=1e-3, beta=0.5)

    @pytest.mark.parametrize("field, value", [
        ("beta", math.nan), ("beta", math.inf), ("beta", 0.0), ("dt", math.nan),
        ("dt", -1e-3), ("horizon", math.inf), ("horizon", math.nan),
    ])
    def test_numbers_must_be_finite_and_positive(self, field, value):
        # NaN is not <= 0, so a NaN beta used to pass; an infinite horizon
        # overflowed in the step count
        with pytest.raises(ValueError, match="finite and positive"):
            telegraph_config(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("correction_sign", True, "'correction_sign' must be a number with an integer value"),
        ("master_seed", 0.5, "'master_seed' must be a number with an integer value"),
        ("horizon", True, "'T' must be a number, not True"),
        ("beta", "0.5", "'beta' must be a number, not '0.5'"),
    ])
    def test_types_are_checked_at_construction(self, field, value, message):
        # a bool sign and a fractional seed used to build a config whose own
        # to_json() document from_json then refused
        with pytest.raises(ValueError, match=message):
            telegraph_config(**{field: value})

    def test_numpy_scalars_are_stored_as_python_numbers(self):
        config = telegraph_config(horizon=np.float64(1.0), beta=np.float32(0.5),
                                  correction_sign=np.int64(1), master_seed=np.float64(3.0))
        assert [type(getattr(config, name)) for name in
                ("horizon", "beta", "correction_sign", "master_seed")] == [float, float, int, int]
        assert (config.beta, config.correction_sign, config.master_seed) == (0.5, 1, 3)

    def test_missing_key_rejected(self):
        doc = telegraph_config().to_json()
        del doc["beta"]
        with pytest.raises(ValueError, match=r"missing config keys \['beta'\]"):
            ExperimentConfig.from_json(doc)

    def test_config_is_frozen(self):
        with pytest.raises(AttributeError):
            telegraph_config().dt = 0.3


class TestSimulate:
    def test_deterministic_bytes(self, tmp_path):
        files = []
        for name in ("a", "b"):
            config = telegraph_config(out_dir=str(tmp_path / name))
            run_simulate(config)
            files.append((tmp_path / name / "observations.csv").read_bytes())
            files.append((tmp_path / name / "path.csv").read_bytes())
        assert files[0] == files[2]
        assert files[1] == files[3]

    def test_row_count_equals_steps(self, tmp_path):
        config = telegraph_config(horizon=5.0, out_dir=str(tmp_path))
        run_simulate(config)
        rows = (tmp_path / "observations.csv").read_text().splitlines()
        assert len(rows) == 5001  # header + T/dt increments

    def test_single_state_constant_level_column(self, tmp_path):
        model = ChainModel(levels=[2.0], rates=[[0.0]], initial_dist=[1.0])
        config = ExperimentConfig(model=model, horizon=0.1, dt=1e-2, beta=0.5,
                                  out_dir=str(tmp_path))
        run_simulate(config)
        levels = {line.split(",")[4] for line in
                  (tmp_path / "observations.csv").read_text().splitlines()[1:]}
        assert levels == {"2"}


class TestRunFilter:
    def test_wonham_outputs(self, tmp_path):
        config = telegraph_config(scheme="wonham-ito", out_dir=str(tmp_path))
        trajectory, report = run_filter(config)
        assert (tmp_path / "trajectory.csv").exists()
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert header == "r,t,y,x_level,p_1,p_2,xbar,map_state"
        saved = json.loads((tmp_path / "run_report.json").read_text())
        assert saved["scheme"] == "wonham-ito"
        assert saved["sign_variant"] == "innovation"
        assert "clamps" in saved

    def test_q_stays_in_range_over_run(self, tmp_path):
        config = telegraph_config(horizon=5.0, scheme="wonham-ito", out_dir=str(tmp_path))
        trajectory, _ = run_filter(config, write=False)
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

    def test_bayes_oracle_columns_comparable(self, tmp_path):
        config = telegraph_config(scheme="bayes-oracle", out_dir=str(tmp_path))
        _, report = run_filter(config)
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert header == "r,t,y,x_level,p_1,p_2,xbar,map_state"

    def test_uninformative_model_matches_forward_solution(self):
        # equal levels: observation terms vanish algebraically, so the filter
        # trajectory is the forward-equation solution (same Euler mesh)
        model = ChainModel(levels=[0.5, 0.5], rates=TELEGRAPH.rates, initial_dist=[0.9, 0.1])
        config = ExperimentConfig(model=model, horizon=1.0, dt=1e-4, beta=0.5, master_seed=2)
        trajectory, _ = run_filter(config, write=False)
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
    runs = []

    def counted(model, grid, *side):
        runs.append((grid.dt, *side))
        return run_trajectory(model, grid, *side)

    monkeypatch.setattr(harness, "run_trajectory", counted)
    config = telegraph_config(horizon=0.2, out_dir=str(tmp_path))
    rows = run_convergence(config, halvings=2)
    assert len(runs) == len(set(runs)) == 7 * 3
    runs.clear()
    report = run_adjudicate(config)
    assert len(runs) == len(set(runs)) == 5 * 3
    # a pair that both tables hold gives one ladder
    shared = [row["max_discrepancy"] for row in rows if row["pair"] == "zakai-ito|wonham-ito"]
    assert report["drift_variant"]["discrepancies"]["innovation"] == shared

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


class TestPredict:
    def test_zero_horizon_reproduces_terminal_row(self, tmp_path):
        config = telegraph_config(scheme="wonham-ito", out_dir=str(tmp_path))
        trajectory, _ = run_filter(config, write=False)
        rows = run_predict(config, [0.0, 0.5])
        assert np.array_equal(rows[0]["probs"], trajectory.probs[-1])
        assert (tmp_path / "prediction.csv").read_text().splitlines()[0] == "h,p_1,p_2"

    def test_far_horizon_is_stationary(self, tmp_path):
        rows = run_predict(telegraph_config(out_dir=str(tmp_path)), [100.0])
        assert np.abs(rows[0]["probs"] - 0.5).max() <= 1e-8
        assert np.abs(predict(FilterState(probs=[0.9, 0.1]), TELEGRAPH, 100.0) - 0.5).max() <= 1e-8

    def test_composition_consistency(self):
        from jumpfilter import transition_matrix

        terminal = np.array([0.7, 0.3])
        direct = predict(FilterState(probs=terminal), TELEGRAPH, 2.0)
        composed = (terminal @ transition_matrix(TELEGRAPH, 0.8)) @ transition_matrix(
            TELEGRAPH, 1.2
        )
        assert np.abs(direct - composed).max() <= 1e-9

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

    def test_misspelled_config_key_exits_2(self, tmp_path, capsys):
        doc = telegraph_config(out_dir=str(tmp_path / "out")).to_json()
        doc["replicas"] = 50
        file = tmp_path / "config.json"
        file.write_text(json.dumps(doc))
        assert main(["filter", "--config", str(file)]) == 2
        assert main(["validate", "--config", str(file)]) == 2
        assert "replicas" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_validate_bad_model_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"levels": [1, -1], "rates": [[0, -2], [1, 0]], "initial": [0.5, 0.5]}')
        assert main(["validate", "--model", str(bad)]) == 2
        assert "error: invalid model: negative rate" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("beta", math.nan), ("beta", math.inf), ("dt", math.nan), ("T", math.inf),
    ])
    def test_nonfinite_config_number_exits_2(self, tmp_path, capsys, key, value):
        # a NaN or infinite beta used to validate as "config ok", and an
        # infinite T crashed with OverflowError (exit 1)
        doc = telegraph_config(out_dir=str(tmp_path / "out")).to_json()
        doc[key] = value
        file = tmp_path / "config.json"
        file.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(file)]) == 2
        assert main(["filter", "--config", str(file)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["T", "dt", "beta", "correction_sign", "master_seed"])
    @pytest.mark.parametrize("value", [None, [1, 2], True, "0.5"],
                             ids=["null", "list", "bool", "text"])
    def test_config_number_of_wrong_type_exits_2(self, tmp_path, capsys, key, value):
        # float(None) and int([1, 2]) used to escape as TypeError (exit 1), and
        # float() read "T": true as 1.0 and "beta": "0.5" as 0.5
        doc = telegraph_config(out_dir=str(tmp_path / "out")).to_json()
        doc[key] = value
        file = tmp_path / "config.json"
        file.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(file)]) == 2
        assert main(["filter", "--config", str(file)]) == 2
        assert capsys.readouterr().err.startswith(f"error: config key '{key}' must be a number")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("correction_sign", -1.9), ("correction_sign", True), ("master_seed", 0.9),
        ("master_seed", False), ("master_seed", math.nan),
    ])
    def test_config_integer_must_be_integral_exits_2(self, tmp_path, capsys, key, value):
        # int() used to truncate: correction_sign -1.9 ran as -1, master_seed 0.9 as seed 0
        doc = telegraph_config(out_dir=str(tmp_path / "out")).to_json()
        doc[key] = value
        file = tmp_path / "config.json"
        file.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(file)]) == 2
        assert main(["filter", "--config", str(file)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: config key '{key}' must be a number with an integer value")
        assert not (tmp_path / "out").exists()

    def test_config_integer_written_as_float_is_read(self):
        doc = telegraph_config(scheme="zakai-langevin").to_json()
        doc.update(correction_sign=1.0, master_seed=12.0)
        config = ExperimentConfig.from_json(doc)
        assert (config.correction_sign, config.master_seed) == (1, 12)
        assert type(config.master_seed) is int

    def test_out_dir_must_be_a_path_exits_2(self, tmp_path, capsys):
        # a list used to validate as "config ok", then fail in filter (exit 1)
        doc = telegraph_config().to_json()
        doc["out_dir"] = [1]
        file = tmp_path / "config.json"
        file.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(file)]) == 2
        assert main(["filter", "--config", str(file)]) == 2
        assert capsys.readouterr().err.startswith("error: out_dir must be a str or a path")
        assert telegraph_config(out_dir=tmp_path).out_dir == tmp_path

    def test_overrides_are_validated(self, config_file, tmp_path):
        assert main(["filter", "--config", str(config_file), "--dt", "nan"]) == 2
        assert main(["filter", "--config", str(config_file), "--dt", "0.3"]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags", [[], ["--config", "c.json", "--model", "m.json"]],
                             ids=["neither", "both"])
    def test_validate_needs_exactly_one_source(self, flags, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["validate", *flags])
        assert exit_info.value.code == 2
        assert "--config" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["filter", "--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("command, document", [
        (["validate", "--config"], {"model": [], "T": 1, "dt": 0.1, "beta": 1}),
        (["validate", "--config"], [1, 2]),
        (["filter", "--seed", "5", "--config"], [1, 2]),
        (["filter", "--config"], {"model": "[1]", "T": 1, "dt": 0.1, "beta": 1}),
        (["validate", "--model"], [1, 2]),
        (["validate", "--model"], 3),
    ], ids=["config-model-list", "validate-config-list", "filter-config-list",
            "config-model-text", "model-list", "model-number"])
    def test_document_that_is_not_an_object_exits_2(self, tmp_path, monkeypatch, capsys,
                                                    command, document):
        # a JSON array used to escape as TypeError (exit 1) on its first key lookup
        monkeypatch.chdir(tmp_path)
        file = tmp_path / "doc.json"
        file.write_text(json.dumps(document))
        assert main([*command, str(file)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == [file]

    def test_gamma_out_of_range_exits_3(self, tmp_path, capsys):
        # exp(+-A t) of this K=8 model overflows the Gamma transform before T=5
        rates = np.random.default_rng(0).uniform(0.1, 1.0, size=(8, 8))
        np.fill_diagonal(rates, 0.0)
        model = ChainModel(levels=np.linspace(-1.0, 1.0, 8), rates=rates,
                           initial_dist=np.full(8, 1.0 / 8))
        config = ExperimentConfig(model=model, horizon=5.0, dt=1e-3, beta=0.5, scheme="gamma",
                                  out_dir=str(tmp_path / "out"))
        file = tmp_path / "k8.json"
        file.write_text(json.dumps(config.to_json()))
        assert main(["filter", "--config", str(file)]) == 3
        assert "run failed: Gamma" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_filter_instability_exits_3(self, tmp_path, capsys):
        config = telegraph_config(horizon=10.0, dt=0.5, beta=0.1, scheme="zakai-ito",
                                  out_dir=str(tmp_path / "out"))
        file = tmp_path / "coarse.json"
        file.write_text(json.dumps(config.to_json()))
        assert main(["filter", "--config", str(file)]) == 3
        assert "clamp events" in capsys.readouterr().err

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

    @pytest.mark.parametrize("horizons", ["nan", "inf", "0,nan"])
    def test_predict_nonfinite_horizon_exits_2(self, config_file, tmp_path, capsys, horizons):
        # nan used to write NaN rows with exit 0, inf to recurse until RecursionError
        assert main(["predict", "--config", str(config_file), "--horizons", horizons]) == 2
        assert "error: horizon must be finite and nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "out" / "prediction.csv").exists()

    def test_log_overflow_from_point_mass_exits_3(self, tmp_path, capsys):
        # the state floored to 1e-300 overflows the first log step; this used
        # to exit 2, as a validation failure, where other schemes exit 3
        model = ChainModel(levels=[1.0, -1.0], rates=TELEGRAPH.rates, initial_dist=[1.0, 0.0])
        config = telegraph_config(model=model, horizon=0.05, scheme="log",
                                  out_dir=str(tmp_path / "out"))
        file = tmp_path / "point-mass.json"
        file.write_text(json.dumps(config.to_json()))
        with pytest.warns(UserWarning, match="floored"):
            assert main(["filter", "--config", str(file)]) == 3
        assert "run failed: log: the filter state became non-finite" in capsys.readouterr().err

    def test_out_dir_under_a_regular_file_exits_2(self, config_file, tmp_path, capsys):
        # NotADirectoryError used to escape uncaught (exit 1)
        out = config_file / "x"
        assert main(["filter", "--config", str(config_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("edit, message", [
        (lambda model: model.update(foo=1), "unknown model keys ['foo']"),
        (lambda model: model.pop("initial"), "missing model keys ['initial']"),
    ], ids=["unknown", "missing"])
    def test_model_key_outside_the_table_exits_2(self, tmp_path, capsys, edit, message):
        # an unknown model key used to validate as "config ok", a missing one
        # to fail with a bare KeyError: 'initial'
        doc = telegraph_config(out_dir=str(tmp_path / "out")).to_json()
        edit(doc["model"])
        file = tmp_path / "config.json"
        file.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(file)]) == 2
        file.write_text(json.dumps(doc["model"]))
        assert main(["validate", "--model", str(file)]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_rates_beyond_the_jump_budget_exit_2(self, tmp_path, capsys):
        # "filter" on these rates used to loop forever drawing jumps
        model = {"levels": [1.0, -1.0], "rates": [[0.0, 1e308], [1e308, 0.0]],
                 "initial": [0.5, 0.5]}
        doc = dict(telegraph_config(out_dir=str(tmp_path / "out")).to_json(), model=model)
        file = tmp_path / "config.json"
        file.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(file)]) == 2
        assert main(["filter", "--config", str(file)]) == 2
        assert capsys.readouterr().err.startswith("error: horizon * max exit rate")
        assert not (tmp_path / "out").exists()

    def test_config_nested_past_the_parser_limit_exits_2(self, tmp_path, capsys):
        # json.loads used to raise RecursionError (exit 1)
        file = tmp_path / "deep.json"
        file.write_text("[" * 100_000)
        assert main(["validate", "--config", str(file)]) == 2
        assert main(["filter", "--config", str(file)]) == 2
        assert capsys.readouterr().err.startswith("error: a config is nested too deeply")

    def test_entry_point_runs(self, config_file):
        proc = subprocess.run(
            [sys.executable, "-m", "jumpfilter.cli", "validate", "--config", str(config_file)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "config ok" in proc.stdout


class TestDriverErrorPolicy:
    THREE = ChainModel(
        levels=[1.0, 0.3, -0.7],
        rates=[[0.0, 0.6, 0.3], [0.2, 0.0, 0.8], [0.5, 0.4, 0.0]],
        initial_dist=[0.5, 0.3, 0.2],
    )

    @staticmethod
    def grid(dy):
        dy = np.asarray(dy, dtype=float)
        return ObservationGrid(dt=1e-3, beta=0.5, dy=dy, dw=np.zeros_like(dy),
                               x_level=np.ones_like(dy))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_nonfinite_increment_raises(self, scheme, bad):
        # wonham-ito used to return probs [nan, nan] with zero clamps here
        model = TELEGRAPH if scheme.startswith("telegraph") else self.THREE
        dy = np.full(50, 0.01)
        dy[20] = bad
        with pytest.raises(ValueError, match="finite"):
            run_trajectory(model, self.grid(dy), scheme)

    def test_presum_guard_enforced(self):
        # a 1e12 increment leaves the pre-renormalization sum off by ~1e-4
        with pytest.raises(FilterInstabilityError, match="pre-renormalization sum"):
            run_trajectory(self.THREE, self.grid([0.01, 1e12]), "wonham-ito")

    @pytest.mark.parametrize("keep_history", [True, False])
    def test_presum_guard_covers_every_step_of_a_batch(self, keep_history):
        # only step 50 of replica 7 leaves the simplex (pre-sum off by ~2e-4);
        # without a history the guard used to see the final state alone
        kernel = WonhamIto(TELEGRAPH, 1e-3, 0.5)
        start = kernel.start(np.tile(TELEGRAPH.initial_dist, (2000, 1)))
        dy = np.full((60, 2000), 0.01)
        dy[50, 7] = 1e12
        with pytest.raises(FilterInstabilityError, match="pre-renormalization sum"):
            drive(kernel, start, dy, keep_history=keep_history)

    @pytest.mark.parametrize("scheme", ["zakai-ito", "log", "wonham-langevin"])
    def test_overflowing_state_raises(self, scheme):
        # a finite but huge increment overflows the step; drive checks the history
        with pytest.raises(FilterInstabilityError, match="became non-finite"):
            run_trajectory(self.THREE, self.grid([0.01, 1e308]), scheme)

    @pytest.mark.parametrize("scheme", list(KERNELS))
    def test_overflow_raises_typed_error_without_numpy_warnings(self, scheme):
        # numpy used to print RuntimeWarnings before drive raised its own error
        error = {"gamma": GammaRangeError}
        kernel = KERNELS[scheme](TELEGRAPH, 1e-3, 0.5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(error.get(scheme, FilterInstabilityError)):
                drive(kernel, kernel.start(), np.array([0.01, 1e308]))
            if scheme == "telegraph-ito":
                # the Euler step's q overflows and is clamped to 1: a finite state
                assert step_once(kernel, kernel.start(), 1e308) == (1.0, 1)
            else:
                with pytest.raises(error.get(scheme, FilterInstabilityError)):
                    step_once(kernel, kernel.start(), 1e308)
        assert [str(w.message) for w in caught] == []

    @staticmethod
    def step_from_start(step, dy):
        """The public step function ``step`` over one increment ``dy``, from
        its initial state on the three-state (telegraph: two-state) model."""
        model, beta, dt = TestDriverErrorPolicy.THREE, 0.5, 1e-3
        weights = init_unnormalized(model)
        probs = FilterState(probs=model.initial_dist)
        if step in (telegraph_ito_step, telegraph_langevin_step):
            return step(TelegraphState(q=0.0), 1.0, beta, dt, dy)
        if step in (zakai_ito_step, zakai_langevin_step, wonham_step, wonham_langevin_step):
            return step(weights if step.__name__.startswith("zakai") else probs,
                        model, beta, dt, dy)
        if step is log_step:
            return step(LogState(theta=np.log(weights.psi)), model, beta, dt, dy)
        if step is gamma_langevin_step:
            return step(to_gamma(weights, drift_matrix(model, beta)), model, beta, dt, dy)
        return step(DiscreteBayesState(probs=model.initial_dist), model, dt, dy, beta)

    @pytest.mark.parametrize("step", [
        zakai_ito_step, zakai_langevin_step, log_step, gamma_langevin_step, wonham_step,
        wonham_langevin_step, bayes_forward_step, telegraph_ito_step, telegraph_langevin_step,
    ], ids=lambda step: step.__name__)
    def test_public_step_fails_as_a_run_does(self, step):
        # zakai_ito_step, zakai_langevin_step, log_step, wonham_langevin_step,
        # bayes_forward_step and telegraph_langevin_step used to raise
        # ValueError, the invalid-input type, from their state's construction
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if step is telegraph_ito_step:
                # the Euler step's q overflows and is clamped to 1: a finite state
                state = self.step_from_start(step, 1e308)
                assert (state.q, state.clamps) == (1.0, 1)
            else:
                # GammaRangeError is one; telegraph-langevin's Heun step forms inf - inf
                with pytest.raises(FilterInstabilityError):
                    self.step_from_start(step, 1e308)
        assert [str(w.message) for w in caught] == []

    def test_history_off_the_simplex_raises(self):
        class Inflating(Kernel):
            scheme = "inflating"

            def step(self, state, dy):
                return state * 1.5, 0

        with pytest.raises(FilterInstabilityError, match="left the simplex"):
            drive(Inflating(None, 1e-3, 0.5), np.array([0.5, 0.5]), np.zeros(3))

    def test_telegraph_q_clamped_at_minus_one(self):
        # one strongly negative increment drives q below -1; a single clamp
        # over 2000 steps stays within the budget
        run = run_trajectory(TELEGRAPH, self.grid([-5.0] + [0.0] * 1999), "telegraph-ito")
        assert run.clamps == 1
        assert run.extras["q"][1] == -1.0
        assert TelegraphIto(TELEGRAPH, 1e-3, 0.5).step(0.0, -5.0) == (-1.0, 1)

    def test_clamp_budget_applies_to_every_clamping_scheme(self):
        for scheme in ("zakai-ito", "wonham-ito", "wonham-langevin"):
            with pytest.raises(FilterInstabilityError, match="budget"):
                run_trajectory(self.THREE, self.grid([0.01, 1e3, 0.01]), scheme)

    def test_invalid_options_rejected(self):
        grid = self.grid([0.01])
        with pytest.raises(ValueError, match="correction_sign"):
            run_trajectory(self.THREE, grid, "log", correction_sign=0)
        with pytest.raises(ValueError, match="sign_variant"):
            run_trajectory(self.THREE, grid, "wonham-ito", sign_variant="typo")

    @pytest.mark.parametrize("scheme", ["telegraph-ito", "telegraph-langevin"])
    @pytest.mark.parametrize(
        "model",
        [
            THREE,
            ChainModel(levels=[1.0, -1.0], rates=[[0.0, 1.0], [3.0, 0.0]],
                       initial_dist=[0.5, 0.5]),
            ChainModel(levels=[1.0, 0.0], rates=[[0.0, 1.0], [1.0, 0.0]],
                       initial_dist=[0.5, 0.5]),
        ],
        ids=["three-state", "asymmetric-rates", "levels-1-0"],
    )
    def test_telegraph_scheme_rejects_other_models(self, scheme, model):
        # the scalar telegraph filter would return a wrong two-column posterior here
        with pytest.raises(ValueError, match="telegraph schemes require"):
            run_trajectory(model, self.grid([0.01] * 5), scheme)


@pytest.mark.parametrize("scheme", list(KERNELS))
def test_run_without_history_ends_on_the_last_kept_row(scheme):
    # every part of a run without a kept history: the final row, its extras
    # (log_weights, theta, q), the clamps and the pre-sum statistics
    model = TELEGRAPH if scheme.startswith("telegraph") else TestDriverErrorPolicy.THREE
    kernel = KERNELS[scheme](model, 1e-3, 0.5)
    initial = None
    if kernel.initial_state[0] == "UnnormalizedState":
        # a start with a log scale of its own, which the log normalizer carries
        initial = UnnormalizedState(psi=[0.6, 0.3, 0.1][:model.n_states], log_normalizer=1.5)
    dy = 3e-4 + 0.5 * np.sqrt(1e-3) * np.random.default_rng(4).standard_normal(400)
    full = drive(kernel, kernel.start(initial), dy)
    last = drive(kernel, kernel.start(initial), dy, keep_history=False)
    assert np.array_equal(last.probs, full.probs[-1:])
    assert last.extras.keys() == full.extras.keys()
    for name, rows in full.extras.items():
        assert np.array_equal(last.extras[name], rows[-1:]), name
    assert (last.clamps, last.presum_max_dev, last.presum_total_dev) == (
        full.clamps, full.presum_max_dev, full.presum_total_dev)


class TestInitialState:
    """``run_trajectory(initial=...)`` starts every scheme from the state it is given."""

    PROBS = np.array([0.8, 0.2])
    # the state type each scheme starts from; the other type is refused
    TAKES_WEIGHTS = {"zakai-ito", "zakai-langevin", "log", "gamma"}
    GRID = TestDriverErrorPolicy.grid([0.01] * 20)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_row_zero_follows_the_given_state(self, scheme):
        if scheme in self.TAKES_WEIGHTS:
            given = UnnormalizedState(psi=3.0 * self.PROBS, log_normalizer=1.5)
        else:
            given = FilterState(probs=self.PROBS)
        run = run_trajectory(TELEGRAPH, self.GRID, scheme, initial=given)
        assert np.abs(run.probs[0] - self.PROBS).max() <= 1e-15
        if "log_weights" in run.extras:
            expected = 1.5 + np.log(3.0 * self.PROBS)
            assert np.abs(run.extras["log_weights"][0] - expected).max() <= 1e-15

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_other_state_type_raises(self, scheme):
        if scheme in self.TAKES_WEIGHTS:
            wrong, wanted = FilterState(probs=self.PROBS), "UnnormalizedState"
        else:
            wrong, wanted = UnnormalizedState(psi=self.PROBS), "FilterState"
        with pytest.raises(ValueError, match=f"{scheme} starts from a {wanted}"):
            run_trajectory(TELEGRAPH, self.GRID, scheme, initial=wrong)
