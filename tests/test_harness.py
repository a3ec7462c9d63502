import json
import subprocess
import sys

import numpy as np
import pytest

from jumpfilter import ChainModel, telegraph_model
from jumpfilter.cli import main
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
)
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
        config = telegraph_config(scheme="zakai-langevin", correction_sign=1, replicas=3)
        back = ExperimentConfig.from_json(json.dumps(config.to_json()))
        assert back.to_json() == config.to_json()

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="scheme"):
            telegraph_config(scheme="kalman").validate()

    def test_step_must_divide_horizon(self):
        with pytest.raises(ValueError, match="divide"):
            telegraph_config(dt=0.3).validate()

    def test_replicas_floor(self):
        with pytest.raises(ValueError, match="replicas"):
            telegraph_config(replicas=0).validate()

    def test_telegraph_scheme_needs_telegraph_model(self):
        three = ChainModel(
            levels=[1.0, 0.0, -1.0],
            rates=[[0, 1, 0], [0, 0, 1], [1, 0, 0]],
            initial_dist=[1.0, 0.0, 0.0],
        )
        config = ExperimentConfig(model=three, horizon=1.0, dt=1e-3, beta=0.5,
                                  scheme="telegraph-ito")
        with pytest.raises(ValueError, match="telegraph"):
            config.validate()

    def test_invalid_model_rejected(self):
        bad = ChainModel(levels=[1.0, -1.0], rates=[[0, -1], [1, 0]], initial_dist=[0.5, 0.5])
        with pytest.raises(ValueError, match="invalid model"):
            ExperimentConfig(model=bad, horizon=1.0, dt=1e-3, beta=0.5).validate()


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


class TestAdjudicate:
    def test_telegraph_verdicts(self, tmp_path):
        config = telegraph_config(horizon=2.0, out_dir=str(tmp_path))
        report = run_adjudicate(config)
        assert report["correction_sign"]["verdict"] == -1
        assert report["drift_variant"]["verdict"] == "innovation"
        assert report["correction_sign"]["plateau_ratio"] >= 10.0
        assert report["drift_variant"]["plateau_ratio"] >= 10.0
        assert (tmp_path / "adjudication.json").exists()

    def test_equal_levels_indistinguishable(self):
        model = ChainModel(levels=[0.0, 0.0], rates=TELEGRAPH.rates, initial_dist=[0.6, 0.4])
        config = ExperimentConfig(model=model, horizon=0.5, dt=1e-3, beta=0.5, master_seed=1)
        report = run_adjudicate(config, write=False)
        assert report["correction_sign"]["verdict"] == "indistinguishable"
        assert report["drift_variant"]["verdict"] == "indistinguishable"


class TestPredict:
    def test_zero_horizon_reproduces_terminal_row(self, tmp_path):
        config = telegraph_config(scheme="wonham-ito", out_dir=str(tmp_path))
        trajectory, _ = run_filter(config, write=False)
        rows = run_predict(config, [0.0, 0.5], terminal=trajectory.probs[-1], write=True)
        assert np.array_equal(rows[0]["probs"], trajectory.probs[-1])
        assert (tmp_path / "prediction.csv").read_text().splitlines()[0] == "h,p_1,p_2"

    def test_far_horizon_is_stationary(self):
        config = telegraph_config()
        rows = run_predict(config, [100.0], terminal=np.array([0.9, 0.1]), write=False)
        assert np.abs(rows[0]["probs"] - 0.5).max() <= 1e-8

    def test_composition_consistency(self):
        from jumpfilter import transition_matrix

        config = telegraph_config()
        terminal = np.array([0.7, 0.3])
        direct = run_predict(config, [2.0], terminal=terminal, write=False)[0]["probs"]
        composed = (terminal @ transition_matrix(TELEGRAPH, 0.8)) @ transition_matrix(
            TELEGRAPH, 1.2
        )
        assert np.abs(direct - composed).max() <= 1e-9


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

    def test_validate_bad_model_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"levels": [1, -1], "rates": [[0, -2], [1, 0]], "initial": [0.5, 0.5]}')
        assert main(["validate", "--model", str(bad)]) == 2
        assert "negative rate" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["filter", "--config", str(tmp_path / "nope.json")]) == 2

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
        with pytest.raises(ValueError, match="pre-renormalization sum"):
            run_trajectory(self.THREE, self.grid([0.01, 1e12]), "wonham-ito")

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
