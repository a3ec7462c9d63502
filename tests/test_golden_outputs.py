"""Golden outputs: every file the CLI writes, pinned by its digest.

The digests below are the sha256 of every file the CLI writes for fixed
configs (T=0.2, dt=1e-3, beta=0.7, master seed 0), as written by the
original per-scheme implementation of every filter, except those of
``filter/gamma/trajectory.csv`` and ``study/convergence.csv`` (whose gamma
ladder it holds), re-recorded when the Gamma kernel was re-based at every
step and again when its propagators exp(+-A dt) moved from scipy's ``expm``
to the package's own Pade [13/13] ``kernels.expm`` (gamma probabilities
moved by at most 3.9e-15). Any change to the arithmetic, its operation
order, or the CSV/JSON emission changes a digest.
"""

import hashlib
import json

from jumpfilter import ChainModel, telegraph_model
from jumpfilter.cli import main
from jumpfilter.harness import SCHEMES, ExperimentConfig

TELEGRAPH = telegraph_model(1.0)
# Levels other than 0 and +-1 and a beta whose square is not a power of two,
# so that reordering a product or a division changes the rounded result.
THREE_STATE = ChainModel(
    levels=[0.9, 0.25, -0.6],
    rates=[[0.0, 0.6, 0.3], [0.2, 0.0, 0.8], [0.5, 0.4, 0.0]],
    initial_dist=[0.5, 0.3, 0.2],
)
BETA = 0.7

GOLDEN = {
    "filter/bayes-oracle/run_report.json":
        "f9194f4cb42847591ffa06779e732475f8a1a95c54743d828d3da6aaf97ef8c7",
    "filter/bayes-oracle/trajectory.csv":
        "2b04accce99293bf3aee88c9e23ba22dc891d9e9b06f45153ac27b4027a0c1a3",
    "filter/gamma/run_report.json":
        "bcc323100744472d593a35488fb6aba2815a146ac311f9ef16a603ad5e786913",
    "filter/gamma/trajectory.csv":
        "59cf8ded9185976e1f06368fc80445ad869ca39846efea7c99796722c67dd003",
    "filter/log/run_report.json":
        "1dc4ec68982eee4aae84c3f74b75822abd71e681f21487c1d034f06432f71432",
    "filter/log/trajectory.csv":
        "4d312f1a16f561b1cff2ac50f9b8b0c1b126ec9649ab677d7753db65f74f4dcc",
    "filter/telegraph-ito/run_report.json":
        "057234b32d9d2b8753bd16fb7a1b223b632fa8bb0e5210f04e1c6b83abe7749e",
    "filter/telegraph-ito/trajectory.csv":
        "4b841410ba0daea6e2505cd1cbb05a7458b7492ca95187a791b9fd73a9048807",
    "filter/telegraph-langevin/run_report.json":
        "5ac0a90d399bb62b72e17a60d528dafa782e016ab07734e8a6f2f13aa66e2cb9",
    "filter/telegraph-langevin/trajectory.csv":
        "990be40e24b9425e6bb765d35b297eefa02af60fac2fe7410411ab25dd6e92bb",
    "filter/wonham-ito/run_report.json":
        "804376e889918e6728b70cf0676b912a0049fcaec7d0105656b3b4b2c27a7ed0",
    "filter/wonham-ito/trajectory.csv":
        "3111f85f9898931a86d86ff37bca235f1cabce70becedd8ad7f921e0d3098bce",
    "filter/wonham-langevin/run_report.json":
        "4833d98e7a969b769f04e6abff37fcf0499fc4ab67334c09de0737dbc50cd0f9",
    "filter/wonham-langevin/trajectory.csv":
        "60a60de7da041967a60acecc4c6492989ac0bdc631550ef4e9643fcc9fd71be9",
    "filter/zakai-ito/estimates.csv":
        "171067793d31641c6e064c6d78308e46764b6b218563140b3bde258cafb80485",
    "filter/zakai-ito/run_report.json":
        "d67f9744f9460659ad0e88edacaab55e78f3464196826796f938f3d2a4d25d31",
    "filter/zakai-ito/trajectory.csv":
        "912cf543e0e8f7ce446035308a1ad5b10ccf4997f0617f6e14e642cfce7f914d",
    "filter/zakai-langevin/estimates.csv":
        "68a6f62054a841d786eb29b4e9401c1830c2cceb453cd75ce14433c1c301f7db",
    "filter/zakai-langevin/run_report.json":
        "889a7cdba9df18f7cd31422322e51a4d070ab0a68a67cdd06aef4a0b6f17b120",
    "filter/zakai-langevin/trajectory.csv":
        "af11452f70c3882bd81573bc1811a5fe08749a82983a79f91d05f5e213da56f2",
    "predict/prediction.csv":
        "765d7ca188b6eb3d5f3d682a45960a5aa883bb726a8d8c00937c11dc4d484358",
    "simulate/observations.csv":
        "1c4e5f8eba911e356c9f02cfc6348c29734c17960adb2888158706be6ff43104",
    "simulate/path.csv":
        "869c994f033eeff3d7066c426ea124185ad07fbdf7e9b4aefe6683a7ad303b7d",
    "study/adjudication.json":
        "52f78a79bb12c88ae2d891871f628d0b4c5327f8a18af37ae30874256478204d",
    "study/convergence.csv":
        "8f2f7a5058f93adbd8600ffabe2f742dc4bdcfb294c5556c4760fdaa2e03ea37",
}


def _write_config(tmp_path, name, model, scheme="wonham-ito"):
    config = ExperimentConfig(model=model, horizon=0.2, dt=1e-3, beta=BETA, scheme=scheme,
                              master_seed=0, out_dir="unused")
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config.to_json()))
    return path.name


def produce_outputs(tmp_path) -> dict:
    """Run every CLI command of the golden set; digest each file written.

    Must run with ``tmp_path`` as the working directory: configs and output
    directories are relative, so the paths in run reports do not depend on
    ``tmp_path``.
    """
    for scheme in SCHEMES:
        model = TELEGRAPH if scheme.startswith("telegraph") or scheme == "gamma" else THREE_STATE
        config = _write_config(tmp_path, scheme, model, scheme)
        assert main(["filter", "--config", config, "--out", f"filter/{scheme}"]) == 0
    telegraph = _write_config(tmp_path, "telegraph", TELEGRAPH)
    assert main(["convergence", "--config", telegraph, "--halvings", "2",
                 "--out", "study"]) == 0
    assert main(["adjudicate", "--config", telegraph, "--out", "study"]) in (0, 3)
    three = _write_config(tmp_path, "three", THREE_STATE)
    assert main(["simulate", "--config", three, "--out", "simulate"]) == 0
    assert main(["predict", "--config", three, "--horizons", "0,0.5,2", "--out", "predict"]) == 0
    return digests(tmp_path)


def digests(tmp_path) -> dict:
    """sha256 of every file written below ``tmp_path``, by relative path."""
    return {
        str(path.relative_to(tmp_path)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file() and path.parent != tmp_path
    }


def test_cli_outputs_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert produce_outputs(tmp_path) == GOLDEN


# From K=4 on, BLAS may round a matrix product apart from a matrix-vector
# product, so the K=2 and K=3 digests above cannot see a stacked product that
# replaced a per-step one. These pin the same commands on a five-state model
# (T=0.2, dt=1e-3, beta=0.7, master seed 0), recorded before the step
# kernels moved their increment-only terms into one vectorized pass; the
# adjudication.json digest was recorded before convergence and adjudicate
# shared one ladder engine. The gamma trajectory and convergence.csv digests
# were re-recorded, as above, when the Gamma kernel was re-based and when its
# propagators moved to ``kernels.expm``.
FIVE_STATE = ChainModel(
    levels=[1.3, 0.55, -0.15, -0.8, 0.35],
    rates=[[0.0, 0.7, 0.2, 0.45, 0.1],
           [0.3, 0.0, 0.9, 0.15, 0.6],
           [0.25, 0.5, 0.0, 0.8, 0.35],
           [0.65, 0.1, 0.4, 0.0, 0.55],
           [0.2, 0.85, 0.3, 0.5, 0.0]],
    initial_dist=[0.3, 0.25, 0.2, 0.15, 0.1],
)

GOLDEN_K5 = {
    "filter/bayes-oracle/run_report.json":
        "f9194f4cb42847591ffa06779e732475f8a1a95c54743d828d3da6aaf97ef8c7",
    "filter/bayes-oracle/trajectory.csv":
        "942dacead12dd71a8930e728b24ab53082a74169d1798344536652dc9fb1e55a",
    "filter/gamma/run_report.json":
        "bcc323100744472d593a35488fb6aba2815a146ac311f9ef16a603ad5e786913",
    "filter/gamma/trajectory.csv":
        "108a8749da37f75b56a14f446878e1c1150d1f5e425ebf1a09b9de99a8b320b1",
    "filter/log/run_report.json":
        "1dc4ec68982eee4aae84c3f74b75822abd71e681f21487c1d034f06432f71432",
    "filter/log/trajectory.csv":
        "ad87630988ed9f26b15947b0e26511f58c26e4fcc6f272651625d18ce97481d7",
    "filter/wonham-ito/run_report.json":
        "ca3039a6c05df32ef6797a39efbe8e369530ffd137fe1592593c872d8e721a73",
    "filter/wonham-ito/trajectory.csv":
        "15c09504ad9db1edabda77bc57b8577725f62f5d757646527ab98ecbc5ab0907",
    "filter/wonham-langevin/run_report.json":
        "4833d98e7a969b769f04e6abff37fcf0499fc4ab67334c09de0737dbc50cd0f9",
    "filter/wonham-langevin/trajectory.csv":
        "abcb0e6f6e937788df47fedeced2485731d3c8dc91cc362d9b2388e14173e3ba",
    "filter/zakai-ito/estimates.csv":
        "84de12648a83db07925d0a20eed6181acd67f2da919b021bd9dd99b0dcbe20d4",
    "filter/zakai-ito/run_report.json":
        "d67f9744f9460659ad0e88edacaab55e78f3464196826796f938f3d2a4d25d31",
    "filter/zakai-ito/trajectory.csv":
        "e913a1a321f762716d0a0626494f8504707936a6dffeddf488cbba3be4053a28",
    "filter/zakai-langevin/estimates.csv":
        "fa3645e8385e850a42bf5b0734e54c06c7db331b7e9e16ce99895e653c093ec9",
    "filter/zakai-langevin/run_report.json":
        "889a7cdba9df18f7cd31422322e51a4d070ab0a68a67cdd06aef4a0b6f17b120",
    "filter/zakai-langevin/trajectory.csv":
        "aa3e23915b248949dda8f9b7774007a5f7577d0f323a09cd3b354be866c582e5",
    "study/adjudication.json":
        "ac90cf700e13aeb249010c8bdbc3223f9dc18e69232cf547fd792354d9d2e143",
    "study/convergence.csv":
        "9bbe05d18a973329f7a40a0499daae5148c80ec715c8bcd0c4e2e1a3b9c7fd3f",
}


def test_five_state_outputs_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for scheme in SCHEMES:
        if not scheme.startswith("telegraph"):
            config = _write_config(tmp_path, scheme, FIVE_STATE, scheme)
            assert main(["filter", "--config", config, "--out", f"filter/{scheme}"]) == 0
    five = _write_config(tmp_path, "five", FIVE_STATE)
    assert main(["convergence", "--config", five, "--halvings", "2", "--out", "study"]) == 0
    assert main(["adjudicate", "--config", five, "--out", "study"]) in (0, 3)
    assert digests(tmp_path) == GOLDEN_K5
