"""Golden outputs and driver/wrapper equivalence.

The digests below are the sha256 of every file the CLI writes for fixed
configs (T=0.2, dt=1e-3, beta=0.7, master seed 0), as written by the
original per-scheme implementation of every filter. Any change to the
arithmetic, its operation order, or the CSV/JSON emission changes a digest.
The property tests check that the driver and the public R=1 step functions
run the same arithmetic, bit for bit, and that a batched (R, K) run
reproduces R separate runs.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpfilter import (
    ChainModel,
    DiscreteBayesState,
    FilterState,
    GammaRangeError,
    LogState,
    TelegraphState,
    bayes_forward_step,
    drift_matrix,
    gamma_langevin_step,
    init_unnormalized,
    log_step,
    telegraph_ito_step,
    telegraph_langevin_step,
    telegraph_model,
    to_gamma,
    wonham_langevin_step,
    wonham_step,
    zakai_ito_step,
    zakai_langevin_step,
)
from jumpfilter.cli import main
from jumpfilter.harness import SCHEMES, ExperimentConfig, run_trajectory
from jumpfilter.kernels import (
    CLAMP_FAILURE_FRACTION,
    FilterInstabilityError,
    WonhamIto,
    drive,
)
from jumpfilter.signalpath import ObservationGrid

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
        "3f1263f433b27dc69fd746fea6a4d447e1e81a19084ecc9066378bf149cd93dd",
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
        "fbeb0a57bb1a2751e23630b83f965679350723002c25989b76f12baddbe86e36",
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
    return {
        str(path.relative_to(tmp_path)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*"))
        if path.is_file() and path.parent != tmp_path
    }


def test_cli_outputs_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert produce_outputs(tmp_path) == GOLDEN


# ---------------------------------------------------------------------------
# driver versus the public R=1 step functions


def random_case(k: int, seed: int, n_steps: int = 40, replicas: int = 1):
    """Random irreducible model with K=k, a step inside the README's
    sensible-step rule, and increments dy = a dt + beta dw (one column per
    replica)."""
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.1, 2.0, size=(k, k))
    np.fill_diagonal(rates, 0.0)
    initial = rng.uniform(0.1, 1.0, size=k)
    model = ChainModel(levels=rng.uniform(-1.5, 1.5, size=k), rates=rates,
                       initial_dist=initial / initial.sum())
    beta = float(rng.uniform(0.3, 1.0))
    a_max = max(float(np.abs(model.levels).max()), 1e-3)
    dt = 0.1 * min(beta**2 / a_max**2, 1.0 / float(model.exit_rates.max(initial=1e-3)))
    dy = model.levels[0] * dt + beta * np.sqrt(dt) * rng.standard_normal((n_steps, replicas))
    return model, beta, dt, dy


EXTRA = {"zakai-ito": "log_weights", "zakai-langevin": "log_weights", "log": "theta",
         "telegraph-ito": "q", "telegraph-langevin": "q"}


def grid_of(dy, dt, beta):
    return ObservationGrid(dt=dt, beta=beta, dy=dy, dw=np.zeros_like(dy),
                           x_level=np.zeros_like(dy))


def stepped_by_wrappers(scheme, model, beta, dt, dy, correction_sign, sign_variant):
    """Probability rows, the scheme's extra rows and the clamp count from the
    public steps."""
    rows, extra = [], []
    if scheme in ("zakai-ito", "zakai-langevin"):
        state = init_unnormalized(model)
        for r in range(len(dy) + 1):
            if r:
                state = (zakai_ito_step(state, model, beta, dt, dy[r - 1])
                         if scheme == "zakai-ito" else
                         zakai_langevin_step(state, model, beta, dt, dy[r - 1], correction_sign))
            rows.append(state.psi / state.psi.sum())
            extra.append(state.log_repr)
    elif scheme in ("wonham-ito", "wonham-langevin"):
        state = FilterState(probs=model.initial_dist)
        for r in range(len(dy) + 1):
            if r:
                state = (wonham_step(state, model, beta, dt, dy[r - 1], sign_variant)
                         if scheme == "wonham-ito" else
                         wonham_langevin_step(state, model, beta, dt, dy[r - 1], correction_sign))
            rows.append(state.probs)
    elif scheme == "log":
        psi = init_unnormalized(model).psi
        state = LogState(theta=np.log(psi) - np.log(psi).max())
        for r in range(len(dy) + 1):
            if r:
                state = log_step(state, model, beta, dt, dy[r - 1], correction_sign)
            shifted = np.exp(state.theta - state.theta.max())
            rows.append(shifted / shifted.sum())
            extra.append(state.theta)
    elif scheme == "gamma":
        a_matrix = drift_matrix(model, beta, correction_sign)
        state = to_gamma(init_unnormalized(model), a_matrix, t=0.0)
        for r in range(len(dy) + 1):
            if r:
                state = gamma_langevin_step(state, model, beta, dt, dy[r - 1])
            psi = state.forward @ state.gamma
            rows.append(psi / psi.sum())
    elif scheme == "bayes-oracle":
        state = DiscreteBayesState(probs=model.initial_dist)
        for r in range(len(dy) + 1):
            if r:
                state = bayes_forward_step(state, model, dt, dy[r - 1], beta)
            rows.append(state.probs)
    else:
        step = telegraph_ito_step if scheme == "telegraph-ito" else telegraph_langevin_step
        nu = float(model.rates[0, 1])
        state = TelegraphState(q=float(model.initial_dist[0] - model.initial_dist[1]))
        for r in range(len(dy) + 1):
            if r:
                state = step(state, nu, beta, dt, dy[r - 1])
            rows.append([(1.0 + state.q) / 2.0, (1.0 - state.q) / 2.0])
            extra.append(state.q)
    return np.array(rows), np.array(extra), getattr(state, "clamps", 0)


def check_against_wrappers(scheme, model, beta, dt, dy, correction_sign=-1,
                           sign_variant="innovation"):
    grid = grid_of(dy, dt, beta)
    try:
        expected, extra, clamps = stepped_by_wrappers(scheme, model, beta, dt, dy,
                                                      correction_sign, sign_variant)
    except GammaRangeError:
        with pytest.raises(GammaRangeError):
            run_trajectory(model, grid, scheme, correction_sign, sign_variant)
        return
    if clamps > CLAMP_FAILURE_FRACTION * len(dy):
        with pytest.raises(FilterInstabilityError):
            run_trajectory(model, grid, scheme, correction_sign, sign_variant)
        return
    run = run_trajectory(model, grid, scheme, correction_sign, sign_variant)
    assert run.clamps == clamps
    assert np.array_equal(run.probs, expected)
    if scheme in EXTRA:
        assert np.array_equal(run.extras[EXTRA[scheme]], extra)


PROPERTY = settings(max_examples=25, deadline=None)


@PROPERTY
@given(k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       scheme=st.sampled_from([s for s in SCHEMES if not s.startswith("telegraph")]),
       correction_sign=st.sampled_from([-1, 1]),
       sign_variant=st.sampled_from(["innovation", "paper"]))
def test_driver_equals_public_steps_bitwise(k, seed, scheme, correction_sign, sign_variant):
    model, beta, dt, dy = random_case(k, seed)
    check_against_wrappers(scheme, model, beta, dt, dy[:, 0], correction_sign, sign_variant)


@PROPERTY
@given(nu=st.floats(0.05, 3.0), seed=st.integers(0, 2**32 - 1),
       scheme=st.sampled_from(["telegraph-ito", "telegraph-langevin"]))
def test_telegraph_driver_equals_public_steps_bitwise(nu, seed, scheme):
    rng = np.random.default_rng(seed)
    model = telegraph_model(nu, initial_dist=rng.dirichlet([1.0, 1.0]))
    beta = float(rng.uniform(0.3, 1.0))
    dt = 0.1 * min(beta**2, 1.0 / nu)
    dy = dt + beta * np.sqrt(dt) * rng.standard_normal(40)
    check_against_wrappers(scheme, model, beta, dt, dy)


@PROPERTY
@given(k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), replicas=st.integers(2, 6),
       sign_variant=st.sampled_from(["innovation", "paper"]))
def test_batched_wonham_rows_equal_separate_runs(k, seed, replicas, sign_variant):
    model, beta, dt, dy = random_case(k, seed, replicas=replicas)
    kernel = WonhamIto(model, dt, beta, sign_variant=sign_variant)
    start = kernel.start(np.tile(model.initial_dist, (replicas, 1)))
    try:
        singles = [run_trajectory(model, grid_of(dy[:, r], dt, beta), "wonham-ito",
                                  sign_variant=sign_variant) for r in range(replicas)]
    except FilterInstabilityError:
        # 40 steps x at most 6 replicas: a single clamp exceeds either budget
        with pytest.raises(FilterInstabilityError):
            drive(kernel, start, dy[:, :, None])
        return
    batch = drive(kernel, start, dy[:, :, None])
    assert batch.probs.shape == (len(dy) + 1, replicas, k)
    for r, single in enumerate(singles):
        assert np.abs(batch.probs[:, r, :] - single.probs).max() <= 1e-15
