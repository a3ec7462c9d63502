"""The package names that the benchmark binds.

``benchmark/tracing.py`` wraps package attributes by name and reads
``run_trajectory``'s arguments by name; ``benchmark/kernel_probe.py`` calls
every public R=1 step function and reads the states they return. Both files
are loaded here as they are, so a renamed or removed name fails these tests
rather than only the benchmark's own self-test.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from jumpfilter import harness, telegraph_model
from jumpfilter.harness import ExperimentConfig, simulate_pair

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARK / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load("tracing")
kernel_probe = load("kernel_probe")


def test_tracer_wraps_its_names_and_uninstall_restores_them():
    config = ExperimentConfig(model=telegraph_model(1.0), horizon=0.05, dt=1e-3, beta=0.5,
                              master_seed=3)
    _, grid = simulate_pair(config)
    recorder = tracing.Recorder()
    tracing.install(recorder)
    patched = list(recorder._patched)
    try:
        run = harness.run_trajectory(config.model, grid, "wonham-ito")
    finally:
        recorder.uninstall()
    assert [span.name for span in recorder.spans] == ["harness.run_trajectory"]
    assert recorder.spans[0].attrs["scheme"] == "wonham-ito"
    assert recorder.spans[0].attrs["n_steps"] == len(run.times) - 1 == 50
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"


@pytest.mark.parametrize("scheme",
                         kernel_probe.GENERAL_SCHEMES + kernel_probe.TELEGRAPH_SCHEMES)
def test_kernel_probe_steps_every_scheme(scheme):
    increments = (np.random.default_rng(1).standard_normal(20)
                  * kernel_probe.BETA * np.sqrt(kernel_probe.DT))
    _, failed = kernel_probe._probe_one(scheme, kernel_probe.random_model(2), increments)
    assert not failed
