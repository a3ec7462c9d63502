"""Start-up cost: the package and its CLI load no scipy module until a
scipy-backed computation runs (the irreducibility check of
``stationary_distribution``, the Poisson tail of ``pathspace_expectation``).
No CLI command is one: the Gamma propagators use the package's own ``expm``.
No command loads ``multiprocessing`` or ``concurrent.futures``: neither the
package, nor the commands that run one trajectory, nor a fan-out over CPUs,
which forks its children itself (that of the refinement ladders of
``convergence`` and ``adjudicate``, or that of a tower check of at least
``2 * oracle.REPLICA_FLOOR`` replicas). Importing the package and its CLI
loads no ``numpy.random`` either (~10 ms): the first generator imports it.

Other tests import scipy into the pytest process, so the check runs in a
fresh interpreter.
"""

import inspect
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import jumpfilter
from jumpfilter import telegraph_model
from jumpfilter.harness import ExperimentConfig

LAZY_MODULES = ("scipy.sparse.csgraph", "scipy.stats")


def lazy_results(config_file):
    """Each scipy-backed computation once, as JSON-ready values."""
    from dataclasses import replace

    from jumpfilter import ChainModel, pathspace_expectation, stationary_distribution
    from jumpfilter.harness import ExperimentConfig, simulate_pair

    with open(config_file) as fh:
        config = ExperimentConfig.from_json(fh.read())
    three = ChainModel(
        levels=[1.0, 0.3, -0.7],
        rates=[[0.0, 0.6, 0.3], [0.2, 0.0, 0.8], [0.5, 0.4, 0.0]],
        initial_dist=[0.5, 0.3, 0.2],
    )
    _, grid = simulate_pair(replace(config, horizon=0.2))
    path = pathspace_expectation(config.model, grid, 0.2, 2, 8, max_truncation=2e-3)
    return {
        "stationary": stationary_distribution(three).tolist(),
        "pathspace": [path.probs.tolist(), path.unnormalized.tolist(), path.truncation_bound],
    }


CHILD = """
import contextlib, io, json, os, sys

import jumpfilter
import jumpfilter.cli
from jumpfilter import fanout


def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


def pool_modules():
    return sorted(name for name in sys.modules
                  if name.split(".")[0] == "multiprocessing" or name == "concurrent.futures")


after_import = scipy_modules()
pools_after_import = pool_modules()
random_after_import = sorted(name for name in sys.modules if name.startswith("numpy.random"))
config_file, gamma_file, out_dir = sys.argv[1:4]
common = ["--config", config_file, "--out", out_dir]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [jumpfilter.cli.main(argv) for argv in (
        ["validate", "--config", config_file],
        ["simulate", *common],
        ["filter", *common],
        ["predict", *common, "--horizons", "0,1"],
        ["filter", "--config", gamma_file, "--out", out_dir + "-gamma"],
    )]
    jumpfilter.tower_property_check(jumpfilter.telegraph_model(1.0), 0.2, 1e-2, 0.5, 300, 0)
    pools_after_single_runs = pool_modules()
    # the ladder's three grids fan out over two CPUs
    forks = []
    os.register_at_fork(after_in_parent=lambda: forks.append(1))
    fanout.usable_cpus = lambda: 2
    codes.append(jumpfilter.cli.main(["convergence", *common, "--halvings", "2"]))
pools_after_fan_out = pool_modules()
after_cli = scipy_modules()

{lazy_results}

results = lazy_results(config_file)
print(json.dumps({{"after_import": after_import, "codes": codes, "after_cli": after_cli,
                  "pools_after_import": pools_after_import,
                  "random_after_import": random_after_import,
                  "pools_after_single_runs": pools_after_single_runs,
                  "ladder_forks": len(forks), "pools_after_fan_out": pools_after_fan_out,
                  "results": results, "after_lazy": scipy_modules()}}))
"""


def test_cli_runs_without_scipy_and_lazy_paths_match(tmp_path):
    config = ExperimentConfig(model=telegraph_model(1.0), horizon=0.05, dt=1e-3, beta=0.5,
                              scheme="wonham-ito", master_seed=7)
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(config.to_json()))
    gamma_file = tmp_path / "gamma.json"
    gamma_file.write_text(json.dumps(replace(config, scheme="gamma").to_json()))
    out = tmp_path / "out"
    package_root = str(Path(jumpfilter.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    script = CHILD.format(lazy_results=inspect.getsource(lazy_results))

    proc = subprocess.run([sys.executable, "-c", script, str(config_file), str(gamma_file),
                           str(out)],
                          capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])

    assert report["after_import"] == []
    assert report["random_after_import"] == []
    assert report["codes"] == [0] * 6
    for written in ("trajectory.csv", "prediction.csv", "convergence.csv"):
        assert (out / written).exists()
    assert (tmp_path / "out-gamma" / "trajectory.csv").exists()
    assert report["after_cli"] == []
    # no command loads multiprocessing or concurrent.futures, a fan-out included
    assert report["pools_after_import"] == []
    assert report["pools_after_single_runs"] == []
    assert report["ladder_forks"] == 2
    assert report["pools_after_fan_out"] == []
    # the lazy paths ran cold in the child, and return what they return here
    assert set(LAZY_MODULES) <= set(report["after_lazy"])
    assert report["results"] == lazy_results(config_file)


FANNED_OUT_CHECK = """
import os, sys

from jumpfilter import fanout, oracle, telegraph_model

forks = []
os.register_at_fork(after_in_parent=lambda: forks.append(1))
fanout.usable_cpus = lambda: 2
oracle.REPLICA_FLOOR = 100
oracle.tower_property_check(telegraph_model(1.0), 0.2, 1e-2, 0.5, 200, 0)
pools = [name for name in sys.modules
         if name.split(".")[0] == "multiprocessing" or name == "concurrent.futures"]
print(json.dumps([len(forks), "numpy.random" in sys.modules, pools]))
"""


def test_fanned_out_tower_check_loads_numpy_random_in_the_caller(tmp_path):
    # the caller loads numpy.random before it forks, so the two children
    # inherit it instead of each importing it on its first stream
    package_root = str(Path(jumpfilter.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", "import json" + FANNED_OUT_CHECK],
                          capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    forks, random_loaded, pools = json.loads(proc.stdout.splitlines()[-1])
    assert forks == 2
    assert random_loaded
    assert pools == []
