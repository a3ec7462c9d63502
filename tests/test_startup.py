"""Start-up cost: no command loads ``multiprocessing`` or
``concurrent.futures``: neither the package, nor the commands that run one
trajectory, nor a fan-out over CPUs, which forks its children itself (that
of the refinement ladders of ``convergence`` and ``adjudicate``, or that of a
tower check of at least ``2 * oracle.REPLICA_FLOOR`` replicas). Importing the
package and its CLI loads no ``numpy.random`` either (~10 ms): the first
generator imports it.

Each command loads only the package modules it runs: ``import jumpfilter``
loads no runner module (``harness``, ``cli``), no step-wrapper module
(``zakai``, ``wonham``) and no ``oracle``; no command but ``predict`` loads
``zakai``, ``wonham`` or ``oracle``; no command but ``convergence`` and
``adjudicate``, whose ladders fan out, loads ``fanout``; a tower check loads
no ``harness``, ``cli``, ``zakai`` or ``wonham``; and no forked child imports
a package module that its parent did not hold. The package namespace serves
each public name from the module that defines it.

Other tests import every package module into the pytest process, so these
checks run in a fresh interpreter.
"""

import importlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import jumpfilter
from jumpfilter import harness, kernels, oracle, telegraph_model, wonham
from jumpfilter.harness import ExperimentConfig


def fresh_interpreter(script: str, *args, cwd):
    """The JSON value that ``script`` prints last, run with ``args`` in a
    new interpreter that imports this checkout's package."""
    package_root = str(Path(jumpfilter.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          capture_output=True, text=True, cwd=cwd, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


CHILD = """
import contextlib, io, json, os, sys

import jumpfilter
import jumpfilter.cli
from jumpfilter import fanout


def pool_modules():
    return sorted(name for name in sys.modules
                  if name.split(".")[0] == "multiprocessing" or name == "concurrent.futures")


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
print(json.dumps({"codes": codes, "pools_after_import": pools_after_import,
                  "random_after_import": random_after_import,
                  "pools_after_single_runs": pools_after_single_runs,
                  "ladder_forks": len(forks), "pools_after_fan_out": pools_after_fan_out}))
"""


def test_cli_loads_no_pool_or_numpy_random_until_used(tmp_path):
    config = ExperimentConfig(model=telegraph_model(1.0), horizon=0.05, dt=1e-3, beta=0.5,
                              scheme="wonham-ito", master_seed=7)
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(config.to_json()))
    gamma_file = tmp_path / "gamma.json"
    gamma_file.write_text(json.dumps(replace(config, scheme="gamma").to_json()))
    out = tmp_path / "out"
    report = fresh_interpreter(CHILD, config_file, gamma_file, out, cwd=tmp_path)

    assert report["random_after_import"] == []
    assert report["codes"] == [0] * 6
    for written in ("trajectory.csv", "prediction.csv", "convergence.csv"):
        assert (out / written).exists()
    assert (tmp_path / "out-gamma" / "trajectory.csv").exists()
    # no command loads multiprocessing or concurrent.futures, a fan-out included
    assert report["pools_after_import"] == []
    assert report["pools_after_single_runs"] == []
    assert report["ladder_forks"] == 2
    assert report["pools_after_fan_out"] == []


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
    forks, random_loaded, pools = fresh_interpreter("import json" + FANNED_OUT_CHECK,
                                                    cwd=tmp_path)
    assert forks == 2
    assert random_loaded
    assert pools == []


# Prepended to a fresh interpreter's script: the first argument names a file to
# which every forked child appends each package module it imports, as a meta
# path finder that only records the name and lets the regular finders load it.
MODULE_SPY = """
import json, os, sys


class ChildImports:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "jumpfilter":
            with open(sys.argv[1], "a") as fh:
                fh.write(name + "\\n")
        return None


forks = []
os.register_at_fork(after_in_parent=lambda: forks.append(1),
                    after_in_child=lambda: sys.meta_path.insert(0, ChildImports()))


def package_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "jumpfilter")


def child_imports():
    return open(sys.argv[1]).read().split() if os.path.exists(sys.argv[1]) else []
"""

COMMAND_MODULES = MODULE_SPY + """
import contextlib, io

import jumpfilter

loaded = {"import": package_modules()}

import jumpfilter.cli
from jumpfilter.harness import SCHEMES

config_file, out = sys.argv[2:4]
config = json.load(open(config_file))


def one_run():
    codes["validate"] = jumpfilter.cli.main(["validate", "--config", config_file])
    codes["simulate"] = jumpfilter.cli.main(["simulate", "--config", config_file, "--out", out])
    for scheme in SCHEMES:
        scheme_file = f"{out}-{scheme}.json"
        json.dump(dict(config, scheme=scheme), open(scheme_file, "w"))
        codes[scheme] = jumpfilter.cli.main(["filter", "--config", scheme_file,
                                             "--out", f"{out}-{scheme}"])


def ladders():
    from jumpfilter import fanout

    fanout.usable_cpus = lambda: 2  # the ladders of convergence and adjudicate fork
    for command in ("convergence", "adjudicate"):
        codes[command] = jumpfilter.cli.main([command, "--config", config_file, "--out", out])


def predict():
    codes["predict"] = jumpfilter.cli.main(["predict", "--config", config_file, "--out", out,
                                            "--horizons", "0,1"])


# the command groups named by the remaining arguments run in that order, and
# the package modules loaded after each are recorded under its name
codes = {}
with contextlib.redirect_stdout(io.StringIO()):
    for group in sys.argv[4:]:
        globals()[group]()
        loaded[group] = package_modules()
print(json.dumps({"codes": codes, "loaded": loaded, "forks": len(forks),
                  "child_imports": child_imports()}))
"""

TOWER_MODULES = MODULE_SPY + """
from jumpfilter import fanout, oracle, telegraph_model

fanout.usable_cpus = lambda: 2
oracle.tower_property_check(telegraph_model(1.0), 0.2, 1e-2, 0.5, 300, 0)
in_process = {"forks": len(forks), "loaded": package_modules()}
oracle.REPLICA_FLOOR = 100
oracle.tower_property_check(telegraph_model(1.0), 0.2, 1e-2, 0.5, 200, 0)
fanned_out = {"forks": len(forks), "loaded": package_modules()}
print(json.dumps({"in_process": in_process, "fanned_out": fanned_out,
                  "child_imports": child_imports()}))
"""

RUNNERS = {"jumpfilter.harness", "jumpfilter.cli"}
FANOUT = "jumpfilter.fanout"
STEP_WRAPPERS = {"jumpfilter.zakai", "jumpfilter.wonham"}


def test_commands_load_only_the_modules_they_run(tmp_path):
    config = ExperimentConfig(model=telegraph_model(1.0), horizon=0.05, dt=1e-3, beta=0.5,
                              scheme="wonham-ito", master_seed=7)
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(config.to_json()))
    report = fresh_interpreter(COMMAND_MODULES, tmp_path / "child-imports", config_file,
                               tmp_path / "out", "one_run", "ladders", "predict", cwd=tmp_path)
    loaded = report["loaded"]

    assert not set(loaded["import"]) & (RUNNERS | STEP_WRAPPERS | {"jumpfilter.oracle"})
    # adjudicate exits 3 when a verdict is inconclusive
    assert report["codes"].pop("adjudicate") in (0, 3)
    assert set(report["codes"].values()) == {0}
    # only the ladders load the fan-out
    assert not set(loaded["one_run"]) & (STEP_WRAPPERS | {"jumpfilter.oracle", FANOUT})
    assert not set(loaded["ladders"]) & (STEP_WRAPPERS | {"jumpfilter.oracle"})
    assert FANOUT in loaded["ladders"]
    assert (tmp_path / "out" / "prediction.csv").exists()
    assert "jumpfilter.wonham" in loaded["predict"]
    # convergence and adjudicate each forked two ladder children
    assert report["forks"] == 4
    assert report["child_imports"] == []
    # predict alone loads no fan-out either
    alone = fresh_interpreter(COMMAND_MODULES, tmp_path / "child-imports", config_file,
                              tmp_path / "alone", "predict", cwd=tmp_path)
    assert alone["codes"] == {"predict": 0}
    assert FANOUT not in alone["loaded"]["predict"]


def test_tower_check_loads_no_runner_or_step_wrapper_module(tmp_path):
    report = fresh_interpreter(TOWER_MODULES, tmp_path / "child-imports", cwd=tmp_path)

    assert report["in_process"]["forks"] == 0
    assert report["fanned_out"]["forks"] == 2
    for run in ("in_process", "fanned_out"):
        assert not set(report[run]["loaded"]) & (RUNNERS | STEP_WRAPPERS)
    assert report["child_imports"] == []


# The public names of the package namespace, by the module that defines each.
PUBLIC_NAMES = {
    "chain": ("ChainModel", "JumpPath", "ReducibleChainError", "model_from_json",
              "model_to_json", "simulate_jump_path", "stationary_distribution",
              "telegraph_model", "transition_matrix"),
    "signalpath": ("ObservationGrid", "coarsen", "synthesize_observations",
                   "write_observations_csv"),
    "wonham": ("FilterState", "TelegraphState", "map_decision", "mean_estimate", "predict",
               "telegraph_ito_step", "telegraph_langevin_step", "wonham_langevin_step",
               "wonham_step"),
    "zakai": ("FilterInstabilityError", "GammaRangeError", "GammaState", "LogState",
              "UnnormalizedState", "drift_matrix", "from_gamma", "gamma_langevin_step",
              "init_unnormalized", "log_step", "to_gamma", "zakai_ito_step",
              "zakai_langevin_step"),
    "oracle": ("DiscreteBayesState", "PathspaceResult", "TowerReport", "bayes_forward_step",
               "pathspace_expectation", "tower_property_check"),
    "harness": ("ExperimentConfig",),
}


@pytest.mark.parametrize("module", sorted(PUBLIC_NAMES))
def test_package_namespace_serves_each_public_name(module):
    defining = importlib.import_module(f"jumpfilter.{module}")
    for name in PUBLIC_NAMES[module]:
        assert getattr(jumpfilter, name) is getattr(defining, name), name
        assert name in dir(jumpfilter)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from jumpfilter import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == {name for names in PUBLIC_NAMES.values() for name in names}
    assert len(jumpfilter.__all__) == len(set(jumpfilter.__all__))


def test_unknown_attribute_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        jumpfilter.no_such_name
    with pytest.raises(AttributeError, match="'no_such_name'"):
        harness.no_such_name


def test_harness_binds_the_tracer_names_to_the_defining_objects():
    # benchmark/tracing.py wraps these as attributes of harness
    assert harness.bayes_forward_step is oracle.bayes_forward_step
    for name in ("finish_simplex_step", "wonham_update_raw"):
        assert getattr(harness, name) is getattr(wonham, name) is getattr(kernels, name)
        assert getattr(oracle, name) is getattr(kernels, name)
