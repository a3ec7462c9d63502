"""The CLI input contract, as a property: whatever a config document or the
command-line arguments hold, ``jumpfilter`` exits 0, 2 (``error:`` on
stderr) or 3 (``run failed:`` on stderr, or an adjudication report), with no
exception escaping and no warning raised.

Documents are the telegraph config at T=0.05 with a few mutations each:
values swapped for another type, null, bool, string, object, nested lists or
extreme magnitudes, and keys missing or added at both levels. The command-line
values come from short lists, so a grid that is accepted has at most 1e4
steps.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from jumpfilter.cli import main
from jumpfilter.harness import SCHEMES

BASE = {
    "model": {"levels": [1.0, -1.0], "rates": [[0.0, 1.0], [1.0, 0.0]], "initial": [0.5, 0.5]},
    "T": 0.05, "dt": 0.001, "beta": 0.5, "scheme": "wonham-ito", "correction_sign": -1,
    "sign_variant": "innovation", "master_seed": 0, "out_dir": "out",
}

# where a mutation may land: a key of the config, of the model, or a list entry
PATHS = [(key,) for key in BASE] + [("model", key) for key in BASE["model"]] + [
    ("model", "levels", 0), ("model", "rates", 0, 1), ("model", "rates", 1),
    ("model", "initial", 0),
]
ODD_VALUES = [
    None, True, False, "", "x", "0.5", {"a": 1}, [], [1.0], [[0.5]], [[[0.5, 0.5]]], 0, 1, -1,
    0.5, 1e300, -1e300, 1e-300, -1e-300, 10**400, math.nan, math.inf, -math.inf,
    "paper", *SCHEMES,
]
MUTATIONS = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(PATHS), st.sampled_from(ODD_VALUES)),
    st.tuples(st.just("delete"), st.sampled_from([p for p in PATHS if len(p) <= 2]), st.none()),
    st.tuples(st.just("add"), st.sampled_from([(), ("model",)]), st.sampled_from(ODD_VALUES)),
)
COMMANDS = ["validate", "simulate", "filter", "convergence", "adjudicate", "predict"]
SEEDS = [None, 1, -1, 2**64, 2**70]
STEPS = [None, 0.01, 0.005, 1.25e-4, 0.003, 0.0, -0.001, 1e-15, 1e300, math.nan, math.inf]
HALVINGS = [None, 2, 3, 1, -1, 60, 2000]
HORIZONS = [None, "0,1", "0.5", "nan", "inf", "-1", "1e308", "a", ","]
OUTS = [None, "out-arg", "config.json/below-a-file"]


def mutate(doc: dict, mutations) -> dict:
    """``doc`` after the mutations; one whose path no longer exists is skipped."""
    doc = json.loads(json.dumps(doc))
    for action, path, value in mutations:
        parent = doc
        with contextlib.suppress(KeyError, IndexError, TypeError):
            for step in path[:-1] if action != "add" else path:
                parent = parent[step]
            if action == "add" and isinstance(parent, dict):
                parent["extra"] = value
            elif action == "set" and isinstance(parent, (dict, list)):
                parent[path[-1]] = value
            elif action == "delete" and isinstance(parent, dict):
                del parent[path[-1]]
    return doc


def argv_of(command, config, seed, dt, halvings, horizons, out) -> list[str]:
    argv = [command, "--config", config]
    if command == "validate":
        return argv
    for flag, value in (("--seed", seed), ("--dt", dt), ("--out", out)):
        if value is not None:
            argv += [flag, str(value)]
    if command == "convergence" and halvings is not None:
        argv += ["--halvings", str(halvings)]
    if command == "predict" and horizons is not None:
        argv += ["--horizons", horizons]
    return argv


@contextlib.contextmanager
def in_directory(path):
    """Runs the block with ``path`` as the working directory (the CLI writes
    relative output paths there); ``contextlib.chdir`` needs Python 3.11."""
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


@settings(max_examples=120, deadline=None)
@given(mutations=st.lists(MUTATIONS, max_size=3), command=st.sampled_from(COMMANDS),
       seed=st.sampled_from(SEEDS), dt=st.sampled_from(STEPS),
       halvings=st.sampled_from(HALVINGS), horizons=st.sampled_from(HORIZONS),
       out=st.sampled_from(OUTS))
# a beta whose square overflows used to crash filter with OverflowError (exit 1)
@example(mutations=[("set", ("beta",), 1e300)], command="filter", seed=None, dt=None,
         halvings=None, horizons=None, out=None)
@example(mutations=[("set", ("beta",), 1e300)], command="validate", seed=None, dt=None,
         halvings=None, horizons=None, out=None)
# a beta whose square is 0 divided by zero (exit 1) or leaked a numpy warning
@example(mutations=[("set", ("beta",), 1e-200), ("set", ("scheme",), "wonham-langevin")],
         command="filter", seed=None, dt=None, halvings=None, horizons=None, out=None)
@example(mutations=[("set", ("beta",), 1e-200), ("set", ("scheme",), "telegraph-langevin")],
         command="filter", seed=None, dt=None, halvings=None, horizons=None, out=None)
@example(mutations=[("set", ("beta",), 1e-200), ("set", ("scheme",), "log")],
         command="filter", seed=None, dt=None, halvings=None, horizons=None, out=None)
@example(mutations=[("set", ("beta",), 1e-200), ("set", ("scheme",), "zakai-langevin")],
         command="filter", seed=None, dt=None, halvings=None, horizons=None, out=None)
# an object as a model value escaped as TypeError (exit 1)
@example(mutations=[("set", ("model", "initial"), {"a": 1})], command="validate", seed=None,
         dt=None, halvings=None, horizons=None, out=None)
@example(mutations=[("set", ("model", "initial"), {"a": 1})], command="filter", seed=None,
         dt=None, halvings=None, horizons=None, out=None)
# a grid of 5e13 steps asked numpy for 364 TiB (exit 1)
@example(mutations=[], command="filter", seed=None, dt=1e-15, halvings=None, horizons=None,
         out=None)
# 60 halvings were refused only by numpy's array-size limit
@example(mutations=[], command="convergence", seed=None, dt=None, halvings=60, horizons=None,
         out=None)
# holes this property found: an integer level beyond the float range
# escaped as OverflowError (exit 1), squaring a 1e300 level leaked numpy's
# overflow warning before the run failed, and a 1e308 prediction horizon
# recursed past Python's limit (RecursionError, exit 1)
@example(mutations=[("set", ("model", "levels"), 10**400)], command="validate", seed=None,
         dt=None, halvings=None, horizons=None, out=None)
@example(mutations=[("set", ("model", "levels", 0), 1e300)], command="adjudicate", seed=None,
         dt=None, halvings=None, horizons=None, out=None)
@example(mutations=[], command="predict", seed=None, dt=None, halvings=None, horizons="1e308",
         out=None)
def test_cli_exits_0_2_or_3_without_warnings(mutations, command, seed, dt, halvings, horizons,
                                             out):
    with tempfile.TemporaryDirectory() as tmp, in_directory(tmp):
        Path("config.json").write_text(json.dumps(mutate(BASE, mutations)))
        argv = argv_of(command, "config.json", seed, dt, halvings, horizons, out)
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main(argv)
    assert [str(w.message) for w in caught] == []
    assert code in (0, 2, 3)
    if code == 2:
        assert stderr.getvalue().startswith("error:")
    if code == 3:
        assert stderr.getvalue().startswith("run failed:") or (
            command == "adjudicate" and '"verdict": "inconclusive"' in stdout.getvalue()
        )
