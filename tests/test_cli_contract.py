"""The CLI input contract, as a property: whatever a config document or the
command-line arguments hold, ``jumpfilter`` exits 0, 2 (``error:`` on
stderr) or 3 (``run failed:`` on stderr, or an adjudication report), with no
exception escaping and no warning raised.

Documents are the telegraph config at T=0.05 with a few mutations each:
values swapped for another type, null, bool, string, object, nested lists or
extreme magnitudes, and keys missing or added at both levels. The command-line
values come from short lists, so a grid that is accepted has at most 1e4
steps. The property samples pairs of mutations; a sweep runs ``filter`` for
every scheme paired with every extreme number on ``beta``, ``dt`` and a level;
a command that exits 2 writes nothing. One table (``ROWS``) states the
contract case by case: each document and command gives its one exit code,
message and warnings, and leaves nothing after exit 2 and no file after
exit 3. ``adjudicate`` exits 3 exactly when a verdict is inconclusive.
"""

import contextlib
import io
import json
import math
import os
import shlex
import tempfile
import warnings
from pathlib import Path

import pytest
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
# the extreme numbers of ODD_VALUES, and the keys the sweep places them on
EXTREMES = [0, 1e300, -1e300, 1e-300, -1e-300, 10**400, math.nan, math.inf, -math.inf]
EXTREME_PATHS = [("beta",), ("dt",), ("model", "levels", 0)]


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


def run_cli(text: str, argv: list[str]) -> tuple[int, str, str, list[str], list[str]]:
    """Runs ``main(argv)`` in a fresh directory holding ``text`` as config.json;
    the exit code, stdout, stderr, the warnings raised and the paths left
    beside config.json (a directory's with a trailing '/')."""
    with tempfile.TemporaryDirectory() as tmp, in_directory(tmp):
        Path("config.json").write_text(text)
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main(argv)
        written = sorted(f"{path}/" if path.is_dir() else str(path)
                         for path in Path().rglob("*") if str(path) != "config.json")
    return code, stdout.getvalue(), stderr.getvalue(), [str(w.message) for w in caught], written


def contract_failure(doc: dict, argv: list[str]) -> str | None:
    """None when ``main(argv)`` on ``doc`` kept the contract, else what it did."""
    code, out, err, messages, written = run_cli(json.dumps(doc), argv)
    if messages:
        return f"exit {code} with warnings {messages}"
    if code not in (0, 2, 3):
        return f"exit {code}: {err}"
    if code == 2 and not err.startswith("error:"):
        return f"exit 2 without 'error:': {err}"
    if code == 2 and written:
        return f"exit 2 leaving {written}"
    if code == 3 and not (err.startswith("run failed:") or (
            argv[0] == "adjudicate" and '"verdict": "inconclusive"' in out)):
        return f"exit 3 without 'run failed:' or an inconclusive verdict: {err}"
    return None


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
# a 1e300 level makes A t infinite: the Gamma propagators must raise
# GammaRangeError (exit 3), not OverflowError from the scaling exponent
@example(mutations=[("set", ("model", "levels", 0), 1e300), ("set", ("scheme",), "gamma")],
         command="filter", seed=None, dt=None, halvings=None, horizons=None, out=None)
def test_cli_exits_0_2_or_3_without_warnings(mutations, command, seed, dt, halvings, horizons,
                                             out):
    argv = argv_of(command, "config.json", seed, dt, halvings, horizons, out)
    assert contract_failure(mutate(BASE, mutations), argv) is None


@pytest.mark.parametrize("path", EXTREME_PATHS, ids=lambda path: "-".join(map(str, path)))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_filter_keeps_the_contract_for_every_scheme_and_extreme_value(scheme, path):
    # with the other 26 (scheme, key) pairs, 243 runs of at most 50 steps;
    # 208 of them are refused before the first step
    broken = {}
    for value in EXTREMES:
        doc = mutate(BASE, [("set", ("scheme",), scheme), ("set", path, value)])
        failure = contract_failure(doc, ["filter", "--config", "config.json"])
        if failure is not None:
            broken[repr(value)] = failure
    assert broken == {}


def edited(*mutations) -> str:
    """The text of ``BASE`` after ``mutations`` (:func:`mutate`)."""
    return json.dumps(mutate(BASE, mutations))


BOTH = ["validate", "filter"]
FLOORED = ["floored"]  # the model's warning for a start with a zero probability
POINT_MASS = ("set", ("model", "initial"), [1.0, 0.0])
INTEGER_KEYS = ("correction_sign", "master_seed")
THREE = {"levels": [1.0, 0.0, -1.0], "rates": [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
         "initial": [1.0, 0.0, 0.0]}
# The exit-code contract, one row per case: config.json's text, the commands
# run on it (each given "--config config.json" unless it names a source),
# the exit code, the start of stderr and the warnings, each a substring of
# one warning's message.
ROWS = {
    # a beta whose square overflows crashed filter with OverflowError (exit 1)
    "huge-beta": (edited(("set", ("beta",), 1e300)), ["validate"], 2,
                  "error: beta=1e+300 is out of range", []),
    # 5e13 steps asked numpy for 364 TiB (exit 1), 60 halvings were refused
    # only by numpy's array-size limit, and 20 blamed dt, a key not given
    "tiny-dt": (edited(), ["filter --dt 1e-15"], 2,
                "error: dt=1e-15 gives 50000000000000 steps over horizon=0.05, above the budget",
                []),
    **{f"halvings-{n}": (edited(), [f"convergence --halvings {n}"], 2,
                         f"error: --halvings {n} refines dt=0.001 beyond the step budget", [])
       for n in (20, 60, 2000)},
    # an object, a list or a text as the model escaped as TypeError (exit 1)
    "object-initial": (edited(("set", ("model", "initial"), {"a": 1})), ["validate"], 2,
                       "error: model key 'initial' must be a number or nested lists", []),
    "config-model-list": (json.dumps({"model": [], "T": 1, "dt": 0.1, "beta": 1}),
                          ["validate"], 2, "error: a model must be a JSON object, not list", []),
    "config-model-text": (json.dumps({"model": "[1]", "T": 1, "dt": 0.1, "beta": 1}),
                          ["filter"], 2, "error: a model must be a JSON object, not list", []),
    "config-list": (json.dumps([1, 2]), ["validate", "filter --seed 5"], 2,
                    "error: a config must be a JSON object, not list", []),
    "model-list": (json.dumps([1, 2]), ["validate --model config.json"], 2,
                   "error: a model must be a JSON object, not list", []),
    "model-number": (json.dumps(3), ["validate --model config.json"], 2,
                     "error: a model must be a JSON object, not int", []),
    "nested": ("[" * 100_000, BOTH, 2, "error: a config is nested too deeply", []),
    "missing-config": (edited(), ["filter --config nope.json"], 2,
                       "error: [Errno 2] No such file or directory: 'nope.json'", []),
    # NotADirectoryError escaped (exit 1)
    "out-under-a-file": (edited(), ["filter --out config.json/x"], 2,
                         "error: [Errno 20] Not a directory", []),
    # "" wrote the outputs into the working directory, as Path("") is "."
    "empty-out-arg": (edited(), ["filter --out ''"], 2, "error: out_dir must not be empty", []),
    "empty-out-dir": (edited(("set", ("out_dir",), "")), ["filter"], 2,
                      "error: out_dir must not be empty", []),
    "out-dir-list": (edited(("set", ("out_dir",), [1])), BOTH, 2,
                     "error: out_dir must be a str or a path, not [1]", []),
    # a misspelled key would silently run its default
    "unknown-key": (edited(("set", ("replicas",), 50)), BOTH, 2,
                    "error: unknown config keys ['replicas']", []),
    "misspelled-scheme-key": (edited(("set", ("sheme",), "log"), ("delete", ("scheme",), None)),
                              BOTH, 2, "error: unknown config keys ['sheme']", []),
    "missing-key": (edited(("delete", ("beta",), None)), BOTH, 2,
                    "error: missing config keys ['beta']", []),
    "unknown-scheme": (edited(("set", ("scheme",), "kalman")), BOTH, 2,
                       "error: unknown scheme 'kalman'; choose from", []),
    # an unknown model key validated as "config ok", a missing one failed
    # with a bare KeyError: 'initial'
    "unknown-model-key": (edited(("set", ("model", "foo"), 1)), ["validate"], 2,
                          "error: unknown model keys ['foo']", []),
    "unknown-key-of-model": (json.dumps(dict(BASE["model"], foo=1)),
                             ["validate --model config.json"], 2,
                             "error: unknown model keys ['foo']", []),
    "missing-model-key": (edited(("delete", ("model", "initial"), None)), ["validate"], 2,
                          "error: missing model keys ['initial']", []),
    "missing-key-of-model": (json.dumps({"levels": [1, -1], "rates": [[0, 1], [1, 0]]}),
                             ["validate --model config.json"], 2,
                             "error: missing model keys ['initial']", []),
    "negative-rate": (edited(("set", ("model", "rates", 0, 1), -1)), BOTH, 2,
                      "error: invalid model: negative rate", []),
    "negative-rate-of-model": (json.dumps(dict(BASE["model"], rates=[[0, -2], [1, 0]])),
                               ["validate --model config.json"], 2,
                               "error: invalid model: negative rate", []),
    # each rate is finite but a row sums past the float range: validate
    # passed it, and filter exited 2 only after numpy's overflow warning
    "nonfinite-exit-rate": (edited(("set", ("model",), dict(
        THREE, rates=[[0, 1e308, 1e308], [1, 0, 1], [1, 1, 0]], initial=[0.5, 0.3, 0.2]))),
        BOTH, 2, "error: invalid model: nonfinite exit rate", []),
    # filter on these rates looped forever drawing jumps
    "jump-budget": (edited(("set", ("model", "rates"), [[0.0, 1e308], [1e308, 0.0]])), BOTH,
                    2, "error: horizon * max exit rate", []),
    "telegraph-on-three-states": (edited(("set", ("model",), THREE),
                                         ("set", ("scheme",), "telegraph-ito")),
                                  BOTH, 2, "error: telegraph schemes require K=2", FLOORED),
    # float(None) and int([1, 2]) escaped as TypeError (exit 1), float() read
    # "T": true as 1.0 and "beta": "0.5" as 0.5
    **{f"{key}={value!r}": (
        edited(("set", (key,), value)), BOTH, 2, f"error: config key '{key}' must be a number"
        f"{' with an integer value' * (key in INTEGER_KEYS)}, not {value!r}", [])
       for key in ("T", "dt", "beta", *INTEGER_KEYS) for value in (None, [1, 2], True, "0.5")},
    # int() truncated: a sign of -1.9 ran as -1 and a seed of 0.9 as 0
    **{f"{key}={value!r}": (
        edited(("set", (key,), value)), BOTH, 2,
        f"error: config key '{key}' must be a number with an integer value, not {value!r}", [])
       for key, value in [("correction_sign", -1.9), ("master_seed", 0.9),
                          ("master_seed", 0.5), ("master_seed", False), ("master_seed", math.nan)]},
    # NaN is not <= 0, so a NaN beta validated as "config ok", and an
    # infinite T overflowed in the step count (exit 1)
    **{f"{key}={value!r}": (
        edited(("set", (key,), value)), BOTH, 2,
        f"error: config key '{key}' must be finite and positive, not {value!r}", [])
       for key, value in [("beta", math.nan), ("beta", math.inf), ("beta", 0.0),
                          ("dt", math.nan), ("dt", -1e-3), ("T", math.inf), ("T", math.nan)]},
    "dt-override-nan": (edited(), ["filter --dt nan"], 2,
                        "error: config key 'dt' must be finite and positive, not nan", []),
    "dt-override-not-dividing": (edited(("set", ("T",), 1.0)), ["filter --dt 0.3"], 2,
                                 "error: dt=0.3 does not divide horizon=1.0", []),
    "dt-not-dividing": (edited(("set", ("T",), 1.0), ("set", ("dt",), 0.3)), BOTH, 2,
                        "error: dt=0.3 does not divide horizon=1.0", []),
    # ",,," wrote a header-only prediction.csv, "nan" NaN rows (exit 0), and
    # "inf" recursed until RecursionError (exit 1)
    **{f"horizons-{text}": (edited(), [f"predict --horizons '{text}'"], 2, err, [])
       for text, err in [(",,,", "error: give at least one prediction horizon"),
                         ("", "error: give at least one prediction horizon"),
                         ("0,nan", "error: horizon must be finite and nonnegative, not nan"),
                         ("1,-1", "error: horizon must be finite and nonnegative, not -1.0"),
                         ("nan", "error: horizon must be finite and nonnegative, not nan"),
                         ("inf", "error: horizon must be finite and nonnegative, not inf")]},
    # a bad horizon is refused before the filter runs, here one that fails
    "horizons-before-a-failing-filter": (
        edited(POINT_MASS, ("set", ("scheme",), "log")), ["predict --horizons nan"], 2,
        "error: horizon must be finite and nonnegative, not nan", FLOORED),
    # a 1e300 level makes A t infinite: the Gamma propagators fail
    "huge-level-gamma": (edited(("set", ("model", "levels", 0), 1e300),
                                ("set", ("scheme",), "gamma")), ["filter"], 3,
                         "run failed: exp(+-A t) overflowed", []),
    "instability": (edited(("set", ("T",), 10.0), ("set", ("dt",), 0.5), ("set", ("beta",), 0.1),
                           ("set", ("scheme",), "zakai-ito")), ["filter"], 3,
                    "run failed: zakai-ito: 10 clamp events over 20 steps", []),
    # the floored state overflows the first log step; this exited 2, as a
    # validation failure, where other schemes exit 3
    "log-from-a-point-mass": (edited(POINT_MASS, ("set", ("scheme",), "log")), ["filter"], 3,
                              "run failed: log: the filter state became non-finite", FLOORED),
}


@pytest.mark.parametrize("row", list(ROWS))
def test_one_edit_gives_its_exit_code(row):
    # after exit 2 nothing is left beside the document, after exit 3 no file
    document, commands, code, err, warned = ROWS[row]
    for command in commands:
        argv = shlex.split(command)
        if "--config" not in argv and "--model" not in argv:
            argv += ["--config", "config.json"]
        result = run_cli(document, argv)
        assert result[0] == code and result[2].startswith(err), (command, result)
        assert len(result[3]) == len(warned), (command, result)
        assert all(part in message for part, message in zip(warned, result[3])), result
        assert [path for path in result[4] if code == 2 or not path.endswith("/")] == [], result


def test_adjudicate_exits_3_exactly_when_a_verdict_is_inconclusive(tmp_path, monkeypatch):
    # seeds 0-7 of the telegraph model at T=0.5, listed before they were run;
    # at this horizon some verdicts on the sign are inconclusive
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps(dict(BASE, T=0.5)))
    codes = []
    for seed in range(8):
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(main(["adjudicate", "--config", "config.json", "--seed", str(seed),
                               "--out", str(seed)]))
        report = json.loads(Path(str(seed), "adjudication.json").read_text())
        verdicts = [report[dimension]["verdict"] for dimension in ("correction_sign",
                                                                   "drift_variant")]
        assert codes[-1] == (3 if "inconclusive" in verdicts else 0), (seed, verdicts)
    assert set(codes) == {0, 3}
