#!/usr/bin/env python3
"""Runs the hand-mutant table ``tests/mutants.py``: each mutant must be
killed by its tests.

Run it with no arguments:

    python3 tools/mutate.py

The working tree (its tracked files and the untracked files git does not
ignore, as they are on disk) is copied into a scratch directory, as
``tools/ab.py`` copies it, so nothing is written into the working tree. For
each row of ``MUTANTS``, ``(file, old text, new text, killing tests)``, the
copy's file gets the new text in place of the old, which must occur in it
exactly once; the row's tests run there with ``pytest -x``, under the
derandomized Hypothesis profile of ``tests/conftest.py``; and the file is put
back. A row is killed when pytest reports a failed test (exit code 1). Any
other outcome is a survivor: every test passed, or the tests could not be
collected or found. The script prints one line per row, with the seconds its
tests took, and exits 1 if a row survives. It uses the standard library only.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the killing tests of one row get this long before the row counts as survived
TIMEOUT_S = 600


def load(path: Path, name: str):
    """The module of the Python file ``path``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def mutated(text: str, old: str, new: str) -> str:
    """``text`` with ``old`` replaced by ``new``; ValueError unless ``old``
    occurs in ``text`` exactly once."""
    count = text.count(old)
    if count != 1:
        raise ValueError(f"the old text occurs {count} times, not once: {old!r}")
    return text.replace(old, new)


def run_tests(copy: Path, tests) -> int:
    """pytest's exit code for ``tests`` run with ``-x`` in ``copy``."""
    # no bytecode is cached: a mutant of its file's size, written within the
    # second of that file's cached bytecode, would be read from the stale cache
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    env.pop("HYPOTHESIS_PROFILE", None)
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(command, cwd=copy, env=env, capture_output=True,
                              timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return -1


def run_row(copy: Path, row, run=run_tests) -> bool:
    """Whether ``run`` kills the mutant ``row`` applied to ``copy``; the
    file is put back however the run ends."""
    file, old, new, tests = row
    path = copy / file
    original = path.read_text()
    path.write_text(mutated(original, old, new))
    try:
        return run(copy, tests) == 1
    finally:
        path.write_text(original)


def verdict(name: str, killed: bool, seconds: float) -> str:
    return f"{'killed' if killed else 'SURVIVED'} in {seconds:.1f} s: {name}"


def report(killed: dict[str, bool]) -> tuple[str, int]:
    """The count of rows killed, and the exit code: 1 if a row survived."""
    survivors = sum(not dead for dead in killed.values())
    return f"{len(killed) - survivors} of {len(killed)} mutants killed", int(survivors > 0)


def main() -> int:
    # ab.py lives beside this file; loaded by path, as tools/ is no package
    ab = load(Path(__file__).resolve().with_name("ab.py"), "ab")
    table = load(ROOT / "tests" / "mutants.py", "mutants").MUTANTS
    killed = {}
    with tempfile.TemporaryDirectory(prefix="jumpfilter-mutants-") as scratch:
        copy = Path(scratch)
        ab.copy_working_tree(copy)
        for name, row in table.items():
            start = time.perf_counter()
            killed[name] = run_row(copy, row)
            print(verdict(name, killed[name], time.perf_counter() - start), flush=True)
    total, code = report(killed)
    print(total)
    return code


if __name__ == "__main__":
    sys.exit(main())
