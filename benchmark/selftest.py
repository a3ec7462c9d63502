#!/usr/bin/env python3
"""Self-test of the benchmark: one quick run of every workload in both modes.

    python3 benchmark/selftest.py

Runs ``run.py`` for each workload with seed 0 (which has reference values)
and ``--seconds 1``: a warm-up pass and one timed pass in each mode.
Asserts that each run names every metric of BENCHMARK.json for its mode with
the listed unit, that ``fail_frac`` is 0 and ``ref_max_dev`` within
tolerance, and that the traced telegraph-study reads a trajectory reuse of
24/36. Prints a record of the commit, the Python/numpy/scipy versions, nproc,
the thread caps and every metric, and writes it to
``.bench_out/selftest.json``. Exits with code 1 on the first failed
assertion.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run

SEED = 0


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def commit() -> str:
    try:
        done = subprocess.run(["git", "-C", str(run.ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    """Run one benchmark; returns the final JSON and the ``name = value unit`` lines."""
    done = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace {trace}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    listed = {}
    for line in lines[:-1]:
        name, sep, rest = line.partition(" = ")
        if sep and not line.startswith("#"):
            value, unit = rest.rsplit(" ", 1)
            listed[name] = (float(value), unit)
    return json.loads(lines[-1]), listed


def main() -> int:
    caps = run.cap_threads()
    import numpy
    import scipy

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    record = {
        "commit": commit(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": caps,
        "runs": {},
    }
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, listed = bench(name, trace)
            expected = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == expected, f"{name} trace {trace}: metrics {got} != {expected}")
            expect(result["correct"] and result["failed"] == 0, f"{name}: {result}")
            fail_frac, _ = listed["fail_frac"]
            ref_max_dev, _ = listed["ref_max_dev"]
            expect(fail_frac == 0.0, f"{name} trace {trace}: fail_frac {fail_frac}")
            expect(ref_max_dev <= run.REF_TOL, f"{name} trace {trace}: ref_max_dev {ref_max_dev}")
            if trace and name == "telegraph-study":
                calls = result["metrics"]["harness.run_trajectory.calls"]["value"]
                distinct = result["metrics"]["harness.run_trajectory.distinct"]["value"]
                expect((distinct, calls) == (24, 36), f"reuse {distinct}/{calls}, expected 24/36")
            record["runs"][f"{name} trace {trace}"] = {
                k: f"{value!r} {unit}" for k, (value, unit) in listed.items()}
            print(f"ok {name} trace {trace}", flush=True)
    run.TRACE_DIR.mkdir(parents=True, exist_ok=True)
    (run.TRACE_DIR / "selftest.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
