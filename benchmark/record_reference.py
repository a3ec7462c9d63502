#!/usr/bin/env python3
"""Record the reference values that ``run.py`` compares outputs against.

    python3 benchmark/record_reference.py --seeds 0-31

Runs one pass of every workload for each seed, applies the same output checks
as the benchmark, and writes the checked values (convergence and adjudication
ladders, terminal distributions, tower z-scores and MSEs) to
``reference.json``. A seed whose checks fail is not recorded; the script then
exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def record(workload_cls, seed: int) -> dict:
    work = run.WORK_ROOT / f"reference-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = workload_cls(seed, work)
        observed, problems = {}, []
        for op in workload.run_pass():
            if op.error:
                problems.append(f"{op.name}: {op.error}")
                continue
            observed.update(workload.check(op, problems))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if problems:
        raise RuntimeError(f"{workload_cls.name} seed {seed}: {problems}")
    return observed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    args = parser.parse_args()
    run.cap_threads()
    run.import_package()
    table = {}
    for name, workload_cls in run.WORKLOADS.items():
        names, seeds = None, {}
        for seed in seed_range(args.seeds):
            try:
                observed = record(workload_cls, seed)
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 1
            names = names or sorted(observed)
            if sorted(observed) != names:
                print(f"{name} seed {seed}: observables differ", file=sys.stderr)
                return 1
            seeds[str(seed)] = [observed[n] for n in names]
            print(f"{name} seed {seed} recorded", file=sys.stderr)
        table[name] = {"names": names, "seeds": seeds}
    run.REFERENCE_FILE.write_text(json.dumps(table, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
