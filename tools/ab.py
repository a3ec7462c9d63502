#!/usr/bin/env python3
"""A/B runs of ``benchmark/run.py``: a parent commit against the working tree.

Run from the repository root:

    python3 tools/ab.py --workload tower-mc --pairs 10 --out BENCH_<n>.json

The parent commit (``--parent``, default HEAD) is extracted with ``git
archive`` into a scratch directory, and the working tree (its tracked files
and the untracked files git does not ignore, as they are on disk) is copied
into another, so that each side runs from a fresh copy of its own and
nothing is written into the working tree except ``--out``.
``benchmark/run.py`` runs unchanged in each copy, with its own run length,
in alternating pairs: pair i runs seed ``--first-seed + i`` on both sides,
the parent first on even seeds. The last line of a run's standard output
is its JSON result.

For each metric the script prints both sides' medians, the pairs the change
wins (by the metric's ``better`` in BENCHMARK.json) and the parent's
interquartile range. ``--out`` gets those statistics, every raw value, the
commits, the CPU count, the CPUs of this process's affinity, the CPUs that
the package's fan-out uses (``jumpfilter.fanout.usable_cpus``, which the
cgroup quota caps) and the quota file's text, the Python and numpy versions
and, where they can be read, the OpenBLAS core type and numpy's CPU
dispatch. The script uses the standard library only; numpy is read in a
child interpreter.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# printed by a child interpreter on the working tree's package: numpy's
# version and CPU dispatch, the core that the OpenBLAS it loaded chose (read
# through ctypes, as the library exports the name under a prefix and suffix
# of its build), the CPUs the package's fan-out uses and the text of the
# cgroup quota file that caps them
RUNTIME_PROBE = r"""
import ctypes, json, sys
from pathlib import Path
import numpy
from jumpfilter import fanout
info = {"numpy": numpy.__version__, "usable_cpus": fanout.usable_cpus(), "cpu_quota": {}}
for files in fanout.CPU_QUOTA_FILES:
    try:
        info["cpu_quota"] = {name: Path(name).read_text().strip() for name in files}
        break
    except OSError:
        continue
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:
    from numpy.core import _multiarray_umath as umath
info["cpu_baseline"] = list(umath.__cpu_baseline__)
info["cpu_dispatch"] = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
try:
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
except OSError:
    libs = []
for lib in libs:
    handle = ctypes.CDLL(lib)
    for prefix in ("", "scipy_"):
        for suffix in ("", "64_"):
            for key, name in (("openblas_core", "get_corename"), ("openblas_config", "get_config")):
                function = getattr(handle, f"{prefix}openblas_{name}{suffix}", None)
                if function is not None and key not in info:
                    function.argtypes, function.restype = [], ctypes.c_char_p
                    info[key] = function().decode()
json.dump(info, sys.stdout)
"""


def git(*args: str, binary: bool = False):
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, check=True)
    return done.stdout if binary else done.stdout.decode().strip()


def extract_commit(rev: str, dest: Path) -> None:
    """The files of commit ``rev`` under ``dest``, through ``git archive``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev, binary=True))) as tar:
        # the "data" filter where tarfile has it (Python 3.12, and 3.11.4 on)
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def copy_working_tree(dest: Path) -> None:
    """The working tree's tracked and unignored untracked files under ``dest``."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard", binary=True)
    for name in sorted(set(listed.decode().split("\0")) - {""}):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the working tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def last_json(stdout: str) -> dict:
    """The JSON object on the last nonblank line of a run's standard output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def run_benchmark(copy: Path, workload: str, seed: int) -> dict:
    command = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(command, cwd=copy, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} in {copy} exited {done.returncode}:\n"
                           f"{done.stderr}")
    return last_json(done.stdout)


def sides(seed: int) -> tuple[str, str]:
    """The order of a pair's runs: the parent first on even seeds."""
    return ("parent", "change") if seed % 2 == 0 else ("change", "parent")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict:
    """Per metric of both sides' results, in pair order: the raw values, the
    medians, the parent's quartiles and IQR, and the pairs in which the change
    is strictly better (``better[name]`` is "lower" or "higher")."""
    summary = {}
    for name, entry in pairs[0][0]["metrics"].items():
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        direction = better.get(name, "lower")
        wins = sum((c < p) if direction == "lower" else (c > p) for p, c in zip(parent, change))
        q1, parent_median, q3 = quartiles(parent)
        summary[name] = {
            "unit": entry["unit"], "better": direction, "pairs": len(pairs), "wins": wins,
            "parent_median": parent_median, "change_median": statistics.median(change),
            "parent_q1": q1, "parent_q3": q3, "parent_iqr": q3 - q1,
            "parent": parent, "change": change,
        }
    return summary


def report(workload: str, summary: dict) -> str:
    lines = [f"{workload}:"]
    for name, s in summary.items():
        lines.append(f"  {name}: parent {s['parent_median']:.6g} (IQR {s['parent_q1']:.6g}-"
                     f"{s['parent_q3']:.6g}), change {s['change_median']:.6g} {s['unit']}; "
                     f"change {s['better']} in {s['wins']}/{s['pairs']} pairs")
    return "\n".join(lines)


def environment(parent: str) -> dict:
    probe = subprocess.run([sys.executable, "-c", RUNTIME_PROBE], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    runtime = json.loads(probe.stdout) if probe.returncode == 0 else {}
    return {
        "parent_commit": git("rev-parse", parent),
        "head_commit": git("rev-parse", "HEAD"),
        "working_tree_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        **runtime,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of benchmark/run.py; repeat for several")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--parent", default="HEAD", help="the commit to compare against")
    parser.add_argument("--out", required=True, type=Path, help="the JSON record to write")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in declared["end_to_end"]}
    record = {"environment": environment(args.parent), "first_seed": args.first_seed,
              "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="jumpfilter-ab-") as scratch:
        copies = {"parent": Path(scratch, "parent"), "change": Path(scratch, "change")}
        extract_commit(args.parent, copies["parent"])
        copy_working_tree(copies["change"])
        for workload in args.workload:
            pairs = []
            for seed in range(args.first_seed, args.first_seed + args.pairs):
                order = sides(seed)
                results = {side: run_benchmark(copies[side], workload, seed)
                           for side in order}
                pairs.append((results["parent"], results["change"]))
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} {results[side]['metrics']['ref_wall_s']['value']:.4f} s"
                    for side in order), flush=True)
            summary = summarize(pairs, better)
            print(report(workload, summary), flush=True)
            record["workloads"][workload] = {
                "seeds": list(range(args.first_seed, args.first_seed + args.pairs)),
                "failed": {side: [r[i]["failed"] for r in pairs] for i, side in
                           enumerate(("parent", "change"))},
                "correct": all(r["correct"] for pair in pairs for r in pair),
                "metrics": summary,
            }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
