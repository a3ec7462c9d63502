"""Independent tasks fanned out over forked child processes.

The refinement ladders (:mod:`jumpfilter.harness`, which imports this module
only when a ladder runs) run one grid per task and the tower check
(:mod:`jumpfilter.oracle`) one block of replicas per task.
Both size their fan-out with :func:`fork_workers` and run it with
:func:`fan_out`, which returns what the serial loop returns: the results in
task order, or the first failing task's exception; tasks do not warn (a
model warns when it is built). A fan-out is ``os.fork`` and one pipe per
child, so no command imports ``multiprocessing`` or ``concurrent.futures``.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
import threading
from pathlib import Path

__all__ = ["BrokenProcessPool", "CPU_QUOTA_FILES", "fan_out", "fork_workers", "usable_cpus"]

# cgroup CPU quota, v2 then v1: "<quota> <period>" in one file ("max": none),
# or quota (-1: none) and period in two
CPU_QUOTA_FILES = (
    ("/sys/fs/cgroup/cpu.max",),
    ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us"),
)
SIGKILL = 9  # on every POSIX system; importing the signal module takes ~1 ms of start-up


class BrokenProcessPool(RuntimeError):
    """A fan-out child ended without sending its share's results back (it
    was killed, say)."""


class RemoteTraceback(Exception):
    """The formatted traceback of a task that failed in a child: the
    ``__cause__`` of the exception :func:`fan_out` raises for it."""


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity, or ``os.cpu_count()``
    where that is unknown), capped by the cgroup CPU quota when one is set."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    for files in CPU_QUOTA_FILES:
        try:
            quota, period = " ".join(Path(name).read_text() for name in files).split()
            if quota not in ("max", "-1"):
                cpus = min(cpus, max(1, math.ceil(int(quota) / int(period))))
        except (OSError, ValueError):
            continue
        break
    return cpus


def fork_workers(tasks: int) -> int:
    """How many forked children ``tasks`` independent tasks may use:
    ``min(usable CPUs, tasks)``, or 1 (run in this process) when that is 1,
    without ``os.fork``, or while another Python thread runs (a fork could
    copy a lock it holds)."""
    workers = min(usable_cpus(), tasks)
    if workers < 2 or threading.active_count() > 1 or not hasattr(os, "fork"):
        return 1
    return workers


def fan_out(function, tasks: list, workers: int):
    """``function(task)`` of each task, in task order.

    ``workers`` is capped at the number of tasks. With one worker the tasks
    run in this process, lazily, under plain ``map``. Otherwise the tasks
    are split into ``workers`` shares, and one child forked from this
    process runs each: child c < workers - 1 takes task n - 1 - c (callers
    list their longest task last), and the last child takes tasks 0 .. n -
    workers in order, stopping at its first failure. A child reads the function and its tasks from what it
    inherited, and pickles its results, or its failure with the formatted
    traceback, into its pipe. This process waits idle, reads every pipe and
    reaps every child, then returns the results in task order, or raises
    the lowest-index failing task's exception with the child's traceback as
    its cause, so callers see what the serial loop shows. A child that ends
    without a result raises :class:`BrokenProcessPool`. However the call
    ends, no child outlives it: those still running are killed and reaped.
    No warning is carried back.
    """
    n = len(tasks)
    workers = min(workers, n)
    if workers < 2:
        return map(function, tasks)
    shares = [[n - 1 - c] for c in range(workers - 1)] + [list(range(n - workers + 1))]
    # a child must not write out what this process has buffered
    sys.stdout.flush()
    sys.stderr.flush()
    children = {}  # pid -> (share, read end of its pipe), until reaped
    try:
        for share in shares:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _run_share(function, tasks, share, write)
            os.close(write)
            children[pid] = share, open(read, "rb")
        results, failures = {}, []
        for pid, (share, pipe) in list(children.items()):
            with pipe:
                sent = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            if status or not sent:  # a child that sent its results exits 0
                code = os.waitstatus_to_exitcode(status)  # -N: killed by signal N
                failures.append((share[0], BrokenProcessPool(
                    f"a fan-out child ended without a result (exit code {code})"), None))
                continue
            done, failure = pickle.loads(sent)
            results.update(zip(share, done))
            if failure is not None:
                failures.append(failure)
    finally:
        for pid, (_, pipe) in children.items():
            pipe.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
    if failures:
        _, error, trace = min(failures, key=lambda failure: failure[0])
        raise error from (RemoteTraceback(trace) if trace is not None else None)
    return [results[index] for index in range(n)]


def _run_share(function, tasks: list, share: list, write: int):
    """In a fan-out child: run ``share`` in order, send ``(results, failure)``
    through the pipe ``write``, where ``failure`` is None or ``(index,
    exception, traceback text)`` of the first failing task, and exit."""
    try:
        done, failure = [], None
        for index in share:
            try:
                done.append(function(tasks[index]))
            except BaseException as error:  # sent to the caller, which raises it
                failure = index, error, _formatted_traceback()
                break
        try:
            sent = pickle.dumps((done, failure), pickle.HIGHEST_PROTOCOL)
        except Exception as error:  # a result or an exception that does not pickle
            sent = pickle.dumps(([], (share[0], error, _formatted_traceback())))
        with open(write, "wb") as pipe:
            pipe.write(sent)
        sys.stdout.flush()
        sys.stderr.flush()
    finally:
        os._exit(0)


def _formatted_traceback() -> str:
    import traceback  # only a child that fails pays for the import

    return traceback.format_exc()
