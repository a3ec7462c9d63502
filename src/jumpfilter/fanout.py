"""Independent tasks fanned out over forked worker processes.

The refinement ladders (:mod:`jumpfilter.harness`) run one grid per task and
the tower check (:mod:`jumpfilter.oracle`) one block of replicas per task.
Both size their fan-out with :func:`fork_workers` and run it with
:func:`fan_out`, which returns what the serial loop returns: the results in
task order, or the first failing task's exception; tasks do not warn (a
model warns when it is built). ``multiprocessing`` and ``concurrent.futures``
are imported only when a fan-out forks.
"""

from __future__ import annotations

import math
import os
import threading
from pathlib import Path

__all__ = ["CPU_QUOTA_FILES", "fan_out", "fork_workers", "usable_cpus"]

# cgroup CPU quota, v2 then v1: "<quota> <period>" in one file ("max": none),
# or quota (-1: none) and period in two
CPU_QUOTA_FILES = (
    ("/sys/fs/cgroup/cpu.max",),
    ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us"),
)


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
    """How many forked workers ``tasks`` independent tasks may use:
    ``min(usable CPUs, tasks)``, or 1 (run in this process) when that is 1,
    without the "fork" start method, in a daemon process (a
    ``multiprocessing.Pool`` worker, which may not have children), or while
    another Python thread runs (a fork could copy a lock it holds)."""
    workers = min(usable_cpus(), tasks)
    if workers < 2 or threading.active_count() > 1:
        return 1
    import multiprocessing

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return 1
    return workers


def fan_out(function, tasks: list, workers: int):
    """``function(task)`` of each task, in task order.

    With one worker the tasks run in this process, lazily, under plain
    ``map``. Otherwise they run on a ``ProcessPoolExecutor`` of ``workers``
    processes forked from this one, submitted last task first (callers list
    their longest task last); a worker reads the function and its task from
    what it inherited, so only an index and the result cross the pipe. The
    results are then taken in task order, and the first failing task's
    exception is raised here with the worker's traceback as its cause, so
    callers see what the serial loop shows. No warning is carried back.
    """
    if workers < 2:
        return map(function, tasks)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # unlike multiprocessing.Pool, which waits forever for the task of a
    # killed worker, the executor raises BrokenProcessPool
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=fork, initializer=_hold,
                             initargs=(function, tasks)) as pool:
        futures = [pool.submit(_run, i) for i in reversed(range(len(tasks)))]
        return [future.result() for future in reversed(futures)]


_WORK: tuple = (None, [])  # a pool worker's copy of the caller's function and tasks


def _hold(function, tasks: list) -> None:
    global _WORK
    _WORK = function, tasks


def _run(index: int):
    """In a pool worker: the result of task ``index``."""
    function, tasks = _WORK
    return function(tasks[index])
