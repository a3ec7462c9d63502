"""The plain-fork fan-out: one child per share of the tasks, results in task
order, the lowest-index failure raised, and no child left behind however
the call ends."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jumpfilter
from jumpfilter.fanout import fan_out


def task_and_pid(task):
    return task, os.getpid()


@pytest.mark.parametrize("tasks, workers", [(5, 3), (3, 3), (2, 2), (7, 2)])
def test_each_child_runs_its_share(tasks, workers):
    results = fan_out(task_and_pid, list(range(tasks)), workers)
    assert [task for task, _ in results] == list(range(tasks))
    pids = [pid for _, pid in results]
    assert os.getpid() not in pids
    # child c < workers - 1 runs task n - 1 - c alone; the last child runs the rest
    assert len(set(pids)) == workers
    assert len(set(pids[:tasks - workers + 1])) == 1
    assert len(set(pids[tasks - workers + 1:])) == workers - 1


@pytest.mark.parametrize("tasks, workers", [(2, 4), (1, 3), (0, 2)])
def test_more_workers_than_tasks_run_each_task_once(tmp_path, tasks, workers):
    log = tmp_path / "runs.log"

    def logged(task):
        with open(log, "a") as fh:
            fh.write(f"{task} {os.getpid()}\n")
        return task

    assert list(fan_out(logged, list(range(tasks)), workers)) == list(range(tasks))
    runs = log.read_text().splitlines() if log.exists() else []
    assert sorted(int(run.split()[0]) for run in runs) == list(range(tasks))
    # one child per task, or this process for a single task
    pids = {run.split()[1] for run in runs}
    assert len(pids) == tasks and (str(os.getpid()) in pids) == (tasks == 1)


def odd_fails(task):
    if task % 2:
        raise ValueError(f"task {task} failed")
    return task


def test_the_lowest_failing_task_raises_with_the_child_traceback():
    with pytest.raises(ValueError, match="^task 1 failed$") as raised:
        fan_out(odd_fails, list(range(5)), 3)
    assert 'in odd_fails\n    raise ValueError(f"task {task} failed")' in str(
        raised.value.__cause__)


# each scenario fans four tasks out over three children, then reports its
# outcome and whether this process still has a child
NO_CHILD_LEFT = """
import json, os, signal, sys, time
from jumpfilter.fanout import fan_out


def square(task):
    return task * task


def fails(task):
    raise ValueError(f"task {task} failed")


def killed(task):
    if task == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return task


def sleeps(task):
    time.sleep(60)
    return task


class Interrupted(Exception):
    pass


def interrupt(signum, frame):
    raise Interrupted("the caller was interrupted")


function = {"succeeds": square, "task raises": fails, "child killed": killed,
            "caller raises": sleeps}[sys.argv[1]]
signal.signal(signal.SIGALRM, interrupt)
if function is sleeps:
    signal.setitimer(signal.ITIMER_REAL, 0.5)
try:
    outcome = fan_out(function, [0, 1, 2, 3], 3)
except Exception as error:
    outcome = f"{type(error).__name__}: {error}"
try:
    left = os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    left = None
print(json.dumps([outcome, left]))
"""


@pytest.mark.parametrize("scenario, outcome", [
    ("succeeds", [0, 1, 4, 9]),
    ("task raises", "ValueError: task 0 failed"),
    ("child killed", "BrokenProcessPool: a fan-out child ended without a result "
                     "(exit code -9)"),
    ("caller raises", "Interrupted: the caller was interrupted"),
])
def test_no_child_outlives_a_fan_out(tmp_path, scenario, outcome):
    package_root = str(Path(jumpfilter.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", NO_CHILD_LEFT, scenario],
                          capture_output=True, text=True, cwd=tmp_path, env=env, timeout=50)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [outcome, None]
