"""The plain-fork fan-out: one child per share of the tasks, results in task
order, the lowest-index failure raised, no child left behind however the
call ends, and the same bytes from a run pinned to one CPU."""

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


def package_env() -> dict:
    """This environment, with the package importable in a child interpreter."""
    package_root = str(Path(jumpfilter.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))


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
    proc = subprocess.run([sys.executable, "-c", NO_CHILD_LEFT, scenario],
                          capture_output=True, text=True, cwd=tmp_path, env=package_env(),
                          timeout=50)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [outcome, None]


TELEGRAPH_DOC = {
    "model": {"levels": [1.0, -1.0], "rates": [[0.0, 1.0], [1.0, 0.0]], "initial": [0.5, 0.5]},
    "dt": 0.001, "beta": 0.5, "master_seed": 0, "out_dir": "out",
}
# the tower check's report, as JSON on stdout; argv[1] "int64" gives the seed as np.int64(0)
TOWER = """
import json, sys
import numpy as np
from jumpfilter import telegraph_model, tower_property_check
seed = np.int64(0) if sys.argv[1:] == ["int64"] else 0
r = tower_property_check(telegraph_model(1.0), 1.0, 1e-3, 0.5, 2000, seed)
print(json.dumps({"z_scores": r.z_scores.tolist(), "mean_terminal": r.mean_terminal.tolist(),
                  "mse_filter": r.mse_filter, "mse_const": r.mse_const,
                  "mse_margin_se": r.mse_margin_se}))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_runs_pinned_to_one_cpu_write_the_same_bytes(tmp_path):
    # Each computation runs in a child interpreter as it fans out over this
    # process's CPUs, and in one pinned to a single CPU, where the ladders and
    # the tower replicas run serially in that process. Started together,
    # each pair must write the same bytes.
    cpu = min(os.sched_getaffinity(0))
    env = package_env()

    def pair(argv_of):
        """The (stdout, stderr, exit code) of ``argv_of("free")`` and of
        ``argv_of("serial")`` pinned to one CPU."""
        children = [subprocess.Popen(
            [sys.executable, *argv_of(name)], cwd=tmp_path, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            preexec_fn=(lambda: os.sched_setaffinity(0, {cpu})) if name == "serial" else None,
        ) for name in ("free", "serial")]
        return [(*child.communicate(timeout=300), child.returncode) for child in children]

    def cli(command, config, *flags):
        return lambda name: ["-m", "jumpfilter.cli", command, "--config", config,
                             "--out", name, *flags]

    # a point-mass start: the model floors its zero weight once, when it is
    # built, and the ladder workers issue no warnings
    point_mass = dict(TELEGRAPH_DOC, T=0.05, scheme="wonham-ito",
                      model=dict(TELEGRAPH_DOC["model"], initial=[1.0, 0.0]))
    (tmp_path / "point-mass.json").write_text(json.dumps(point_mass))
    free, serial = pair(cli("adjudicate", "point-mass.json"))
    assert free[2] == serial[2] and free[2] in (0, 3), free[1]
    assert [err.count("floored") for _, err, _ in (free, serial)] == [1, 1]
    assert (tmp_path / "free" / "adjudication.json").read_bytes() == (
        tmp_path / "serial" / "adjudication.json").read_bytes()

    # 2000 tower replicas fan out in blocks, or run as one batch, and the
    # master seed np.int64(0) reports the bits of the seed 0
    free, serial = pair(lambda name: ["-c", TOWER])
    int64 = subprocess.run([sys.executable, "-c", TOWER, "int64"], cwd=tmp_path, env=env,
                           capture_output=True, text=True, timeout=300)
    assert free[2] == serial[2] == int64.returncode == 0, free[1]
    assert free[0] == serial[0] == int64.stdout

    # four halvings run the finest rung over 8,000 steps, 16 blocks of rows,
    # in a forked ladder worker or in the pinned process
    zakai = dict(TELEGRAPH_DOC, T=0.5, scheme="zakai-ito")
    (tmp_path / "zakai.json").write_text(json.dumps(zakai))
    free, serial = pair(cli("convergence", "zakai.json", "--halvings", "4"))
    assert free[2] == serial[2] == 0, free[1]
    assert (tmp_path / "free" / "convergence.csv").read_bytes() == (
        tmp_path / "serial" / "convergence.csv").read_bytes()
