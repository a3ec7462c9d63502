"""``tools/ab.py``, the A/B runner of ``benchmark/run.py``, on canned output:
it reads a run's last JSON line and reduces pairs of runs to medians, wins
and the parent's quartiles, without running the benchmark; and its runtime
probe reports the CPUs that the package's fan-out uses."""

import importlib.util
import json
from pathlib import Path

import pytest

from jumpfilter import fanout

SPEC = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parents[1] / "tools" / "ab.py")
ab = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(ab)

BETTER = {"ref_wall_s": "lower", "ref_steps_per_s": "higher"}


def output(wall: float, steps: float, failed: int = 0) -> str:
    """The standard output of one run of benchmark/run.py, as it prints it."""
    result = {"correct": failed == 0, "attempted": 8, "failed": failed,
              "metrics": {"ref_wall_s": {"value": wall, "unit": "s"},
                          "ref_steps_per_s": {"value": steps, "unit": "1/s"}}}
    return "\n".join([
        "# workload tower-mc seed 0 trace 0; python 3.11.7 numpy 2.4.6 scipy 1.16.3",
        '# {"adjudications_inconclusive": 0}',
        f"ref_wall_s = {wall!r} s",
        f"ref_steps_per_s = {steps!r} 1/s",
        "fail_frac = 0.0 ratio",
        json.dumps(result),
        "",
    ])


def test_a_run_is_read_from_its_last_json_line():
    result = ab.last_json(output(0.61, 1.3e7, failed=1))
    assert result["failed"] == 1 and not result["correct"]
    assert result["metrics"]["ref_wall_s"] == {"value": 0.61, "unit": "s"}
    with pytest.raises(ValueError, match="printed nothing"):
        ab.last_json("\n\n")


def test_pairs_reduce_to_medians_wins_and_the_parent_quartiles():
    walls = [(0.64, 0.56), (0.61, 0.62), (0.60, 0.56), (0.65, 0.53), (0.71, 0.60)]
    pairs = [tuple(ab.last_json(output(wall, 8e6 / wall)) for wall in pair) for pair in walls]
    summary = ab.summarize(pairs, BETTER)
    wall = summary["ref_wall_s"]
    assert wall["parent"] == [0.64, 0.61, 0.60, 0.65, 0.71]
    assert wall["change"] == [0.56, 0.62, 0.56, 0.53, 0.60]
    assert (wall["parent_median"], wall["change_median"]) == (0.64, 0.56)
    # the inclusive quartiles of 0.60, 0.61, 0.64, 0.65, 0.71
    assert (wall["parent_q1"], wall["parent_q3"]) == (0.61, 0.65)
    assert wall["parent_iqr"] == pytest.approx(0.04)
    assert (wall["wins"], wall["pairs"], wall["unit"]) == (4, 5, "s")
    steps = summary["ref_steps_per_s"]
    assert (steps["better"], steps["wins"]) == ("higher", 4)
    assert steps["parent_median"] == 8e6 / 0.64


def test_the_parent_runs_first_on_even_seeds():
    assert [ab.sides(seed)[0] for seed in range(4)] == ["parent", "change"] * 2
    assert ab.quartiles([0.5]) == (0.5, 0.5, 0.5)


def test_the_runtime_probe_reports_the_cpus_the_fan_out_uses(tmp_path, monkeypatch, capsys):
    # it used to report the affinity alone, here 8 CPUs where the quota allows 3
    (tmp_path / "cpu.max").write_text("250000 100000\n")
    monkeypatch.setattr(fanout.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(fanout, "CPU_QUOTA_FILES", ((str(tmp_path / "cpu.max"),),))
    exec(ab.RUNTIME_PROBE, {})
    info = json.loads(capsys.readouterr().out)
    assert info["usable_cpus"] == 3
    assert info["cpu_quota"] == {str(tmp_path / "cpu.max"): "250000 100000"}
