"""``tools/ab.py``, the A/B runner of ``benchmark/run.py``, on canned output:
it reads a run's last JSON line and reduces pairs of runs to medians, wins
and the parent's quartiles, and each metric to its verdict, without running
the benchmark; it counts the lines of each side's package and tests; and its
runtime probe reports the CPUs that the package's fan-out uses."""

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


def summary_of(parent: list[float], change: list[float]) -> dict:
    """The summaries of runs whose walls are ``parent`` and ``change``, pair by pair."""
    pairs = [tuple(ab.last_json(output(wall, 8e6 / wall)) for wall in pair)
             for pair in zip(parent, change)]
    return ab.summarize(pairs, BETTER)


STEADY = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]  # IQR 0.02
SPREAD = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0]  # IQR 0.35, over the bound
# every run above 0.99, but the IQR (1.02-3.0) is wider than the medians' gap
SKEWED = [1.01, 1.02, 1.03, 2.0, 3.0, 3.0, 3.0]


@pytest.mark.parametrize("parent, change, more_failed, wanted", [
    (STEADY, [wall - 0.1 for wall in STEADY], False, "gain"),
    # a gain does not count when the change fails more operations
    (STEADY, [wall - 0.1 for wall in STEADY], True, "within bound"),
    # 9/10 pairs, but the medians are 0.01 apart and the IQR is 0.02
    (STEADY, [wall - 0.01 for wall in STEADY[:9]] + [1.5], False, "within bound"),
    (STEADY, [wall + 0.01 for wall in STEADY], False, "within bound"),
    (STEADY, [wall * 1.4 for wall in STEADY], False, "regression"),
    (STEADY, [wall * 1.4 for wall in STEADY], True, "regression"),
    (SPREAD, SPREAD[::-1], False, "unresolved"),
    (SPREAD, [wall * 1.1 for wall in SPREAD], False, "unresolved"),
    (SKEWED, [0.99] * len(SKEWED), False, "within bound"),
    (SKEWED, [0.99] * (len(SKEWED) - 1) + [1.015], False, "unresolved"),
    # 4/4 pairs better by 0.1, with an IQR of 0.0175, are too few pairs for a gain
    (STEADY[:4], [wall - 0.1 for wall in STEADY[:4]], False, "within bound"),
], ids=["gain", "gain-with-more-failures", "gap-inside-the-iqr", "slightly-worse", "regression",
        "regression-with-more-failures", "wide-spread", "wide-spread-worse",
        "better-than-every-run", "better-than-all-runs-but-one", "gain-from-4-pairs"])
def test_each_metric_gets_the_verdict_of_its_pairs(parent, change, more_failed, wanted):
    # ref_steps_per_s is 8e6 / ref_wall_s, so the higher-is-better metric
    # reads the same
    for name, s in summary_of(parent, change).items():
        assert ab.verdict(s, 0.25, more_failed) == wanted, name


def test_the_failed_share_counts_operations_over_every_run():
    runs = [ab.last_json(output(0.6, 1e7, failed=failed)) for failed in (0, 3, 1)]
    assert ab.failed_share(runs) == 4 / 24
    assert ab.failed_share([]) == 0.0


def test_each_side_gets_the_lines_of_its_package_and_tests(tmp_path):
    # newlines as wc -l counts them, in the two globs' own files only
    files = {"parent": {"src/jumpfilter/a.py": "x = 1\ny = 2\n", "src/jumpfilter/b.py": "z\n",
                        "tests/test_a.py": "pass\n", "tools/ab.py": "a\nb\n"},
             "change": {"src/jumpfilter/a.py": "x = 1\n", "src/jumpfilter/notes.txt": "a\n",
                        "tests/test_a.py": "pass\n\nw = 4", "tests/sub/test_b.py": "b\n"}}
    lines = {}
    for side, tree in files.items():
        for name, text in tree.items():
            (tmp_path / side / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / side / name).write_text(text)
        lines[side] = ab.line_counts(tmp_path / side)
    assert lines == {"parent": {"src/jumpfilter/*.py": 3, "tests/*.py": 1},
                     "change": {"src/jumpfilter/*.py": 1, "tests/*.py": 2}}
    assert ab.line_report(lines) == ("lines: src/jumpfilter/*.py parent 3, change 1 (-2); "
                                     "tests/*.py parent 1, change 2 (+1)")
