"""The mutant table ``tests/mutants.py`` and the pure parts of
``tools/mutate.py``, its runner, without running a mutant or pytest: each
row's old text occurs once in its file and each killing test exists; a row
is applied to a copy and put back; the report names each row and exits 1
when one survives."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutate)
MUTANTS = mutate.load(ROOT / "tests" / "mutants.py", "mutants").MUTANTS


def defined_tests(path: Path) -> set[str]:
    """The "test" and "Class::test" names that the test file ``path`` defines."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(f"{node.name}::{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef))
    return names


@pytest.mark.parametrize("name", list(MUTANTS))
def test_each_row_applies_once_and_names_tests_that_exist(name):
    file, old, new, tests = MUTANTS[name]
    assert old != new and tests
    mutate.mutated((ROOT / file).read_text(), old, new)  # raises unless old occurs once
    for test in tests:
        path, _, function = test.partition("[")[0].partition("::")
        assert function in defined_tests(ROOT / path), test


def test_a_row_is_applied_to_the_copy_and_put_back(tmp_path):
    (tmp_path / "src").mkdir()
    module = tmp_path / "src" / "module.py"
    module.write_text("a = 1\nb = 2\n")
    seen = []

    def run(copy, tests):
        seen.append((copy, tests, module.read_text()))
        return 1

    row = ("src/module.py", "b = 2\n", "b = 3\n", ["tests/test_module.py::test_b"])
    assert mutate.run_row(tmp_path, row, run)
    assert seen == [(tmp_path, ["tests/test_module.py::test_b"], "a = 1\nb = 3\n")]
    assert module.read_text() == "a = 1\nb = 2\n"

    def fails(copy, tests):
        raise RuntimeError("the run broke")

    with pytest.raises(RuntimeError):
        mutate.run_row(tmp_path, row, fails)
    assert module.read_text() == "a = 1\nb = 2\n"


@pytest.mark.parametrize("text, count", [("a = 1\n", 0), ("b = 2\nb = 2\n", 2)])
def test_an_old_text_must_occur_exactly_once(tmp_path, text, count):
    module = tmp_path / "module.py"
    module.write_text(text)
    with pytest.raises(ValueError, match=f"occurs {count} times"):
        mutate.run_row(tmp_path, ("module.py", "b = 2\n", "b = 3\n", ["t"]),
                       lambda copy, tests: 1)
    assert module.read_text() == text


@pytest.mark.parametrize("code, killed", [(1, True), (0, False), (2, False), (4, False),
                                          (5, False), (-1, False)])
def test_only_a_failed_test_kills(tmp_path, code, killed):
    # 0: every test passed; 2: a collection error; 4: no such test; 5: none
    # collected; -1: timed out
    (tmp_path / "module.py").write_text("b = 2\n")
    row = ("module.py", "b = 2\n", "b = 3\n", ["t"])
    assert mutate.run_row(tmp_path, row, lambda copy, tests: code) is killed


def test_the_report_names_each_row_and_exits_1_on_a_survivor():
    assert mutate.verdict("a", True, 2.04) == "killed in 2.0 s: a"
    assert mutate.verdict("b", False, 31.25) == "SURVIVED in 31.2 s: b"
    assert mutate.report({"a": True, "b": True}) == ("2 of 2 mutants killed", 0)
    assert mutate.report({"a": True, "b": False}) == ("1 of 2 mutants killed", 1)
