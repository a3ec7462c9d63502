"""The package runs on numpy alone: each of its modules imports only the
standard library, numpy and the package itself, deferred imports included,
and ``pyproject.toml`` lists numpy as its one dependency. scipy serves the
tests only, as a reference, from the ``test`` extra."""

import ast
import re
import sys
from pathlib import Path

import jumpfilter

ALLOWED = sys.stdlib_module_names | {"numpy", "jumpfilter"}


def test_package_runs_on_the_standard_library_and_numpy_alone():
    sources = sorted(Path(jumpfilter.__file__).parent.glob("*.py"))
    assert sources
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:  # not an import, or a relative one: the package itself
                continue
            for name in names:
                assert name.split(".")[0] in ALLOWED, f"{source.name} imports {name}"
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    dependencies = re.search(r"^dependencies = (\[.*?\])", pyproject, re.M | re.S).group(1)
    assert ast.literal_eval(dependencies) == ["numpy>=1.24"]
