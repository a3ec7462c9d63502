"""README.md cites only tests and names that exist.

Every ``tests/*.py`` path that README names is a file, and every ``test_*``
name it gives is a test function defined in one of those files, so a renamed
or deleted test fails here instead of leaving a stale citation. Likewise
every backticked ``<module>.<name>`` of a package module is defined there.
"""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_cites_only_tests_that_exist():
    readme = (ROOT / "README.md").read_text()
    paths = set(re.findall(r"\btests/[\w/]+\.py\b", readme))
    # a name followed by ".py" is a module, cited by its path above
    names = set(re.findall(r"\btest_\w+\b(?!\.py)", readme))
    assert paths and names
    assert sorted(p for p in paths if not (ROOT / p).is_file()) == []
    defined = {name for source in (ROOT / "tests").glob("*.py")
               for name in re.findall(r"^\s*def (test_\w+)", source.read_text(), re.M)}
    assert sorted(names - defined) == []


# the package modules that README cites names of, as `<module>.<name>`
MODULES = ("chain", "kernels", "signalpath", "harness", "oracle", "fanout", "seeding", "zakai",
           "wonham")


def test_readme_cites_only_names_the_modules_define():
    # fenced code blocks would pair their backticks with the spans after them
    readme = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    # not the path of a module file (".../oracle.py") or a longer dotted name
    name = re.compile(rf"(?<![\w/.])({'|'.join(MODULES)})\.([A-Za-z_]\w*)")
    cited = {pair for span in re.findall(r"`([^`]+)`", readme) for pair in name.findall(span)}
    assert cited
    assert sorted(f"{module}.{attr}" for module, attr in cited
                  if not hasattr(importlib.import_module(f"jumpfilter.{module}"), attr)) == []
