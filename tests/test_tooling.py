"""The Python floor the package declares against its sources and CI matrix.

Parsing with `feature_version` is best effort: it rejects newer syntax such
as `except*`, but not newer library calls, so it does not replace running
the suite on the floor interpreter.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "perfbench")
                 for p in (ROOT / d).rglob("*.py"))


def floor() -> tuple[int, int]:
    """The lowest version in pyproject's `requires-python` line; read with
    a regex because 3.10 has no tomllib."""
    text = (ROOT / "pyproject.toml").read_text()
    m = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.M)
    assert m, "pyproject.toml has no requires-python floor"
    return int(m[1]), int(m[2])


def test_sources_parse_at_the_floor():
    with pytest.raises(SyntaxError):    # the parse does check: except* is 3.11
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))
    assert any(p.name == "sim.py" for p in SOURCES)
    for path in SOURCES:
        ast.parse(path.read_text(), str(path), feature_version=floor())


def test_floor_is_the_lowest_ci_version():
    workflow = (ROOT / ".github/workflows/tier1.yml").read_text()
    m = re.search(r"^\s*python-version:\s*\[([^\]]*)\]", workflow, re.M)
    assert m, "the tier-1 workflow has no python-version matrix"
    versions = [tuple(map(int, v.split(".")))
                for v in re.findall(r'"(\d+\.\d+)"', m[1])]
    assert versions and min(versions) == floor()
