"""The package and its scripts parse as Python 3.10, the oldest supported."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("scripts/**/*.py")])


def test_sources_found():
    assert {path.name for path in SOURCES} >= {"cli.py", "fields.py", "desk_checks.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_parses_as_python_3_10(path):
    """Catches syntax newer than 3.10 (``except*``, PEP 695 type parameters,
    ...) only: ``feature_version`` does not see a newer library call, such
    as a function added to the standard library in 3.11."""
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
