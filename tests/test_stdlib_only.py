"""The runtime imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "doortodoor").glob("*.py"))


def imported_modules(tree):
    """Top-level names of the modules a parsed file imports; relative
    imports name the package itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "doortodoor" if node.level else node.module.partition(".")[0]


@pytest.mark.parametrize("source", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_are_standard_library(source):
    modules = set(imported_modules(ast.parse(source.read_text(encoding="utf-8"))))
    assert modules - sys.stdlib_module_names - {"doortodoor"} == set()


def test_every_source_is_checked():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "model.py"}
