"""The runtime imports nothing outside the standard library, each module
uses every name it imports, and every top-level name is used."""

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


def unused_imports(tree):
    """Names that a parsed module's top-level imports bind and its body never
    names, ``from __future__`` imports aside."""
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


MODULES = [p for p in SOURCES if p.name != "__init__.py"]  # __init__ imports to re-export


@pytest.mark.parametrize("source", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(source):
    assert unused_imports(ast.parse(source.read_text(encoding="utf-8"))) == set()


def test_unused_imports_are_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path, json as j\n"
                     "from typing import List, Optional\n"
                     "def f(x: Optional[int]): return os.path.join(x)\n")
    assert unused_imports(tree) == {"j", "List"}


def dead_names(trees, exported=frozenset()):
    """Top-level names, imports aside, that a parsed module of ``trees``
    defines and no module of them reads, as a loaded ``Name`` or as an
    attribute; ``exported`` names count as read."""
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(name.id for target in targets for name in ast.walk(target)
                               if isinstance(name, ast.Name))
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}
    return defined - read - exported


def test_every_top_level_name_is_used():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}
    exported = {alias.asname or alias.name for node in trees["__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    # __version__ is the package's own, for its users.
    assert dead_names(trees.values(), exported) - {"__version__"} == set()


def test_dead_names_are_found():
    used = ast.parse("import os\n"
                     "LIMIT: int = 3\n"
                     "def f(): return LIMIT + os.sep\n"
                     "class C:\n"
                     "    def g(self): return self.h\n")
    other = ast.parse("A, (B, D) = 1, (2, 3)\n"
                      "def h(): return f()\n"
                      "def kept(): pass\n"
                      "print(A)\n")
    assert dead_names([used, other], exported={"kept"}) == {"C", "B", "D"}


def test_every_source_is_checked():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "model.py"}
