"""Every top-level import of a module of the package is used in it.

The package's __init__.py is left out: its imports are the re-exports of
the public names.  A name counts as used when it appears anywhere in the
module outside the import statements, as a name or as the base of an
attribute.
"""

import ast
from pathlib import Path

import pytest

import rescal

MODULES = sorted(p for p in Path(rescal.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                imported[alias.asname or alias.name.split(".")[0]] = stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                imported[alias.asname or alias.name] = stmt.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom json import dumps, loads\nprint(loads)\n") == ["os (line 1)", "dumps (line 2)"]
