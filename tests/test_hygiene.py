"""Every module-level import in the package is used.

The package has no linter in its build, so this scan is its lint gate.
``__init__.py`` is skipped because its imports are re-exports.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "rarebound"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # names listed in __all__ are exported, which counts as a use
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_scan_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path\nimport sys as system\n"
              "from typing import List, Tuple\n"
              "__all__ = ['Tuple']\n"
              "def f(x: List[int]):\n    return system.argv\n")
    assert unused_imports(source) == ["os (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
