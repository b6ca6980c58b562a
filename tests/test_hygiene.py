"""Every module-level import and definition in the package is used, and
every private method,
every config key reaches a method runner, every command-line option
is passed by some test, each monotone method names a sampler of its own,
and the monotone module builds each dominance mask through its one
primitive.

The package has no linter in its build, so these scans are its lint gate.
``__init__.py`` is skipped by the import scan because its imports are
re-exports.
"""

import argparse
import ast
import collections
import pathlib

import pytest

from rarebound import cli

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "rarebound"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _listed_in_all(tree):
    """The strings of a module-level ``__all__``."""
    return {c.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            for c in ast.walk(node.value)
            if isinstance(c, ast.Constant) and isinstance(c.value, str)}


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
    used |= _listed_in_all(tree)
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def _references(node):
    """How often each name is read, as a variable or an attribute."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)))


def _definitions(tree):
    """(name, node) of each module-level function and class, and of each
    private method: every method of a class whose name starts with an
    underscore, and underscore methods of the others.  Dunder methods are
    called by Python itself, so they are left out."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from (
                (f"{node.name}.{item.name}", item) for item in node.body
                if isinstance(item, ast.FunctionDef)
                and not item.name.startswith("__")
                and (node.name.startswith("_") or item.name.startswith("_")))


def unreferenced_definitions(sources):
    """Module-level functions and classes, and private methods (see
    ``_definitions``), that no other code reads.

    ``sources`` maps a module name to its text.  A definition counts as
    used when its name is read outside its own body anywhere in the
    sources, as a variable or an attribute, or listed in the ``__all__``
    of ``__init__.py``, the package's public interface.  A module's own
    ``__all__`` does not count, so it cannot hide a definition that
    nothing reaches.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    reads = sum((_references(t) for t in trees.values()), collections.Counter())
    exported = _listed_in_all(ast.parse(sources.get("__init__.py", "")))
    return sorted(
        f"{module}: {name} (line {node.lineno})"
        for module, tree in trees.items() for name, node in _definitions(tree)
        if name not in exported
        and reads[node.name] <= _references(node)[node.name])


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


def test_scan_finds_unreferenced_definitions():
    sources = {
        "__init__.py": "from .a import api\n__all__ = ['api']\n",
        "a.py": "__all__ = ['api', 'listed']\n"
                "def api():\n    return _helper()\n"
                "def _helper():\n    return 1\n"
                "def _recursive(n):\n    return _recursive(n - 1)\n"
                "def listed():\n    return 2\n",
        "b.py": "class Used:\n    pass\n"
                "class Unused:\n    pass\n"
                "def caller(m):\n    return m.Used()\n",
    }
    # listed() is in a module __all__ but not the package's: still dead
    assert unreferenced_definitions(sources) == [
        "a.py: _recursive (line 6)", "a.py: listed (line 8)",
        "b.py: Unused (line 3)", "b.py: caller (line 5)"]


def test_scan_finds_unreferenced_methods():
    # gain is read only by tests, which the scan does not see; a public
    # method of a public class is API, and a dunder is Python's to call
    sources = {
        "__init__.py": "from .m import api, Region\n__all__ = ['api', 'Region']\n",
        "m.py": "class _Staircase2:\n"
                "    def __init__(self):\n        self.h = 0\n"
                "    def columns(self):\n        return self._below()\n"
                "    def _below(self):\n        return self.h\n"
                "    def gain(self):\n        return self.gain()\n"
                "class Region:\n"
                "    def contains(self):\n        return 1\n"
                "    def _used(self):\n        return 2\n"
                "    def _unused(self):\n        return 3\n"
                "def api():\n    return _Staircase2().columns() + Region()._used()\n",
    }
    assert unreferenced_definitions(sources) == [
        "m.py: Region._unused (line 15)", "m.py: _Staircase2.gain (line 8)"]


def test_every_definition_is_referenced():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_definitions(sources) == []


def _broadcast_index(node):
    """True for a subscript that inserts an axis, as in ``P[:, None, :]``."""
    if not isinstance(node, ast.Subscript):
        return False
    index = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
    return any((isinstance(e, ast.Constant) and e.value is None)
               or getattr(e, "attr", None) == "newaxis" for e in index)


def broadcast_reductions(source, allowed="_dominated"):
    """Lines of ``np.all`` or ``.all`` calls over an operand with an inserted
    axis, a broadcast dominance tensor, outside the function ``allowed``."""
    tree = ast.parse(source)
    inside = {id(n) for f in ast.walk(tree)
              if isinstance(f, ast.FunctionDef) and f.name == allowed
              for n in ast.walk(f)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in inside
                  and getattr(node.func, "attr", None) == "all"
                  and any(_broadcast_index(n) for n in ast.walk(node)))


def test_scan_finds_broadcast_reductions():
    source = ("import numpy as np\n"
              "def _dominated(X, G):\n"
              "    return np.all(X[:, None, :] <= G[None], axis=2)\n"
              "def f(P, x):\n"
              "    a = np.all(P[:, None, :] <= P[None, :, :], axis=2)\n"
              "    b = (P >= x[np.newaxis, :]).all(axis=1)\n"
              "    c = np.all((P >= 0.0) & (P <= 1.0))\n"
              "    return np.any(P[:, None] <= x) and P[0].all()\n")
    assert broadcast_reductions(source) == [5, 6]


def test_dominance_masks_go_through_one_primitive():
    assert broadcast_reductions((PACKAGE / "monotone.py").read_text()) == []


def unread_option_fields(source):
    """Fields of the ``*Options`` classes that no ``_run_*`` function reads.

    A field counts as read when a runner reads an attribute of its name;
    its declaration in the class body does not count.
    """
    tree = ast.parse(source)
    read = {n.attr for node in tree.body if isinstance(node, ast.FunctionDef)
            and node.name.startswith("_run_") for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return sorted(
        f"{node.name}.{stmt.target.id} (line {stmt.lineno})"
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name.endswith("Options")
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and stmt.target.id not in read)


def test_scan_finds_unread_option_fields():
    source = ("class AOptions:\n    used: int = 0\n    unused: int = 0\n"
              "    written: int = 0\n"
              "class Other:\n    free: int = 0\n"
              "def _run_a(cfg):\n    cfg.a.written = cfg.a.used\n"
              "def report(cfg):\n    return cfg.a.unused\n")
    assert unread_option_fields(source) == [
        "AOptions.unused (line 3)", "AOptions.written (line 4)"]


def test_every_config_key_reaches_a_runner():
    assert unread_option_fields((PACKAGE / "cli.py").read_text()) == []


def accepted_samplers(source):
    """The names ``sequential_bounder`` accepts, from its check of the form
    ``sampler not in (...)``."""
    fn = next(n for n in ast.walk(ast.parse(source))
              if isinstance(n, ast.FunctionDef) and n.name == "sequential_bounder")
    return {c.value for n in ast.walk(fn)
            if isinstance(n, ast.Compare) and getattr(n.left, "id", None) == "sampler"
            and isinstance(n.ops[0], ast.NotIn)
            for c in n.comparators[0].elts}


def test_scan_finds_accepted_samplers():
    source = ("def sequential_bounder(f, sampler='a'):\n"
              "    if sampler == 'c':\n        pass\n"
              "    if sampler not in ('a', 'b'):\n        raise ValueError\n")
    assert accepted_samplers(source) == {"a", "b"}


def test_each_monotone_method_names_its_own_sampler():
    # one method per sampler, and every sampler reachable by one, so a
    # second name for one sampler cannot come back
    samplers = list(cli._SAMPLERS.values())
    assert len(set(samplers)) == len(samplers)
    assert set(samplers) == accepted_samplers(
        (PACKAGE / "monotone.py").read_text())


def cli_options(parser):
    """(subcommand, option string) of every optional argument."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return sorted((name, option) for name, subparser in sub.choices.items()
                  for action in subparser._actions
                  for option in action.option_strings
                  if option not in ("-h", "--help"))


def exercised_options(sources):
    """(subcommand, option) pairs passed in literal ``main([...])`` calls.

    The first string of the list is the subcommand; every later string
    that starts with a dash counts as an option, ``--name=value`` by its
    name.
    """
    out = set()
    for text in sources:
        for node in ast.walk(ast.parse(text)):
            if not (isinstance(node, ast.Call) and node.args
                    and isinstance(node.args[0], ast.List)
                    and getattr(node.func, "id",
                                getattr(node.func, "attr", None)) == "main"):
                continue
            words = [e.value for e in node.args[0].elts
                     if isinstance(e, ast.Constant) and isinstance(e.value, str)]
            out |= {(words[0], w.split("=", 1)[0]) for w in words[1:]
                    if w.startswith("-")}
    return out


def test_scan_finds_cli_options():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers()
    sub.add_parser("go").add_argument("--fast", "-f")
    sub.add_parser("stop")
    assert cli_options(parser) == [("go", "--fast"), ("go", "-f")]
    source = ("main(['go', path, '--fast=1'])\n"
              "cli.main(['stop', '-f', '-3'])\n"
              "main(argv + ['--slow'])\nother(['go', '-f'])\n")
    assert exercised_options([source]) == {
        ("go", "--fast"), ("stop", "-f"), ("stop", "-3")}


def test_every_cli_option_is_exercised():
    sources = [p.read_text() for p in sorted(TESTS.glob("test_*.py"))]
    exercised = exercised_options(sources)
    assert [pair for pair in cli_options(cli._build_parser())
            if pair not in exercised] == []
