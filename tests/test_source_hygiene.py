"""Nothing in the package is written and then never read.

Three checks, with the standard library's ast only.  Over every module of
src/coarsedim except __init__.py (whose imports are the package's exports):

* a module-level import binds a name that the module never loads;
* a function assigns a local name that nothing in the function (nested
  functions included) loads.  Names starting with "_" are exempt, as the
  conventional "unused on purpose" marker.

Over the package as a whole, __init__.py included:

* a module defines a private top-level function, class or constant (one
  name starting with a single "_") that no module of the package loads,
  imports or reads as an attribute.

And one check that keeps a single document writer: no module but formats
calls json.dump or json.dumps with an indent (formats.dumps writes every
document; compact one-line records, such as the CLI's error records, are
fine).  Another keeps the scalar, index and count rules written once: no
module but metric calls isinstance with bool (check_scalar, check_index,
check_indices and check_count tell a bool from an int for every caller).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coarsedim"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _loaded(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _stored_in_scope(func: ast.AST) -> list[ast.Name]:
    """Names stored in the function's own body, not in a nested def or
    lambda (those are scopes of their own and are checked as such)."""
    out = []
    todo = list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                             ast.ClassDef)):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.append(node)
        todo.extend(ast.iter_child_nodes(node))
    return out


def findings(source: str) -> list[str]:
    """One line per finding, in source order; a local name is reported once,
    at its first assignment."""
    tree = ast.parse(source)
    out = []
    module_loads = _loaded(tree)
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in module_loads:
                    out.append((stmt.lineno, f"import {bound!r} is never used"))
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        loads = _loaded(func)
        first: dict[str, int] = {}
        for name in _stored_in_scope(func):
            if not name.id.startswith("_") and name.id not in loads:
                first[name.id] = min(name.lineno, first.get(name.id, name.lineno))
        out.extend((line, f"{func.name} assigns {name!r} and never reads it")
                   for name, line in first.items())
    return [f"line {line}: {message}" for line, message in sorted(out)]


def _private_definitions(tree: ast.Module) -> list[tuple[int, str]]:
    out = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((stmt.lineno, stmt.name))
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            out.extend((stmt.lineno, n.id) for t in targets for n in ast.walk(t)
                       if isinstance(n, ast.Name))
    return [(line, name) for line, name in out
            if name.startswith("_") and not name.startswith("__")]


def _referenced(tree: ast.Module) -> set[str]:
    out = _loaded(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def unreferenced_private(sources: dict[str, str]) -> list[str]:
    """One line per private top-level name, by module and line, that no
    module of `sources` (file name -> source) references."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    referenced = set().union(*map(_referenced, trees.values()))
    return [f"{module} line {line}: {name} is never referenced"
            for module, tree in sorted(trees.items())
            for line, name in _private_definitions(tree) if name not in referenced]


def test_the_checker_finds_both_kinds():
    source = (
        "from __future__ import annotations\n"
        "import os, json\n"
        "from typing import Sequence as Seq\n"
        "def f(xs):\n"
        "    total = 0\n"
        "    for x in xs:\n"
        "        total += x\n"
        "    kept = 1\n"
        "    _, spare = divmod(kept, 2)\n"
        "    def g():\n"
        "        return kept\n"
        "    return json.dumps(g())\n")
    assert findings(source) == [
        "line 2: import 'os' is never used",
        "line 3: import 'Seq' is never used",
        "line 5: f assigns 'total' and never reads it",
        "line 9: f assigns 'spare' and never reads it",
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_nothing_is_written_and_never_read(path):
    assert findings(path.read_text(encoding="utf-8")) == []


def test_the_checker_finds_unreferenced_private_names():
    sources = {
        "a.py": ("_LIMIT = 3\n"
                 "_SPARE: int = 4\n"
                 "__all__ = []\n"
                 "def _masks(m):\n"
                 "    return _LIMIT\n"
                 "def _near_masks(m):\n"
                 "    return m\n"
                 "def _imported():\n"
                 "    pass\n"
                 "def _as_attribute():\n"
                 "    pass\n"
                 "class _Old:\n"
                 "    pass\n"
                 "def public():\n"
                 "    return _masks(0)\n"),
        "b.py": ("from . import a\n"
                 "from .a import _imported\n"
                 "def f():\n"
                 "    return a._as_attribute, _imported\n"),
    }
    assert unreferenced_private(sources) == [
        "a.py line 2: _SPARE is never referenced",
        "a.py line 6: _near_masks is never referenced",
        "a.py line 12: _Old is never referenced",
    ]


def test_every_private_name_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private(sources) == []


def indented_json_writes(source: str) -> list[str]:
    """One line per call of json.dump or json.dumps, under any import name,
    that passes an indent."""
    tree = ast.parse(source)
    return [f"line {node.lineno}: {ast.unparse(node.func)} with an indent"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (node.func.attr if isinstance(node.func, ast.Attribute)
                 else getattr(node.func, "id", None)) in ("dump", "dumps")
            and any(k.arg == "indent" for k in node.keywords)]


def test_the_checker_finds_indented_json_writes():
    source = ("import json\n"
              "from json import dumps\n"
              "def f(d, fh):\n"
              "    fh.write(json.dumps(d, ensure_ascii=False))\n"
              "    json.dump(d, fh, indent=2)\n"
              "    return dumps(d, indent=None), json.dumps(d, indent=4)\n")
    assert indented_json_writes(source) == [
        "line 5: json.dump with an indent",
        "line 6: dumps with an indent",
        "line 6: json.dumps with an indent",
    ]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "formats.py"],
                         ids=[p.name for p in MODULES if p.name != "formats.py"])
def test_documents_have_one_writer(path):
    assert indented_json_writes(path.read_text(encoding="utf-8")) == []


def bool_tests(source: str) -> list[str]:
    """One line per isinstance call whose class argument is bool or a
    tuple holding it."""
    tree = ast.parse(source)
    return [f"line {node.lineno}: {ast.unparse(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
            and len(node.args) == 2 and "bool" in _loaded(node.args[1])]


def test_the_checker_finds_bool_tests():
    source = ("def f(x, y):\n"
              "    if isinstance(x, bool):\n"
              "        return isinstance(y, (int, bool))\n"
              "    return isinstance(x, int) or isinstance(bool, type)\n")
    assert bool_tests(source) == [
        "line 2: isinstance(x, bool)",
        "line 3: isinstance(y, (int, bool))",
    ]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "metric.py"],
                         ids=[p.name for p in MODULES if p.name != "metric.py"])
def test_only_metric_tells_a_bool_from_an_int(path):
    assert bool_tests(path.read_text(encoding="utf-8")) == []
