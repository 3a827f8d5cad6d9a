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
And one keeps a single way out of a space's integer rows: no module but
metric calls Fraction with a denominator that is not a literal
(FiniteMetricSpace._scalar turns every integer entry into its distance).
One keeps a single search core: estimation._serve_groups is called from
estimation._search alone, which both estimators run; and one a single
measurement core: covers._measure is called from covers.certify and
covers.verify_certificate alone.  And one keeps the
Python floor that pyproject.toml declares: every module of the package and
of the tests parses with that version's grammar.  One keeps one rule for
what a core object keeps: object.__setattr__ is called in metric alone,
by the rule (_no_reassignment) and the constructors' helper (_construct),
the rule is the __setattr__ of every core class, and _no_deletion is its
__delattr__.  The last pins the package's public names, coarsedim.__all__.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "coarsedim"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PACKAGE_SOURCES = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}


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
    assert unreferenced_private(PACKAGE_SOURCES) == []


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


def _is_literal(node: ast.AST) -> bool:
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return True


def computed_fractions(source: str) -> list[str]:
    """One line per call of Fraction (or fractions.Fraction) whose
    denominator is not a literal: a second positional argument, the
    denominator keyword, or what a starred argument may hold."""
    tree = ast.parse(source)
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and (node.func.attr if isinstance(node.func, ast.Attribute)
                     else getattr(node.func, "id", None)) == "Fraction"):
            continue
        starred = [a for a in node.args if isinstance(a, ast.Starred)]
        denominators = starred + node.args[1:] + [k.value for k in node.keywords
                                                  if k.arg in ("denominator", None)]
        if not all(map(_is_literal, denominators)):
            out.append((node.lineno, node.col_offset, ast.unparse(node)))
    return [f"line {line}: {call}" for line, _, call in sorted(out)]


def test_the_checker_finds_computed_fractions():
    source = ("import fractions\n"
              "from fractions import Fraction\n"
              "def f(k, scale, pair, text):\n"
              "    half, third = Fraction(1, 2), Fraction(-1, -3)\n"
              "    whole = Fraction(text) + Fraction(k) + Fraction(2, denominator=5)\n"
              "    a = Fraction(k, scale) + fractions.Fraction(1, scale)\n"
              "    return a + Fraction(1, denominator=k) + Fraction(*pair)\n")
    assert computed_fractions(source) == [
        "line 6: Fraction(k, scale)",
        "line 6: fractions.Fraction(1, scale)",
        "line 7: Fraction(1, denominator=k)",
        "line 7: Fraction(*pair)",
    ]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "metric.py"],
                         ids=[p.name for p in MODULES if p.name != "metric.py"])
def test_only_metric_computes_a_fraction(path):
    assert computed_fractions(path.read_text(encoding="utf-8")) == []


def calls_of(function: str, sources: dict[str, str]) -> list[str]:
    """One line per call of the named function, naming the module (file name
    -> source) and the top-level definition it sits in, or <module>.  A
    call matches when its callee is written as the name or ends in "." and
    the name, so a private function matches under any import name and
    "object.__setattr__" matches that method of object alone."""
    out = []
    for module, text in sorted(sources.items()):
        for top in ast.parse(text).body:
            where = getattr(top, "name", "<module>")
            out.extend(f"{module}: {where}" for node in ast.walk(top)
                       if isinstance(node, ast.Call)
                       and f".{ast.unparse(node.func)}".endswith(f".{function}"))
    return out


def test_the_checker_finds_serve_group_calls():
    sources = {
        "a.py": ("def _serve_groups(needs):\n"
                 "    return needs\n"
                 "def _search(needs):\n"
                 "    return _serve_groups(needs)\n"
                 "def greedy(needs):\n"
                 "    step = _serve_groups\n"
                 "    return [_serve_groups(n) for n in needs], step\n"),
        "b.py": ("from . import a\n"
                 "FIRST = a._serve_groups(0)\n"
                 "class Search:\n"
                 "    def run(self):\n"
                 "        return a._serve_groups(1)\n"
                 "    def _serve_groups_twice(self):\n"
                 "        return a._search(a._serve_groups), my_serve_groups(2)\n"),
    }
    assert calls_of("_serve_groups", sources) == [
        "a.py: _search", "a.py: greedy", "b.py: <module>", "b.py: Search",
    ]
    assert calls_of("_search", sources) == ["b.py: Search"]


def test_one_search_core():
    assert calls_of("_serve_groups", PACKAGE_SOURCES) == ["estimation.py: _search"]


def test_one_measurement_core():
    # certify and verify_certificate take a cover's dimension, Lebesgue
    # number and mesh from covers._measure, and nothing else measures for
    # them.
    assert calls_of("_measure", PACKAGE_SOURCES) == ["covers.py: certify",
                                                     "covers.py: verify_certificate"]


FLOOR = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                                 (ROOT / "pyproject.toml").read_text(encoding="utf-8"))
                  .groups()))
FLOOR_MODULES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def above_floor(source: str, floor: tuple[int, int] = FLOOR) -> list[str]:
    """The syntax error, as one line, of parsing the source with the grammar
    of Python `floor`; none if it parses."""
    try:
        ast.parse(source, feature_version=floor)
    except SyntaxError as exc:
        return [f"line {exc.lineno}: {exc.msg}"]
    return []


def test_the_checker_finds_syntax_above_the_floor():
    assert FLOOR == (3, 10)
    match = ("match point:\n"
             "    case (x, y):\n"
             "        pass\n")
    groups = ("try:\n"
              "    pass\n"
              "except* ValueError:\n"
              "    pass\n")
    assert above_floor(match) == []
    assert above_floor(match, (3, 9)) != []
    assert len(above_floor(groups)) == 1    # the message differs by version


@pytest.mark.parametrize("path", FLOOR_MODULES,
                         ids=[f"{p.parent.name}/{p.name}" for p in FLOOR_MODULES])
def test_every_module_parses_at_the_floor(path):
    assert above_floor(path.read_text(encoding="utf-8")) == []


def test_the_checker_finds_setattr_calls():
    sources = {
        "a.py": ("def _rule(self, name, value):\n"
                 "    object.__setattr__(self, name, value)\n"
                 "class Space:\n"
                 "    def __init__(self, points):\n"
                 "        object.__setattr__(self, 'points', points)\n"
                 "        setattr(self, 'name', 'x')\n"),
        "b.py": "object.__setattr__(FLAG, 'on', True)\n",
    }
    assert calls_of("object.__setattr__", sources) == [
        "a.py: _rule", "a.py: Space", "b.py: <module>"]


def test_one_rule_for_what_a_core_object_keeps():
    assert calls_of("object.__setattr__", PACKAGE_SOURCES) == [
        "metric.py: _no_reassignment", "metric.py: _construct"]
    import coarsedim
    from coarsedim.metric import _no_deletion, _no_reassignment
    core = ("FiniteMetricSpace", "FiniteGroup", "IsometricAction", "Cover")
    assert {name: (getattr(coarsedim, name).__setattr__, getattr(coarsedim, name).__delattr__)
            for name in core} == dict.fromkeys(core, (_no_reassignment, _no_deletion))


def test_public_names_match_inventory():
    # Adding or removing a public name means editing this list.
    import coarsedim
    assert sorted(coarsedim.__all__) == [
        "CapExceededError", "Cover", "CoverCertificate", "DimensionProfile",
        "EXACT_POINT_CAP", "FORMAT_TAG", "FamilyProfile", "FiniteGroup",
        "FiniteMetricSpace", "FormatError", "GapReport", "GeneratedInstance", "INF",
        "Infeasible", "InternalInvariantError", "IsometricAction", "LiftMember",
        "LiftPiece", "LiftTrace", "PipelineResult", "ProfileEntry", "QuotientSpace",
        "ResolutionError", "Scalar", "Violation", "Workspace", "asdim_profile", "ball",
        "ball_meet_count", "build_graph_metric", "cayley_ball_space", "certify",
        "check_equivariance", "constructions", "coset_representatives", "covers",
        "cycle_reflection_action", "cycle_rotation_action", "cycle_space",
        "cyclic_group", "diameter", "dihedral_group", "dimension",
        "displacement_subgroup", "dumps", "equivariant_cover_pipeline", "errors",
        "estimation", "family_profile", "formats", "generate_instance",
        "generated_subgroup", "generators", "greedy_cover", "grid_rotation_action",
        "grid_space", "groups", "is_subgroup", "lebesgue_number", "lift_equivariant",
        "load_entry", "mesh", "metric", "min_dimension_cover_exact", "orbits",
        "parse_document", "parse_scalar", "path_reflection_action", "path_space",
        "pushforward_cover", "quotient", "random_cover", "random_graph_space",
        "random_invariant_instance", "scalar_str", "set_distance", "validate_action",
        "validate_cover", "validate_group", "validate_metric", "verify_certificate"]
