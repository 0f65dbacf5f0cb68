"""The library holds no code that only the tests reach.

A verdict reaches the user through ``tumorsym verify`` and ``orbit``, and
the benchmark drives the same modules; a top-level function or class that
neither the library nor ``bench/`` refers to checks nothing that a verdict
uses.  Test helpers live in ``tests/support.py`` instead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "tumorsym"


def _parse(directory):
    return {path: ast.parse(path.read_text())
            for path in sorted(directory.rglob("*.py"))}


def _is_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _references(tree):
    """(name, top-level statement) for every name and attribute used in
    ``tree``, outside ``__all__``.  Imports bind aliases, not names, so a
    package's re-exports do not count."""
    for stmt in tree.body:
        if _is_all(stmt):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                yield node.id, stmt
            elif isinstance(node, ast.Attribute):
                yield node.attr, stmt


def unreached(library, others):
    """Top-level functions and classes of ``library`` that no statement of
    ``library`` or ``others`` refers to, their own bodies apart."""
    used = {}
    for tree in (*library.values(), *others.values()):
        for name, stmt in _references(tree):
            used.setdefault(name, set()).add(id(stmt))
    return sorted(
        f"{path.relative_to(ROOT)}:{stmt.name}"
        for path, tree in library.items() for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not used.get(stmt.name, set()) - {id(stmt)})


def test_every_library_definition_is_reached_outside_the_tests():
    assert unreached(_parse(LIBRARY), _parse(ROOT / "bench")) == []


def test_the_guard_sees_a_definition_only_a_test_calls():
    library = {LIBRARY / "a.py": ast.parse(
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "class Kept:\n    pass\n\n"
        "__all__ = ['orphan']\n\n"
        "def orphan():\n    return used()\n")}
    bench = {ROOT / "bench" / "b.py": ast.parse(
        "from a import orphan\nimport a\na.Kept()\n")}
    assert unreached(library, bench) == ["src/tumorsym/a.py:orphan",
                                         "src/tumorsym/a.py:recursive"]
