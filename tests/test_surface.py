"""Every public name of the library has a caller or is named API.

Each public top-level ``def`` or ``class`` of ``src/weylpairs`` must be named
(as a name or an attribute) somewhere in ``src/weylpairs`` outside its own
definition, or be imported by ``weylpairs/__init__.py``.  Each public method
of a top-level class must be reached as ``.name`` somewhere in
``src/weylpairs`` outside its own definition.  Code that only the tests use
belongs in ``tests/conftest.py``.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "weylpairs"


def _parse(package):
    """Module file name -> syntax tree, for every module of ``package``."""
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(package.glob("*.py"))}


def _names(node):
    """Every identifier that a node and its children read or look up."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def uncalled_public_names(package):
    """(module, name) of each public top-level def or class of ``package``
    that nothing else in it names and that its ``__init__`` does not import."""
    trees = _parse(package)
    exported = {
        alias.asname or alias.name
        for node in ast.walk(trees["__init__.py"]) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    # the names each top-level statement reads, one entry per statement
    statements = [(module, stmt, set(_names(stmt)))
                  for module, tree in trees.items() for stmt in tree.body]
    out = []
    for module, stmt, _ in statements:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        name = stmt.name
        if name.startswith("_") or name in exported:
            continue
        if not any(other is not stmt and name in names for _, other, names in statements):
            out.append((module, name))
    return out


def unreached_public_methods(package):
    """(module, class, method) of each public method of a top-level class of
    ``package`` that no ``.name`` attribute outside its own body reaches."""
    trees = _parse(package)
    reached = Counter(node.attr for tree in trees.values()
                      for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    out = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if (isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not method.name.startswith("_")):
                    inside = sum(1 for node in ast.walk(method)
                                 if isinstance(node, ast.Attribute) and node.attr == method.name)
                    if reached[method.name] == inside:
                        out.append((module, cls.name, method.name))
    return out


def test_every_public_name_has_a_caller_or_is_exported():
    assert uncalled_public_names(SRC) == []


def test_every_public_method_is_reached():
    assert unreached_public_methods(SRC) == []


def test_the_search_finds_an_uncalled_name(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import exported\n")
    (tmp_path / "a.py").write_text(
        "def exported(): pass\n"
        "def called(): pass\n"
        "def recursive(): return recursive()\n"
        "class Orphan: pass\n"
        "def _private(): pass\n"
    )
    (tmp_path / "b.py").write_text("from . import a\n\ndef user(): return a.called()\n")
    assert uncalled_public_names(tmp_path) == [
        ("a.py", "recursive"), ("a.py", "Orphan"), ("b.py", "user"),
    ]


def test_the_search_finds_an_unreached_method(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import Thing\n")
    (tmp_path / "a.py").write_text(
        "class Thing:\n"
        "    def used(self): pass\n"
        "    def recursive(self): return self.recursive()\n"
        "    def orphan(self): pass\n"
        "    def _private(self): pass\n"
        "    @property\n"
        "    def size(self): return 0\n"
    )
    (tmp_path / "b.py").write_text("def user(t): return t.used(), t.size\n")
    assert unreached_public_methods(tmp_path) == [
        ("a.py", "Thing", "recursive"), ("a.py", "Thing", "orphan"),
    ]
