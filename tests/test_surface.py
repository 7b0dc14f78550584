"""Every public name of the library has a caller or is named API.

Each public top-level ``def`` or ``class`` of ``src/weylpairs`` must be named
(as a name or an attribute) somewhere in ``src/weylpairs`` outside its own
definition, or be imported by ``weylpairs/__init__.py``.  Each public method
of a top-level class must be reached as ``.name`` somewhere in
``src/weylpairs`` outside its own definition.  Code that only the tests use
belongs in ``tests/conftest.py``.
"""

import ast
import importlib
import runpy
from collections import Counter
from pathlib import Path

from weylpairs.weyl import reflection_group

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


def test_traced_memos_are_reflection_group_attributes():
    # bench/tracing.py sizes these ReflectionGroup dicts by name for the
    # weyl.*.size metrics of `bench/run.py --trace 1`; it imports only the
    # standard library
    tracing = runpy.run_path(str(SRC.parent.parent / "bench" / "tracing.py"))
    group = reflection_group("B3")
    assert tracing["MEMOS"]
    for name in tracing["MEMOS"]:
        len(getattr(group, name))  # raises if the name is gone or unsized


def test_the_laplace_minor_memo_is_gone():
    # every shifted minor Delta^J_I(A + lambda), and so every colinearity sum,
    # is read off the exterior-power sweep; the Laplace expansion lives on as
    # tests/conftest.py's laplace_minors
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        for name in ("_laplace_terms", "_shifted_minors", "_generic_minors"):
            assert name not in text, (path.name, name)


def test_one_index_for_the_exterior_algebra():
    # the d-subsets, their positions and the sign of e_J wedge e_i come from
    # poly._wedge_table alone; normalize_plucker_indices lives on as
    # tests/conftest.py's reference
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        for name in ("normalize_plucker_indices", "_wedge_plan"):
            assert name not in text, (path.name, name)
    definitions = [
        (module, node.name)
        for module, tree in _parse(SRC).items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_wedge_table"
    ]
    assert definitions == [("poly.py", "_wedge_table")]


def _callers(name):
    """(module, function) of each top-level function that calls ``name``."""
    return {
        (module, stmt.name)
        for module, tree in _parse(SRC).items()
        for stmt in tree.body
        if isinstance(stmt, ast.FunctionDef)
        if any(isinstance(node, ast.Call) and name in _names(node.func)
               for node in ast.walk(stmt))
    }


def test_the_sampler_solves_no_linear_system():
    # cell points are b1 . (P_w B, Y) with Y drawn directly and b1^{-1} from
    # b1's triangular adjugate, so integer kernels serve only the span tests
    # and Gauss-Jordan only rank, kernels and independent subsets; the
    # general inverse lives on as tests/conftest.py's scaled_inverse
    text = (SRC / "varieties.py").read_text()
    for name in ("_sample_cell_point", "integer_kernel"):
        assert name not in text, name
    for path in sorted(SRC.glob("*.py")):
        assert "scaled_inverse" not in path.read_text(), path.name
    assert _callers("integer_kernel") == {("linalg.py", "span_mask")}
    assert _callers("_gauss_jordan") == {
        ("linalg.py", "rank"), ("linalg.py", "integer_kernel"),
        ("linalg.py", "independent_subset"),
    }


# traced targets the library no longer defines: bench/tracing.py skips them,
# and their metrics read 0 until its lists drop them (ROADMAP item 1)
GONE_TRACE_TARGETS = {
    ("linalg", "in_span"), ("linalg", "kernel_basis"), ("linalg", "det"),
    ("linalg", "mat_inverse"), ("weyl", "_sorted_prefixes"),
    ("varieties", "_cached_sample_assignment"),
}


def test_traced_targets_have_the_shape_the_tracer_needs():
    # `bench/run.py --trace 1` wraps every FUNCTIONS target it finds and every
    # METHODS target in its class's own __dict__, and reads cache_info() of
    # every CACHES target it finds; a target of the wrong shape crashes it
    tracing = runpy.run_path(str(SRC.parent.parent / "bench" / "tracing.py"))
    gone = set()
    for mod, attr in [*tracing["FUNCTIONS"].values(), *tracing["CACHES"]]:
        target = getattr(importlib.import_module("weylpairs." + mod), attr, None)
        if target is None:
            gone.add((mod, attr))
            continue
        assert callable(target), (mod, attr)
        if (mod, attr) in tracing["CACHES"]:
            assert callable(target.cache_info), (mod, attr)
    assert gone == GONE_TRACE_TARGETS
    for mod, classes, attrs in tracing["METHODS"].values():
        module = importlib.import_module("weylpairs." + mod)
        for cls_name in classes:
            for attr in attrs:
                assert callable(vars(getattr(module, cls_name))[attr]), (cls_name, attr)
