"""No floating point in the library.

Roots, forms and points are plain ``int``, and ``/`` between two ints yields
a float, so the library divides only through ``//``, ``divmod`` or
``Fraction``.  Every module of ``src/weylpairs`` is parsed and searched for a
true division (``/`` or ``/=``), a float literal or the name ``float``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "weylpairs"
MODULES = sorted(SRC.glob("*.py"))


def float_sites(path):
    """(line, what) for every floating-point construct in one module."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division"
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, "float literal"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "the name float"


def test_every_module_is_searched():
    names = {p.name for p in MODULES}
    assert {"roots.py", "weyl.py", "linalg.py", "poly.py", "varieties.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_floating_point(path):
    assert [f"{path.name}:{line}: {what}" for line, what in float_sites(path)] == []


def test_the_search_finds_each_construct(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("a = 1 / 2\na /= 3\nb = 0.5\nc = float(1)\nd = 7 // 2\n")
    assert sorted(float_sites(module)) == [
        (1, "true division"), (2, "true division"), (3, "float literal"), (4, "the name float"),
    ]
