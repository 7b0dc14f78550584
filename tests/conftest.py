import itertools
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from weylpairs.weyl import Permutation, reflection_group, symmetric_group  # noqa: E402


def reference_kernel(m, ncols):
    """Textbook reference: Fraction row reduction to echelon form, then
    back substitution with 1 in one free column and 0 in the others.
    Returns (basis, rank)."""
    rows = [[Fraction(x) for x in row] for row in m]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        for r in reversed(range(len(pivots))):
            pc = pivots[r]
            s = sum(rows[r][j] * x[j] for j in range(pc + 1, ncols))
            x[pc] = -s / rows[r][pc]
        basis.append(tuple(x))
    return basis, len(pivots)


def all_perms(n):
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


@pytest.fixture(scope="session")
def s3():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def s4():
    return symmetric_group(4)


@pytest.fixture(scope="session")
def s5():
    return symmetric_group(5)


@pytest.fixture(scope="session")
def b2():
    return reflection_group("B2")


@pytest.fixture(scope="session")
def b3():
    return reflection_group("B3")


@pytest.fixture(scope="session")
def g2():
    return reflection_group("G2")


def bruhat_closure_oracle(group):
    """u <= w iff w is reachable from u by length-increasing reflection
    multiplications; computed by BFS, independent of the library order."""
    elements = group.elements_by_length()
    refl = [s for _, s in group.reflections()]
    below = {}
    for u in elements:
        reach = {u}
        frontier = [u]
        while frontier:
            nxt = []
            for v in frontier:
                lv = group.length(v)
                for s in refl:
                    z = group.mul(s, v)
                    if z not in reach and group.length(z) > lv:
                        reach.add(z)
                        nxt.append(z)
            frontier = nxt
        below[u] = reach
    return below
