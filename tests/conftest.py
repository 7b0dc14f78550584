import itertools
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from weylpairs.pairs import EnumerationSummary, enumerate_pairs  # noqa: E402
from weylpairs.poly import LAMBDA, SparsePolynomial, t_var, u_var, x_var  # noqa: E402
from weylpairs.roots import subset_leq  # noqa: E402
from weylpairs.weyl import Permutation, reflection_group, symmetric_group  # noqa: E402


# the B4 and D4 Cartan matrices of the crossval benchmark workload
BENCH_CARTAN = {
    "B4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2], [0, 0, -1, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
}


def fraction_mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


def fraction_det(m):
    """Determinant of a nonempty square matrix by Fraction Bareiss
    elimination below the diagonal, with row swaps for zero pivots."""
    n = len(m)
    rows = [[Fraction(x) for x in row] for row in m]
    sign, prev = 1, Fraction(1)
    for c in range(n - 1):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        p = rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c]
            for j in range(c, n):
                rows[i][j] = (rows[i][j] * p - f * rows[c][j]) / prev
        prev = p
    return sign * rows[n - 1][n - 1]


@lru_cache(maxsize=None)
def reference_minor(n, rows, cols, shift_lambda=False):
    """Minor of the symbolic upper-triangular matrix (u_{kl} above the
    diagonal, t_m, plus lambda when shifted, on it) by recursive cofactor
    expansion along the last row, independent of the library's engine."""
    if not rows:
        return SparsePolynomial.constant(1)
    if not subset_leq(rows, cols):
        return SparsePolynomial.zero()
    r = rows[-1]
    total = SparsePolynomial.zero()
    for pos, c in enumerate(cols):
        if c < r:
            continue
        if c == r:
            entry = SparsePolynomial.variable(t_var(r))
            if shift_lambda:
                entry = entry + SparsePolynomial.variable(LAMBDA)
        else:
            entry = SparsePolynomial.variable(u_var(r, c))
        sub = reference_minor(n, rows[:-1], cols[:pos] + cols[pos + 1 :], shift_lambda)
        sign = (-1) ** ((len(rows) - 1) + pos)
        total = total + entry * sign * sub
    return total


def reference_p_polynomial(w, indices):
    """P_{w,I}(lambda) from its definition: the sum over every d-subset J of
    the shifted minor Delta^J_I(u + lambda id) times x_J, minus
    prod_{k <= d} (t_{w(k)} + lambda) times x_I, with d = |I|."""
    n, d = w.n, len(indices)
    lam = SparsePolynomial.variable(LAMBDA)
    colinear = SparsePolynomial.zero()
    for tup in itertools.combinations(range(1, n + 1), d):
        minor = reference_minor(n, indices, tup, shift_lambda=True)
        colinear = colinear + minor * SparsePolynomial.variable(x_var(tup))
    diagonal = SparsePolynomial.constant(1)
    for k in range(1, d + 1):
        diagonal = diagonal * (SparsePolynomial.variable(t_var(w(k))) + lam)
    return colinear - diagonal * SparsePolynomial.variable(x_var(indices))


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


@pytest.fixture(scope="session")
def s7_bad_sweep():
    """One sweep of S7 for every exhaustive S7 test: the enumeration summary
    and the bad pairs as (w, w') = (w2, w1) of each bad verdict (w1, w2), in
    stream order."""
    summary = EnumerationSummary(7)
    pairs = [
        (v.w2, v.w1) for v in enumerate_pairs(7, "bad", allow_large=True, summary=summary)
    ]
    return summary, pairs
