"""Exact linear algebra over the rationals.

Vectors are tuples of ``int`` (roots, Gram matrices and the vectors of the
Weyl group action are integral) or of :class:`fractions.Fraction`; matrices
are sequences of such rows, and may mix the two.  Rank, span tests,
independent subsets, kernels and inverses share one fraction-free
Gauss-Jordan core on integer rows: each row is first scaled by the lcm of
its denominators, and the Bareiss step

    m[i][j] <- (m[i][j] * pivot - m[i][c] * m[r][j]) // previous_pivot

applied to every row i other than the pivot row r keeps each entry an
integer (a minor of the scaled matrix) and leaves every pivot equal to one
integer D.  Kernels and inverses are returned as integer numerators over D,
so no ``Fraction`` is created.  Nothing here ever touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

Vector = tuple[int | Fraction, ...]
Matrix = Sequence[Sequence[int | Fraction]]


def _integer_rows(m: Matrix) -> list[list[int]]:
    """Scale each row by the lcm of its denominators (kernel/rank preserved).

    Entries may be ``int`` or ``Fraction``; both carry ``numerator`` and
    ``denominator``, so an integral row is copied without any arithmetic.
    """
    rows = []
    for row in m:
        scale = 1
        for x in row:
            if x.denominator != 1:
                scale = lcm(scale, x.denominator)
        if scale == 1:
            rows.append([x.numerator for x in row])
        else:
            rows.append([x.numerator * (scale // x.denominator) for x in row])
    return rows


def _gauss_jordan(rows: list[list[int]]) -> tuple[list[int], int]:
    """In-place fraction-free Gauss-Jordan reduction of an integer matrix.

    Every row other than the pivot row is updated, so the result is the
    reduced row echelon form scaled by one integer D: row r holds D in
    column ``pivots[r]``, 0 in every other pivot column, and rows past the
    rank are zero.  Returns the pivot columns and D (1 when there is no
    pivot).
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        pivots.append(c)
        row_r = rows[r]
        p = row_r[c]
        for i in range(n_rows):
            if i == r:
                continue
            # a row is zero left of its own pivot, and every row below r
            # is zero left of c
            start = pivots[i] if i < r else c
            row_i = rows[i]
            f = row_i[c]
            for j in range(start, n_cols):
                q, rem = divmod(row_i[j] * p - f * row_r[j], prev)
                if rem:  # cannot happen for Bareiss updates; guards the invariant
                    raise ArithmeticError("fraction-free elimination lost exactness")
                row_i[j] = q
        prev = p
        r += 1
        if r == n_rows:
            break
    return pivots, prev


def rank(m: Matrix) -> int:
    if not m:
        return 0
    pivots, _ = _gauss_jordan(_integer_rows(m))
    return len(pivots)


def integer_kernel(m: Matrix, ncols: int | None = None) -> tuple[list[list[int]], int]:
    """Basis of the right null space {x : m x = 0} as integer numerators
    over one common denominator D: basis vector k is ``numerators[k] / D``.

    Vector k has 1 in the k-th free column, 0 in the other free columns,
    and ``-rows[r][fc] / D`` in pivot column r of the scaled reduced form;
    that basis is unique, so it does not depend on how the rows are scaled.
    ``ncols`` is only needed when ``m`` has no rows.
    """
    if not m:
        if ncols is None:
            raise ValueError("kernel of an empty matrix needs an explicit ncols")
        return [[int(i == j) for j in range(ncols)] for i in range(ncols)], 1
    rows = _integer_rows(m)
    pivots, d = _gauss_jordan(rows)
    n_cols = len(rows[0])
    pivot_set = set(pivots)
    basis = []
    for fc in range(n_cols):
        if fc in pivot_set:
            continue
        x = [0] * n_cols
        x[fc] = d
        for r, pc in enumerate(pivots):
            x[pc] = -rows[r][fc]
        basis.append(x)
    return basis, d


def in_span(basis: Sequence[Vector], v: Vector) -> bool:
    """Whether v lies in the span of the given vectors: v is not a pivot
    column of the matrix whose columns are the vectors and then v."""
    pivots, _ = _gauss_jordan(_integer_rows(list(zip(*basis, v))))
    return len(basis) not in pivots


def independent_subset(vectors: Sequence[Vector]) -> list[Vector]:
    """Greedy maximal linearly independent subset, preserving input order:
    the pivot columns of the matrix whose columns are the vectors."""
    pivots, _ = _gauss_jordan(_integer_rows(list(zip(*vectors))))
    return [vectors[c] for c in pivots]


def scaled_inverse(m: Matrix) -> tuple[list[list[int]], int]:
    """Integer matrix A and integer D with m^{-1} = A / D.

    Gauss-Jordan on [m | I]; scaling a row of the augmented matrix scales
    the same row of I, so the right block still ends as D m^{-1}.  For an
    integer m, A is the adjugate up to the sign of D.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("inverse of a non-square matrix")
    aug = _integer_rows(
        [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(m)]
    )
    pivots, d = _gauss_jordan(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in aug], d
