"""Finite root systems with integer coordinates.

A :class:`RootSystem` is a finite set of integer vectors in Z^rank together
with an ordered simple basis and an integer symmetric bilinear form invariant
under all the reflections s_alpha.  Every reflection coefficient
2 (x|alpha)/(alpha|alpha) of a lattice vector x is an integer, so reflections
are exact integer maps.  Two constructions are provided: the concrete type-A
realisation ``e_i - e_j`` inside Z^n, and reflection closure of the simple
roots of an arbitrary finite-type Cartan matrix, in simple-root coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

from .linalg import Vector

# Reflection closure larger than this signals a non-finite-type Cartan matrix;
# every finite type of rank <= 8 stays well below (E8 has 240 roots).
MAX_ROOTS = 500


class NotFiniteTypeError(ValueError):
    """Raised when reflection closure of a Cartan matrix does not terminate."""


class InvalidRootError(ValueError):
    """Raised when reflecting in an isotropic vector."""


@dataclass(frozen=True)
class RootSystem:
    """A reduced finite root system with a fixed simple basis.

    ``roots`` is stored sorted for deterministic iteration.  ``form`` is the
    Gram matrix of the invariant bilinear form on the ambient coordinates.
    Every coordinate and every form entry is an ``int``.
    """

    rank: int
    roots: tuple[Vector, ...]
    simple_roots: tuple[Vector, ...]
    form: tuple[tuple[int, ...], ...]
    name: str = field(default="", compare=False)

    def pairing(self, x: Vector, y: Vector) -> int:
        """The invariant form (x | y)."""
        return sum(xi * f * yj for xi, row in zip(x, self.form) for f, yj in zip(row, y))

    def reflect(self, alpha: Vector, x: Vector) -> Vector:
        """s_alpha(x) = x - c alpha with the integer c = 2 (x|alpha)/(alpha|alpha).

        A vector x for which c is not an integer is off the root lattice and
        raises ``ValueError``.
        """
        norm = self.pairing(alpha, alpha)
        if norm == 0:
            raise InvalidRootError(f"isotropic reflection vector {alpha}")
        c, rem = divmod(2 * self.pairing(x, alpha), norm)
        if rem:
            raise ValueError(f"{x} is off the lattice: 2(x|alpha)/(alpha|alpha) is not integral")
        return tuple(xi - c * ai for xi, ai in zip(x, alpha))

    def is_positive(self, root: Vector) -> bool:
        """Positive with respect to the simple basis.

        Every root is all-nonnegative or all-nonpositive over the simple
        roots, so the sign of the first nonzero coordinate decides (this also
        holds for the type-A coordinates e_i - e_j).
        """
        for c in root:
            if c != 0:
                return c > 0
        raise ValueError("zero vector is not a root")

    @cached_property
    def root_set(self) -> frozenset[Vector]:
        return frozenset(self.roots)

    def __contains__(self, v) -> bool:
        return tuple(v) in self.root_set

    def __post_init__(self):
        self._validate()

    def _validate(self) -> None:
        vectors = (*self.roots, *self.simple_roots, *self.form)
        if any(type(c) is not int for v in vectors for c in v):
            raise ValueError("root coordinates and form entries must be int")
        roots = set(self.roots)
        if not roots:
            raise ValueError("empty root system")
        for alpha in self.roots:
            if self.pairing(alpha, alpha) == 0:
                raise ValueError(f"isotropic root {alpha}")
            neg = tuple(-c for c in alpha)
            if neg not in roots:
                raise ValueError(f"root set not symmetric: missing -{alpha}")
            for x in self.roots:
                if self.reflect(alpha, x) not in roots:
                    raise ValueError(f"root set not stable under s_{alpha}")
        # a symmetric set is reduced iff each line through 0 holds only +-alpha,
        # i.e. iff the sign-normalised primitive vectors number |roots| / 2
        lines = set()
        for alpha in roots:
            g = gcd(*alpha)
            v = tuple(c // g for c in alpha)
            lines.add(v if self.is_positive(v) else tuple(-c for c in v))
        if 2 * len(lines) != len(roots):
            raise ValueError("non-reduced root set: a root has a multiple other than its negative")


def build_type_A(n: int) -> RootSystem:
    """The A_{n-1} system {e_i - e_j : i != j} in Z^n with the standard form."""
    if n < 2:
        raise ValueError(f"type A needs n >= 2, got {n}")
    zero = [0] * n
    roots = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            v = zero.copy()
            v[i], v[j] = 1, -1
            roots.append(tuple(v))
    simple = []
    for i in range(n - 1):
        v = zero.copy()
        v[i], v[i + 1] = 1, -1
        simple.append(tuple(v))
    form = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return RootSystem(
        rank=n,
        roots=tuple(sorted(roots)),
        simple_roots=tuple(simple),
        form=form,
        name=f"A{n - 1}",
    )


def _symmetrize_cartan(cartan: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Integer Gram matrix B with B symmetric and 2*B[i][j]/B[j][j] = cartan[i][j].

    Simple roots are the standard basis of Z^rank in these coordinates.  The
    ratios are rational while they are solved for; B is the smallest positive
    integer multiple of the rational solution.
    """
    r = len(cartan)
    d = [Fraction(0)] * r  # d[i] = (alpha_i | alpha_i) / 2
    for start in range(r):
        if d[start] != 0:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(r):
                if cartan[i][j] != 0 and i != j:
                    val = d[i] * Fraction(cartan[j][i], cartan[i][j])
                    if d[j] == 0:
                        d[j] = val
                        stack.append(j)
                    elif d[j] != val:
                        raise ValueError("Cartan matrix is not symmetrizable")
    b = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        for j in range(r):
            b[i][j] = cartan[j][i] * d[i]  # = cartan[i][j] * d[j] by symmetry
    for i in range(r):
        for j in range(r):
            if b[i][j] != b[j][i]:
                raise ValueError("Cartan matrix is not symmetrizable")
    scale = lcm(*(x.denominator for row in b for x in row))
    return tuple(tuple((x * scale).numerator for x in row) for row in b)


def build_from_cartan(cartan: Sequence[Sequence[int]], name: str = "") -> RootSystem:
    """Close the simple roots of a Cartan matrix under simple reflections.

    Convention: ``cartan[i][j] = 2 (alpha_i | alpha_j) / (alpha_j | alpha_j)``,
    so s_j(alpha_i) = alpha_i - cartan[i][j] alpha_j.  Roots are expressed in
    simple-root coordinates.  Closure exceeding MAX_ROOTS raises
    :class:`NotFiniteTypeError`.
    """
    r = len(cartan)
    if r == 0 or any(len(row) != r for row in cartan):
        raise ValueError("Cartan matrix must be square and nonempty")
    for i in range(r):
        if cartan[i][i] != 2:
            raise ValueError("Cartan diagonal entries must equal 2")
        for j in range(r):
            if i != j and cartan[i][j] > 0:
                raise ValueError("off-diagonal Cartan entries must be <= 0")
            if (cartan[i][j] == 0) != (cartan[j][i] == 0):
                raise ValueError("Cartan zero pattern must be symmetric")
    form = _symmetrize_cartan(cartan)
    simple = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
    roots: set[Vector] = set(simple) | {tuple(-c for c in s) for s in simple}
    frontier = list(roots)
    while frontier:
        new = []
        for x in frontier:
            for j in range(r):
                # s_j(x) = x - (sum_i x_i cartan[i][j]) alpha_j, by linearity
                y = list(x)
                y[j] -= sum(xi * row[j] for xi, row in zip(x, cartan))
                y = tuple(y)
                if y not in roots:
                    roots.add(y)
                    new.append(y)
        if len(roots) > MAX_ROOTS:
            raise NotFiniteTypeError(
                f"reflection closure exceeded {MAX_ROOTS} roots; "
                "the Cartan matrix is not of finite type"
            )
        frontier = new
    return RootSystem(
        rank=r,
        roots=tuple(sorted(roots)),
        simple_roots=simple,
        form=form,
        name=name,
    )


def subset_leq(a: Iterable[int], b: Iterable[int]) -> bool:
    """Componentwise order on equal-size index subsets of {1..n}.

    {a_1 < ... < a_d} <= {b_1 < ... < b_d} iff a_k <= b_k for every k, which
    is the same as requiring at least as many elements below every threshold.

    >>> subset_leq({1, 3}, {1, 2})
    False
    >>> subset_leq({1, 2, 3}, {4, 5, 6})
    True
    """
    sa, sb = sorted(a), sorted(b)
    if len(sa) != len(sb):
        raise ValueError(f"subset size mismatch: {len(sa)} vs {len(sb)}")
    if len(set(sa)) != len(sa) or len(set(sb)) != len(sb):
        raise ValueError("index subsets must not contain duplicates")
    return all(x <= y for x, y in zip(sa, sb))


# named Cartan matrices used throughout the tests and CLI
CARTAN = {
    "A2": [[2, -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "B2": [[2, -2], [-1, 2]],
    "B3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "G2": [[2, -1], [-3, 2]],
}


def build_named(name: str) -> RootSystem:
    if name.upper().startswith("A"):
        n = int(name[1:]) + 1
        return build_type_A(n)
    return build_from_cartan(CARTAN[name.upper()], name=name.upper())
