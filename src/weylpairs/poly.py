"""Sparse multivariate polynomials over exact rationals.

The variable vocabulary is fixed: projective coordinates ``x_{i1...id}``
(strictly increasing index tuples), strictly-upper matrix entries ``u_{kl}``
(k < l), diagonal entries ``t_m``, and one indeterminate ``l`` (lambda).
Terms are kept in a canonical graded-lexicographic order with the variable
order x < u < t < lambda (lex within each kind), so equal polynomials are
structurally equal, hashable, and print identically.

Integral coefficients are stored as ``int`` and only the others as
``Fraction``: every generated equation has integer coefficients, and ``int``
arithmetic is many times faster.  Since ``str``, ``hash`` and ``==`` agree on
``3`` and ``Fraction(3)``, the stored type never shows in canonical strings or
comparisons.  ``evaluate`` multiplies and adds the numbers as they come, so
an integer polynomial evaluates to an ``int`` at an ``int`` point; a
``Fraction`` coordinate gives a ``Fraction``.

The last section holds the library's one index of wedge^d Q^n,
``_wedge_table`` (the d-subsets of {1..n} and the signs of e_J wedge e_i),
and its one engine for shifted minors, ``_exterior_power``:
wedge^d(A + lambda id) x for an upper-triangular A and a vector x over the
d-subsets, as lambda-coefficients, by a sweep over the rows of A.  Its I-th
coordinate is sum_J Delta^J_I(A + lambda id) x_J, so a single minor is the
sweep on a basis vector.  A may hold numbers (a point's
(u, t) matrix) or polynomials (the generic matrix, behind ``symbolic_minor``
and the emitted P-equations).  The sweep checks that the lambda^d coefficient
of each coordinate is x_I, or raises ``VerificationFailedError``.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

Variable = tuple  # ("x", (i1,...,id)) | ("u", (k, l)) | ("t", (m,)) | ("lam", ())

LAMBDA: Variable = ("lam", ())


class IncompletePointError(KeyError):
    """Evaluation point does not cover every variable of the polynomial."""


def x_var(indices: Iterable[int]) -> Variable:
    t = tuple(indices)
    if list(t) != sorted(set(t)):
        raise ValueError(f"x indices must be strictly increasing: {t}")
    return ("x", t)


def u_var(k: int, l: int) -> Variable:
    if not k < l:
        raise ValueError(f"u needs k < l, got ({k}, {l})")
    return ("u", (k, l))


def t_var(m: int) -> Variable:
    return ("t", (m,))


_KIND_RANK = {"x": 0, "u": 1, "t": 2, "lam": 3}


def exact_number(c) -> int | Fraction:
    """Normal form of an exact rational: ``int`` when integral, else
    ``Fraction``."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


@lru_cache(maxsize=None)
def _var_key(v: Variable):
    kind, params = v
    if kind == "x":
        return (0, len(params), params)
    return (_KIND_RANK[kind], params)


def _monomial_sort_key(mono):
    deg = sum(e for _, e in mono)
    return (-deg, tuple((_var_key(v), -e) for v, e in mono))


class SparsePolynomial:
    """Immutable sparse polynomial; term map from monomials to coefficients.

    A monomial is a tuple of (variable, exponent) pairs sorted by the global
    variable order; zero coefficients are never stored.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[tuple, Fraction] | None = None):
        clean: dict[tuple, int | Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                c = exact_number(coeff)
                if c == 0:
                    continue
                merged: dict = {}
                for v, e in mono:
                    merged[v] = merged.get(v, 0) + int(e)
                key = tuple(
                    sorted(
                        ((v, e) for v, e in merged.items() if e),
                        key=lambda p: _var_key(p[0]),
                    )
                )
                clean[key] = exact_number(clean.get(key, 0) + c)
                if clean[key] == 0:
                    del clean[key]
        self._terms = clean
        self._hash = None

    # -- constructors ---------------------------------------------------------
    @classmethod
    def zero(cls) -> "SparsePolynomial":
        return cls()

    @classmethod
    def constant(cls, c) -> "SparsePolynomial":
        return cls({(): c})

    @classmethod
    def variable(cls, v: Variable, exp: int = 1) -> "SparsePolynomial":
        return _raw({((v, exp),): 1}) if exp else cls.constant(1)

    # -- ring operations ------------------------------------------------------
    def __add__(self, other) -> "SparsePolynomial":
        other = _coerce(other)
        out = dict(self._terms)
        for mono, c in other._terms.items():
            s = out.get(mono, 0) + c
            if s == 0:
                out.pop(mono, None)
            else:
                out[mono] = s if type(s) is int else exact_number(s)
        return _raw(out)

    __radd__ = __add__

    def __neg__(self) -> "SparsePolynomial":
        return _raw({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "SparsePolynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "SparsePolynomial":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "SparsePolynomial":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return SparsePolynomial()
            return _raw({m: exact_number(c * other) for m, c in self._terms.items()})
        out: dict[tuple, int | Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = _merge_monomials(m1, m2)
                s = out.get(mono, 0) + c1 * c2
                if s == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = s if type(s) is int else exact_number(s)
        return _raw(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, SparsePolynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- queries ----------------------------------------------------------------
    def sorted_terms(self) -> list[tuple[tuple, Fraction]]:
        return sorted(self._terms.items(), key=lambda kv: _monomial_sort_key(kv[0]))

    def leading_coefficient(self) -> int | Fraction:
        if not self._terms:
            return 0
        return min(self._terms.items(), key=lambda kv: _monomial_sort_key(kv[0]))[1]

    def degrees(self) -> set[int]:
        """The total degrees of the monomials."""
        return {sum(e for _, e in mono) for mono in self._terms}

    def evaluate(self, point: Mapping[Variable, int | Fraction]) -> int | Fraction:
        """Exact evaluation at a point of ``int``/``Fraction`` values; every
        variable must be assigned, except that a monomial stops at its first
        zero factor.

        >>> p = parse_polynomial("2*x1*x2 - 1")
        >>> p.evaluate({x_var([1]): 3, x_var([2]): 2})
        11
        >>> p.evaluate({x_var([1]): Fraction(1, 2), x_var([2]): 3})
        Fraction(2, 1)
        """
        total = 0
        for mono, c in self._terms.items():
            val = c
            for v, e in mono:
                try:
                    base = point[v]
                except KeyError:
                    raise IncompletePointError(f"no value for variable {var_name(v)}")
                if not base:
                    break  # the monomial is 0
                val *= base if e == 1 else base**e
            else:
                total += val
        return total

    # -- serialization ------------------------------------------------------------
    def canonical_str(self) -> str:
        terms = self.sorted_terms()
        if not terms:
            return "0"
        parts = []
        for idx, (mono, coeff) in enumerate(terms):
            mag = abs(coeff)
            factors = [
                var_name(v) + (f"^{e}" if e > 1 else "") for v, e in mono
            ]
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            if idx == 0:
                parts.append(("-" if coeff < 0 else "") + body)
            else:
                parts.append((" - " if coeff < 0 else " + ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"<poly {self.canonical_str()}>"


def _raw(terms: dict[tuple, int | Fraction]) -> SparsePolynomial:
    """Wrap a term dict already in canonical monomial and coefficient form."""
    p = SparsePolynomial.__new__(SparsePolynomial)
    p._terms = terms
    p._hash = None
    return p


def _coerce(other) -> SparsePolynomial:
    if isinstance(other, SparsePolynomial):
        return other
    return SparsePolynomial.constant(other)


def _merge_monomials(m1, m2):
    """The product of two monomials: one pass over both, each already in
    variable order, adding the exponents of a variable they share."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    while i < len(m1) and j < len(m2):
        (v1, e1), (v2, e2) = m1[i], m2[j]
        if v1 == v2:
            out.append((v1, e1 + e2))
            i += 1
            j += 1
        elif _var_key(v1) < _var_key(v2):
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    return (*out, *m1[i:], *m2[j:])


def var_name(v: Variable) -> str:
    kind, params = v
    if kind == "x":
        return "x" + "".join(str(i) for i in params)
    if kind == "u":
        return f"u{params[0]}{params[1]}"
    if kind == "t":
        return f"t{params[0]}"
    if kind == "lam":
        return "l"
    raise ValueError(f"unknown variable {v!r}")


def parse_var_name(name: str) -> Variable:
    if name == "l":
        return LAMBDA
    kind, digits = name[0], name[1:]
    if kind == "x" and digits:
        return x_var(int(ch) for ch in digits)
    if kind == "u" and len(digits) == 2:
        return u_var(int(digits[0]), int(digits[1]))
    if kind == "t" and len(digits) == 1:
        return t_var(int(digits))
    raise ValueError(f"cannot parse variable name {name!r}")


_TERM_RE = re.compile(r"\s*([+-])?\s*([^+-]+)")


def parse_polynomial(text: str) -> SparsePolynomial:
    """Inverse of :meth:`SparsePolynomial.canonical_str`."""
    text = text.strip()
    if text in ("", "0"):
        return SparsePolynomial.zero()
    total = SparsePolynomial.zero()
    for sign_tok, body in _TERM_RE.findall(text):
        body = body.strip()
        if not body:
            continue
        sign = -1 if sign_tok == "-" else 1
        coeff = Fraction(sign)
        mono: dict[Variable, int] = {}
        for factor in body.split("*"):
            factor = factor.strip()
            if re.fullmatch(r"\d+(/\d+)?", factor):
                coeff *= Fraction(factor)
                continue
            if "^" in factor:
                name, exp_s = factor.split("^")
                exp = int(exp_s)
            else:
                name, exp = factor, 1
            v = parse_var_name(name)
            mono[v] = mono.get(v, 0) + exp
        total = total + SparsePolynomial({tuple(mono.items()): coeff})
    return total


# ---------------------------------------------------------------------------
# the index of wedge^d Q^n, and exterior powers of A + lambda id on it
# ---------------------------------------------------------------------------

class VerificationFailedError(RuntimeError):
    """A structural self-check failed; signals a bug, not a math outcome."""


@lru_cache(maxsize=None)
def _wedge_table(n: int, d: int) -> tuple:
    """The index of wedge^d Q^n: the d-subsets of {1..n} in combination
    order, and for each (d-1)-subset J in that order (none for d = 0) the
    terms (i, position of J + i, (-1)^#{j in J : j > i}) of e_J wedge e_i,
    one for each i outside J, by increasing i.

    >>> subsets, terms = _wedge_table(3, 2)
    >>> subsets, terms[1]  # J = (2,): e_2 wedge e_1 = -e_12, e_2 wedge e_3 = e_23
    (((1, 2), (1, 3), (2, 3)), ((1, 0, -1), (3, 2, 1)))
    """
    universe = range(1, n + 1)
    subsets = tuple(itertools.combinations(universe, d))
    position = {s: p for p, s in enumerate(subsets)}
    return subsets, tuple(
        tuple(
            (i, position[tuple(sorted((*j, i)))], (-1) ** sum(e > i for e in j))
            for i in universe
            if i not in j
        )
        for j in (_wedge_table(n, d - 1)[0] if d else ())
    )


@lru_cache(maxsize=None)
def _exterior_plan(n: int, d: int) -> tuple:
    """Row k's factor of wedge^d(A + lambda id), k = 1..n, read off
    ``_wedge_table``: it sends e_J wedge e_j to e_J wedge e_j + A[k][j] e_J
    wedge e_k for j > k, so for each J without k, in the table's order, it
    holds (position of J + k, terms), a term (j, position of J + j, the
    signs of e_J wedge e_k and e_J wedge e_j multiplied) per j > k outside J."""
    rows = [[] for _ in range(n)]
    for terms in _wedge_table(n, d)[1]:
        for k, p, sign_k in terms:
            rows[k - 1].append(
                (p, tuple((j, q, sign_k * sign_j) for j, q, sign_j in terms if j > k))
            )
    return tuple(map(tuple, rows))


def _times_shift(coeffs: list, c) -> list:
    """(c + lambda) p as lambda-coefficients, lowest first, for p's given the
    same way; the top one of the product is dropped."""
    return [c * coeffs[0]] + [c * hi + lo for hi, lo in zip(coeffs[1:], coeffs)]


def _exterior_power(a: list[list], n: int, d: int, x: Mapping) -> dict:
    """I -> the lambda-coefficients of sum_J Delta^J_I(A + lambda id) x_J,
    lowest first and d + 1 long: the I-th coordinate of
    wedge^d(A + lambda id) x for an upper-triangular A (1-based, numbers or
    polynomials) and x given on its support (J -> x_J).  A coordinate that
    no nonzero term reaches is 0 and left out; the others, the support among
    them, come in combination order.

    A + lambda id is R_n ... R_1, R_k the identity with row k of A + lambda id
    (row k reads only the columns >= k, which R_1..R_{k-1} leave alone), and
    wedge^d is multiplicative, so the sweep applies one row at a time:
    y_I <- (A[k][k] + lambda) y_I + sum_j +-A[k][j] y_{I-k+j} for every I
    containing k.  The lambda^d coefficient of y_I must come out x_I, or
    ``VerificationFailedError`` is raised."""
    subsets = _wedge_table(n, d)[0]
    # None: y_I = 0, which the sweep skips
    y = [[x[s]] + [0] * d if s in x else None for s in subsets]
    zero = [0] * (d + 1)
    for k, steps in enumerate(_exterior_plan(n, d), start=1):
        row = a[k]
        diagonal = row[k]
        for p, terms in steps:
            new = y[p] and _times_shift(y[p], diagonal)
            for j, q, sign in terms:
                entry, above = row[j], y[q]
                if entry and above:
                    entry = entry if sign > 0 else -entry
                    new = [c + entry * v for c, v in zip(new or zero, above)]
            y[p] = new
    out = {s: coeffs for s, coeffs in zip(subsets, y) if coeffs}
    for s, coeffs in out.items():
        if coeffs[d] - x.get(s, 0):
            raise VerificationFailedError(
                f"the lambda^{d} coefficient of wedge^{d}(A + lambda id) x at {s} "
                f"is {coeffs[d]}, not x_{s} = {x.get(s, 0)}"
            )
    return out


def _upper_matrix(n: int, point: Mapping) -> list[list]:
    """The point's upper-triangular (u, t) matrix, 1-based: A[k][l] is u_{kl}
    above the diagonal and t_k on it."""
    a = [[0] * (n + 1) for _ in range(n + 1)]
    try:
        for k in range(1, n + 1):
            a[k][k] = point[t_var(k)]
            for l in range(k + 1, n + 1):
                a[k][l] = point[u_var(k, l)]
    except KeyError as missing:
        raise IncompletePointError(f"no value for variable {var_name(missing.args[0])}")
    return a


@lru_cache(maxsize=None)
def _generic_matrix(n: int) -> list[list]:
    """The generic upper-triangular matrix: the variables u_{kl} above the
    diagonal and t_k on it, as polynomials.  Read, never changed."""
    names = [t_var(k) for k in range(1, n + 1)]
    names += [u_var(k, l) for k in range(1, n + 1) for l in range(k + 1, n + 1)]
    return _upper_matrix(n, {v: SparsePolynomial.variable(v) for v in names})


@lru_cache(maxsize=None)
def symbolic_minor(
    n: int, rows: tuple[int, ...], cols: tuple[int, ...], shift_lambda: bool = False
) -> SparsePolynomial:
    """Minor of the symbolic upper-triangular matrix on the given rows and
    columns: entries u_{kl} above the diagonal, t_m (+ lambda when shifted) on
    it, zero below.  Vanishes unless rows <= cols componentwise.

    Read at rows off the exterior power of the generic matrix applied to the
    basis vector e_cols: the lambda^0 coefficient, or sum_s c_s lambda^s when
    shifted.
    """
    rows, cols = tuple(rows), tuple(cols)
    if len(rows) != len(cols):
        raise ValueError(f"minor needs |rows| = |cols|, got {rows} x {cols}")
    for seq in (rows, cols):
        if list(seq) != sorted(set(seq)) or (seq and not (1 <= seq[0] and seq[-1] <= n)):
            raise ValueError(f"indices must be strictly increasing in 1..{n}: {seq}")
    coeffs = _exterior_power(_generic_matrix(n), n, len(rows), {cols: 1}).get(rows, [0])
    if not shift_lambda:
        return _coerce(coeffs[0])
    return sum(
        (c * SparsePolynomial.variable(LAMBDA, s) for s, c in enumerate(coeffs)),
        SparsePolynomial.zero(),
    )
