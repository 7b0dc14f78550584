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

The last section is the library's one shifted-minor engine,
``_shifted_minors``: Delta^cols_rows(A + lambda id) of an upper-triangular A
as its lambda-coefficients, by memoised Laplace expansion.  A may hold
numbers (a point's (u, t) matrix) or polynomials (the generic matrix, behind
``symbolic_minor`` and the emitted P-equations).  Filling the memo checks that
the lambda^k coefficient of a k x k minor is [rows = cols], or raises
``VerificationFailedError``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Optional

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


def _var_key(v: Variable):
    kind, params = v
    if kind == "x":
        return (0, len(params), params)
    return (_KIND_RANK[kind], params)


def normalize_plucker_indices(indices: Iterable[int]) -> tuple[int, Optional[tuple[int, ...]]]:
    """Signed normalization of an arbitrary index sequence.

    Repeated indices give (0, None); otherwise the sign of the sorting
    permutation and the sorted tuple.
    """
    seq = list(indices)
    if len(set(seq)) != len(seq):
        return 0, None
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign, tuple(sorted(seq))


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
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items(), key=lambda p: _var_key(p[0])))


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
# shifted minors of an upper-triangular matrix, on numbers or polynomials
# ---------------------------------------------------------------------------

class VerificationFailedError(RuntimeError):
    """A structural self-check failed; signals a bug, not a math outcome."""


@lru_cache(maxsize=None)
def _laplace_terms(rows: tuple[int, ...], cols: tuple[int, ...]) -> tuple:
    """(sign, c, diagonal, sub_cols) for every term of the shifted minor
    Delta^cols_rows(A + lambda id) of an upper-triangular A, expanded along
    its last row r = rows[-1]: the entry (r, c) is A[r][c] + lambda when
    ``diagonal`` (c = r) and A[r][c] otherwise, times the sign and the minor
    on rows[:-1] x sub_cols.  Terms whose entry lies below the diagonal, or
    whose minor vanishes by triangularity (rows[:-1] not below sub_cols
    componentwise), are left out."""
    r, sub_rows = rows[-1], rows[:-1]
    terms = []
    for pos, c in enumerate(cols):
        sub_cols = cols[:pos] + cols[pos + 1 :]
        if c >= r and all(i <= j for i, j in zip(sub_rows, sub_cols)):
            sign = -1 if (len(rows) - 1 + pos) % 2 else 1
            terms.append((sign, c, c == r, sub_cols))
    return tuple(terms)


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


def _shifted_minors(a: list[list]):
    """Delta^cols_rows(A + lambda id) as its list of lambda-coefficients,
    lowest first and len(rows) + 1 long, memoised for this A, each minor's
    top coefficient checked.  A principal minor Delta^S_S is
    prod_{k in S} (A[k][k] + lambda), as A is upper triangular."""
    memo: dict = {}

    def minor(rows: tuple[int, ...], cols: tuple[int, ...]) -> list:
        key = (rows, cols)
        out = memo.get(key)
        if out is None:
            if not rows:
                out = [1]
            else:
                row, sub_rows = a[rows[-1]], rows[:-1]
                out = [0] * (len(rows) + 1)
                for sign, c, diagonal, sub_cols in _laplace_terms(rows, cols):
                    sub = minor(sub_rows, sub_cols)
                    entry = sign * row[c]
                    if entry:
                        for s, m in enumerate(sub):
                            out[s] += entry * m
                    if diagonal:
                        for s, m in enumerate(sub, start=1):
                            out[s] += sign * m
                if out[-1] != (rows == cols):
                    raise VerificationFailedError(
                        f"the lambda^{len(rows)} coefficient of the shifted minor "
                        f"{rows} x {cols} is {out[-1]}, not {int(rows == cols)}"
                    )
            memo[key] = out
        return out

    return minor


@lru_cache(maxsize=None)
def _generic_minors(n: int):
    """The memoised shifted minors of the generic upper-triangular matrix,
    whose entries are the variables u_{kl} and t_k; their lambda-coefficients
    are polynomials, or plain ``int``s."""
    names = [t_var(k) for k in range(1, n + 1)]
    names += [u_var(k, l) for k in range(1, n + 1) for l in range(k + 1, n + 1)]
    return _shifted_minors(_upper_matrix(n, {v: SparsePolynomial.variable(v) for v in names}))


@lru_cache(maxsize=None)
def symbolic_minor(
    n: int, rows: tuple[int, ...], cols: tuple[int, ...], shift_lambda: bool = False
) -> SparsePolynomial:
    """Minor of the symbolic upper-triangular matrix on the given rows and
    columns: entries u_{kl} above the diagonal, t_m (+ lambda when shifted) on
    it, zero below.  Vanishes unless rows <= cols componentwise.

    Read off the lambda-coefficients of ``_generic_minors(n)``: the lambda^0
    one, or sum_s c_s lambda^s when shifted.
    """
    rows, cols = tuple(rows), tuple(cols)
    if len(rows) != len(cols):
        raise ValueError(f"minor needs |rows| = |cols|, got {rows} x {cols}")
    for seq in (rows, cols):
        if list(seq) != sorted(set(seq)) or (seq and not (1 <= seq[0] and seq[-1] <= n)):
            raise ValueError(f"indices must be strictly increasing in 1..{n}: {seq}")
    coeffs = _generic_minors(n)(rows, cols)
    if not shift_lambda:
        return _coerce(coeffs[0])
    return sum(
        (c * SparsePolynomial.variable(LAMBDA, s) for s, c in enumerate(coeffs)),
        SparsePolynomial.zero(),
    )
