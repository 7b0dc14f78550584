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
``3`` and ``Fraction(3)``, the stored type never shows in canonical strings,
JSON terms or comparisons.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Optional

from .roots import subset_leq

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
        return cls({((v, exp),): 1})

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

    def __pow__(self, k: int) -> "SparsePolynomial":
        if k < 0:
            raise ValueError("negative powers are not polynomials")
        out = SparsePolynomial.constant(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, SparsePolynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    # -- queries ----------------------------------------------------------------
    def variables(self) -> set[Variable]:
        return {v for mono in self._terms for v, _ in mono}

    def sorted_terms(self) -> list[tuple[tuple, Fraction]]:
        return sorted(self._terms.items(), key=lambda kv: _monomial_sort_key(kv[0]))

    def leading_coefficient(self) -> Fraction:
        terms = self.sorted_terms()
        return Fraction(terms[0][1]) if terms else Fraction(0)

    def lambda_degree(self) -> int:
        deg = 0
        for mono in self._terms:
            for v, e in mono:
                if v == LAMBDA:
                    deg = max(deg, e)
        return deg

    def lambda_coefficients(self) -> list["SparsePolynomial"]:
        """Split p = sum_s coeff[s] * lambda^s into lambda-free coefficients."""
        buckets: list[dict[tuple, int | Fraction]] = [dict() for _ in range(self.lambda_degree() + 1)]
        for mono, c in self._terms.items():
            s = 0
            rest = []
            for v, e in mono:
                if v == LAMBDA:
                    s = e
                else:
                    rest.append((v, e))
            buckets[s][tuple(rest)] = c
        return [_raw(b) for b in buckets]

    def evaluate(self, point: Mapping[Variable, Fraction]) -> Fraction:
        """Exact evaluation at a point of ``int``/``Fraction`` values; every
        variable must be assigned, except that a monomial stops at its first
        zero factor."""
        total = 0
        for mono, c in self._terms.items():
            val = c
            for v, e in mono:
                try:
                    base = point[v]
                except KeyError:
                    raise IncompletePointError(f"no value for variable {var_name(v)}")
                if not base:
                    val = 0
                    break
                val *= base if e == 1 else base**e
            total += val
        return Fraction(total)

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

    def to_json_terms(self) -> list:
        """Stable JSON form: [[coeff, [[var, exp], ...]], ...]."""
        out = []
        for mono, coeff in self.sorted_terms():
            out.append([str(coeff), [[var_name(v), e] for v, e in mono]])
        return out

    @classmethod
    def from_json_terms(cls, data) -> "SparsePolynomial":
        terms: dict[tuple, Fraction] = {}
        for coeff, mono in data:
            key = tuple((parse_var_name(nm), int(e)) for nm, e in mono)
            terms[key] = Fraction(coeff)
        return cls(terms)

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
    # disjoint and already in order, as in x_I times a t-monomial
    if _var_key(m1[-1][0]) < _var_key(m2[0][0]):
        return m1 + m2
    if _var_key(m2[-1][0]) < _var_key(m1[0][0]):
        return m2 + m1
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
# symbolic minors of the generic upper-triangular matrix
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def symbolic_minor(
    n: int, rows: tuple[int, ...], cols: tuple[int, ...], shift_lambda: bool = False
) -> SparsePolynomial:
    """Minor of the symbolic upper-triangular matrix on the given rows and
    columns: entries u_{kl} above the diagonal, t_m (+ lambda when shifted) on
    it, zero below.  Vanishes unless rows <= cols componentwise.

    Expansion runs along the sparsest (last) row; triangularity prunes most
    branches immediately.
    """
    rows, cols = tuple(rows), tuple(cols)
    if len(rows) != len(cols):
        raise ValueError(f"minor needs |rows| = |cols|, got {rows} x {cols}")
    for seq in (rows, cols):
        if list(seq) != sorted(set(seq)) or (seq and not (1 <= seq[0] and seq[-1] <= n)):
            raise ValueError(f"indices must be strictly increasing in 1..{n}: {seq}")
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
        sub = symbolic_minor(
            n, rows[:-1], cols[:pos] + cols[pos + 1 :], shift_lambda
        )
        if sub.is_zero:
            continue
        sign = (-1) ** ((len(rows) - 1) + pos)
        total = total + entry * sub * sign
    return total
