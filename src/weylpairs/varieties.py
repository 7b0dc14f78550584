"""Equations of the flag variety, its Springer-style cells, and the
counter-example scanner.

Points live in a product of projective spaces (one set of coordinates
``x_{i1...id}`` per dimension d) times the affine space of upper-triangular
matrices (coordinates ``u_{kl}``, ``t_m``).  The cell of a permutation w is
cut out by the Pluecker and incidence relations, the cell (in)equations on
the x coordinates, and the lambda-coefficients of the colinearity polynomials

    P_{w,i}(lambda) = sum_j Delta^j_i(u + lambda id) x_j
                      - prod_k (t_{w(k)} + lambda) x_i .

Simplifying the relations on a cell yields one extra diagonal equation
``t_a = t_b`` valid on the closure; when a and b sit in different orbits of
w w'^{-1}, an explicit integer point separates the closure from the naive
fiber and refutes the conjectural description of their intersection.  The
scanner enumerates the (q, a, b) configurations, and the verifier checks the
witness point against every equation family with exact arithmetic.

The lambda^s coefficient of P_{w,i} is P_{w,i,s} = C_{i,s} - e_{d-s}(t_{w(1..d)}) x_i,
where C_{i,s} is the lambda^s coefficient of the colinearity sum
sum_j Delta^j_i(u + lambda id) x_j and e the elementary symmetric polynomial.
That sum is the i-th coordinate of wedge^d(u + lambda id) x, the d-th compound,
and every one comes from one engine, ``poly._exterior_power``: a sweep that
applies wedge^d(A + lambda id) to x as n one-row factors, for a matrix A of
numbers or of polynomials, and checks each coordinate's top coefficient.  On
the generic matrix, with every x_j, it gives the C_{i,s};
``_colinearity_sum`` checks their degrees, and the polynomials P_{w,i,s} are
built from them only on request (``EquationSet.p_equations``).  A point is
checked on its own numbers instead, without any polynomial: the sweep runs
on the point's (u, t) matrix and x-support, and every coefficient of
wedge^d(A + lambda id) x - prod_{k<=d} (t_{w(k)} + lambda) x must vanish.

Every point of the cell of w is b1 . (P_w B, Y), with b1 in B and Y upper
triangular and zero at the inversions of w, so the sampler draws b1 and Y
and solves no linear system: x^(d) are the minors of b1 on the columns
w(1..d), built as the exterior products of b1's columns w(1), w(2), ...,
and psi = b1 Y b1^{-1}, with b1^{-1} from b1's triangular adjugate.  Points
carry plain ``int`` coordinates.
Only the sampler and the witness builder make points, and every check is
invariant under scaling psi, and under scaling each x^(d) by its own nonzero
number, so neither needs a ``Fraction``; a diagonal that a caller hands to
``verify_witness`` may still be rational, and is checked just as exactly, but
an entry that is neither ``int`` nor ``Fraction`` raises ``ValueError``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from operator import mul
from typing import Optional

from .poly import (
    IncompletePointError,
    SparsePolynomial,
    VerificationFailedError,
    _exterior_power,
    _generic_matrix,
    _times_shift,
    _upper_matrix,
    _wedge_table,
    t_var,
    u_var,
    var_name,
    x_var,
)
from .weyl import Permutation, check_size

DEFAULT_SEED = 42
COEFF_RANGE = 9  # random integer coordinates are drawn from [-9, 9]


def _prefix_set(w: Permutation, d: int) -> tuple[int, ...]:
    """{w(1), ..., w(d)} as a sorted tuple: the index of the nonvanishing
    coordinate x of dimension d on the cell of w."""
    return tuple(sorted(w(k) for k in range(1, d + 1)))


def _canonical_sign(p: SparsePolynomial) -> SparsePolynomial:
    return -p if p.leading_coefficient() < 0 else p


# ---------------------------------------------------------------------------
# Pluecker, incidence and cell equations
# ---------------------------------------------------------------------------

def _exchange_relations(n: int, d: int, d_prime: int) -> tuple[SparsePolynomial, ...]:
    """sum_k (-1)^k x_{i_1..i_{d-1} j_k} x'_{j_1..^j_k..j_{d'+1}} over all
    increasing index choices, with signed-variable normalization.

    Built straight into term dicts: ``_wedge_table``'s terms of i_seq give
    the sign and the x of i_seq + (j,) for each j outside i_seq, the only
    j_k that give a term.  For d < d' every choice gives a new nonzero
    relation.  For d = d' the choices where min(i_seq ^ j_seq) is not in
    i_seq are skipped unbuilt, which leaves every relation once, at its first
    (i_seq, j_seq) in iteration order:
    - j_seq \\ i_seq = {a, b}: the terms x_{I+a} x_{I+b} cancel to 0;
    - j_seq \\ i_seq = {a < b < c}, i_seq \\ j_seq = {i}: the three-term relation
      of (i_seq & j_seq) + {i, a, b, c} comes up once for each of its four
      choices of i, and i < a gives the lexicographically first i_seq.
    """
    out: list[SparsePolynomial] = []
    for i_seq, wedges in zip(_wedge_table(n, d - 1)[0], _wedge_table(n, d)[1]):
        signed = {j: (sign, _x_vars(n, d)[q][1]) for j, q, sign in wedges}
        for j_seq in _wedge_table(n, d_prime + 1)[0]:
            outside = [(k, jk) for k, jk in enumerate(j_seq) if jk in signed]
            if d == d_prime and len(outside) <= 3 and min(set(i_seq) ^ set(j_seq)) not in i_seq:
                continue
            terms: dict = {}
            for k, jk in outside:
                sign, x = signed[jk]
                mono = ((x, 1), (x_var(j_seq[:k] + j_seq[k + 1 :]), 1))
                terms[mono] = sign if k % 2 else -sign
            out.append(_canonical_sign(SparsePolynomial(terms)))
    return tuple(out)


@lru_cache(maxsize=None)
def plucker_relations(n: int, d: int) -> tuple[SparsePolynomial, ...]:
    """Quadratic relations cutting the d-plane Grassmannian out of projective
    space."""
    check_size("equation generation", n)
    if not 1 <= d <= n - 1:
        raise ValueError(f"need 1 <= d <= n-1, got d={d}")
    return _exchange_relations(n, d, d)


@lru_cache(maxsize=None)
def incidence_relations(n: int, d: int, d_prime: int) -> tuple[SparsePolynomial, ...]:
    """Relations expressing that a d-plane is contained in a d'-plane."""
    check_size("equation generation", n)
    if not 1 <= d < d_prime <= n - 1:
        raise ValueError(f"need 1 <= d < d' <= n-1, got ({d}, {d_prime})")
    return _exchange_relations(n, d, d_prime)


@dataclass(frozen=True)
class CellDescription:
    """Per dimension d: the unique nonvanishing coordinate {w(1)..w(d)} and
    the coordinates forced to vanish (those not below it)."""

    nonvanishing: tuple[tuple[int, ...], ...]
    vanishing: tuple[tuple[tuple[int, ...], ...], ...]


def cell_equations(w: Permutation) -> CellDescription:
    n = w.n
    check_size("equation generation", n)
    nonvan = []
    vanishing = []
    for d in range(1, n):
        lead = _prefix_set(w, d)
        nonvan.append(lead)
        below = set(_lower_sets(lead))
        vanishing.append(tuple(tup for tup, _ in _x_vars(n, d) if tup not in below))
    return CellDescription(tuple(nonvan), tuple(vanishing))


# ---------------------------------------------------------------------------
# colinearity polynomials
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _x_vars(n: int, d: int) -> tuple[tuple[tuple[int, ...], tuple], ...]:
    """(J, x_J) for every d-subset J of {1..n}, in combination order."""
    return tuple((tup, x_var(tup)) for tup in _wedge_table(n, d)[0])


@lru_cache(maxsize=None)
def _colinearity_sum(n: int, d: int) -> dict:
    """I -> (C_{I,0}, ..., C_{I,d-1}) for every d-subset I, C_{I,s} being the
    lambda^s coefficient of the colinearity sum on the generic matrix;
    independent of w.  The sweep has checked the lambda^d coefficients, and
    the check that needs polynomials runs here, once for all w: C_{I,s} is
    homogeneous of degree d - s + 1, like e_{d-s}(t) x_I.  Its terms
    M_{I,J,s} x_J carry distinct x_J, so this holds iff every M_{I,J,s} has
    (u, t)-degree d - s."""
    support = {tup: SparsePolynomial.variable(x) for tup, x in _x_vars(n, d)}
    sums = {}
    for indices, total in _exterior_power(_generic_matrix(n), n, d, support).items():
        for s, c in enumerate(total[:d]):
            if not c.degrees() <= {d - s + 1}:
                raise VerificationFailedError(
                    f"the lambda^{s} coefficient of the colinearity sum of {indices} "
                    f"(n = {n}) has a monomial of degree != {d - s + 1}"
                )
        sums[indices] = tuple(total[:d])
    return sums


@dataclass
class EquationSet:
    """All equation families attached to the cell of one permutation."""

    n: int
    w: Permutation
    plucker: tuple[SparsePolynomial, ...]
    incidence: tuple[SparsePolynomial, ...]
    cell: CellDescription

    @cached_property
    def p_equations(self) -> dict:
        """(d, index tuple, s) -> the lambda-free P_{w,indices,s}, for every
        1 <= d <= n-1 and 0 <= s <= d-1, built on first access.

        P_{w,I,s} = C_{I,s} - e_{d-s}(t_{w(1)}, ..., t_{w(d)}) x_I, the
        w-independent C from ``_colinearity_sum`` and the e from the
        principal product prod_{k<=d} (t_{w(k)} + lambda), grown by one
        factor per d.
        """
        n, w = self.n, self.w
        a = _generic_matrix(n)
        p_eqs = {}
        diagonal = [1]
        for d in range(1, n):
            diagonal = _times_shift(diagonal + [0], a[w(d)][w(d)])
            sums = _colinearity_sum(n, d)
            for indices, x in _x_vars(n, d):
                x_i = SparsePolynomial.variable(x)
                for s, c in enumerate(sums[indices]):
                    p_eqs[(d, indices, s)] = c - diagonal[s] * x_i
        return p_eqs


def p_polynomials(w: Permutation) -> EquationSet:
    """Bundle Pluecker + incidence (d, d+1) + cell data of w; the lambda
    coefficients P_{w,indices,s} are built only when ``p_equations`` is read,
    since ``check_point_families`` checks them on the point's own numbers.
    """
    n = w.n
    check_size("equation generation", n)
    plucker = tuple(
        rel for d in range(1, n) for rel in plucker_relations(n, d)
    )
    incidence = tuple(
        rel for d in range(1, n - 1) for rel in incidence_relations(n, d, d + 1)
    )
    return EquationSet(n, w, plucker, incidence, cell_equations(w))


def fiber_equations(w: Permutation, w_prime: Permutation) -> tuple[tuple[int, int], ...]:
    """Diagonal identifications t_{w'(k)} = t_{w(k)}, deduplicated.

    These cut out exactly the fixed space of w w'^{-1} permuting coordinates.
    """
    if w.n != w_prime.n:
        raise ValueError("fiber equations of permutations of different ranks")
    pairs = []
    for k in range(1, w.n):
        a, b = w_prime(k), w(k)
        if a == b:
            continue
        pair = (a, b) if a < b else (b, a)
        if pair not in pairs:
            pairs.append(pair)
    return tuple(sorted(pairs))


# ---------------------------------------------------------------------------
# integer sampling of cell points
# ---------------------------------------------------------------------------

def _random_upper_invertible(rng: random.Random, n: int) -> list[list[int]]:
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        while not m[i][i]:
            m[i][i] = rng.randint(-COEFF_RANGE, COEFF_RANGE)
        for j in range(i + 1, n):
            m[i][j] = rng.randint(-COEFF_RANGE, COEFF_RANGE)
    return m


def _mat_mul(a, b) -> list[list[int]]:
    columns = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in columns] for row in a]


def _plucker_vectors(b1, columns) -> list[dict]:
    """x^(d) for every prefix of the columns, d = 1..len(columns): the map
    I -> Delta^{S_d}_I(b1) over every d-subset I, in combination order, where
    S_d = sorted(columns[:d]) and b1 is upper triangular (0-based rows).

    x^(d) = x^(d-1) wedge (+-b1 e_c) for c = columns[d-1], on the subsets and
    signs of ``poly._wedge_table``: a nonzero x^(d-1)_J gives x^(d)_{J+i} the
    term +-b1[i][c] x^(d-1)_J for each row i <= c outside J (the rows below c
    are zero), and the column sign (-1)^#{e in S_{d-1} : e > c} sorts c into S_d.

    >>> b1 = [[2, 1, 3], [0, -1, 4], [0, 0, 5]]
    >>> _plucker_vectors(b1, (3, 1))
    [{(1,): 3, (2,): 4, (3,): 5}, {(1, 2): 8, (1, 3): 10, (2, 3): 0}]
    """
    vectors = []
    previous = [1]
    for d, c in enumerate(columns, start=1):
        sign = (-1) ** sum(e > c for e in columns[: d - 1])
        column = [0, *(sign * row[c - 1] for row in b1[:c])]
        subsets, plan = _wedge_table(len(b1), d)
        x = [0] * len(subsets)
        for x_j, terms in zip(previous, plan):
            if x_j:
                for i, target, t in terms:
                    if i > c:
                        break
                    x[target] += t * column[i] * x_j
        vectors.append(dict(zip(subsets, x)))
        previous = x
    return vectors


def _triangular_adjugate(b1) -> tuple[list[list[int]], int]:
    """adj(b1) and det(b1) = prod b1[k][k] for an invertible upper-triangular
    integer b1, by back-substitution: column j of adj solves b1 z = det e_j,
    so it is zero below row j, det / b1[j][j] at row j, and
    -(sum_{k > i} b1[i][k] z_k) / b1[i][i] at each row i < j.  adj is
    integral, so every such division is exact; a remainder raises
    ``ArithmeticError``."""
    n = len(b1)
    det = 1
    for k in range(n):
        det *= b1[k][k]
    adj = [[0] * n for _ in range(n)]
    for j in range(n):
        adj[j][j] = det // b1[j][j]
        for i in range(j - 1, -1, -1):
            z, rem = divmod(-sum(b1[i][k] * adj[k][j] for k in range(i + 1, j + 1)), b1[i][i])
            if rem:
                raise ArithmeticError("back-substitution for the adjugate lost exactness")
            adj[i][j] = z
    return adj, det


def sample_point_on_fiber(
    w: Permutation, w_prime: Permutation, seed: int
) -> tuple[dict, tuple]:
    """A random integer point of the cell of w' whose diagonal also satisfies
    the identifications t_{w'(k)} = t_{w(k)}; such points fill the naive
    fiber over the fixed torus part, where every colinearity coefficient of
    w must vanish as well.

    Every point of the cell is b1 . (P_{w'} B, Y) for some b1 in B and some
    Y in b cap Ad(P_{w'})b, so both are drawn directly: an invertible
    upper-triangular integer b1, and an upper-triangular Y vanishing at each
    (k, l), k < l, with w'^{-1}(k) > w'^{-1}(l).  The flag is g = b1 P_{w'},
    whose Pluecker coordinate x_I of dimension d is Delta^{S_d}_I(b1),
    S_d = sorted(w'(1..d)), up to a sign per d that no check can see; the
    vectors x^(d) are the exterior products of b1's columns w'(1), w'(2), ...
    (``_plucker_vectors``).  The diagonal of Y takes one value per orbit of
    w w'^{-1}, and diag(b1 Y b1^{-1}) = diag(Y), so t_p = t_q on every orbit.

    psi is b1 Y b1^{-1} = b1 Y adj / D, with b1's adjugate adj and determinant
    D from ``_triangular_adjugate``; every check is invariant under positive
    scaling of psi, so psi is b1 Y adj / (gcd sign(D)), its positive primitive
    integer multiple, and every Pluecker value and psi entry is ``int``."""
    n = w_prime.n
    orbits = (w * w_prime.inverse()).orbits()  # raises on different ranks
    rng = random.Random(seed)
    b1 = _random_upper_invertible(rng, n)
    plucker_values = {}
    for x in _plucker_vectors(b1, w_prime.one_line[: n - 1]):
        plucker_values.update(x)
    y = [[0] * n for _ in range(n)]
    for orbit in orbits:
        t = rng.randint(-COEFF_RANGE, COEFF_RANGE)
        for k in orbit:
            y[k - 1][k - 1] = t
    position = w_prime.inverse()
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            if position(k) < position(l):
                y[k - 1][l - 1] = rng.randint(-COEFF_RANGE, COEFF_RANGE)
    adj, det = _triangular_adjugate(b1)
    v = _mat_mul(_mat_mul(b1, y), adj)
    scale = (gcd(*(entry for row in v for entry in row)) or 1) * (1 if det > 0 else -1)
    return plucker_values, tuple(tuple(entry // scale for entry in row) for row in v)


def sample_point_on_Vw(w: Permutation, seed: int) -> tuple[dict, tuple]:
    """A random integer point of the cell of w: the fiber sampler at w' = w,
    where w w^{-1} is the identity and the diagonal is free."""
    return sample_point_on_fiber(w, w, seed)


def point_assignment(n: int, plucker_values: dict, psi) -> dict:
    """Assemble the variable assignment of a point for exact evaluation;
    the values are copied as they are."""
    point = {}
    for d in range(1, n):
        for tup, x in _x_vars(n, d):
            point[x] = plucker_values.get(tup, 0)
    for k in range(1, n + 1):
        point[t_var(k)] = psi[k - 1][k - 1]
        for l in range(k + 1, n + 1):
            point[u_var(k, l)] = psi[k - 1][l - 1]
    return point


@lru_cache(maxsize=None)
def _lower_sets(cols: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The rows <= cols componentwise, the only rows with a nonzero shifted
    minor Delta^cols_rows of an upper-triangular matrix."""
    return tuple(
        rows
        for rows in itertools.combinations(range(1, cols[-1] + 1), len(cols))
        if all(i <= j for i, j in zip(rows, cols))
    )


def _p_family_holds(eqs: EquationSet, point: dict, supports: list[dict]) -> bool:
    """Whether every P_{w,I,s} vanishes at the point, tested on the point's
    own numbers: with A its (u, t) matrix and x the point's coordinates of
    dimension d, given on their support, wedge^d(A + lambda id) x must equal
    prod_{k<=d} (t_{w(k)} + lambda) x, coordinate by coordinate and
    coefficient by coefficient.  The sweep checks each coordinate's top
    coefficient, and the product grows by one factor per d."""
    n, w = eqs.n, eqs.w
    a = _upper_matrix(n, point)
    diagonal = [1]
    for d, support in enumerate(supports, start=1):
        diagonal = _times_shift(diagonal + [0], a[w(d)][w(d)])
        # a coordinate the sweep leaves out is 0, and so is its x_I
        for indices, total in _exterior_power(a, n, d, support).items():
            x_i = support.get(indices, 0)
            if total != [e * x_i for e in diagonal]:
                return False
    return True


def check_point_families(eqs: EquationSet, point: dict) -> dict[str, bool]:
    """Evaluate every equation family of a cell at a point, exactly."""
    n = eqs.n
    try:
        supports = [{tup: point[x] for tup, x in _x_vars(n, d) if point[x]} for d in range(1, n)]
    except KeyError as missing:
        raise IncompletePointError(f"no value for variable {var_name(missing.args[0])}")
    cell_ok = all(
        lead in support and support.keys().isdisjoint(vanishing)
        for lead, vanishing, support in zip(eqs.cell.nonvanishing, eqs.cell.vanishing, supports)
    )
    return {
        "plucker": all(rel.evaluate(point) == 0 for rel in eqs.plucker),
        "incidence": all(rel.evaluate(point) == 0 for rel in eqs.incidence),
        "cell": cell_ok,
        "p_equations": _p_family_holds(eqs, point, supports),
    }


# ---------------------------------------------------------------------------
# the additional diagonal equation and the counter-example scanner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hit:
    """A configuration (q, a, b) making t_a = t_b hold on the cell closure."""

    q: int
    a: int
    b: int
    variant: str  # "main" | "remark"


@dataclass(frozen=True)
class WitnessPoint:
    plucker_values: dict
    psi: tuple

    @property
    def diagonal(self) -> tuple:
        return tuple(self.psi[i][i] for i in range(len(self.psi)))


@dataclass
class WitnessVerification:
    w: Permutation
    w_prime: Permutation
    a: int
    b: int
    point: WitnessPoint
    checks: dict[str, bool]

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


@dataclass
class CounterexampleReport:
    w: Permutation
    w_prime: Permutation
    hits: tuple[Hit, ...]
    status: str  # "refuted" | "unknown"
    witness: Optional[WitnessVerification] = None


def separated_hits(w: Permutation, w_prime: Permutation) -> tuple[Hit, ...]:
    """The (q, a, b) configurations whose extra diagonal equation t_a = t_b
    genuinely separates the closure from the fiber, in (q, a, b, variant)
    order.

    For 1 <= q <= n - 2 let W = w({1..q+1}) and W' = w'({1..q+1}).  The shared
    bullets ask for a in W' \\ W, b in W \\ W' and a < b.  The "main" variant
    also asks that every i != a of W' below b lie in W; the "remark" variant,
    that every j != b of W above a lie in W'.  Configurations with a, b in a
    common orbit of w w'^{-1} satisfy the same bullets but only reprove an
    identification the fiber already carries, so they are not hits.
    """
    orbits = (w * w_prime.inverse()).orbits()
    hits: list[Hit] = []
    for q in range(1, w.n - 1):
        w_set = set(w.one_line[: q + 1])
        wp_set = set(w_prime.one_line[: q + 1])
        for a in sorted(wp_set - w_set):
            orbit_a = next(o for o in orbits if a in o)
            for b in sorted(w_set - wp_set):
                if b < a or b in orbit_a:
                    continue
                if all(i in w_set for i in wp_set if i != a and i < b):
                    hits.append(Hit(q, a, b, "main"))
                if all(j in wp_set for j in w_set if j != b and j > a):
                    hits.append(Hit(q, a, b, "remark"))
    return tuple(hits)


def additional_equation_scan(w: Permutation, w_prime: Permutation) -> CounterexampleReport:
    """The separated hits of (w, w'), with a witness point verified on the
    first one."""
    check_size("equation generation", w.n)
    hits = separated_hits(w, w_prime)
    witness = None
    if hits:
        witness = _build_witness(w, w_prime, hits[0].a, hits[0].b)
        if not witness.ok:
            raise VerificationFailedError(
                f"witness for ({w.to_string()}, {w_prime.to_string()}) failed"
            )
    return CounterexampleReport(
        w=w,
        w_prime=w_prime,
        hits=hits,
        status="refuted" if hits else "unknown",
        witness=witness,
    )


def _check_ab(n: int, a: int, b: int) -> None:
    if not (1 <= a <= n and 1 <= b <= n):
        raise ValueError(f"need 1 <= a, b <= {n}, got a={a}, b={b}")


def witness_diagonal(w: Permutation, w_prime: Permutation, a: int, b: int) -> tuple[int, ...]:
    """Deterministic diagonal: 0 on the orbit of a, 1 on the orbit of b, then
    2, 3, ... on the remaining orbits in order of smallest element."""
    _check_ab(w.n, a, b)
    sigma = w * w_prime.inverse()
    orbits = sigma.orbits()
    orbit_a = next(o for o in orbits if a in o)
    orbit_b = next(o for o in orbits if b in o)
    if orbit_a == orbit_b:
        raise ValueError(f"a={a} and b={b} lie in the same orbit; cannot separate")
    color: dict[tuple, int] = {orbit_a: 0, orbit_b: 1}
    nxt = 2
    for orbit in sorted(orbits, key=min):
        if orbit not in color:
            color[orbit] = nxt
            nxt += 1
    t = [0] * w.n
    for orbit, c in color.items():
        for v in orbit:
            t[v - 1] = c
    return tuple(t)


def verify_witness(
    w: Permutation,
    w_prime: Permutation,
    a: int,
    b: int,
    diagonal=None,
) -> WitnessVerification:
    """Construct the canonical integer witness point (a caller-supplied
    ``diagonal`` may have ``int`` or ``Fraction`` entries) and run the five
    checks:

    1. all Pluecker and incidence relations vanish,
    2. the cell (in)equations of w' hold,
    3. every P_{w',.,s} vanishes (membership in the cell of w'),
    4. the diagonal satisfies the fiber identifications of (w, w'),
    5. t_a != t_b, so the extra closure equation fails at the point.

    (a, b) must be a separated hit of (w, w'), or ``ValueError`` is raised:
    for any other pair the checks would pass without refuting anything.
    A failure of checks 1-4 raises: the construction guarantees them, so a
    failure is a bug.  Check 5 may legitimately fail for a custom diagonal.
    """
    check_size("equation generation", w.n)
    _check_ab(w.n, a, b)
    if (a, b) not in {(hit.a, hit.b) for hit in separated_hits(w, w_prime)}:
        pair = f"({w.to_string()}, {w_prime.to_string()})"
        raise ValueError(f"(a, b) = ({a}, {b}) is not a separated hit of {pair}")
    return _build_witness(w, w_prime, a, b, diagonal)


def _build_witness(
    w: Permutation, w_prime: Permutation, a: int, b: int, diagonal=None
) -> WitnessVerification:
    """``verify_witness`` for an (a, b) known to be a separated hit."""
    n = w.n
    t = witness_diagonal(w, w_prime, a, b) if diagonal is None else tuple(diagonal)
    if len(t) != n:
        raise ValueError(f"the diagonal needs n = {n} entries, got {len(t)}")
    if any(type(c) not in (int, Fraction) for c in t):
        raise ValueError(f"diagonal entries must be int or Fraction, got {t}")
    leads = {_prefix_set(w_prime, d) for d in range(1, n)}
    plucker_values = {tup: int(tup in leads) for d in range(1, n) for tup, _ in _x_vars(n, d)}
    psi = tuple(tuple(t[i] if i == j else 0 for j in range(n)) for i in range(n))
    point = point_assignment(n, plucker_values, psi)
    eqs = p_polynomials(w_prime)
    families = check_point_families(eqs, point)
    checks = {
        "plucker_incidence": families["plucker"] and families["incidence"],
        "cell": families["cell"],
        "membership": families["p_equations"],
        "fiber": all(t[p - 1] == t[q - 1] for p, q in fiber_equations(w, w_prime)),
        "separating": t[a - 1] != t[b - 1],
    }
    if diagonal is None and not all(
        checks[k] for k in ("plucker_incidence", "cell", "membership", "fiber")
    ):
        raise VerificationFailedError(
            f"canonical witness for ({w.to_string()}, {w_prime.to_string()}, "
            f"a={a}, b={b}) failed structural checks: {checks}"
        )
    return WitnessVerification(
        w=w, w_prime=w_prime, a=a, b=b,
        point=WitnessPoint(plucker_values, psi), checks=checks,
    )
