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
where C_{i,s} = sum_j M_{i,j,s} x_j is the lambda^s coefficient of the
colinearity sum, M_{i,j,s} that of Delta^j_i(u + lambda id), and e the
elementary symmetric polynomial.  The M and the e are independent of w and
cached, so a point is checked against the P-family without building any
P_{w,i,s}: it must satisfy sum_j M_{i,j,s}(pt) x_j(pt) = e_{d-s}(pt) x_i(pt),
summed over the j with x_j(pt) != 0 only, with each e evaluated once per d.
The polynomials themselves are built only on request (``EquationSet.p_equations``).

Points carry plain ``int`` coordinates.  Only the sampler and the witness
builder make points, and every check is invariant under scaling psi, so
neither needs a ``Fraction``; a diagonal that a caller hands to
``verify_witness`` may still be rational, and is checked just as exactly.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd
from typing import Optional

from .linalg import integer_kernel, scaled_inverse
from .poly import (
    LAMBDA,
    SparsePolynomial,
    normalize_plucker_indices,
    symbolic_minor,
    t_var,
    u_var,
    x_var,
)
from .roots import subset_leq
from .weyl import Permutation, check_size

DEFAULT_SEED = 42
COEFF_RANGE = 9  # random integer coordinates are drawn from [-9, 9]


class VerificationFailedError(RuntimeError):
    """A witness failed a structural check; signals a bug, not a math outcome."""


class PreconditionError(ValueError):
    """Lemma hypotheses violated by the caller."""


def _signed_x(indices) -> SparsePolynomial:
    """x variable for an arbitrary index sequence, with sign normalization."""
    sign, sorted_idx = normalize_plucker_indices(indices)
    if sign == 0:
        return SparsePolynomial.zero()
    return SparsePolynomial.variable(x_var(sorted_idx)) * sign


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

    Built straight into term dicts, normalising i_seq + (j,) once per i_seq.
    Identically-zero relations are dropped and duplicates (up to sign) kept
    once, in first-seen order.
    """
    out: list[SparsePolynomial] = []
    seen: set[SparsePolynomial] = set()
    universe = range(1, n + 1)
    for i_seq in itertools.combinations(universe, d - 1):
        signed = {}
        for j in universe:
            sign, idx = normalize_plucker_indices(i_seq + (j,))
            if sign:
                signed[j] = (sign, x_var(idx))
        for j_seq in itertools.combinations(universe, d_prime + 1):
            terms: dict = {}
            for k, jk in enumerate(j_seq):
                if jk not in signed:
                    continue
                sign, x = signed[jk]
                mono = ((x, 1), (x_var(j_seq[:k] + j_seq[k + 1 :]), 1))
                terms[mono] = sign if k % 2 else -sign
            rel = SparsePolynomial(terms)
            if rel.is_zero:
                continue
            rel = _canonical_sign(rel)
            if rel not in seen:
                seen.add(rel)
                out.append(rel)
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

    w: Permutation
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
        vanishing.append(
            tuple(
                tup
                for tup in itertools.combinations(range(1, n + 1), d)
                if not subset_leq(tup, lead)
            )
        )
    return CellDescription(w, tuple(nonvan), tuple(vanishing))


# ---------------------------------------------------------------------------
# colinearity polynomials
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _x_vars(n: int, d: int) -> tuple[tuple[tuple[int, ...], tuple], ...]:
    """(J, x_J) for every d-subset J of {1..n}, in combination order."""
    return tuple((tup, x_var(tup)) for tup in itertools.combinations(range(1, n + 1), d))


@lru_cache(maxsize=None)
def _colinearity_index(n: int, indices: tuple[int, ...]) -> dict:
    """J -> (M_{I,J,0}, ..., M_{I,J,d-1}) for every J with a nonzero shifted
    minor Delta^J_I(u + lambda id), M_{I,J,s} being its lambda^s coefficient
    and d = |I|.  Checked once for all w on the minors, and so on every
    C_{I,s} = sum_J M_{I,J,s} x_J: the lambda^d coefficient is 1 for J = I and
    0 otherwise and nothing is higher, so P_{w,I,s} exists for s < d only;
    every monomial has degree d in (u, t, lambda), so M_{I,J,s} has
    (u, t)-degree d - s, like e_{d-s}(t), and P_{w,I,s} is homogeneous."""
    d = len(indices)
    index = {}
    for tup, _ in _x_vars(n, d):
        minor = symbolic_minor(n, indices, tup, shift_lambda=True)
        if minor.is_zero:
            continue
        coeffs = minor.lambda_coefficients()
        degree, top = len(coeffs) - 1, int(tup == indices)
        coeffs += [SparsePolynomial.zero()] * (d - degree)
        if degree > d or coeffs[d] != SparsePolynomial.constant(top) or minor.degrees() != {d}:
            raise VerificationFailedError(
                f"the shifted minor of {indices} x {tup} (n = {n}) has lambda degree {degree}, "
                f"a lambda^{d} coefficient other than {top}, or a monomial of degree != {d}"
            )
        index[tup] = tuple(coeffs[:d])
    return index


@lru_cache(maxsize=None)
def _colinearity_coefficients(n: int, indices: tuple[int, ...]) -> tuple[SparsePolynomial, ...]:
    """C_{I,s} = sum_J M_{I,J,s} x_J for 0 <= s < |I|, built from the index."""
    index = _colinearity_index(n, indices)
    terms = [(m, SparsePolynomial.variable(x_var(tup))) for tup, m in index.items()]
    zero = SparsePolynomial.zero()
    return tuple(sum((m[s] * x for m, x in terms), zero) for s in range(len(indices)))


@lru_cache(maxsize=None)
def _subset_product_coefficients(subset: tuple[int, ...]) -> tuple[SparsePolynomial, ...]:
    """The lambda-coefficients of prod_{m in subset} (t_m + lambda): entry s
    is the elementary symmetric polynomial e_{|subset|-s} of those t_m."""
    out = SparsePolynomial.constant(1)
    lam = SparsePolynomial.variable(LAMBDA)
    for m in subset:
        out = out * (SparsePolynomial.variable(t_var(m)) + lam)
    return tuple(out.lambda_coefficients())


def _diagonal_product(w: Permutation, d: int) -> SparsePolynomial:
    """prod_{k<=d} (t_{w(k)} + lambda)."""
    coeffs = _subset_product_coefficients(_prefix_set(w, d))
    lam = SparsePolynomial.variable(LAMBDA)
    return sum((c * lam**s for s, c in enumerate(coeffs)), SparsePolynomial.zero())


def p_polynomial(w: Permutation, indices: tuple[int, ...]) -> SparsePolynomial:
    """P_{w,indices}(lambda): the colinearity sum, sum_s C_{I,s} lambda^s + x_I lambda^d,
    minus the diagonal product times x_I; vanishes identically on the cell of w."""
    indices, lam = tuple(indices), SparsePolynomial.variable(LAMBDA)
    d, x = len(indices), SparsePolynomial.variable(x_var(indices))
    coeffs = _colinearity_coefficients(w.n, indices)
    colinear = sum((c * lam**s for s, c in enumerate(coeffs)), x * lam**d)
    return colinear - _diagonal_product(w, d) * x


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

        P_{w,I,s} = C_{I,s} - e_{d-s}(t_{w(1)}, ..., t_{w(d)}) x_I, where
        C_{I,s} is the lambda^s coefficient of the colinearity sum.
        """
        n, w = self.n, self.w
        p_eqs = {}
        for d in range(1, n):
            diagonal = _subset_product_coefficients(_prefix_set(w, d))
            for indices in itertools.combinations(range(1, n + 1), d):
                colinear = _colinearity_coefficients(n, indices)
                x = SparsePolynomial.variable(x_var(indices))
                for s in range(d):
                    p_eqs[(d, indices, s)] = colinear[s] - diagonal[s] * x
        return p_eqs


def p_polynomials(w: Permutation) -> EquationSet:
    """Bundle Pluecker + incidence (d, d+1) + cell data of w; the lambda
    coefficients P_{w,indices,s} are built only when ``p_equations`` is read,
    since ``check_point_families`` checks them through their cached factors.
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
        for _ in range(100):
            v = rng.randint(-COEFF_RANGE, COEFF_RANGE)
            if v != 0:
                m[i][i] = v
                break
        else:  # pragma: no cover - (2*COEFF_RANGE)^-100 chance
            raise RuntimeError("could not draw a nonzero diagonal entry")
        for j in range(i + 1, n):
            m[i][j] = rng.randint(-COEFF_RANGE, COEFF_RANGE)
    return m


def _leading_minors(g: list[list[int]]) -> dict[tuple[int, ...], int]:
    """For 1 <= d <= n-1 and every row subset (1-based) of size d, the minor
    of g on those rows and its first d columns, in combination order.

    Each minor is a Laplace expansion along its last column over the
    minors of size d-1 of the previous level.
    """
    n = len(g)
    out: dict[tuple[int, ...], int] = {}
    previous: dict[tuple[int, ...], int] = {(): 1}
    for d in range(1, n):
        level = {}
        for rows in itertools.combinations(range(1, n + 1), d):
            total = 0
            for pos, r in enumerate(rows):
                entry = g[r - 1][d - 1]
                if entry:
                    term = entry * previous[rows[:pos] + rows[pos + 1 :]]
                    total += -term if (d - 1 - pos) % 2 else term
            level[rows] = total
        out.update(level)
        previous = level
    return out


def _sample_cell_point(
    cell_w: Permutation, diag_pairs: tuple, seed: int
) -> tuple[dict, tuple]:
    """Shared sampler: a random point of the cell of ``cell_w`` whose psi also
    satisfies the given diagonal identifications t_p = t_q.  Every step runs
    on integers.

    The kernel combination v over the denominator D of ``integer_kernel``
    spans the same line as psi = v / D; every check is invariant under
    positive scaling of psi, so psi is v / (gcd(v) sign(D)), its positive
    primitive integer multiple.  Dividing by D itself would leave rationals
    with denominators of 100+ bits on S6 cells."""
    n = cell_w.n
    rng = random.Random(seed)
    b1 = _random_upper_invertible(rng, n)
    b2 = _random_upper_invertible(rng, n)
    # P_w only permutes columns: (b1 P_w)[i][j] = b1[i][w(j+1)-1]
    b1_pw = [[row[cell_w(j + 1) - 1] for j in range(n)] for row in b1]
    g = [
        [sum(row[k] * b2[k][j] for k in range(j + 1)) for j in range(n)]
        for row in b1_pw
    ]
    plucker_values = _leading_minors(g)
    # adj = D g^{-1}; scaling each constraint row by D keeps the kernel
    adj, _ = scaled_inverse(g)
    unknowns = [(k, l) for k in range(1, n + 1) for l in range(k, n + 1)]
    col_of = {kl: idx for idx, kl in enumerate(unknowns)}
    constraint_rows = []
    for p in range(n):
        for q in range(p):
            # strictly-lower entry (p, q) of g^{-1} E_{kl} g is
            # g^{-1}[p][k-1] * g[l-1][q]
            constraint_rows.append([adj[p][k - 1] * g[l - 1][q] for (k, l) in unknowns])
    for p, q in diag_pairs:
        row = [0] * len(unknowns)
        row[col_of[(p, p)]] = 1
        row[col_of[(q, q)]] = -1
        constraint_rows.append(row)
    basis, denominator = integer_kernel(constraint_rows, ncols=len(unknowns))
    combo = [rng.randint(-COEFF_RANGE, COEFF_RANGE) for _ in basis]
    v = [sum(c * vec[idx] for c, vec in zip(combo, basis)) for idx in range(len(unknowns))]
    scale = (gcd(*v) or 1) * (1 if denominator > 0 else -1)
    psi = [[0] * n for _ in range(n)]
    for (k, l), entry in zip(unknowns, v):
        psi[k - 1][l - 1] = entry // scale
    return plucker_values, tuple(tuple(row) for row in psi)


def sample_point_on_Vw(w: Permutation, seed: int) -> tuple[dict, tuple]:
    """A random integer point of the cell of w.

    Draw invertible upper-triangular integer b1, b2 and set g = b1 P_w b2,
    so the flag of g lies in the cell; the Pluecker coordinates are the
    leading-column minors of g, computed level by level by Laplace
    expansion.  Then solve the exact linear system keeping psi
    upper-triangular with g^{-1} psi g upper-triangular: its rows are built
    from adj(g) = D g^{-1}, which has the same kernel, and a random integer
    combination of the kernel basis, made primitive, gives psi.  Pluecker
    values and psi entries are ``int``.
    """
    return _sample_cell_point(w, (), seed)


def sample_point_on_fiber(
    w: Permutation, w_prime: Permutation, seed: int
) -> tuple[dict, tuple]:
    """A random point of the cell of w' whose diagonal also satisfies the
    identifications t_{w'(k)} = t_{w(k)}; such points fill the naive fiber
    over the fixed torus part, where every colinearity coefficient of w must
    vanish as well."""
    return _sample_cell_point(w_prime, fiber_equations(w, w_prime), seed)


@lru_cache(maxsize=4096)
def _cached_sample_assignment(one_line: tuple[int, ...], seed: int) -> dict:
    w = Permutation(one_line)
    plucker_values, psi = sample_point_on_Vw(w, seed)
    return point_assignment(w.n, plucker_values, psi)


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


def _p_family_holds(eqs: EquationSet, point: dict, supports: list[dict]) -> bool:
    """Whether every P_{w,I,s} vanishes at the point, tested from the index as
    sum_J M_{I,J,s}(pt) x_J(pt) == e_{d-s}(t_{w(1..d)})(pt) x_I(pt) over the J
    in the support of dimension d, those with x_J != 0: the terms left out
    are the monomials of C_{I,s} whose first factor is 0, which ``evaluate``
    skips as well."""
    n = eqs.n
    for d, support in enumerate(supports, start=1):
        diagonal = [
            e.evaluate(point) for e in _subset_product_coefficients(_prefix_set(eqs.w, d))[:d]
        ]
        for indices, _ in _x_vars(n, d):
            index = _colinearity_index(n, indices)
            terms = [(index[tup], x_j) for tup, x_j in support.items() if tup in index]
            x_i = support.get(indices, 0)
            for s in range(d):
                if sum(m[s].evaluate(point) * x_j for m, x_j in terms) != diagonal[s] * x_i:
                    return False
    return True


def check_point_families(eqs: EquationSet, point: dict) -> dict[str, bool]:
    """Evaluate every equation family of a cell at a point, exactly."""
    n = eqs.n
    supports = [{tup: point[x] for tup, x in _x_vars(n, d) if point[x]} for d in range(1, n)]
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
        witness = verify_witness(w, w_prime, hits[0].a, hits[0].b)
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
    ``diagonal`` may be rational) and run the five checks:

    1. all Pluecker and incidence relations vanish,
    2. the cell (in)equations of w' hold,
    3. every P_{w',.,s} vanishes (membership in the cell of w'),
    4. the diagonal satisfies the fiber identifications of (w, w'),
    5. t_a != t_b, so the extra closure equation fails at the point.

    A failure of checks 1-4 raises: the construction guarantees them, so a
    failure is a bug.  Check 5 may legitimately fail for a custom diagonal.
    """
    n = w.n
    check_size("equation generation", n)
    _check_ab(n, a, b)
    t = witness_diagonal(w, w_prime, a, b) if diagonal is None else tuple(diagonal)
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
        "fiber": all(t[w_prime(k) - 1] == t[w(k) - 1] for k in range(1, n + 1)),
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


# ---------------------------------------------------------------------------
# simplified incidence identities on sampled cell points
# ---------------------------------------------------------------------------

def _product_value(point: dict, indices):
    return _signed_x(indices).evaluate(point)


def _incidence_hypotheses(w: Permutation, q: int, b: int, j_set) -> tuple[int, ...]:
    n = w.n
    if not 1 <= q <= n - 2:
        raise PreconditionError(f"need 1 <= q <= n-2, got q={q}")
    w_set = {w(k) for k in range(1, q + 2)}
    if b not in w_set:
        raise PreconditionError(f"b={b} must lie in w({{1..{q + 1}}}) = {sorted(w_set)}")
    j_tuple = tuple(sorted(j_set))
    if len(j_tuple) != q or len(set(j_tuple)) != q:
        raise PreconditionError(f"j_set must have exactly q={q} distinct elements")
    if b in j_tuple:
        raise PreconditionError(f"j_set must avoid b={b}")
    for j in j_tuple:
        if j < b and j not in w_set:
            raise PreconditionError(
                f"every j < b must lie in w({{1..{q + 1}}}); {j} does not"
            )
    return j_tuple


def simplified_incidence_check(
    w: Permutation,
    q: int,
    b: int,
    j_set,
    a: int,
    samples: int = 10,
    seed: int = DEFAULT_SEED,
) -> tuple[bool, Optional[int]]:
    """Check x_{I,a} x_{J,b} = +- x_{I,b} x_{J,a} on sampled cell points,
    where I = w({1..q+1}) minus b.  Returns (holds, sign); the sign is the
    consistent choice, or None when every sample left both signs feasible.
    """
    j_tuple = _incidence_hypotheses(w, q, b, j_set)
    n = w.n
    i_tuple = tuple(sorted(v for v in (w(k) for k in range(1, q + 2)) if v != b))
    feasible = {1, -1}
    decided = False
    for s in range(samples):
        point = _cached_sample_assignment(w.one_line, seed + s)
        lhs = _product_value(point, i_tuple + (a,)) * _product_value(point, j_tuple + (b,))
        rhs_base = _product_value(point, i_tuple + (b,)) * _product_value(point, j_tuple + (a,))
        feasible = {sg for sg in feasible if lhs == sg * rhs_base}
        if lhs != 0 or rhs_base != 0:
            decided = True
        if not feasible:
            return False, None
    if not decided:
        return True, None  # both sides vanished at every sample
    return True, next(iter(feasible))


def additional_equation_holds(
    w: Permutation,
    q: int,
    b: int,
    j_set,
    a: int,
    samples: int = 10,
    seed: int = DEFAULT_SEED,
) -> bool:
    """Check the derived cell identity combining the colinearity polynomial
    with the simplified incidence relations:

        sum_{J <= K <= I} e_K Delta^{K,b}_{J,b}(u + lambda) x_{K,a}
            = prod_{m<=q+1} (t_{w(m)} + lambda) x_{J,a}

    with empirical per-term signs e_K; requires {J, a} <= {I, b}.
    """
    j_tuple = _incidence_hypotheses(w, q, b, j_set)
    n = w.n
    if a in j_tuple:
        raise PreconditionError("a must avoid j_set for a meaningful identity")
    i_tuple = tuple(sorted(v for v in (w(k) for k in range(1, q + 2)) if v != b))
    if not subset_leq(sorted(j_tuple + (a,)), sorted(i_tuple + (b,))):
        raise PreconditionError("need {j, a} <= {i, b} componentwise")
    k_tuples = [
        k_seq
        for k_seq in itertools.combinations(range(1, n + 1), q)
        if b not in k_seq
        and all(lo <= mid <= hi for lo, mid, hi in zip(j_tuple, k_seq, i_tuple))
    ]
    signs = {}
    for k_seq in k_tuples:
        holds, sign = simplified_incidence_check(w, q, b, k_seq, a, samples, seed)
        if not holds:
            return False
        signs[k_seq] = 1 if sign is None else sign  # undecided terms vanish anyway
    sigma_j = signs[j_tuple]
    poly = SparsePolynomial.zero()
    for k_seq, sigma_k in signs.items():
        minor = symbolic_minor(
            n, tuple(sorted(j_tuple + (b,))), tuple(sorted(k_seq + (b,))), shift_lambda=True
        )
        poly = poly + minor * _signed_x(k_seq + (a,)) * (sigma_j * sigma_k)
    poly = poly - _diagonal_product(w, q + 1) * _signed_x(j_tuple + (a,))
    coeffs = poly.lambda_coefficients()
    for s in range(samples):
        point = _cached_sample_assignment(w.one_line, seed + s)
        if any(c.evaluate(point) != 0 for c in coeffs):
            return False
    return True
