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
w w'^{-1}, an explicit rational point separates the closure from the naive
fiber and refutes the conjectural description of their intersection.  The
scanner enumerates the (q, a, b) configurations, and the verifier checks the
witness point against every equation family with exact arithmetic.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .linalg import det, kernel_basis, mat_inverse, mat_mul
from .poly import (
    LAMBDA,
    SparsePolynomial,
    exact_number,
    normalize_plucker_indices,
    symbolic_minor,
    t_var,
    u_var,
    x_var,
)
from .roots import subset_leq
from .weyl import Permutation

# equation generation is capped: C(n,d) coordinate counts explode beyond this
MAX_EQUATION_N = 6

DEFAULT_SEED = 42
COEFF_RANGE = 9  # random integer coordinates are drawn from [-9, 9]


class VerificationFailedError(RuntimeError):
    """A witness failed a structural check; signals a bug, not a math outcome."""


class PreconditionError(ValueError):
    """Lemma hypotheses violated by the caller."""


def _check_n(n: int) -> None:
    if not 2 <= n <= MAX_EQUATION_N:
        raise ValueError(f"equation generation supports 2 <= n <= {MAX_EQUATION_N}")


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

    Identically-zero relations are dropped and duplicates (up to sign) kept
    once, in first-seen order.
    """
    out: list[SparsePolynomial] = []
    seen: set[SparsePolynomial] = set()
    universe = range(1, n + 1)
    for i_seq in itertools.combinations(universe, d - 1):
        for j_seq in itertools.combinations(universe, d_prime + 1):
            rel = SparsePolynomial.zero()
            for k, jk in enumerate(j_seq, start=1):
                rest = j_seq[: k - 1] + j_seq[k:]
                term = _signed_x(i_seq + (jk,)) * _signed_x(rest)
                rel = rel + term * ((-1) ** k)
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
    _check_n(n)
    if not 1 <= d <= n - 1:
        raise ValueError(f"need 1 <= d <= n-1, got d={d}")
    return _exchange_relations(n, d, d)


@lru_cache(maxsize=None)
def incidence_relations(n: int, d: int, d_prime: int) -> tuple[SparsePolynomial, ...]:
    """Relations expressing that a d-plane is contained in a d'-plane."""
    _check_n(n)
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
    _check_n(n)
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
def _colinearity_sum(n: int, indices: tuple[int, ...]) -> SparsePolynomial:
    """sum over j of Delta^j_indices(u + lambda id) x_j; shared across all w."""
    d = len(indices)
    total = SparsePolynomial.zero()
    for j_seq in itertools.combinations(range(1, n + 1), d):
        minor = symbolic_minor(n, indices, j_seq, shift_lambda=True)
        if minor.is_zero:
            continue
        total = total + minor * SparsePolynomial.variable(x_var(j_seq))
    return total


@lru_cache(maxsize=None)
def _colinearity_coefficients(n: int, indices: tuple[int, ...]) -> tuple[SparsePolynomial, ...]:
    """The lambda-coefficients of ``_colinearity_sum(n, indices)``."""
    return tuple(_colinearity_sum(n, indices).lambda_coefficients())


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
    """P_{w,indices}(lambda); vanishes identically on the cell of w."""
    n = w.n
    d = len(indices)
    return _colinearity_sum(n, tuple(indices)) - _diagonal_product(w, d) * (
        SparsePolynomial.variable(x_var(indices))
    )


@dataclass
class EquationSet:
    """All equation families attached to the cell of one permutation."""

    n: int
    w: Permutation
    plucker: tuple[SparsePolynomial, ...]
    incidence: tuple[SparsePolynomial, ...]
    cell: CellDescription
    p_equations: dict  # (d, index tuple, s) -> lambda-free SparsePolynomial


def p_polynomials(w: Permutation) -> EquationSet:
    """Bundle Pluecker + incidence (d, d+1) + cell data + every lambda
    coefficient P_{w,indices,s}, 0 <= s <= d-1.

    P_{w,I,s} = C_{I,s} - e_{d-s}(t_{w(1)}, ..., t_{w(d)}) x_I, where C_{I,s}
    is the lambda^s coefficient of the colinearity sum; both factors are
    cached, so only the products with x_I and the differences depend on w.
    """
    n = w.n
    _check_n(n)
    p_eqs = {}
    for d in range(1, n):
        diagonal = _subset_product_coefficients(_prefix_set(w, d))
        for indices in itertools.combinations(range(1, n + 1), d):
            colinear = _colinearity_coefficients(n, indices)
            x = SparsePolynomial.variable(x_var(indices))
            # lambda^d cancels against the diagonal product, and nothing is higher
            if len(colinear) != d + 1 or colinear[d] != x:
                raise VerificationFailedError(
                    f"P_{w.to_string()},{indices} has lambda degree "
                    f"{max(len(colinear) - 1, d)} >= {d}"
                )
            for s in range(d):
                p_eqs[(d, indices, s)] = colinear[s] - diagonal[s] * x
    plucker = tuple(
        rel for d in range(1, n) for rel in plucker_relations(n, d)
    )
    incidence = tuple(
        rel for d in range(1, n - 1) for rel in incidence_relations(n, d, d + 1)
    )
    return EquationSet(n, w, plucker, incidence, cell_equations(w), p_eqs)


def fiber_equations(w: Permutation, w_prime: Permutation) -> tuple[tuple[int, int], ...]:
    """Diagonal identifications t_{w'(k)} = t_{w(k)}, deduplicated.

    These cut out exactly the fixed space of w w'^{-1} permuting coordinates.
    """
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
# rational sampling of cell points
# ---------------------------------------------------------------------------

def _random_upper_invertible(rng: random.Random, n: int) -> list[list[Fraction]]:
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for _ in range(100):
            v = rng.randint(-COEFF_RANGE, COEFF_RANGE)
            if v != 0:
                m[i][i] = Fraction(v)
                break
        else:  # pragma: no cover - (2*COEFF_RANGE)^-100 chance
            raise RuntimeError("could not draw a nonzero diagonal entry")
        for j in range(i + 1, n):
            m[i][j] = Fraction(rng.randint(-COEFF_RANGE, COEFF_RANGE))
    return m


def _permutation_matrix(w: Permutation) -> list[list[Fraction]]:
    n = w.n
    return [
        [Fraction(1 if i + 1 == w(j + 1) else 0) for j in range(n)] for i in range(n)
    ]


def _sample_cell_point(
    cell_w: Permutation, diag_pairs: tuple, seed: int
) -> tuple[dict, tuple]:
    """Shared sampler: a random point of the cell of ``cell_w`` whose psi also
    satisfies the given diagonal identifications t_p = t_q."""
    n = cell_w.n
    rng = random.Random(seed)
    b1 = _random_upper_invertible(rng, n)
    b2 = _random_upper_invertible(rng, n)
    g = mat_mul(mat_mul(b1, _permutation_matrix(cell_w)), b2)
    plucker_values: dict[tuple[int, ...], Fraction] = {}
    for d in range(1, n):
        for rows in itertools.combinations(range(1, n + 1), d):
            sub = [[g[r - 1][c] for c in range(d)] for r in rows]
            plucker_values[rows] = det(sub)
    g_inv = mat_inverse(g)
    unknowns = [(k, l) for k in range(1, n + 1) for l in range(k, n + 1)]
    col_of = {kl: idx for idx, kl in enumerate(unknowns)}
    constraint_rows = []
    for p in range(n):
        for q in range(p):
            # strictly-lower entry (p, q) of g^{-1} E_{kl} g is
            # g^{-1}[p][k-1] * g[l-1][q]
            constraint_rows.append(
                [g_inv[p][k - 1] * g[l - 1][q] for (k, l) in unknowns]
            )
    for p, q in diag_pairs:
        row = [Fraction(0)] * len(unknowns)
        row[col_of[(p, p)]] = Fraction(1)
        row[col_of[(q, q)]] = Fraction(-1)
        constraint_rows.append(row)
    basis = kernel_basis(constraint_rows, ncols=len(unknowns))
    combo = [Fraction(rng.randint(-COEFF_RANGE, COEFF_RANGE)) for _ in basis]
    entries = [
        sum((c * vec[idx] for c, vec in zip(combo, basis)), Fraction(0))
        for idx in range(len(unknowns))
    ]
    psi = [[Fraction(0)] * n for _ in range(n)]
    for (k, l), val in zip(unknowns, entries):
        psi[k - 1][l - 1] = val
    return plucker_values, tuple(tuple(row) for row in psi)


def sample_point_on_Vw(w: Permutation, seed: int) -> tuple[dict, tuple]:
    """A random exact rational point of the cell of w.

    Draw invertible upper-triangular b1, b2 and set g = b1 P_w b2, so the
    flag of g lies in the cell; the Pluecker coordinates are leading minors
    of g.  Then solve the exact linear system keeping psi upper-triangular
    with g^{-1} psi g upper-triangular, and take a random rational element of
    its solution space.
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
    """Assemble the variable assignment of a point for exact evaluation."""
    point = {}
    for d in range(1, n):
        for tup in itertools.combinations(range(1, n + 1), d):
            point[x_var(tup)] = exact_number(plucker_values.get(tup, 0))
    for k in range(1, n + 1):
        point[t_var(k)] = exact_number(psi[k - 1][k - 1])
        for l in range(k + 1, n + 1):
            point[u_var(k, l)] = exact_number(psi[k - 1][l - 1])
    return point


def check_point_families(eqs: EquationSet, point: dict) -> dict[str, bool]:
    """Evaluate every equation family of a cell at a point, exactly."""
    cell_ok = True
    for d_idx, lead in enumerate(eqs.cell.nonvanishing):
        if point[x_var(lead)] == 0:
            cell_ok = False
        for tup in eqs.cell.vanishing[d_idx]:
            if point[x_var(tup)] != 0:
                cell_ok = False
    return {
        "plucker": all(rel.evaluate(point) == 0 for rel in eqs.plucker),
        "incidence": all(rel.evaluate(point) == 0 for rel in eqs.incidence),
        "cell": cell_ok,
        "p_equations": all(p.evaluate(point) == 0 for p in eqs.p_equations.values()),
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
    def diagonal(self) -> tuple[Fraction, ...]:
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
    orbit_separated_hits: tuple[Hit, ...]
    status: str  # "refuted" | "unknown"
    witness: Optional[WitnessVerification] = None


def _hit_conditions(w_set: set, wp_set: set, a: int, b: int) -> tuple[bool, bool]:
    """The shared bullets plus the main / remark third bullet."""
    shared = (
        a not in w_set and a in wp_set and b in w_set and b not in wp_set
    )
    if not shared:
        return False, False
    main = all(i in w_set for i in wp_set if i != a and i < b)
    remark = all(j in wp_set for j in w_set if j != b and j > a)
    return main, remark


def additional_equation_scan(w: Permutation, w_prime: Permutation) -> CounterexampleReport:
    """Enumerate the (q, a, b) configurations whose extra diagonal equation
    t_a = t_b genuinely separates the closure from the fiber, and verify a
    witness point on the first one.

    Configurations with a, b in a common orbit of w w'^{-1} satisfy the same
    combinatorial bullets but only reprove an identification the fiber
    already carries, so they are not counted as hits.
    """
    n = w.n
    _check_n(n)
    sigma = w * w_prime.inverse()
    orbit_of = {}
    for orbit in sigma.orbits():
        for v in orbit:
            orbit_of[v] = orbit
    hits: list[Hit] = []
    for q in range(1, n - 1):
        w_set = {w(k) for k in range(1, q + 2)}
        wp_set = {w_prime(k) for k in range(1, q + 2)}
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                if orbit_of[a] == orbit_of[b]:
                    continue
                main, remark = _hit_conditions(w_set, wp_set, a, b)
                if main:
                    hits.append(Hit(q, a, b, "main"))
                if remark:
                    hits.append(Hit(q, a, b, "remark"))
    hits.sort(key=lambda h: (h.q, h.a, h.b, h.variant))
    separated = tuple(hits)
    witness = None
    if separated:
        witness = verify_witness(w, w_prime, separated[0].a, separated[0].b)
        if not witness.ok:
            raise VerificationFailedError(
                f"witness for ({w.to_string()}, {w_prime.to_string()}) failed"
            )
    return CounterexampleReport(
        w=w,
        w_prime=w_prime,
        hits=separated,
        orbit_separated_hits=separated,
        status="refuted" if separated else "unknown",
        witness=witness,
    )


def witness_diagonal(w: Permutation, w_prime: Permutation, a: int, b: int) -> tuple[Fraction, ...]:
    """Deterministic diagonal: 0 on the orbit of a, 1 on the orbit of b, then
    2, 3, ... on the remaining orbits in order of smallest element."""
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
    t = [Fraction(0)] * w.n
    for orbit, c in color.items():
        for v in orbit:
            t[v - 1] = Fraction(c)
    return tuple(t)


def verify_witness(
    w: Permutation,
    w_prime: Permutation,
    a: int,
    b: int,
    diagonal=None,
) -> WitnessVerification:
    """Construct the canonical witness point and run the five checks:

    1. all Pluecker and incidence relations vanish,
    2. the cell (in)equations of w' hold,
    3. every P_{w',.,s} vanishes (membership in the cell of w'),
    4. the diagonal satisfies the fiber identifications of (w, w'),
    5. t_a != t_b, so the extra closure equation fails at the point.

    A failure of checks 1-4 raises: the construction guarantees them, so a
    failure is a bug.  Check 5 may legitimately fail for a custom diagonal.
    """
    n = w.n
    _check_n(n)
    if diagonal is None:
        t = witness_diagonal(w, w_prime, a, b)
    else:
        t = tuple(Fraction(v) for v in diagonal)
    plucker_values = {}
    for d in range(1, n):
        lead = _prefix_set(w_prime, d)
        for tup in itertools.combinations(range(1, n + 1), d):
            plucker_values[tup] = Fraction(1 if tup == lead else 0)
    psi = tuple(
        tuple(t[i] if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )
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

def _product_value(point: dict, indices) -> Fraction:
    sign, sorted_idx = normalize_plucker_indices(indices)
    if sign == 0:
        return Fraction(0)
    return sign * point[x_var(sorted_idx)]


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
