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
elementary symmetric polynomial.  Every shifted minor comes from one engine,
``poly._shifted_minors``: a memoised Laplace expansion that returns
Delta^j_i(A + lambda id) as its list of lambda-coefficients, for a matrix A of
numbers or of polynomials, and checks each minor's top coefficient as it
goes.  On the generic matrix it gives the M_{i,j,s}; ``_colinearity_index``
checks their degrees, and the polynomials P_{w,i,s} are built from them only
on request (``EquationSet.p_equations``).  A point is checked on its own
numbers instead, without any polynomial: the engine runs on the point's (u, t)
matrix, only for the j with x_j(pt) != 0, and every coefficient of
sum_j Delta^j_i x_j - prod_{k<=d} (t_{w(k)} + lambda) x_i must vanish.

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
    IncompletePointError,
    SparsePolynomial,
    VerificationFailedError,
    _generic_minors,
    _shifted_minors,
    _upper_matrix,
    normalize_plucker_indices,
    t_var,
    u_var,
    var_name,
    x_var,
)
from .roots import subset_leq
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

    Built straight into term dicts, normalising i_seq + (j,) once per i_seq;
    only the j_k outside i_seq give a term.  For d < d' every choice gives a
    new nonzero relation.  For d = d' the choices where min(i_seq ^ j_seq)
    is not in i_seq are skipped unbuilt, which leaves every relation once, at
    its first (i_seq, j_seq) in iteration order:
    - j_seq \\ i_seq = {a, b}: the terms x_{I+a} x_{I+b} cancel to 0;
    - j_seq \\ i_seq = {a < b < c}, i_seq \\ j_seq = {i}: the three-term relation
      of (i_seq & j_seq) + {i, a, b, c} comes up once for each of its four
      choices of i, and i < a gives the lexicographically first i_seq.
    """
    out: list[SparsePolynomial] = []
    universe = range(1, n + 1)
    for i_seq in itertools.combinations(universe, d - 1):
        signed = {}
        for j in universe:
            sign, idx = normalize_plucker_indices(i_seq + (j,))
            if sign:
                signed[j] = (sign, x_var(idx))
        for j_seq in itertools.combinations(universe, d_prime + 1):
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
        vanishing.append(
            tuple(
                tup
                for tup in itertools.combinations(range(1, n + 1), d)
                if not subset_leq(tup, lead)
            )
        )
    return CellDescription(tuple(nonvan), tuple(vanishing))


# ---------------------------------------------------------------------------
# colinearity polynomials
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _x_vars(n: int, d: int) -> tuple[tuple[tuple[int, ...], tuple], ...]:
    """(J, x_J) for every d-subset J of {1..n}, in combination order."""
    return tuple((tup, x_var(tup)) for tup in itertools.combinations(range(1, n + 1), d))


@lru_cache(maxsize=None)
def _colinearity_index(n: int, indices: tuple[int, ...]) -> dict:
    """J -> (M_{I,J,0}, ..., M_{I,J,d-1}) for every J >= I componentwise,
    the J with a nonzero shifted minor Delta^J_I(u + lambda id), M_{I,J,s}
    being its lambda^s coefficient and d = |I|.  The minors are the engine's
    lists on the generic matrix, which has checked their lambda^d coefficient
    (1 for J = I, 0 otherwise) and has no entry for a higher power, so
    P_{w,I,s} exists for s < d only.  The check that needs polynomials runs
    here, once for all w: M_{I,J,s} is homogeneous of (u, t)-degree d - s,
    like e_{d-s}(t), so P_{w,I,s} is homogeneous."""
    d = len(indices)
    minor = _generic_minors(n)
    index = {}
    for tup, _ in _x_vars(n, d):
        if not subset_leq(indices, tup):
            continue
        coeffs = [SparsePolynomial.zero() + c for c in minor(indices, tup)[:d]]
        for s, c in enumerate(coeffs):
            if not c.degrees() <= {d - s}:
                raise VerificationFailedError(
                    f"the lambda^{s} coefficient of the shifted minor of {indices} x {tup} "
                    f"(n = {n}) has a monomial of degree != {d - s}"
                )
        index[tup] = tuple(coeffs)
    return index


@lru_cache(maxsize=None)
def _colinearity_sum(n: int, indices: tuple[int, ...]) -> tuple[SparsePolynomial, ...]:
    """(C_{I,0}, ..., C_{I,d-1}) with C_{I,s} = sum_J M_{I,J,s} x_J, the
    lambda^s coefficient of the colinearity sum; independent of w."""
    index = _colinearity_index(n, indices)
    terms = [
        (index[tup], SparsePolynomial.variable(x))
        for tup, x in _x_vars(n, len(indices))
        if tup in index
    ]
    return tuple(
        sum((m[s] * x_j for m, x_j in terms), SparsePolynomial.zero())
        for s in range(len(indices))
    )


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
        principal shifted minor prod_{k<=d} (t_{w(k)} + lambda).
        """
        n, w = self.n, self.w
        p_eqs = {}
        for d in range(1, n):
            prefix = _prefix_set(w, d)
            diagonal = _generic_minors(n)(prefix, prefix)
            for indices, x in _x_vars(n, d):
                x_i = SparsePolynomial.variable(x)
                for s, c in enumerate(_colinearity_sum(n, indices)):
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


def _sample_cell_point(
    cell_w: Permutation, diag_pairs: tuple, seed: int
) -> tuple[dict, tuple]:
    """Shared sampler: a random point of the cell of ``cell_w`` whose psi also
    satisfies the given diagonal identifications t_p = t_q.  Every step runs
    on integers.

    The first d columns of g = b1 P_w b2 are columns w(1..d) of b1 times
    the leading d x d block of b2, so by Cauchy-Binet the Pluecker
    coordinate x_I of g is eps_d prod_{k<=d} b2[k][k] Delta^{S_d}_I(b1),
    with S_d = sorted(w(1..d)) and eps_d the sign that sorts w(1..d).  The
    minor of the upper-triangular b1 is the lambda^0 coefficient of the
    shifted-minor engine's, and vanishes unless I <= S_d componentwise.

    With Y = b1^{-1} psi b1, g^{-1} psi g is
    b2^{-1} (P_w^{-1} Y P_w) b2, which is upper triangular iff P_w^{-1} Y P_w
    is, i.e. iff Y[k][l] = 0 for every k < l with w^{-1}(k) > w^{-1}(l) (Y is
    upper triangular already).  So the constraints are these l(w) entries of
    Y, with rows from adj(b1) = D b1^{-1}, in place of the n(n-1)/2 strictly
    lower entries of g^{-1} psi g.  Both row sets cut out b cap Ad(g)b, so they
    share the reduced row echelon form, and ``integer_kernel`` returns the
    same basis up to its common denominator, which the primitive scaling
    below takes out.

    The kernel combination v over the denominator D of ``integer_kernel``
    spans the same line as psi = v / D; every check is invariant under
    positive scaling of psi, so psi is v / (gcd(v) sign(D)), its positive
    primitive integer multiple.  Dividing by D itself would leave rationals
    with denominators of 100+ bits on S6 cells."""
    n = cell_w.n
    rng = random.Random(seed)
    b1 = _random_upper_invertible(rng, n)
    b2 = _random_upper_invertible(rng, n)
    minor = _shifted_minors([[0] * (n + 1), *([0, *row] for row in b1)])
    plucker_values = {tup: 0 for d in range(1, n) for tup, _ in _x_vars(n, d)}
    scale = 1
    for d in range(1, n):
        sign, s_d = normalize_plucker_indices(cell_w.one_line[:d])
        scale *= b2[d - 1][d - 1]
        for rows in _lower_sets(s_d):
            plucker_values[rows] = sign * scale * minor(rows, s_d)[0]
    # adj = D b1^{-1}; scaling each constraint row by D keeps the kernel
    adj, _ = scaled_inverse(b1)
    position = {cell_w(j): j for j in range(1, n + 1)}  # w^{-1}
    unknowns = [(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]
    col_of = {ab: idx for idx, ab in enumerate(unknowns)}
    constraint_rows = []
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            if position[k] > position[l]:
                # entry (k, l) of b1^{-1} E_{ab} b1 is b1^{-1}[k][a] * b1[b][l]
                constraint_rows.append(
                    [adj[k - 1][a - 1] * b1[b - 1][l - 1] for (a, b) in unknowns]
                )
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
    for (a, b), entry in zip(unknowns, v):
        psi[a - 1][b - 1] = entry // scale
    return plucker_values, tuple(tuple(row) for row in psi)


def sample_point_on_Vw(w: Permutation, seed: int) -> tuple[dict, tuple]:
    """A random integer point of the cell of w.

    Draw invertible upper-triangular integer b1, b2 and set g = b1 P_w b2,
    so the flag of g lies in the cell; the Pluecker coordinates are the
    leading-column minors of g, read off the minors of b1 by Cauchy-Binet.
    Then solve the exact linear system keeping psi
    upper-triangular with g^{-1} psi g upper-triangular: its l(w) rows say
    that b1^{-1} psi b1 vanishes at the inversions of w, built from
    adj(b1) = D b1^{-1}, and a random integer combination of the kernel basis,
    made primitive, gives psi.  Pluecker values and psi entries are ``int``.
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
    own numbers: with A its (u, t) matrix, the lambda^s coefficient of
    sum_J Delta^J_I(A + lambda id) x_J must equal that of
    prod_{k<=d} (t_{w(k)} + lambda) x_I for every s < d.  J runs over the
    support of dimension d (the x_J != 0) above I, since Delta^J_I vanishes
    unless I <= J componentwise.  The engine checks each minor's top
    coefficient as it computes it."""
    n = eqs.n
    a = _upper_matrix(n, point)
    minor = _shifted_minors(a)
    for d, support in enumerate(supports, start=1):
        prefix = _prefix_set(eqs.w, d)
        diagonal = minor(prefix, prefix)  # prod_{k<=d} (t_{w(k)} + lambda)
        totals: dict = {}
        for tup, x_j in support.items():
            for indices in _lower_sets(tup):
                terms = [m * x_j for m in minor(indices, tup)]
                total = totals.get(indices)
                totals[indices] = terms if total is None else [
                    acc + term for acc, term in zip(total, terms)
                ]
        # an I that no J of the support lies above has a zero sum and x_I = 0
        for indices, total in totals.items():
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
    ``diagonal`` may be rational) and run the five checks:

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
