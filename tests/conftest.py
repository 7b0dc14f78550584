import hashlib
import itertools
import sys
from bisect import insort
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Optional

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from weylpairs.cli import _dumps  # noqa: E402
from weylpairs.pairs import EnumerationSummary, enumerate_pairs  # noqa: E402
from weylpairs.poly import (  # noqa: E402
    LAMBDA,
    SparsePolynomial,
    _raw,
    _shifted_minors,
    _upper_matrix,
    normalize_plucker_indices,
    t_var,
    u_var,
    x_var,
)
from weylpairs.roots import subset_leq  # noqa: E402
from weylpairs.serialize import verdict_dict  # noqa: E402
from weylpairs.varieties import (  # noqa: E402
    DEFAULT_SEED,
    _prefix_set,
    point_assignment,
    sample_point_on_Vw,
)
from weylpairs.weyl import (  # noqa: E402
    InternalInvariantError,
    Permutation,
    reflection_group,
    symmetric_group,
)


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


def variables(p):
    """The set of variables that occur in the polynomial p."""
    return {v for mono in p._terms for v, _ in mono}


def lambda_degree(p):
    """The highest power of lambda in the polynomial p."""
    # lambda is the last variable of the order, so the last of a monomial
    last = [mono[-1] for mono in p._terms if mono]
    return max((e for v, e in last if v == LAMBDA), default=0)


def lambda_coefficients(p):
    """Split p = sum_s coeff[s] * lambda^s into lambda-free coefficients."""
    buckets = [dict() for _ in range(lambda_degree(p) + 1)]
    for mono, c in p._terms.items():
        if mono and mono[-1][0] == LAMBDA:
            buckets[mono[-1][1]][mono[:-1]] = c
        else:
            buckets[0][mono] = c
    return [_raw(b) for b in buckets]


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


def reference_bruhat_leq(t1, t2):
    """Whether t1 <= t2 in Bruhat order, for one-line tuples of one S_n, by
    the sorted-prefix criterion: sorted(t1[:d]) <= sorted(t2[:d])
    componentwise for every d.  Independent of the library's packed keys."""
    return all(
        a <= b
        for d in range(1, len(t1) + 1)
        for a, b in zip(sorted(t1[:d]), sorted(t2[:d]))
    )


def reference_box_count(w, i, j, sigma=None):
    """|w({1..i}) ∩ {j..n} ∩ sigma| (sigma defaults to everything), the box
    count of the Bruhat criterion, from its definition."""
    vals = w.one_line[:i]
    if sigma is None:
        return sum(1 for v in vals if v >= j)
    return sum(1 for v in vals if v >= j and v in sigma)


def longest_element(group):
    """The unique element of maximal length of a finite Weyl group, on either
    group backend."""
    elements = group.elements_by_length()
    top = elements[-1]
    if sum(1 for e in elements if group.length(e) == group.length(top)) != 1:
        raise InternalInvariantError("longest element is not unique")
    return top


def reference_box_violation(t1, t2):
    """First orbit of w1 w2^{-1} with a box-count failure, as (orbit, i, j),
    for a Bruhat-comparable pair w1 <= w2, by sorted position lists: for
    each nontrivial orbit, insert the w1- and w2-positions of its values in
    decreasing value order and fail where the k-th smallest w1-position
    precedes the k-th smallest w2-position.  Independent of the library's
    packed kernel."""
    n = len(t1)
    pos1, pos2 = [0] * (n + 1), [0] * (n + 1)
    for idx in range(n):
        pos1[t1[idx]] = pos2[t2[idx]] = idx + 1
    seen = [False] * (n + 1)
    orbits = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        orbit = []
        v = start
        while not seen[v]:
            seen[v] = True
            orbit.append(v)
            v = t1[pos2[v] - 1]  # sigma(v) = w1(w2^{-1}(v))
        if len(orbit) > 1:
            orbits.append(sorted(orbit))
    if len(orbits) < 2:
        return None
    for orbit in orbits:
        a_pos, b_pos = [], []
        for v in reversed(orbit[1:]):
            insort(a_pos, pos1[v])
            insort(b_pos, pos2[v])
            for k in range(len(a_pos)):
                if a_pos[k] < b_pos[k]:
                    return (tuple(orbit), a_pos[k], v)
    return None


def embed_pair(t1, t2, n, rng):
    """The pair (t1, t2) of S_k embedded in S_n: both put the patterns of t1
    and t2 on the same k random positions, with the same k random values,
    and the other values on the other positions in one shared random order."""
    k = len(t1)
    positions = sorted(rng.sample(range(n), k))
    values = sorted(rng.sample(range(1, n + 1), k))
    rest = [v for v in range(1, n + 1) if v not in values]
    rng.shuffle(rest)
    base = [0] * n
    for p, v in zip((p for p in range(n) if p not in positions), rest):
        base[p] = v
    embedded = []
    for t in (t1, t2):
        w = list(base)
        for p, x in zip(positions, t):
            w[p] = values[x - 1]
        embedded.append(tuple(w))
    return tuple(embedded)


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


# ---------------------------------------------------------------------------
# simplified incidence identities on sampled cell points: the lemma behind the
# hit rule of ``varieties.separated_hits``
# ---------------------------------------------------------------------------

class PreconditionError(ValueError):
    """Lemma hypotheses violated by the caller."""


def _x_at(point: dict, indices) -> int:
    """x at an arbitrary index sequence: sign * x_sorted at the point, with
    the sign of the sorting permutation, and 0 for a repeated index."""
    sign, sorted_idx = normalize_plucker_indices(indices)
    return sign * point[x_var(sorted_idx)] if sign else 0


@lru_cache(maxsize=4096)
def _cached_sample_assignment(one_line: tuple[int, ...], seed: int) -> dict:
    w = Permutation(one_line)
    plucker_values, psi = sample_point_on_Vw(w, seed)
    return point_assignment(w.n, plucker_values, psi)


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
    if samples < 1:  # checked at no point, the identity would hold vacuously
        raise ValueError(f"samples must be at least 1, got {samples}")
    j_tuple = _incidence_hypotheses(w, q, b, j_set)
    i_tuple = tuple(sorted(v for v in (w(k) for k in range(1, q + 2)) if v != b))
    feasible = {1, -1}
    decided = False
    for s in range(samples):
        point = _cached_sample_assignment(w.one_line, seed + s)
        lhs = _x_at(point, i_tuple + (a,)) * _x_at(point, j_tuple + (b,))
        rhs_base = _x_at(point, i_tuple + (b,)) * _x_at(point, j_tuple + (a,))
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
    if samples < 1:  # checked at no point, the identity would hold vacuously
        raise ValueError(f"samples must be at least 1, got {samples}")
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
    rows, prefix = tuple(sorted(j_tuple + (b,))), _prefix_set(w, q + 1)
    for s in range(samples):
        point = _cached_sample_assignment(w.one_line, seed + s)
        minor = _shifted_minors(_upper_matrix(n, point))
        total = [0] * (q + 2)
        for k_seq, sigma_k in signs.items():
            x_k = sigma_j * sigma_k * _x_at(point, k_seq + (a,))
            if x_k:
                for i, m in enumerate(minor(rows, tuple(sorted(k_seq + (b,))))):
                    total[i] += m * x_k
        x_j = _x_at(point, j_tuple + (a,))
        if total != [e * x_j for e in minor(prefix, prefix)]:
            return False
    return True


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
    """One sweep of S7 for every exhaustive S7 test: the enumeration summary,
    the bad pairs as (w, w') = (w2, w1) of each bad verdict (w1, w2), in
    stream order, and the sha256 of the lines `pairs enumerate --n 7
    --allow-large --filter bad` prints for them."""
    summary = EnumerationSummary(7)
    digest = hashlib.sha256()
    pairs = []
    for v in enumerate_pairs(7, "bad", allow_large=True, summary=summary):
        digest.update((_dumps(verdict_dict(v)) + "\n").encode())
        pairs.append((v.w2, v.w1))
    record = {"summary": True, "n": 7, "total_comparable": summary.total_comparable,
              "bad_count": summary.bad_count}
    digest.update((_dumps(record) + "\n").encode())
    return summary, pairs, digest.hexdigest()
