"""Good/bad pair classification by four independent criteria.

A comparable pair (w1, w2) is *good* when w2 can be reached from w1 through a
Bruhat-ascending chain of left multiplications by reflections drawn from the
minimal generating subsystem of w1 w2^{-1}, and *bad* otherwise.  Four routes
decide this:

* ``is_good_chain`` — breadth-first search for such a chain (any group).
* ``is_good_parabolic`` — conjugate the subsystem to a standard one and
  compare the two induced elements of the parabolic subgroup (any group).
* ``is_good_orbitwise`` — type A only: box counts restricted to each orbit of
  w1 w2^{-1} must never favour w1.
* ``is_good_flattening`` — type A only: flattening both permutations along
  each orbit of w1^{-1} w2 must preserve Bruhat comparability.

The four agree everywhere; the test suite checks this exhaustively.
"""

from __future__ import annotations

import itertools
import math
from bisect import insort
from dataclasses import dataclass
from typing import Iterator, Optional

from .weyl import (
    InternalInvariantError,
    Permutation,
    _sorted_prefixes,
    standardize_subsystem,
    symmetric_group,
)

# n = 7 pair enumeration is ~25.4M classifications; demand explicit opt-in.
LARGE_ENUMERATION_N = 7


@dataclass
class ParabolicData:
    """Decomposition w_i = u_J * w_{J,i} * v_J^{-1} with u_J, v_J coset-minimal."""

    J: tuple[int, ...]
    u_J: object
    v_J: object
    w_J1: object
    w_J2: object


@dataclass
class PairVerdict:
    w1: object
    w2: object
    comparable: bool
    verdict: str  # "good" | "bad" | "incomparable"
    criterion: str
    chain_witness: Optional[tuple] = None
    parabolic: Optional[ParabolicData] = None
    violating_orbit: Optional[tuple] = None  # (orbit values, i, j)

    @property
    def is_good(self) -> bool:
        return self.verdict == "good"


def _incomparable(w1, w2, criterion: str) -> PairVerdict:
    return PairVerdict(w1, w2, comparable=False, verdict="incomparable", criterion=criterion)


# ---------------------------------------------------------------------------
# type-A fast paths on raw one-line tuples
# ---------------------------------------------------------------------------

def _tuples_leq(t1, t2) -> bool:
    return all(a <= b for a, b in zip(_sorted_prefixes(t1), _sorted_prefixes(t2)))


def _positions(t) -> list[int]:
    pos = [0] * (len(t) + 1)
    for idx, v in enumerate(t):
        pos[v] = idx + 1
    return pos


def _box_violation(t1, t2) -> Optional[tuple]:
    """First orbit of w1 w2^{-1} with a box-count failure, as (orbit, i, j).

    For each nontrivial orbit of values, insert positions in decreasing value
    order; the restricted counts w1[i,j]_orbit <= w2[i,j]_orbit for all i hold
    iff the k-th smallest w1-position never precedes the k-th smallest
    w2-position.
    """
    n = len(t1)
    pos1, pos2 = _positions(t1), _positions(t2)
    seen = [False] * (n + 1)
    for start in range(1, n + 1):
        if seen[start]:
            continue
        orbit = []
        v = start
        while not seen[v]:
            seen[v] = True
            orbit.append(v)
            v = t1[pos2[v] - 1]  # sigma(v) = w1(w2^{-1}(v))
        if len(orbit) < 2:
            continue
        a_pos: list[int] = []
        b_pos: list[int] = []
        for v in sorted(orbit, reverse=True):
            insort(a_pos, pos1[v])
            insort(b_pos, pos2[v])
            for k in range(len(a_pos)):
                if a_pos[k] < b_pos[k]:
                    return (tuple(sorted(orbit)), a_pos[k], v)
    return None


def _attach_type_a_witness(verdict: PairVerdict) -> PairVerdict:
    """On a type-A bad verdict, record the violating orbit of the box check."""
    if verdict.verdict == "bad" and isinstance(verdict.w1, Permutation):
        if verdict.violating_orbit is None:
            verdict.violating_orbit = _box_violation(
                verdict.w1.one_line, verdict.w2.one_line
            )
            if verdict.violating_orbit is None:
                raise InternalInvariantError(
                    "criteria disagreement: bad verdict without box violation"
                )
    return verdict


# ---------------------------------------------------------------------------
# criterion 1: ascending reflection chain (BFS)
# ---------------------------------------------------------------------------

def is_good_chain(group, w1, w2) -> PairVerdict:
    """Search for roots a_1..a_r in Phi_{w1 w2^{-1}} with
    w2 = s_{a_r} ... s_{a_1} w1 and every prefix Bruhat-ascending.

    The search is restricted to the Bruhat interval [w1, w2]; whenever a good
    chain exists, one exists inside the interval (transport an ascending chain
    of the parabolic criterion through u_J, v_J), so pruning loses nothing.
    """
    if not group.bruhat_leq(w1, w2):
        return _incomparable(w1, w2, "chain")
    if w1 == w2:
        return PairVerdict(w1, w2, True, "good", "chain", chain_witness=())
    sigma = group.mul(w1, group.inv(w2))
    moves = [(key, group.reflection(key)) for key in sorted(group.min_gen_positive(sigma))]
    parent: dict = {w1: None}
    frontier = [w1]
    while frontier:
        nxt = []
        for u in frontier:
            lu = group.length(u)
            for key, s in moves:
                v = group.mul(s, u)
                if v in parent or group.length(v) <= lu:
                    continue
                if not group.bruhat_leq(v, w2):
                    continue
                parent[v] = (u, key)
                if v == w2:
                    chain = []
                    cur = v
                    while parent[cur] is not None:
                        cur, k = parent[cur]
                        chain.append(k)
                    chain.reverse()
                    return PairVerdict(
                        w1, w2, True, "good", "chain", chain_witness=tuple(chain)
                    )
                nxt.append(v)
        frontier = nxt
    return _attach_type_a_witness(PairVerdict(w1, w2, True, "bad", "chain"))


# ---------------------------------------------------------------------------
# criterion 2: parabolic comparison after standardization
# ---------------------------------------------------------------------------

def is_good_parabolic(group, w1, w2) -> PairVerdict:
    """Write w_i = u_J w_{J,i} v_J^{-1} with Phi_{w2 w1^{-1}} = u_J(Phi_J);
    the pair is good iff w_{J,1} <= w_{J,2} inside W_J."""
    if not group.bruhat_leq(w1, w2):
        return _incomparable(w1, w2, "parabolic")
    sigma = group.mul(w2, group.inv(w1))
    u_j, j_set = standardize_subsystem(group, group.min_gen_positive(sigma))
    v_j, _ = group.parabolic_decompose(group.mul(group.inv(w1), u_j), j_set)
    u_inv = group.inv(u_j)
    w_j1 = group.mul(group.mul(u_inv, w1), v_j)
    w_j2 = group.mul(group.mul(u_inv, w2), v_j)
    for w_j in (w_j1, w_j2):
        if not group.in_parabolic(w_j, j_set):
            raise InternalInvariantError(
                "parabolic criterion produced an element outside W_J"
            )
    data = ParabolicData(tuple(sorted(j_set)), u_j, v_j, w_j1, w_j2)
    good = group.bruhat_leq(w_j1, w_j2)
    verdict = PairVerdict(
        w1, w2, True, "good" if good else "bad", "parabolic", parabolic=data
    )
    return _attach_type_a_witness(verdict)


# ---------------------------------------------------------------------------
# criterion 3: orbitwise box counts (type A)
# ---------------------------------------------------------------------------

def is_good_orbitwise(w1: Permutation, w2: Permutation) -> PairVerdict:
    """Good iff w1[i,j]_orbit <= w2[i,j]_orbit for every orbit of w1 w2^{-1}
    and every box (i, j)."""
    t1, t2 = w1.one_line, w2.one_line
    if not _tuples_leq(t1, t2):
        return _incomparable(w1, w2, "orbitwise")
    violation = _box_violation(t1, t2)
    if violation is None:
        return PairVerdict(w1, w2, True, "good", "orbitwise")
    return PairVerdict(
        w1, w2, True, "bad", "orbitwise", violating_orbit=violation
    )


# ---------------------------------------------------------------------------
# criterion 4: flattening along orbits of w1^{-1} w2 (type A)
# ---------------------------------------------------------------------------

def flatten_tuple(t, positions) -> tuple[int, ...]:
    """Relative order of the values of t at the given sorted positions."""
    vals = [t[p - 1] for p in positions]
    order = sorted(range(len(vals)), key=lambda k: vals[k])
    out = [0] * len(vals)
    for rank, k in enumerate(order, start=1):
        out[k] = rank
    return tuple(out)


def is_good_flattening(w1: Permutation, w2: Permutation) -> PairVerdict:
    """Good iff flattening w1 and w2 along every orbit of w1^{-1} w2 (a set of
    positions) preserves Bruhat comparability."""
    t1, t2 = w1.one_line, w2.one_line
    if not _tuples_leq(t1, t2):
        return _incomparable(w1, w2, "flattening")
    tau = (w1.inverse() * w2).one_line
    for orbit in _cycle_sets(tau):
        if len(orbit) < 2:
            continue
        f1 = flatten_tuple(t1, orbit)
        f2 = flatten_tuple(t2, orbit)
        if not _tuples_leq(f1, f2):
            return _attach_type_a_witness(
                PairVerdict(w1, w2, True, "bad", "flattening")
            )
    return PairVerdict(w1, w2, True, "good", "flattening")


def _cycle_sets(t) -> list[tuple[int, ...]]:
    n = len(t)
    seen = [False] * (n + 1)
    out = []
    for s in range(1, n + 1):
        if seen[s]:
            continue
        orb = []
        c = s
        while not seen[c]:
            seen[c] = True
            orb.append(c)
            c = t[c - 1]
        out.append(tuple(sorted(orb)))
    return out


CRITERIA = {
    "chain": lambda n, w1, w2: is_good_chain(symmetric_group(n), w1, w2),
    "parabolic": lambda n, w1, w2: is_good_parabolic(symmetric_group(n), w1, w2),
    "orbit": lambda n, w1, w2: is_good_orbitwise(w1, w2),
    "flatten": lambda n, w1, w2: is_good_flattening(w1, w2),
}


# ---------------------------------------------------------------------------
# exhaustive enumeration
# ---------------------------------------------------------------------------

@dataclass
class EnumerationSummary:
    n: int
    total_comparable: int = 0
    bad_count: int = 0


def enumerate_pairs(
    n: int,
    verdict_filter: str = "all",
    allow_large: bool = False,
    summary: EnumerationSummary | None = None,
) -> Iterator[PairVerdict]:
    """Classify every Bruhat-comparable ordered pair of S_n by the orbitwise
    criterion, in lexicographic (w1, w2) order.

    If a ``summary`` is supplied its counters are updated while streaming.
    """
    if not 2 <= n <= LARGE_ENUMERATION_N:
        raise ValueError(f"enumeration supports 2 <= n <= {LARGE_ENUMERATION_N}")
    if n >= LARGE_ENUMERATION_N and not allow_large:
        raise ValueError(
            f"n = {n} enumerates {math.factorial(n) ** 2} ordered pairs; "
            "pass allow_large=True (CLI: --allow-large) to proceed"
        )
    if verdict_filter not in ("good", "bad", "all"):
        raise ValueError(f"unknown filter {verdict_filter!r}")
    tuples = sorted(itertools.permutations(range(1, n + 1)))
    perms = {t: Permutation(t) for t in tuples}
    for t1 in tuples:
        for t2 in tuples:
            if not _tuples_leq(t1, t2):
                continue
            if summary is not None:
                summary.total_comparable += 1
            violation = _box_violation(t1, t2)
            if violation is None:
                if verdict_filter in ("all", "good"):
                    yield PairVerdict(perms[t1], perms[t2], True, "good", "orbitwise")
            else:
                if summary is not None:
                    summary.bad_count += 1
                if verdict_filter in ("all", "bad"):
                    yield PairVerdict(
                        perms[t1], perms[t2], True, "bad", "orbitwise",
                        violating_orbit=violation,
                    )


def enumerate_block(n: int, lo: int, hi: int, verdict_filter: str) -> tuple[list, int, int]:
    """Classify the pairs whose w1 has lexicographic index in [lo, hi).

    Worker unit for parallel enumeration: deterministic output independent of
    scheduling, merged in block order by the caller.
    """
    tuples = sorted(itertools.permutations(range(1, n + 1)))
    rows = []
    comparable = bad = 0
    for t1 in tuples[lo:hi]:
        for t2 in tuples:
            if not _tuples_leq(t1, t2):
                continue
            comparable += 1
            violation = _box_violation(t1, t2)
            if violation is not None:
                bad += 1
            if verdict_filter == "bad" and violation is None:
                continue
            if verdict_filter == "good" and violation is not None:
                continue
            rows.append((t1, t2, violation))
    return rows, comparable, bad
