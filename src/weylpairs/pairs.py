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
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from .weyl import (
    InternalInvariantError,
    Permutation,
    _bruhat_key,
    _cycles,
    _one_line_leq,
    _prefix_fields,
    check_size,
    standardize_subsystem,
    symmetric_group,
)


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


def _incomparable(w1, w2, criterion: str) -> PairVerdict:
    return PairVerdict(w1, w2, comparable=False, verdict="incomparable", criterion=criterion)


# ---------------------------------------------------------------------------
# type-A fast paths on raw one-line tuples
# ---------------------------------------------------------------------------

def _leq_indices(guarded: list[int], guard: int, i: int) -> list[int]:
    """The indices j with element i <= element j in Bruhat order, for the
    guarded keys (``weyl._bruhat_key``) of S_n in lexicographic order.

    Bruhat order refines to lexicographic order (at the first position k
    where u < w differ, the box counts force u(k) < w(k)), so only j >= i
    are tested.
    """
    u = guarded[i] ^ guard
    return [j for j in range(i, len(guarded)) if (guarded[j] - u) & guard == guard]


@lru_cache(maxsize=None)
def _orbit_split(sigma: tuple[int, ...]) -> tuple:
    """The nontrivial orbits of sigma, each as (orbit ascending, its values
    but the minimum descending), or () when fewer than two are nontrivial.
    Walks sigma with the uncached body of ``_cycles``: this cache keeps the
    result, and filling ``_cycles``' cache as well cost the census-s6
    benchmark about 5 % of its items/s (2-core x86-64, CPython 3.11.7)."""
    orbits = [(o, o[:0:-1]) for o in _cycles.__wrapped__(sigma) if len(o) > 1]
    return tuple(orbits) if len(orbits) > 1 else ()


def _box_violation(t1, t2) -> Optional[tuple]:
    """First orbit of w1 w2^{-1} with a box-count failure, as (orbit, i, j),
    for a Bruhat-comparable pair w1 <= w2."""
    (fields1, _, guard), (fields2, times_inverse2, _) = map(_prefix_fields, (t1, t2))
    return _orbit_violation(t1, fields1, fields2, times_inverse2, guard)


def _orbit_violation(t1, fields1, fields2, times_inverse2, guard) -> Optional[tuple]:
    """``_box_violation`` for w1 = t1, given ``_prefix_fields`` of w1 and w2.

    For each nontrivial orbit of sigma = w1 w2^{-1}, sum the fields of its
    values in decreasing value order, a for w1 and b for w2: the counts
    w1[i,j]_orbit <= w2[i,j]_orbit hold for all i iff no field of a exceeds
    that of b.  From b = guard mask, each field of b - a holds guard + (w2
    count) - (w1 count) >= 1, so no borrow crosses a field and the guard bit
    clears iff the w1 count is larger (SWAR, as ``weyl._bruhat_key``); the
    lowest cleared field p gives i = p + 1.  The minimum is never inserted:
    w1 and w2 hold a whole orbit on one set of positions, so it cannot fail.
    Nor can the last field, at positions <= n - 1: there the w1 count of a
    set of values exceeds the w2 count only if the set holds w2(n) but not
    w1(n).  The sets summed are the top values of one orbit of sigma, and
    sigma maps w2(n) to w1(n), so the two share an orbit and w1(n) < w2(n).
    Comparability forbids that: w1[n-1, j] <= w2[n-1, j] for every j, so
    w2(n) <= w1(n).

    With fewer than two nontrivial orbits nothing can fail: a value fixed by
    sigma sits at the same position in w1 and w2, so it adds the same
    amount to both box counts, and the counts restricted to a single orbit
    differ exactly as the full counts do, which comparability bounds.
    """
    for orbit, values in _orbit_split(times_inverse2(t1)):
        a, b = 0, guard
        for v in values:
            a += fields1[v]
            b += fields2[v]
            failed = ~(b - a) & guard
            if failed:
                # the guard bits up to the lowest failed one number i
                return (orbit, (guard & (failed ^ (failed - 1))).bit_count(), v)
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
    and every box (i, j).

    >>> v = is_good_orbitwise(Permutation([1, 3, 2, 4]), Permutation([4, 2, 3, 1]))
    >>> v.verdict, v.violating_orbit
    ('bad', ((2, 3), 2, 3))
    """
    if not w1.bruhat_leq(w2):
        return _incomparable(w1, w2, "orbitwise")
    return orbitwise_verdict(w1, w2, _box_violation(w1.one_line, w2.one_line))


def orbitwise_verdict(w1, w2, violation) -> PairVerdict:
    """The orbitwise verdict of a comparable pair from its box violation."""
    if violation is None:
        return PairVerdict(w1, w2, True, "good", "orbitwise")
    return PairVerdict(w1, w2, True, "bad", "orbitwise", violating_orbit=violation)


# ---------------------------------------------------------------------------
# criterion 4: flattening along orbits of w1^{-1} w2 (type A)
# ---------------------------------------------------------------------------

def flatten_tuple(t, positions) -> tuple[int, ...]:
    """Relative order of the values of t at the given sorted positions."""
    vals = [t[p - 1] for p in positions]
    rank = {v: r for r, v in enumerate(sorted(vals), start=1)}
    return tuple(rank[v] for v in vals)


def is_good_flattening(w1: Permutation, w2: Permutation) -> PairVerdict:
    """Good iff flattening w1 and w2 along every orbit of w1^{-1} w2 (a set of
    positions) preserves Bruhat comparability."""
    if not w1.bruhat_leq(w2):
        return _incomparable(w1, w2, "flattening")
    t1, t2 = w1.one_line, w2.one_line
    for orbit in (w1.inverse() * w2).orbits():
        if len(orbit) < 2:
            continue
        if not _one_line_leq(flatten_tuple(t1, orbit), flatten_tuple(t2, orbit)):
            return _attach_type_a_witness(
                PairVerdict(w1, w2, True, "bad", "flattening")
            )
    return PairVerdict(w1, w2, True, "good", "flattening")


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


def lex_tuples(n: int) -> list[tuple[int, ...]]:
    """The one-line tuples of S_n in lexicographic order."""
    return sorted(itertools.permutations(range(1, n + 1)))


def classify_block(n: int, lo: int, hi: int, summary: EnumerationSummary):
    """Yield (t1, t2, violation) for every comparable pair whose w1 has
    lexicographic index in [lo, hi), in lexicographic (w1, w2) order;
    ``violation`` is ``_box_violation(t1, t2)``, None for a good pair.
    ``summary`` counts the comparable and bad pairs as they stream."""
    tuples = lex_tuples(n)
    guarded, guards = zip(*map(_bruhat_key, tuples))
    guard = guards[0]
    fields, times_inverse, count_guards = zip(*map(_prefix_fields, tuples))
    count_guard = count_guards[0]
    for i in range(lo, hi):
        t1, fields1 = tuples[i], fields[i]
        row = _leq_indices(guarded, guard, i)
        summary.total_comparable += len(row)
        for j in row:
            violation = _orbit_violation(t1, fields1, fields[j], times_inverse[j], count_guard)
            if violation is not None:
                summary.bad_count += 1
            yield t1, tuples[j], violation


FILTERS = ("good", "bad", "all")  # enumerate_pairs' verdict_filter, CLI --filter


def _filtered(rows, verdict_filter: str):
    """The rows (t1, t2, violation) that ``verdict_filter`` keeps."""
    if verdict_filter not in FILTERS:
        raise ValueError(f"unknown filter {verdict_filter!r}")
    if verdict_filter == "all":
        return rows
    good = verdict_filter == "good"
    return (row for row in rows if (row[2] is None) == good)


def enumerate_pairs(
    n: int,
    verdict_filter: str = "all",
    allow_large: bool = False,
    summary: EnumerationSummary | None = None,
    rows: tuple[int, int] | None = None,
) -> Iterator[PairVerdict]:
    """Classify every Bruhat-comparable ordered pair of S_n by the orbitwise
    criterion, in lexicographic (w1, w2) order.

    If a ``summary`` is supplied its counters are updated while streaming.
    ``rows=(lo, hi)`` keeps only the w1 with lexicographic index in [lo, hi):
    the blocks of a partition of range(n!) stream, in block order, exactly
    what one unrestricted call streams.
    """
    check_size("enumeration", n, allow_large)
    if summary is None:
        summary = EnumerationSummary(n)
    perms = {t: Permutation(t) for t in lex_tuples(n)}
    lo, hi = (0, len(perms)) if rows is None else rows
    if not 0 <= lo <= hi <= len(perms):
        raise ValueError(f"rows must satisfy 0 <= lo <= hi <= {len(perms)}, got {rows}")
    pairs = _filtered(classify_block(n, lo, hi, summary), verdict_filter)
    for t1, t2, violation in pairs:
        yield orbitwise_verdict(perms[t1], perms[t2], violation)
