"""Flattening maps, pattern containment, and the bad-pair characterization.

A permutation w admits a partner w' making (w', w) a bad pair exactly when w
contains one of the four patterns 4231, 42513, 35142, 351624; on the other
side, (w, w'') can be bad for some w'' exactly when w contains 1324, 24153,
31524, 426153.  Each left pattern comes with a model partner that embeds into
w on the witness positions to produce a concrete bad pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .pairs import (
    EnumerationSummary,
    classify_block,
    flatten_tuple,
    is_good_orbitwise,
    lex_tuples,
)
from .weyl import InternalInvariantError, Permutation, check_size

# pattern -> the smaller element of a model bad pair (pattern is the larger)
LEFT_PATTERNS: dict[tuple[int, ...], tuple[int, ...]] = {
    (4, 2, 3, 1): (1, 3, 2, 4),
    (4, 2, 5, 1, 3): (1, 3, 2, 4, 5),
    (3, 5, 1, 4, 2): (1, 2, 4, 3, 5),
    (3, 5, 1, 6, 2, 4): (1, 2, 4, 3, 5, 6),
}

# right patterns are the value complements w0 * p of the left ones, and so are
# their model partners; the model pair embeds upside down (partner is larger)
RIGHT_PATTERNS: dict[tuple[int, ...], tuple[int, ...]] = {
    tuple(len(p) + 1 - v for v in p): tuple(len(m) + 1 - v for v in m)
    for p, m in LEFT_PATTERNS.items()
}

SINGULARITY_PATTERNS = ((3, 4, 1, 2), (4, 2, 3, 1))


@dataclass
class PatternReport:
    w: Permutation
    side: str  # "left" | "right"
    has_bad_partner: bool
    witness_pattern: Optional[tuple[Permutation, tuple[int, ...]]] = None
    witness_partner: Optional[Permutation] = None


def flatten(w: Permutation, sigma) -> Permutation:
    """The pattern of w on the positions sigma: the unique f with
    (w(i_1), ..., w(i_m)) in the same relative order as (f(1), ..., f(m)).

    >>> flatten(Permutation([4, 2, 3, 1]), {1, 3, 4}).to_string()
    '321'
    """
    positions = sorted(set(sigma))
    if not positions:
        raise ValueError("flattening needs a nonempty position set")
    if positions[0] < 1 or positions[-1] > w.n:
        raise ValueError(f"positions out of range 1..{w.n}: {positions}")
    return Permutation(flatten_tuple(w.one_line, positions))


def has_pattern(w: Permutation, f: Permutation) -> Optional[tuple[int, ...]]:
    """Lexicographically first position set on which w flattens to f, if any.

    Depth-first over increasing positions, pruning whenever the chosen values
    stop matching the relative order of the corresponding prefix of f.

    >>> has_pattern(Permutation([5, 3, 1, 4, 2]), Permutation([3, 1, 2]))
    (1, 2, 4)
    >>> has_pattern(Permutation([1, 2, 3, 4]), Permutation([2, 1])) is None
    True
    """
    t, pat = w.one_line, f.one_line
    n, m = len(t), len(pat)
    if m > n:
        return None
    chosen: list[int] = []  # positions, 0-based
    values: list[int] = []

    def extend(start: int) -> Optional[tuple[int, ...]]:
        k = len(chosen)
        if k == m:
            return tuple(p + 1 for p in chosen)
        for pos in range(start, n - (m - k) + 1):
            v = t[pos]
            if all((values[l] < v) == (pat[l] < pat[k]) for l in range(k)):
                chosen.append(pos)
                values.append(v)
                found = extend(pos + 1)
                if found is not None:
                    return found
                chosen.pop()
                values.pop()
        return None

    return extend(0)


def _embed_on_positions(w: Permutation, sigma: tuple[int, ...], model) -> Permutation:
    """Rearrange the values of w on the positions sigma to realise the model
    pattern there, fixing every other letter."""
    out = list(w.one_line)
    vals = sorted(out[p - 1] for p in sigma)
    for k, p in enumerate(sigma):
        out[p - 1] = vals[model[k] - 1]
    return Permutation(out)


def _bad_partner_report(w: Permutation, side: str) -> PatternReport:
    """Pattern test for a bad partner on ``side`` of w, plus a verified
    concrete partner built from the model bad pair."""
    for pat, model in (LEFT_PATTERNS if side == "left" else RIGHT_PATTERNS).items():
        if len(pat) > w.n:
            continue
        sigma = has_pattern(w, Permutation(pat))
        if sigma is None:
            continue
        partner = _embed_on_positions(w, sigma, model)
        low, high = (partner, w) if side == "left" else (w, partner)
        if is_good_orbitwise(low, high).verdict != "bad":
            raise InternalInvariantError(
                f"model partner embedding failed for {w.to_string()} at {sigma}"
            )
        return PatternReport(
            w, side, True,
            witness_pattern=(Permutation(pat), sigma),
            witness_partner=partner,
        )
    return PatternReport(w, side, False)


def left_bad_exists(w: Permutation) -> PatternReport:
    """Does some w' make (w', w) a bad pair?"""
    return _bad_partner_report(w, "left")


def right_bad_exists(w: Permutation) -> PatternReport:
    """Does some w'' make (w, w'') a bad pair?"""
    return _bad_partner_report(w, "right")


def bad_partner_sides(n: int, allow_large: bool = False) -> dict[str, set]:
    """The one-line tuples with a bad partner on each side, from one pass of
    the pair classifier: "left" holds every w2 and "right" every w1 of a bad
    pair (w1, w2)."""
    check_size("enumeration", n, allow_large)
    tuples = lex_tuples(n)
    sides: dict[str, set] = {"left": set(), "right": set()}
    for t1, t2, violation in classify_block(n, 0, len(tuples), EnumerationSummary(n)):
        if violation is not None:
            sides["left"].add(t2)
            sides["right"].add(t1)
    return sides


def verify_pattern_theorem(n: int, allow_large: bool = False) -> dict:
    """Exhaustively compare the pattern prediction with brute force over all
    partners, on both sides, for every w in S_n."""
    brute_sides = bad_partner_sides(n, allow_large)
    mismatches = []
    for t in lex_tuples(n):
        w = Permutation(t)
        for side, report_fn in (("left", left_bad_exists), ("right", right_bad_exists)):
            predicted = report_fn(w).has_bad_partner
            brute = t in brute_sides[side]
            if predicted != brute:
                mismatches.append(
                    {"w": w.to_string(), "side": side,
                     "predicted": predicted, "brute_force": brute}
                )
    return {"n": n, "mismatches": mismatches}


def schubert_singular(w: Permutation) -> bool:
    """Smoothness test for the Schubert variety of w: singular iff w contains
    3412 or 4231."""
    return any(has_pattern(w, Permutation(p)) is not None for p in SINGULARITY_PATTERNS)
