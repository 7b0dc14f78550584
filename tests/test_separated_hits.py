"""The hit enumerator `separated_hits` against the hit rule as first written
(every (a, b) tried, the four bullets re-tested, the hits sorted), and the
hit splits README states for S6 and S7."""

from collections import Counter

import pytest

from weylpairs.pairs import EnumerationSummary, classify_block, lex_tuples
from weylpairs.varieties import Hit, separated_hits
from weylpairs.weyl import Permutation


def reference_hits(w, w_prime):
    """Every a < b off a common orbit of w w'^{-1}, for every q, tested
    against the shared bullets and each variant's third bullet."""
    n = w.n
    orbit_of = {}
    for orbit in (w * w_prime.inverse()).orbits():
        for v in orbit:
            orbit_of[v] = orbit
    hits = []
    for q in range(1, n - 1):
        w_set = {w(k) for k in range(1, q + 2)}
        wp_set = {w_prime(k) for k in range(1, q + 2)}
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                if orbit_of[a] == orbit_of[b]:
                    continue
                shared = a not in w_set and a in wp_set and b in w_set and b not in wp_set
                if not shared:
                    continue
                if all(i in w_set for i in wp_set if i != a and i < b):
                    hits.append(Hit(q, a, b, "main"))
                if all(j in wp_set for j in w_set if j != b and j > a):
                    hits.append(Hit(q, a, b, "remark"))
    hits.sort(key=lambda h: (h.q, h.a, h.b, h.variant))
    return tuple(hits)


def comparable_pairs(n):
    """(w, w', is_bad) for every comparable pair w' <= w of S_n."""
    perms = {t: Permutation(t) for t in lex_tuples(n)}
    for t1, t2, violation in classify_block(n, 0, len(perms), EnumerationSummary(n)):
        yield perms[t2], perms[t1], violation is not None


# README's S6 family: the bad pairs of S6 without a separated hit
UNKNOWN_FAMILY_S6 = sorted(
    (w, wp)
    for w in ("563412", "563421", "653412", "653421")
    for wp in ("124356", "124365", "214356", "214365")
)


@pytest.mark.parametrize("n", [4, 5])
def test_matches_reference_on_every_comparable_pair(n):
    for w, w_prime, bad in comparable_pairs(n):
        hits = separated_hits(w, w_prime)
        assert hits == reference_hits(w, w_prime), (w, w_prime)
        assert bad or not hits, (w, w_prime)


@pytest.mark.exhaustive
def test_s6_hit_split():
    with_hit, without_hit = 0, []
    for w, w_prime, bad in comparable_pairs(6):
        hits = separated_hits(w, w_prime)
        assert hits == reference_hits(w, w_prime), (w, w_prime)
        if not bad:
            assert not hits, (w, w_prime)
        elif hits:
            with_hit += 1
        else:
            without_hit.append((w.to_string(), w_prime.to_string()))
    assert with_hit == 3737
    assert sorted(without_hit) == UNKNOWN_FAMILY_S6


def _cycle_type(sigma):
    return tuple(sorted((len(o) for o in sigma.orbits() if len(o) > 1), reverse=True))


@pytest.mark.exhaustive
def test_s7_hit_split_of_bad_pairs():
    with_hit, without_hit = 0, []
    for w, w_prime, bad in comparable_pairs(7):
        if not bad:
            continue
        if separated_hits(w, w_prime):
            with_hit += 1
        else:
            without_hit.append((w, w_prime))
    assert with_hit == 233793
    assert len(without_hit) == 2688
    primes = {wp for _, wp in without_hit}
    assert len(primes) == 164
    assert sum(1 for wp in primes if wp == wp.inverse()) == 20
    assert len({w for w, _ in without_hit}) == 164
    cycle_types = Counter(_cycle_type(w * wp.inverse()) for w, wp in without_hit)
    assert cycle_types == {
        (3, 2, 2): 944, (5, 2): 640, (2, 2, 2): 392, (4, 2): 392, (4, 3): 320,
    }
