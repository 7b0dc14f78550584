"""Flattening, pattern containment, and the bad-pair pattern lists."""

import itertools
import random

import pytest

from weylpairs.pairs import _box_violation, is_good_orbitwise
from weylpairs.patterns import (
    LEFT_PATTERNS,
    RIGHT_PATTERNS,
    bad_partner_sides,
    flatten,
    has_pattern,
    left_bad_exists,
    right_bad_exists,
    schubert_singular,
    verify_pattern_theorem,
)
from weylpairs.weyl import Permutation

from conftest import all_perms, reference_bruhat_leq

P = Permutation.from_string


class TestFlatten:
    def test_full_positions_identity(self):
        w = P("35142")
        assert flatten(w, range(1, 6)) == w

    def test_documented_example(self):
        assert flatten(P("4231"), {1, 3, 4}) == P("321")

    def test_singleton(self):
        assert flatten(P("4231"), {2}) == P("1")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            flatten(P("4231"), set())

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            flatten(P("4231"), {0, 1})

    def test_always_a_permutation(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(2, 7)
            w = Permutation(rng.sample(range(1, n + 1), n))
            m = rng.randint(1, n)
            sigma = rng.sample(range(1, n + 1), m)
            f = flatten(w, sigma)
            assert sorted(f.one_line) == list(range(1, m + 1))


class TestHasPattern:
    def test_self_pattern(self):
        w = P("4231")
        assert has_pattern(w, w) == (1, 2, 3, 4)

    def test_too_long_pattern(self):
        assert has_pattern(P("321"), P("4231")) is None

    def test_identity_avoids_everything_descending(self):
        assert has_pattern(P("1234"), P("4231")) is None
        assert has_pattern(P("1234"), P("21")) is None

    def test_positions_are_lexicographically_first(self):
        w = P("53142")
        sigma = has_pattern(w, P("321"))
        assert sigma is not None
        candidates = [
            s
            for s in itertools.combinations(range(1, 6), 3)
            if flatten(w, s) == P("321")
        ]
        assert sigma == candidates[0]

    def test_witness_actually_flattens(self):
        rng = random.Random(11)
        for _ in range(60):
            w = Permutation(rng.sample(range(1, 7), 6))
            f = Permutation(rng.sample(range(1, 4), 3))
            sigma = has_pattern(w, f)
            brute = any(
                flatten(w, s) == f for s in itertools.combinations(range(1, 7), 3)
            )
            assert (sigma is not None) == brute
            if sigma is not None:
                assert flatten(w, sigma) == f

    def test_transitivity_through_flattening(self):
        rng = random.Random(3)
        for _ in range(40):
            w = Permutation(rng.sample(range(1, 8), 7))
            sigma = tuple(sorted(rng.sample(range(1, 8), 5)))
            f = flatten(w, sigma)
            tau = tuple(sorted(rng.sample(range(1, 6), 3)))
            g = flatten(f, tau)
            assert has_pattern(w, g) is not None


class TestBadPartnerReports:
    def test_4231_left(self):
        report = left_bad_exists(P("4231"))
        assert report.has_bad_partner
        assert report.witness_partner == P("1324")
        pattern, sigma = report.witness_pattern
        assert pattern == P("4231") and sigma == (1, 2, 3, 4)

    def test_identity_has_no_partners(self):
        for n in (4, 5, 6):
            w = Permutation.identity(n)
            assert not left_bad_exists(w).has_bad_partner
            assert not right_bad_exists(w).has_bad_partner

    def test_1324_right(self):
        report = right_bad_exists(P("1324"))
        assert report.has_bad_partner
        assert report.witness_partner == P("4231")

    def test_partners_verify_as_bad_pairs(self):
        for w in all_perms(5):
            left = left_bad_exists(w)
            if left.has_bad_partner:
                assert is_good_orbitwise(left.witness_partner, w).verdict == "bad"
            right = right_bad_exists(w)
            if right.has_bad_partner:
                assert is_good_orbitwise(w, right.witness_partner).verdict == "bad"

    def test_embedded_partner_in_s6(self):
        w = P("461253")  # contains 35142 at positions (1, 2, 4, 5, 6)
        sigma = has_pattern(w, P("35142"))
        assert sigma is not None
        report = left_bad_exists(w)
        assert report.has_bad_partner


class TestPatternLists:
    def test_right_patterns_are_value_complements_of_left(self):
        for left_pat in LEFT_PATTERNS:
            n = len(left_pat)
            complement = tuple(n + 1 - v for v in left_pat)
            assert complement in RIGHT_PATTERNS

    def test_right_table_is_readme_complements_and_partners(self):
        # README: the right patterns 1324, 24153, 31524, 426153, in the order
        # of their left patterns; each partner is the complement of the left
        # pattern's model partner
        assert RIGHT_PATTERNS == {
            (1, 3, 2, 4): (4, 2, 3, 1),
            (2, 4, 1, 5, 3): (5, 3, 4, 2, 1),
            (3, 1, 5, 2, 4): (5, 4, 2, 3, 1),
            (4, 2, 6, 1, 5, 3): (6, 5, 3, 4, 2, 1),
        }
        assert ["".join(map(str, p)) for p in RIGHT_PATTERNS] == [
            "1324", "24153", "31524", "426153"
        ]

    def test_long_left_patterns_contain_3412(self):
        for pat in ("42513", "35142", "351624"):
            assert has_pattern(P(pat), P("3412")) is not None

    def test_model_pairs_are_bad(self):
        for pat, partner in LEFT_PATTERNS.items():
            assert (
                is_good_orbitwise(Permutation(partner), Permutation(pat)).verdict
                == "bad"
            )


class TestTheorem:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_no_mismatches(self, n):
        assert verify_pattern_theorem(n) == {"n": n, "mismatches": []}

    @pytest.mark.parametrize("n", [4, 5])
    def test_projected_sides_match_brute_force(self, n):
        tuples = list(itertools.permutations(range(1, n + 1)))
        bad = [
            (a, b) for a in tuples for b in tuples
            if reference_bruhat_leq(a, b) and _box_violation(a, b) is not None
        ]
        assert bad_partner_sides(n) == {
            "left": {b for _, b in bad}, "right": {a for a, _ in bad}
        }

    def test_n4_left_set_is_4231_containers(self):
        containers = {
            w.to_string() for w in all_perms(4) if has_pattern(w, P("4231"))
        }
        flagged = {
            w.to_string() for w in all_perms(4) if left_bad_exists(w).has_bad_partner
        }
        assert flagged == containers == {"4231"}

    def test_n7_requires_flag(self):
        with pytest.raises(ValueError):
            verify_pattern_theorem(7)


class TestBadPartnerCounts:
    """README's "bad-partner-admitting w" column: the w of S_n with a bad
    partner, the same count on either side."""

    @pytest.mark.parametrize("n, count", [(2, 0), (3, 0), (4, 1), (5, 19), (6, 243)])
    def test_matches_readme(self, n, count):
        sides = bad_partner_sides(n)
        assert (len(sides["left"]), len(sides["right"])) == (count, count)

    @pytest.mark.exhaustive
    def test_s7_matches_readme(self, s7_bad_sweep):
        # bad_partner_sides keeps "left" = the w2 and "right" = the w1 of the
        # bad pairs (w1, w2); the sweep holds each as (w, w') = (w2, w1)
        _, pairs, _ = s7_bad_sweep
        left = {w for w, _ in pairs}
        right = {w_prime for _, w_prime in pairs}
        assert (len(left), len(right)) == (2697, 2697)


class TestSchubertSingularity:
    def test_examples(self):
        assert schubert_singular(P("4231"))
        assert schubert_singular(P("3412"))
        assert not schubert_singular(P("1234"))
        assert not schubert_singular(P("321"))

    def test_matches_direct_pattern_search(self):
        for w in all_perms(5):
            direct = (
                has_pattern(w, P("3412")) is not None
                or has_pattern(w, P("4231")) is not None
            )
            assert schubert_singular(w) == direct
