"""Good/bad pair classification: criteria, witnesses, enumeration."""

import json
import math
import random
from pathlib import Path

import pytest

from weylpairs.mingen import min_gen_subsystem
from weylpairs.pairs import (
    CRITERIA,
    EnumerationSummary,
    _box_violation,
    _leq_indices,
    classify_block,
    enumerate_pairs,
    is_good_chain,
    is_good_flattening,
    is_good_orbitwise,
    is_good_parabolic,
    lex_tuples,
)
from weylpairs.weyl import Permutation, _bruhat_key

from conftest import (
    all_perms,
    embed_pair,
    longest_element,
    reference_box_count,
    reference_box_violation,
    reference_bruhat_leq,
)

FIXTURE = json.loads(
    (Path(__file__).parent / "fixtures" / "bad_pairs_s4.json").read_text()
)

P = Permutation.from_string


class TestChainCriterion:
    def test_equal_pair_good_with_empty_chain(self, s4):
        w = P("3142")
        verdict = is_good_chain(s4, w, w)
        assert verdict.verdict == "good"
        assert verdict.chain_witness == ()

    def test_flagship_bad_pair(self, s4):
        verdict = is_good_chain(s4, P("1324"), P("4231"))
        assert verdict.verdict == "bad"
        assert verdict.violating_orbit is not None

    def test_identity_below_all_good(self, s4):
        e = Permutation.identity(4)
        for w in all_perms(4):
            assert is_good_chain(s4, e, w).verdict == "good"

    def test_incomparable(self, s4):
        verdict = is_good_chain(s4, P("2134"), P("1342"))
        assert verdict.verdict == "incomparable"
        assert not verdict.comparable

    def test_chain_witnesses_validate(self, s4):
        for w1 in all_perms(4):
            for w2 in all_perms(4):
                verdict = is_good_chain(s4, w1, w2)
                if verdict.verdict != "good":
                    continue
                allowed = s4.min_gen_positive(s4.mul(w1, s4.inv(w2)))
                current = w1
                for key in verdict.chain_witness:
                    assert key in allowed
                    bumped = s4.mul(s4.reflection(key), current)
                    assert current.bruhat_leq(bumped) and current != bumped
                    assert bumped.length() > current.length()
                    current = bumped
                assert current == w2


class TestParabolicCriterion:
    def test_equal_pair(self, s4):
        w = P("4213")
        verdict = is_good_parabolic(s4, w, w)
        assert verdict.verdict == "good"
        assert verdict.parabolic.w_J1 == verdict.parabolic.w_J2

    def test_flagship_bad_pair(self, s4):
        assert is_good_parabolic(s4, P("1324"), P("4231")).verdict == "bad"

    def test_s5_listed_bad_pair(self, s5):
        assert is_good_parabolic(s5, P("12435"), P("35142")).verdict == "bad"

    def test_decomposition_reconstructs_inputs(self, s4):
        for w1, w2 in [(P("1324"), P("4231")), (P("1234"), P("4321")), (P("2134"), P("2314"))]:
            verdict = is_good_parabolic(s4, w1, w2)
            p = verdict.parabolic
            v_inv = p.v_J.inverse()
            assert s4.mul(s4.mul(p.u_J, p.w_J1), v_inv) == w1
            assert s4.mul(s4.mul(p.u_J, p.w_J2), v_inv) == w2
            for w_j in (p.w_J1, p.w_J2):
                assert s4.in_parabolic(w_j, p.J)


class TestOrbitwiseCriterion:
    def test_flagship_with_violating_orbit(self):
        verdict = is_good_orbitwise(P("1324"), P("4231"))
        assert verdict.verdict == "bad"
        orbit, i, j = verdict.violating_orbit
        assert orbit == (2, 3)
        assert (i, j) == (2, 3)

    def test_equal_pair(self):
        w = P("52341")
        assert is_good_orbitwise(w, w).verdict == "good"

    def test_s6_listed_bad_pair(self):
        assert is_good_orbitwise(P("124356"), P("351624")).verdict == "bad"

    def test_answers_at_n40(self):
        e1, e2 = embed_pair((1, 2, 4, 3, 5, 6), (3, 5, 1, 6, 2, 4), 40, random.Random(40))
        verdict = is_good_orbitwise(Permutation(e1), Permutation(e2))
        assert verdict.verdict == "bad"
        assert verdict.violating_orbit == reference_box_violation(e1, e2)


class TestFlatteningCriterion:
    def test_flagship(self):
        assert is_good_flattening(P("1324"), P("4231")).verdict == "bad"

    def test_s5_listed_bad_pair(self):
        assert is_good_flattening(P("13245"), P("42513")).verdict == "bad"

    def test_equal_pair(self):
        w = P("34125")
        assert is_good_flattening(w, w).verdict == "good"


class TestCriteriaAgreement:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_type_a_exhaustive(self, n):
        for w1 in all_perms(n):
            for w2 in all_perms(n):
                verdicts = {
                    name: fn(n, w1, w2).verdict for name, fn in CRITERIA.items()
                }
                assert len(set(verdicts.values())) == 1, (w1, w2, verdicts)

    @pytest.mark.parametrize("group_name", ["b2", "g2", "b3"])
    def test_general_chain_vs_parabolic(self, group_name, request):
        group = request.getfixturevalue(group_name)
        for a in range(group.size):
            for b in range(group.size):
                assert (
                    is_good_chain(group, a, b).verdict
                    == is_good_parabolic(group, a, b).verdict
                )


class TestInversionSymmetry:
    def test_s4_exhaustive(self, s4):
        w0 = longest_element(s4)
        for w1 in all_perms(4):
            for w2 in all_perms(4):
                base = is_good_orbitwise(w1, w2).verdict
                right = is_good_orbitwise(s4.mul(w2, w0), s4.mul(w1, w0)).verdict
                left = is_good_orbitwise(s4.mul(w0, w2), s4.mul(w0, w1)).verdict
                assert base == right == left

    @pytest.mark.parametrize("group_name", ["b2", "g2"])
    def test_general_exhaustive(self, group_name, request):
        group = request.getfixturevalue(group_name)
        w0 = longest_element(group)
        for a in range(group.size):
            for b in range(group.size):
                base = is_good_chain(group, a, b).verdict
                right = is_good_chain(group, group.mul(b, w0), group.mul(a, w0)).verdict
                left = is_good_chain(group, group.mul(w0, b), group.mul(w0, a)).verdict
                assert base == right == left


class TestEqualityImpliesGood:
    @pytest.mark.parametrize("group_name", ["s4", "g2"])
    def test_exhaustive(self, group_name, request):
        group = request.getfixturevalue(group_name)
        elements = group.elements_by_length()
        is_type_a = group_name == "s4"
        for w1 in elements:
            for w2 in elements:
                if not group.bruhat_leq(w1, w2):
                    continue
                d = min_gen_subsystem(group, group.mul(w2, group.inv(w1))).d_w
                gap = group.length(w2) - group.length(w1)
                assert d <= gap
                if d == gap:
                    if is_type_a:
                        assert is_good_orbitwise(w1, w2).verdict == "good"
                    else:
                        assert is_good_chain(group, w1, w2).verdict == "good"


class TestEnumeration:
    def test_n2_all_good(self):
        summary = EnumerationSummary(2)
        list(enumerate_pairs(2, summary=summary))
        assert summary.bad_count == 0
        assert summary.total_comparable == 3

    def test_n3_no_bad_pairs(self):
        summary = EnumerationSummary(3)
        list(enumerate_pairs(3, summary=summary))
        assert summary.bad_count == 0

    def test_n4_matches_frozen_oracle(self):
        summary = EnumerationSummary(4)
        bad = [
            (v.w1.to_string(), v.w2.to_string())
            for v in enumerate_pairs(4, "bad", summary=summary)
        ]
        assert summary.total_comparable == FIXTURE["total_comparable"]
        assert summary.bad_count == FIXTURE["bad_count"]
        assert bad == [tuple(p) for p in FIXTURE["bad_pairs"]]

    def test_lexicographic_order(self):
        seen = [
            (v.w1.one_line, v.w2.one_line) for v in enumerate_pairs(4, "all")
        ]
        assert seen == sorted(seen)

    def test_n7_requires_flag(self):
        with pytest.raises(ValueError):
            next(iter(enumerate_pairs(7)))

    @pytest.mark.parametrize(
        "n, verdict_filter, message",
        [(4, "bogus", "unknown filter"), (8, "all", "enumeration supports")],
        ids=["unknown-filter", "n8"],
    )
    def test_block_rejects_what_the_sweep_rejects(self, n, verdict_filter, message):
        with pytest.raises(ValueError, match=message):
            next(enumerate_pairs(n, verdict_filter, allow_large=True, rows=(0, 1)))

    def test_block_at_n7_with_the_opt_in(self):
        # the first row of S7 is the identity: comparable to everything, no bad pair
        summary = EnumerationSummary(7)
        pairs = list(
            enumerate_pairs(7, "bad", allow_large=True, summary=summary, rows=(0, 1))
        )
        assert (pairs, summary.total_comparable, summary.bad_count) == ([], 5040, 0)
        with pytest.raises(ValueError, match="allow_large"):
            next(enumerate_pairs(7, "bad", rows=(0, 1)))

    @pytest.mark.parametrize("rows", [(-1, 3), (3, 2), (0, 25)])
    def test_block_rejects_rows_outside_the_group(self, rows):
        with pytest.raises(ValueError, match="rows must satisfy"):
            next(enumerate_pairs(4, rows=rows))

    def test_block_split_matches_serial(self):
        import math

        serial = [
            (v.w1.one_line, v.w2.one_line, v.violating_orbit)
            for v in enumerate_pairs(4, "all")
        ]
        total = math.factorial(4)
        merged = []
        comparable = bad = 0
        for lo, hi in ((0, 7), (7, 15), (15, total)):
            block = EnumerationSummary(4)
            merged.extend(
                (v.w1.one_line, v.w2.one_line, v.violating_orbit)
                for v in enumerate_pairs(4, "all", summary=block, rows=(lo, hi))
            )
            comparable += block.total_comparable
            bad += block.bad_count
        assert merged == serial
        assert comparable == FIXTURE["total_comparable"]
        assert bad == FIXTURE["bad_count"]


@pytest.fixture(scope="module")
def s5_s6_rows():
    """(t1, t2, violation) for every comparable pair of S5 and S6, as the
    enumeration streams them."""
    return [
        row for n in (5, 6)
        for row in classify_block(n, 0, math.factorial(n), EnumerationSummary(n))
    ]


def assert_rows_match_reference(tuples):
    """``_leq_indices`` on the packed keys of lexicographically sorted
    one-line tuples lists exactly the j >= i that the sorted-prefix
    criterion puts above tuple i."""
    guarded, guards = zip(*map(_bruhat_key, tuples))
    for i, t1 in enumerate(tuples):
        expected = [j for j, t2 in enumerate(tuples) if reference_bruhat_leq(t1, t2)]
        assert _leq_indices(guarded, guards[0], i) == expected


class TestFastPathsAgainstReferences:
    """The enumeration's packed comparability rows and box-violation shortcut
    against the sorted-prefix criterion, direct box counts and the sorted
    position lists of ``reference_box_violation``."""

    @pytest.mark.parametrize("n", [5, 6])
    def test_packed_rows_match_tuples_leq(self, n):
        assert_rows_match_reference(lex_tuples(n))

    def test_packed_rows_at_the_widest_field(self):
        """Box counts reach n - 1 = 15 at n = 16, the most a 5-bit field
        holds under its guard bit; n = 15 was the largest n of the
        sorted-prefix packing.  Random tuples meet few comparable pairs, so
        each comes with a neighbour one transposition away."""
        for n in (15, 16):
            rng = random.Random(n)
            tuples = {tuple(range(1, n + 1)), tuple(range(n, 0, -1))}
            for _ in range(30):
                t = rng.sample(range(1, n + 1), n)
                tuples.add(tuple(t))
                i, j = sorted(rng.sample(range(n), 2))
                t[i], t[j] = t[j], t[i]
                tuples.add(tuple(t))
            assert_rows_match_reference(sorted(tuples))

    def test_box_violation_matches_box_counts_on_s5(self):
        n = 5
        boxes = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        perms = all_perms(n)

        def exceeds(w1, w2, i, j, orbit):
            return reference_box_count(w1, i, j, orbit) > reference_box_count(w2, i, j, orbit)

        for w1 in perms:
            for w2 in perms:
                if not reference_bruhat_leq(w1.one_line, w2.one_line):
                    continue
                failing = [
                    orbit for orbit in (w1 * w2.inverse()).orbits()
                    if any(exceeds(w1, w2, i, j, orbit) for i, j in boxes)
                ]
                violation = _box_violation(w1.one_line, w2.one_line)
                assert (violation is None) == (not failing), (w1, w2)
                if violation is not None:
                    orbit, i, j = violation
                    assert orbit == failing[0]
                    assert exceeds(w1, w2, i, j, orbit)


    def test_box_violation_matches_reference_on_s5_and_s6(self, s5_s6_rows):
        assert len(s5_s6_rows) == 3781 + 98407
        for t1, t2, violation in s5_s6_rows:
            expected = reference_box_violation(t1, t2)
            assert violation == expected, (t1, t2)
            assert _box_violation(t1, t2) == expected, (t1, t2)

    @pytest.mark.parametrize("n", [8, 12, 20, 40])
    def test_box_violation_matches_reference_on_embedded_s6_bad_pairs(self, s5_s6_rows, n):
        rng = random.Random(n)
        bad = [(t1, t2) for t1, t2, violation in s5_s6_rows if violation and len(t1) == 6]
        for t1, t2 in rng.sample(bad, 300):
            e1, e2 = embed_pair(t1, t2, n, rng)
            assert reference_bruhat_leq(e1, e2)
            expected = reference_box_violation(e1, e2)
            assert expected is not None, (e1, e2)
            assert _box_violation(e1, e2) == expected, (e1, e2)


class TestS5NamedPairs:
    """Larger bad pairs that generate the pattern characterization."""

    def test_listed_pairs_are_bad_under_all_criteria(self, s5):
        pairs = [("13245", "42513"), ("12435", "35142")]
        for a, b in pairs:
            w1, w2 = P(a), P(b)
            assert is_good_chain(s5, w1, w2).verdict == "bad"
            assert is_good_parabolic(s5, w1, w2).verdict == "bad"
            assert is_good_orbitwise(w1, w2).verdict == "bad"
            assert is_good_flattening(w1, w2).verdict == "bad"
