"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything here is exact arithmetic; there are no numerical tolerances
anywhere.  Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import itertools
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from weylpairs.mingen import min_gen_subsystem, reflection_length
from weylpairs.pairs import (
    CRITERIA,
    EnumerationSummary,
    enumerate_pairs,
    is_good_chain,
    is_good_orbitwise,
    is_good_parabolic,
)
from weylpairs.patterns import has_pattern, verify_pattern_theorem
from weylpairs.roots import build_from_cartan, subset_leq
from weylpairs.varieties import (
    additional_equation_scan,
    cell_equations,
    check_point_families,
    fiber_equations,
    p_polynomials,
    point_assignment,
    sample_point_on_Vw,
    verify_witness,
)
from weylpairs.weyl import Permutation, ReflectionGroup, reflection_group, symmetric_group

from conftest import BENCH_CARTAN, additional_equation_holds, all_perms

F = Fraction
P = Permutation.from_string

FIXTURE = json.loads(
    (Path(__file__).parent / "fixtures" / "bad_pairs_s4.json").read_text()
)


def report(num: int, description: str, run):
    start = time.monotonic()
    try:
        run()
    except BaseException:
        print(f"[acceptance {num}] FAIL: {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"[acceptance {num}] PASS ({elapsed:.1f}s): {description}")


@pytest.fixture(scope="module")
def s5_bad_pairs():
    return [
        (v.w1, v.w2) for v in enumerate_pairs(5, "bad")
    ]


def test_criterion_1_criteria_agreement_s5():
    def run():
        start = time.monotonic()
        group = symmetric_group(5)
        perms = all_perms(5)
        comparable = 0
        for w1 in perms:
            for w2 in perms:
                orbit = CRITERIA["orbit"](5, w1, w2)
                if not orbit.comparable:
                    continue
                comparable += 1
                chain = is_good_chain(group, w1, w2)
                parabolic = is_good_parabolic(group, w1, w2)
                flat = CRITERIA["flatten"](5, w1, w2)
                assert (
                    orbit.verdict == chain.verdict == parabolic.verdict == flat.verdict
                ), (w1, w2)
        assert comparable > 0
        elapsed = time.monotonic() - start
        assert elapsed < 300, f"criteria agreement took {elapsed:.0f}s"

    report(1, "chain/parabolic/orbitwise/flattening agree on all comparable "
              "pairs of S5 within 5 minutes", run)


def test_criterion_2_pattern_theorem_up_to_n6():
    def run():
        start = time.monotonic()
        for n in range(2, 7):
            result = verify_pattern_theorem(n)
            assert result["mismatches"] == [], result
        elapsed = time.monotonic() - start
        assert elapsed < 600, f"pattern verification took {elapsed:.0f}s"

    report(2, "pattern characterization matches brute force for every w in "
              "S_n, n <= 6, both sides", run)


def test_criterion_3_reflection_length_and_bounds():
    def run():
        # d_w equals the reflection word length, on S5/B2/B3/G2 and on the
        # benchmark's crossval groups S6/B4/D4 (B4 and D4 built from Cartan)
        general = [reflection_group(name) for name in ("B2", "B3", "G2")]
        general += [ReflectionGroup(build_from_cartan(cartan, name=name))
                    for name, cartan in BENCH_CARTAN.items()]
        groups = [(symmetric_group(n), all_perms(n)) for n in (5, 6)]
        groups += [(group, range(group.size)) for group in general]
        for group, elements in groups:
            for w in elements:
                assert (
                    min_gen_subsystem(group, w).d_w == reflection_length(group, w)
                )
        # increment law on S4 and G2
        for group in (symmetric_group(4), reflection_group("G2")):
            elements = group.elements_by_length()
            for w in elements:
                d_w = min_gen_subsystem(group, w).d_w
                phi_pos = group.min_gen_positive(w)
                for key, s in group.reflections():
                    delta = -1 if key in phi_pos else 1
                    assert min_gen_subsystem(group, group.mul(w, s)).d_w == d_w + delta
                    assert min_gen_subsystem(group, group.mul(s, w)).d_w == d_w + delta
        # d_w <= l(w), equality iff a product of distinct simple reflections
        s5 = symmetric_group(5)
        gens = {j: s5.reflection(s5.simple_root_key(j)) for j in s5.simple_keys}
        distinct_products = set()
        for r in range(len(gens) + 1):
            for order in itertools.permutations(sorted(gens), r):
                w = s5.identity
                for j in order:
                    w = s5.mul(w, gens[j])
                distinct_products.add(w)
        for w in all_perms(5):
            d_w = min_gen_subsystem(s5, w).d_w
            assert d_w <= w.length()
            assert (d_w == w.length()) == (w in distinct_products)

    report(3, "d_w = reflection length on S5/S6/B2/B3/G2/B4/D4; increment law on "
              "S4/G2; d_w <= l(w) with the distinct-simple equality case on S5", run)


def test_criterion_4_flagship_counterexample():
    def run():
        w, wp = P("4231"), P("1324")
        rep = additional_equation_scan(w, wp)
        hits = [(h.q, h.a, h.b) for h in rep.hits]
        assert (1, 1, 2) in hits
        assert (1, 3, 4) in hits
        assert rep.status == "refuted"
        assert fiber_equations(w, wp) == ((1, 4), (2, 3))
        witness = verify_witness(w, wp, 1, 2)
        assert witness.point.diagonal == (F(0), F(1), F(1), F(0))
        assert witness.checks == {
            "plucker_incidence": True,
            "cell": True,
            "membership": True,
            "fiber": True,
            "separating": True,
        }

    report(4, "flagship pair ([4231],[1324]): hits (q=1,a=1,b=2) and "
              "(q=1,a=3,b=4), fiber {t1=t4, t2=t3}, witness t=(0,1,1,0)", run)


def test_criterion_5_counterexample_family(s5_bad_pairs):
    def run():
        # n = 4 and n = 5: every bad pair is refuted by a verified witness
        for n, bad_pairs in (
            (4, [(v.w1, v.w2) for v in enumerate_pairs(4, "bad")]),
            (5, s5_bad_pairs),
        ):
            assert bad_pairs, f"no bad pairs found for n={n}"
            for w1, w2 in bad_pairs:
                rep = additional_equation_scan(w2, w1)
                assert rep.status == "refuted", (w1, w2)
                assert rep.hits
                assert rep.witness is not None and rep.witness.ok
        # the unresolved n = 6 pair stays unknown, with the documented cell
        w6, wp6 = Permutation([6, 5, 3, 4, 2, 1]), Permutation([1, 2, 4, 3, 5, 6])
        rep = additional_equation_scan(w6, wp6)
        assert rep.status == "unknown"
        assert rep.hits == ()
        cd = cell_equations(w6)
        assert cd.nonvanishing == (
            (6,), (5, 6), (3, 5, 6), (3, 4, 5, 6), (2, 3, 4, 5, 6),
        )
        assert [t for tups in cd.vanishing for t in tups] == [(4, 5, 6)]

    report(5, "every bad pair of S4 and S5 is refuted by a verified witness; "
              "the n=6 pair ([653421],[124356]) stays unknown with cell "
              "vanishing exactly {x456}", run)


def test_criterion_6_equation_soundness_on_samples():
    def run():
        start = time.monotonic()
        for w in all_perms(4):
            eqs = p_polynomials(w)
            for s in range(20):
                plucker_values, psi = sample_point_on_Vw(w, 42 + s)
                point = point_assignment(4, plucker_values, psi)
                families = check_point_families(eqs, point)
                assert all(families.values()), (w, s, families)
        # incidence and combined identities with a consistent sign
        for w in all_perms(4):
            for q in (1, 2):
                w_vals = [w(k) for k in range(1, q + 2)]
                for b in w_vals:
                    i_tuple = tuple(sorted(v for v in w_vals if v != b))
                    for j_set in itertools.combinations(
                        [v for v in range(1, 5) if v != b], q
                    ):
                        if any(j < b and j not in w_vals for j in j_set):
                            continue
                        for a in range(1, 5):
                            if a in j_set:
                                continue
                            if not subset_leq(
                                sorted(j_set + (a,)), sorted(i_tuple + (b,))
                            ):
                                continue
                            assert additional_equation_holds(
                                w, q, b, j_set, a, samples=20
                            ), (w, q, b, j_set, a)
        elapsed = time.monotonic() - start
        assert elapsed < 120, f"equation soundness took {elapsed:.0f}s"

    report(6, "20 exact samples per w in S4 satisfy every equation family; "
              "simplified-incidence and combined identities hold with "
              "consistent signs", run)


def test_criterion_7_scanner_consistency_and_singularity(s5_bad_pairs):
    def run():
        # any scanner hit implies a bad classification, n <= 5 exhaustively
        for n in (2, 3, 4, 5):
            for w1 in all_perms(n):
                for w2 in all_perms(n):
                    if not w1.bruhat_leq(w2):
                        continue
                    rep = additional_equation_scan(w2, w1)
                    if rep.hits:
                        assert is_good_orbitwise(w1, w2).verdict == "bad", (w1, w2)
        # larger elements of bad pairs carry singular Schubert varieties
        pattern_3412 = P("3412")
        pattern_4231 = P("4231")
        for n in (4, 5, 6):
            larger = set()
            if n == 5:
                larger = {w2 for _, w2 in s5_bad_pairs}
            else:
                larger = {v.w2 for v in enumerate_pairs(n, "bad")}
            for w in larger:
                assert (
                    has_pattern(w, pattern_3412) is not None
                    or has_pattern(w, pattern_4231) is not None
                ), w

    report(7, "scanner hits imply bad pairs (n <= 5 exhaustive); every larger "
              "element of a bad pair contains 3412 or 4231 (n <= 6)", run)


def test_criterion_8_bad_pair_census_matches_frozen_oracle():
    def run():
        summary = EnumerationSummary(4)
        bad = [
            (v.w1.to_string(), v.w2.to_string())
            for v in enumerate_pairs(4, "bad", summary=summary)
        ]
        assert summary.total_comparable == FIXTURE["total_comparable"] == 213
        assert summary.bad_count == FIXTURE["bad_count"] == 1
        assert bad == [tuple(p) for p in FIXTURE["bad_pairs"]]

    report(8, "orbitwise S4 census equals the chain-criterion oracle frozen "
              "before the build (213 comparable pairs, 1 bad)", run)
