"""Relations, cell equations, sampling, the scanner, and witness checks."""

import itertools
import random
from fractions import Fraction

import pytest

from weylpairs.linalg import det
from weylpairs.pairs import enumerate_pairs
from weylpairs.poly import LAMBDA, SparsePolynomial, t_var, x_var
from weylpairs.roots import subset_leq
from weylpairs.varieties import (
    PreconditionError,
    additional_equation_holds,
    additional_equation_scan,
    cell_equations,
    check_point_families,
    fiber_equations,
    incidence_relations,
    p_polynomial,
    p_polynomials,
    plucker_relations,
    point_assignment,
    sample_point_on_Vw,
    sample_point_on_fiber,
    simplified_incidence_check,
    verify_witness,
)
from weylpairs.weyl import Permutation

from conftest import all_perms

F = Fraction
P = Permutation.from_string


def random_matrix(rng, nrows, ncols):
    while True:
        m = [[F(rng.randint(-9, 9)) for _ in range(ncols)] for _ in range(nrows)]
        probe = [row[:ncols] for row in m[:ncols]]
        if ncols <= nrows and det([row[:ncols] for row in m[:ncols]]) != 0:
            return m
        if ncols > nrows:
            return m


def plucker_of_columns(m, d):
    """Oracle: Pluecker coordinates of the span of the first d columns."""
    n = len(m)
    out = {}
    for rows in itertools.combinations(range(1, n + 1), d):
        out[rows] = det([[m[r - 1][c] for c in range(d)] for r in rows])
    return out


class TestPluckerRelations:
    def test_gr24_single_classical_relation(self):
        rels = plucker_relations(4, 2)
        assert len(rels) == 1
        x12 = SparsePolynomial.variable(x_var([1, 2]))
        x34 = SparsePolynomial.variable(x_var([3, 4]))
        x13 = SparsePolynomial.variable(x_var([1, 3]))
        x24 = SparsePolynomial.variable(x_var([2, 4]))
        x14 = SparsePolynomial.variable(x_var([1, 4]))
        x23 = SparsePolynomial.variable(x_var([2, 3]))
        classical = x12 * x34 - x13 * x24 + x14 * x23
        assert rels[0] in (classical, -classical)

    def test_projective_space_has_no_relations(self):
        assert plucker_relations(4, 1) == ()
        assert plucker_relations(5, 1) == ()

    def test_vanishing_on_random_planes(self):
        rng = random.Random(42)
        rels = plucker_relations(4, 2)
        for _ in range(20):
            m = random_matrix(rng, 4, 2)
            coords = plucker_of_columns(m, 2)
            point = {x_var(k): v for k, v in coords.items()}
            for rel in rels:
                assert rel.evaluate(point) == 0

    def test_vanishing_on_random_3subspaces_of_q5(self):
        rng = random.Random(7)
        rels = plucker_relations(5, 3)
        for _ in range(10):
            m = random_matrix(rng, 5, 3)
            coords = plucker_of_columns(m, 3)
            point = {x_var(k): v for k, v in coords.items()}
            for rel in rels:
                assert rel.evaluate(point) == 0


class TestIncidenceRelations:
    def test_nested_pairs_vanish(self):
        rng = random.Random(9)
        for d, dp in ((1, 2), (1, 3), (2, 3)):
            rels = incidence_relations(4, d, dp)
            for _ in range(20):
                m = random_matrix(rng, 4, dp)
                small = plucker_of_columns(m, d)
                big = plucker_of_columns(m, dp)
                point = {x_var(k): v for k, v in small.items()}
                point.update({x_var(k): v for k, v in big.items()})
                for rel in rels:
                    assert rel.evaluate(point) == 0

    def test_non_nested_pair_generically_violates(self):
        rng = random.Random(1)
        rels = incidence_relations(4, 1, 2)
        hits = 0
        for _ in range(10):
            small = plucker_of_columns(random_matrix(rng, 4, 1), 1)
            big = plucker_of_columns(random_matrix(rng, 4, 2), 2)
            point = {x_var(k): v for k, v in small.items()}
            point.update({x_var(k): v for k, v in big.items()})
            if any(rel.evaluate(point) != 0 for rel in rels):
                hits += 1
        assert hits >= 8

    def test_standard_flag_from_identity_matrix(self):
        ident = [[F(int(i == j)) for j in range(4)] for i in range(4)]
        point = {}
        for d in (1, 2, 3):
            point.update({x_var(k): v for k, v in plucker_of_columns(ident, d).items()})
        for d in (1, 2):
            for rel in incidence_relations(4, d, d + 1):
                assert rel.evaluate(point) == 0

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            incidence_relations(4, 2, 2)


class TestCellEquations:
    def test_documented_n6_element(self):
        cd = cell_equations(Permutation([6, 5, 3, 4, 2, 1]))
        assert cd.nonvanishing == (
            (6,),
            (5, 6),
            (3, 5, 6),
            (3, 4, 5, 6),
            (2, 3, 4, 5, 6),
        )
        all_vanishing = [t for tups in cd.vanishing for t in tups]
        assert all_vanishing == [(4, 5, 6)]

    def test_identity_everything_above_minimum_vanishes(self):
        cd = cell_equations(Permutation.identity(4))
        for d in range(1, 4):
            assert cd.nonvanishing[d - 1] == tuple(range(1, d + 1))
            expected = [
                t
                for t in itertools.combinations(range(1, 5), d)
                if t != tuple(range(1, d + 1))
            ]
            assert list(cd.vanishing[d - 1]) == expected

    def test_longest_element_big_cell(self):
        cd = cell_equations(Permutation([4, 3, 2, 1]))
        assert all(len(tups) == 0 for tups in cd.vanishing)


class TestPPolynomials:
    def test_count_formula_n3(self):
        eqs = p_polynomials(Permutation([2, 3, 1]))
        assert len(eqs.p_equations) == 1 * 3 + 2 * 3  # d * C(3, d)

    def test_counts_per_dimension(self):
        from math import comb

        for w in (P("1234"), P("4231")):
            eqs = p_polynomials(w)
            for d in range(1, 4):
                count = sum(1 for (dd, _, _) in eqs.p_equations if dd == d)
                assert count == d * comb(4, d)

    def test_higher_indices_land_in_cell_ideal(self):
        # when indices dominate the lead, P is supported on cell-vanishing x's
        rng = random.Random(13)
        for w in (P("2143"), P("3412"), P("4231")):
            cd = cell_equations(w)
            for d in range(1, 4):
                lead = cd.nonvanishing[d - 1]
                vanishing = set(cd.vanishing[d - 1])
                for indices in itertools.combinations(range(1, 5), d):
                    if not subset_leq(lead, indices):
                        continue
                    poly = p_polynomial(w, indices)
                    point = {}
                    for tup in itertools.combinations(range(1, 5), d):
                        point[x_var(tup)] = (
                            F(0) if tup in vanishing else F(rng.randint(-9, 9))
                        )
                    for k in range(1, 5):
                        point[t_var(k)] = F(rng.randint(-9, 9))
                        for l in range(k + 1, 5):
                            from weylpairs.poly import u_var

                            point[u_var(k, l)] = F(rng.randint(-9, 9))
                    point[LAMBDA] = F(rng.randint(-9, 9))
                    assert poly.evaluate(point) == 0

    def test_leading_coefficient_is_diagonal_difference(self):
        # coefficient of x_indices inside P_{w,indices} equals
        # prod (t_{i_k} + lambda) - prod (t_{w(k)} + lambda)
        lam = SparsePolynomial.variable(LAMBDA)
        for w in (P("2143"), P("4231"), P("1342")):
            for d in range(1, 4):
                for indices in itertools.combinations(range(1, 5), d):
                    poly = p_polynomial(w, indices)
                    expected = SparsePolynomial.constant(1)
                    for i in indices:
                        expected = expected * (SparsePolynomial.variable(t_var(i)) + lam)
                    prod_w = SparsePolynomial.constant(1)
                    for k in range(1, d + 1):
                        prod_w = prod_w * (SparsePolynomial.variable(t_var(w(k))) + lam)
                    expected = expected - prod_w
                    coeff = _coefficient_of_x(poly, indices)
                    assert coeff == expected
                    # every other projective variable dominates indices strictly
                    for v in poly.variables():
                        if v[0] == "x" and v[1] != indices:
                            assert subset_leq(indices, v[1]) and v[1] != indices

    def test_lambda_degree_bounded(self):
        for w in all_perms(4):
            for d in range(1, 4):
                for indices in itertools.combinations(range(1, 5), d):
                    assert p_polynomial(w, indices).lambda_degree() <= d - 1


# fixed S6 elements: the identity, the longest element, README's unknown
# family, and Coxeter-type, involutive and pattern-containing elements
S6_SAMPLE = (
    "123456", "654321", "563412", "563421", "653412", "653421", "124356",
    "214365", "234561", "612345", "351624", "426153", "246135", "315264",
    "135246", "462513", "214356", "516234", "341265", "265143",
)


class TestPPolynomialsFastPath:
    """p_polynomials assembles P_{w,I,s} from cached w-independent pieces;
    it must agree with splitting the reference p_polynomial(w, I)."""

    @staticmethod
    def reference(w):
        out = {}
        for d in range(1, w.n):
            for indices in itertools.combinations(range(1, w.n + 1), d):
                coeffs = p_polynomial(w, indices).lambda_coefficients()
                for s in range(d):
                    out[(d, indices, s)] = (
                        coeffs[s] if s < len(coeffs) else SparsePolynomial.zero()
                    )
        return out

    @pytest.mark.parametrize(
        "elements",
        [all_perms(4), all_perms(5), [P(x) for x in S6_SAMPLE]],
        ids=["S4", "S5", "S6-sample"],
    )
    def test_matches_reference(self, elements):
        for w in elements:
            fast = p_polynomials(w).p_equations
            ref = self.reference(w)
            assert list(fast) == list(ref), w.to_string()
            assert fast == ref, w.to_string()
            assert all(
                type(c) is int for poly in fast.values() for _, c in poly.sorted_terms()
            ), w.to_string()

    def test_integral_point_coordinates_are_int(self):
        w = P("4231")
        plucker_values, psi = sample_point_on_Vw(w, 3)
        point = point_assignment(4, plucker_values, psi)
        for v, value in point.items():
            assert type(value) in (int, F)
            assert (type(value) is int) == (F(value).denominator == 1)
        assert all(type(point[x_var(tup)]) is int for tup in plucker_values)


def _coefficient_of_x(poly, indices):
    """Collect the coefficient polynomial of the variable x_indices."""
    target = x_var(indices)
    out = {}
    for mono, coeff in poly._terms.items():
        hit = [e for v, e in mono if v == target]
        if hit == [1]:
            rest = tuple((v, e) for v, e in mono if v != target)
            out[rest] = coeff
    return SparsePolynomial(out)


class TestFiberEquations:
    def test_flagship(self):
        assert fiber_equations(P("4231"), P("1324")) == ((1, 4), (2, 3))

    def test_equal_elements(self):
        w = P("3142")
        assert fiber_equations(w, w) == ()

    def test_identifications_generate_orbit_partition(self):
        for w1 in all_perms(4):
            for w2 in all_perms(4):
                pairs = fiber_equations(w1, w2)
                parent = {i: i for i in range(1, 5)}

                def find(x):
                    while parent[x] != x:
                        parent[x] = parent[parent[x]]
                        x = parent[x]
                    return x

                for a, b in pairs:
                    parent[find(a)] = find(b)
                blocks = {}
                for i in range(1, 5):
                    blocks.setdefault(find(i), set()).add(i)
                sigma = w1 * w2.inverse()
                assert {frozenset(o) for o in sigma.orbits()} == {
                    frozenset(b) for b in blocks.values()
                }


class TestSampling:
    def test_samples_satisfy_every_family(self):
        for w in (P("1234"), P("4231"), P("3142")):
            eqs = p_polynomials(w)
            for s in range(5):
                plucker_values, psi = sample_point_on_Vw(w, 42 + s)
                point = point_assignment(4, plucker_values, psi)
                assert all(check_point_families(eqs, point).values())

    def test_identity_standard_flag(self):
        plucker_values, psi = sample_point_on_Vw(Permutation.identity(3), 42)
        # leading coordinate nonzero at the standard flag position
        assert plucker_values[(1,)] != 0
        assert plucker_values[(1, 2)] != 0
        for k in range(3):
            for l in range(k):
                assert psi[k][l] == 0

    def test_deterministic_given_seed(self):
        a = sample_point_on_Vw(P("4231"), 123)
        b = sample_point_on_Vw(P("4231"), 123)
        assert a == b

    def test_fiber_points_meet_fixed_torus_and_closure_equations(self):
        for w, wp in ((P("4231"), P("1324")), (P("4321"), P("2143"))):
            eqs_w = p_polynomials(w)
            for s in range(4):
                plucker_values, psi = sample_point_on_fiber(w, wp, 100 + s)
                point = point_assignment(4, plucker_values, psi)
                # cell membership for w'
                fams = check_point_families(p_polynomials(wp), point)
                assert all(fams.values())
                # diagonal fixed by w w'^{-1}
                for p_, q_ in fiber_equations(w, wp):
                    assert psi[p_ - 1][p_ - 1] == psi[q_ - 1][q_ - 1]
                # naive closure equations of w hold on the fiber
                assert all(
                    poly.evaluate(point) == 0
                    for poly in eqs_w.p_equations.values()
                )
                # multiset identity per dimension: the shifted diagonal
                # products of w and w' agree as polynomials in lambda
                for d in range(1, 4):
                    lhs = SparsePolynomial.constant(1)
                    rhs = SparsePolynomial.constant(1)
                    lam = SparsePolynomial.variable(LAMBDA)
                    for k in range(1, d + 1):
                        lhs = lhs * (SparsePolynomial.constant(psi[w(k) - 1][w(k) - 1]) + lam)
                        rhs = rhs * (SparsePolynomial.constant(psi[wp(k) - 1][wp(k) - 1]) + lam)
                    assert lhs == rhs


class TestScan:
    def test_flagship_pair(self):
        rep = additional_equation_scan(P("4231"), P("1324"))
        assert rep.status == "refuted"
        as_tuples = [(h.q, h.a, h.b, h.variant) for h in rep.hits]
        assert (1, 1, 2, "main") in as_tuples
        assert (1, 3, 4, "remark") in as_tuples
        assert rep.hits == rep.orbit_separated_hits
        assert rep.witness is not None and rep.witness.ok
        assert rep.witness.point.diagonal == (F(0), F(1), F(1), F(0))

    def test_unresolved_n6_pair(self):
        rep = additional_equation_scan(
            Permutation([6, 5, 3, 4, 2, 1]), Permutation([1, 2, 4, 3, 5, 6])
        )
        assert rep.status == "unknown"
        assert rep.hits == ()
        assert rep.witness is None

    def test_equal_pair_no_hits(self):
        rep = additional_equation_scan(P("4231"), P("4231"))
        assert rep.status == "unknown"
        assert rep.hits == ()

    def test_hits_only_on_bad_pairs_s4(self, s4):
        for v in enumerate_pairs(4, "all"):
            rep = additional_equation_scan(v.w2, v.w1)
            if rep.hits:
                assert v.verdict == "bad"


class TestWitness:
    def test_flagship_checks(self):
        result = verify_witness(P("4231"), P("1324"), 1, 2)
        assert result.ok
        assert result.point.diagonal == (F(0), F(1), F(1), F(0))
        assert set(result.checks) == {
            "plucker_incidence",
            "cell",
            "membership",
            "fiber",
            "separating",
        }

    def test_control_case_equal_diagonal(self):
        result = verify_witness(P("4231"), P("1324"), 1, 2, diagonal=(0, 1, 1, 0))
        assert result.ok
        flat = verify_witness(P("4231"), P("1324"), 1, 2, diagonal=(0, 0, 0, 0))
        assert not flat.ok
        assert flat.checks["separating"] is False
        assert all(v for k, v in flat.checks.items() if k != "separating")

    def test_same_orbit_rejected(self):
        with pytest.raises(ValueError):
            verify_witness(P("4231"), P("1324"), 1, 4)

    def test_witness_diagonal_satisfies_multiset_identity(self):
        # at any witness point the shifted diagonal products of w and w'
        # agree in every dimension, so the naive closure equations of w hold
        for w, wp, a, b in [
            (P("4231"), P("1324"), 1, 2),
            (P("4231"), P("1324"), 3, 4),
        ]:
            result = verify_witness(w, wp, a, b)
            t = result.point.diagonal
            lam = SparsePolynomial.variable(LAMBDA)
            for d in range(1, 4):
                lhs = SparsePolynomial.constant(1)
                rhs = SparsePolynomial.constant(1)
                for k in range(1, d + 1):
                    lhs = lhs * (SparsePolynomial.constant(t[w(k) - 1]) + lam)
                    rhs = rhs * (SparsePolynomial.constant(t[wp(k) - 1]) + lam)
                assert lhs == rhs
            point = point_assignment(4, result.point.plucker_values, result.point.psi)
            eqs_w = p_polynomials(w)
            assert all(p.evaluate(point) == 0 for p in eqs_w.p_equations.values())


class TestSimplifiedIncidence:
    def test_documented_configuration(self):
        ok, sign = simplified_incidence_check(P("4231"), 1, 2, (3,), 1, samples=10)
        assert ok and sign in (1, -1)

    def test_j_containing_b_rejected(self):
        with pytest.raises(PreconditionError):
            simplified_incidence_check(P("4231"), 1, 2, (2,), 3)

    def test_hypothesis_violation_rejected(self):
        with pytest.raises(PreconditionError):
            simplified_incidence_check(P("4231"), 1, 2, (1,), 3)

    def test_longest_element_configurations(self):
        # no vanishing cell variables: every admissible configuration is the
        # degenerate j = i case and the identity holds trivially
        w0 = P("4321")
        ok, sign = simplified_incidence_check(w0, 2, 3, (2, 4), 1, samples=6)
        assert ok and sign == 1

    def test_additional_equation_identity_all_s4_configs(self):
        count = 0
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
                                w, q, b, j_set, a, samples=6
                            )
                            count += 1
        assert count > 200
