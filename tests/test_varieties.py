"""Relations, cell equations, sampling, the scanner, and witness checks."""

import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from weylpairs import poly as poly_module
from weylpairs import varieties
from weylpairs.pairs import enumerate_pairs
from weylpairs.poly import (
    LAMBDA,
    IncompletePointError,
    SparsePolynomial,
    VerificationFailedError,
    normalize_plucker_indices,
    t_var,
    u_var,
    x_var,
)
from weylpairs.roots import subset_leq
from weylpairs.serialize import counterexample_dict, witness_dict
from weylpairs.varieties import (
    additional_equation_scan,
    cell_equations,
    check_point_families,
    fiber_equations,
    incidence_relations,
    p_polynomials,
    plucker_relations,
    point_assignment,
    sample_point_on_Vw,
    sample_point_on_fiber,
    verify_witness,
)
from weylpairs.weyl import Permutation

import conftest
from conftest import (
    PreconditionError,
    additional_equation_holds,
    all_perms,
    fraction_det,
    fraction_mat_mul,
    lambda_coefficients,
    lambda_degree,
    reference_kernel,
    reference_p_polynomial,
    simplified_incidence_check,
    variables,
)

F = Fraction
P = Permutation.from_string


def random_matrix(rng, nrows, ncols):
    while True:
        m = [[F(rng.randint(-9, 9)) for _ in range(ncols)] for _ in range(nrows)]
        if ncols <= nrows and fraction_det([row[:ncols] for row in m[:ncols]]) != 0:
            return m
        if ncols > nrows:
            return m


def plucker_of_columns(m, d):
    """Oracle: Pluecker coordinates of the span of the first d columns."""
    n = len(m)
    out = {}
    for rows in itertools.combinations(range(1, n + 1), d):
        out[rows] = fraction_det([[m[r - 1][c] for c in range(d)] for r in rows])
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
                    poly = reference_p_polynomial(w, indices)
                    point = {}
                    for tup in itertools.combinations(range(1, 5), d):
                        point[x_var(tup)] = (
                            F(0) if tup in vanishing else F(rng.randint(-9, 9))
                        )
                    for k in range(1, 5):
                        point[t_var(k)] = F(rng.randint(-9, 9))
                        for l in range(k + 1, 5):
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
                    poly = reference_p_polynomial(w, indices)
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
                    for v in variables(poly):
                        if v[0] == "x" and v[1] != indices:
                            assert subset_leq(indices, v[1]) and v[1] != indices

    def test_lambda_degree_bounded(self):
        for w in all_perms(4):
            for d in range(1, 4):
                for indices in itertools.combinations(range(1, 5), d):
                    assert lambda_degree(reference_p_polynomial(w, indices)) <= d - 1


# fixed S6 elements: the identity, the longest element, README's unknown
# family, and Coxeter-type, involutive and pattern-containing elements
S6_SAMPLE = (
    "123456", "654321", "563412", "563421", "653412", "653421", "124356",
    "214365", "234561", "612345", "351624", "426153", "246135", "315264",
    "135246", "462513", "214356", "516234", "341265", "265143",
)


class TestPPolynomialsFastPath:
    """p_polynomials assembles P_{w,I,s} from cached w-independent pieces;
    it must agree with splitting P_{w,I} built from its definition."""

    @staticmethod
    def reference(w):
        out = {}
        for d in range(1, w.n):
            for indices in itertools.combinations(range(1, w.n + 1), d):
                coeffs = lambda_coefficients(reference_p_polynomial(w, indices))
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
        """Sampled points and scan witnesses are ``int`` in every coordinate,
        so ``evaluate`` never sees a ``Fraction`` on these paths; sampled psi
        is primitive."""
        rng = random.Random(11)
        cells = all_perms(4) + rng.sample(all_perms(5), 12) + rng.sample(all_perms(6), 8)
        for w in cells:
            for seed in (1, 7):
                plucker_values, psi = sample_point_on_Vw(w, seed)
                point = point_assignment(w.n, plucker_values, psi)
                assert all(type(value) is int for value in point.values()), w.to_string()
                assert gcd(*(entry for row in psi for entry in row)) == 1, w.to_string()
        for n, count in ((5, 6), (6, 6)):
            for w, wp in _seeded_bad_pairs(n, count, seed=n + 1):
                witness = additional_equation_scan(w, wp).witness
                if witness is None:
                    continue
                point = point_assignment(n, witness.point.plucker_values, witness.point.psi)
                assert all(type(value) is int for value in point.values())
        # a Fraction point is still checked exactly: a member scaled by 1/k
        w = P("563421")
        eqs = p_polynomials(w)
        point = point_assignment(6, *sample_point_on_Vw(w, 3))
        for k in (2, 9):
            scaled = _scaled_psi(point, F(1, k))
            assert any(type(value) is F for value in scaled.values())
            assert all(check_point_families(eqs, scaled).values())


def _materialised_p_check(eqs, point):
    """Reference: evaluate every built P_{w,I,s} at the point."""
    return all(p.evaluate(point) == 0 for p in eqs.p_equations.values())


def _factored_p_check(eqs, point):
    return check_point_families(eqs, point)["p_equations"]


def _scaled_psi(point, factor):
    """The point with every u and t coordinate multiplied by ``factor``."""
    return {v: val * factor if v[0] in ("u", "t") else val for v, val in point.items()}


def _seeded_bad_pairs(n, count, seed):
    pairs = [(v.w2, v.w1) for v in enumerate_pairs(n, "bad")]
    return random.Random(seed).sample(pairs, count)


class TestFactoredPCheck:
    """check_point_families tests the P-family on the point's own numbers:
    sum_J Delta^J_I(A + lambda) x_J = prod_{k<=d} (t_{w(k)} + lambda) x_I
    coefficient by coefficient, with the shifted minors of the point's (u, t)
    matrix A as lists of numbers and no polynomial built; it must agree with
    evaluating the materialised p_equations, on members and non-members
    alike."""

    S5_CELLS = ("12345", "54321", "42513", "35142", "21543", "31452")
    S6_CELLS = ("123456", "653421", "351624", "426153", "214365", "246135")

    @staticmethod
    def sample(w, seed):
        return point_assignment(w.n, *sample_point_on_Vw(w, seed))

    def test_every_s4_cell(self):
        for w in all_perms(4):
            eqs = p_polynomials(w)
            for seed in (1, 2):
                point = self.sample(w, seed)
                assert _factored_p_check(eqs, point) is True
                assert _materialised_p_check(eqs, point) is True

    @pytest.mark.parametrize("cells", [S5_CELLS, S6_CELLS], ids=["S5", "S6"])
    def test_seeded_cells_and_other_cells(self, cells):
        elements = [P(c) for c in cells]
        for w, other in zip(elements, elements[1:] + elements[:1]):
            eqs, eqs_other = p_polynomials(w), p_polynomials(other)
            for seed in (3, 4):
                point = self.sample(w, seed)
                assert _factored_p_check(eqs, point) is True
                assert _materialised_p_check(eqs, point) is True
                # the point of w is not on the cell of another w
                assert _factored_p_check(eqs_other, point) is False
                assert _materialised_p_check(eqs_other, point) is False

    @pytest.mark.parametrize("n, count", [(5, 12), (6, 8)], ids=["S5", "S6"])
    def test_seeded_witnesses(self, n, count):
        for w, wp in _seeded_bad_pairs(n, count, seed=n):
            report = additional_equation_scan(w, wp)
            if report.witness is None:
                continue
            point = point_assignment(n, report.witness.point.plucker_values, report.witness.point.psi)
            eqs = p_polynomials(wp)
            assert _factored_p_check(eqs, point) is True
            assert _materialised_p_check(eqs, point) is True
            # a witness of w' is generally not on the cell of w
            eqs_w = p_polynomials(w)
            assert _factored_p_check(eqs_w, point) == _materialised_p_check(eqs_w, point)

    @pytest.mark.parametrize("cell", ["4231", "42513", "351624"])
    def test_one_t_changed(self, cell):
        w = P(cell)
        eqs = p_polynomials(w)
        for seed in (5, 6):
            point = self.sample(w, seed)
            for k in (1, w.n):
                moved = dict(point)
                moved[t_var(k)] = point[t_var(k)] + F(1, 7)
                assert _factored_p_check(eqs, moved) is False
                assert _materialised_p_check(eqs, moved) is False

    @pytest.mark.parametrize("cell", ["4231", "35142", "351624"])
    def test_neighbour_cell_fails_in_dimension_one_only(self, cell):
        # w and w s_1 share every prefix set but the first, so at a diagonal
        # point with one nonzero x per d only P_{w,{w's_1(1)},0} fails
        w = P(cell)
        neighbour = w * Permutation.transposition(w.n, 1, 2)
        plucker_values = {
            tuple(sorted(neighbour(k) for k in range(1, d + 1))): 1 for d in range(1, w.n)
        }
        psi = tuple(tuple(F(i + 1) if i == j else F(0) for j in range(w.n)) for i in range(w.n))
        point = point_assignment(w.n, plucker_values, psi)
        assert _factored_p_check(p_polynomials(neighbour), point) is True
        assert _materialised_p_check(p_polynomials(neighbour), point) is True
        eqs = p_polynomials(w)
        failing = [key for key, p in eqs.p_equations.items() if p.evaluate(point) != 0]
        assert failing == [(1, (neighbour(1),), 0)]
        assert _factored_p_check(eqs, point) is False

    @pytest.mark.parametrize("cell", ["3142", "42513", "426153"])
    def test_u_and_t_with_different_denominators(self, cell):
        w = P(cell)
        eqs = p_polynomials(w)
        for seed in (7, 8):
            # scaling (u, t) keeps a member a member: P is homogeneous in them
            point = _scaled_psi(self.sample(w, seed), F(1, 6))
            dens = {F(val).denominator for v, val in point.items() if v[0] in ("u", "t")}
            assert len(dens - {1}) >= 2
            assert _factored_p_check(eqs, point) is True
            assert _materialised_p_check(eqs, point) is True
            moved = dict(point)
            moved[t_var(2)] = point[t_var(2)] + F(1, 5)
            assert _factored_p_check(eqs, moved) is False
            assert _materialised_p_check(eqs, moved) is False

    def test_missing_variable_raises(self):
        w = P("42513")
        eqs = p_polynomials(w)
        point = self.sample(w, 9)
        for v in point:
            partial = {k: val for k, val in point.items() if k != v}
            with pytest.raises(IncompletePointError):
                check_point_families(eqs, partial)

    def test_missing_x_is_named(self):
        # an x is looked up before the (u, t) matrix is built, and is named
        # just as a missing u or t is
        w = P("2413")
        point = self.sample(w, 1)
        del point[x_var((1, 2))]
        with pytest.raises(IncompletePointError, match="x12"):
            check_point_families(p_polynomials(w), point)

    @pytest.mark.parametrize("doctor", ["extra-top", "scaled-top", "inhomogeneous"])
    def test_doctored_coefficient_trips_the_check(self, monkeypatch, doctor):
        """The engine checks the lambda^d coefficient of every shifted minor
        of the generic matrix as it computes it, and ``_colinearity_index``
        the (u, t)-degree d - s of the lambda^s ones.  The list of
        coefficients has d + 1 entries, so a higher power of lambda cannot
        arise."""
        n, indices = 4, (1, 3)
        if doctor == "inhomogeneous":
            # t1 + 1 gives Delta^I_I a lambda^0 coefficient of (u, t)-degree 1
            upper = poly_module._upper_matrix

            def doctored_matrix(n_, point):
                a = upper(n_, point)
                a[1][1] = a[1][1] + 1
                return a

            monkeypatch.setattr(poly_module, "_upper_matrix", doctored_matrix)
        else:
            # lambda^2 coefficient 2 for J = I, or nonzero for J = (1, 4) != I
            cols = {"scaled-top": indices, "extra-top": (1, 4)}[doctor]
            terms = poly_module._laplace_terms

            def doctored(rows_, cols_):
                out = terms(rows_, cols_)
                if (rows_, cols_) != (indices, cols):
                    return out
                if doctor == "scaled-top":
                    return out + out
                (sign, c, diagonal, sub_cols), *rest = out
                return ((sign, c, not diagonal, sub_cols), *rest)

            monkeypatch.setattr(poly_module, "_laplace_terms", doctored)
        # a fresh memo, so no minor computed before the doctoring is reused
        monkeypatch.setattr(varieties, "_generic_minors", poly_module._generic_minors.__wrapped__)
        message = "degree != 2" if doctor == "inhomogeneous" else "lambda\\^2 coefficient"
        with pytest.raises(VerificationFailedError, match=message):
            varieties._colinearity_index.__wrapped__(n, indices)

    @pytest.mark.parametrize(
        "rows, cols", [((1,), (1,)), ((1,), (2,)), ((1, 2), (1, 2)), ((1, 2), (1, 3))],
        ids=["drop-top", "add-1", "drop-inner", "add-inner"],
    )
    def test_flipped_diagonal_flag_trips_the_check(self, monkeypatch, rows, cols):
        """The lambda^k coefficient of a k x k shifted minor must be 1 when
        rows = cols and 0 otherwise; a Laplace term with its diagonal flag
        flipped breaks that at a dense point, where every x below the lead of
        the longest cell is nonzero and every minor below it is computed."""
        w = P("654321")
        eqs = p_polynomials(w)
        point = self.sample(w, 5)
        terms = poly_module._laplace_terms

        def flipped(rows_, cols_):
            out = terms(rows_, cols_)
            if (rows_, cols_) != (rows, cols):
                return out
            (sign, c, diagonal, sub_cols), *rest = out
            return ((sign, c, not diagonal, sub_cols), *rest)

        assert _factored_p_check(eqs, point) is True
        monkeypatch.setattr(poly_module, "_laplace_terms", flipped)
        with pytest.raises(VerificationFailedError):
            check_point_families(eqs, point)

    def test_point_path_builds_no_symbolic_minor(self):
        """Checking a sampled point or a witness reads the point's numbers
        only: neither the symbolic minors nor the colinearity index is built."""
        poly_module.symbolic_minor.cache_clear()
        poly_module._generic_minors.cache_clear()
        varieties._colinearity_index.cache_clear()
        w = P("563421")
        assert all(check_point_families(p_polynomials(w), self.sample(w, 3)).values())
        assert verify_witness(P("126453"), P("123546"), 5, 6).ok
        assert poly_module.symbolic_minor.cache_info().misses == 0
        assert poly_module._generic_minors.cache_info().misses == 0
        assert varieties._colinearity_index.cache_info().misses == 0

    def test_undoctored_coefficients_pass_the_check(self):
        for n in (4, 5, 6):
            for d in range(1, n):
                for indices in itertools.combinations(range(1, n + 1), d):
                    index = varieties._colinearity_index.__wrapped__(n, indices)
                    assert index == varieties._colinearity_index(n, indices)
                    assert all(len(minors) == d for minors in index.values())


class TestIndexedPCheck:
    """The P-check sums Delta^J_I(A + lambda) x_J over the point's x-support
    only; it must equal evaluating the materialised p_equations at every
    point, member or not."""

    @staticmethod
    def non_members(point):
        """Copies of the point with one u or t coordinate raised by 1."""
        for v in sorted(point):
            if v[0] in ("u", "t"):
                yield {**point, v: point[v] + 1}

    def check(self, eqs, point):
        expected = _materialised_p_check(eqs, point)
        assert _factored_p_check(eqs, point) is expected
        return expected

    @pytest.mark.parametrize(
        "n, cells", [(5, TestFactoredPCheck.S5_CELLS), (6, TestFactoredPCheck.S6_CELLS[:4])],
        ids=["S5", "S6"],
    )
    def test_dense_samples_and_raised_copies(self, n, cells):
        outcomes = []
        for cell in cells:
            w = P(cell)
            eqs = p_polynomials(w)
            point = point_assignment(n, *sample_point_on_Vw(w, 17))
            assert self.check(eqs, point) is True
            outcomes += [self.check(eqs, moved) for moved in self.non_members(point)]
        assert outcomes.count(False) > len(outcomes) // 2

    @pytest.mark.parametrize("n, count", [(5, 8), (6, 4)], ids=["S5", "S6"])
    def test_witnesses_and_raised_copies(self, n, count):
        outcomes = []
        for w, wp in _seeded_bad_pairs(n, count, seed=n + 20):
            witness = additional_equation_scan(w, wp).witness
            if witness is None:
                continue
            point = point_assignment(n, witness.point.plucker_values, witness.point.psi)
            eqs = p_polynomials(wp)
            assert self.check(eqs, point) is True
            outcomes += [self.check(eqs, moved) for moved in self.non_members(point)]
        assert False in outcomes

    def test_cell_check_on_the_support(self):
        w = P("42513")
        eqs = p_polynomials(w)
        point = point_assignment(5, *sample_point_on_Vw(w, 2))
        assert check_point_families(eqs, point)["cell"] is True
        for lead, vanishing in zip(eqs.cell.nonvanishing, eqs.cell.vanishing):
            assert check_point_families(eqs, {**point, x_var(lead): 0})["cell"] is False
            for tup in vanishing:
                assert check_point_families(eqs, {**point, x_var(tup): 1})["cell"] is False

    @pytest.mark.exhaustive
    def test_every_s6_cell(self):
        for w in all_perms(6):
            eqs = p_polynomials(w)
            point = point_assignment(6, *sample_point_on_Vw(w, 1))
            assert self.check(eqs, point) is True, w.to_string()
            self.check(eqs, {**point, t_var(w(1)): point[t_var(w(1))] + 1})


def _exchange_reference(n, d, d_prime):
    """Reference for _exchange_relations by polynomial arithmetic: signed
    variables multiplied and summed as SparsePolynomials."""

    def signed_x(indices):
        sign, sorted_idx = normalize_plucker_indices(indices)
        if sign == 0:
            return SparsePolynomial.zero()
        return SparsePolynomial.variable(x_var(sorted_idx)) * sign

    out, seen = [], set()
    universe = range(1, n + 1)
    for i_seq in itertools.combinations(universe, d - 1):
        for j_seq in itertools.combinations(universe, d_prime + 1):
            rel = SparsePolynomial.zero()
            for k, jk in enumerate(j_seq, start=1):
                rest = j_seq[: k - 1] + j_seq[k:]
                rel = rel + signed_x(i_seq + (jk,)) * signed_x(rest) * ((-1) ** k)
            if not rel:
                continue
            rel = -rel if rel.sorted_terms()[0][1] < 0 else rel
            if rel not in seen:
                seen.add(rel)
                out.append(rel)
    return tuple(out)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_exchange_relations_match_polynomial_arithmetic(n):
    for d in range(1, n):
        for d_prime in range(d, n):
            direct = varieties._exchange_relations(n, d, d_prime)
            reference = _exchange_reference(n, d, d_prime)
            assert direct == reference, (n, d, d_prime)
            assert [p.canonical_str() for p in direct] == [p.canonical_str() for p in reference]


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


def _fraction_inverse(m):
    n = len(m)
    aug = [[F(x) for x in row] + [F(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        p = aug[c][c]
        aug[c] = [x / p for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def reference_sample(cell_w, diag_pairs, seed):
    """The cell sampler computed with Fraction matrices throughout: the same
    random draws, Pluecker values as determinants, constraint rows from
    g^{-1}, and the kernel by Fraction elimination and back substitution."""
    n = cell_w.n
    rng = random.Random(seed)

    def upper():
        m = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            while not m[i][i]:
                m[i][i] = F(rng.randint(-9, 9))
            for j in range(i + 1, n):
                m[i][j] = F(rng.randint(-9, 9))
        return m

    b1, b2 = upper(), upper()
    perm = [[F(1 if i + 1 == cell_w(j + 1) else 0) for j in range(n)] for i in range(n)]
    g = fraction_mat_mul(fraction_mat_mul(b1, perm), b2)
    plucker_values = {
        rows: fraction_det([[g[r - 1][c] for c in range(d)] for r in rows])
        for d in range(1, n)
        for rows in itertools.combinations(range(1, n + 1), d)
    }
    g_inv = _fraction_inverse(g)
    unknowns = [(k, l) for k in range(1, n + 1) for l in range(k, n + 1)]
    constraint_rows = [
        [g_inv[p][k - 1] * g[l - 1][q] for (k, l) in unknowns]
        for p in range(n)
        for q in range(p)
    ]
    for p, q in diag_pairs:
        constraint_rows.append(
            [F(1) if kl == (p, p) else F(-1) if kl == (q, q) else F(0) for kl in unknowns]
        )
    basis, _ = reference_kernel(constraint_rows, len(unknowns))
    combo = [F(rng.randint(-9, 9)) for _ in basis]
    psi = [[F(0)] * n for _ in range(n)]
    for idx, (k, l) in enumerate(unknowns):
        psi[k - 1][l - 1] = sum((c * vec[idx] for c, vec in zip(combo, basis)), F(0))
    return plucker_values, tuple(tuple(row) for row in psi)


def primitive(sample):
    """A Fraction sample in the sampler's form: Pluecker values as ``int``,
    psi as its positive primitive integer multiple (times the lcm of its
    denominators, divided by the gcd of the results)."""
    plucker_values, psi = sample
    assert all(v.denominator == 1 for v in plucker_values.values())
    scale = lcm(*(v.denominator for row in psi for v in row))
    scaled = [[int(v * scale) for v in row] for row in psi]
    divisor = gcd(*(v for row in scaled for v in row)) or 1
    return (
        {rows: int(v) for rows, v in plucker_values.items()},
        tuple(tuple(v // divisor for v in row) for row in scaled),
    )


def typed(sample):
    """A sample with the type of every number spelled out."""
    plucker_values, psi = sample
    return (
        [(rows, type(v), v) for rows, v in plucker_values.items()],
        [[(type(v), v) for v in row] for row in psi],
    )


class TestSamplerAgainstFractionReference:
    """The integer sampler returns the primitive integer form of the Fraction
    reference, in values and types."""

    def test_every_s4_cell(self):
        for w in all_perms(4):
            for seed in (0, 42):
                assert typed(sample_point_on_Vw(w, seed)) == typed(primitive(reference_sample(w, (), seed)))

    @pytest.mark.parametrize("n", [5, 6])
    def test_seeded_cells(self, n):
        rng = random.Random(n)
        cells = rng.sample(all_perms(n), 15)
        for w in cells:
            for _ in range(3):
                seed = rng.randrange(10**6)
                assert typed(sample_point_on_Vw(w, seed)) == typed(primitive(reference_sample(w, (), seed)))

    def test_fiber_pairs(self):
        """The identifications t_p = t_q join the rows from b1 in the sampler
        and the rows from g^{-1} in the reference."""
        pairs = [(P("4231"), P("1324")), (P("4321"), P("2143"))]
        pairs += _seeded_bad_pairs(5, 4, seed=31) + _seeded_bad_pairs(6, 3, seed=32)
        for w, wp in pairs:
            for seed in range(100, 104):
                got = sample_point_on_fiber(w, wp, seed)
                assert typed(got) == typed(primitive(reference_sample(wp, fiber_equations(w, wp), seed)))


class TestScan:
    def test_flagship_pair(self):
        rep = additional_equation_scan(P("4231"), P("1324"))
        assert rep.status == "refuted"
        as_tuples = [(h.q, h.a, h.b, h.variant) for h in rep.hits]
        assert (1, 1, 2, "main") in as_tuples
        assert (1, 3, 4, "remark") in as_tuples
        record = counterexample_dict(rep)
        assert record["orbit_separated_hits"] == record["hits"]
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

    def test_rational_diagonal_is_kept_and_serialized(self):
        result = verify_witness(P("4231"), P("1324"), 1, 2, diagonal=(-3, F(1, 2), F(1, 2), -3))
        assert result.ok
        assert witness_dict(result)["t"] == ["-3", "1/2", "1/2", "-3"]
        canonical = witness_dict(verify_witness(P("4231"), P("1324"), 1, 2))
        assert canonical["t"] == ["0", "1", "1", "0"]
        assert canonical["plucker_nonzero"] == {"1": "1", "13": "1", "123": "1"}

    @pytest.mark.parametrize("diagonal", [(0, 1, 1, 0, 5), (0, 1)], ids=["five", "two"])
    def test_diagonal_of_wrong_length_rejected(self, diagonal):
        with pytest.raises(ValueError, match="needs n = 4 entries"):
            verify_witness(P("4231"), P("1324"), 1, 2, diagonal=diagonal)

    @pytest.mark.parametrize(
        "w, wp, a, b", [("4231", "1324", 2, 1), ("653421", "124356", 1, 2)],
        ids=["reversed-hit", "pair-without-hits"],
    )
    def test_non_hit_rejected(self, w, wp, a, b):
        """Checks at an (a, b) that is no separated hit would refute nothing."""
        with pytest.raises(ValueError, match=r"is not a separated hit of"):
            verify_witness(P(w), P(wp), a, b)

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

    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_sample_rejected(self, samples):
        # checked at no point, either identity would hold vacuously
        with pytest.raises(ValueError, match="samples must be at least 1"):
            simplified_incidence_check(P("4231"), 1, 4, (2,), 1, samples=samples)
        with pytest.raises(ValueError, match="samples must be at least 1"):
            additional_equation_holds(P("4231"), 1, 4, (2,), 1, samples=samples)

    @pytest.mark.parametrize("var", [u_var(3, 4), t_var(3), t_var(4)], ids=["u34", "t3", "t4"])
    def test_additional_equation_fails_off_the_cell(self, monkeypatch, var):
        """One (u, t) coordinate of every sample raised by 1: the x-values, and
        so the incidence signs, stay as they were, but the minor identity of
        2413 at (q, b, J, a) = (1, 2, {3}, 1) fails."""
        w = P("2413")
        assert additional_equation_holds(w, 1, 2, (3,), 1, samples=3)
        sample = conftest._cached_sample_assignment

        def moved(one_line, seed):
            point = sample(one_line, seed)
            return {**point, var: point[var] + 1}

        monkeypatch.setattr(conftest, "_cached_sample_assignment", moved)
        assert additional_equation_holds(w, 1, 2, (3,), 1, samples=3) is False

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
