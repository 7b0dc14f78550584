"""Sparse polynomial arithmetic, symbolic minors, serialization."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylpairs.poly import (
    LAMBDA,
    IncompletePointError,
    SparsePolynomial,
    normalize_plucker_indices,
    parse_polynomial,
    symbolic_minor,
    t_var,
    u_var,
    var_name,
    x_var,
)
from weylpairs.varieties import p_polynomials, point_assignment, sample_point_on_Vw
from weylpairs.weyl import Permutation

from conftest import fraction_det, lambda_coefficients, reference_minor, variables

F = Fraction

POOL = [x_var([1]), x_var([2]), x_var([1, 2]), u_var(1, 2), t_var(1), t_var(2), LAMBDA]


RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def polys(max_terms=4, coefficients=st.integers(-5, 5)):
    monomial = st.lists(
        st.tuples(st.sampled_from(POOL), st.integers(1, 2)), max_size=2
    )
    term = st.tuples(monomial, coefficients)
    return st.lists(term, max_size=max_terms).map(
        lambda terms: sum(
            (SparsePolynomial({tuple(m): F(c)}) for m, c in terms),
            SparsePolynomial.zero(),
        )
    )


class TestRingAxioms:
    def test_additive_inverse(self):
        p = parse_polynomial("3*x12*t1 - u12 + 2")
        assert not p + (-p)

    def test_difference_of_squares(self):
        x1 = SparsePolynomial.variable(x_var([1]))
        x2 = SparsePolynomial.variable(x_var([2]))
        assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2

    @settings(max_examples=80, deadline=None)
    @given(polys(), polys(), polys())
    def test_associativity_commutativity_distributivity(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    def test_canonical_form_bit_identical(self):
        p = parse_polynomial("u12*t2 - 4*x1")
        total = p + SparsePolynomial.zero()
        assert total == p
        assert total._terms == p._terms
        assert total.canonical_str() == p.canonical_str()


class TestEvaluate:
    def test_constant(self):
        assert SparsePolynomial.constant(F(7, 3)).evaluate({}) == F(7, 3)

    def test_difference_of_squares_at_point(self):
        p = parse_polynomial("x1^2 - x2^2")
        assert p.evaluate({x_var([1]): F(3), x_var([2]): F(2)}) == 5

    def test_missing_variable(self):
        p = parse_polynomial("x1*u12")
        with pytest.raises(IncompletePointError):
            p.evaluate({x_var([1]): F(1)})

    @settings(max_examples=60, deadline=None)
    @given(polys(), polys())
    def test_evaluation_is_ring_homomorphism(self, p, q):
        point = {v: F(hash(v) % 7 - 3) for v in POOL}
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


def fraction_evaluate(p, point):
    """Reference: the same sum computed with Fraction at every step."""
    total = F(0)
    for mono, coeff in p.sorted_terms():
        val = F(coeff)
        for v, e in mono:
            val *= F(point[v]) ** e
        total += val
    return total


def evaluated_type(p, point):
    """The type ``evaluate`` returns: ``int`` when every term that is not 0
    at the point has an ``int`` coefficient and ``int`` factors, as at any
    ``int`` point of an integer polynomial; else ``Fraction``."""
    for mono, coeff in p.sorted_terms():
        if any(point[v] == 0 for v, _ in mono):
            continue
        if type(coeff) is not int or any(type(point[v]) is not int for v, _ in mono):
            return F
    return int


def integral_exactly_when_int(p):
    return all(
        type(c) in (int, F) and (type(c) is int) == (F(c).denominator == 1)
        for _, c in p.sorted_terms()
    )


class TestIntegerCore:
    def test_parsed_coefficients(self):
        p = parse_polynomial("1/2*x1 + 3*x2")
        coeffs = {var_name(mono[0][0]): c for mono, c in p.sorted_terms()}
        assert coeffs == {"x1": F(1, 2), "x2": 3}
        assert type(coeffs["x1"]) is F and type(coeffs["x2"]) is int

    def test_integral_results_become_int(self):
        half = parse_polynomial("1/2*x1")
        for p in (half + half, half * 2, half * F(4), half * parse_polynomial("2*x2")):
            ((_, c),) = p.sorted_terms()
            assert type(c) is int
        assert type(SparsePolynomial.constant(F(6, 3)).sorted_terms()[0][1]) is int

    def test_strings_and_hashes_unchanged(self):
        as_int = SparsePolynomial({((x_var([1]), 1),): 3})
        as_fraction = SparsePolynomial.__new__(SparsePolynomial)
        as_fraction._terms, as_fraction._hash = {((x_var([1]), 1),): F(3)}, None
        assert as_int == as_fraction and hash(as_int) == hash(as_fraction)
        assert as_int.canonical_str() == as_fraction.canonical_str() == "3*x1"

    @settings(max_examples=80, deadline=None)
    @given(polys(coefficients=RATIONALS), polys(coefficients=RATIONALS), RATIONALS)
    def test_arithmetic_keeps_normal_form(self, p, q, c):
        for r in (p, q, p + q, p - q, p * q, p * c, -p, *lambda_coefficients(p)):
            assert integral_exactly_when_int(r)

    @settings(max_examples=80, deadline=None)
    @given(
        polys(coefficients=RATIONALS),
        st.lists(st.one_of(st.integers(-5, 5), RATIONALS), min_size=len(POOL), max_size=len(POOL)),
    )
    def test_evaluate_matches_fraction_reference(self, p, values):
        point = dict(zip(POOL, values))
        value = p.evaluate(point)
        assert type(value) is evaluated_type(p, point)
        assert value == fraction_evaluate(p, point)

    def test_evaluate_returns_fraction_at_integer_points(self):
        value = parse_polynomial("2*x1*x2 - 1").evaluate({x_var([1]): 3, x_var([2]): F(2)})
        assert type(value) is F and value == 11

    def test_zero_factor_skips_the_rest_of_its_monomial(self):
        p = parse_polynomial("x1*x2")
        assert p.evaluate({x_var([1]): 0}) == 0
        assert p.evaluate({x_var([1]): F(0)}) == 0
        with pytest.raises(IncompletePointError):
            p.evaluate({x_var([2]): 0})  # x1 comes first and is missing
        with pytest.raises(IncompletePointError):
            p.evaluate({x_var([1]): F(1, 2)})
        with pytest.raises(IncompletePointError):
            parse_polynomial("x1*x2 + t1").evaluate({x_var([1]): 0})


class TestCommonDenominator:
    """evaluate is exact at points with ``Fraction`` coordinates."""

    def test_dense_points_many_terms(self):
        rng = random.Random(9)
        pool = POOL + [x_var([1, 3]), u_var(2, 3), t_var(3)]
        for _ in range(300):
            terms = {}
            for _ in range(rng.randint(1, 25)):
                mono = tuple((v, rng.randint(1, 3)) for v in rng.sample(pool, rng.randint(0, 3)))
                if rng.random() < 0.3:
                    terms[mono] = F(rng.randint(-9, 9), rng.randint(1, 6))
                else:
                    terms[mono] = rng.randint(-9, 9)
            p = SparsePolynomial(terms)
            point = {}
            for v in pool:
                kind = rng.random()
                if kind < 0.1:
                    point[v] = 0
                elif kind < 0.3:
                    point[v] = rng.randint(-5, 5) or 1
                else:
                    point[v] = F(rng.randint(-9, 9) or 1, rng.randint(2, 12))
            value = p.evaluate(point)
            assert type(value) is evaluated_type(p, point)
            assert value == fraction_evaluate(p, point)
            # with the Fractions rounded to int, an integer polynomial stays int
            int_p = SparsePolynomial({mono: int(c) for mono, c in p.sorted_terms()})
            int_point = {v: int(c) for v, c in point.items()}
            value = int_p.evaluate(int_point)
            assert type(value) is int
            assert value == fraction_evaluate(int_p, int_point)

    def test_fractions_that_cancel_return_an_integral_fraction(self):
        p = parse_polynomial("x1 + x2 - 2*x1^2")
        value = p.evaluate({x_var([1]): F(1, 2), x_var([2]): F(1, 2)})
        assert type(value) is F and value == 1 - F(1, 2)
        value = parse_polynomial("2*x1*x2").evaluate({x_var([1]): F(1, 2), x_var([2]): F(3)})
        assert type(value) is F and value == 3

    def test_sampled_cell_point(self):
        w = Permutation.from_string("35142")
        eqs = p_polynomials(w)
        for seed in (1, 2):
            plucker_values, psi = sample_point_on_Vw(w, seed)
            point = point_assignment(5, plucker_values, psi)
            assert all(type(v) is int for v in point.values())
            for p in (*eqs.plucker, *eqs.incidence, *eqs.p_equations.values()):
                value = p.evaluate(point)
                assert type(value) is int
                assert value == fraction_evaluate(p, point) == 0
            # off the cell the values are nonzero and still agree, as int at
            # an int point and as Fraction at a Fraction point
            for shift, kind in ((1, int), (F(1, 7), F)):
                moved = {v: c + shift for v, c in point.items()}
                values = [p.evaluate(moved) for p in eqs.p_equations.values()]
                assert any(values)
                assert {type(v) for v in values} == {kind}
                assert values == [fraction_evaluate(p, moved) for p in eqs.p_equations.values()]

    def test_zero_factor_after_a_fraction_factor(self):
        p = parse_polynomial("x1*x2*t1")
        assert p.evaluate({x_var([1]): F(1, 2), x_var([2]): 0}) == 0
        with pytest.raises(IncompletePointError):
            p.evaluate({x_var([1]): F(1, 2), x_var([2]): F(1, 3)})


class TestLambdaCoefficients:
    def test_lambda_free(self):
        p = parse_polynomial("x1*t1 - 2")
        assert lambda_coefficients(p) == [p]

    def test_shifted_product(self):
        lam = SparsePolynomial.variable(LAMBDA)
        t1 = SparsePolynomial.variable(t_var(1))
        t2 = SparsePolynomial.variable(t_var(2))
        coeffs = lambda_coefficients((t1 + lam) * (t2 + lam))
        assert [c.canonical_str() for c in coeffs] == ["t1*t2", "t1 + t2", "1"]

    @settings(max_examples=50, deadline=None)
    @given(polys())
    def test_reconstruction(self, p):
        lam = SparsePolynomial.variable(LAMBDA)
        total = SparsePolynomial.zero()
        power = SparsePolynomial.constant(1)
        for coeff in lambda_coefficients(p):
            assert LAMBDA not in variables(coeff)
            total = total + coeff * power
            power = power * lam
        assert total == p


class TestSymbolicMinor:
    def test_diagonal_minor(self):
        m = symbolic_minor(4, (1, 3), (1, 3))
        assert m.canonical_str() == "t1*t3"
        shifted = symbolic_minor(4, (1, 3), (1, 3), True)
        lam = SparsePolynomial.variable(LAMBDA)
        t1 = SparsePolynomial.variable(t_var(1))
        t3 = SparsePolynomial.variable(t_var(3))
        assert shifted == (t1 + lam) * (t3 + lam)

    def test_rows_not_below_cols_vanishes(self):
        assert not symbolic_minor(4, (2, 3), (1, 3))
        assert not symbolic_minor(3, (3,), (1,))

    def test_documented_2x2(self):
        m = symbolic_minor(3, (1, 2), (2, 3), True)
        # u12*u23 - (t2 + lambda) u13 by direct cofactor expansion
        assert m.canonical_str() == "u12*u23 - u13*t2 - u13*l"

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            symbolic_minor(4, (1, 2), (1, 2, 3))

    @pytest.mark.parametrize(
        "n, shift_lambda",
        [pytest.param(n, False, id=str(n)) for n in (2, 3, 4, 5)]
        + [pytest.param(n, True, id=f"{n}-shifted") for n in (2, 3, 4, 5)],
    )
    def test_matches_numeric_determinant(self, n, shift_lambda):
        """The engine on the generic matrix against the recursive cofactor
        expansion, term for term, and against a Fraction determinant of
        (A + lambda id) on rows x cols, lambda a random integer when shifted
        and 0 otherwise."""
        rng = random.Random(5)
        for d in range(1, n + 1):
            for rows in itertools.combinations(range(1, n + 1), d):
                for cols in itertools.combinations(range(1, n + 1), d):
                    sym = symbolic_minor(n, rows, cols, shift_lambda)
                    assert sym == reference_minor(n, rows, cols, shift_lambda)
                    for _ in range(10):
                        lam = rng.randint(-9, 9) if shift_lambda else 0
                        upper = [
                            [
                                F(rng.randint(-9, 9)) if i <= j else F(0)
                                for j in range(n)
                            ]
                            for i in range(n)
                        ]
                        point = {LAMBDA: F(lam)}
                        for i in range(1, n + 1):
                            point[t_var(i)] = upper[i - 1][i - 1]
                            for j in range(i + 1, n + 1):
                                point[u_var(i, j)] = upper[i - 1][j - 1]
                        numeric = fraction_det(
                            [[upper[r - 1][c - 1] + lam * (r == c) for c in cols] for r in rows]
                        )
                        assert sym.evaluate(point) == numeric


class TestNormalization:
    def test_repeated_indices(self):
        assert normalize_plucker_indices((1, 2, 1)) == (0, None)

    def test_sign_of_sorting(self):
        assert normalize_plucker_indices((2, 1)) == (-1, (1, 2))
        assert normalize_plucker_indices((3, 1, 2)) == (1, (1, 2, 3))
        assert normalize_plucker_indices((1, 3, 2)) == (-1, (1, 2, 3))


class TestSerialization:
    def test_zero(self):
        assert SparsePolynomial.zero().canonical_str() == "0"
        assert not parse_polynomial("0")

    def test_var_names(self):
        assert var_name(x_var([1, 3, 4])) == "x134"
        assert var_name(u_var(2, 5)) == "u25"
        assert var_name(t_var(3)) == "t3"
        assert var_name(LAMBDA) == "l"

    @settings(max_examples=80, deadline=None)
    @given(polys())
    def test_string_round_trip(self, p):
        assert parse_polynomial(p.canonical_str()) == p

    def test_fraction_coefficients_round_trip(self):
        p = SparsePolynomial({((x_var([1]), 1),): F(-3, 2), (): F(1, 7)})
        assert parse_polynomial(p.canonical_str()) == p

    def test_term_order_is_graded_lex(self):
        p = parse_polynomial("x1 + x1^2 + 1 + x1*x2")
        assert p.canonical_str() == "x1^2 + x1*x2 + x1 + 1"
