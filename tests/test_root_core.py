"""Root systems, exact linear algebra, and the index-subset order."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylpairs.linalg import (
    _integer_rows,
    in_span,
    independent_subset,
    integer_kernel,
    rank,
    scaled_inverse,
)
from weylpairs.roots import (
    CARTAN,
    InvalidRootError,
    NotFiniteTypeError,
    RootSystem,
    build_from_cartan,
    build_type_A,
    subset_leq,
)

from conftest import BENCH_CARTAN, fraction_det, fraction_mat_mul, reference_kernel

F = Fraction


def closure_count(simples, form_dot):
    """Independent reflection-closure oracle on explicit coordinates."""
    def refl(alpha, x):
        c = F(2) * form_dot(x, alpha) / form_dot(alpha, alpha)
        return tuple(xi - c * ai for xi, ai in zip(x, alpha))

    roots = set(simples) | {tuple(-c for c in s) for s in simples}
    frontier = list(roots)
    while frontier:
        new = []
        for x in frontier:
            for alpha in simples:
                y = refl(alpha, x)
                if y not in roots:
                    roots.add(y)
                    new.append(y)
        frontier = new
        assert len(roots) < 1000
    return len(roots)


class TestBuildTypeA:
    def test_a2_roots_and_simples(self):
        system = build_type_A(3)
        assert len(system.roots) == 6
        assert system.simple_roots == (
            (1, -1, 0),
            (0, 1, -1),
        )

    def test_n2_two_roots(self):
        system = build_type_A(2)
        assert set(system.roots) == {(1, -1), (-1, 1)}

    def test_a3_count_matches_enumeration_oracle(self):
        # oracle: direct double loop over ordered index pairs
        n = 4
        expected = sum(1 for i in range(n) for j in range(n) if i != j)
        assert len(build_type_A(n).roots) == expected == 12
        system = build_type_A(n)
        assert sum(1 for r in system.roots if system.is_positive(r)) == 6

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            build_type_A(1)


class TestBuildFromCartan:
    def test_b2_count_matches_closure_oracle(self):
        # explicit B2 realisation: simple roots e1 - e2 and e2 in Q^2
        def dot(x, y):
            return sum(a * b for a, b in zip(x, y))

        oracle = closure_count([(F(1), F(-1)), (F(0), F(1))], dot)
        assert oracle == 8
        assert len(build_from_cartan(CARTAN["B2"]).roots) == 8

    def test_g2_count_matches_closure_oracle(self):
        # rational G2 realisation inside the sum-zero plane of Q^3
        def dot(x, y):
            return sum(a * b for a, b in zip(x, y))

        simples = [
            (F(1), F(-1), F(0)),
            (F(-2), F(1), F(1)),
        ]
        oracle = closure_count(simples, dot)
        assert oracle == 12
        assert len(build_from_cartan(CARTAN["G2"]).roots) == 12

    def test_a2_cartan_consistent_with_type_a(self):
        from_cartan = build_from_cartan(CARTAN["A2"])
        direct = build_type_A(3)
        assert len(from_cartan.roots) == len(direct.roots)
        # all roots of one squared length in both realisations
        norms = {from_cartan.pairing(r, r) for r in from_cartan.roots}
        assert len(norms) == 1
        assert len({direct.pairing(r, r) for r in direct.roots}) == 1

    def test_b3_and_an_counts(self):
        assert len(build_from_cartan(CARTAN["B3"]).roots) == 18
        for n in (3, 4):
            cartan = CARTAN[f"A{n - 1}"]
            assert len(build_from_cartan(cartan).roots) == n * (n - 1)

    def test_affine_matrix_rejected(self):
        with pytest.raises(NotFiniteTypeError):
            build_from_cartan([[2, -2], [-2, 2]])

    def test_malformed_matrices_rejected(self):
        with pytest.raises(ValueError):
            build_from_cartan([[2, 1], [1, 2]])
        with pytest.raises(ValueError):
            build_from_cartan([[1]])


class TestReflect:
    def test_reflection_negates_root(self):
        system = build_type_A(3)
        alpha = (1, -1, 0)
        assert system.reflect(alpha, alpha) == (-1, 1, 0)

    def test_adjacent_simple_roots(self):
        system = build_type_A(3)
        assert system.reflect((1, -1, 0), (0, 1, -1)) == (1, 0, -1)

    def test_orthogonal_vector_fixed(self):
        system = build_type_A(4)
        alpha = (1, -1, 0, 0)
        x = (0, 0, 2, -5)
        assert system.reflect(alpha, x) == x

    def test_isotropic_vector_rejected(self):
        system = build_type_A(3)
        with pytest.raises(InvalidRootError):
            system.reflect((0, 0, 0), (1, -1, 0))

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(build_type_A(4).roots),
        st.tuples(*[st.integers(-6, 6) for _ in range(4)]),
    )
    def test_involution(self, alpha, coords):
        system = build_type_A(4)
        x = coords
        assert system.reflect(alpha, system.reflect(alpha, x)) == x

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(build_type_A(4).roots),
        st.tuples(*[st.integers(-5, 5) for _ in range(4)]),
        st.tuples(*[st.integers(-5, 5) for _ in range(4)]),
    )
    def test_form_invariance(self, alpha, xs, ys):
        system = build_type_A(4)
        x, y = xs, ys
        sx = system.reflect(alpha, x)
        sy = system.reflect(alpha, y)
        assert system.pairing(sx, sy) == system.pairing(x, y)


def _build(name):
    if name.startswith("A"):
        return build_type_A(int(name[1:]) + 1)
    return build_from_cartan({**CARTAN, **BENCH_CARTAN}[name], name=name)


def _all_int(vectors):
    return all(type(c) is int for v in vectors for c in v)


class TestIntegerFormat:
    """Roots, the form, pairings and reflections are ``int``, not merely
    integral: checked with ``type(...) is int``, since a ``Fraction`` would
    compare equal."""

    @pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "G2"])
    def test_roots_form_pairing_and_reflections_are_int(self, name):
        system = _build(name)
        assert _all_int(system.roots)
        assert _all_int(system.simple_roots)
        assert _all_int(system.form)
        for alpha, beta in itertools.product(system.roots, repeat=2):
            assert type(system.pairing(alpha, beta)) is int
            assert _all_int([system.reflect(alpha, beta)])

    @pytest.mark.parametrize("name", ["A2", "A3", "B2", "B3", "B4", "D4", "G2"])
    def test_form_recovers_the_cartan_matrix(self, name):
        cartan = {**CARTAN, **BENCH_CARTAN}[name]
        form = build_from_cartan(cartan).form
        r = len(cartan)
        for i in range(r):
            for j in range(r):
                assert form[i][j] == form[j][i]
                assert 2 * form[i][j] == cartan[i][j] * form[j][j]

    def test_smallest_integer_multiple(self):
        # the rational solution with (alpha_1|alpha_1) = 2 is already integral
        # for B2 and G2; the reversed G2 labelling needs the factor 3
        assert build_from_cartan(CARTAN["B2"]).form == ((2, -1), (-1, 1))
        assert build_from_cartan(CARTAN["G2"]).form == ((2, -3), (-3, 6))
        assert build_from_cartan([[2, -3], [-1, 2]]).form == ((6, -3), (-3, 2))


class TestValidateRejections:
    """``RootSystem`` is public: each check it makes on its input rejects."""

    def test_non_reduced(self):
        with pytest.raises(ValueError, match="non-reduced"):
            RootSystem(rank=1, roots=((-2,), (-1,), (1,), (2,)), simple_roots=((1,),), form=((1,),))

    def test_root_without_its_negative(self):
        with pytest.raises(ValueError, match="not symmetric"):
            RootSystem(
                rank=2, roots=((-1, 0), (0, 1), (1, 0)), simple_roots=((1, 0), (0, 1)),
                form=((1, 0), (0, 1)),
            )

    def test_not_stable(self):
        # {+-e1, +-e2, +-(e1 + e2)}: s_{e1}(e1 + e2) = e2 - e1 is missing
        roots = ((-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0), (1, 1))
        with pytest.raises(ValueError, match="not stable"):
            RootSystem(rank=2, roots=roots, simple_roots=((1, 0), (0, 1)), form=((1, 0), (0, 1)))

    def test_isotropic_root(self):
        with pytest.raises(ValueError, match="isotropic root"):
            RootSystem(
                rank=2, roots=((-1, -1), (1, 1)), simple_roots=((1, 1),), form=((1, 0), (0, -1)),
            )

    def test_fraction_coordinate(self):
        with pytest.raises(ValueError, match="must be int"):
            RootSystem(rank=1, roots=((F(-1),), (F(1),)), simple_roots=((1,),), form=((1,),))
        with pytest.raises(ValueError, match="must be int"):
            RootSystem(rank=1, roots=((-1,), (1,)), simple_roots=((1,),), form=((F(1),),))

    def test_reflecting_a_vector_off_the_lattice(self):
        system = build_type_A(3)
        with pytest.raises(ValueError, match="off the lattice"):
            system.reflect((1, -1, 0), (F(1, 2), 0, 0))


class TestSubsetLeq:
    def test_examples(self):
        assert not subset_leq({1, 3}, {1, 2})
        assert subset_leq({1, 2, 3}, {4, 5, 6})
        assert subset_leq({2, 4}, {2, 4})

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            subset_leq({1}, {1, 2})

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_partial_order_axioms_exhaustive(self, d):
        subsets = list(itertools.combinations(range(1, 7), d))
        for a in subsets:
            assert subset_leq(a, a)
        for a in subsets:
            for b in subsets:
                if subset_leq(a, b) and subset_leq(b, a):
                    assert a == b
                for c in subsets:
                    if subset_leq(a, b) and subset_leq(b, c):
                        assert subset_leq(a, c)


class TestKernel:
    def test_zero_matrix_full_kernel(self):
        m = [[F(0)] * 3 for _ in range(3)]
        basis, _ = integer_kernel(m)
        assert len(basis) == 3

    def test_identity_trivial_kernel(self):
        m = [[F(int(i == j)) for j in range(4)] for i in range(4)]
        assert integer_kernel(m)[0] == []

    def test_w_minus_id_for_4321(self):
        # w = [4321]: columns are e_{w(i)} - e_i
        w = (4, 3, 2, 1)
        m = [[F(0)] * 4 for _ in range(4)]
        for i in range(4):
            m[w[i] - 1][i] += 1
            m[i][i] -= 1
        basis, _ = integer_kernel(m)
        assert len(basis) == 2
        assert rank(m) == 2
        for v in basis:
            out = [sum(m[r][c] * v[c] for c in range(4)) for r in range(4)]
            assert all(x == 0 for x in out)

    def test_kernel_vectors_are_solutions(self):
        m = [
            [F(1), F(2), F(3), F(4)],
            [F(2), F(4), F(6), F(8)],
            [F(1), F(0), F(1), F(0)],
        ]
        basis, _ = integer_kernel(m)
        assert len(basis) == 4 - rank(m)
        for v in basis:
            assert all(
                sum(row[c] * v[c] for c in range(4)) == 0 for row in m
            )

    def test_fractional_entries(self):
        m = [[F(1, 2), F(1, 3)], [F(3), F(2)]]
        assert rank(m) == 1
        (v,), _ = integer_kernel(m)
        assert F(1, 2) * v[0] + F(1, 3) * v[1] == 0


class TestMatrixHelpers:
    def test_in_span_and_independent_subset(self):
        v1, v2 = (F(1), F(0), F(1)), (F(0), F(1), F(1))
        assert in_span([v1, v2], (F(1), F(1), F(2)))
        assert not in_span([v1, v2], (F(0), F(0), F(1)))
        picked = independent_subset([v1, v1, v2, (F(1), F(1), F(2))])
        assert picked == [v1, v2]


def random_entry(rng):
    kind = rng.random()
    if kind < 0.3:
        return F(0)
    if kind < 0.6:
        return F(rng.randint(-6, 6))
    return F(rng.randint(-9, 9), rng.randint(1, 8))


def random_rational_matrices(seed, count):
    """Seeded matrices of every shape up to 7 x 8, with zero rows, repeated
    rows, all-zero matrices and fractional entries among them."""
    rng = random.Random(seed)
    for k in range(count):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 8)
        if k % 10 == 0:
            m = [[F(0)] * ncols for _ in range(nrows)]
        else:
            m = [[random_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
            if k % 3 == 0:
                m.insert(rng.randint(0, nrows), [F(0)] * ncols)
            if k % 4 == 0:
                m.append([2 * x for x in m[rng.randrange(nrows)]])
        yield m, ncols


class TestFractionFreeCore:
    """The Gauss-Jordan core against a textbook Fraction elimination."""

    def test_kernel_and_rank_match_reference(self):
        shapes = set()
        for m, ncols in random_rational_matrices(seed=20, count=600):
            basis, r = reference_kernel(m, ncols)
            numerators, d = integer_kernel(m)
            assert [tuple(F(x, d) for x in v) for v in numerators] == basis
            assert rank(m) == r
            shapes.add((len(m) < ncols, len(m) > ncols, r == 0))
        assert shapes >= {(True, False, False), (False, True, False), (False, False, False)}
        assert any(r0 for _, _, r0 in shapes)

    def test_integer_kernel_is_kernel_basis_over_one_denominator(self):
        for m, ncols in random_rational_matrices(seed=21, count=200):
            numerators, d = integer_kernel(m)
            assert all(type(x) is int for v in numerators for x in v) and type(d) is int
            basis, _ = reference_kernel(m, ncols)
            assert [tuple(F(x, d) for x in v) for v in numerators] == basis

    def test_empty_matrix(self):
        assert integer_kernel([], ncols=2) == ([[1, 0], [0, 1]], 1)
        with pytest.raises(ValueError):
            integer_kernel([])

    def test_integer_rows_mixing_int_and_fraction(self):
        rows = _integer_rows([[1, F(1, 2), F(-2, 3), 0], [3, F(4), -5, F(0)], [F(5, 6), 7, F(1, 4), 2]])
        assert rows == [[6, 3, -4, 0], [3, 4, -5, 0], [10, 84, 3, 24]]
        assert all(type(x) is int for row in rows for x in row)

    def test_inverse_times_matrix_is_identity(self):
        """m A = A m = D I exactly, for the integer A and D of m^{-1} = A / D."""
        rng = random.Random(22)
        tested = singular = 0
        while tested < 60:
            n = rng.randint(1, 6)
            m = [[random_entry(rng) for _ in range(n)] for _ in range(n)]
            if fraction_det(m) == 0:
                with pytest.raises(ValueError, match="singular"):
                    scaled_inverse(m)
                singular += 1
                continue
            a, d = scaled_inverse(m)
            assert d != 0
            assert all(type(x) is int for row in a for x in row)
            scaled_identity = [[F(d * int(i == j)) for j in range(n)] for i in range(n)]
            assert fraction_mat_mul(m, a) == scaled_identity
            assert fraction_mat_mul(a, m) == scaled_identity
            tested += 1
        assert singular > 0

    def test_scaled_inverse_of_integer_matrix_is_adjugate(self):
        m = [[2, 1, 0], [0, 1, 3], [1, 0, 1]]
        a, d = scaled_inverse(m)
        assert abs(d) == abs(fraction_det(m)) == 5
        sign = 1 if d == fraction_det(m) else -1
        assert [[sign * x for x in row] for row in a] == [[1, -1, 3], [3, 2, -6], [-1, 1, 2]]

    def test_singular_and_non_square_inverse(self):
        with pytest.raises(ValueError, match="singular"):
            scaled_inverse([[F(1), F(2)], [F(2), F(4)]])
        with pytest.raises(ValueError, match="singular"):
            scaled_inverse([[0, 0], [0, 0]])
        with pytest.raises(ValueError, match="non-square"):
            scaled_inverse([[F(1), F(2)]])
        with pytest.raises(ValueError, match="non-square"):
            scaled_inverse([[1, 2], [3]])
