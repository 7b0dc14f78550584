"""Group elements, length, Bruhat order, and parabolic machinery."""

import itertools
import random
from pathlib import Path

import pytest

from weylpairs.linalg import in_span
from weylpairs.weyl import (
    SIZE_LIMITS,
    Permutation,
    check_size,
    standardize_subsystem,
    symmetric_group,
)

from conftest import (
    all_perms,
    bruhat_closure_oracle,
    longest_element,
    reference_box_count,
    reference_bruhat_leq,
)


class TestPermutationBasics:
    def test_string_round_trip(self):
        w = Permutation.from_string("4231")
        assert w.to_string() == "4231"
        assert w.one_line == (4, 2, 3, 1)
        big = Permutation.from_string("10,3,1,2,4,5,6,7,8,9")
        assert big.to_string() == "10,3,1,2,4,5,6,7,8,9"

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Permutation([1, 1, 2])

    @pytest.mark.parametrize(
        "values", [[1.9, 2.2], [1.0, 2.0], ["2", "1"], ["1", 2], [True, 2], [2, True]]
    )
    def test_rejects_entries_that_are_not_int(self, values):
        with pytest.raises(ValueError, match="not a permutation"):
            Permutation(values)

    @pytest.mark.parametrize("text", ["", "   "])
    def test_rejects_empty_string(self, text):
        with pytest.raises(ValueError, match="empty permutation"):
            Permutation.from_string(text)

    def test_mul_and_inverse(self):
        w = Permutation.from_string("231")
        assert (w * w.inverse()) == Permutation.identity(3)
        assert (w * w * w) == Permutation.identity(3)

    def test_orbits(self):
        assert Permutation([4, 3, 2, 1]).orbits() == ((1, 4), (2, 3))
        assert Permutation([2, 3, 4, 1]).orbits() == ((1, 2, 3, 4),)


class TestUncheckedResults:
    """Products, inverses and adjacent swaps skip the constructor's check;
    each must equal the validated permutation of the same one-line tuple."""

    @staticmethod
    def assert_validated(w, one_line):
        v = Permutation(one_line)
        assert type(w) is Permutation and type(w.one_line) is tuple
        assert w == v and w.one_line == v.one_line and hash(w) == hash(v)

    def test_products_and_inverses_on_s4(self):
        perms = all_perms(4)
        for a in perms:
            self.assert_validated(a.inverse(), [a.one_line.index(i) + 1 for i in range(1, 5)])
            for b in perms:
                self.assert_validated(a * b, [a(b(i)) for i in range(1, 5)])

    def test_adjacent_swaps_on_s4(self, s4):
        for a in all_perms(4):
            for j in s4.simple_keys:
                v = list(a.one_line)
                v[j - 1], v[j] = v[j], v[j - 1]
                self.assert_validated(s4._right_mul_simple(a, j), v)

    def test_product_of_different_ranks_raises(self):
        with pytest.raises(ValueError, match="different ranks"):
            Permutation.identity(3) * Permutation.identity(4)


class TestSizePolicy:
    def test_ranges(self):
        for family, (maximum, _) in SIZE_LIMITS.items():
            check_size(family, 2, allow_large=True)
            check_size(family, maximum, allow_large=True)
            for n in (1, maximum + 1):
                with pytest.raises(ValueError, match=f"^{family} supports 2 <= n <= {maximum}$"):
                    check_size(family, n, allow_large=True)

    def test_opt_in(self):
        check_size("enumeration", 6)
        with pytest.raises(ValueError, match="^n = 7 enumerates 25401600 ordered pairs; "):
            check_size("enumeration", 7)
        check_size("enumeration", 7, allow_large=True)

    def test_readme_limits_match_the_table(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = " ".join(readme.read_text().split())
        enum_max, enum_large = SIZE_LIMITS["enumeration"]
        eq_max, eq_large = SIZE_LIMITS["equation generation"]
        assert enum_large == enum_max
        assert (
            f"`n = {enum_max}` enumeration and pattern verification are supported "
            "behind `--allow-large`" in text
        )
        assert eq_large is None
        assert f"Equation generation is capped at `n <= {eq_max}`" in text
        assert f"take no `--allow-large` and stop at `n = {eq_max}`" in text
        group_max, group_large = SIZE_LIMITS["group construction"]
        assert group_large is None
        assert f"Group construction is capped at `n <= {group_max}`" in text
        assert f"`pair classify --n` above {group_max} with `--criteria chain`" in text
        assert (
            "`pair classify` with `--criteria chain`, `parabolic` or `all` stops at "
            f"`n = {group_max}`, while `orbit` and `flatten` answer at any n" in text
        )


class TestLength:
    def test_identity(self):
        assert Permutation.identity(5).length() == 0

    def test_4231_inversion_oracle(self):
        w = (4, 2, 3, 1)
        oracle = sum(
            1
            for i in range(4)
            for j in range(i + 1, 4)
            if w[i] > w[j]
        )
        assert Permutation(w).length() == oracle == 5

    def test_longest_element_length_is_positive_root_count(self, s4, b2, b3, g2):
        w0 = longest_element(s4)
        assert s4.length(w0) == len(s4.positive_keys) == 6
        for group in (b2, b3, g2):
            assert group.length(longest_element(group)) == len(group.positive_keys)

    def test_word_length_oracle_via_generator_bfs(self, s4):
        # independent length oracle: BFS distance over simple generators
        dist = {s4.identity: 0}
        frontier = [s4.identity]
        gens = [s4.reflection(s4.simple_root_key(j)) for j in s4.simple_keys]
        while frontier:
            nxt = []
            for u in frontier:
                for s in gens:
                    v = s4.mul(u, s)
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        for w in all_perms(4):
            assert w.length() == dist[w]

    def test_reflection_flips_length_parity(self, s4):
        for w in all_perms(4):
            for _, s in s4.reflections():
                assert (s4.length(s4.mul(w, s)) - w.length()) % 2 == 1

    def test_general_length_counts_negated_positive_roots(self, b2, b3, g2):
        for group in (b2, b3, g2):
            pos = set(group.positive_keys)
            for w in range(group.size):
                table = group.tables[w]
                negated = sum(1 for p in group.positive_keys if table[p] not in pos)
                assert group.length(w) == negated

    def test_general_reflection_flips_length_parity(self, b3):
        for w in range(b3.size):
            for _, s in b3.reflections():
                assert (b3.length(b3.mul(w, s)) - b3.length(w)) % 2 == 1


class TestBruhat:
    def test_identity_below_everything(self, s4):
        e = Permutation.identity(4)
        assert all(e.bruhat_leq(w) for w in all_perms(4))

    def test_listed_examples(self):
        assert Permutation.from_string("1324").bruhat_leq(Permutation.from_string("4231"))
        assert not Permutation.from_string("2134").bruhat_leq(
            Permutation.from_string("1342")
        )

    def test_box_count_definition_agreement(self):
        # the packed box counts must match the raw box-count definition
        for w1 in all_perms(4):
            for w2 in all_perms(4):
                boxes = all(
                    reference_box_count(w1, i, j) <= reference_box_count(w2, i, j)
                    for i in range(1, 5)
                    for j in range(1, 5)
                )
                assert w1.bruhat_leq(w2) == boxes

    @pytest.mark.parametrize("n", [8, 16, 17, 40])
    def test_matches_sorted_prefix_criterion(self, n):
        # n = 16 fills a 5-bit field, n = 17 is the first with 6 bits; a
        # random permutation and one two transpositions away are often
        # comparable, in either order
        rng = random.Random(n)
        for _ in range(300):
            t1 = rng.sample(range(1, n + 1), n)
            t2 = list(t1)
            for _ in range(2):
                i, j = rng.sample(range(n), 2)
                t2[i], t2[j] = t2[j], t2[i]
            w1, w2 = Permutation(t1), Permutation(t2)
            assert w1.bruhat_leq(w2) == reference_bruhat_leq(w1.one_line, w2.one_line)
            assert w2.bruhat_leq(w1) == reference_bruhat_leq(w2.one_line, w1.one_line)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_type_a_matches_closure_oracle(self, n):
        group = symmetric_group(n)
        below = bruhat_closure_oracle(group)
        for u in all_perms(n):
            for w in all_perms(n):
                assert group.bruhat_leq(u, w) == (w in below[u])

    def test_b2_g2_match_closure_oracle(self, b2, g2):
        for group in (b2, g2):
            below = bruhat_closure_oracle(group)
            for u in range(group.size):
                for w in range(group.size):
                    assert group.bruhat_leq(u, w) == (w in below[u])


class TestReflections:
    def test_counts(self, s3, b2, b3):
        assert len(s3.reflections()) == 3
        assert len(b2.reflections()) == 4
        assert len(b3.reflections()) == 9

    def test_type_a_reflections_are_transpositions(self, s4):
        assert len(s4.reflections()) == 6
        for (i, j), s in s4.reflections():
            assert s(i) == j and s(j) == i
            assert all(s(k) == k for k in range(1, 5) if k not in (i, j))

    def test_general_reflections_are_involutions(self, b3):
        for key, s in b3.reflections():
            assert b3.mul(s, s) == b3.identity
            assert b3.length(s) % 2 == 1


class TestParabolic:
    def test_element_of_wj_decomposes_trivially(self, s4):
        w = Permutation.from_string("2134")  # s_1 lies in W_{1}
        coset_min, w_j = s4.parabolic_decompose(w, [1])
        assert coset_min == s4.identity
        assert w_j == w

    def test_empty_j(self, s4):
        w = Permutation.from_string("4231")
        coset_min, w_j = s4.parabolic_decompose(w, [])
        assert coset_min == w
        assert w_j == s4.identity

    def test_4231_with_j1_length_additive(self, s4):
        w = Permutation.from_string("4231")
        coset_min, w_j = s4.parabolic_decompose(w, [1])
        assert s4.mul(coset_min, w_j) == w
        assert coset_min.length() + w_j.length() == w.length()
        # oracle: the minimal representative over the whole coset w W_J
        coset = {s4.mul(w, u) for u in [s4.identity, s4.reflection((1, 2))]}
        assert coset_min == min(coset, key=lambda v: v.length())

    @pytest.mark.parametrize("group_name", ["s4", "b2", "g2"])
    def test_length_additivity_exhaustive(self, group_name, request):
        group = request.getfixturevalue(group_name)
        elements = group.elements_by_length()
        keys = list(group.simple_keys)
        for r in range(len(keys) + 1):
            for j_set in itertools.combinations(keys, r):
                for w in elements:
                    coset_min, w_j = group.parabolic_decompose(w, j_set)
                    assert group.mul(coset_min, w_j) == w
                    assert group.length(coset_min) + group.length(w_j) == group.length(w)
                    assert group.in_parabolic(w_j, j_set)
                    for j in j_set:
                        assert not group.right_descends(coset_min, j)

    def test_ascent_transport_through_cosets(self, s4):
        """Multiplying by a parabolic reflection ascends inside W_J iff the
        transported element ascends in the full group."""
        group = s4
        keys = list(group.simple_keys)
        for r in range(1, len(keys) + 1):
            for j_set in itertools.combinations(keys, r):
                wj_elements = [
                    w for w in group.elements_by_length() if group.in_parabolic(w, j_set)
                ]
                coset_min_reps = [
                    w
                    for w in group.elements_by_length()
                    if all(not group.right_descends(w, j) for j in j_set)
                ]
                refl_j = [
                    (key, s)
                    for key, s in group.reflections()
                    if group.in_parabolic(s, j_set)
                ]
                for u in coset_min_reps:
                    for v in coset_min_reps:
                        v_inv = group.inv(v)
                        for w_j in wj_elements:
                            inner = group.mul(group.mul(u, w_j), v_inv)
                            for _, s in refl_j:
                                lhs = group.length(group.mul(s, w_j)) > group.length(w_j)
                                outer = group.mul(group.mul(u, group.mul(s, w_j)), v_inv)
                                rhs = group.length(outer) > group.length(inner)
                                assert lhs == rhs


class TestStandardize:
    def test_standard_positive_is_the_span_of_J(self):
        # type A's interval rule against its definition, roots in span(alpha_j, j in J)
        group = symmetric_group(5)
        for r in range(len(group.simple_keys) + 1):
            for J in itertools.combinations(group.simple_keys, r):
                basis = [group.root_vector(group.simple_root_key(j)) for j in J]
                expected = {
                    p for p in group.positive_keys if in_span(basis, group.root_vector(p))
                }
                assert group.standard_positive(J) == expected

    def test_empty_set(self, s4):
        u, j_set = standardize_subsystem(s4, frozenset())
        assert u == s4.identity and j_set == frozenset()

    def test_full_system(self, s4):
        u, j_set = standardize_subsystem(s4, frozenset(s4.positive_keys))
        assert u == s4.identity
        assert j_set == frozenset(s4.simple_keys)

    def test_4321_subsystem(self, s4):
        phi = s4.min_gen_positive(Permutation([4, 3, 2, 1]))
        u, j_set = standardize_subsystem(s4, phi)
        assert len(j_set) == 2
        image = frozenset(s4.root_image_positive(u, s4.simple_root_key(j)) for j in j_set)
        # u maps the standard subsystem onto phi
        mapped = frozenset(
            s4.root_image_positive(u, key) for key in s4.standard_positive(j_set)
        )
        assert mapped == phi
        assert image <= phi
        # u is the minimal-length coset representative
        coset_min, _ = s4.parabolic_decompose(u, j_set)
        assert coset_min == u

    def test_every_mingen_subsystem_standardizes(self, s5):
        for w in all_perms(5):
            phi = s5.min_gen_positive(w)
            u, j_set = standardize_subsystem(s5, phi)
            mapped = frozenset(
                s5.root_image_positive(u, key) for key in s5.standard_positive(j_set)
            )
            assert mapped == phi

    def test_general_group(self, b3):
        for w in range(b3.size):
            phi = b3.min_gen_positive(w)
            u, j_set = standardize_subsystem(b3, phi)
            mapped = frozenset(
                b3.root_image_positive(u, key) for key in b3.standard_positive(j_set)
            )
            assert mapped == phi
