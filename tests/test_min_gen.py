"""Minimal generating subsystems: E_w, Phi_w, d_w and the reflection length."""

import itertools

import pytest

from weylpairs.mingen import min_gen_subsystem, min_gen_type_A_orbits, reflection_length
from weylpairs.roots import build_named
from weylpairs.weyl import Permutation, ReflectionGroup, SymmetricGroup, symmetric_group

from conftest import all_perms, reference_in_span


def pairs_to_vectors(n, pairs):
    out = []
    for i, j in pairs:
        v = [0] * n
        v[i - 1], v[j - 1] = 1, -1
        out.append(tuple(v))
        out.append(tuple(-c for c in v))
    return tuple(sorted(out))


class TestMinGenSubsystem:
    def test_identity(self, s4):
        sub = min_gen_subsystem(s4, s4.identity)
        assert sub.d_w == 0
        assert sub.phi_w == ()
        assert sub.e_w_basis == ()

    def test_4321(self, s4):
        sub = min_gen_subsystem(s4, Permutation([4, 3, 2, 1]))
        assert sub.d_w == 2
        assert sub.phi_w == pairs_to_vectors(4, [(1, 4), (2, 3)])

    def test_single_reflection(self, s4):
        for key, s in s4.reflections():
            sub = min_gen_subsystem(s4, s)
            assert sub.d_w == 1
            assert sub.phi_w == pairs_to_vectors(4, [key])

    def test_four_cycle_spans_everything(self, s4):
        sub = min_gen_subsystem(s4, Permutation([2, 3, 4, 1]))
        assert sub.d_w == 3
        assert len(sub.phi_w) == 12

    def test_general_group_reflection(self, b2):
        for key, s in b2.reflections():
            sub = min_gen_subsystem(b2, s)
            assert sub.d_w == 1
            root = b2.root_vector(key)
            assert root in sub.phi_w


class TestTypeAOrbits:
    def test_4321_orbits(self):
        orbits, pairs = min_gen_type_A_orbits(Permutation([4, 3, 2, 1]))
        assert orbits == ((1, 4), (2, 3))
        assert pairs == frozenset({(1, 4), (2, 3)})

    def test_identity(self):
        orbits, pairs = min_gen_type_A_orbits(Permutation.identity(4))
        assert orbits == ((1,), (2,), (3,), (4,))
        assert pairs == frozenset()

    def test_four_cycle(self):
        orbits, pairs = min_gen_type_A_orbits(Permutation([2, 3, 4, 1]))
        assert orbits == ((1, 2, 3, 4),)
        assert len(pairs) == 6

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_agrees_with_linear_algebra_route(self, n):
        group = symmetric_group(n)
        for w in all_perms(n):
            _, pairs = min_gen_type_A_orbits(w)
            sub = min_gen_subsystem(group, w)
            assert sub.phi_w == pairs_to_vectors(n, pairs)
            assert sub.d_w == n - len(w.orbits())


class TestReflectionLength:
    def test_identity_and_reflections(self, s4):
        assert reflection_length(s4, s4.identity) == 0
        for _, s in s4.reflections():
            assert reflection_length(s4, s) == 1

    def test_4321_is_two(self, s4):
        assert reflection_length(s4, Permutation([4, 3, 2, 1])) == 2

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_equals_dw_type_a(self, n):
        group = symmetric_group(n)
        for w in all_perms(n):
            assert reflection_length(group, w) == min_gen_subsystem(group, w).d_w

    @pytest.mark.parametrize("group_name", ["b2", "b3", "g2"])
    def test_equals_dw_general(self, group_name, request):
        group = request.getfixturevalue(group_name)
        for w in range(group.size):
            assert reflection_length(group, w) == min_gen_subsystem(group, w).d_w


def _fresh_group(name: str):
    """A new group object, with a search state of its own; the library's
    ``symmetric_group`` and ``reflection_group`` are cached per name."""
    if name.startswith("S"):
        return SymmetricGroup(int(name[1:]))
    return ReflectionGroup(build_named(name))


class TestResumableSearch:
    """reflection_length keeps one breadth-first search per group and grows
    it only as far as a query needs."""

    @pytest.mark.parametrize("name", ["S5", "B3"])
    def test_query_order_does_not_change_answers(self, name):
        elements = _fresh_group(name).elements_by_length()
        # one single query per fresh group: nothing resumed
        expected = {w: reflection_length(_fresh_group(name), w) for w in elements}
        far = max(elements, key=expected.get)
        far_first = _fresh_group(name)
        assert reflection_length(far_first, far) == expected[far]
        assert {w: reflection_length(far_first, w) for w in elements} == expected
        near_first = _fresh_group(name)
        assert {w: reflection_length(near_first, w) for w in reversed(elements)} == expected
        assert reflection_length(near_first, far) == expected[far]

    @pytest.mark.parametrize("name", ["S5", "B3"])
    def test_groups_of_one_type_share_no_state(self, name):
        searched, untouched = _fresh_group(name), _fresh_group(name)
        far = searched.elements_by_length()[-1]
        reflection_length(searched, far)
        assert len(searched._reflection_search[0]) > 1
        assert untouched._reflection_search[0] == {untouched.identity: 0}
        assert list(untouched._reflection_search[1]) == [untouched.identity]
        for mine, theirs in zip(searched._reflection_search, untouched._reflection_search):
            assert mine is not theirs

    @pytest.mark.parametrize("name", ["S4", "B3"])
    def test_unreachable_query_raises_and_the_group_still_answers(self, name):
        group = _fresh_group(name)
        stranger = Permutation.identity(5) if name == "S4" else group.size
        with pytest.raises(ValueError, match="element not reachable"):
            reflection_length(group, stranger)
        for w in group.elements_by_length():
            assert reflection_length(group, w) == min_gen_subsystem(group, w).d_w
        with pytest.raises(ValueError, match="element not reachable"):
            reflection_length(group, stranger)

    @pytest.mark.parametrize("name", ["S5", "B3"])
    def test_each_element_is_expanded_at_most_once(self, name, monkeypatch):
        group = _fresh_group(name)
        calls = 0
        mul = group.mul

        def counted(a, b):
            nonlocal calls
            calls += 1
            return mul(a, b)

        monkeypatch.setattr(group, "mul", counted)
        elements = group.elements_by_length()
        for w in elements[::-1] + elements:
            reflection_length(group, w)
        assert 0 < calls <= len(elements) * len(group.reflections())


class TestIncrementLaw:
    @pytest.mark.parametrize("group_name", ["s4", "b2", "g2"])
    def test_both_sides_exhaustive(self, group_name, request):
        group = request.getfixturevalue(group_name)
        elements = group.elements_by_length()
        refl = group.reflections()
        for w in elements:
            sub = min_gen_subsystem(group, w)
            phi_pos = group.min_gen_positive(w)
            for key, s in refl:
                in_phi = key in phi_pos
                for product in (group.mul(w, s), group.mul(s, w)):
                    d_new = min_gen_subsystem(group, product).d_w
                    if in_phi:
                        assert d_new == sub.d_w - 1
                    else:
                        assert d_new == sub.d_w + 1
                # root outside Phi_w extends E_w by exactly the root's line
                if not in_phi:
                    bigger = min_gen_subsystem(group, group.mul(w, s))
                    root = group.root_vector(key)
                    assert reference_in_span(bigger.e_w_basis, root)
                    for v in sub.e_w_basis:
                        assert reference_in_span(bigger.e_w_basis, v)


class TestLengthBound:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_dw_below_coxeter_length_with_equality_characterization(self, n):
        # equality holds exactly on products of distinct simple reflections
        group = symmetric_group(n)
        gens = {j: group.reflection(group.simple_root_key(j)) for j in group.simple_keys}
        products = set()
        for r in range(0, len(gens) + 1):
            for subset in itertools.permutations(sorted(gens), r):
                w = group.identity
                for j in subset:
                    w = group.mul(w, gens[j])
                products.add(w)
        for w in all_perms(n):
            d_w = min_gen_subsystem(group, w).d_w
            assert d_w <= w.length()
            assert (d_w == w.length()) == (w in products)


class TestStability:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_phi_of_inverse_matches(self, n):
        group = symmetric_group(n)
        for w in all_perms(n):
            assert (
                min_gen_subsystem(group, w).phi_w
                == min_gen_subsystem(group, w.inverse()).phi_w
            )

    def test_w_permutes_its_own_subsystem(self, s4, b2):
        for group, elements in ((s4, all_perms(4)), (b2, range(b2.size))):
            for w in elements:
                phi_pos = group.min_gen_positive(w)
                image = {group.root_image_positive(w, key) for key in phi_pos}
                assert image == set(phi_pos)

    def test_w_stabilizes_e_w(self, s4):
        for w in all_perms(4):
            sub = min_gen_subsystem(s4, w)
            basis = list(sub.e_w_basis)
            for v in basis:
                image = tuple(v[w.inverse()(i + 1) - 1] for i in range(4))
                assert reference_in_span(basis, image)
