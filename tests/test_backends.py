"""The permutation backend and the root-table backend must agree on type A.

Builds the rank-3 system from its Cartan matrix, matches each permutation of
S4 with the group element acting the same way on roots, and compares length,
Bruhat order, minimal generating subsystems, and both generic pair criteria
across the two implementations.
"""

from fractions import Fraction

from weylpairs.mingen import min_gen_subsystem
from weylpairs.pairs import is_good_chain, is_good_parabolic
from weylpairs.roots import CARTAN, build_from_cartan
from weylpairs.weyl import Permutation, ReflectionGroup, reflection_group, symmetric_group

from conftest import BENCH_CARTAN, all_perms

F = Fraction


def _type_a_root_in_simple_coords(i, j, rank):
    """e_i - e_j (i < j) as a sum of consecutive simple roots."""
    coords = [F(0)] * rank
    for k in range(i, j):
        coords[k - 1] = F(1)
    return tuple(coords)


def _matching_element(rg, w: Permutation):
    """The root-table element acting like w on every root e_i - e_j."""
    rank = len(rg.system.simple_roots)
    table = []
    for root in rg.root_vectors:
        # decode the root as a signed pair (i, j)
        support = [k + 1 for k, c in enumerate(root) if c != 0]
        sign = 1 if root[support[0] - 1] > 0 else -1
        i, j = support[0], support[-1] + 1
        a, b = w(i), w(j)
        if a > b:
            a, b = b, a
            sign = -sign
        image = tuple(
            sign * c for c in _type_a_root_in_simple_coords(a, b, rank)
        )
        table.append(rg._ridx[image])
    return rg.index[tuple(table)]


def test_backends_agree_on_s4():
    sg = symmetric_group(4)
    rg = ReflectionGroup(build_from_cartan(CARTAN["A3"]))
    perms = all_perms(4)
    to_rg = {w: _matching_element(rg, w) for w in perms}
    # the matching is a group isomorphism
    for u in perms:
        for v in perms:
            assert to_rg[u * v] == rg.mul(to_rg[u], to_rg[v])
    for w in perms:
        assert sg.length(w) == rg.length(to_rg[w])
        assert min_gen_subsystem(sg, w).d_w == min_gen_subsystem(rg, to_rg[w]).d_w
    for u in perms:
        for v in perms:
            assert sg.bruhat_leq(u, v) == rg.bruhat_leq(to_rg[u], to_rg[v])
    for u in perms:
        for v in perms:
            assert (
                is_good_chain(sg, u, v).verdict
                == is_good_chain(rg, to_rg[u], to_rg[v]).verdict
            )
            assert (
                is_good_parabolic(sg, u, v).verdict
                == is_good_parabolic(rg, to_rg[u], to_rg[v]).verdict
            )


def test_both_backends_build_int_vectors():
    """Root vectors, w - id images and E_w / Phi_w are ``int`` on both
    backends (``type`` is checked, since a ``Fraction`` compares equal)."""
    d4 = ReflectionGroup(build_from_cartan(BENCH_CARTAN["D4"]))
    b3 = reflection_group("B3")
    cases = [(symmetric_group(4), all_perms(4)), (b3, range(b3.size)), (d4, range(d4.size))]
    for group, elements in cases:
        vectors = [group.root_vector(key) for key in group.positive_keys]
        for w in elements:
            sub = min_gen_subsystem(group, w)
            vectors += [*group.action_span_vectors(w), *sub.e_w_basis, *sub.phi_w]
        assert all(type(c) is int for v in vectors for c in v)
