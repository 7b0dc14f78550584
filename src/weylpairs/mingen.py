"""Minimal generating root subsystems.

For w in a Weyl group, E_w = im(w - id) and Phi_w = Phi ∩ E_w.  The dimension
d_w of E_w equals the word length of w over the alphabet of *all* reflections;
:func:`reflection_length` computes that length independently by breadth-first
search on the Cayley graph, so the two routes cross-check each other.  The
search is kept on the group and grows on demand: a query expands elements,
in breadth-first order, only until it reaches its own, so every query on one
group shares a single BFS, whose memory is one entry per reached element, at
most |W|.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Vector, independent_subset
from .weyl import Permutation, _positive_in_span, symmetric_group


@dataclass(frozen=True)
class MinGenSubsystem:
    """E_w basis, the roots lying inside it, and d_w = dim E_w."""

    e_w_basis: tuple[Vector, ...]
    phi_w: tuple[Vector, ...]

    @property
    def d_w(self) -> int:
        return len(self.e_w_basis)


def min_gen_subsystem(group, w) -> MinGenSubsystem:
    """Compute E_w as the span of (w - id) applied to a spanning basis, then
    collect the roots contained in it."""
    basis = independent_subset(group.action_span_vectors(w))
    pos = [group.root_vector(p) for p in _positive_in_span(group, basis)]
    phi = sorted([*pos, *(tuple(-c for c in v) for v in pos)])
    return MinGenSubsystem(e_w_basis=tuple(basis), phi_w=tuple(phi))


def min_gen_type_A_orbits(w: Permutation):
    """Cycle description in type A: the orbits of w on {1..n} determine Phi_w
    as all differences e_i - e_j within a common orbit.

    Returns (orbits, positive pairs); must agree with the linear-algebra route.
    """
    return w.orbits(), symmetric_group(w.n).min_gen_positive(w)


def reflection_length(group, w) -> int:
    """BFS distance from the identity to w over all reflections.

    Independent oracle for d_w; makes no use of E_w.  The search is kept on
    the group (``group._reflection_search``) and resumes where the last
    query stopped, so all queries on one group share one BFS; it holds one
    entry per reached element, at most |W|.
    """
    dist, queue, refl = group._reflection_search
    while w not in dist:
        if not queue:
            raise ValueError("element not reachable; groups disagree")
        u = queue.popleft()
        d = dist[u] + 1
        for s in refl:
            v = group.mul(s, u)
            if v not in dist:
                dist[v] = d
                queue.append(v)
    return dist[w]
