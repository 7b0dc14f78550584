"""Weyl group elements, length, Bruhat order and parabolic machinery.

Two interchangeable group backends expose the same operations:

* :class:`SymmetricGroup` — type A.  Elements are :class:`Permutation` values
  in one-line notation; positive roots are the index pairs ``(i, j)`` with
  ``i < j`` standing for ``e_i - e_j``; Bruhat order uses the box-count
  criterion (u <= w iff u[i,j] <= w[i,j] for every box), on the counts
  packed into one integer per permutation by ``_bruhat_key``.

* :class:`ReflectionGroup` — any finite :class:`~weylpairs.roots.RootSystem`.
  Elements are indices into the generated group; each element is stored as
  the permutation it induces on the root list, so composition is table
  lookup.  Bruhat order reads one lower-ideal bitset per element, built on
  demand from the right-multiplication table by the lifting property.
  Its Phi_w, Phi_J and ``mingen.min_gen_subsystem`` read one span test,
  ``_positive_in_span``: one integer kernel per subspace.

Both provide: ``identity``, ``mul``, ``inv``, ``length``, ``bruhat_leq``,
``reflections``, ``min_gen_positive`` (positive roots of the minimal
generating subsystem), ``parabolic_decompose`` and the simple-root bookkeeping
that :func:`standardize_subsystem` needs.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from functools import lru_cache
from operator import itemgetter
from typing import Callable

from .linalg import Vector, span_mask
from .roots import RootSystem, build_named, canonical_name


class InternalInvariantError(RuntimeError):
    """A structural guarantee failed; indicates a bug, not a math outcome."""


# For each family of n-bounded operations: the largest n it supports, and the
# n from which it runs only with allow_large (CLI --allow-large), or None.
# Group construction lists all n! elements (the chain and parabolic criteria):
# peak RSS 31 MB at n = 8 and 152 MB at n = 9, and n = 10 fails under 1 GB.
# reflection_group("A<n-1>") too: A8 (n = 9) took 11 s at 293 MB peak RSS (one
# run, shared 2-core Intel Xeon, CPython 3.11.7), about ten times more per letter.
SIZE_LIMITS = {
    "enumeration": (7, 7),
    "equation generation": (6, None),
    "group construction": (9, None),
}


def check_size(family: str, n: int, allow_large: bool = False) -> None:
    """Reject an n outside 2 <= n <= the family's maximum, or an n at or past
    its opt-in threshold without ``allow_large``."""
    maximum, large = SIZE_LIMITS[family]
    if not 2 <= n <= maximum:
        raise ValueError(f"{family} supports 2 <= n <= {maximum}")
    if large is not None and n >= large and not allow_large:
        raise ValueError(
            f"n = {n} enumerates {math.factorial(n) ** 2} ordered pairs; "
            "pass allow_large=True (CLI: --allow-large) to proceed"
        )


OneLine = tuple[int, ...]


@lru_cache(maxsize=None)
def _inversions(values: OneLine) -> int:
    return sum(1 for a, b in itertools.combinations(values, 2) if a > b)


# Packed box counts.  The box count w[i,j] = |{a <= i : w(a) >= j}| of the
# Bruhat criterion varies only for i < n and j > 1, where it is at most
# n - 1, so a field of (n - 1).bit_length() + 1 bits holds it under a guard
# bit.  For U and W packed in such fields and H their guard bits,
# ((W | H) - U) & H == H iff no field of U exceeds its field of W: guard +
# w - u stays >= 1 in every field, so no borrow crosses into the next one
# (SWAR, Lamport, CACM 1975).

@lru_cache(maxsize=None)
def _prefix_fields(t: OneLine) -> tuple[tuple[int, ...], Callable[[tuple], tuple], int]:
    """Packed box counts of the one-line tuple t of S_n, in n - 1 fields:
    ``fields[v]`` has a 1 in every field p >= pos_t(v) - 1, so field p of
    a sum of them counts the values at positions <= p + 1.  Returns the
    fields, a map from u to the one-line tuple of u t^{-1} (an itemgetter;
    ``tuple`` in S_1, where one index would return the item) and the guard
    mask of the n - 1 fields."""
    n = len(t)
    width = (n - 1).bit_length() + 1
    ones = sum(1 << width * p for p in range(n - 1))
    inverse = sorted(range(n), key=t.__getitem__)
    fields = (0, *(ones >> width * idx << width * idx for idx in inverse))
    return fields, (itemgetter(*inverse) if n > 1 else tuple), ones << width - 1


@lru_cache(maxsize=None)
def _bruhat_key(t: OneLine) -> tuple[int, int]:
    """(K | H, H): the box counts t[i,j] for 1 <= i <= n - 1 and 2 <= j <= n
    as one integer K, one block of ``_prefix_fields`` per j holding the sum
    of the fields of the values >= j, with the guard bits H of its fields
    set; and H.  For u, w of one S_n, u <= w iff ((K_w | H) - K_u) & H == H."""
    fields, _, guard = _prefix_fields(t)
    block = guard.bit_length()  # the top guard bit ends the last field
    key = mask = above = 0
    for v in range(len(t), 1, -1):
        above += fields[v]
        key = key << block | above
        mask = mask << block | guard
    return key | mask, mask


def _one_line_leq(t1: OneLine, t2: OneLine) -> bool:
    """Whether t1 <= t2 in Bruhat order, for one-line tuples of one S_n."""
    (guarded1, guard), (guarded2, _) = _bruhat_key(t1), _bruhat_key(t2)
    return (guarded2 - (guarded1 ^ guard)) & guard == guard


@lru_cache(maxsize=None)
def _cycles(values: OneLine) -> tuple[tuple[int, ...], ...]:
    n = len(values)
    seen = [False] * n
    orbs = []
    for s in range(1, n + 1):
        if seen[s - 1]:
            continue
        orb = []
        c = s
        while not seen[c - 1]:
            seen[c - 1] = True
            orb.append(c)
            c = values[c - 1]
        orbs.append(tuple(sorted(orb)))
    return tuple(orbs)


class Permutation:
    """A permutation of {1..n} in one-line notation, acting by w(e_i) = e_{w(i)}.

    >>> w = Permutation.from_string("4231")
    >>> w(1), w.length(), w.orbits()
    (4, 5, ((1, 4), (2,), (3,)))
    >>> (w * w.inverse()) == Permutation.identity(4)
    True
    >>> Permutation.from_string("1324").bruhat_leq(w)
    True
    """

    __slots__ = ("one_line",)

    def __init__(self, values):
        v = tuple(values)
        if any(type(x) is not int for x in v) or sorted(v) != list(range(1, len(v) + 1)):
            raise ValueError(f"not a permutation of 1..{len(v)}: {v}")
        self.one_line = v

    @classmethod
    def _of(cls, one_line: tuple[int, ...]) -> "Permutation":
        """Wrap a tuple that is a permutation by construction (a product,
        inverse or adjacent swap of valid ones) without re-checking it."""
        w = object.__new__(cls)
        w.one_line = one_line
        return w

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        v = list(range(1, n + 1))
        v[i - 1], v[j - 1] = j, i
        return cls(v)

    @classmethod
    def from_string(cls, s: str) -> "Permutation":
        s = s.strip()
        if not s:
            raise ValueError("empty permutation")
        if "," in s:
            return cls(int(tok) for tok in s.split(","))
        return cls(int(ch) for ch in s)

    def to_string(self) -> str:
        if self.n < 10:
            return "".join(str(v) for v in self.one_line)
        return ",".join(str(v) for v in self.one_line)

    @property
    def n(self) -> int:
        return len(self.one_line)

    def __call__(self, i: int) -> int:
        return self.one_line[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        mine, theirs = self.one_line, other.one_line
        if len(mine) != len(theirs):
            raise ValueError("product of permutations of different ranks")
        return Permutation._of(tuple(mine[t - 1] for t in theirs))

    def inverse(self) -> "Permutation":
        out = [0] * self.n
        for pos, val in enumerate(self.one_line):
            out[val - 1] = pos + 1
        return Permutation._of(tuple(out))

    def length(self) -> int:
        return _inversions(self.one_line)

    def bruhat_leq(self, other: "Permutation") -> bool:
        """Box-count criterion on the packed counts of ``_bruhat_key``."""
        if self.n != other.n:
            raise ValueError("Bruhat comparison across different ranks")
        return _one_line_leq(self.one_line, other.one_line)

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Cycles of the action on {1..n}, each sorted, ordered by minimum."""
        return _cycles(self.one_line)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.one_line == other.one_line

    def __hash__(self) -> int:
        return hash(self.one_line)

    def __repr__(self) -> str:
        return f"Permutation({list(self.one_line)})"


# Methods both backends share, written once on top of each backend's
# reflection, right_descends and _right_mul_simple.  Each class body assigns
# them rather than inheriting them, so they stay in the class's own __dict__,
# where bench/tracing.py looks for the methods it wraps.

def _reflections(group) -> list:
    return [(key, group.reflection(key)) for key in group.positive_keys]


def _reflection_search(group) -> tuple:
    """State of mingen.reflection_length's breadth-first search from the
    identity over all reflections: the distance of every element reached so
    far, the queue of reached elements not yet expanded, and the reflections."""
    return {group.identity: 0}, deque([group.identity]), [s for _, s in group.reflections()]


def _parabolic_decompose(group, w, J) -> tuple:
    """w = w^J * w_J with w^J of minimal length in w W_J; length-additive."""
    j_list = sorted(set(J))
    cur = w
    word: list[int] = []
    while True:
        for j in j_list:
            if group.right_descends(cur, j):
                cur = group._right_mul_simple(cur, j)
                word.append(j)
                break
        else:
            break
    wj = group.identity
    for j in reversed(word):
        wj = group._right_mul_simple(wj, j)
    return cur, wj


def _in_parabolic(group, w, J) -> bool:
    coset_min, _ = group.parabolic_decompose(w, J)
    return coset_min == group.identity


def _positive_in_span(group, vectors) -> frozenset:
    """Positive root keys of the group whose roots lie in the span of the
    vectors, by one ``span_mask`` for the whole subspace."""
    keys = group.positive_keys
    roots = [group.root_vector(p) for p in keys]
    return frozenset(itertools.compress(keys, span_mask(vectors, roots)))


class SymmetricGroup:
    """Type-A backend; root keys are pairs (i, j) with i < j for e_i - e_j."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need n >= 1")
        self.n = n
        self.identity = Permutation.identity(n)
        self.simple_keys = tuple(range(1, n))
        self._elements_by_length: list[Permutation] | None = None
        self._standardize_cache: dict[frozenset, tuple[Permutation, frozenset]] = {}
        self._reflection_search = _reflection_search(self)

    # -- group operations ---------------------------------------------------
    def mul(self, a: Permutation, b: Permutation) -> Permutation:
        return a * b

    def inv(self, a: Permutation) -> Permutation:
        return a.inverse()

    def length(self, a: Permutation) -> int:
        return a.length()

    def bruhat_leq(self, a: Permutation, b: Permutation) -> bool:
        return a.bruhat_leq(b)

    def elements_by_length(self) -> list[Permutation]:
        if self._elements_by_length is None:
            perms = [Permutation(p) for p in itertools.permutations(range(1, self.n + 1))]
            perms.sort(key=lambda w: (w.length(), w.one_line))
            self._elements_by_length = perms
        return self._elements_by_length

    # -- roots and reflections ----------------------------------------------
    @property
    def positive_keys(self) -> list[tuple[int, int]]:
        return list(itertools.combinations(range(1, self.n + 1), 2))

    def reflection(self, key: tuple[int, int]) -> Permutation:
        i, j = key
        return Permutation.transposition(self.n, i, j)

    reflections = _reflections

    def simple_root_key(self, j: int) -> tuple[int, int]:
        return (j, j + 1)

    def root_vector(self, key: tuple[int, int]) -> Vector:
        i, j = key
        v = [0] * self.n
        v[i - 1], v[j - 1] = 1, -1
        return tuple(v)

    def root_image_positive(self, w: Permutation, key: tuple[int, int]) -> tuple[int, int]:
        a, b = w(key[0]), w(key[1])
        return (a, b) if a < b else (b, a)

    def min_gen_positive(self, w: Permutation) -> frozenset[tuple[int, int]]:
        """Positive roots of the minimal generating subsystem: pairs inside a
        common cycle of w."""
        out = []
        for orb in w.orbits():
            out.extend(itertools.combinations(orb, 2))
        return frozenset(out)

    def standard_positive(self, J) -> frozenset[tuple[int, int]]:
        """Positive roots of the standard subsystem spanned by simple roots J:
        e_i - e_j lies in it iff every simple root i .. j-1 is in J."""
        j_set = set(J)
        return frozenset(
            (i, j) for i, j in self.positive_keys if j_set.issuperset(range(i, j))
        )

    # -- parabolic machinery --------------------------------------------------
    def right_descends(self, w: Permutation, j: int) -> bool:
        return w(j) > w(j + 1)

    def _right_mul_simple(self, w: Permutation, j: int) -> Permutation:
        v = list(w.one_line)
        v[j - 1], v[j] = v[j], v[j - 1]
        return Permutation._of(tuple(v))

    parabolic_decompose = _parabolic_decompose
    in_parabolic = _in_parabolic

    # -- linear action (for minimal generating subsystems) -------------------
    def action_span_vectors(self, w: Permutation) -> list[Vector]:
        """Vectors w(v) - v for v running over the standard basis of Z^n."""
        out = []
        for i in range(1, self.n + 1):
            v = [0] * self.n
            v[w(i) - 1] += 1
            v[i - 1] -= 1
            out.append(tuple(v))
        return out


class ReflectionGroup:
    """Weyl group of an arbitrary finite root system, elements as root tables.

    Elements are integer handles; 0 is the identity.  Kept small on purpose:
    the whole group is generated eagerly by BFS over the simple reflections,
    so handles are in length order.  Bruhat order reads ``_lower_ideal``.
    """

    def __init__(self, system: RootSystem):
        self.system = system
        roots = list(system.roots)
        self.root_vectors = roots
        self.nroots = len(roots)
        ridx = {r: i for i, r in enumerate(roots)}
        self._ridx = ridx
        self.neg_of = [ridx[tuple(-c for c in r)] for r in roots]
        self.positive_keys = [i for i, r in enumerate(roots) if system.is_positive(r)]
        self._positive_set = frozenset(self.positive_keys)
        nsimple = len(system.simple_roots)
        self.simple_keys = tuple(range(1, nsimple + 1))
        self._simple_root_key = {
            j: ridx[system.simple_roots[j - 1]] for j in self.simple_keys
        }
        gen_arrays = [
            tuple(ridx[system.reflect(system.simple_roots[j - 1], r)] for r in roots)
            for j in self.simple_keys
        ]
        ident = tuple(range(self.nroots))
        tables = [ident]
        index = {ident: 0}
        lengths = [0]
        frontier = [0]
        rmul: list[list[int]] = [[] for _ in gen_arrays]
        compose = [itemgetter(*ga) for ga in gen_arrays]  # te -> te * ga
        # BFS expands in index order: the e-th append to rmul[g] is e * s_g
        while frontier:
            nxt = []
            for e in frontier:
                te = tables[e]
                for g, get in enumerate(compose):
                    comp = get(te)
                    idx = index.get(comp)
                    if idx is None:
                        idx = len(tables)
                        tables.append(comp)
                        index[comp] = idx
                        lengths.append(lengths[e] + 1)
                        nxt.append(idx)
                    rmul[g].append(idx)
            frontier = nxt
        self.tables = tables
        self.index = index
        self.lengths = lengths
        self.size = len(tables)
        self.rmul = rmul
        inv = []
        for t in tables:
            it = [0] * self.nroots
            for k, v in enumerate(t):
                it[v] = k
            inv.append(index[tuple(it)])
        self._inv = inv
        self.identity = 0
        self._mul_cache: dict[tuple[int, int], int] = {}
        self._mingen_cache: dict[int, frozenset[int]] = {}
        self._standard_cache: dict[frozenset, frozenset[int]] = {}
        self._bruhat_memo: dict[int, int] = {0: 1}  # w -> _lower_ideal(w)
        self._standardize_cache: dict[frozenset, tuple[int, frozenset]] = {}
        self._reflection_of_key: dict[int, int] = {
            p: index[tuple(ridx[system.reflect(roots[p], r)] for r in roots)]
            for p in self.positive_keys
        }
        self._reflection_search = _reflection_search(self)

    # -- group operations ---------------------------------------------------
    def mul(self, a: int, b: int) -> int:
        got = self._mul_cache.get((a, b))
        if got is None:
            ta, tb = self.tables[a], self.tables[b]
            got = self.index[itemgetter(*tb)(ta)]
            self._mul_cache[(a, b)] = got
        return got

    def inv(self, a: int) -> int:
        return self._inv[a]

    def length(self, a: int) -> int:
        return self.lengths[a]

    def elements_by_length(self) -> list[int]:
        return sorted(range(self.size), key=lambda e: (self.lengths[e], self.tables[e]))

    def _lower_ideal(self, w: int) -> int:
        """Bitset of the Bruhat interval [e, w]: bit u is set iff u <= w.
        For a right descent s of w, [e, w] = [e, ws] ∪ [e, ws]·s, by the
        lifting property (Björner–Brenti, Combinatorics of Coxeter Groups,
        §2.2)."""
        ideal = self._bruhat_memo.get(w)
        if ideal is None:
            j = next(j for j in self.simple_keys if self.right_descends(w, j))
            row = self.rmul[j - 1]
            ideal = rest = self._lower_ideal(row[w])
            while rest:
                low = rest & -rest
                ideal |= 1 << row[low.bit_length() - 1]
                rest ^= low
            self._bruhat_memo[w] = ideal
        return ideal

    def bruhat_leq(self, u: int, w: int) -> bool:
        return self._lower_ideal(w) >> u & 1 == 1

    # -- roots and reflections ----------------------------------------------
    def reflection(self, key: int) -> int:
        return self._reflection_of_key[key]

    reflections = _reflections

    def simple_root_key(self, j: int) -> int:
        return self._simple_root_key[j]

    def root_vector(self, key: int) -> Vector:
        return self.root_vectors[key]

    def root_image_positive(self, w: int, key: int) -> int:
        img = self.tables[w][key]
        return img if img in self._positive_set else self.neg_of[img]

    def action_span_vectors(self, w: int) -> list[Vector]:
        """w(alpha) - alpha over the simple roots (they span im(w - id))."""
        t = self.tables[w]
        out = []
        for j in self.simple_keys:
            k = self._simple_root_key[j]
            alpha = self.root_vectors[k]
            img = self.root_vectors[t[k]]
            out.append(tuple(a - b for a, b in zip(img, alpha)))
        return out

    def min_gen_positive(self, w: int) -> frozenset[int]:
        if w not in self._mingen_cache:
            self._mingen_cache[w] = _positive_in_span(self, self.action_span_vectors(w))
        return self._mingen_cache[w]

    def standard_positive(self, J) -> frozenset[int]:
        """Positive roots supported on the simple roots indexed by J: those
        in their span, since every root is a sum of simple roots with
        coefficients of one sign."""
        j_set = frozenset(J)
        if j_set not in self._standard_cache:
            simple = self.system.simple_roots
            self._standard_cache[j_set] = _positive_in_span(self, [simple[j - 1] for j in j_set])
        return self._standard_cache[j_set]

    # -- parabolic machinery --------------------------------------------------
    def right_descends(self, w: int, j: int) -> bool:
        return self.lengths[self.rmul[j - 1][w]] < self.lengths[w]

    def _right_mul_simple(self, w: int, j: int) -> int:
        return self.rmul[j - 1][w]

    parabolic_decompose = _parabolic_decompose
    in_parabolic = _in_parabolic


def standardize_subsystem(group, phi_sub) -> tuple[object, frozenset[int]]:
    """Find u of minimal length in its coset u W_J and J with u(Phi_J) = phi_sub.

    ``phi_sub`` is a set of positive root keys of the group and must be of the
    form Phi ∩ (linear subspace); this holds for every minimal generating
    subsystem.  Searches the group by increasing length and returns the first
    match.  Every u' of u W_J gives the same J, and the minimal element of a
    coset is strictly shorter than the rest of it, so that first match is
    already minimal in its coset.
    """
    key = frozenset(phi_sub)
    cached = group._standardize_cache.get(key)
    if cached is not None:
        return cached
    result = None
    if not key:
        result = (group.identity, frozenset())
    else:
        for u in group.elements_by_length():
            u_inv = group.inv(u)
            psi = frozenset(group.root_image_positive(u_inv, p) for p in key)
            j_set = frozenset(
                j for j in group.simple_keys if group.simple_root_key(j) in psi
            )
            if group.standard_positive(j_set) == psi:
                result = (u, j_set)
                break
        if result is None:
            raise InternalInvariantError(
                "no standardization found; input was not of the form Phi ∩ subspace"
            )
    group._standardize_cache[key] = result
    return result


@lru_cache(maxsize=None)
def symmetric_group(n: int) -> SymmetricGroup:
    return SymmetricGroup(n)


def reflection_group(name: str) -> ReflectionGroup:
    """The group of a named root system (``roots.build_named``), built once
    per system however its name is cased; A<r> lists all (r + 1)! elements,
    so r + 1 must pass the "group construction" bound before anything is built."""
    return _reflection_group(canonical_name(name))


@lru_cache(maxsize=None)
def _reflection_group(name: str) -> ReflectionGroup:
    if name.startswith("A"):
        check_size("group construction", int(name[1:]) + 1)
    return ReflectionGroup(build_named(name))
