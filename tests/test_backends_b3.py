"""Bruhat order on the rank-3 hyperoctahedral group against a closure oracle.

The group has 48 elements; every query runs through the subword recursion
of ``ReflectionGroup.bruhat_leq``.
"""

from conftest import bruhat_closure_oracle


def test_b3_bruhat_matches_closure_oracle(b3):
    below = bruhat_closure_oracle(b3)
    for u in range(b3.size):
        for w in range(b3.size):
            assert b3.bruhat_leq(u, w) == (w in below[u])
