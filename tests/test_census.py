"""Frozen census numbers for the pair enumeration.

The S4 line is backed by the pre-build brute-force oracle fixture; the S5
line was confirmed by all four criteria agreeing pair by pair; the S6 bad
set is confirmed by the scanner-consistency and pattern-theorem checks.
The S7 line is README's table row, behind the opt-in ``exhaustive`` marker.
"""

import pytest

from weylpairs.pairs import EnumerationSummary, enumerate_pairs


def census(n):
    summary = EnumerationSummary(n)
    for _ in enumerate_pairs(n, "bad", summary=summary):
        pass
    return summary.total_comparable, summary.bad_count


def test_small_censuses_are_stable():
    assert census(2) == (3, 0)
    assert census(3) == (19, 0)
    assert census(4) == (213, 1)
    assert census(5) == (3781, 65)


def test_s6_census_is_stable():
    assert census(6) == (98407, 3753)


@pytest.mark.exhaustive
def test_s7_census_matches_readme(s7_bad_sweep):
    summary, pairs, _ = s7_bad_sweep
    assert (summary.total_comparable, summary.bad_count) == (3550919, 236481)
    assert len(pairs) == 236481


@pytest.mark.exhaustive
def test_s7_bad_stream_digest(s7_bad_sweep):
    """The bytes of `pairs enumerate --n 7 --allow-large --filter bad`."""
    _, _, digest = s7_bad_sweep
    assert digest == "cec3994d83dd33d3fc843424b0d458f27470fe107fc8567e7a207d76ff86d50a"
