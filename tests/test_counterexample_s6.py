"""README's S6 split of `counterexample scan`: 3737 bad pairs refuted by
verified witnesses, 16 left `unknown`, and those 16 are exactly the family
w' in {(34), (34)(56), (12)(34), (12)(34)(56)} against
w in {[563412], [563421], [653412], [653421]}."""

import io
import json
from contextlib import redirect_stdout

import pytest

from weylpairs.cli import dispatch
from weylpairs.pairs import is_good_orbitwise
from weylpairs.varieties import additional_equation_scan
from weylpairs.weyl import Permutation

P = Permutation.from_string

UNKNOWN_FAMILY = sorted(
    (w, wp)
    for w in ("563412", "563421", "653412", "653421")
    for wp in ("124356", "124365", "214356", "214365")
)


def test_family_pairs_are_bad_and_unknown():
    for w, wp in UNKNOWN_FAMILY:
        assert is_good_orbitwise(P(wp), P(w)).verdict == "bad"
        report = additional_equation_scan(P(w), P(wp))
        assert report.status == "unknown", (w, wp)
        assert report.hits == () and report.witness is None


@pytest.mark.exhaustive
def test_full_s6_scan_split():
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert dispatch(["counterexample", "scan", "--n", "6"]) == 0
    records = [json.loads(line) for line in buf.getvalue().splitlines()]
    statuses = [r["status"] for r in records]
    assert statuses.count("refuted") == 3737
    assert statuses.count("unknown") == 16
    assert len(records) == 3753
    unknown = sorted((r["w"], r["w_prime"]) for r in records if r["status"] == "unknown")
    assert unknown == UNKNOWN_FAMILY
    assert all(r["witness"]["ok"] for r in records if r["status"] == "refuted")
