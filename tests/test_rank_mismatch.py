"""Every entry point that takes two permutations rejects different ranks."""

import pytest

from weylpairs.pairs import is_good_flattening, is_good_orbitwise
from weylpairs.varieties import additional_equation_scan, fiber_equations, separated_hits
from weylpairs.weyl import Permutation

P = Permutation.from_string


def test_product():
    with pytest.raises(ValueError, match="different ranks"):
        P("21") * P("123")


def test_fiber_equations():
    with pytest.raises(ValueError, match="different ranks"):
        fiber_equations(P("4231"), P("132"))


@pytest.mark.parametrize("w, w_prime", [("4231", "13245"), ("42315", "1324")])
def test_scan(w, w_prime):
    with pytest.raises(ValueError, match="different ranks"):
        additional_equation_scan(P(w), P(w_prime))
    with pytest.raises(ValueError, match="different ranks"):
        separated_hits(P(w), P(w_prime))


@pytest.mark.parametrize("criterion", [is_good_orbitwise, is_good_flattening])
def test_type_a_criteria(criterion):
    with pytest.raises(ValueError, match="different ranks"):
        criterion(P("132"), P("4231"))
