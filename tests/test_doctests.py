import doctest

import weylpairs.patterns
import weylpairs.poly
import weylpairs.roots
import weylpairs.weyl


def test_doctests():
    for module in (weylpairs.weyl, weylpairs.patterns, weylpairs.poly, weylpairs.roots):
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        assert result.attempted > 0, module.__name__
