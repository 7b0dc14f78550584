import doctest

import weylpairs.linalg
import weylpairs.pairs
import weylpairs.patterns
import weylpairs.poly
import weylpairs.roots
import weylpairs.varieties
import weylpairs.weyl


def test_doctests():
    modules = (
        weylpairs.weyl, weylpairs.patterns, weylpairs.poly, weylpairs.roots, weylpairs.varieties,
        weylpairs.linalg, weylpairs.pairs,
    )
    for module in modules:
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        assert result.attempted > 0, module.__name__
