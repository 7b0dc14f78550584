"""Exact-arithmetic toolkit for minimal generating root subsystems, good and
bad pairs in Weyl groups, permutation pattern avoidance, and the polynomial
equations of Springer-style flag variety cells."""

__version__ = "0.1.0"

from .linalg import Vector, rank
from .mingen import MinGenSubsystem, min_gen_subsystem, min_gen_type_A_orbits, reflection_length
from .pairs import (
    PairVerdict,
    enumerate_pairs,
    is_good_chain,
    is_good_flattening,
    is_good_orbitwise,
    is_good_parabolic,
)
from .patterns import (
    PatternReport,
    flatten,
    has_pattern,
    left_bad_exists,
    right_bad_exists,
    schubert_singular,
    verify_pattern_theorem,
)
from .poly import SparsePolynomial, parse_polynomial, symbolic_minor
from .roots import RootSystem, build_from_cartan, build_type_A, subset_leq
from .varieties import (
    CellDescription,
    CounterexampleReport,
    EquationSet,
    additional_equation_scan,
    cell_equations,
    fiber_equations,
    incidence_relations,
    p_polynomials,
    plucker_relations,
    sample_point_on_Vw,
    sample_point_on_fiber,
    separated_hits,
    verify_witness,
)
from .weyl import (
    Permutation,
    ReflectionGroup,
    SymmetricGroup,
    reflection_group,
    standardize_subsystem,
)
