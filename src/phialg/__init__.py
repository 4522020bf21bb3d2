"""Calculus over finite-dimensional commutative unital algebras.

Arithmetic from structure constants, differentiation relative to a reference
map, generalized Cauchy-Riemann systems (forward and inverse), algebrization
of quadratic planar fields, algebra-valued line integrals and differential
equations, and closed-form PDE solution constructors.
"""

from .algebra import (
    Algebra,
    algebra_a2_1,
    algebra_a2_12,
    algebra_a2_2,
    algebra_a3_1,
    a3_1_dependent_params,
    complex_algebra,
)
from .calculus import (
    DiffReport,
    cre_residual,
    factor_through_phi,
    find_regular_direction,
    phi_derivative,
    phi_polynomial,
    phi_rational,
    phi_reciprocal_power,
)
from .cre import (
    CRESystem,
    TwoPDESystem,
    emit_cre,
    emit_weighted_cre,
    find_equivalence_matrix,
    recover_phi_algebra,
    two_pde_from_cre,
)
from .errors import (
    AssociativityViolation,
    B1Zero,
    ConditionViolated,
    DegenerateParameters,
    DeltaZeroInconsistent,
    DimensionMismatch,
    NewtonDivergence,
    NoConvergence,
    NoMatch,
    NotAssociative,
    NotCommutative,
    NotEquivalent,
    NoUnit,
    PhiNotInvertible,
    PhialgError,
    SingularElement,
)
from .integrals import Path, antiderivative, closed_loop_check, conservative_fields, line_integral
from .maps import SmoothMap, compose, fd_jacobian
from .odes import (
    OdeSolution,
    SolutionSamples,
    picard,
    separable_solve,
    solve_exponential,
    solve_phi_rhs,
    solve_square_rhs,
    verify_canonical,
)
from .pdes import (
    FirstOrderPDE,
    HeatProblem,
    SecondOrderPDE,
    first_order_phi,
    heat_solution,
    pde_residual,
    second_order_solution,
    system_451_solutions,
)
from .quadratic import (
    AlgebrizationWitness,
    QuadraticVF,
    algebrize,
    billiards_field,
    billiards_parameters,
    build_M2,
    build_M4,
    build_M6,
    verify_billiards_algebrization,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
