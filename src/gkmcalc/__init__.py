"""Exact canonical bases for the equivariant K-theory and cohomology rings
of symplectic toric manifolds, computed from moment polytope combinatorics."""

from .errors import (
    ContractError,
    DivisionFailure,
    IntegralityFailure,
    NonConstantQuotient,
    NonPolynomialIndex,
    NonUniqueMaximum,
    NotAPolytopeSkeleton,
    NotDelzant,
    NotECanEdge,
    NotFreeAction,
    NotIndexIncreasing,
    SuppliedXiNotGeneric,
    ValidationError,
)
from .gkm import (
    Edge,
    FixedPoint,
    GKMGraph,
    ToricInput,
    build_graph,
    choose_generic_xi,
    flow_face,
    index_violations,
    is_index_increasing,
    orient_and_index,
    upward_closure,
)
from .symcore import (
    LaurentPoly,
    LocalizedSum,
    Irreducible,
    PolyH,
    divide_by_cyclotomic,
    divide_by_linear_form,
    substitute_linear,
    substitute_linear_h,
)

__version__ = "0.1.0"
