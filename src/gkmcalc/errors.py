"""Error types shared across the package.

Two families matter for the CLI exit codes: ``ValidationError`` covers bad
input data (exit 2), ``ContractError`` covers arithmetic results that violate
an operation's guarantee and therefore certify a bug or a non-class input
(exit 3).
"""

from __future__ import annotations


class ValidationError(ValueError):
    pass


class ContractError(ArithmeticError):
    pass


class NotDelzant(ValidationError):
    """Some vertex's primitive edge directions are not a lattice basis."""


class NotAPolytopeSkeleton(ValidationError):
    """The points and edges are not a simple polytope's one-skeleton: a
    vertex has degree other than n, or fails the skeleton certificate."""


class SuppliedXiNotGeneric(ValidationError):
    """A user-supplied direction vector pairs to zero with an edge weight
    or fails to separate the vertices."""


class NonPolynomialIndex(ContractError):
    """A table that is not a class has no push-forward to a point."""


class DivisionFailure(ContractError):
    """Triangular elimination hit a value not divisible by the Euler class."""


class NotECanEdge(ValidationError):
    """Edge passed to the projection-quotient computation has index jump != 1."""


class NonConstantQuotient(ContractError):
    """The projected Euler class ratio did not reduce to a constant."""


class IntegralityFailure(ContractError):
    """A path-sum class came out non-polynomial or with fractional entries."""


class NotIndexIncreasing(ValidationError):
    """Operation requires an index increasing orientation."""


class NonUniqueMaximum(ValidationError):
    """The chosen circle direction does not single out a top vertex."""


class NotFreeAction(ValidationError):
    """Reduced point weights are fractional: the circle action is not free."""
