"""Built-in desk fixtures.

``cp_input(n)`` is the unit simplex (projective space with a primitive
symplectic class, so moment differences along edges are exactly the edge
weights).  ``hirzebruch_input`` is the trapezoid whose default orientation
fails to be index increasing along its middle edge; it is the standard
example driving the inductive basis construction.  ``square_input`` is the
unit square used by the reduction tests.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ValidationError
from .gkm import ToricInput
from .symcore import LaurentPoly, PolyH, parse_int


def _fr(seq):
    return tuple(Fraction(x) for x in seq)


def cp_input(n):
    if n < 1:
        raise ValidationError("projective fixture needs n >= 1")
    vertices = [("p0", _fr([0] * n))]
    for i in range(n):
        psi = [0] * n
        psi[i] = 1
        vertices.append((f"p{i + 1}", _fr(psi)))
    return ToricInput(rank=n, vertices=vertices)


def hirzebruch_input():
    return ToricInput(rank=2, vertices=[
        ("p0", _fr([0, 0])),
        ("p1", _fr([1, 1])),
        ("p2", _fr([1, 2])),
        ("p3", _fr([0, 3])),
    ])


def square_input():
    return ToricInput(rank=2, vertices=[
        ("q3", _fr([0, 0])),
        ("q1", _fr([0, 1])),
        ("q2", _fr([1, 0])),
        ("q0", _fr([1, 1])),
    ])


_FIXTURES = {
    "cp1": lambda: cp_input(1),
    "cp2": lambda: cp_input(2),
    "hirzebruch": hirzebruch_input,
    "square": square_input,
}


def fixture_input(name):
    name = name.strip().lower()
    if name.startswith("cpn:"):
        return cp_input(parse_int(name.split(":", 1)[1]))
    if name in _FIXTURES:
        return _FIXTURES[name]()
    raise ValidationError(f"unknown fixture {name!r}")


def fixture_names():
    return sorted(_FIXTURES) + ["cpn:<n>"]


# ---------------------------------------------------------------------------
# reference classes used by the golden tests

def square_reference_class(g):
    """The degree-one class on the square whose reduced restrictions are the
    golden values of the reduction tests: linear forms x+y, 4x+y, x+7y,
    4x+7y at the corners ordered by moment value."""
    values = {
        "q3": (4, 7),
        "q1": (4, 1),
        "q2": (1, 7),
        "q0": (1, 1),
    }
    return {vid: PolyH.linear_form(w) for vid, w in values.items()}


def hirzebruch_sample_class(g):
    """Hand-written copy of the point-normalized class at the first
    non-minimal vertex of the trapezoid; a fixed input for the local index
    golden tests."""
    c = {v: LaurentPoly.zero(2) for v in g.vids()}
    c["p1"] = 1 - LaurentPoly.monomial((1, 1))
    c["p2"] = LaurentPoly.monomial((0, 1)) - LaurentPoly.monomial((1, 0))
    return c

