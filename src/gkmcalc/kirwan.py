"""Circle reductions at a level just below the top vertex.

Given an integer covector cutting out a circle inside the torus, the reduced
space near the maximum of the corresponding moment component has one fixed
point per edge into that maximum.  Restricting a class to a reduced point is
a change of lattice basis followed by killing the edge weight v: the lattice
map fixing the residual weights and sending v to 0.  That map is the shear
u -> u - <sigma, u> v, where sigma is the row of the inverse of the basis
(residuals, v) dual to v; the lattice-basis check that makes a reduced point
free computes that inverse, and the point keeps sigma.  The value's
coefficient ring applies the shear.  The module computes the residual weight
data, rejecting non-free actions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NonUniqueMaximum, NotFreeAction, ValidationError
from .symcore import lattice_dual, wt_dot, wt_scale, wt_sub


@dataclass(frozen=True)
class ReducedPoint:
    id: str
    source: str        # lower endpoint of the cut edge
    edge_weight: tuple  # directed into the top vertex
    residual: tuple    # weights of the quotient action, inside the covector's kernel
    edge_dual: tuple   # pairs to 1 with edge_weight and to 0 with the residuals


@dataclass
class ReductionSetup:
    graph: object
    pi: tuple
    top: str
    points: list


def reduced_fixed_data(g, pi):
    """Locate the unique top vertex of <psi, pi>, then build one reduced
    point per incident edge.  The residual weights at the point on the edge
    with weight v_i are u_t = v_t - (c_t / c_i) v_i over the other weights
    v_t at the top, with c = <v, pi>; fractional u_t means the circle does
    not act freely there."""
    pi = tuple(int(x) for x in pi)
    if len(pi) != g.rank:
        raise ValidationError("covector rank mismatch")
    phis = [(wt_dot(p.psi, pi), p.id) for p in g.points]
    best = max(v for v, _ in phis)
    tops = [vid for v, vid in phis if v == best]
    if len(tops) != 1:
        raise NonUniqueMaximum(f"top value attained at {sorted(tops)}")
    top = tops[0]

    incident = []
    for other, _e in g.incident(top):
        incident.append((g.order_index(other), other, g.weight_toward(other, top)))
    incident.sort()
    weights = [w for _, _, w in incident]
    pairings = [wt_dot(w, pi) for w in weights]
    if any(c == 0 for c in pairings):
        raise NonUniqueMaximum("an edge at the top is level for the covector")

    points = []
    for i, (_, source, v_i) in enumerate(incident):
        c_i = pairings[i]
        residual = []
        for t, v_t in enumerate(weights):
            if t == i:
                continue
            ratio = Fraction(pairings[t], c_i)
            if ratio.denominator != 1:
                raise NotFreeAction(
                    f"weight at the reduced point on {source}->{top} is fractional")
            residual.append(wt_sub(v_t, wt_scale(v_i, int(ratio))))
        dual = lattice_dual(residual + [v_i])
        if dual is None:
            raise NotFreeAction("reduced weights fail the lattice basis test")
        points.append(ReducedPoint(
            id=f"r{i + 1}", source=source, edge_weight=v_i,
            residual=tuple(residual), edge_dual=dual[-1]))
    return ReductionSetup(graph=g, pi=pi, top=top, points=points)


def kirwan_restrict_all(setup, c):
    """Value of the reduced class at every reduced point, restricted from
    the top vertex.  For a class satisfying the edge divisibility condition
    the lower end of each cut edge gives the same value."""
    value = c[setup.top]
    return {p.id: value.ring.shear(value, p.edge_dual, p.edge_weight) for p in setup.points}
