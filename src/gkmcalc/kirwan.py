"""Circle reductions at a level just below the top vertex.

Given an integer covector cutting out a circle inside the torus, the reduced
space near the maximum of the corresponding moment component has one fixed
point per edge into that maximum.  Restricting a class to a reduced point is
a change of lattice basis followed by killing the edge weight v: the lattice
map fixing the residual weights and sending v to 0.  That map is the shear
u -> u - <sigma, u> v, where sigma is the row of the inverse of the basis
(residuals, v) dual to v.  That row is sigma = pi / <pi, v>: it pairs to 1
with v and to 0 with each residual u_t = v_t - (<pi, v_t> / <pi, v>) v, and
it is integral wherever those ratios are, since pi = sum of <pi, v_t> a_t
over the top vertex's frame rows a_t.  The point keeps sigma, and the
value applies the shear in its own ring.  The module computes the
residual weight data, rejecting non-free actions.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import NonUniqueMaximum, NotFreeAction, ValidationError
from .symcore import wt_dot, wt_scale, wt_sub

# source: the lower end of the cut edge; edge_weight: directed into the top
# vertex; residual: the weights of the quotient action, inside the
# covector's kernel; edge_dual: pairs to 1 with edge_weight and to 0 with
# the residuals
ReducedPoint = namedtuple("ReducedPoint", "id source edge_weight residual edge_dual")

ReductionSetup = namedtuple("ReductionSetup", "top points")


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

    incident = sorted((g.order_index(other), other, w)
                      for other, w in g.adjacency[top].items())
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
            if pairings[t] % c_i:
                raise NotFreeAction(
                    f"weight at the reduced point on {source}->{top} is fractional")
            residual.append(wt_sub(v_t, wt_scale(v_i, pairings[t] // c_i)))
        points.append(ReducedPoint(
            id=f"r{i + 1}", source=source, edge_weight=v_i,
            residual=tuple(residual), edge_dual=tuple(x // c_i for x in pi)))
    return ReductionSetup(top=top, points=points)


def kirwan_restrict_all(setup, c):
    """Value of the reduced class at every reduced point, restricted from
    the top vertex.  For a class satisfying the edge divisibility condition
    the lower end of each cut edge gives the same value."""
    value = c[setup.top]
    return {p.id: value.shear(p.edge_dual, p.edge_weight) for p in setup.points}
