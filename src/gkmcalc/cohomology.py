"""Theta and the path-sum classes of the index increasing case.

This module computes the projected Euler class ratio Theta for index-jump-one
edges and the path-sum classes that exist in the index increasing case; every
construction on classes lives in ``classes``.  Its three bindings of
``classes`` functions to ``H`` have no caller in the package and stay only
because the benchmark's traced run wraps them by name.

A path-sum class is a sum over jump-one paths, but it is built without
listing them, by the one-step recursion in decreasing moment order:
gt_q(q) is the negative Euler class at q and gt_p(q) is the sum over
jump-one edges p -> b of m * Theta * gt_b(q), divided by
<psi(q) - psi(p)>.  That is one exact division per pair (p, q).
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from . import classes as cl
from .errors import (
    IntegralityFailure,
    NonConstantQuotient,
    NotECanEdge,
    NotIndexIncreasing,
)
from .gkm import is_index_increasing, upward_closure
from .symcore import (
    H,
    PolyH,
    divide_by_linear_form,
    rational_primitive,
    wt_dot,
    wt_primitive,
    wt_scale,
    wt_sub,
)

abbv_index = partial(cl.pushforward, H)
local_index_h = partial(cl.local_index, H)
icanonical_basis_h = partial(cl.basis, H)


# ---------------------------------------------------------------------------
# projected Euler ratio and path-sum classes

def _projected_factor(u, w, w_xi, u_xi):
    """Integer-cleared image of u under X -> X - (X(xi)/w(xi)) w."""
    return wt_sub(wt_scale(u, w_xi), wt_scale(w, u_xi))


def theta(g, edge):
    """Constant ratio of the projected negative Euler classes across an
    index-jump-one edge.  Computed by projection, product and exact division
    rather than assumed; equals 1 on every toric fixture."""
    xi = g.xi
    lam1 = g.point(edge.src).lam
    lam2 = g.point(edge.dst).lam
    if lam2 != lam1 + 1:
        raise NotECanEdge(f"edge {edge.src}->{edge.dst} jumps {lam2 - lam1}")
    w = edge.weight
    w_xi = wt_dot(w, xi)
    num = PolyH.one(g.rank)
    for u in g.point(edge.src).wplus:
        num = num * PolyH.linear_form(_projected_factor(u, w, w_xi, wt_dot(u, xi)))
    bottom = list(g.point(edge.dst).wplus)
    bottom.remove(w)
    quot = num
    scale = Fraction(1)
    for u in bottom:
        v = _projected_factor(u, w, w_xi, wt_dot(u, xi))
        prim, content = wt_primitive(v)
        quot = divide_by_linear_form(quot, prim)
        if quot is None:
            raise NonConstantQuotient(
                f"projected factor does not divide on {edge.src}->{edge.dst}")
        scale *= content
    const = quot.constant_value()
    if const is None:
        raise NonConstantQuotient(
            f"ratio on {edge.src}->{edge.dst} is not constant")
    return const / scale


def ecan_edges(g):
    return [e for e in g.edges
            if g.point(e.dst).lam == g.point(e.src).lam + 1]


def _path_sums(g, vids):
    """Path-sum classes at every vertex of ``vids``, a list in moment order
    closed under oriented edges, each as a dict on ``vids``.

    The sum over jump-one paths p -> ... -> q of the products of
    m_i * Theta_i / <psi(q) - psi(r_{i-1})>, times the negative Euler class
    at q (the step's edge weight has cancelled against the parallel
    numerator psi(r_i) - psi(r_{i-1}), leaving m_i), factors through the
    first step:

        gt_q(q) = the negative Euler class at q,
        gt_p(q) = sum over jump-one edges p -> b of m * Theta * gt_b(q),
                  divided by <psi(q) - psi(p)>.

    Running p in decreasing moment order, each pair (p, q) costs one exact
    division by the primitive form of psi(q) - psi(p) and its content.
    """
    if not is_index_increasing(g):
        raise NotIndexIncreasing("path-sum classes need an index increasing orientation")
    steps = {p: [] for p in vids}
    for e in ecan_edges(g):
        if e.src in steps:
            steps[e.src].append((e.dst, e.mult * theta(g, e)))
    rows = {}
    for i in reversed(range(len(vids))):
        p = vids[i]
        row = {q: H.zero(g.rank) for q in vids}
        row[p] = cl.euler_minus(H, g, p)
        for q in vids[i + 1:]:
            num = sum((rows[b][q] * f for b, f in steps[p]), H.zero(g.rank))
            if num.is_zero():
                continue
            prim, content = rational_primitive(wt_sub(g.psi(q), g.psi(p)))
            val = divide_by_linear_form(num, prim)
            if val is None:
                raise IntegralityFailure(f"path sum at ({p}, {q}) left a fraction")
            val = val * (1 / content)
            if not val.is_integral():
                raise IntegralityFailure(f"path sum at ({p}, {q}) is not integral")
            row[q] = val
        rows[p] = row
    return rows


def gt_class(g, p):
    """Path-sum class at p over the jump-one subgraph; it is integral and
    agrees with the flow-up dual.  Exists only for index increasing
    orientations."""
    return {**cl.zero_class(H, g), **_path_sums(g, upward_closure(g, p))[p]}


def gt_basis(g):
    """Path-sum class at every vertex."""
    return _path_sums(g, g.vids())
