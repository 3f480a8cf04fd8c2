"""Rational-coefficient side of the construction.

Classes are dicts mapping vertex id to a ``PolyH``.  The constructions
shared with K-theory (Euler classes, duals of flow-up faces, integration over
the manifold, the local index with its degree shortcut) live in ``classes``
over the ring ``H``; the names below bind them.  This module verifies the
canonical basis (which here is the dual basis at every vertex, no index
increasing hypothesis needed) and computes the projected Euler class ratio
for index-jump-one edges and the path-sum classes that exist in the index
increasing case.
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
    VerificationFailure,
)
from .gkm import is_index_increasing
from .symcore import (
    H,
    Irreducible,
    LocalizedSum,
    PolyH,
    divide_by_linear_form,
    rational_primitive,
    wt_dot,
    wt_primitive,
    wt_scale,
    wt_sub,
)

class_equal_h = cl.class_equal
one_class_h = partial(cl.one_class, H)
check_gkm_h = partial(cl.check_gkm, H)
poincare_dual_h = partial(cl.poincare_dual, H)
abbv_index = partial(cl.pushforward, H)
local_index_h = partial(cl.local_index, H)


def icanonical_basis_h(g):
    """Duals of the flow-up faces, verified to have local index 1 at their
    base vertex and 0 at every other vertex (no orientation hypothesis)."""
    basis = {p: poincare_dual_h(g, p) for p in g.vids()}
    one = PolyH.one(g.rank)
    zero = PolyH.zero(g.rank)
    for p, c in basis.items():
        for q in g.vids():
            got = local_index_h(g, c, q)
            want = one if q == p else zero
            if got != want:
                raise VerificationFailure(
                    f"dual at {p} has local index {got!r} at {q}")
    return basis


def basis(g, normalization="canonical"):
    """The canonical basis, which in cohomology is point-normalized too."""
    return icanonical_basis_h(g)


# ---------------------------------------------------------------------------
# projected Euler ratio and path-sum classes

def _projected_factor(u, w, w_xi, u_xi):
    """Integer-cleared image of u under X -> X - (X(xi)/w(xi)) w."""
    return wt_sub(wt_scale(u, w_xi), wt_scale(w, u_xi))


def theta(g, edge, xi=None):
    """Constant ratio of the projected negative Euler classes across an
    index-jump-one edge.  Computed by projection, product and exact division
    rather than assumed; equals 1 on every toric fixture."""
    xi = g.xi if xi is None else tuple(xi)
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


def _ecan_paths(g, start, goal, adj):
    """All vertex sequences start -> goal inside the jump-one subgraph."""
    if start == goal:
        return [[start]]
    out = []
    for e in adj.get(start, ()):
        for tail in _ecan_paths(g, e.dst, goal, adj):
            out.append([start] + tail)
    return out


def gt_class(g, p, xi=None, _theta_cache=None):
    """Path-sum class at p over the jump-one subgraph.

    Each path contributes the product over its steps of

        m_i * Theta_i / <psi(q) - psi(r_{i-1})>

    times the negative Euler class at q, the edge-direction numerator having
    cancelled against the edge weight (they are parallel, ratio m_i).  The
    reduced value must be an integral polynomial and agrees with the flow-up
    dual.  Exists only for index increasing orientations.
    """
    if not is_index_increasing(g):
        raise NotIndexIncreasing("path-sum classes need an index increasing orientation")
    xi = g.xi if xi is None else tuple(xi)
    cache = _theta_cache if _theta_cache is not None else {}
    adj = {}
    for e in ecan_edges(g):
        adj.setdefault(e.src, []).append(e)
    by_pair = {(e.src, e.dst): e for e in g.edges}

    def theta_of(a, b):
        key = (a, b)
        if key not in cache:
            cache[key] = theta(g, by_pair[key], xi)
        return cache[key]

    out = cl.zero_class(H, g)
    for q in g.vids():
        paths = _ecan_paths(g, p, q, adj)
        if not paths:
            continue
        lam_q = cl.euler_minus(H, g, q)
        s = LocalizedSum("H", g.rank)
        for path in paths:
            scalar = Fraction(1)
            dens = []
            for a, b in zip(path, path[1:]):
                e = by_pair[(a, b)]
                scalar *= e.mult * theta_of(a, b)
                diff = wt_sub(g.psi(q), g.psi(a))
                prim, content = rational_primitive(diff)
                dens.append(prim)
                scalar /= content
            s.add_term(lam_q * scalar, dens)
        val = s.reduce()
        if isinstance(val, Irreducible):
            raise IntegralityFailure(f"path sum at ({p}, {q}) left a fraction")
        if not val.is_integral():
            raise IntegralityFailure(f"path sum at ({p}, {q}) is not integral")
        out[q] = val
    return out


def gt_basis(g, xi=None):
    cache = {}
    return {p: gt_class(g, p, xi, _theta_cache=cache) for p in g.vids()}
