"""Rational-coefficient side of the construction.

Classes are dicts mapping vertex id to a ``PolyH``.  Provides Euler classes,
duals of flow-up faces, integration over the manifold, the local index
with its degree shortcut, the canonical basis (which here is the dual basis
at every vertex, no index increasing hypothesis needed), the projected Euler
class ratio for index-jump-one edges, and the path-sum classes that exist in
the index increasing case.

Integration expands the class triangularly in the flow-up duals and reads
off the coefficient at the top vertex: only the point class there has a
nonzero integral, 1.  The expansion is also the membership test.  The fixed
point formula (``abbv_localized_sum``) stays as an independent oracle.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DivisionFailure,
    GKMViolation,
    IntegralityFailure,
    NonConstantQuotient,
    NonPolynomialIndex,
    NotECanEdge,
    NotIndexIncreasing,
    ValidationError,
    VerificationFailure,
)
from .gkm import flow_face, is_index_increasing, triangular_expansion
from .symcore import (
    Irreducible,
    LocalizedSum,
    PolyH,
    divide_by_linear_form,
    rational_primitive,
    substitute_linear_h,
    wt_add,
    wt_dot,
    wt_lift,
    wt_neg,
    wt_primitive,
    wt_scale,
    wt_sub,
)


def zero_class_h(g):
    return {v: PolyH.zero(g.rank) for v in g.vids()}


def one_class_h(g):
    return {v: PolyH.one(g.rank) for v in g.vids()}


def class_equal_h(a, b):
    return set(a) == set(b) and all(a[v] == b[v] for v in a)


# ---------------------------------------------------------------------------
# Euler classes, membership, duals

def euler_minus_h(g, vid):
    out = PolyH.one(g.rank)
    for w in g.point(vid).wplus:
        out = out * PolyH.linear_form(w)
    return out


def check_gkm_h(g, c):
    bad = []
    for e in g.edges:
        diff = c[e.src] - c[e.dst]
        if diff.is_zero():
            continue
        if divide_by_linear_form(diff, e.weight) is None:
            bad.append((e, diff))
    return bad


def assert_gkm_h(g, c):
    bad = check_gkm_h(g, c)
    if bad:
        raise GKMViolation(bad[0][0], bad[0][1])


def poincare_dual_h(g, vid):
    face = flow_face(g, vid, "up")
    c = zero_class_h(g)
    for q in face:
        val = PolyH.one(g.rank)
        for other, _e in g.incident(q):
            if other not in face:
                val = val * PolyH.linear_form(g.weight_toward(other, q))
        c[q] = val
    return c


def is_kirwan_class_h(g, c, vid):
    if c[vid] != euler_minus_h(g, vid):
        return False
    cut = g.order_index(vid)
    return all(c[v].is_zero() for v in g.vids()[:cut])


# ---------------------------------------------------------------------------
# integration

def abbv_index(g, c):
    """Integral over the manifold: the coefficient of c at the top vertex in
    the flow-up duals.  Raises ``NonPolynomialIndex`` when c is not a class."""
    try:
        coeffs = triangular_expansion(
            g, c, lambda r: poincare_dual_h(g, r), divide_by_linear_form)
    except DivisionFailure as exc:
        raise NonPolynomialIndex(f"integral of a non-class: {exc}") from exc
    return coeffs.get(g.vids()[-1], PolyH.zero(g.rank))


def abbv_localized_sum(g, c):
    s = LocalizedSum("H", g.rank)
    for v in g.vids():
        s.add_term(c[v], list(g.weights_at(v)))
    return s


# ---------------------------------------------------------------------------
# local index

def local_index_h(g, c, q):
    """Cohomological local index at q.

    A homogeneous class of degree below lam_q integrates to zero on the cut
    space, so that case returns immediately.  Otherwise the same linear
    substitution as in K-theory is applied to the variables, the cut space
    integral is reduced, and the auxiliary variable is set to zero.
    """
    value = c[q]
    if value.is_zero():
        return PolyH.zero(g.rank)
    deg = value.homogeneous_degree()
    if deg is None:
        raise ValidationError("local index needs a homogeneous restriction")
    pt = g.point(q)
    lam = pt.lam
    n = g.rank
    if deg < lam:
        return PolyH.zero(g.rank)
    wplus = list(pt.wplus)
    wrest = list(pt.wminus)
    basis = wplus + wrest
    w0 = (0,) * n + (1,)

    images0 = [wt_add(wt_lift(w), w0) for w in wplus] + [wt_lift(w) for w in wrest]
    fs = [substitute_linear_h(value, basis, images0)]
    for j in range(lam):
        images = []
        for i, w in enumerate(wplus):
            if i == j:
                images.append((0,) * (n + 1))
            else:
                images.append(wt_lift(wt_sub(w, wplus[j])))
        images += [wt_lift(w) for w in wrest]
        fs.append(substitute_linear_h(value, basis, images))

    dens = [[wt_add(wt_lift(w), w0) for w in wplus]]
    for i in range(lam):
        ws = [wt_neg(wt_add(wt_lift(wplus[i]), w0))]
        ws += [wt_lift(wt_sub(wplus[t], wplus[i])) for t in range(lam) if t != i]
        dens.append(ws)

    s = LocalizedSum("H", n + 1)
    for f, den in zip(fs, dens):
        s.add_term(f, den)
    out = s.reduce()
    if isinstance(out, Irreducible):
        raise NonPolynomialIndex(f"local index at {q} is not a polynomial")
    return out.drop_last_variable()


def local_index_profile_h(g, c):
    return {q: local_index_h(g, c, q) for q in g.vids()}


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

    out = zero_class_h(g)
    for q in g.vids():
        paths = _ecan_paths(g, p, q, adj)
        if not paths:
            continue
        lam_q = euler_minus_h(g, q)
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
