"""Restriction tables over a coefficient ring.

A class is a plain dict mapping vertex id to a value of one of the ring
classes of ``symcore``: ``K`` (``LaurentPoly``) or ``H`` (``PolyH``).  Every
construction on classes is written here once, for both rings: the class
helpers, the negative Euler class, the edge divisibility check, duals of
faces, the Kirwan test, the bases, the triangular elimination in a Kirwan
basis and the expansions built on it (structure constants, the push-forward
to a point) and the local index.  They differ only in what the ring
supplies, chiefly the factor attached to a weight: ``1 - e^w`` in K-theory
and ``<w, x>`` in cohomology.

The canonical class at p has local index 1 on the flow-up face F_p of p and
0 elsewhere, and the K point class pi_p index 1 at p alone.  ``basis`` is
the one builder of both, and three facts build them, and the structure
constants, without a local index:

* the H canonical classes are the flow-up duals (the path-sum classes when
  index increasing); ``verify --level full`` still checks their local indices;
* pi_p is the class of the ideal sheaf of the boundary of the closed cell
  F_p, the part of F_p on the facets that meet it but miss p.  That
  boundary has normal crossings, so its Koszul resolution gives
  pi_p = sum over sets T of those facets of (-1)^|T| times the dual of the
  face F_p n (n T) (Graham-Kumar, IMRN 2008).  The local index is additive
  and determines a class, so the K canonical class tau_p is the sum of pi_q
  over q in F_p; on an index increasing orientation it is the flow-up dual.
  The face coefficients are summed as integers first, and each face dual,
  built once per basis, is added once into the values at its vertices;
* tau_p tau_q for p <= q vanishes below q and is tau_p(q) times the Euler
  class at q, so c_pq^q = tau_p(q) and only tau_q (tau_p - tau_p(q)) is
  expanded.  In H each c_pq^r is integral of degree lam_p + lam_q - lam_r.

Every class of these bases, and every flow-up dual, is a Kirwan class: it
is the negative Euler class at its own vertex and vanishes below it.  That
is the one contract of the triangular expansion (Goldin-Tolman): each step
reads a coefficient off one exact division at its vertex, which leaves the
residual there exactly zero, so every basis class is handed over off its own
vertex.  ``structure_constants`` checks the contract once, where a basis
enters.

Every face here is a bit mask of its vertices (``GKMGraph.face_mask``, the
faces of ``_boundary``), and a dual is taken on its face alone
(``_dual_on``), the only place it is nonzero: at each vertex of the mask,
the list of the factors of the edges whose far end is off it.  The
factors come from the graph's adjacency table and are built once per graph
(``GKMGraph.factor``); ``poincare_dual`` multiplies them out and pads the
face values with zeros to a full table.  The push-forward expands the
class in the flow-up duals, which is also the membership test.  In
K-theory every dual is the class of the structure sheaf of a toric
subvariety and has index 1; in cohomology only the point class at the top
vertex has a nonzero integral, 1.  The expansion divides in one call per
vertex and multiplies each quotient by the dual's factor lists in place.
The local index at q is a lam_q-th divided difference of the value at q,
built by Newton's recursion with one exact division per step; its nodes are
shears of the value along the vertex's frame, built on each call.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from .errors import ContractError, DivisionFailure, NonPolynomialIndex, ValidationError
from .gkm import is_index_increasing
from .symcore import sub_product, wt_neg, wt_scale, wt_sub


# ---------------------------------------------------------------------------
# class-table helpers

def zero_class(ring, g):
    return {v: ring.zero(g.rank) for v in g.vids()}


def one_class(ring, g):
    return {v: ring.one(g.rank) for v in g.vids()}


def class_add(a, b):
    return {v: a[v] + b[v] for v in a}


def class_scale(c, f):
    return {v: f * c[v] for v in c}


def class_mul(a, b):
    return {v: a[v] * b[v] for v in a}


def class_equal(a, b):
    return set(a) == set(b) and all(a[v] == b[v] for v in a)


# ---------------------------------------------------------------------------
# Euler classes, membership, duals

def euler_minus(ring, g, vid):
    """Product of the factors of the incoming edge labels at vid."""
    return _product(ring, g, [g.factor(ring, w) for w in g.point(vid).wplus])


def check_gkm(ring, g, c):
    """The first edge, in edge order, along which c fails edge
    divisibility; None when c satisfies it on every edge.

    Checking the oriented edges suffices: divisibility by the factors of w
    and of -w agree up to a unit.  The edges after the first failure are not
    tested.
    """
    for e in g.edges:
        diff = c[e.src] - c[e.dst]
        if not diff.is_zero() and not ring.divides(diff, e.weight):
            return e
    return None


def _leaving(ring, g, q, mask):
    """The factors of the weights at q along the edges whose far end is off
    the face given by its vertex mask: the dual of the face at q."""
    bits = g.bits
    return [g.factor(ring, w) for other, w in g.adjacency[q].items() if not bits[other] & mask]


def _dual_on(ring, g, mask, skip=None):
    """The dual of a face, given by its vertex mask, on that face alone,
    where it is nonzero, but for the vertex ``skip``, as factors: the list
    ``_leaving`` at each q of the face, in input order."""
    return {q: _leaving(ring, g, q, mask) for q in g.members(mask) if q != skip}


def _product(ring, g, factors):
    return functools.reduce(operator.mul, factors) if factors else ring.one(g.rank)


def poincare_dual(ring, g, vid):
    """Restriction table of the dual of the flow-up face at vid: zero off the
    face, the Euler factor of the missing edge directions on it."""
    mask, bits = g.face_mask(vid), g.bits
    return {v: _product(ring, g, _leaving(ring, g, v, mask)) if bits[v] & mask
            else ring.zero(g.rank) for v in g.vids()}


def is_kirwan_class(ring, g, c, vid):
    """True when c equals the negative Euler class at vid and vanishes at
    every vertex strictly below it."""
    if c[vid] != euler_minus(ring, g, vid):
        return False
    cut = g.order_index(vid)
    return all(c[v].is_zero() for v in g.vids()[:cut])


# ---------------------------------------------------------------------------
# bases

def _boundary(g, p):
    """The face coefficients of the point class at p: (-1)^|T| at the face
    F_p n (n T), for every set T of facets that meet the flow-up face F_p
    but miss p and whose intersection with F_p is not empty.  A depth-first
    search over the facets in table order; only the facets that meet the
    face reached so far can continue it."""
    fp, bit = g.face_mask(p), g.bits[p]
    coeffs = {}
    stack = [(fp, 1, [m for m in g.facets if m & fp and not m & bit])]
    while stack:
        face, sign, cuts = stack.pop()
        coeffs[face] = coeffs.get(face, 0) + sign
        for i, m in enumerate(cuts):
            sub = face & m
            if sub:
                stack.append((sub, -sign, [n for n in cuts[i + 1:] if n & sub]))
    return coeffs


def _face_sum(ring, g, coeffs, duals):
    """The class sum of c times the dual of each face in ``coeffs``, as a
    full table.  The duals are kept in ``duals`` by face mask, their values
    multiplied out, and each is added once, in place, into the term dicts of
    the values at its vertices."""
    sums, tops = {}, {}
    for mask, c in coeffs.items():
        if not c:
            continue
        dual = duals.get(mask)
        if dual is None:
            dual = duals[mask] = {q: _product(ring, g, fs)
                                  for q, fs in _dual_on(ring, g, mask).items()}
        for q, val in dual.items():
            terms = sums.setdefault(q, {})
            get = terms.get
            for e, x in val.terms.items():
                terms[e] = get(e, 0) + c * x
            tops[q] = max(tops.get(q, 0), val.top)
    return {v: ring._new(g.rank, sums[v], tops[v]) if v in sums else ring.zero(g.rank)
            for v in g.vids()}


def basis(ring, g, normalization="canonical", vids=None):
    """The canonical class at each vertex of ``vids``, all by default, or in
    K under ``point`` normalization the point class.  The H canonical
    classes, and the K ones on an index increasing orientation, are the
    flow-up duals; every other class is a face sum: the point class at p
    over ``_boundary(g, p)``, the canonical class at p over the boundaries
    of the point classes of its flow-up face.  The face duals and the
    boundaries are shared over ``vids``, and whether the orientation is
    index increasing is tested once."""
    vids = g.vids() if vids is None else vids
    point = normalization == "point" and not ring.graded
    if not point and (ring.graded or is_index_increasing(g)):
        return {p: poincare_dual(ring, g, p) for p in vids}
    duals, bounds, out = {}, {}, {}
    for p in vids:
        coeffs = {}
        for q in [p] if point else g.members(g.face_mask(p)):
            if q not in bounds:
                bounds[q] = _boundary(g, q)
            for face, c in bounds[q].items():
                coeffs[face] = coeffs.get(face, 0) + c
        out[p] = _face_sum(ring, g, coeffs, duals)
    return out


# ---------------------------------------------------------------------------
# expansion and structure constants

def triangular_expansion(g, c, basis_of):
    """Coefficients a_r with c = sum of a_r * basis_of(r), by elimination in
    increasing moment order.

    ``basis_of(r)`` is a Kirwan class at r (``is_kirwan_class``): it is the
    negative Euler class at r and vanishes below r.  It is needed only where
    a_r is nonzero, and is given off r and on its support, as a list of
    factors per vertex, the value being their product.  ``c`` may be given
    on its support alone.  Each residual is a term dict with a bound on its
    exponents.  Each step divides the residual at r by the Euler class of
    its incoming labels in one call, in the ring of the value; the class at
    r takes the value divided by, so the residual there becomes exactly
    zero and is set so, with no product built.  Then a_r times the class is
    subtracted in place from the residual at every other vertex it touches
    (``sub_product``).  The elimination runs to the end, so a nonzero
    residual or a failed division certifies that c is not in the span
    (``DivisionFailure``).
    """
    ring = next(map(type, c.values()), None)
    sums, tops = {}, {}  # vertex: its residual's terms and bound, once a step touched it
    coeffs = {}
    for r in g.vids():
        f = ring._new(g.rank, sums[r], tops[r]) if r in sums else c.get(r)
        if f is None or f.is_zero():
            continue
        wplus = g.point(r).wplus
        if wplus:
            f = f.divide(*wplus)
            if f is None:
                raise DivisionFailure(
                    f"value at {r} is not a multiple of its Euler class")
        coeffs[r] = f
        sums[r], tops[r] = {}, 0
        for v, factors in basis_of(r).items():
            if v not in sums:
                x = c.get(v)
                sums[v], tops[v] = ({}, 0) if x is None else (dict(x.terms), x.top)
            tops[v] = max(tops[v], sub_product(sums[v], f, factors))
    if any(any(terms.values()) for terms in sums.values()) \
            or any(not x.is_zero() for v, x in c.items() if v not in sums):
        raise DivisionFailure("basis does not span: nonzero residual remains")
    return coeffs


def _off(c, r):
    """The class c off the vertex r and on its support, each value a list of
    one factor: a basis class as ``triangular_expansion`` takes it."""
    return {v: [x] for v, x in c.items() if v != r and not x.is_zero()}


def expand_in_basis(ring, g, basis, c):
    """Coefficients of c in a Kirwan basis by triangular elimination in
    increasing moment order."""
    return triangular_expansion(g, c, lambda r: _off(basis[r], r))


def structure_constants(ring, g, basis):
    """Expansion coefficients of pairwise products; only pairs p <= q in the
    moment order are stored, products being symmetric.  The basis is checked
    once to be Kirwan, and the first vertex whose class is not raises
    ``DivisionFailure``.  Each expansion opens with c_pq^q = tau_p(q), and
    each class is taken on its support."""
    vids = g.vids()
    for p in vids:
        if not is_kirwan_class(ring, g, basis[p], p):
            raise DivisionFailure(f"the basis class at {p} is not a Kirwan class there")
    zero = ring.zero(g.rank)
    supp = {p: {v: x for v, x in basis[p].items() if not x.is_zero()} for p in vids}
    rest = {p: _off(supp[p], p) for p in vids}
    table = {}
    for i, p in enumerate(vids):
        tp = supp[p]
        for q in vids[i:]:
            c = tp.get(q)
            if c is None:
                prod = {v: tp[v] * x for v, x in supp[q].items() if v in tp}
            else:
                table[(p, q, q)] = c
                prod = {v: (tp.get(v, zero) - c) * x for v, x in supp[q].items() if v != q}
            for r, f in triangular_expansion(g, prod, rest.__getitem__).items():
                table[(p, q, r)] = f
    return table


# ---------------------------------------------------------------------------
# push-forward to a point

def pushforward(ring, g, c):
    """Sum of the coefficients of c in the flow-up duals whose push-forward
    is 1: every dual in K-theory, the top one in cohomology.  Raises
    ``NonPolynomialIndex`` when c is not a class.

    Each dual is taken off its own vertex as its list of Euler factors per
    vertex (``_dual_on``), so the expansion multiplies by the factors in
    place.  An H class is first scaled by the lcm D of its coefficients'
    denominators: the labels are primitive, so by Gauss's lemma every exact
    quotient of an integral value by a label is integral, the expansion runs
    in int arithmetic, and the answer is divided by D once."""
    scale = 1
    if ring.graded:
        scale = math.lcm(*{x.denominator for v in c.values() for x in v.terms.values()})
        if scale != 1:
            c = {v: x.cleared(scale) for v, x in c.items()}
    try:
        coeffs = triangular_expansion(g, c, lambda r: _dual_on(ring, g, g.face_mask(r), r))
    except DivisionFailure as exc:
        raise NonPolynomialIndex(f"push-forward of a non-class: {exc}") from exc
    total = sum((f for r, f in coeffs.items()
                 if not ring.graded or g.point(r).lam == g.rank), ring.zero(g.rank))
    return total if scale == 1 else total.scaled(Fraction(1, scale))


# ---------------------------------------------------------------------------
# local index

def local_index(ring, g, c, q):
    """Index of the class transported to the rank lam_q cut space: the
    divided difference sum_j Q(a_j) / prod_{i != j} factor(a_i - a_j) over the
    nodes a = (0, w_1, ..., w_lam), w_i the incoming labels, where Q(a) is the
    value with each w_i replaced by w_i - a.  Newton's recursion builds it by
    exact divisions.  The unit flip(-a_j) is -1 in H, giving (-1)^lam, and
    -e^{-a_j} in K, where the start values carry e^{lam a_j} so that the
    nodes are e^{a_j}.  A graded value must be homogeneous, and one of degree
    below lam integrates to zero on the cut space.

    The lattice map behind Q(a) fixes the outgoing weights and moves each
    w_i by -a, so it is the shear v -> v - <sigma, v> a with sigma = a_1 +
    ... + a_lam, the sum of the frame rows dual to the incoming labels: one
    pass over the terms per node, with no change of basis.  sigma, the node
    differences and the units are built on each call, from the vertex's
    frame and labels; nothing is kept on the graph."""
    value = c[q]
    if value.is_zero():
        return ring.zero(g.rank)
    pt = g.point(q)
    if ring.graded:
        deg = value.homogeneous_degree()
        if deg is None:
            raise ValidationError("local index needs a homogeneous restriction")
        if deg < pt.lam:
            return ring.zero(g.rank)
    sigma = tuple(map(sum, zip(*pt.frame[:pt.lam])))
    nodes = [(0,) * g.rank] + list(pt.wplus)
    units = [ring.flip(wt_neg(a)) for a in nodes]  # flip(-a_j)
    dd = [value] + [-ring.flip(wt_scale(a, pt.lam)) * ring.shear(value, sigma, a)
                    for a in pt.wplus]
    for k in range(1, len(nodes)):
        for j in range(len(nodes) - k):
            quot = ring.divide(dd[j + 1] - dd[j], wt_sub(nodes[j + k], nodes[j]))
            if quot is None:
                raise ContractError(f"local index at {q}: inexact divided difference")
            dd[j] = units[j] * quot
    return dd[0]
