"""Restriction tables over a coefficient ring.

A class is a plain dict mapping vertex id to a value of a ring from
``symcore``: ``K`` (a ``LaurentPoly``) or ``H`` (a ``PolyH``).  Every
construction on classes is written here once, for both rings: the class
helpers, the negative Euler class, the edge divisibility check, duals of
flow-up faces, the Kirwan test, the canonical classes, expansion in a Kirwan
basis, structure constants, the push-forward to a point and the local index.
They differ only in what the ring supplies, chiefly the factor attached to a
weight: ``1 - e^w`` in K-theory and ``<w, x>`` in cohomology.

A canonical class is the flow-up dual at its vertex corrected along the
upward closure, one dual at a time, until its local indices are the
prescribed ones: 1 on the flow-up face in K (``canonical``), 1 at the vertex
alone in K (``point``) and in H.  In H the walk finds nothing to correct:
the duals already have that profile, which ``verify --level full`` checks.

The structure constants c_pq^r, the coefficients of tau_p tau_q in the
canonical basis, come from the same triangular elimination in K and in H; in
H each is an integral polynomial of degree lam_p + lam_q - lam_r.

The push-forward expands the class in the flow-up duals, which is also the
membership test.  In K-theory every dual is the class of the structure sheaf
of a toric subvariety and has index 1; in cohomology only the point class at
the top vertex has a nonzero integral, 1.  The local index at q is a
lam_q-th divided difference of the value at q, built by Newton's recursion
with one exact division per step; its nodes are shears of the value along
the vertex's frame.
"""

from __future__ import annotations

from .errors import ContractError, DivisionFailure, NonPolynomialIndex, ValidationError
from .gkm import flow_face, is_index_increasing, triangular_expansion, upward_closure
from .symcore import wt_neg, wt_scale, wt_sub


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
    out = ring.one(g.rank)
    for w in g.point(vid).wplus:
        out = out * ring.factor(w)
    return out


def check_gkm(ring, g, c):
    """List of (edge, difference) pairs violating edge divisibility.

    Checking the oriented edges suffices: divisibility by the factors of w
    and of -w agree up to a unit.
    """
    bad = []
    for e in g.edges:
        diff = c[e.src] - c[e.dst]
        if not diff.is_zero() and not ring.divides(diff, e.weight):
            bad.append((e, diff))
    return bad


def poincare_dual(ring, g, vid):
    """Restriction table of the dual of the flow-up face at vid: zero off the
    face, the Euler factor of the missing edge directions on it."""
    face = flow_face(g, vid)
    c = zero_class(ring, g)
    for q in face:
        val = ring.one(g.rank)
        for other, _e in g.incident(q):
            if other not in face:
                val = val * ring.factor(g.weight_toward(other, q))
        c[q] = val
    return c


def is_kirwan_class(ring, g, c, vid):
    """True when c equals the negative Euler class at vid and vanishes at
    every vertex strictly below it."""
    if c[vid] != euler_minus(ring, g, vid):
        return False
    cut = g.order_index(vid)
    return all(c[v].is_zero() for v in g.vids()[:cut])


# ---------------------------------------------------------------------------
# canonical classes

def canonical_class(ring, g, p, normalization="canonical", eta=None):
    """The Kirwan class at p with local index 1 on the flow-up face of p
    (K, ``canonical``) or at p alone (K ``point``, and H for both) and 0 at
    every other vertex.  The flow-up dual at p is corrected along the upward
    closure: at each q the local index is made what it should be by adding a
    multiple of the dual at q.  On an index increasing orientation the K
    canonical class is the dual itself.  ``eta`` gives the flow-up dual at a
    vertex, by default built on demand."""
    eta = eta or (lambda r: poincare_dual(ring, g, r))
    if normalization == "point" or ring.graded:
        face = {p}
    elif is_index_increasing(g):
        return eta(p)
    else:
        face = flow_face(g, p)
    a = dict(eta(p))
    for q in upward_closure(g, p)[1:]:
        want = ring.one(g.rank) if q in face else ring.zero(g.rank)
        delta = want - local_index(ring, g, a, q)
        if not delta.is_zero():
            a = class_add(a, class_scale(eta(q), delta))
    return a


def basis(ring, g, normalization="canonical"):
    """The canonical class at every vertex, sharing the flow-up duals."""
    etas = {p: poincare_dual(ring, g, p) for p in g.vids()}
    return {p: canonical_class(ring, g, p, normalization, etas.__getitem__)
            for p in g.vids()}


# ---------------------------------------------------------------------------
# expansion and structure constants

def expand_in_basis(ring, g, basis, c):
    """Coefficients of c in a Kirwan basis by triangular elimination in
    increasing moment order."""
    return triangular_expansion(g, c, basis.__getitem__, ring.divide)


def structure_constants(ring, g, basis):
    """Expansion coefficients of pairwise products; only pairs p <= q in the
    moment order are stored, products being symmetric."""
    vids = g.vids()
    table = {}
    for i, p in enumerate(vids):
        for q in vids[i:]:
            prod = class_mul(basis[p], basis[q])
            for r, f in expand_in_basis(ring, g, basis, prod).items():
                table[(p, q, r)] = f
    return table


# ---------------------------------------------------------------------------
# push-forward to a point

def pushforward(ring, g, c):
    """Sum of the coefficients of c in the flow-up duals whose push-forward
    is 1: every dual in K-theory, the top one in cohomology.  Raises
    ``NonPolynomialIndex`` when c is not a class."""
    try:
        coeffs = triangular_expansion(
            g, c, lambda r: poincare_dual(ring, g, r), ring.divide)
    except DivisionFailure as exc:
        raise NonPolynomialIndex(f"push-forward of a non-class: {exc}") from exc
    return sum((f for r, f in coeffs.items()
                if not ring.graded or g.point(r).lam == g.rank), ring.zero(g.rank))


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
    pass over the terms per node, with no change of basis."""
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
    dd = [value] + [-ring.flip(wt_scale(a, pt.lam)) * ring.shear(value, sigma, a)
                    for a in pt.wplus]
    for k in range(1, len(nodes)):
        for j in range(len(nodes) - k):
            quot = ring.divide(dd[j + 1] - dd[j], wt_sub(nodes[j + k], nodes[j]))
            if quot is None:
                raise ContractError(f"local index at {q}: inexact divided difference")
            dd[j] = ring.flip(wt_neg(nodes[j])) * quot
    return dd[0]
