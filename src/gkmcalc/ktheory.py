"""Equivariant K-theory classes as fixed-point restriction tables.

A class is a plain dict mapping vertex id to a ``LaurentPoly`` of the graph's
rank.  The module provides Euler classes, the edge divisibility check,
duals of flow-up faces, the push-forward to a point, the local index at a
vertex, the canonical basis construction in both the index increasing and
the general case, triangular expansion in a Kirwan basis and structure
constants.

The push-forward expands the class triangularly in the flow-up duals (the
Kirwan-basis expansion) and sums the coefficients: each dual is the class of
the structure sheaf of a toric subvariety and has index 1.  The expansion is
also the membership test.  The fixed point formula (``as_localized_sum``)
stays as an independent oracle and drives the local index.
"""

from __future__ import annotations

from .errors import ContractError, DivisionFailure, GKMViolation, NonPolynomialIndex
from .gkm import flow_face, is_index_increasing, triangular_expansion, upward_closure
from .symcore import (
    LaurentPoly,
    LocalizedSum,
    Irreducible,
    divide_by_cyclotomic,
    substitute_linear,
    wt_add,
    wt_lift,
    wt_neg,
    wt_sub,
)


# ---------------------------------------------------------------------------
# class-table helpers

def zero_class(g):
    return {v: LaurentPoly.zero(g.rank) for v in g.vids()}


def one_class(g):
    return {v: LaurentPoly.one(g.rank) for v in g.vids()}


def class_add(a, b):
    return {v: a[v] + b[v] for v in a}


def class_scale(c, f):
    return {v: f * c[v] for v in c}


def class_mul(a, b):
    return {v: a[v] * b[v] for v in a}


def class_equal(a, b):
    return set(a) == set(b) and all(a[v] == b[v] for v in a)


def support(c):
    return {v for v, val in c.items() if not val.is_zero()}


# ---------------------------------------------------------------------------
# Euler classes and the membership test

def euler_minus_k(g, vid):
    """Product of (1 - e^w) over the incoming edge labels at vid."""
    out = LaurentPoly.one(g.rank)
    for w in g.point(vid).wplus:
        out = out * LaurentPoly.one_minus(w)
    return out


def check_gkm_k(g, c):
    """List of (edge, difference) pairs violating edge divisibility.

    Checking the oriented edges suffices: divisibility by 1 - e^w and by
    1 - e^-w agree up to a unit.
    """
    bad = []
    for e in g.edges:
        diff = c[e.src] - c[e.dst]
        if diff.is_zero():
            continue
        if divide_by_cyclotomic(diff, e.weight) is None:
            bad.append((e, diff))
    return bad


def assert_gkm_k(g, c):
    bad = check_gkm_k(g, c)
    if bad:
        raise GKMViolation(bad[0][0], bad[0][1])


def poincare_dual_k(g, vid):
    """Restriction table of the dual of the flow-up face at vid: zero off the
    face, the Euler factor of the missing edge directions on it."""
    face = flow_face(g, vid, "up")
    c = zero_class(g)
    for q in face:
        val = LaurentPoly.one(g.rank)
        for other, _e in g.incident(q):
            if other not in face:
                val = val * LaurentPoly.one_minus(g.weight_toward(other, q))
        c[q] = val
    return c


def is_kirwan_class(g, c, vid):
    """True when c equals the negative Euler class at vid and vanishes at
    every vertex strictly below it."""
    if c[vid] != euler_minus_k(g, vid):
        return False
    cut = g.order_index(vid)
    return all(c[v].is_zero() for v in g.vids()[:cut])


# ---------------------------------------------------------------------------
# fixed point push-forward

def _denominator_at(g, vid):
    """Isotropy weights at vid: incoming labels plus negated outgoing."""
    return list(g.weights_at(vid))


def atiyah_segal_index(g, c):
    """Push-forward to a point: the sum of the coefficients of c in the
    flow-up duals.  Raises ``NonPolynomialIndex`` when c is not a class."""
    try:
        coeffs = triangular_expansion(
            g, c, lambda r: poincare_dual_k(g, r), divide_by_cyclotomic)
    except DivisionFailure as exc:
        raise NonPolynomialIndex(f"push-forward of a non-class: {exc}") from exc
    return sum(coeffs.values(), LaurentPoly.zero(g.rank))


def as_localized_sum(g, c):
    """The unreduced push-forward expression (for oracle-style tests)."""
    s = LocalizedSum("K", g.rank)
    for v in g.vids():
        s.add_term(c[v], _denominator_at(g, v))
    return s


# ---------------------------------------------------------------------------
# local index

def local_index_parts(g, c, q):
    """Substituted restrictions and denominator weight sets for the local
    index at q, over the rank+1 lattice with the auxiliary coordinate last.

    With lam = lam_q and w_1..w_lam the incoming labels at q, the class value
    is rewritten through the lattice basis (w_1..w_n):

      f_0 shifts each w_i (i <= lam) by the auxiliary weight,
      f_j sends w_j to 0 and w_i to w_i - w_j for the other i <= lam,

    and the cut space fixed points carry the weight tuples
      {w_0 + w_i} at the zeroth point,
      {-(w_j + w_0)} + {w_i - w_j : i != j} at the j-th.
    """
    pt = g.point(q)
    lam = pt.lam
    n = g.rank
    wplus = list(pt.wplus)
    wrest = list(pt.wminus)
    basis = wplus + wrest
    w0 = (0,) * n + (1,)
    value = c[q]

    images0 = [wt_add(wt_lift(w), w0) for w in wplus] + [wt_lift(w) for w in wrest]
    fs = [substitute_linear(value, basis, images0)]
    for j in range(lam):
        images = []
        for i, w in enumerate(wplus):
            if i == j:
                images.append((0,) * (n + 1))
            else:
                images.append(wt_lift(wt_sub(w, wplus[j])))
        images += [wt_lift(w) for w in wrest]
        fs.append(substitute_linear(value, basis, images))

    dens = [[wt_add(wt_lift(w), w0) for w in wplus]]
    for i in range(lam):
        ws = [wt_neg(wt_add(wt_lift(wplus[i]), w0))]
        ws += [wt_lift(wt_sub(wplus[t], wplus[i])) for t in range(lam) if t != i]
        dens.append(ws)
    return fs, dens


def local_index_k(g, c, q):
    """Index of the class transported to the rank lam_q cut space, with the
    auxiliary weight then set to zero."""
    if c[q].is_zero():
        return LaurentPoly.zero(g.rank)
    fs, dens = local_index_parts(g, c, q)
    s = LocalizedSum("K", g.rank + 1)
    for f, den in zip(fs, dens):
        s.add_term(f, den)
    out = s.reduce()
    if isinstance(out, Irreducible):
        raise NonPolynomialIndex(f"local index at {q} is not a polynomial")
    return out.drop_last_coordinate()


# ---------------------------------------------------------------------------
# canonical bases

def _adjusted_class(g, p, etas, target):
    """Run the inductive correction along the upward closure of p until the
    local index profile matches ``target`` (a vid -> 0/1 map on it)."""
    vplus = upward_closure(g, p)
    a = dict(etas[p])
    for q in vplus[1:]:
        ind = local_index_k(g, a, q)
        want = LaurentPoly.one(g.rank) if target[q] else LaurentPoly.zero(g.rank)
        delta = want - ind
        if not delta.is_zero():
            a = class_add(a, class_scale(etas[q], delta))
    return a


def icanonical_basis_k(g, force_inductive=False):
    """The unique Kirwan classes whose local index is 1 on the flow-up face
    and 0 elsewhere.  For an index increasing orientation these are the
    flow-up duals; otherwise each dual is corrected inductively along its
    upward closure."""
    etas = {p: poincare_dual_k(g, p) for p in g.vids()}
    if is_index_increasing(g) and not force_inductive:
        return etas
    basis = {}
    for p in g.vids():
        face = flow_face(g, p, "up")
        target = {q: (1 if q in face else 0) for q in upward_closure(g, p)}
        basis[p] = _adjusted_class(g, p, etas, target)
    return basis


def point_normalized_basis_k(g):
    """Kirwan classes with local index 1 at the base vertex alone and 0 at
    every other vertex, built with the same inductive correction."""
    etas = {p: poincare_dual_k(g, p) for p in g.vids()}
    basis = {}
    for p in g.vids():
        target = {q: (1 if q == p else 0) for q in upward_closure(g, p)}
        basis[p] = _adjusted_class(g, p, etas, target)
    return basis


def local_index_profile(g, c):
    return {q: local_index_k(g, c, q) for q in g.vids()}


# ---------------------------------------------------------------------------
# expansion and structure constants

def expand_in_basis(g, basis, c):
    """Coefficients of c in a Kirwan basis by triangular elimination in
    increasing moment order."""
    return triangular_expansion(g, c, basis.__getitem__, divide_by_cyclotomic)


def structure_constants(g, basis):
    """Expansion coefficients of pairwise products; only pairs p <= q in the
    moment order are stored, products being symmetric."""
    vids = g.vids()
    table = {}
    for i, p in enumerate(vids):
        for q in vids[i:]:
            prod = class_mul(basis[p], basis[q])
            for r, f in expand_in_basis(g, basis, prod).items():
                table[(p, q, r)] = f
    return table


# ---------------------------------------------------------------------------
# projective space fixture classes

def cpn_prequantization_basis(n):
    """The simplex fixture together with the product-formula classes

        tau_p(s) = prod over q below p of (1 - e^(psi(s) - psi(q)))

    on the flow-up of p and zero elsewhere; raises ``ContractError`` unless
    they coincide with the canonical basis."""
    from .fixtures import cp_input  # local import to avoid a cycle
    from .gkm import build_graph

    g = build_graph(cp_input(n))
    vids = g.vids()
    basis = {}
    for k, p in enumerate(vids):
        face = flow_face(g, p, "up")
        c = zero_class(g)
        for s in vids:
            if s not in face:
                continue
            val = LaurentPoly.one(n)
            for q in vids[:k]:
                diff = wt_sub(g.psi(s), g.psi(q))
                expo = tuple(int(x) for x in diff)
                val = val * (1 - LaurentPoly.monomial(expo))
            c[s] = val
        basis[p] = c
    canonical = icanonical_basis_k(g)
    for p in vids:
        if not class_equal(basis[p], canonical[p]):
            raise ContractError(f"product-formula class at {p} is not canonical")
    return g, basis
