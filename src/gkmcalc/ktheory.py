"""Equivariant K-theory classes: the canonical bases and structure constants.

A class is a plain dict mapping vertex id to a ``LaurentPoly`` of the graph's
rank.  The constructions shared with cohomology (Euler classes, the edge
divisibility check, duals of flow-up faces, the push-forward and the local
index) live in ``classes`` over the ring ``K``; the names below bind them.
This module builds the canonical basis in both the index increasing and the
general case, the point-normalized basis, triangular expansion in a Kirwan
basis, structure constants and the CP^n product-formula fixture.
"""

from __future__ import annotations

from functools import partial

from . import classes as cl
from .classes import class_add, class_equal, class_mul, class_scale
from .errors import ContractError
from .gkm import flow_face, is_index_increasing, triangular_expansion, upward_closure
from .symcore import K, LaurentPoly, divide_by_cyclotomic, wt_sub

zero_class = partial(cl.zero_class, K)
one_class = partial(cl.one_class, K)
check_gkm_k = partial(cl.check_gkm, K)
poincare_dual_k = partial(cl.poincare_dual, K)
atiyah_segal_index = partial(cl.pushforward, K)
local_index_parts = partial(cl.local_index_parts, K)
local_index_k = partial(cl.local_index, K)


# ---------------------------------------------------------------------------
# canonical bases

def _adjusted_class(g, p, eta, target):
    """Run the inductive correction along the upward closure of p until the
    local index is 1 where ``target`` holds and 0 elsewhere; ``eta`` gives
    the flow-up dual at a vertex."""
    a = dict(eta(p))
    for q in upward_closure(g, p)[1:]:
        ind = local_index_k(g, a, q)
        want = LaurentPoly.one(g.rank) if target(q) else LaurentPoly.zero(g.rank)
        delta = want - ind
        if not delta.is_zero():
            a = class_add(a, class_scale(eta(q), delta))
    return a


def canonical_class(g, p, eta=None, force_inductive=False):
    """The unique Kirwan class at p whose local index is 1 on the flow-up
    face of p and 0 elsewhere.  For an index increasing orientation it is
    the flow-up dual; otherwise the dual is corrected inductively along the
    upward closure.  ``eta`` gives the flow-up dual at a vertex, by default
    built on demand."""
    eta = eta or partial(poincare_dual_k, g)
    if is_index_increasing(g) and not force_inductive:
        return eta(p)
    face = flow_face(g, p, "up")
    return _adjusted_class(g, p, eta, lambda q: q in face)


def icanonical_basis_k(g, force_inductive=False):
    """The canonical class at every vertex, sharing the flow-up duals."""
    etas = {p: poincare_dual_k(g, p) for p in g.vids()}
    return {p: canonical_class(g, p, etas.__getitem__, force_inductive) for p in g.vids()}


def point_class(g, p, eta=None):
    """Kirwan class at p with local index 1 at p alone and 0 at every other
    vertex, built with the same inductive correction."""
    return _adjusted_class(g, p, eta or partial(poincare_dual_k, g), lambda q: q == p)


def point_normalized_basis_k(g):
    """The point-normalized class at every vertex."""
    etas = {p: poincare_dual_k(g, p) for p in g.vids()}
    return {p: point_class(g, p, etas.__getitem__) for p in g.vids()}


def basis(g, normalization="canonical"):
    """The basis ``basis --normalization`` names: canonical or point."""
    if normalization == "point":
        return point_normalized_basis_k(g)
    return icanonical_basis_k(g)


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
