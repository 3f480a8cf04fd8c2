"""Equivariant K-theory classes: expansion and structure constants.

A class is a plain dict mapping vertex id to a ``LaurentPoly`` of the graph's
rank.  The constructions shared with cohomology (Euler classes, the edge
divisibility check, duals of flow-up faces, the push-forward, the local
index and the canonical and point-normalized bases) live in ``classes`` over
the ring ``K``; the names below bind them.  This module adds triangular
expansion in a Kirwan basis, structure constants and the CP^n product-formula
fixture.
"""

from __future__ import annotations

from functools import partial

from . import classes as cl
from .classes import class_add, class_equal, class_mul, class_scale
from .errors import ContractError
from .gkm import flow_face, triangular_expansion
from .symcore import K, LaurentPoly, divide_by_cyclotomic, wt_sub

zero_class = partial(cl.zero_class, K)
one_class = partial(cl.one_class, K)
check_gkm_k = partial(cl.check_gkm, K)
poincare_dual_k = partial(cl.poincare_dual, K)
atiyah_segal_index = partial(cl.pushforward, K)
local_index_parts = partial(cl.local_index_parts, K)
local_index_k = partial(cl.local_index, K)
icanonical_basis_k = partial(cl.basis, K)
point_normalized_basis_k = partial(cl.basis, K, normalization="point")


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
