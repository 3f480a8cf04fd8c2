"""Reference code that only the tests call.

Each function here is an independent route to something the package
computes another way, or a fixture builder:

* ``localized_sum`` is the unreduced fixed point formula for the
  push-forward, and ``local_index_parts`` the cut space fixed point sum
  behind the local index; ``eval_k``/``eval_h`` specialize such a sum at a
  number, ``eval_laurent``/``eval_poly`` a single value;
* ``substitute`` is the general lattice substitution the shears are checked
  against, and ``restrict_from_sources`` the Kirwan restriction taken from
  the lower end of each cut edge;
* ``cpn_prequantization_basis`` and ``hirzebruch_reference_basis`` are
  closed-form canonical classes;
* ``blowup`` cuts seeded corners off simple polytopes, with the edge set the
  cuts imply.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from gkmcalc import classes as cl
from gkmcalc.fixtures import cp_input, fixture_input
from gkmcalc.gkm import ToricInput, build_graph, flow_face
from gkmcalc.symcore import (
    K,
    LaurentPoly,
    LocalizedSum,
    rational_primitive,
    substitute_linear,
    substitute_linear_h,
    wt_dot,
    wt_neg,
    wt_sub,
)


def wt_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def fixture_graph(name):
    return build_graph(fixture_input(name))


def support(c):
    return {v for v, val in c.items() if not val.is_zero()}


def substitute(ring, p, basis, images):
    """The ring map induced by the lattice map basis -> images."""
    return (substitute_linear if ring is K else substitute_linear_h)(p, basis, images)


# ---------------------------------------------------------------------------
# fixed point sums and their numeric specialization

def localized_sum(ring, g, c):
    """The unreduced fixed point formula for the push-forward."""
    s = LocalizedSum(ring.mode, g.rank)
    for p in g.points:
        s.add_term(c[p.id], p.wplus + p.wminus)
    return s


def lift(w):
    """Append a zero coordinate."""
    return tuple(w) + (0,)


def local_index_parts(ring, g, c, q):
    """Substituted restrictions and denominator weight sets of the cut space
    fixed point sum at q, over the rank+1 lattice with the auxiliary
    coordinate w_0 last; their sum at w_0 = 0 is ``classes.local_index``.

    With lam = lam_q and w_1..w_lam the incoming labels at q, the class value
    is rewritten through the lattice basis (w_1..w_n):

      f_0 shifts each w_i (i <= lam) by the auxiliary weight,
      f_j sends w_j to 0 and w_i to w_i - w_j for the other i <= lam,

    and the cut space fixed points carry the weight tuples
      {w_0 + w_i} at the zeroth point,
      {-(w_j + w_0)} + {w_i - w_j : i != j} at the j-th.
    """
    pt = g.point(q)
    wplus = list(pt.wplus)
    basis = wplus + list(pt.wminus)
    rest = [lift(w) for w in pt.wminus]
    w0 = (0,) * g.rank + (1,)
    shifted = [wt_add(lift(w), w0) for w in wplus]
    fs = [substitute(ring, c[q], basis, shifted + rest)]
    dens = [shifted]
    for j, wj in enumerate(wplus):
        diffs = [lift(wt_sub(w, wj)) for w in wplus]
        fs.append(substitute(ring, c[q], basis, diffs + rest))
        dens.append([wt_neg(shifted[j])] + diffs[:j] + diffs[j + 1:])
    return fs, dens


def eval_laurent(p, base, xi):
    """Specialize e^v -> base ** <v, xi>; base a nonzero Fraction."""
    return sum((c * Fraction(base) ** wt_dot(e, xi) for e, c in p.sorted_terms()),
               Fraction(0))


def eval_poly(p, point):
    total = Fraction(0)
    for e, c in p.sorted_terms():
        for x, d in zip(point, e):
            if d:
                c *= Fraction(x) ** d
        total += c
    return total


def _eval(s, mode, value, factor):
    if s.mode != mode:
        raise ValueError(f"{mode} specialization of a {s.mode} mode sum")
    total = Fraction(0)
    for numer, den in s.terms:
        val = value(numer)
        for w, m in den.items():
            d = factor(w)
            if d == 0:
                raise ValueError("specialization point kills a denominator")
            val /= d ** m
        total += val
    return total


def eval_k(s, base, xi):
    """A K ``LocalizedSum`` at e^v -> base ** <v, xi>."""
    return _eval(s, "K", lambda p: eval_laurent(p, base, xi),
                 lambda w: 1 - Fraction(base) ** wt_dot(w, xi))


def eval_h(s, point):
    """An H ``LocalizedSum`` at x = point."""
    return _eval(s, "H", lambda p: eval_poly(p, point),
                 lambda w: Fraction(wt_dot(w, point)))


# ---------------------------------------------------------------------------
# reductions

def restrict_from_sources(setup, c):
    """The reduced class at every reduced point, restricted from the lower
    end of its cut edge instead of the top vertex."""
    out = {}
    for p in setup.points:
        value = c[p.source]
        out[p.id] = value.ring.shear(value, p.edge_dual, p.edge_weight)
    return out


# ---------------------------------------------------------------------------
# closed-form canonical classes

def cpn_prequantization_basis(n):
    """The simplex fixture together with the product-formula classes

        tau_p(s) = prod over q below p of (1 - e^(psi(s) - psi(q)))

    on the flow-up of p and zero elsewhere."""
    g = build_graph(cp_input(n))
    vids = g.vids()
    basis = {}
    for k, p in enumerate(vids):
        face = flow_face(g, p)
        c = cl.zero_class(K, g)
        for s in face:
            val = LaurentPoly.one(n)
            for q in vids[:k]:
                expo = tuple(int(x) for x in wt_sub(g.psi(s), g.psi(q)))
                val = val * (1 - LaurentPoly.monomial(expo))
            c[s] = val
        basis[p] = c
    return g, basis


def hirzebruch_reference_basis(g):
    """Reference class set for the trapezoid: the trivial class at the
    minimum together with the point-normalized classes at the other three
    vertices."""
    point = cl.basis(K, g, "point")
    return {p: cl.one_class(K, g) if i == 0 else point[p] for i, p in enumerate(g.vids())}


# ---------------------------------------------------------------------------
# toric blow-ups

def _simplex(m):
    verts = [(0,) * m] + [tuple(int(i == j) for j in range(m)) for i in range(m)]
    return verts, set(itertools.combinations(range(m + 1), 2))


F1 = [(0, 0), (1, 0), (1, 1), (0, 2)], {(0, 1), (1, 2), (2, 3), (0, 3)}
BASES = {
    "cp2": [_simplex(2)],
    "F1": [F1],
    "cube3": [_simplex(1)] * 3,
    "cp3": [_simplex(3)],
    "cp2xcp1": [_simplex(2), _simplex(1)],
}


def product_polytope(factors):
    """Vertices {id: psi} and edges {frozenset of two ids} of a product of
    polygons and simplices: an edge moves one factor along one of its
    edges."""
    combos = list(itertools.product(*(range(len(v)) for v, _ in factors)))
    ids = {combo: f"v{i}" for i, combo in enumerate(combos)}
    verts = {ids[combo]: tuple(Fraction(x) for k, i in enumerate(combo) for x in factors[k][0][i])
             for combo in combos}
    edges = set()
    for combo in combos:
        for k, (_, fedges) in enumerate(factors):
            for i, j in fedges:
                if combo[k] == i:
                    other = combo[:k] + (j,) + combo[k + 1:]
                    edges.add(frozenset((ids[combo], ids[other])))
    return verts, edges


def cut_corner(verts, edges, v, t):
    """Replace vertex v by one new vertex at lattice distance t along each
    primitive edge direction at v (t below every edge's lattice length), the
    new vertices pairwise joined: the toric blow-up at v.  Mutates and
    returns the polytope."""
    nbrs = sorted(u for e in edges if v in e for u in e if u != v)
    new = []
    for u in nbrs:
        prim, length = rational_primitive(wt_sub(verts[u], verts[v]))
        if not 0 < t < length:
            raise ValueError(f"cut {t} does not fit the edge {v}-{u} of length {length}")
        nid = f"{v}.{u}"
        verts[nid] = tuple(x + t * y for x, y in zip(verts[v], prim))
        edges.add(frozenset((nid, u)))
        new.append(nid)
    del verts[v]
    edges -= {e for e in edges if v in e}
    edges |= {frozenset(pair) for pair in itertools.combinations(new, 2)}
    return verts, edges


def blowup(r, base, cuts):
    """``cuts`` seeded corner cuts composed on the named base polytope, each
    at a random vertex and a random fraction of its shortest edge."""
    verts, edges = product_polytope(BASES[base])
    for _ in range(cuts):
        v = r.choice(sorted(verts))
        shortest = min(rational_primitive(wt_sub(verts[u], verts[v]))[1]
                       for e in edges if v in e for u in e if u != v)
        cut_corner(verts, edges, v, shortest * Fraction(r.randint(1, 3), 4))
    return verts, edges


def polytope_input(verts):
    rank = len(next(iter(verts.values())))
    return ToricInput(rank=rank, vertices=sorted(verts.items()))


def polytope_json(verts):
    """The graph file form of the vertices, without edges."""
    return {"rank": len(next(iter(verts.values()))),
            "vertices": [{"id": v, "psi": [str(x) for x in psi]}
                         for v, psi in sorted(verts.items())]}
