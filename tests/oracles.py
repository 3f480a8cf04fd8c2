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
* ``corrected_class`` is the local-index correction walk that once built
  every basis, and ``full_structure_constants`` expands each whole product
  from the bottom vertex up;
* ``polynomial_theta`` is the jump-one ratio Theta as a product of
  projected linear forms divided exactly by the others, the reference for
  the unique factorization ``cohomology.theta`` uses;
* ``closure_face`` is the flow-up face as the span closure along edges,
  the breadth-first search that the facet masks replace;
* ``parsed_terms`` reads JSON terms entry by entry through the constructor,
  the reference for the one-pass reading of a class file's table
  (``from_table``), and ``to_terms`` is the JSON form of a value
  as plain lists, the reference for the text ``json_text`` writes;
  ``class_to_dict`` and ``basis_from_dict`` are the inverses of the
  class and basis file forms that ``serialize`` reads and writes, and
  ``graph_dict`` is the ``graph`` command's JSON form as plain data, the
  reference for the text ``serialize`` writes from the graph itself;
* ``blowup`` cuts seeded corners off simple polytopes, with the edge set the
  cuts imply, and ``cut_cube`` is the cube with one such corner cut;
* ``eliminated_graph`` is ``build_graph`` with every frame taken by its own
  elimination, as the frames were before they were pivoted.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from gkmcalc import classes as cl
from gkmcalc import gkm
from gkmcalc.errors import DivisionFailure, NonConstantQuotient, NotECanEdge, ValidationError
from gkmcalc.fixtures import cp_input, fixture_input
from gkmcalc.gkm import ToricInput, build_graph, flow_face, upward_closure
from gkmcalc.symcore import (
    RINGS,
    K,
    LaurentPoly,
    LocalizedSum,
    PolyH,
    divide_by_linear_form,
    parse_int,
    rational_primitive,
    substitute_linear,
    substitute_linear_h,
    wt_dot,
    wt_neg,
    wt_primitive,
    wt_scale,
    wt_sub,
)


def wt_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def fixture_graph(name):
    return build_graph(fixture_input(name))


def eliminated_graph(inp):
    """``build_graph`` with the pivot switched off, so that every vertex,
    walked or given by supplied edges, is inverted on its own and then
    certified as ``build_graph`` certifies it: the graph, frames and
    exceptions that the pivoted frames must reproduce."""
    pivot = gkm._pivot
    gkm._pivot = lambda *args: None
    try:
        return build_graph(inp)
    finally:
        gkm._pivot = pivot


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
        out[p.id] = value.shear(p.edge_dual, p.edge_weight)
    return out


# ---------------------------------------------------------------------------
# the jump-one ratio

def polynomial_theta(g, edge):
    """Theta on a jump-one edge: the product of the projected linear forms
    of the weights at the lower end, divided exactly by those at the top
    end without the edge's own weight, which must leave a constant."""
    lam1, lam2 = g.point(edge.src).lam, g.point(edge.dst).lam
    if lam2 != lam1 + 1:
        raise NotECanEdge(f"edge {edge.src}->{edge.dst} jumps {lam2 - lam1}")
    w = edge.weight
    w_xi = wt_dot(w, g.xi)

    def projected(u):
        return wt_sub(wt_scale(u, w_xi), wt_scale(w, wt_dot(u, g.xi)))

    quot = PolyH.one(g.rank)
    for u in g.point(edge.src).wplus:
        quot = quot * PolyH.linear_form(projected(u))
    upper = list(g.point(edge.dst).wplus)
    upper.remove(w)
    scale = Fraction(1)
    for u in upper:
        prim, content = wt_primitive(projected(u))
        quot = divide_by_linear_form(quot, prim)
        if quot is None:
            raise NonConstantQuotient(
                f"projected factor does not divide on {edge.src}->{edge.dst}")
        scale *= content
    terms = list(quot.sorted_terms())
    if len(terms) != 1 or any(terms[0][0]):
        raise NonConstantQuotient(f"ratio on {edge.src}->{edge.dst} is not constant")
    return terms[0][1] / scale


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


def corrected_class(ring, g, p, face):
    """The flow-up dual at p corrected along the upward closure, one dual at
    a time, until its local index is 1 on ``face`` and 0 at every other
    vertex."""
    a = cl.poincare_dual(ring, g, p)
    for q in upward_closure(g, p)[1:]:
        want = ring.one(g.rank) if q in face else ring.zero(g.rank)
        delta = want - cl.local_index(ring, g, a, q)
        if not delta.is_zero():
            a = cl.class_add(a, cl.class_scale(cl.poincare_dual(ring, g, q), delta))
    return a


def closure_face(g, vid):
    """Vertex set of the flow-up face through vid as the span closure: the
    face's normals are the frame rows of the positive weights, and an edge
    stays in the face when every normal vanishes on its label."""
    p = g.point(vid)
    normals = p.frame[:p.lam]
    reach = {vid}
    stack = [vid]
    while stack:
        v = stack.pop()
        for other, w in g.adjacency[v].items():
            if other not in reach and not any(wt_dot(a, w) for a in normals):
                reach.add(other)
                stack.append(other)
    return frozenset(reach)


def parsed_terms(ring, rank, items):
    """The value of JSON terms, each exponent entry read by ``parse_int``
    and every term checked by the constructor."""
    terms = {}
    for c, e in items:
        if not isinstance(e, (list, tuple)):
            raise ValidationError(f"exponent {e!r} is not an array")
        terms[tuple(map(parse_int, e))] = ring.parse_coeff(c)
    return ring(rank, terms)


def to_terms(v):
    """The JSON form of a ring value, [coefficient string, exponent list]
    pairs in exponent order: what ``json_text`` writes, as plain lists."""
    return [[v.format_coeff(c), list(e)] for e, c in v.sorted_terms()]


def class_to_dict(c, mode):
    """The data of a class file, the inverse of ``class_from_dict``."""
    return {"mode": mode, "class": c}


def graph_dict(g):
    """The data of ``graph --format json``, built as a dict."""
    return {
        "rank": g.rank,
        "xi": g.xi,
        "vertices": [
            {
                "id": p.id,
                "psi": [str(x) for x in p.psi],
                "mu": str(p.mu),
                "lambda": p.lam,
                "wplus": list(p.wplus),
            }
            for p in g.points
        ],
        "edges": [
            {"src": e.src, "dst": e.dst, "weight": e.weight, "mult": str(e.mult)}
            for e in g.edges
        ],
        "index_increasing": not gkm.index_violations(g),
    }


def basis_from_dict(data, rank):
    """A basis file's data, ``{"mode": ..., "basis": {vid: class}}`` as the
    basis commands write it, read back: the basis and its mode."""
    mode = data.get("mode", "ktheory")
    ring = RINGS[mode]
    return {vid: {q: ring.from_terms(rank, items) for q, items in tbl.items()}
            for vid, tbl in data["basis"].items()}, mode


def full_structure_constants(ring, g, basis):
    """c_pq^r for p <= q in the moment order, each whole product expanded by
    triangular elimination over full restriction tables: the coefficient
    at r is the residual at r over the Euler class there, and that multiple
    of the whole class at r, its own vertex too, is subtracted everywhere,
    so nothing rests on the basis being Kirwan."""
    vids = g.vids()
    table = {}
    for i, p in enumerate(vids):
        for q in vids[i:]:
            residual = cl.class_mul(basis[p], basis[q])
            for r in vids:
                if residual[r].is_zero():
                    continue
                f = residual[r]
                for w in g.point(r).wplus:  # one label at a time
                    f = f.divide(w)
                    if f is None:
                        raise DivisionFailure(f"value at {r} is not a multiple of its Euler class")
                table[(p, q, r)] = f
                residual = cl.class_add(residual, cl.class_scale(basis[r], -f))
            if any(not x.is_zero() for x in residual.values()):
                raise DivisionFailure("basis does not span: nonzero residual remains")
    return table


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


def cut_cube():
    """Vertices and edges of the unit cube with the corner (0,0,1) cut at
    lattice distance 1/3."""
    verts, edges = product_polytope(BASES["cube3"])
    corner = next(v for v, psi in verts.items() if psi == (0, 0, 1))
    return cut_corner(verts, edges, corner, Fraction(1, 3))


def polytope_input(verts):
    rank = len(next(iter(verts.values())))
    return ToricInput(rank=rank, vertices=sorted(verts.items()))


def polytope_json(verts):
    """The graph file form of the vertices, without edges."""
    return {"rank": len(next(iter(verts.values()))),
            "vertices": [{"id": v, "psi": [str(x) for x in psi]}
                         for v, psi in sorted(verts.items())]}
