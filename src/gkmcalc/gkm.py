"""Moment graphs of toric manifolds.

Input is a list of vertices with exact rational moment images, optionally an
explicit edge list and a direction vector.  The polytope one-skeleton is
recovered by a walk along the edges that certifies the tangent cone at every
vertex it reaches, in O(V^2 n^2) exact integer operations for V vertices in
rank n; each vertex is checked for the lattice-basis condition, edges are
oriented along a generic direction and the combinatorial derived data
(indices, flow faces, upward closures) is computed.  The graph is built in
integer arithmetic: the points are scaled once, by the lcm of their
denominators, and only the moment values ``mu`` and edge lengths ``mult`` are
divided back into rationals.  The triangular elimination of a class in a
Kirwan basis, which follows the moment order, is shared here by the K and H
sides.

The inverse that the lattice-basis check computes at a vertex is kept as the
vertex's ``frame``: the rows a_i with <a_i, w_j> = delta_ij over its weights
``wplus + wminus``.  The flow-up faces read their normals from it, and the
local index builds its lattice maps from it, so no elimination runs after
the graph is built.  Only flow-up faces are computed: the flow-down face of
a vertex is its flow-up face in the graph oriented by -xi.

Conventions, used consistently everywhere downstream:

* the label of the oriented edge p -> q is the primitive vector along
  psi(q) - psi(p), so it pairs positively with the chosen direction;
* the isotropy weights at a vertex are the labels of its incoming edges
  together with the negated labels of its outgoing edges, so the minimum
  carries only negative weights and ``wplus`` matches the incoming labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ContractError,
    DivisionFailure,
    NotAPolytopeSkeleton,
    NotDelzant,
    SuppliedXiNotGeneric,
    ValidationError,
)
from .symcore import (
    lattice_dual,
    scaled_inverse,
    wt_dot,
    wt_neg,
    wt_primitive,
    wt_scale,
    wt_sub,
)


@dataclass
class ToricInput:
    rank: int
    vertices: list  # [(id, psi tuple of Fractions)]
    edges: list | None = None  # [(id, id)] undirected, optional
    xi: tuple | None = None


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    weight: tuple  # primitive, pairs positively with xi
    mult: Fraction  # psi(dst) - psi(src) = mult * weight


@dataclass
class FixedPoint:
    id: str
    psi: tuple
    mu: Fraction
    lam: int = 0
    wplus: tuple = ()
    wminus: tuple = ()
    frame: tuple = ()  # rows a_i, <a_i, w_j> = delta_ij over wplus + wminus


class GKMGraph:
    def __init__(self, rank, xi, points, edges):
        self.rank = rank
        self.xi = tuple(xi)
        self.points = points  # sorted by mu
        self.edges = edges
        self._by_id = {p.id: p for p in points}
        self._order = {p.id: i for i, p in enumerate(points)}
        self.out_edges = {p.id: [] for p in points}
        self.in_edges = {p.id: [] for p in points}
        for e in edges:
            self.out_edges[e.src].append(e)
            self.in_edges[e.dst].append(e)

    # -- lookups ----------------------------------------------------------
    def vids(self):
        return [p.id for p in self.points]

    def point(self, vid):
        return self._by_id[vid]

    def order_index(self, vid):
        return self._order[vid]

    def psi(self, vid):
        return self._by_id[vid].psi

    def incident(self, vid):
        """Pairs (other_id, edge) over all edges touching vid."""
        out = [(e.dst, e) for e in self.out_edges[vid]]
        out += [(e.src, e) for e in self.in_edges[vid]]
        return out

    def weight_toward(self, src, dst):
        """Label of the directed edge src -> dst inside the full edge set."""
        for e in self.out_edges[src]:
            if e.dst == dst:
                return e.weight
        for e in self.in_edges[src]:
            if e.src == dst:
                return wt_neg(e.weight)
        raise KeyError(f"no edge between {src} and {dst}")

    def __repr__(self):
        return f"GKMGraph(rank={self.rank}, points={len(self.points)}, xi={self.xi})"


# ---------------------------------------------------------------------------
# skeleton construction

def _validate_input(inp):
    if inp.rank < 1:
        raise ValidationError("rank must be at least 1")
    if len(inp.vertices) < inp.rank + 1:
        raise ValidationError("need at least rank + 1 vertices")
    ids = [v[0] for v in inp.vertices]
    if len(set(ids)) != len(ids):
        raise ValidationError("vertex ids must be unique")
    psis = [tuple(Fraction(x) for x in v[1]) for v in inp.vertices]
    if any(len(p) != inp.rank for p in psis):
        raise ValidationError("moment image dimension mismatch")
    if len(set(psis)) != len(psis):
        raise ValidationError("moment images must be distinct")
    return ids, psis


def _start_neighbours(pts, v, rank):
    """Candidate neighbours of the lexicographically smallest point v.

    Every other point lies strictly above v for xi0 = (C^(n-1), ..., C, 1),
    so the rays of the tangent cone at v are the vertices of the section
    through the points (w - v) / <xi0, w - v>.  Each round maximizes, over
    that section, a functional vanishing on the rays found so far, breaking
    ties lexicographically; the maximizer is a vertex of the section off the
    span of the earlier rays.  Ratios are compared by cross-multiplication.
    """
    spread = max(max(col) - min(col) for col in zip(*pts))
    xi0 = tuple((spread + 2) ** (rank - 1 - i) for i in range(rank))
    cands = []
    for w, p in enumerate(pts):
        if w != v:
            d = wt_sub(p, pts[v])
            cands.append((w, d, wt_dot(xi0, d)))
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    kernel = list(units)  # basis of the functionals vanishing on found rays
    found = []
    for _ in range(rank):
        p = next((i for i, b in enumerate(kernel)
                  if any(wt_dot(b, d) for _, d, _ in cands)), None)
        if p is None:
            raise NotDelzant("vertices do not span the ambient space")
        g = kernel[p]
        if not any(wt_dot(g, d) > 0 for _, d, _ in cands):
            g = wt_neg(g)
        top = _argmax_ratio(cands, g)
        for u in units:
            if len(top) == 1:
                break
            top = _argmax_ratio(top, u)
        w, ray, _ = top[0]
        found.append(w)
        s = [wt_dot(b, ray) for b in kernel]
        kernel = [wt_primitive(wt_sub(wt_scale(b, s[p]), wt_scale(kernel[p], s[i])))[0]
                  for i, b in enumerate(kernel) if i != p]
    return found


def _argmax_ratio(cands, f):
    """The candidates (w, d, h), h > 0, maximizing <f, d> / h."""
    best, top = None, []
    for c in cands:
        num = wt_dot(f, c[1])
        if best is None or num * best[1] > best[0] * c[2]:
            best, top = (num, c[2]), [c]
        elif num * best[1] == best[0] * c[2]:
            top.append(c)
    return top


def _certify(ids, pts, v, nbrs):
    """Coordinates of every point in the integer dual basis at v.

    With rays r_i = pts[nbrs[i]] - pts[v], the dual basis a_i satisfies
    a_i . r_j = D delta_ij with D > 0.  All coordinates of all points must be
    non-negative and the only point on each ray must be its neighbour: then
    the tangent cone of the hull at v is the simplicial cone on the rays, so
    v is a simple vertex whose edges are exactly [v, nbrs[i]].  Returns
    (D, coordinates by point index).
    """
    pv = pts[v]
    inv = scaled_inverse([wt_sub(pts[u], pv) for u in nbrs])
    if inv is None:
        raise NotAPolytopeSkeleton(
            f"vertex {ids[v]} fails the skeleton certificate: its candidate "
            f"edges are linearly dependent")
    det, dual = inv
    coords = []
    for w, p in enumerate(pts):
        d = wt_sub(p, pv)
        c = tuple(wt_dot(a, d) for a in dual)
        if min(c) < 0:
            raise NotAPolytopeSkeleton(
                f"vertex {ids[v]} fails the skeleton certificate: point "
                f"{ids[w]} lies outside the cone of its candidate edges")
        supp = [i for i, x in enumerate(c) if x]
        if len(supp) == 1 and nbrs[supp[0]] != w:
            raise NotAPolytopeSkeleton(
                f"vertex {ids[v]} fails the skeleton certificate: point "
                f"{ids[w]} lies on its edge toward {ids[nbrs[supp[0]]]}")
        coords.append(c)
    return det, coords


def _next_neighbours(det, coords, rank):
    """For each edge k at a certified vertex v and each other edge j, the
    neighbour of u = nbrs[k] along the edge of u in the 2-face spanned by
    edges j and k; None where the face has no such point.

    The 2-face lies in the plane where every coordinate but j and k is zero.
    Seen from u, a point w of that plane has beta = a_j.(w - u) = c_j(w) and
    alpha = -a_k.(w - u) = det - c_k(w); the next vertex of the polygon after
    v and u is the point with beta > 0 and the smallest alpha / beta.
    """
    best = [[None] * rank for _ in range(rank)]
    for w, c in enumerate(coords):
        supp = [i for i, x in enumerate(c) if x]
        if not 1 <= len(supp) <= 2:
            continue
        for j in supp:
            for k in [i for i in supp if i != j] or [i for i in range(rank) if i != j]:
                alpha, beta = det - c[k], c[j]
                cur = best[k][j]
                if cur is None or alpha * cur[1] < cur[0] * beta:
                    best[k][j] = (alpha, beta, w)
    return [[None if b is None else b[2] for b in row] for row in best]


def _scaled_points(psis):
    """The points times the lcm of their denominators, as integer tuples,
    and that lcm."""
    scale = math.lcm(*(x.denominator for p in psis for x in p))
    return [tuple(x.numerator * (scale // x.denominator) for x in p) for p in psis], scale


def detect_edges(rank, ids, psis):
    """One-skeleton of the convex hull of the points, as sorted index pairs.

    Rational points are scaled to integers, which leaves the skeleton unchanged.
    The walk starts at the lexicographically smallest point, moves along
    edges and certifies every vertex it reaches (``_certify``), so a vertex
    that is not simple, or a point on an edge, raises instead of giving a
    wrong skeleton.  A simple polytope's vertex graph is connected, so a
    point the walk never reaches is not a vertex.  Each vertex costs
    O(V n^2) integer operations.
    """
    pts = _scaled_points(psis)[0]
    start = min(range(len(pts)), key=pts.__getitem__)
    nbrs = {start: _start_neighbours(pts, start, rank)}
    queue = [start]
    edges = set()
    for v in queue:
        det, coords = _certify(ids, pts, v, nbrs[v])
        ahead = _next_neighbours(det, coords, rank)
        for k, u in enumerate(nbrs[v]):
            edges.add((min(u, v), max(u, v)))
            if u in nbrs:
                continue
            nbrs[u] = [v] + [ahead[k][j] for j in range(rank) if j != k]
            if None in nbrs[u]:
                raise NotAPolytopeSkeleton(
                    f"vertex {ids[u]} fails the skeleton certificate: a "
                    f"2-face through its edge toward {ids[v]} ends there")
            queue.append(u)
    for w in range(len(pts)):
        if w not in nbrs:
            raise NotAPolytopeSkeleton(f"vertex {ids[w]} has degree 0, expected {rank}")
    return sorted(edges)


def build_graph(inp):
    """Validate a toric input and return the oriented moment graph.

    Supplied edges are validated as-is; otherwise the polytope one-skeleton
    is detected.  A direction vector in ``inp.xi`` is only checked;
    otherwise a deterministic search picks one.
    """
    ids, psis = _validate_input(inp)
    pts, scale = _scaled_points(psis)
    index = {v: i for i, v in enumerate(ids)}
    if inp.edges is not None:
        pairs = []
        seen = set()
        for a, b in inp.edges:
            if a not in index or b not in index or a == b:
                raise ValidationError(f"bad edge ({a}, {b})")
            key = frozenset((a, b))
            if key in seen:
                raise ValidationError(f"duplicate edge ({a}, {b})")
            seen.add(key)
            pairs.append((index[a], index[b]))
    else:
        pairs = detect_edges(inp.rank, ids, pts)

    degree = {i: 0 for i in range(len(ids))}
    for i, j in pairs:
        degree[i] += 1
        degree[j] += 1
    for i, d in degree.items():
        if d != inp.rank:
            raise NotAPolytopeSkeleton(
                f"vertex {ids[i]} has degree {d}, expected {inp.rank}")

    # Delzant: primitive incident directions form a lattice basis everywhere.
    # The basis at a vertex is taken as the isotropy weights there, the
    # directions toward it, so that the dual rows are the vertex's frame.
    prims = [wt_primitive(wt_sub(pts[j], pts[i])) for i, j in pairs]
    weights_at = {i: [] for i in range(len(ids))}
    for (i, j), (prim, _) in zip(pairs, prims):
        weights_at[i].append(wt_neg(prim))
        weights_at[j].append(prim)
    frames = []
    for i, weights in weights_at.items():
        rows = lattice_dual(weights)
        if rows is None:
            raise NotDelzant(
                f"edge directions at vertex {ids[i]} are not a lattice basis")
        frames.append(dict(zip(weights, rows)))

    skel = _Skeleton(inp.rank, ids, psis, pts, scale, pairs, prims, frames)
    return orient_and_index(skel, choose_generic_xi(skel, inp.xi))


@dataclass
class _Skeleton:
    rank: int
    ids: list
    psis: list
    pts: list  # psis * scale, integer
    scale: int
    pairs: list  # index pairs
    prims: list  # (primitive direction, lattice length in pts) of each pair
    frames: list  # per vertex: {isotropy weight: its dual row}


def choose_generic_xi(skel, xi):
    """Pick or validate a direction pairing nonzero with every edge weight
    and separating the vertices."""
    weights = [prim for prim, _ in skel.prims]

    def ok(cand):
        if any(wt_dot(w, cand) == 0 for w in weights):
            return False
        mus = {wt_dot(p, cand) for p in skel.pts}
        return len(mus) == len(skel.pts)

    if xi is not None:
        xi = tuple(int(x) for x in xi)
        if len(xi) != skel.rank:
            raise SuppliedXiNotGeneric(f"xi has {len(xi)} entries, expected {skel.rank}")
        if not ok(xi):
            raise SuppliedXiNotGeneric(f"xi={xi} is not generic here")
        return xi
    for c in range(2, 10000):
        cand = tuple(c ** k for k in range(skel.rank))
        if ok(cand):
            return cand
    raise SuppliedXiNotGeneric("no generic direction found")


def orient_and_index(skel, xi):
    dots = [wt_dot(p, xi) for p in skel.pts]
    order = sorted(range(len(skel.ids)), key=dots.__getitem__)
    points = [
        FixedPoint(id=skel.ids[i], psi=skel.psis[i], mu=Fraction(dots[i], skel.scale))
        for i in order
    ]
    arcs = []
    for (i, j), (prim, length) in zip(skel.pairs, skel.prims):
        if dots[i] > dots[j]:
            i, j, prim = j, i, wt_neg(prim)
        arcs.append((dots[i], dots[j], i, j, prim, length))
    arcs.sort()
    edges = [Edge(src=skel.ids[i], dst=skel.ids[j], weight=prim,
                  mult=Fraction(length, skel.scale))
             for _, _, i, j, prim, length in arcs]
    g = GKMGraph(skel.rank, xi, points, edges)
    for i, p in zip(order, points):
        frame = skel.frames[i]  # keyed by every weight at p
        p.wplus = tuple(sorted(e.weight for e in g.in_edges[p.id]))
        p.wminus = tuple(sorted(w for w in frame if w not in p.wplus))
        p.lam = len(p.wplus)
        p.frame = tuple(map(frame.__getitem__, p.wplus + p.wminus))
    lams = [p.lam for p in points]
    if lams.count(0) != 1 or lams.count(skel.rank) != 1 or points[0].lam != 0:
        raise ContractError("orientation needs one source and one sink vertex")
    return g


# ---------------------------------------------------------------------------
# derived combinatorics

def flow_face(g, vid):
    """Vertex set of the flow-up face through vid, the face spanned by its
    negative weights, computed as the span closure.  The face's normals are
    the frame rows of the positive weights, and an edge stays in the face
    when every normal vanishes on its label.  The flow-down face is the
    flow-up face of the graph oriented by -xi."""
    p = g.point(vid)
    normals = p.frame[:p.lam]
    reach = {vid}
    stack = [vid]
    while stack:
        v = stack.pop()
        for other, e in g.incident(v):
            if other in reach:
                continue
            if not any(wt_dot(a, e.weight) for a in normals):
                reach.add(other)
                stack.append(other)
    return frozenset(reach)


def upward_closure(g, vid):
    """Vertices reachable from vid along oriented edges, sorted by order."""
    reach = {vid}
    stack = [vid]
    while stack:
        v = stack.pop()
        for e in g.out_edges[v]:
            if e.dst not in reach:
                reach.add(e.dst)
                stack.append(e.dst)
    return sorted(reach, key=g.order_index)


def index_violations(g):
    """Oriented edges along which the index fails to increase."""
    return [e for e in g.edges if g.point(e.src).lam >= g.point(e.dst).lam]


def is_index_increasing(g):
    return not index_violations(g)


def triangular_expansion(g, c, basis_of, divide):
    """Coefficients a_r with c = sum of a_r * basis_of(r), by elimination in
    increasing moment order.

    ``basis_of(r)`` is a Kirwan class at r, needed only where a_r is nonzero
    and only on its support; ``divide(f, w)`` is the exact division by the
    Euler factor of weight w, returning None when it does not divide.  The
    elimination runs to the end, so a nonzero residual or a failed division
    certifies that c is not in the span (``DivisionFailure``).
    """
    residual = dict(c)
    coeffs = {}
    for r in g.vids():
        f = residual[r]
        if f.is_zero():
            continue
        for w in g.point(r).wplus:
            f = divide(f, w)
            if f is None:
                raise DivisionFailure(
                    f"value at {r} is not a multiple of its Euler class")
        coeffs[r] = f
        for v, b in basis_of(r).items():
            if not b.is_zero():
                residual[v] = residual[v] - f * b
    if any(not v.is_zero() for v in residual.values()):
        raise DivisionFailure("basis does not span: nonzero residual remains")
    return coeffs
