"""Moment graphs of toric manifolds.

Input is a list of vertices with exact rational moment images, optionally an
explicit edge list and a direction vector.  The polytope one-skeleton is
recovered by a walk along the edges that certifies the tangent cone at every
vertex it reaches against the facets the vertices share, each computed once,
in O(V n^3 + F V n) exact integer operations for V vertices and F facets in
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
``wplus + wminus``.  Both the walk and supplied edges take the frames the
same way (``_frame``): one elimination at the first vertex of each connected
component, then one simplex pivot per further vertex from the frame of the
vertex it was reached from, since adjacent vertices of a simple polytope
share n - 1 facets.  A pivot is kept only when it is exactly the inverse;
any other vertex is eliminated on its own.  For a vertex-only input the
walk's inverse, over the primitive edge directions, is that frame.  The
flow-up faces read their normals from it, and the local index builds its
lattice maps from it, so no elimination runs after the graph is built.
Only flow-up faces are computed: the flow-down face of a vertex is its
flow-up face in the graph oriented by -xi.

The graph keeps one adjacency table: for each vertex, its neighbours and the
isotropy weight toward each, the label of the edge from that neighbour.  The
flow-up faces, the duals on them and the circle reductions read it, and
``weight_toward`` is a lookup in it.  Euler factors, flow-up faces and the
local index's Newton data are built once per graph (and ring) and kept on
the graph; nothing outlives the graph.

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
    vertices: list  # [(id, psi tuple of ints and Fractions)]
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
    """The oriented moment graph.  ``adjacency[v]`` maps each neighbour u of
    v to the isotropy weight at v along their edge, the label of u -> v:
    the edge's label when the edge comes into v, its negation when it goes
    out.  ``factors``, ``faces`` and ``newton`` hold each label's Euler
    factor per ring, each vertex's flow-up face and each vertex's local
    index data per ring, built once, for this graph only."""

    def __init__(self, rank, xi, points, edges):
        self.rank = rank
        self.xi = tuple(xi)
        self.points = points  # sorted by mu
        self.edges = edges
        self._by_id = {p.id: p for p in points}
        self._order = {p.id: i for i, p in enumerate(points)}
        self.out_edges = {p.id: [] for p in points}
        self.in_edges = {p.id: [] for p in points}
        self.adjacency = {p.id: {} for p in points}
        for e in edges:
            self.out_edges[e.src].append(e)
            self.in_edges[e.dst].append(e)
            self.adjacency[e.dst][e.src] = e.weight
            self.adjacency[e.src][e.dst] = wt_neg(e.weight)
        self.factors = {}  # (ring name, label): factor
        self.faces = {}  # vid: its flow-up face
        self.newton = {}  # (ring name, vid): the local index's Newton data

    # -- lookups ----------------------------------------------------------
    def vids(self):
        return [p.id for p in self.points]

    def point(self, vid):
        return self._by_id[vid]

    def order_index(self, vid):
        return self._order[vid]

    def psi(self, vid):
        return self._by_id[vid].psi

    def weight_toward(self, src, dst):
        """Label of the directed edge src -> dst inside the full edge set."""
        try:
            return self.adjacency[dst][src]
        except KeyError:
            raise KeyError(f"no edge between {src} and {dst}") from None

    def factor(self, ring, w):
        """The Euler factor of the label w in ``ring``, built once per graph."""
        key = (ring.name, w)
        f = self.factors.get(key)
        if f is None:
            f = self.factors[key] = ring.factor(w)
        return f

    def face(self, vid):
        """The flow-up face at vid (``flow_face``), built once per graph."""
        f = self.faces.get(vid)
        if f is None:
            f = self.faces[vid] = flow_face(self, vid)
        return f

    def __repr__(self):
        return f"GKMGraph(rank={self.rank}, points={len(self.points)}, xi={self.xi})"


# ---------------------------------------------------------------------------
# skeleton construction

def _validate_input(inp):
    """The ids, the moment images as given (exact ints and Fractions, read
    once), the images scaled to integers and the scale.  Distinctness is
    checked on the integer points."""
    if inp.rank < 1:
        raise ValidationError("rank must be at least 1")
    if len(inp.vertices) < inp.rank + 1:
        raise ValidationError("need at least rank + 1 vertices")
    ids = [v[0] for v in inp.vertices]
    if len(set(ids)) != len(ids):
        raise ValidationError("vertex ids must be unique")
    psis = [tuple(v[1]) for v in inp.vertices]
    if any(len(p) != inp.rank for p in psis):
        raise ValidationError("moment image dimension mismatch")
    pts, scale = _scaled_points(psis)
    if len(set(pts)) != len(pts):
        raise ValidationError("moment images must be distinct")
    return ids, psis, pts, scale


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


def _facet(pts, normal, level):
    """The facet table entry of the hyperplane <normal, x> = level: the
    slack of every point, the bit mask of the points on it and the first
    point on its negative side (None if there is none)."""
    slack = [wt_dot(normal, p) - level for p in pts]
    tight = sum(1 << w for w, s in enumerate(slack) if not s)
    bad = next((w for w, s in enumerate(slack) if s < 0), None)
    return slack, tight, bad


def _points(mask):
    """The points of a bit mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _frame(weights, parent=None, back=0):
    """(D, rows) with D = |det W| > 0 and <rows[i], weights[j]> = D delta_ij,
    W having the isotropy weights at a vertex as columns; None when they are
    dependent.  The rows are the vertex's frame when D = 1.

    ``parent`` is the frame {weight: row} of the vertex this one was reached
    from, and ``weights[back]`` the weight along that edge.  One pivot from
    it (``_pivot``) gives the rows when they are exactly the inverse; a
    vertex with no parent frame, or where the pivot fails, is eliminated.
    """
    if parent is not None:
        rows = _pivot(parent, weights, back)
        if rows is not None:
            return 1, rows
    return scaled_inverse(weights)


def _pivot(parent, weights, back):
    """The inverse rows over ``weights`` by one simplex pivot from a
    neighbour's frame, or None unless that is exactly the inverse.

    On a simple polytope adjacent vertices v and u share the n - 1 facets of
    v that hold their edge, so the rows of v off the edge serve u unchanged.
    With w_k = -weights[back] the weight at v along the edge and a_k its
    row, each other weight w of u must pair nonzero with exactly one other
    row of v, to 1, and no row may serve two weights; the back weight gets
    -a_k + sum over those w of <a_k, w> times the row of w.  Then every
    pairing is exact: a kept row pairs to 1 with its weight and to 0 with
    every other weight of u, -w_k included since v's rows are dual to v's
    weights, and the new row pairs to 0 with each other weight and to
    <a_k, w_k> = 1 with -w_k.
    """
    wk = wt_neg(weights[back])
    ak = parent[wk]
    kept = [a for w, a in parent.items() if w != wk]
    rows, used, new = [], set(), wt_neg(ak)
    for i, w in enumerate(weights):
        if i == back:
            rows.append(None)
            continue
        pairs = [wt_dot(a, w) for a in kept]
        hits = [j for j, s in enumerate(pairs) if s]
        if len(hits) != 1 or pairs[hits[0]] != 1 or hits[0] in used:
            return None
        used.add(hits[0])
        a = kept[hits[0]]
        rows.append(a)
        c = wt_dot(ak, w)
        if c:
            new = tuple(x + c * y for x, y in zip(new, a))
    rows[back] = new
    return rows


def _certify(ids, pts, v, nbrs, facets, parent):
    """Certify the candidate edges [v, nbrs[i]] at v against its facets.

    With w_i the primitive direction from nbrs[i] toward v and the integer
    rows a_i with a_i . w_j = D delta_ij, D > 0 (``_frame``, pivoted from
    ``parent``, the frame of nbrs[0], when it has one), the facet i of v is
    the hyperplane through v with primitive normal along -a_i, which
    contains every edge but the i-th.  No point may lie on the negative side
    of a facet of v, and the only point on all facets of v but the i-th, and
    not on the i-th, must be nbrs[i]: then the tangent cone of the hull at v
    is the simplicial cone on the edges, so v is a simple vertex whose edges
    are exactly [v, nbrs[i]].  Facets are looked up in, or added to, the
    table ``facets`` shared by the whole walk.  The first point, by index,
    that breaks either condition is reported.  Returns the table entries of
    the facets of v and v's frame, {w_i: a_i}, which is None unless D = 1.
    """
    pv = pts[v]
    weights = [wt_primitive(wt_sub(pv, pts[u]))[0] for u in nbrs]
    inv = _frame(weights, parent)
    if inv is None:
        # The walk only proposes independent rays.  At the start vertex each
        # ray pairs positively with a functional vanishing on the earlier
        # ones.  At u = nbrs[k] of a certified v, with r_i the rays of v, the
        # rays are -r_k and, for j != k, a point of the (j, k) 2-face seen
        # from u, beta_j r_j + alpha_j r_k with beta_j > 0 its slack on the
        # facet j of v; their determinant is +-prod(beta_j) det(r) != 0.
        raise ContractError(f"vertex {ids[v]}: the walk proposed dependent edges")
    det, rows = inv
    own = []
    for a in rows:
        # the rows of a unimodular inverse are primitive
        normal = wt_neg(a) if det == 1 else wt_primitive(wt_neg(a))[0]
        key = (normal, wt_dot(normal, pv))
        if key not in facets:
            facets[key] = _facet(pts, *key)
        own.append(facets[key])
    masks = [tight for _, tight, _ in own]
    outside = min((bad for _, _, bad in own if bad is not None), default=None)
    stray = None  # (first point on an edge but not its end, that end)
    full = (1 << len(pts)) - 1
    for i, u in enumerate(nbrs):
        line = full & ~masks[i] & ~(1 << u)
        for j, m in enumerate(masks):
            if j != i:
                line &= m
        w = next(_points(line), None)
        if w is not None and (stray is None or w < stray[0]):
            stray = (w, u)
    if outside is not None and (stray is None or outside <= stray[0]):
        raise NotAPolytopeSkeleton(
            f"vertex {ids[v]} fails the skeleton certificate: point "
            f"{ids[outside]} lies outside the cone of its candidate edges")
    if stray is not None:
        raise NotAPolytopeSkeleton(
            f"vertex {ids[v]} fails the skeleton certificate: point "
            f"{ids[stray[0]]} lies on its edge toward {ids[stray[1]]}")
    return own, dict(zip(weights, rows)) if det == 1 else None


def _next_neighbours(own, nbrs, k, full):
    """The neighbours of u = nbrs[k] other than v, for a certified vertex v:
    for each other edge j at v, in order, the neighbour of u along the edge
    of u in the 2-face spanned by edges j and k.

    The 2-face lies on every facet of v but j and k, and only the points on
    all of those are scanned.  With s_i the slack on facet i of v, a point w
    of the 2-face is seen from u at beta = s_j(w) > 0 and
    alpha = s_k(u) - s_k(w); the next vertex of the polygon after v and u is
    the point with the smallest alpha / beta, the first by index on a tie.
    The face is never empty: nbrs[j] lies on every facet of v but j, with
    positive slack on j.
    """
    masks = [tight for _, tight, _ in own]
    sk = own[k][0]
    top = sk[nbrs[k]]
    out = []
    for j, (sj, tight_j, _) in enumerate(own):
        if j == k:
            continue
        face = full & ~tight_j
        for i, m in enumerate(masks):
            if i != j and i != k:
                face &= m
        best = None
        for w in _points(face):
            alpha, beta = top - sk[w], sj[w]
            if best is None or alpha * best[1] < best[0] * beta:
                best = (alpha, beta, w)
        out.append(best[2])
    return out


def _scaled_points(psis):
    """The points times the lcm of their denominators, as integer tuples,
    and that lcm."""
    scale = math.lcm(*(x.denominator for p in psis for x in p))
    return [tuple(x.numerator * (scale // x.denominator) for x in p) for p in psis], scale


def detect_edges(rank, ids, psis):
    """One-skeleton of the convex hull of the points, as sorted index pairs,
    and the frame of each vertex (None where the primitive edge directions
    are not a lattice basis).

    Rational points are scaled to integers, which leaves the skeleton unchanged.
    The walk starts at the lexicographically smallest point, moves along
    edges and certifies every vertex it reaches (``_certify``), so a vertex
    that is not simple, or a point on an edge, raises instead of giving a
    wrong skeleton.  A simple polytope's vertex graph is connected, so a
    point the walk never reaches is not a vertex.  The facets that the
    vertices share are computed once, at V dot products each.  The start
    costs one n x n inversion, and every further vertex one pivot from the
    frame of the vertex it was reached from (``_frame``), plus O(n^2)
    operations on V-bit masks of the points tight on its facets:
    O(n^3 + V n^2 + F V n) integer operations for F facets, against
    O(V^2 n^2) when every vertex tests every point.
    """
    pts = _scaled_points(psis)[0]
    full = (1 << len(pts)) - 1
    start = min(range(len(pts)), key=pts.__getitem__)
    nbrs = {start: _start_neighbours(pts, start, rank)}
    facets = {}  # (primitive normal, level): _facet entry
    frames = [None] * len(pts)
    queue = [start]
    edges = set()
    for v in queue:
        # nbrs[v][0] is the vertex v was reached from, certified before v;
        # the start's first neighbour has no frame yet
        own, frames[v] = _certify(ids, pts, v, nbrs[v], facets, frames[nbrs[v][0]])
        for k, u in enumerate(nbrs[v]):
            edges.add((min(u, v), max(u, v)))
            if u in nbrs:
                continue
            nbrs[u] = [v] + _next_neighbours(own, nbrs[v], k, full)
            queue.append(u)
    for w in range(len(pts)):
        if w not in nbrs:
            raise NotAPolytopeSkeleton(f"vertex {ids[w]} has degree 0, expected {rank}")
    return sorted(edges), frames


def build_graph(inp):
    """Validate a toric input and return the oriented moment graph.

    Supplied edges are validated as-is; otherwise the polytope one-skeleton
    is detected.  A direction vector in ``inp.xi`` is only checked;
    otherwise a deterministic search picks one.
    """
    ids, psis, pts, scale = _validate_input(inp)
    if inp.edges is None:
        pairs, frames = detect_edges(inp.rank, ids, pts)
    else:
        index = {v: i for i, v in enumerate(ids)}
        pairs, frames = [], None
        seen = set()
        for a, b in inp.edges:
            if a not in index or b not in index or a == b:
                raise ValidationError(f"bad edge ({a}, {b})")
            key = frozenset((a, b))
            if key in seen:
                raise ValidationError(f"duplicate edge ({a}, {b})")
            seen.add(key)
            pairs.append((index[a], index[b]))

    degree = {i: 0 for i in range(len(ids))}
    for i, j in pairs:
        degree[i] += 1
        degree[j] += 1
    for i, d in degree.items():
        if d != inp.rank:
            raise NotAPolytopeSkeleton(
                f"vertex {ids[i]} has degree {d}, expected {inp.rank}")

    # Delzant: primitive incident directions form a lattice basis everywhere.
    # The walk has checked that and kept the frames; for supplied edges the
    # basis at a vertex is taken as the isotropy weights there, the
    # directions toward it, so that the dual rows are the vertex's frame.
    prims = [wt_primitive(wt_sub(pts[j], pts[i])) for i, j in pairs]
    if frames is None:
        frames = _edge_frames(len(ids), pairs, prims)
    for i, frame in enumerate(frames):
        if frame is None:
            raise NotDelzant(
                f"edge directions at vertex {ids[i]} are not a lattice basis")

    skel = _Skeleton(inp.rank, ids, psis, pts, scale, pairs, prims, frames)
    return orient_and_index(skel, choose_generic_xi(skel, inp.xi))


def _edge_frames(count, pairs, prims):
    """The frame of each vertex over supplied edges, None where its weights
    are not a lattice basis.  A breadth-first search from the first vertex,
    by index, of each connected component takes every other frame by one
    pivot from the vertex it was reached from (``_frame``)."""
    weights = [[] for _ in range(count)]
    others = [[] for _ in range(count)]
    for (i, j), (prim, _) in zip(pairs, prims):
        weights[i].append(wt_neg(prim))
        others[i].append(j)
        weights[j].append(prim)
        others[j].append(i)
    frames = [None] * count
    seen = [False] * count
    for root in range(count):
        if seen[root]:
            continue
        seen[root] = True
        queue = [(root, None, 0)]
        for v, parent, back in queue:
            inv = _frame(weights[v], parent, back)
            if inv is not None and inv[0] == 1:
                frames[v] = dict(zip(weights[v], inv[1]))
            for u in others[v]:
                if not seen[u]:
                    seen[u] = True
                    queue.append((u, frames[v], others[u].index(v)))
    return frames


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
        for other, w in g.adjacency[v].items():
            if other in reach:
                continue
            if not any(wt_dot(a, w) for a in normals):
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

    ``c`` and ``basis_of(r)``, a Kirwan class at r needed only where a_r is
    nonzero, may be given on their supports alone; ``divide(f, w)`` is the
    exact division by the Euler factor of weight w, returning None when it
    does not divide.  The elimination runs to the end, so a nonzero residual
    or a failed division certifies that c is not in the span
    (``DivisionFailure``).
    """
    residual = dict(c)
    coeffs = {}
    for r in g.vids():
        f = residual.get(r)
        if f is None or f.is_zero():
            continue
        for w in g.point(r).wplus:
            f = divide(f, w)
            if f is None:
                raise DivisionFailure(
                    f"value at {r} is not a multiple of its Euler class")
        coeffs[r] = f
        for v, b in basis_of(r).items():
            if not b.is_zero():
                residual[v] = residual[v] - f * b if v in residual else -(f * b)
    if any(not v.is_zero() for v in residual.values()):
        raise DivisionFailure("basis does not span: nonzero residual remains")
    return coeffs
