"""Moment graphs of toric manifolds.

Input is a list of vertices with exact rational moment images, optionally an
explicit edge list and a direction vector.  The polytope one-skeleton is
recovered by a walk along the edges that certifies the tangent cone at every
vertex it reaches against the facets the vertices share, each computed once,
in O(n^3 + V n^2 + F V n) exact integer operations for V vertices and F
facets in rank n, the n^3 being the root's one elimination; each vertex is
checked for the lattice-basis condition, edges are
oriented along a generic direction and the combinatorial derived data
(indices, flow faces, upward closures) is computed.  The graph is built in
integer arithmetic: the points are scaled once, by the lcm of their
denominators, and only the moment values ``mu`` and edge lengths ``mult`` are
divided back into rationals, and only when that lcm is not 1.

Both input forms reach the skeleton by one breadth-first traversal
(``_traverse``); they differ only in where a vertex's neighbours come from:
the facets of the vertex it was reached from for a vertex-only input, the
supplied adjacency otherwise.  At each vertex the traversal takes the
inverse of the isotropy weights, which is also its lattice-basis check, and
keeps it as the vertex's ``frame``: the rows a_i with <a_i, w_j> = delta_ij
over its weights ``wplus + wminus``.  The frame is one simplex pivot from
the frame of the vertex it was reached from, since adjacent vertices of a
simple polytope share n - 1 facets, and it reads every pairing it needs off
the slacks of those facets in the facet table, with no dot product; a pivot
is kept only when it is exactly the inverse, and each root, or a vertex
where the pivot fails, is eliminated on its own.  The local index builds its lattice maps from the
frames, so no elimination runs after the graph is built.

The traversal then certifies each vertex (``_certify``) against one facet
table per graph (``_FacetTable``), and the first vertex that fails raises,
so an accepted graph is the one-skeleton of a Delzant polytope.  The graph
keeps each facet as a bit mask of its vertices in input order
(``GKMGraph.facets``) and, at each vertex, the facet opposite each of its
edges (``FixedPoint.facets``).  The flow-up face of a vertex, the face
spanned by its outgoing edges, is then the AND of the masks of the facets
opposite its incoming edges (``GKMGraph.face_mask``); no search runs.  A
face is always such a mask, and ``flow_face`` is its one view as a set of
ids.  Only flow-up faces are computed: the flow-down face of a vertex is
its flow-up face in the graph oriented by -xi.

The traversal hands over each vertex's star, its neighbours with the
weight, edge length, frame row and opposite facet of each edge, and the
orientation (``orient_and_index``) splits every star into ``wplus`` and
``wminus`` by the heights of the neighbours in one pass.  The graph keeps
one adjacency table: for each vertex, its neighbours and the isotropy weight
toward each, the label of the edge from that neighbour.  The duals on
faces, the upward closures and the circle reductions read it.  The only
table built after the graph is the Euler factor of each label, once per
ring, kept on the graph; the graph keeps no faces and no local index data,
and nothing outlives it.

Conventions, used consistently everywhere downstream:

* the label of the oriented edge p -> q is the primitive vector along
  psi(q) - psi(p), so it pairs positively with the chosen direction;
* the isotropy weights at a vertex are the labels of its incoming edges
  together with the negated labels of its outgoing edges, so the minimum
  carries only negative weights and ``wplus`` matches the incoming labels.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from fractions import Fraction

from .errors import (
    ContractError,
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


# a polytope as read: vertices [(id, psi tuple of ints and Fractions)],
# optional undirected edges [(id, id)] and an optional direction xi; a
# changed copy comes from ``_replace``
ToricInput = namedtuple("ToricInput", "rank vertices edges xi", defaults=(None, None))


# weight: primitive, pairs positively with xi; psi(dst) - psi(src) = mult * weight
Edge = namedtuple("Edge", "src dst weight mult")

# lam: the index, len(wplus); frame: the rows a_i, <a_i, w_j> = delta_ij
# over wplus + wminus; facets: the masks of the facets opposite wplus + wminus
FixedPoint = namedtuple("FixedPoint", "id psi mu lam wplus wminus frame facets")


class GKMGraph:
    """The oriented moment graph.  ``adjacency[v]`` maps each neighbour u of
    v to the isotropy weight at v along their edge, the label of u -> v:
    the edge's label when the edge comes into v, its negation when it goes
    out.  ``facets`` is the polytope's facet table: each facet as a bit
    mask of its vertices, bit i standing for ``slots[i]``, the i-th vertex
    of the input, and ``bits`` maps each vertex id to its bit.  A face is
    always such a mask (``face_mask``, ``members``).  ``factors`` holds each
    label's Euler factor per ring, built once, for this graph only."""

    def __init__(self, rank, xi, points, edges, slots, facets, adjacency):
        self.rank = rank
        self.xi = tuple(xi)
        self.points = points  # sorted by mu
        self.edges = edges
        self.slots = slots  # vertex ids in input order
        self.bits = {v: 1 << i for i, v in enumerate(slots)}
        self.facets = facets  # sorted masks
        self.full = (1 << len(points)) - 1
        self._by_id = {p.id: p for p in points}
        self._order = {p.id: i for i, p in enumerate(points)}
        self.adjacency = adjacency
        self.factors = {}  # (ring name, label): factor

    # -- lookups ----------------------------------------------------------
    def vids(self):
        return [p.id for p in self.points]

    def point(self, vid):
        return self._by_id[vid]

    def order_index(self, vid):
        return self._order[vid]

    def psi(self, vid):
        return self._by_id[vid].psi

    def factor(self, ring, w):
        """The Euler factor of the label w in ``ring``, built once per graph."""
        key = (ring.name, w)
        f = self.factors.get(key)
        if f is None:
            f = self.factors[key] = ring.factor(w)
        return f

    def face_mask(self, vid):
        """The flow-up face at vid as a mask: the vertices on every facet
        opposite an incoming edge, all of them at the minimum."""
        p = self._by_id[vid]
        mask = self.full
        for tight in p.facets[:p.lam]:
            mask &= tight
        return mask

    def members(self, mask):
        """The ids of the vertices of a mask, in input order."""
        slots = self.slots
        return [slots[i] for i in _points(mask)]

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
    span of the earlier rays.  Ratios are compared by cross-multiplication,
    and each functional's pairings are taken once.
    """
    spread = max(max(col) - min(col) for col in zip(*pts))
    xi0 = tuple((spread + 2) ** (rank - 1 - i) for i in range(rank))
    cands = []
    for w, p in enumerate(pts):
        if w != v:
            d = wt_sub(p, pts[v])
            cands.append((w, d, wt_dot(xi0, d)))
    kernel = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    found = []
    for _ in range(rank):
        # the first functional vanishing on the found rays but not on them all
        for p, g in enumerate(kernel):
            nums = [wt_dot(g, d) for _, d, _ in cands]
            if any(nums):
                break
        else:
            raise NotDelzant("vertices do not span the ambient space")
        if max(nums) <= 0:
            nums = [-x for x in nums]
        top = _argmax_ratio(cands, nums)
        for i in range(rank):  # the unit functionals read coordinates
            if len(top) == 1:
                break
            top = _argmax_ratio(top, [d[i] for _, d, _ in top])
        w, ray, _ = top[0]
        found.append(w)
        s = [wt_dot(b, ray) for b in kernel]
        kernel = [wt_primitive(wt_sub(wt_scale(b, s[p]), wt_scale(kernel[p], s[i])))[0]
                  for i, b in enumerate(kernel) if i != p]
    return found


def _argmax_ratio(cands, nums):
    """The candidates (w, d, h), h > 0, maximizing num / h, with nums[i]
    the num of cands[i]."""
    best, top = None, []
    for c, num in zip(cands, nums):
        if best is None or num * best[1] > best[0] * c[2]:
            best, top = (num, c[2]), [c]
        elif num * best[1] == best[0] * c[2]:
            top.append(c)
    return top


class _FacetTable:
    """The facets of the hull met so far, shared by every vertex of one
    graph and keyed by primitive row a: the hyperplane <a, x> = level, on
    whose nonpositive side the polytope lies.  An entry is the slack
    level - <a, p> of every point p, the bit mask of the points on the
    hyperplane and the first point on its negative side (None if there is
    none)."""

    def __init__(self, pts):
        self.pts = pts
        self.cols = list(zip(*pts))
        self.full = (1 << len(pts)) - 1
        self.entries = {}

    def add(self, v, a):
        """The entry of the hyperplane <a, x> = <a, pts[v]>, kept unless the
        table already holds a parallel one."""
        level = wt_dot(a, self.pts[v])
        slack = [level] * len(self.pts)
        for x, col in zip(a, self.cols):
            if x:
                slack = list(map(operator.sub, slack, map(x.__mul__, col)))
        tight = sum(1 << w for w, s in enumerate(slack) if not s)
        bad = next(w for w, s in enumerate(slack) if s < 0) if min(slack) < 0 else None
        entry = slack, tight, bad
        self.entries.setdefault(a, entry)
        return entry


def _points(mask):
    """The points of a bit mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _pivot(parent, k, nbrs, lengths):
    """The inverse rows over the isotropy weights at a vertex u, those
    toward ``nbrs`` along edges of lattice ``lengths``, by one simplex pivot
    from ``parent``, the frame (rows, slacks of their facets) of the
    certified vertex v = nbrs[0] that u was reached from along the k-th edge
    of v; None when v has no frame or the pivot is not exactly the inverse.

    On a simple polytope adjacent vertices v and u share the n - 1 facets of
    v that hold their edge, so the rows of v off the edge serve u unchanged.
    With w_k the weight at v toward u and a_k its row, each other weight w
    of u must pair nonzero with exactly one other row of v, to 1, and no row
    may serve two weights; the back weight gets -a_k + sum over those w of
    <a_k, w> times the row of w.  Then every pairing is exact: a kept row
    pairs to 1 with its weight and to 0 with every other weight of u, -w_k
    included since v's rows are dual to v's weights, and the new row pairs
    to 0 with each other weight and to <a_k, w_k> = 1 with -w_k.

    The pairings are slack differences, read off the facet table: with S
    the slacks of the facet of a row a of v and w the weight at u toward x,
    u - x = len(u, x) w gives <a, w> = (S[x] - S[u]) / len(u, x), an exact
    division.  The facet of a kept row holds u, so S[u] = 0 there, and the
    row pairs to 1 with w exactly when S[x] = len(u, x); on the facet of a_k,
    S[u] = len(u, v) <a_k, w_k> = len(u, v).  No dot product is taken.
    """
    if parent is None:
        return None
    rows, slacks = parent
    ak, sk, top = rows[k], slacks[k], lengths[0]
    kept, kept_slacks = rows[:k] + rows[k + 1:], slacks[:k] + slacks[k + 1:]
    out, used, new = [None], set(), wt_neg(ak)
    for x, length in zip(nbrs[1:], lengths[1:]):
        hits = [i for i, s in enumerate(kept_slacks) if s[x]]
        if len(hits) != 1 or kept_slacks[hits[0]][x] != length or hits[0] in used:
            return None
        used.add(hits[0])
        a = kept[hits[0]]
        out.append(a)
        c = (sk[x] - top) // length
        if c:
            new = tuple(map(operator.add, new, map(c.__mul__, a)))
    out[0] = new
    return out


def _certify(ids, table, v, nbrs, inv):
    """Certify the edges [v, nbrs[i]] at v against its facets.

    With w_i the primitive direction from nbrs[i] toward v and ``inv`` the
    integer rows a_i with a_i . w_j = D delta_ij, D > 0, the
    facet i of v is the hyperplane through v with primitive normal along
    -a_i, which contains every edge but the i-th.  No point may lie on the
    negative side of a facet of v, and the only point on all facets of v but
    the i-th, and not on the i-th, must be nbrs[i]: then the tangent cone of
    the hull at v is the simplicial cone on the edges, so v is a simple
    vertex whose edges are exactly [v, nbrs[i]].  The first point, by index,
    that breaks either condition is reported.  Returns the ``table`` entries
    of the facets of v, the i-th opposite the edge to nbrs[i].

    Every entry in the table has passed the certificate at some vertex u,
    so a parallel facet through v, on which v does not lie, has u on its
    negative side and fails here: one entry per primitive row suffices.
    """
    bit = 1 << v
    det, rows = inv
    entries = table.entries
    own = []
    for a in rows:
        if det != 1:  # the rows of a unimodular inverse are primitive
            a = wt_primitive(a)[0]
        entry = entries.get(a)
        if entry is None or not entry[1] & bit:
            entry = table.add(v, a)
        own.append(entry)
    outside = min([bad for _, _, bad in own if bad is not None], default=None)
    # The points on every facet of v but one lie on the line of an edge;
    # v is the only point on all of them, as their normals are independent.
    # Counted bitwise: ``once`` holds the points off at least one facet,
    # ``twice`` those off at least two.
    once = twice = 0
    for _, tight, _ in own:
        off = table.full ^ tight
        twice |= once & off
        once |= off
    line = once & ~twice
    for (_, tight, _), u in zip(own, nbrs):
        if not tight >> u & 1:
            line &= ~(1 << u)  # the end of its own edge
    stray = None  # (first point on an edge but not its end, that end)
    if line:
        w = (line & -line).bit_length() - 1
        stray = w, next(u for (_, tight, _), u in zip(own, nbrs) if not tight >> w & 1)
    if outside is not None and (stray is None or outside <= stray[0]):
        raise NotAPolytopeSkeleton(
            f"vertex {ids[v]} fails the skeleton certificate: point "
            f"{ids[outside]} lies outside the cone of its candidate edges")
    if stray is not None:
        raise NotAPolytopeSkeleton(
            f"vertex {ids[v]} fails the skeleton certificate: point "
            f"{ids[stray[0]]} lies on its edge toward {ids[stray[1]]}")
    return own


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
    and that lcm; points that are all ints already come back as they are,
    with scale 1."""
    if all(type(x) is int for p in psis for x in p):
        return psis, 1
    scale = math.lcm(*(x.denominator for p in psis for x in p))
    return [tuple(x.numerator * (scale // x.denominator) for x in p) for p in psis], scale


def detect_edges(rank, ids, psis):
    """The certified one-skeleton of the convex hull of the points, from the
    points alone (``_traverse``).

    Rational points are scaled to integers, which leaves the skeleton
    unchanged.  The walk starts at the lexicographically smallest point and
    finds each further vertex's neighbours from the facets of the vertex it
    was reached from, so a vertex that is not simple, or a point on an edge,
    fails the certificate instead of giving a wrong skeleton.  A simple
    polytope's vertex graph is connected, so a point the walk never reaches
    is not a vertex.  The facets that the vertices share are computed once,
    at V dot products each.  The start costs one n x n elimination, and
    every further vertex one pivot that reads its pairings off those facets'
    slacks plus O(n^2) operations on V-bit masks of the points tight on its
    facets: O(n^3 + V n^2 + F V n) integer operations for F facets, against
    O(V^2 n^2) when every vertex tests every point.
    """
    return _traverse(rank, ids, _scaled_points(psis)[0])


def _traverse(rank, ids, pts, others=None):
    """The one-skeleton of the integer points, certified by one
    breadth-first traversal: the edges as sorted index pairs and per
    vertex its star, one (neighbour, isotropy weight toward it,
    lattice length of the edge, frame row, mask of the points on the facet
    opposite the edge) per edge, with the rows None where the weights are
    independent but not a lattice basis.

    With ``others`` None the neighbours come from the points alone: the
    root is the lexicographically smallest point (``_start_neighbours``),
    and each further vertex's neighbours come from the facets of the vertex
    it was reached from (``_next_neighbours``).  Otherwise ``others[v]``
    lists the supplied neighbours of v, and each connected component is
    rooted at its first vertex by index.  Either way the vertex a vertex was
    reached from is its first neighbour, its frame is one pivot from that
    vertex's (``_pivot``), and a root, or a vertex where the pivot fails,
    is eliminated.  Each vertex is then certified against one facet table
    (``_certify``): the first vertex in traversal order that fails, or
    whose weights are dependent, raises, and once every vertex has passed
    the edges are the hull's one-skeleton.  Each edge's direction is
    computed once, at the first of its ends reached.
    """
    full = (1 << len(pts)) - 1
    table = _FacetTable(pts)
    nbrs = [None] * len(pts)
    frames = [None] * len(pts)  # (rows, slacks of their facets), in neighbour order
    via = [None] * len(pts)  # the edge of nbrs[v][0] that reached v
    stars = [None] * len(pts)
    edges = {}  # (i, j), i < j: (primitive direction of pts[j] - pts[i], length)
    roots = [min(range(len(pts)), key=pts.__getitem__)] if others is None else range(len(pts))
    for root in roots:
        if nbrs[root] is not None:
            continue
        nbrs[root] = _start_neighbours(pts, root, rank) if others is None else others[root]
        queue = [root]
        for v in queue:
            weights, lengths = [], []
            for u in nbrs[v]:
                key = (u, v) if u < v else (v, u)
                prim = edges.get(key)
                if prim is None:
                    prim = edges[key] = wt_primitive(wt_sub(pts[key[1]], pts[key[0]]))
                weights.append(prim[0] if u < v else wt_neg(prim[0]))
                lengths.append(prim[1])
            # nbrs[v][0] is the vertex v was reached from, certified before v;
            # a root's first neighbour has no frame yet
            rows = _pivot(frames[nbrs[v][0]], via[v], nbrs[v], lengths)
            inv = scaled_inverse(weights) if rows is None else (1, rows)
            if inv is None:
                if others is not None:
                    raise NotDelzant(
                        f"edge directions at vertex {ids[v]} are not a lattice basis")
                # The walk only proposes independent rays.  At the start
                # vertex each ray pairs positively with a functional
                # vanishing on the earlier ones.  At u = nbrs[k] of a
                # certified v, with r_i the rays of v, the rays are -r_k and,
                # for j != k, a point of the (j, k) 2-face seen from u,
                # beta_j r_j + alpha_j r_k with beta_j > 0 its slack on the
                # facet j of v; their determinant is +-prod(beta_j) det(r) != 0.
                raise ContractError(f"vertex {ids[v]}: the walk proposed dependent edges")
            own = _certify(ids, table, v, nbrs[v], inv)
            if inv[0] == 1:
                rows = inv[1]
                frames[v] = rows, [slack for slack, _, _ in own]
            else:
                rows = [None] * len(weights)
            stars[v] = list(zip(nbrs[v], weights, lengths, rows,
                                map(operator.itemgetter(1), own)))
            for k, u in enumerate(nbrs[v]):
                if nbrs[u] is None:
                    via[u] = k
                    nbrs[u] = [v] + (_next_neighbours(own, nbrs[v], k, full) if others is None
                                     else [w for w in others[u] if w != v])
                    queue.append(u)
    for w, nb in enumerate(nbrs):
        if nb is None:
            raise NotAPolytopeSkeleton(f"vertex {ids[w]} has degree 0, expected {rank}")
    return sorted(edges), stars


def _adjacency(rank, ids, edges):
    """The neighbours of each vertex over supplied edges, in the order
    given; each edge must join two distinct vertices of the input, once, and
    every vertex must have degree ``rank``."""
    index = {v: i for i, v in enumerate(ids)}
    others = [[] for _ in ids]
    seen = set()
    for a, b in edges:
        if a not in index or b not in index or a == b:
            raise ValidationError(f"bad edge ({a}, {b})")
        key = frozenset((a, b))
        if key in seen:
            raise ValidationError(f"duplicate edge ({a}, {b})")
        seen.add(key)
        others[index[a]].append(index[b])
        others[index[b]].append(index[a])
    for i, nb in enumerate(others):
        if len(nb) != rank:
            raise NotAPolytopeSkeleton(
                f"vertex {ids[i]} has degree {len(nb)}, expected {rank}")
    return others


def build_graph(inp):
    """Validate a toric input and return the oriented moment graph.

    Without edges the polytope one-skeleton is detected (``detect_edges``).
    Supplied edges must pass the edge and degree checks (``_adjacency``) and
    then the same traversal and certificate (``_traverse``), so either way
    the graph is the hull's one-skeleton and carries its facets.  Every
    vertex's primitive edge directions must be a lattice basis (Delzant),
    which each vertex's frame records.  A direction vector in ``inp.xi`` is
    only checked; otherwise a deterministic search picks one.
    """
    ids, psis, pts, scale = _validate_input(inp)
    if inp.edges is None:
        stars = detect_edges(inp.rank, ids, pts)[1]
    else:
        stars = _traverse(inp.rank, ids, pts, _adjacency(inp.rank, ids, inp.edges))[1]
    for i, star in enumerate(stars):
        if star[0][3] is None:  # no frame rows
            raise NotDelzant(
                f"edge directions at vertex {ids[i]} are not a lattice basis")
    skel = _Skeleton(inp.rank, ids, psis, pts, scale, stars)
    return orient_and_index(skel, *choose_generic_xi(skel, inp.xi))


# pts: psis * scale, integer; stars: per vertex, as ``_traverse`` returns them
_Skeleton = namedtuple("_Skeleton", "rank ids psis pts scale stars")


def choose_generic_xi(skel, xi):
    """Pick or validate a direction separating the vertices, and return it
    with the vertices' heights <psi, xi> (scaled).  Separating the vertices
    is enough: an edge weight is a positive multiple of the difference of
    its ends, so it pairs to zero with xi exactly when its ends share a
    height."""

    def heights(cand):
        dots = [wt_dot(p, cand) for p in skel.pts]
        return dots if len(set(dots)) == len(dots) else None

    if xi is not None:
        xi = tuple(int(x) for x in xi)
        if len(xi) != skel.rank:
            raise SuppliedXiNotGeneric(f"xi has {len(xi)} entries, expected {skel.rank}")
        dots = heights(xi)
        if dots is None:
            raise SuppliedXiNotGeneric(f"xi={xi} is not generic here")
        return xi, dots
    for c in range(2, 10000):
        cand = tuple(c ** k for k in range(skel.rank))
        dots = heights(cand)
        if dots is not None:
            return cand, dots
    raise SuppliedXiNotGeneric("no generic direction found")


def orient_and_index(skel, xi, dots):
    """The graph oriented by xi, built in one pass over the vertices in
    order of their heights ``dots``, <psi, xi> scaled, as
    ``choose_generic_xi`` returns them.  At each vertex the star is sorted
    by the height of the neighbours, which is the order of its adjacency
    table; the weights toward lower neighbours, the labels of the incoming
    edges, are ``wplus`` and the rest ``wminus``, each sorted, and the frame
    rows and facet masks follow them.  ``mu`` and ``mult`` are ints when the
    scale is 1."""
    ids, scale = skel.ids, skel.scale
    points, arcs, adjacency = [], [], {}
    for i in sorted(range(len(ids)), key=dots.__getitem__):
        d, vid = dots[i], ids[i]
        star = sorted([(dots[end[0]], end) for end in skel.stars[i]])  # the heights differ
        adjacency[vid] = {ids[u]: w for _, (u, w, _, _, _) in star}
        lower, upper = [], []
        for h, (u, w, length, row, mask) in star:
            if h < d:
                lower.append((w, row, mask))
                arcs.append((h, d, Edge(ids[u], vid, w,
                                        length if scale == 1 else Fraction(length, scale))))
            else:
                upper.append((w, row, mask))
        lower.sort()
        upper.sort()
        lam = len(lower)
        ws, rows, masks = zip(*(lower + upper))
        points.append(FixedPoint(vid, skel.psis[i], d if scale == 1 else Fraction(d, scale),
                                 lam, ws[:lam], ws[lam:], rows, masks))
    arcs.sort()  # the heights of the two ends differ from edge to edge
    facets = sorted({mask for star in skel.stars for *_, mask in star})
    g = GKMGraph(skel.rank, xi, points, [arc[2] for arc in arcs], ids, facets, adjacency)
    lams = [p.lam for p in points]
    if lams.count(0) != 1 or lams.count(skel.rank) != 1 or points[0].lam != 0:
        raise ContractError("orientation needs one source and one sink vertex")
    return g


# ---------------------------------------------------------------------------
# derived combinatorics

def flow_face(g, vid):
    """Vertex set of the flow-up face through vid, the face spanned by its
    negative weights: the points on every facet opposite an incoming edge
    (``GKMGraph.face_mask``).  The flow-down face is the flow-up face of the
    graph oriented by -xi."""
    return frozenset(g.members(g.face_mask(vid)))


def upward_closure(g, vid):
    """Vertices reachable from vid along oriented edges, sorted by order:
    an edge leads up from v to each neighbour later in the moment order."""
    order = g.order_index
    reach = {vid}
    stack = [vid]
    while stack:
        v = stack.pop()
        up = order(v)
        for u in g.adjacency[v]:
            if u not in reach and order(u) > up:
                reach.add(u)
                stack.append(u)
    return sorted(reach, key=order)


def index_violations(g):
    """Oriented edges along which the index fails to increase."""
    return [e for e in g.edges if g.point(e.src).lam >= g.point(e.dst).lam]


def is_index_increasing(g):
    """Whether the index rises along every oriented edge; the test stops
    at the first edge where it does not."""
    by_id = g._by_id
    return all(by_id[e.src].lam < by_id[e.dst].lam for e in g.edges)
