"""Moment graphs of toric manifolds.

Input is a list of vertices with exact rational moment images, optionally an
explicit edge list and a direction vector.  The polytope one-skeleton is
recovered by brute-force supporting-hyperplane tests (desk scale), each
vertex is checked for the lattice-basis condition, edges are oriented along a
generic direction and the combinatorial derived data (indices, flow faces,
upward closures) is computed.  The triangular elimination of a class in a
Kirwan basis, which follows the moment order, is shared here by the K and H
sides.

Conventions, used consistently everywhere downstream:

* the label of the oriented edge p -> q is the primitive vector along
  psi(q) - psi(p), so it pairs positively with the chosen direction;
* the isotropy weights at a vertex are the labels of its incoming edges
  together with the negated labels of its outgoing edges, so the minimum
  carries only negative weights and ``wplus`` matches the incoming labels.
"""

from __future__ import annotations

import itertools
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
    canonical_sign,
    mat_det,
    mat_from_cols,
    rational_primitive,
    wt_dot,
    wt_neg,
    wt_primitive,
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

    def mu(self, vid):
        return self._by_id[vid].mu

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

    def weights_at(self, vid):
        """Full isotropy weight tuple at a vertex."""
        p = self._by_id[vid]
        return p.wplus + p.wminus

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


def _hyperplane_normal(points):
    """Primitive integer normal of the affine span of rank points, or None."""
    n = len(points[0])
    dirs = [wt_sub(p, points[0]) for p in points[1:]]
    rows = [[Fraction(x) for x in d] for d in dirs]
    # row echelon to find the one-dimensional kernel
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if r != n - 1:
        return None
    free = next(c for c in range(n) if c not in pivots)
    kern = [Fraction(0)] * n
    kern[free] = Fraction(1)
    for i, c in enumerate(pivots):
        kern[c] = -rows[i][free]
    denom = 1
    for x in kern:
        denom = denom * x.denominator // math.gcd(denom, x.denominator)
    ints = tuple(int(x * denom) for x in kern)
    prim, _ = wt_primitive(ints)
    prim, _ = canonical_sign(prim)
    return prim


def detect_edges(rank, ids, psis):
    """One-skeleton of the convex hull by exhaustive facet enumeration.

    A vertex pair spans an edge exactly when the intersection of all facets
    containing both of them is that pair alone.
    """
    nv = len(ids)
    if rank == 1:
        if nv == 2:
            return [(0, 1)]
        return []
    facets = set()
    seen = set()
    degenerate = True
    for subset in itertools.combinations(range(nv), rank):
        normal = _hyperplane_normal([psis[i] for i in subset])
        if normal is None:
            continue
        offset = wt_dot(normal, psis[subset[0]])
        key = (normal, offset)
        if key in seen:
            continue
        seen.add(key)
        sides = [wt_dot(normal, p) - offset for p in psis]
        if any(s > 0 for s in sides) and any(s < 0 for s in sides):
            degenerate = False
            continue
        if any(s != 0 for s in sides):
            degenerate = False
        on = frozenset(i for i, s in enumerate(sides) if s == 0)
        if len(on) < nv:
            facets.add(on)
    if degenerate:
        raise NotDelzant("vertices do not span the ambient space")
    edges = []
    for i, j in itertools.combinations(range(nv), 2):
        common = [f for f in facets if i in f and j in f]
        if not common:
            continue
        meet = frozenset.intersection(*common)
        if meet == frozenset((i, j)):
            edges.append((i, j))
    return edges


def build_graph(inp, xi=None):
    """Validate a toric input and return the oriented moment graph.

    Supplied edges are validated as-is; otherwise the polytope one-skeleton
    is detected.  A supplied direction vector is only checked; otherwise a
    deterministic search picks one.
    """
    ids, psis = _validate_input(inp)
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
        pairs = detect_edges(inp.rank, ids, psis)

    degree = {i: 0 for i in range(len(ids))}
    for i, j in pairs:
        degree[i] += 1
        degree[j] += 1
    for i, d in degree.items():
        if d != inp.rank:
            raise NotAPolytopeSkeleton(
                f"vertex {ids[i]} has degree {d}, expected {inp.rank}")

    # Delzant: primitive incident directions form a lattice basis everywhere
    dirs_at = {i: [] for i in range(len(ids))}
    for i, j in pairs:
        prim, _ = rational_primitive(wt_sub(psis[j], psis[i]))
        dirs_at[i].append(prim)
        dirs_at[j].append(wt_neg(prim))
    for i, dirs in dirs_at.items():
        det = mat_det(mat_from_cols(dirs))
        if abs(det) != 1:
            raise NotDelzant(
                f"edge directions at vertex {ids[i]} are not a lattice basis")

    skel = _Skeleton(inp.rank, ids, psis, pairs)
    chosen = choose_generic_xi(skel, inp.xi if xi is None else xi)
    return orient_and_index(skel, chosen)


@dataclass
class _Skeleton:
    rank: int
    ids: list
    psis: list
    pairs: list  # index pairs

    def edge_weights(self):
        out = []
        for i, j in self.pairs:
            prim, _ = rational_primitive(wt_sub(self.psis[j], self.psis[i]))
            out.append(prim)
        return out


def choose_generic_xi(skel, xi=None):
    """Pick or validate a direction pairing nonzero with every edge weight
    and separating the vertices."""
    weights = skel.edge_weights()

    def ok(cand):
        if len(cand) != skel.rank:
            return False
        if any(wt_dot(w, cand) == 0 for w in weights):
            return False
        mus = [wt_dot(p, cand) for p in skel.psis]
        return len(set(mus)) == len(mus)

    if xi is not None:
        xi = tuple(int(x) for x in xi)
        if not ok(xi):
            raise SuppliedXiNotGeneric(f"xi={xi} is not generic here")
        return xi
    for c in range(2, 10000):
        cand = tuple(c ** k for k in range(skel.rank))
        if ok(cand):
            return cand
    raise SuppliedXiNotGeneric("no generic direction found")


def orient_and_index(skel, xi):
    order = sorted(range(len(skel.ids)), key=lambda i: wt_dot(skel.psis[i], xi))
    points = [
        FixedPoint(id=skel.ids[i], psi=skel.psis[i], mu=wt_dot(skel.psis[i], xi))
        for i in order
    ]
    edges = []
    for i, j in skel.pairs:
        diff = tuple(wt_sub(skel.psis[j], skel.psis[i]))
        prim, scale = rational_primitive(diff)
        if wt_dot(prim, xi) > 0:
            src, dst, w, mult = skel.ids[i], skel.ids[j], prim, scale
        else:
            src, dst, w, mult = skel.ids[j], skel.ids[i], wt_neg(prim), scale
        edges.append(Edge(src=src, dst=dst, weight=w, mult=mult))
    mu_of = {p.id: p.mu for p in points}
    edges.sort(key=lambda e: (mu_of[e.src], mu_of[e.dst]))
    g = GKMGraph(skel.rank, xi, points, edges)
    for p in points:
        wplus = tuple(sorted(e.weight for e in g.in_edges[p.id]))
        wminus = tuple(sorted(wt_neg(e.weight) for e in g.out_edges[p.id]))
        p.wplus = wplus
        p.wminus = wminus
        p.lam = len(wplus)
    lams = [p.lam for p in points]
    if lams.count(0) != 1 or lams.count(skel.rank) != 1 or points[0].lam != 0:
        raise ContractError("orientation needs one source and one sink vertex")
    return g


def toric_graph(inp):
    return build_graph(inp)


# ---------------------------------------------------------------------------
# derived combinatorics

class _Span:
    """Rational span with exact membership tests."""

    def __init__(self, vectors):
        self.rows = []
        for v in vectors:
            self.add(v)

    def add(self, v):
        row = [Fraction(x) for x in v]
        for basis in self.rows:
            piv = next(i for i, x in enumerate(basis) if x != 0)
            if row[piv] != 0:
                f = row[piv] / basis[piv]
                row = [x - f * y for x, y in zip(row, basis)]
        if any(x != 0 for x in row):
            self.rows.append(row)
            return True
        return False

    def contains(self, v):
        row = [Fraction(x) for x in v]
        for basis in self.rows:
            piv = next(i for i, x in enumerate(basis) if x != 0)
            if row[piv] != 0:
                f = row[piv] / basis[piv]
                row = [x - f * y for x, y in zip(row, basis)]
        return all(x == 0 for x in row)


def flow_face(g, vid, direction="up"):
    """Vertex set of the face through vid spanned by the negative weights
    (up) or the positive weights (down), computed as the span closure."""
    p = g.point(vid)
    gens = p.wminus if direction == "up" else p.wplus
    span = _Span(gens)
    reach = {vid}
    stack = [vid]
    while stack:
        v = stack.pop()
        for other, e in g.incident(v):
            if other in reach:
                continue
            if span.contains(e.weight):
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
