"""Pivoted vertex frames against per-vertex elimination.

``build_graph`` eliminates once per connected component and pivots every
other frame from a neighbour's; ``oracles.eliminated_graph`` inverts every
vertex on its own.  On seeded valid inputs, and on inputs with rewired or
swapped edges, moved or doubled vertices and points on edges, both must
raise the same exception with the same message, or give the same graph with
the same frames, facets and adjacency, in the walk and with supplied edges
alike.
"""

from fractions import Fraction

import pytest

from gkmcalc import gkm
from gkmcalc.errors import ContractError, NotAPolytopeSkeleton, NotDelzant, ValidationError
from gkmcalc.gkm import ToricInput, build_graph
from gkmcalc.symcore import lattice_dual, wt_dot

from conftest import rng
from oracles import BASES, blowup, eliminated_graph
from test_gkm import _random_unimodular


def _outcome(build, inp):
    try:
        g = build(inp)
    except (ValidationError, ContractError) as exc:
        return type(exc), str(exc)
    return (g.xi,
            [(p.id, p.psi, p.mu, p.lam, p.wplus, p.wminus, p.frame, p.facets)
             for p in g.points],
            [(e.src, e.dst, e.weight, e.mult) for e in g.edges],
            g.facets, {v: dict(nb) for v, nb in g.adjacency.items()})


def _placed(r, verts):
    """The vertices under a seeded unimodular change of coordinates, an
    integer translation and a dilation."""
    n = len(next(iter(verts.values())))
    a = _random_unimodular(r, n)
    t = [r.randint(-4, 4) for _ in range(n)]
    s = r.choice((Fraction(1), Fraction(2), Fraction(3, 2)))
    return {v: tuple(s * wt_dot(row, p) + c for row, c in zip(a, t)) for v, p in verts.items()}


def _variants(r, verts, edges):
    """(name, vertices, edges or None) for the input and its corruptions."""
    ids = sorted(verts)
    pairs = [tuple(r.sample(sorted(e), 2)) for e in sorted(edges, key=sorted)]
    r.shuffle(pairs)
    yield "valid", verts, pairs
    (a, b), (c, d) = r.sample(pairs, 2)
    rewired = [p for p in pairs if p not in ((a, b), (c, d))] + [(a, d), (c, b)]
    yield "rewired", verts, rewired
    u, v = r.sample(ids, 2)
    yield "swapped", {**verts, u: verts[v], v: verts[u]}, pairs
    u = r.choice(ids)
    step = tuple(Fraction(r.randint(-2, 2), r.choice((1, 2))) for _ in verts[u])
    yield "moved", {**verts, u: tuple(x + y for x, y in zip(verts[u], step))}, pairs
    u, v = r.sample(ids, 2)
    yield "doubled", {**verts, u: verts[v]}, pairs
    a, b = r.choice(pairs)
    mid = tuple((x + y) / 2 for x, y in zip(verts[a], verts[b]))
    yield "on an edge", {**verts, "mid": mid}, pairs


def _cases():
    r = rng(905)
    out = []
    for copy in range(20):
        for base in sorted(BASES):
            verts, edges = blowup(r, base, copy % 3)
            out += _variants(r, _placed(r, verts), edges)
    return out


CASES = _cases()


@pytest.mark.parametrize("given", [False, True], ids=["walk", "supplied"])
def test_pivoted_frames_equal_per_vertex_elimination(given):
    kinds = {}
    for name, verts, pairs in CASES:
        inp = ToricInput(rank=len(next(iter(verts.values()))), vertices=sorted(verts.items()),
                         edges=pairs if given else None)
        got = _outcome(build_graph, inp)
        assert got == _outcome(eliminated_graph, inp), (name, verts, pairs)
        kinds.setdefault(name, set()).add(got[0] if isinstance(got[0], type) else "graph")
        if not isinstance(got[0], type):
            # and each frame is the inverse of the vertex's weights
            for _, _, _, _, wplus, wminus, frame, _ in got[1]:
                assert frame == lattice_dual(list(wplus + wminus))
    assert kinds["valid"] == {"graph"}
    assert ValidationError in kinds["doubled"]
    assert NotAPolytopeSkeleton in kinds["on an edge"]
    seen = set().union(*kinds.values())
    assert {"graph", NotDelzant, NotAPolytopeSkeleton} <= seen, kinds


def test_each_point_lists_its_weights_in_order_with_rows_and_facets_in_step():
    # the one-pass orientation: the adjacency of a point lists its
    # neighbours by height, wplus and wminus are the sorted weights toward
    # the lower and the higher ones, and the i-th facet mask holds the point
    # and every neighbour but the one along the i-th weight
    for name, verts, _ in CASES[::6]:
        assert name == "valid"
        g = build_graph(ToricInput(rank=len(next(iter(verts.values()))),
                                   vertices=sorted(verts.items())))
        for p in g.points:
            nb, h = g.adjacency[p.id], g.order_index(p.id)
            assert list(nb) == sorted(nb, key=g.order_index)
            assert p.wplus == tuple(sorted(w for q, w in nb.items() if g.order_index(q) < h))
            assert p.wminus == tuple(sorted(w for q, w in nb.items() if g.order_index(q) > h))
            assert p.lam == len(p.wplus)
            toward = {w: q for q, w in nb.items()}
            for w, mask in zip(p.wplus + p.wminus, p.facets):
                on = set(g.members(mask))
                assert p.id in on and toward[w] not in on
                assert set(nb) - {toward[w]} <= on
        assert g.facets == sorted({mask for p in g.points for mask in p.facets})


def _edge_set(g):
    return {frozenset((e.src, e.dst)) for e in g.edges}


def test_supplied_edges_are_accepted_only_as_the_walks_skeleton():
    # every supplied-edge input either raises or is given exactly the edges
    # that the walk finds on its vertices; some are refused by the skeleton
    # certificate alone, having passed the degree and lattice-basis checks
    refused = 0
    for name, verts, pairs in CASES:
        vertices = sorted(verts.items())
        rank = len(vertices[0][1])
        try:
            given = build_graph(ToricInput(rank=rank, vertices=vertices, edges=pairs))
        except NotAPolytopeSkeleton as exc:
            refused += "skeleton certificate" in str(exc)
            continue
        except (ValidationError, ContractError):
            continue
        walked = build_graph(ToricInput(rank=rank, vertices=vertices))
        assert _edge_set(given) == _edge_set(walked), (name, verts, pairs)
        assert given.facets == walked.facets
    assert refused


def _count_eliminations(monkeypatch):
    calls = []
    orig = gkm.scaled_inverse

    def counted(cols):
        calls.append(cols)
        return orig(cols)
    monkeypatch.setattr(gkm, "scaled_inverse", counted)
    return calls


def _two_triangles(a, b):
    """Two triangles a0 a1 a2 and b0 b1 b2, each with its three edges."""
    vertices = [(f"{s}{i}", p) for s, tri in (("a", a), ("b", b)) for i, p in enumerate(tri)]
    edges = [(f"{s}{i}", f"{s}{j}") for s in "ab" for i, j in ((0, 1), (1, 2), (0, 2))]
    return vertices, edges


def test_supplied_edges_take_one_elimination_per_component(monkeypatch):
    # a small triangle inside a large one: the large triangle's component is
    # rooted at a0, eliminated once and pivoted twice, and passes; the small
    # one's root b0 is eliminated too, and the certificate then finds a0
    # outside its cone
    calls = _count_eliminations(monkeypatch)
    vertices, edges = _two_triangles([(0, 0), (6, 0), (0, 6)], [(1, 1), (2, 1), (1, 2)])
    with pytest.raises(NotAPolytopeSkeleton, match="vertex b0 fails the skeleton certificate: "
                       "point a0 lies outside the cone of its candidate edges"):
        build_graph(ToricInput(rank=2, vertices=vertices, edges=edges))
    assert len(calls) == 2


def test_supplied_edges_are_refused_at_the_first_failing_vertex(monkeypatch):
    # two disjoint triangles: the traversal certifies a0, pivots a1 from it
    # and refuses a1, since b0 lies outside a facet of a1, before component
    # b is reached
    calls = _count_eliminations(monkeypatch)
    tri = [(0, 0), (1, 0), (0, 1)]
    vertices, edges = _two_triangles(tri, [(x + 5, y + 7) for x, y in tri])
    with pytest.raises(NotAPolytopeSkeleton, match="vertex a1 fails the skeleton certificate: "
                       "point b0 lies outside the cone"):
        build_graph(ToricInput(rank=2, vertices=vertices, edges=edges, xi=(1, 3)))
    assert len(calls) == 1
