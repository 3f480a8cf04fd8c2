"""The bases built from the theorems against the correction walk.

The H canonical classes are the flow-up duals.  The K point class at p is
the ideal sheaf of the boundary of the flow-up face F_p, a signed sum of the
duals of the faces F_p n (n T) over sets T of facets that meet F_p but miss
p, and the K canonical class at p is the sum of the point classes over F_p.
The walk in ``oracles.corrected_class`` builds each class from its local
indices instead; on every graph here, under two seeded directions each,
both must give the same tables.  The flow-up faces read from the facet
masks must equal the span closures of ``oracles.closure_face``.
"""

import pytest

from gkmcalc import classes as cl
from gkmcalc import symcore
from gkmcalc.errors import SuppliedXiNotGeneric
from gkmcalc.fixtures import fixture_input
from gkmcalc.gkm import ToricInput, build_graph, flow_face, is_index_increasing
from gkmcalc.symcore import H, K

from conftest import rng
from oracles import (
    BASES,
    _simplex,
    blowup,
    closure_face,
    corrected_class,
    cut_cube,
    polytope_input,
    product_polytope,
)

FIXTURES = ("cp2", "square", "hirzebruch", "cpn:3")
CASES = [(base, cuts, copy) for base in BASES for cuts in (1, 2, 3) for copy in (0, 1)]
MORE_CASES = [(base, cuts, 0) for base in BASES for cuts in (0, 4)]


def _trapezoid(k):
    return [(0, 0), (1, 0), (1, 1), (0, k + 1)], {(0, 1), (1, 2), (2, 3), (0, 3)}


# products up to rank 5, with their edges supplied
PRODUCTS = {
    "F1xF2xCP1": [_trapezoid(1), _trapezoid(2), _simplex(1)],
    "F3xCP3": [_trapezoid(3), _simplex(3)],
    "cube5": [_simplex(1)] * 5,
}


def _oriented(r, make, spread=9):
    """Two graphs of one input, each under a seeded random direction that
    is generic for it."""
    graphs = []
    while len(graphs) < 2:
        inp = make()
        inp.xi = tuple(r.randint(-spread, spread) for _ in range(inp.rank))
        try:
            graphs.append(build_graph(inp))
        except SuppliedXiNotGeneric:
            continue
    return graphs


def _oriented_inputs(r, inputs):
    return {(name, i): g for name, make in inputs.items() for i, g in enumerate(_oriented(r, make))}


def _blowups(r, cases):
    return {"-".join(map(str, case)): (lambda verts=blowup(r, case[0], case[1])[0]:
                                       polytope_input(verts)) for case in cases}


def _graphs():
    r = rng(904)
    inputs = {name: (lambda name=name: fixture_input(name)) for name in FIXTURES}
    inputs["cut-cube"] = lambda: polytope_input(cut_cube()[0])
    inputs.update(_blowups(r, CASES))
    graphs = _oriented_inputs(r, inputs)
    r = rng(907)
    graphs.update(_oriented_inputs(r, _blowups(r, MORE_CASES)))
    return graphs


def _products():
    # a cube^5 needs 32 distinct sums of the entries of xi, so the entries
    # are drawn wider
    r = rng(906)
    out = {}
    for name, factors in PRODUCTS.items():
        verts, edges = product_polytope(factors)

        def make(verts=verts, edges=edges):
            return ToricInput(rank=len(next(iter(verts.values()))), vertices=sorted(verts.items()),
                              edges=sorted(tuple(sorted(e)) for e in edges))
        out.update({(name, i): g for i, g in enumerate(_oriented(r, make, 99))})
    return out


GRAPHS = _graphs()
PRODUCT_GRAPHS = _products()


def test_the_graphs_are_not_all_index_increasing():
    assert len(GRAPHS) >= 2 * (len(FIXTURES) + 1 + 30)
    assert sum(not is_index_increasing(g) for g in GRAPHS.values()) > len(GRAPHS) // 4
    assert any(not is_index_increasing(g) for g in PRODUCT_GRAPHS.values())
    assert {g.rank for g in PRODUCT_GRAPHS.values()} == {5}


@pytest.mark.parametrize("key", sorted(GRAPHS), ids=lambda key: f"{key[0]}@{key[1]}")
def test_bases_equal_the_correction_walk(key):
    g = GRAPHS[key]
    vids = g.vids()
    canonical, point, dual = cl.basis(K, g), cl.basis(K, g, "point"), cl.basis(H, g)
    for p in vids:
        assert cl.class_equal(canonical[p], corrected_class(K, g, p, flow_face(g, p))), p
        assert cl.class_equal(point[p], corrected_class(K, g, p, {p})), p
        assert cl.class_equal(dual[p], corrected_class(H, g, p, {p})), p
        for q in vids:
            want = K.one(g.rank) if q == p else K.zero(g.rank)
            assert cl.local_index(K, g, point[p], q) == want, (p, q)
    # a single class, as the CLI builds it, equals the basis's
    for p in (vids[0], vids[len(vids) // 2]):
        assert cl.class_equal(cl.basis(K, g, "point", [p])[p], point[p]), p
        assert cl.class_equal(cl.basis(K, g, vids=[p])[p], canonical[p]), p


@pytest.mark.parametrize("key", sorted(PRODUCT_GRAPHS), ids=lambda key: f"{key[0]}@{key[1]}")
def test_product_bases_equal_the_correction_walk(key):
    g = PRODUCT_GRAPHS[key]
    canonical, point = cl.basis(K, g), cl.basis(K, g, "point")
    for p in g.vids():
        assert cl.class_equal(canonical[p], corrected_class(K, g, p, flow_face(g, p))), p
        assert cl.class_equal(point[p], corrected_class(K, g, p, {p})), p


@pytest.mark.parametrize("normalization", ["canonical", "point"])
def test_k_bases_take_no_local_index_and_no_division(monkeypatch, normalization):
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper
    monkeypatch.setattr(cl, "local_index", counted("local_index", cl.local_index))
    for name in ("divide_by_cyclotomic", "cyclotomic_divides"):
        monkeypatch.setattr(symcore, name, counted(name, getattr(symcore, name)))
    graphs = [g for g in list(GRAPHS.values()) + list(PRODUCT_GRAPHS.values())
              if not is_index_increasing(g)]
    assert len(graphs) > 20
    for g in graphs:
        basis = cl.basis(K, g, normalization)
        assert list(basis) == g.vids()
    assert calls == []
    # the counters do count: a local index at the top vertex divides
    g = graphs[0]
    p = g.vids()[-1]
    cl.local_index(K, g, cl.basis(K, g)[p], p)
    assert "local_index" in calls and "divide_by_cyclotomic" in calls


def test_flow_up_faces_are_the_span_closures():
    for g in list(GRAPHS.values()) + list(PRODUCT_GRAPHS.values()):
        masks = set(g.facets)
        assert len(masks) == len(g.facets)
        for p in g.vids():
            face = closure_face(g, p)
            assert flow_face(g, p) == face, p
            assert set(g.members(g.face_mask(p))) == face
            # each facet at p is a facet of the table, and holds p
            assert all(m in masks and m & g.bits[p] for m in g.point(p).facets)
