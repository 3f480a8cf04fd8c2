"""The bases built from the theorems against the correction walk.

The H canonical classes are the flow-up duals, and the K point classes are
the Moebius inversion of the canonical ones over flow-up faces.  The walk in
``oracles.corrected_class`` builds each class from its local indices
instead; on every graph here, under two seeded directions each, both must
give the same tables.
"""

import pytest

from gkmcalc import classes as cl
from gkmcalc.errors import SuppliedXiNotGeneric
from gkmcalc.fixtures import fixture_input
from gkmcalc.gkm import build_graph, flow_face, is_index_increasing
from gkmcalc.symcore import H, K

from conftest import rng
from oracles import BASES, blowup, corrected_class, cut_cube, polytope_input

FIXTURES = ("cp2", "square", "hirzebruch", "cpn:3")
CASES = [(base, cuts, copy) for base in BASES for cuts in (1, 2, 3) for copy in (0, 1)]


def _oriented(r, make):
    """Two graphs of one input, each under a seeded random direction that
    is generic for it."""
    graphs = []
    while len(graphs) < 2:
        inp = make()
        inp.xi = tuple(r.randint(-9, 9) for _ in range(inp.rank))
        try:
            graphs.append(build_graph(inp))
        except SuppliedXiNotGeneric:
            continue
    return graphs


def _graphs():
    r = rng(904)
    inputs = {name: (lambda name=name: fixture_input(name)) for name in FIXTURES}
    inputs["cut-cube"] = lambda: polytope_input(cut_cube()[0])
    for case in CASES:
        verts = blowup(r, case[0], case[1])[0]
        inputs["-".join(map(str, case))] = lambda verts=verts: polytope_input(verts)
    return {(name, i): g for name, make in inputs.items()
            for i, g in enumerate(_oriented(r, make))}


GRAPHS = _graphs()


def test_the_graphs_are_not_all_index_increasing():
    assert len(GRAPHS) >= 2 * (len(FIXTURES) + 1 + 30)
    assert sum(not is_index_increasing(g) for g in GRAPHS.values()) > len(GRAPHS) // 4


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
    # a single point class builds only the canonical classes its faces reach
    for p in (vids[0], vids[len(vids) // 2]):
        assert cl.class_equal(cl.point_classes(K, g, [p])[p], point[p]), p
