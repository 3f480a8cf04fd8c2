"""Toric blow-ups: seeded corner cuts of simple polytopes, composed.

A cut at a vertex is at the same lattice distance along each primitive edge
direction there, below every edge's lattice length, so the result is again
Delzant (Fulton, Introduction to Toric Varieties, 2.4).  It is not a product
and usually not index increasing.
"""

import json
import time

import pytest

from gkmcalc import classes as cl
from gkmcalc.cli import main
from gkmcalc.gkm import build_graph
from gkmcalc.symcore import H, K

from conftest import rng
from oracles import BASES, blowup, cut_corner, polytope_input, polytope_json

CASES = [(base, cuts, copy) for base in BASES for cuts in (1, 2, 3) for copy in (0, 1)]


@pytest.fixture(scope="module")
def blowups():
    r = rng(901)
    return {case: blowup(r, case[0], case[1]) for case in CASES}


def test_blowups_build_their_edges_and_pass_verification(blowups, tmp_path, capsys):
    start = time.perf_counter()
    not_increasing = 0
    for case, (verts, edges) in blowups.items():
        g = build_graph(polytope_input(verts))
        assert {frozenset((e.src, e.dst)) for e in g.edges} == edges, case
        path = tmp_path / "blowup.json"
        path.write_text(json.dumps(polytope_json(verts)))
        rc = main(["verify", "--input", str(path), "--level", "full"])
        out = capsys.readouterr().out
        assert rc == 0 and "FAIL" not in out, (case, out)
        not_increasing += "flow-up equals upward closure" not in out
        for ring in (K, H):
            basis = cl.basis(ring, g)
            for p in g.vids():
                assert cl.is_kirwan_class(ring, g, basis[p], p), (case, ring.name, p)
                assert cl.check_gkm(ring, g, basis[p]) == [], (case, ring.name, p)
        for p in g.vids():
            assert cl.class_equal(basis[p], cl.poincare_dual(H, g, p)), (case, p)
    # the family is not the index increasing one the fixtures mostly are
    assert not_increasing > len(CASES) // 2
    assert time.perf_counter() - start < 5


def test_cuts_compose_and_stay_below_the_edge_lengths():
    r = rng(902)
    verts, edges = blowup(r, "cube3", 3)
    assert len(verts) == 8 + 3 * 2
    assert len(edges) == len(verts) * 3 // 2
    with pytest.raises(ValueError, match="does not fit"):
        cut_corner(verts, edges, sorted(verts)[0], 10)
