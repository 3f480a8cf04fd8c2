"""Structure constants over both coefficient rings.

c_pq^r are the coefficients of tau_p tau_q in the canonical basis, computed
by the same triangular elimination in K and in H.
"""

from fractions import Fraction

import pytest

from gkmcalc import classes as cl
from gkmcalc.gkm import build_graph, upward_closure
from gkmcalc.symcore import H, K

from conftest import rng
from oracles import BASES, blowup, cut_corner, fixture_graph, polytope_input, product_polytope


def _cut_cube():
    """The unit cube with the corner (0,0,1) cut at lattice distance 1/3."""
    verts, edges = product_polytope(BASES["cube3"])
    corner = next(v for v, psi in verts.items() if psi == (0, 0, 1))
    return build_graph(polytope_input(cut_corner(verts, edges, corner, Fraction(1, 3))[0]))


def _graphs():
    graphs = {name: fixture_graph(name) for name in ("cp2", "square", "hirzebruch", "cpn:3")}
    graphs["cut-cube"] = _cut_cube()
    r = rng(903)
    for base in BASES:
        graphs[f"{base}-blowup"] = build_graph(polytope_input(blowup(r, base, 2)[0]))
    return graphs


GRAPHS = _graphs()


@pytest.mark.parametrize("ring", [K, H], ids=["ktheory", "cohomology"])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_structure_constants_recombine(ring, name):
    g = GRAPHS[name]
    vids = g.vids()
    basis = cl.basis(ring, g)
    table = cl.structure_constants(ring, g, basis)
    for i, p in enumerate(vids):
        for q in vids[i:]:
            acc = cl.zero_class(ring, g)
            for r in vids:
                f = table.get((p, q, r))
                if f is not None:
                    acc = cl.class_add(acc, cl.class_scale(basis[r], f))
            assert cl.class_equal(acc, cl.class_mul(basis[p], basis[q])), (p, q)
    closure = {p: set(upward_closure(g, p)) for p in vids}
    for (p, q, r), f in table.items():
        assert not f.is_zero()
        assert r in closure[p] & closure[q], (p, q, r)
        if ring is H:
            lam = g.point(p).lam + g.point(q).lam - g.point(r).lam
            assert f.is_integral(), (p, q, r, f)
            assert f.homogeneous_degree() == lam, (p, q, r, f)
    assert table[(vids[0], vids[0], vids[0])] == ring.one(g.rank)
