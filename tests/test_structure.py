"""Structure constants over both coefficient rings.

c_pq^r are the coefficients of tau_p tau_q in the canonical basis, computed
by the same triangular elimination in K and in H.  The package opens each
expansion with c_pq^q = tau_p(q); the reference expands each whole product.
"""

import pytest

from gkmcalc import classes as cl
from gkmcalc.errors import DivisionFailure
from gkmcalc.gkm import build_graph, upward_closure
from gkmcalc.symcore import H, K

from conftest import rng
from oracles import BASES, blowup, cut_cube, fixture_graph, full_structure_constants, polytope_input


def _graphs():
    graphs = {name: fixture_graph(name) for name in ("cp2", "square", "hirzebruch", "cpn:3")}
    graphs["cut-cube"] = build_graph(polytope_input(cut_cube()[0]))
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


@pytest.mark.parametrize("ring", [K, H], ids=["ktheory", "cohomology"])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_structure_constants_match_the_full_expansion(ring, name):
    g = GRAPHS[name]
    basis = cl.basis(ring, g)
    assert cl.structure_constants(ring, g, basis) == full_structure_constants(ring, g, basis)


@pytest.mark.parametrize("ring", [K, H], ids=["ktheory", "cohomology"])
@pytest.mark.parametrize("name", ["cp2", "hirzebruch", "cut-cube"])
def test_a_class_off_the_euler_class_at_its_vertex_is_subtracted_there(ring, name):
    # every expansion leaves a class out at its own vertex, where a Kirwan
    # class is the Euler class the step divides by; a basis whose class is
    # doubled there is refused where it enters, naming the vertex
    g = GRAPHS[name]
    basis = cl.basis(ring, g)
    top = g.vids()[-1]
    broken = {**basis, top: {**basis[top], top: 2 * basis[top][top]}}
    with pytest.raises(DivisionFailure) as exc:
        cl.structure_constants(ring, g, broken)
    assert str(exc.value) == f"the basis class at {top} is not a Kirwan class there"


@pytest.mark.parametrize("ring", [K, H], ids=["ktheory", "cohomology"])
@pytest.mark.parametrize("name", ["cp2", "hirzebruch", "cut-cube"])
def test_a_class_nonzero_below_its_vertex_is_refused(ring, name):
    # the other half of the Kirwan test: the class at the second vertex,
    # right at its own vertex, is given a value at the bottom vertex too
    g = GRAPHS[name]
    basis = cl.basis(ring, g)
    low, p = g.vids()[:2]
    assert cl.is_kirwan_class(ring, g, basis[p], p)
    broken = {**basis, p: {**basis[p], low: ring.one(g.rank)}}
    assert not cl.is_kirwan_class(ring, g, broken[p], p)
    with pytest.raises(DivisionFailure) as exc:
        cl.structure_constants(ring, g, broken)
    assert str(exc.value) == f"the basis class at {p} is not a Kirwan class there"
    # the reference, which subtracts each class in full, sees the product
    # fail to expand as well
    with pytest.raises(DivisionFailure):
        full_structure_constants(ring, g, broken)
