"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Everything here is exact integer / rational arithmetic; the only tolerances
are the stated wall clock bounds.
"""

import random
import time
from fractions import Fraction

from gkmcalc import classes as cl
from gkmcalc import cohomology as ch
from gkmcalc.cli import main
from gkmcalc.fixtures import hirzebruch_sample_class, hirzebruch_input, square_reference_class
from gkmcalc.gkm import build_graph, flow_face, is_index_increasing
from gkmcalc.kirwan import kirwan_restrict_all, reduced_fixed_data
from gkmcalc.symcore import H, K, LaurentPoly, LocalizedSum, PolyH

from conftest import rand_laurent, rand_weight, specialization_points
from oracles import (
    cpn_prequantization_basis,
    eval_k,
    eval_laurent,
    fixture_graph,
    hirzebruch_reference_basis,
    local_index_parts,
    restrict_from_sources,
)


def e(*expo):
    return LaurentPoly.monomial(expo)


def _ok(num, label):
    print(f"ACCEPTANCE {num} ({label}): PASS")


def test_criterion_1_triangle_basis(capsys):
    start = time.perf_counter()
    rc = main(["basis", "--fixture", "cp2", "--mode", "ktheory"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert rc == 0
    assert out == (
        "class tau:p0\n"
        "  p0: 1\n  p1: 1\n  p2: 1\n"
        "class tau:p1\n"
        "  p0: 0\n  p1: 1 - e[1,0]\n  p2: 1 - e[0,1]\n"
        "class tau:p2\n"
        "  p0: 0\n  p1: 0\n  p2: -e[-1,1] + e[-1,2] + 1 - e[0,1]\n"
    )
    g = fixture_graph("cp2")
    basis = cl.basis(K, g)
    assert cl.class_equal(basis["p1"], {
        "p0": LaurentPoly.zero(2), "p1": 1 - e(1, 0), "p2": 1 - e(0, 1)})
    assert basis["p2"]["p2"] == (1 - e(-1, 1)) * (1 - e(0, 1))
    assert elapsed < 1.0
    with capsys.disabled():
        _ok(1, "triangle K basis")


def test_criterion_2_trapezoid_basis(capsys):
    start = time.perf_counter()
    g = fixture_graph("hirzebruch")
    assert not is_index_increasing(g)

    # reference classes: trivial at the bottom, point-normalized above
    reference = hirzebruch_reference_basis(g)
    got = sorted(repr(v) for c in reference.values()
                 for v in c.values() if not v.is_zero())
    want = sorted(repr(p) for p in [
        LaurentPoly.one(2), LaurentPoly.one(2), LaurentPoly.one(2),
        LaurentPoly.one(2),
        1 - e(1, 1),                      # 1 - e^(x+y)
        e(0, 1) - e(1, 0),                # (1 - e^(x-y)) e^y
        1 - e(0, 1),                      # 1 - e^y
        (1 - e(0, 1)) * e(-1, 1),         # (1 - e^y) e^(y-x)
        (1 - e(0, 1)) * (1 - e(-1, 1)),   # (1 - e^y)(1 - e^(y-x))
    ])
    assert got == want

    # the inductive construction is genuinely exercised and lands on the
    # unique classes with index 1 across each flow-up face
    canonical = cl.basis(K, g)
    etas = {p: cl.poincare_dual(K, g, p) for p in g.vids()}
    assert not cl.class_equal(canonical["p1"], etas["p1"])
    one = LaurentPoly.one(2)
    zero = LaurentPoly.zero(2)
    for p in g.vids():
        face = flow_face(g, p)
        for q in g.vids():
            assert cl.local_index(K, g, canonical[p], q) == \
                (one if q in face else zero)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    with capsys.disabled():
        _ok(2, "trapezoid K basis values")


def test_criterion_3_worked_local_index(capsys):
    g = fixture_graph("hirzebruch")
    tau = hirzebruch_sample_class(g)
    fs, dens = local_index_parts(K, g, tau, "p2")
    # substituted restrictions: (1 - e^(x-y)) e^(y+w0) and 1 - e^(x-y)
    assert fs[0] == LaurentPoly(3, {(0, 1, 1): 1, (1, 0, 1): -1})
    assert fs[1] == LaurentPoly(3, {(0, 0, 0): 1, (1, -1, 0): -1})
    assert dens == [[(0, 1, 1)], [(0, -1, -1)]]
    assert cl.local_index(K, g, tau, "p2") == LaurentPoly.zero(2)
    with capsys.disabled():
        _ok(3, "worked local index")


def test_criterion_4_global_indices(capsys):
    for name in ("cp1", "cp2", "cpn:3", "hirzebruch"):
        g = fixture_graph(name)
        assert cl.pushforward(K, g, cl.one_class(K, g)) == LaurentPoly.one(g.rank)
        assert cl.pushforward(H, g, cl.one_class(H, g)) == PolyH.zero(g.rank)
    with capsys.disabled():
        _ok(4, "global index of the trivial class")


def test_criterion_5_kirwan_square(capsys):
    g = fixture_graph("square")
    setup = reduced_fixed_data(g, (1, 1))
    alpha = square_reference_class(g)
    assert cl.check_gkm(H, g, alpha) == []
    x = PolyH.linear_form((1, -1))
    on_w1_edge = next(p for p in setup.points if p.edge_weight == (1, 0))
    on_w2_edge = next(p for p in setup.points if p.edge_weight == (0, 1))
    # from the top value w1 + w2
    vals = kirwan_restrict_all(setup, alpha)
    assert vals[on_w1_edge.id] == -x
    assert vals[on_w2_edge.id] == x
    # recomputed from the other endpoints 4 w1 + w2 and w1 + 7 w2
    assert alpha[on_w1_edge.source] == PolyH.linear_form((4, 1))
    assert alpha[on_w2_edge.source] == PolyH.linear_form((1, 7))
    vals = restrict_from_sources(setup, alpha)
    assert vals[on_w1_edge.id] == -x
    assert vals[on_w2_edge.id] == x
    with capsys.disabled():
        _ok(5, "reduction restrictions")


def test_criterion_6_three_way_equality(capsys):
    for name in ("cp2", "cpn:3"):
        g = fixture_graph(name)
        duals = {p: cl.poincare_dual(H, g, p) for p in g.vids()}
        zetas = ch.gt_basis(g)
        canon = cl.basis(H, g)
        for p in g.vids():
            assert cl.class_equal(duals[p], zetas[p])
            assert cl.class_equal(duals[p], canon[p])
    # the trapezoid has no path-sum classes, but its duals still pass both
    # local index conditions
    g = fixture_graph("hirzebruch")
    one = PolyH.one(2)
    zero = PolyH.zero(2)
    for p in g.vids():
        c = cl.poincare_dual(H, g, p)
        for q in g.vids():
            assert cl.local_index(H, g, c, q) == (one if q == p else zero)
    with capsys.disabled():
        _ok(6, "three-way cohomology equality")


def test_criterion_7_unit_ratios(capsys):
    for name in ("cp1", "cp2", "cpn:3", "hirzebruch", "square"):
        g = fixture_graph(name)
        edges = ch.ecan_edges(g)
        assert edges
        for edge in edges:
            assert ch.theta(g, edge) == Fraction(1)
    with capsys.disabled():
        _ok(7, "unit projected ratios")


def test_criterion_8_property_suites(capsys):
    start = time.perf_counter()
    r = random.Random(20260808)
    graphs = {name: fixture_graph(name) for name in ("cp2", "hirzebruch")}
    etas = {name: {p: cl.poincare_dual(K, g, p) for p in g.vids()}
            for name, g in graphs.items()}
    bases = {name: cl.basis(K, g) for name, g in graphs.items()}
    tables = {name: cl.structure_constants(K, g, bases[name])
              for name, g in graphs.items()}

    def rand_class(g, es):
        c = cl.zero_class(K, g)
        for p in g.vids():
            if r.random() < 0.5:
                c = cl.class_add(c, cl.class_scale(es[p], rand_laurent(r, g.rank, 2)))
        return c

    def pick():
        name = ("cp2", "hirzebruch")[r.randrange(2)]
        return name, graphs[name]

    # local index additivity
    for _ in range(200):
        name, g = pick()
        a = rand_class(g, etas[name])
        b = rand_class(g, etas[name])
        q = g.vids()[r.randrange(len(g.vids()))]
        assert cl.local_index(K, g, cl.class_add(a, b), q) == \
            cl.local_index(K, g, a, q) + cl.local_index(K, g, b, q)

    # local index of an Euler multiple
    for _ in range(200):
        name, g = pick()
        q = g.vids()[r.randrange(len(g.vids()))]
        f = rand_laurent(r, g.rank)
        c = cl.class_scale(etas[name][q], f)
        assert cl.local_index(K, g, c, q) == f

    # every emitted class satisfies the divisibility condition
    for _ in range(200):
        name, g = pick()
        assert cl.check_gkm(K, g, rand_class(g, etas[name])) == []

    # triangular unit-diagonal change of basis
    for _ in range(200):
        name, g = pick()
        p = g.vids()[r.randrange(len(g.vids()))]
        coeffs = cl.expand_in_basis(K, g, etas[name], bases[name][p])
        assert coeffs[p] == LaurentPoly.one(g.rank)
        assert all(g.order_index(s) >= g.order_index(p) for s in coeffs)

    # uniqueness under vertex input permutation
    reference = cl.basis(K, graphs["hirzebruch"])
    for _ in range(200):
        inp = hirzebruch_input()
        r.shuffle(inp.vertices)
        g2 = build_graph(inp)
        got = cl.basis(K, g2)
        for p in g2.vids():
            assert cl.class_equal(got[p], reference[p])

    # structure constants reproduce pointwise products
    for _ in range(200):
        name, g = pick()
        vids = g.vids()
        i = r.randrange(len(vids))
        j = r.randrange(i, len(vids))
        p, q = vids[i], vids[j]
        prod = cl.class_mul(bases[name][p], bases[name][q])
        acc = cl.zero_class(K, g)
        for s in vids:
            coeff = tables[name].get((p, q, s))
            if coeff is not None:
                acc = cl.class_add(acc, cl.class_scale(bases[name][s], coeff))
        assert cl.class_equal(acc, prod)

    # reduction order invariance plus numeric specialization oracle
    for _ in range(200):
        rank = 2
        parts = []
        for _ in range(r.randint(2, 3)):
            numer = rand_laurent(r, rank, 2)
            dens = [rand_weight(r, rank, -2, 2) for _ in range(r.randint(0, 2))]
            for w in dens:
                numer = numer * LaurentPoly.one_minus(w)
            parts.append((numer, dens))
        fwd = LocalizedSum("K", rank)
        rev = LocalizedSum("K", rank)
        for numer, dens in parts:
            fwd.add_term(numer, dens)
        for numer, dens in reversed(parts):
            rev.add_term(numer, dens)
        out = fwd.reduce()
        assert isinstance(out, LaurentPoly)
        assert out == rev.reduce()
        bases_, xis = specialization_points(rank, 3)
        hits = 0
        for base in bases_:
            for xi in xis:
                try:
                    sval = eval_k(fwd, base, xi)
                except ValueError:
                    continue
                assert sval == eval_laurent(out, base, xi)
                hits += 1
                if hits == 3:
                    break
            if hits == 3:
                break
        assert hits == 3

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    with capsys.disabled():
        _ok(8, f"property suites in {elapsed:.1f}s")


def test_criterion_9_projective_product_classes(capsys):
    for n in (1, 2, 3):
        g, basis = cpn_prequantization_basis(n)
        canonical = cl.basis(K, g)
        vids = g.vids()
        for k, p in enumerate(vids):
            assert cl.class_equal(basis[p], canonical[p])
            # k-th power pattern: product of k shifted line bundle factors
            for s in vids:
                if s in flow_face(g, p):
                    val = LaurentPoly.one(n)
                    for q in vids[:k]:
                        diff = tuple(int(a - b) for a, b in zip(g.psi(s), g.psi(q)))
                        val = val * (1 - LaurentPoly.monomial(diff))
                    assert basis[p][s] == val
                else:
                    assert basis[p][s].is_zero()
    with capsys.disabled():
        _ok(9, "projective product classes")
