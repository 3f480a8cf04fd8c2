"""Rational side: duals, integration, local index, ratio lemma, path sums."""

import itertools
import json
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from gkmcalc import classes as cl
from gkmcalc.classes import euler_minus, is_kirwan_class, zero_class
from gkmcalc.cli import main
from gkmcalc.errors import (
    NonConstantQuotient,
    NonPolynomialIndex,
    NotECanEdge,
    NotIndexIncreasing,
    SuppliedXiNotGeneric,
)
from gkmcalc.fixtures import fixture_input
from gkmcalc.gkm import Edge, ToricInput, build_graph, is_index_increasing
from gkmcalc.cohomology import ecan_edges, gt_basis, gt_class, theta
from gkmcalc.serialize import dumps
from gkmcalc.symcore import H, Irreducible, LocalizedSum, PolyH, rational_primitive, wt_sub

from conftest import rand_polyh, rng
from oracles import (
    BASES,
    blowup,
    eval_h,
    eval_poly,
    fixture_graph,
    localized_sum,
    polynomial_theta,
    polytope_input,
    polytope_json,
    product_polytope,
)


def form(*w):
    return PolyH.linear_form(w)


def table_h(g, **values):
    c = zero_class(H, g)
    for vid, val in values.items():
        c[vid] = val
    return c


def rand_gkm_class_h(r, g, etas):
    c = zero_class(H, g)
    for p in g.vids():
        if r.random() < 0.5:
            f = rand_polyh(r, g.rank, max_terms=2, deg=1)
            c = {v: c[v] + f * etas[p][v] for v in c}
    return c


@pytest.fixture(scope="module")
def etas2h(cp2):
    return {p: cl.poincare_dual(H, cp2, p) for p in cp2.vids()}


@pytest.fixture(scope="module")
def etashh(hirzebruch):
    return {p: cl.poincare_dual(H, hirzebruch, p) for p in hirzebruch.vids()}


# ---------------------------------------------------------------------------
# Euler classes and duals

def test_euler_top_of_triangle(cp2):
    assert euler_minus(H, cp2, "p2") == form(0, 1) * form(-1, 1)


def test_euler_minimum(cp2):
    assert euler_minus(H, cp2, "p0") == PolyH.one(2)


def test_euler_middle(cp2):
    assert euler_minus(H, cp2, "p1") == form(1, 0)


def test_dual_middle_of_triangle(cp2, etas2h):
    assert cl.class_equal(etas2h["p1"], table_h(cp2, p1=form(1, 0), p2=form(0, 1)))


def test_dual_of_minimum(cp2, cp3, hirzebruch):
    for g in (cp2, cp3, hirzebruch):
        assert cl.class_equal(cl.poincare_dual(H, g, g.vids()[0]), cl.one_class(H, g))


def test_dual_base_value_and_degree(cp2, cp3, hirzebruch):
    for g in (cp2, cp3, hirzebruch):
        for p in g.vids():
            c = cl.poincare_dual(H, g, p)
            assert c[p] == euler_minus(H, g, p)
            lam = g.point(p).lam
            for v in c.values():
                if not v.is_zero():
                    assert v.homogeneous_degree() == lam


def test_duals_pass_divisibility_and_kirwan(cp2, cp3, hirzebruch, square):
    for g in (cp2, cp3, hirzebruch, square):
        for p in g.vids():
            c = cl.poincare_dual(H, g, p)
            assert cl.check_gkm(H, g, c) is None
            assert is_kirwan_class(H, g, c, p)


# ---------------------------------------------------------------------------
# integration

def test_integral_of_one_vanishes(cp1, cp2, cp3, hirzebruch):
    for g in (cp1, cp2, cp3, hirzebruch):
        assert cl.pushforward(H, g, cl.one_class(H, g)) == PolyH.zero(g.rank)


def test_integral_of_top_dual(cp2):
    assert cl.pushforward(H, cp2, cl.poincare_dual(H, cp2, "p2")) == PolyH.one(2)


def test_integral_two_point_example(cp1):
    c = table_h(cp1, p1=form(1))
    assert cl.pushforward(H, cp1, c) == PolyH.one(1)


def test_integral_numeric_oracle(cp2, etas2h):
    r = rng(401)
    for _ in range(60):
        c = rand_gkm_class_h(r, cp2, etas2h)
        out = cl.pushforward(H, cp2, c)
        s = localized_sum(H, cp2, c)
        for point in [(Fraction(3, 7), Fraction(12, 5)),
                      (Fraction(-2, 3), Fraction(9, 4)),
                      (Fraction(5), Fraction(3))]:
            assert eval_h(s, point) == eval_poly(out, point)


def test_integral_matches_fixed_point_formula(cp2, cp3, square, hirzebruch):
    # sum a_p * eta_p integrates to a_top; the common-denominator reduction
    # and exact evaluation of the fixed point sum are oracles
    r = rng(402)
    for g in (cp2, cp3, square, hirzebruch, fixture_graph("cpn:4")):
        top = g.vids()[-1]
        etas = {p: cl.poincare_dual(H, g, p) for p in g.vids()}
        points = [tuple(t * x for x in g.xi)
                  for t in (Fraction(1), Fraction(-3, 2), Fraction(5, 7))]
        for _ in range(8):
            coeffs = {p: rand_polyh(r, g.rank, max_terms=2, deg=1)
                      for p in g.vids() if r.random() < 0.6}
            c = zero_class(H, g)
            for p, a in coeffs.items():
                c = {v: c[v] + a * etas[p][v] for v in c}
            out = cl.pushforward(H, g, c)
            assert out == coeffs.get(top, PolyH.zero(g.rank))
            s = localized_sum(H, g, c)
            assert out == s.reduce()
            for point in points:
                assert eval_h(s, point) == eval_poly(out, point)


def test_integral_rejects_non_class(cp2):
    c = table_h(cp2, p1=PolyH.one(2))
    with pytest.raises(NonPolynomialIndex):
        cl.pushforward(H, cp2, c)


def test_integral_rejects_non_class_with_polynomial_fixed_point_sum(square):
    # y/(x y) - y/(y x) at the two ends of the diagonal sums to 0, but y is
    # not divisible by x on the edge q3 -> q2
    c = table_h(square, q3=form(0, 1), q0=-form(0, 1))
    assert localized_sum(H, square, c).reduce() == PolyH.zero(2)
    assert cl.check_gkm(H, square, c)
    with pytest.raises(NonPolynomialIndex):
        cl.pushforward(H, square, c)


# ---------------------------------------------------------------------------
# local index

def test_local_index_degree_shortcut(cp2):
    c = cl.one_class(H, cp2)
    for q in ("p1", "p2"):
        assert cl.local_index(H, cp2, c, q) == PolyH.zero(2)
    assert cl.local_index(H, cp2, c, "p0") == PolyH.one(2)


def test_dual_profile_triangle(cp2, etas2h):
    one = PolyH.one(2)
    zero = PolyH.zero(2)
    for p in cp2.vids():
        for q in cp2.vids():
            want = one if q == p else zero
            assert cl.local_index(H, cp2, etas2h[p], q) == want


def test_dual_profile_trapezoid(hirzebruch, etashh):
    # holds although the orientation is not index increasing
    one = PolyH.one(2)
    zero = PolyH.zero(2)
    for p in hirzebruch.vids():
        for q in hirzebruch.vids():
            want = one if q == p else zero
            assert cl.local_index(H, hirzebruch, etashh[p], q) == want


def test_local_index_additivity_h(cp2, hirzebruch, etas2h, etashh):
    r = rng(402)
    cases = [(cp2, etas2h), (hirzebruch, etashh)]
    for _ in range(200):
        g, etas = cases[r.randrange(2)]
        vids = g.vids()
        q = vids[r.randrange(len(vids))]
        p1 = vids[r.randrange(len(vids))]
        p2 = vids[r.randrange(len(vids))]
        a, b = etas[p1], etas[p2]
        if g.point(p1).lam != g.point(p2).lam:
            continue  # keep the sum homogeneous
        tot = {v: a[v] + b[v] for v in a}
        assert cl.local_index(H, g, tot, q) == \
            cl.local_index(H, g, a, q) + cl.local_index(H, g, b, q)


def test_local_index_perturbation_h(cp2, hirzebruch, etas2h, etashh):
    from gkmcalc.gkm import flow_face
    r = rng(403)
    cases = [(cp2, etas2h), (hirzebruch, etashh)]
    for _ in range(200):
        g, etas = cases[r.randrange(2)]
        vids = g.vids()
        q = vids[r.randrange(len(vids))]
        base = vids[r.randrange(len(vids))]
        a = etas[base]
        lam = g.point(base).lam
        others = [p for p in vids
                  if q not in flow_face(g, p) and g.point(p).lam == lam]
        if not others:
            continue
        p = others[r.randrange(len(others))]
        pert = etas[p]
        assert pert[q].is_zero()
        tot = {v: a[v] + pert[v] for v in a}
        assert cl.local_index(H, g, tot, q) == cl.local_index(H, g, a, q)


# ---------------------------------------------------------------------------
# canonical basis

TRIANGLE_BASIS_H = {
    "p0": {"p0": PolyH.one(2), "p1": PolyH.one(2), "p2": PolyH.one(2)},
    "p1": {"p1": form(1, 0), "p2": form(0, 1)},
    "p2": {"p2": form(0, 1) * form(-1, 1)},
}


def test_triangle_basis_h(cp2):
    basis = cl.basis(H, cp2)
    for p, want in TRIANGLE_BASIS_H.items():
        for vid in cp2.vids():
            assert basis[p][vid] == want.get(vid, PolyH.zero(2))


def test_trapezoid_basis_h_verifies(hirzebruch):
    basis = cl.basis(H, hirzebruch)
    for p in hirzebruch.vids():
        assert cl.class_equal(basis[p], cl.poincare_dual(H, hirzebruch, p))


def test_minimum_class_h_is_one(cp2, cp3, hirzebruch):
    for g in (cp2, cp3, hirzebruch):
        assert cl.class_equal(cl.basis(H, g)[g.vids()[0]], cl.one_class(H, g))


# ---------------------------------------------------------------------------
# jump-one ratio

def test_theta_is_one_everywhere(cp1, cp2, cp3, hirzebruch, square):
    for g in (cp1, cp2, cp3, hirzebruch, square):
        edges = ecan_edges(g)
        assert edges
        for e in edges:
            assert theta(g, e) == Fraction(1)


def test_theta_rejects_big_jump(cp2):
    jump2 = next(e for e in cp2.edges if (e.src, e.dst) == ("p0", "p2"))
    with pytest.raises(NotECanEdge):
        theta(cp2, jump2)


def _cp2_along(xi):
    return build_graph(fixture_input("cp2")._replace(xi=xi))


def test_theta_independent_of_direction_vector():
    ga, gb = _cp2_along((1, 2)), _cp2_along((1, 3))
    for e in ecan_edges(ga):
        (f,) = [f for f in gb.edges if (f.src, f.dst) == (e.src, e.dst)]
        assert theta(ga, e) == theta(gb, f) == Fraction(1)


def test_theta_is_the_ratio_of_signed_contents():
    # on a moment graph the projections at the two ends of an edge are the
    # same vectors, so Theta is 1 wherever it exists; on bare weight data
    # the contents and signs of the projections are what is left
    w = (0, 0, 1)
    points = {"a": SimpleNamespace(lam=1, wplus=[(2, 0, 5), (0, 3, 1)]),
              "b": SimpleNamespace(lam=2, wplus=[w, (-1, 0, 7), (0, 1, -4)])}
    g = SimpleNamespace(rank=3, xi=(1, 1, 1), point=points.__getitem__)
    e = Edge("a", "b", w, 1)
    assert theta(g, e) == polynomial_theta(g, e) == Fraction(-6)
    points["b"].wplus[2] = (1, 1, 0)
    for ratio in (theta, polynomial_theta):
        with pytest.raises(NonConstantQuotient):
            ratio(g, e)


def test_theta_matches_the_polynomial_quotient_on_blowups():
    # seeded blow-ups under random directions, most of them not index
    # increasing: on every jump-one edge the factorization and the product
    # with exact divisions give the same ratio or both refuse
    r = rng(331)
    agreed, refused, not_increasing = 0, 0, 0
    for _ in range(220):
        verts, edges = blowup(r, r.choice(sorted(BASES)), r.randint(0, 2))
        pairs = sorted(tuple(sorted(e)) for e in edges)
        rank = len(next(iter(verts.values())))
        while True:
            xi = tuple(r.randint(-9, 9) for _ in range(rank))
            try:
                g = build_graph(ToricInput(rank, sorted(verts.items()), pairs, xi))
                break
            except SuppliedXiNotGeneric:
                continue
        not_increasing += not is_index_increasing(g)
        for e in ecan_edges(g):
            try:
                want = polynomial_theta(g, e)
            except NonConstantQuotient:
                with pytest.raises(NonConstantQuotient):
                    theta(g, e)
                refused += 1
                continue
            assert theta(g, e) == want, (e, want)
            agreed += 1
    assert agreed + refused >= 1000 and agreed and refused and not_increasing


# ---------------------------------------------------------------------------
# path sums

def test_gt_single_path_value(cp2):
    z = gt_class(cp2, "p1")
    assert z["p2"] == form(0, 1)
    assert z["p1"] == euler_minus(H, cp2, "p1")
    assert z["p0"].is_zero()


def test_gt_base_value_and_support(cp2, cp3):
    from gkmcalc.gkm import upward_closure
    for g in (cp2, cp3):
        for p in g.vids():
            z = gt_class(g, p)
            assert z[p] == euler_minus(H, g, p)
            nonzero = {q for q, v in z.items() if not v.is_zero()}
            assert nonzero == set(upward_closure(g, p))


def test_gt_matches_duals(cp2, cp3):
    for g in (cp2, cp3):
        zetas = gt_basis(g)
        for p in g.vids():
            assert cl.class_equal(zetas[p], cl.poincare_dual(H, g, p))


def test_gt_direction_independence(cp2):
    # two directions inducing the same orientation give identical classes
    a = gt_basis(_cp2_along((1, 2)))
    b = gt_basis(_cp2_along((1, 3)))
    for p in cp2.vids():
        assert cl.class_equal(a[p], b[p])


def test_gt_requires_index_increasing(hirzebruch):
    with pytest.raises(NotIndexIncreasing):
        gt_class(hirzebruch, "p1")


def test_gt_classes_are_integral(cp3):
    for p in cp3.vids():
        z = gt_class(cp3, p)
        for v in z.values():
            assert v.is_integral()


# ---------------------------------------------------------------------------
# the path enumeration with one common-denominator reduction per pair, kept
# as the small-input oracle for the one-step recursion

def _ecan_paths(start, goal, adj):
    """All vertex sequences start -> goal inside the jump-one subgraph."""
    if start == goal:
        return [[start]]
    return [[start] + tail for e in adj.get(start, ())
            for tail in _ecan_paths(e.dst, goal, adj)]


def _path_sum_class(g, p):
    """The sum over every jump-one path p -> q of the products of
    m_i * Theta_i / <psi(q) - psi(r_{i-1})>, times the negative Euler class
    at q, reduced over one common denominator; None where it leaves a
    fraction."""
    adj = {}
    for e in ecan_edges(g):
        adj.setdefault(e.src, []).append(e)
    out = zero_class(H, g)
    for q in g.vids():
        paths = _ecan_paths(p, q, adj)
        if not paths:
            continue
        s = LocalizedSum("H", g.rank)
        for path in paths:
            scalar = Fraction(1)
            dens = []
            for a, b in zip(path, path[1:]):
                e = next(e for e in adj[a] if e.dst == b)
                prim, content = rational_primitive(wt_sub(g.psi(q), g.psi(a)))
                scalar *= e.mult * theta(g, e) / content
                dens.append(prim)
            s.add_term(euler_minus(H, g, q) * scalar, dens)
        val = s.reduce()
        out[q] = None if isinstance(val, Irreducible) else val
    return out


def _product(*factors):
    """Graph of the product of lattice polytopes given by their vertices."""
    verts = [sum(combo, ()) for combo in itertools.product(*factors)]
    return build_graph(ToricInput(rank=len(verts[0]), vertices=[
        (f"v{i}", tuple(Fraction(x) for x in v)) for i, v in enumerate(verts)]))


SEGMENT = [(0,), (1,)]
TRIANGLE = [(0, 0), (1, 0), (0, 1)]


@pytest.mark.parametrize("make", [
    lambda: fixture_graph("cp2"),
    lambda: fixture_graph("cpn:3"),
    lambda: fixture_graph("cpn:4"),
    lambda: _product(SEGMENT, SEGMENT, SEGMENT),
    lambda: _product(TRIANGLE, SEGMENT),
    lambda: _product([(0, 0), (2, 0), (0, 2)], [(0,), (Fraction(3, 2),)]),
], ids=["cp2", "cpn:3", "cpn:4", "cube^3", "cp2xcp1", "dilated-cp2xcp1"])
def test_gt_basis_matches_path_enumeration(make):
    g = make()
    zetas = gt_basis(g)
    for p in g.vids():
        assert cl.class_equal(zetas[p], _path_sum_class(g, p))
        assert cl.class_equal(gt_class(g, p), zetas[p])
        # the scaling by 1 / content keeps integral coefficients ints
        assert all(type(c) is int for v in zetas[p].values() for c in v.terms.values())


def test_large_cube_gt_basis_is_fast():
    g = _product(*[SEGMENT] * 5)
    t0 = time.perf_counter()
    zetas = gt_basis(g)
    assert time.perf_counter() - t0 < 2.0
    for p in g.vids():
        assert cl.class_equal(zetas[p], cl.poincare_dual(H, g, p))


# ---------------------------------------------------------------------------
# the CLI's path-sum classes, built as the flow-up duals, against the
# recursion above

def _gt_sources():
    """Index increasing inputs as (name, graph, CLI source options): the
    fixtures, product polytopes and seeded one-cut blow-ups of CP^2 and
    CP^3, kept where the default direction orients them index increasing."""
    out = [(name, fixture_graph(name), ["--fixture", name])
           for name in ("cp1", "cp2", "cpn:3", "square")]
    products = {"cube3": BASES["cube3"], "cube4": BASES["cube3"] + BASES["cube3"][:1],
                "cp2xcp1": BASES["cp2xcp1"], "cp2xcp2": BASES["cp2"] * 2}
    polytopes = [(name, product_polytope(factors)[0]) for name, factors in products.items()]
    r = rng(911)
    cuts = [(f"{base}-cut{i}", blowup(r, base, 1)[0]) for i in range(4) for base in ("cp2", "cp3")]
    for name, verts in polytopes + cuts:
        g = build_graph(polytope_input(verts))
        if is_index_increasing(g):
            out.append((name, g, polytope_json(verts)))
    return out


@pytest.fixture(scope="module")
def gt_sources(tmp_path_factory):
    sources = []
    for name, g, src in _gt_sources():
        if isinstance(src, dict):
            path = tmp_path_factory.mktemp("gt") / f"{name}.json"
            path.write_text(json.dumps(src))
            src = ["--input", str(path)]
        sources.append((name, g, src))
    return sources


def _run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == "", (argv, captured.err)
    return captured.out


def test_gt_sources_cover_products_and_blowups(gt_sources):
    names = [name for name, _, _ in gt_sources]
    assert {"cube3", "cube4", "cp2xcp1", "cp2xcp2"} <= set(names)
    assert sum("-cut" in name for name in names) >= 3


def test_cli_gt_basis_is_the_path_sum_basis(gt_sources, capsys):
    for name, g, src in gt_sources:
        out = _run(["gt", "--format", "json"] + src, capsys)
        assert out == dumps({"mode": "cohomology", "basis": gt_basis(g)}), name


def test_cli_gt_class_is_the_path_sum_class(gt_sources, capsys):
    for name, g, src in gt_sources:
        for p in g.vids():
            ref = gt_class(g, p)
            klass = ["--mode", "cohomology", "--class", f"gt:{p}"]
            out = _run(["index"] + klass + src, capsys)
            assert out == H.fmt(cl.pushforward(H, g, ref)) + "\n", (name, p)
            for q in g.vids():
                out = _run(["local-index", "--vertex", q] + klass + src, capsys)
                assert out == H.fmt(cl.local_index(H, g, ref, q)) + "\n", (name, p, q)


def test_cli_gt_refuses_an_orientation_that_is_not_index_increasing(capsys):
    want = {"error": "validation",
            "message": "path-sum classes need an index increasing orientation"}
    for argv in (["gt"], ["gt", "--format", "json"],
                 ["index", "--mode", "cohomology", "--class", "gt:p1"],
                 ["local-index", "--mode", "cohomology", "--class", "gt:1", "--vertex", "2"]):
        rc = main(argv + ["--fixture", "hirzebruch"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == "", argv
        assert json.loads(captured.err) == want, argv
