"""Restriction tables: Euler classes, duals, indices, canonical bases."""

import itertools
import sys
import time
from fractions import Fraction

import pytest

from gkmcalc import classes as cl
from gkmcalc import symcore
from gkmcalc.classes import euler_minus, is_kirwan_class
from gkmcalc.errors import ContractError, DivisionFailure, NonPolynomialIndex, ValidationError
from gkmcalc.fixtures import fixture_input, hirzebruch_sample_class, hirzebruch_input
from gkmcalc.gkm import ToricInput, build_graph, flow_face, is_index_increasing, upward_closure
from gkmcalc.kirwan import kirwan_restrict_all, reduced_fixed_data
from gkmcalc.symcore import H, K, Irreducible, LaurentPoly, LocalizedSum, PolyH, wt_dot, wt_sub

from conftest import rand_laurent, rand_polyh, rng, specialization_points
from oracles import (
    cpn_prequantization_basis,
    eval_k,
    eval_laurent,
    fixture_graph,
    hirzebruch_reference_basis,
    local_index_parts,
    localized_sum,
    substitute,
    support,
)
from test_gkm import SIMPLE_SHAPES


def e(*expo):
    return LaurentPoly.monomial(expo)


def table(g, **values):
    c = cl.zero_class(K, g)
    for vid, val in values.items():
        c[vid] = val
    return c


def rand_gkm_class(r, g, etas, max_terms=2):
    """Random module combination of the flow-up duals; always a valid table."""
    c = cl.zero_class(K, g)
    for p in g.vids():
        if r.random() < 0.5:
            c = cl.class_add(c, cl.class_scale(etas[p], rand_laurent(r, g.rank, max_terms)))
    return c


@pytest.fixture(scope="module")
def etas2(cp2):
    return {p: cl.poincare_dual(K, cp2, p) for p in cp2.vids()}


@pytest.fixture(scope="module")
def etash(hirzebruch):
    return {p: cl.poincare_dual(K, hirzebruch, p) for p in hirzebruch.vids()}


# ---------------------------------------------------------------------------
# Euler classes and the membership check

def test_euler_top_of_triangle(cp2):
    expected = (1 - e(0, 1)) * (1 - e(-1, 1))
    assert euler_minus(K, cp2, "p2") == expected


def test_euler_minimum_is_one(cp2, hirzebruch):
    assert euler_minus(K, cp2, "p0") == LaurentPoly.one(2)
    assert euler_minus(K, hirzebruch, "p0") == LaurentPoly.one(2)


def test_euler_middle_of_triangle(cp2):
    assert euler_minus(K, cp2, "p1") == 1 - e(1, 0)


def test_constant_class_is_valid(cp2):
    assert cl.check_gkm(K, cp2, cl.one_class(K, cp2)) == []


def test_middle_dual_table_is_valid(cp2):
    c = table(cp2, p1=1 - e(1, 0), p2=1 - e(0, 1))
    assert cl.check_gkm(K, cp2, c) == []


def test_violation_detected(cp2):
    c = table(cp2, p1=LaurentPoly.one(2))
    bad = cl.check_gkm(K, cp2, c)
    assert bad
    assert (bad[0][0].src, bad[0][0].dst) == ("p0", "p1")


# ---------------------------------------------------------------------------
# duals of the flow-up faces

def test_dual_middle_of_triangle(cp2, etas2):
    assert cl.class_equal(etas2["p1"], table(cp2, p1=1 - e(1, 0), p2=1 - e(0, 1)))


def test_dual_of_minimum_is_one(cp2, cp3, hirzebruch):
    for g in (cp2, cp3, hirzebruch):
        assert cl.class_equal(cl.poincare_dual(K, g, g.vids()[0]), cl.one_class(K, g))


def test_dual_value_at_base_is_euler(cp2, cp3, hirzebruch):
    for g in (cp2, cp3, hirzebruch):
        for p in g.vids():
            assert cl.poincare_dual(K, g, p)[p] == euler_minus(K, g, p)


def test_duals_are_kirwan_classes(cp2, cp3, hirzebruch, etas2):
    for g in (cp2, cp3, hirzebruch):
        for p in g.vids():
            assert is_kirwan_class(K, g, cl.poincare_dual(K, g, p), p)


def test_one_is_kirwan_only_at_minimum(cp2):
    c = cl.one_class(K, cp2)
    assert is_kirwan_class(K, cp2, c, "p0")
    assert not is_kirwan_class(K, cp2, c, "p1")


def test_duals_satisfy_divisibility_everywhere(cp1, cp2, cp3, hirzebruch, square):
    for g in (cp1, cp2, cp3, hirzebruch, square):
        for p in g.vids():
            assert cl.check_gkm(K, g, cl.poincare_dual(K, g, p)) == []


# ---------------------------------------------------------------------------
# global push-forward

def test_pushforward_of_one(cp1, cp2, cp3, hirzebruch):
    for g in (cp1, cp2, cp3, hirzebruch):
        assert cl.pushforward(K, g, cl.one_class(K, g)) == LaurentPoly.one(g.rank)


def test_pushforward_two_point_example(cp1):
    c = table(cp1, p1=1 - e(1))
    assert cl.pushforward(K, cp1, c) == LaurentPoly.one(1)
    # the mirror-image table pushes forward to a single inverted monomial
    c2 = table(cp1, p1=1 - LaurentPoly.monomial((-1,)))
    assert cl.pushforward(K, cp1, c2) == LaurentPoly.monomial((-1,), -1)


def test_pushforward_of_top_dual_is_single_monomial(cp2, etas2):
    out = cl.pushforward(K, cp2, etas2["p2"])
    assert len(out.terms) == 1
    assert out == LaurentPoly.one(2)
    # independent numeric check of the unreduced sum
    s = localized_sum(K, cp2, etas2["p2"])
    from fractions import Fraction
    for base, xi in [(Fraction(2, 3), (1, 2)), (Fraction(3, 5), (1, 3)),
                     (Fraction(5, 2), (1, 5))]:
        assert eval_k(s, base, xi) == eval_laurent(out, base, xi)


def test_pushforward_module_linearity(cp2, etas2):
    r = rng(301)
    for _ in range(200):
        c = rand_gkm_class(r, cp2, etas2)
        f = rand_laurent(r, 2)
        lhs = cl.pushforward(K, cp2, cl.class_scale(c, f))
        rhs = f * cl.pushforward(K, cp2, c)
        assert lhs == rhs


def test_pushforward_rejects_non_class(cp2):
    c = table(cp2, p1=LaurentPoly.one(2))
    with pytest.raises(NonPolynomialIndex):
        cl.pushforward(K, cp2, c)


def test_pushforward_matches_fixed_point_formula(cp2, cp3, square, hirzebruch):
    # sum a_p * eta_p pushes forward to sum a_p; the common-denominator
    # reduction and exact specialization of the fixed point sum are oracles
    r = rng(302)
    bases, _ = specialization_points(1)
    for g in (cp2, cp3, square, hirzebruch, fixture_graph("cpn:4")):
        etas = {p: cl.poincare_dual(K, g, p) for p in g.vids()}
        for _ in range(8):
            coeffs = {p: rand_laurent(r, g.rank, 2) for p in g.vids() if r.random() < 0.6}
            c = cl.zero_class(K, g)
            for p, a in coeffs.items():
                c = cl.class_add(c, cl.class_scale(etas[p], a))
            out = cl.pushforward(K, g, c)
            assert out == sum(coeffs.values(), LaurentPoly.zero(g.rank))
            s = localized_sum(K, g, c)
            assert out == s.reduce()
            for base in bases:
                assert eval_k(s, base, g.xi) == eval_laurent(out, base, g.xi)


def test_pushforward_rejects_non_class_with_polynomial_fixed_point_sum(square):
    # equal and opposite 1/(1 - e^x) terms at the two ends of the diagonal:
    # the fixed point sum reduces to 0, but the table breaks divisibility on
    # the edges at the bottom vertex
    c = table(square, q3=1 - e(0, -1), q0=e(1, 0) * (1 - e(0, 1)))
    assert localized_sum(K, square, c).reduce() == LaurentPoly.zero(2)
    assert cl.check_gkm(K, square, c)
    with pytest.raises(NonPolynomialIndex):
        cl.pushforward(K, square, c)


# ---------------------------------------------------------------------------
# local index

def test_worked_example_parts(hirzebruch):
    tau = hirzebruch_sample_class(hirzebruch)
    fs, dens = local_index_parts(K, hirzebruch, tau, "p2")
    assert fs[0] == LaurentPoly(3, {(0, 1, 1): 1, (1, 0, 1): -1})
    assert fs[1] == LaurentPoly(3, {(0, 0, 0): 1, (1, -1, 0): -1})
    assert dens == [[(0, 1, 1)], [(0, -1, -1)]]


def test_worked_example_vanishes(hirzebruch):
    tau = hirzebruch_sample_class(hirzebruch)
    assert cl.local_index(K, hirzebruch, tau, "p2") == LaurentPoly.zero(2)


def test_inexact_divided_difference_is_contract_error(cp2, monkeypatch):
    # every division of the recursion is exact, so a failed one is a bug
    monkeypatch.setattr(symcore, "divide_by_cyclotomic", lambda p, w: None)
    with pytest.raises(ContractError):
        cl.local_index(K, cp2, cl.one_class(K, cp2), "p1")


def test_local_index_of_one(cp1, cp2, cp3, hirzebruch):
    for g in (cp1, cp2, cp3, hirzebruch):
        c = cl.one_class(K, g)
        for q in g.vids():
            assert cl.local_index(K, g, c, q) == LaurentPoly.one(g.rank)


def test_local_index_euler_multiple(cp2, hirzebruch, etas2, etash):
    # value f * (negative Euler class) at q forces local index f
    r = rng(302)
    cases = [(cp2, etas2), (hirzebruch, etash)]
    for _ in range(200):
        g, etas = cases[r.randrange(2)]
        vids = g.vids()
        q = vids[r.randrange(len(vids))]
        f = rand_laurent(r, g.rank)
        c = cl.class_scale(etas[q], f)
        for s in vids:
            if g.order_index(s) > g.order_index(q) and r.random() < 0.4:
                c = cl.class_add(c, cl.class_scale(etas[s], rand_laurent(r, g.rank)))
        assert c[q] == f * euler_minus(K, g, q)
        assert cl.local_index(K, g, c, q) == f


def test_local_index_additivity(cp2, hirzebruch, etas2, etash):
    r = rng(303)
    cases = [(cp2, etas2), (hirzebruch, etash)]
    for _ in range(200):
        g, etas = cases[r.randrange(2)]
        a = rand_gkm_class(r, g, etas)
        b = rand_gkm_class(r, g, etas)
        q = g.vids()[r.randrange(len(g.vids()))]
        lhs = cl.local_index(K, g, cl.class_add(a, b), q)
        assert lhs == cl.local_index(K, g, a, q) + cl.local_index(K, g, b, q)


def test_local_index_perturbation_stability(cp2, hirzebruch, etas2, etash):
    # adding f * (class vanishing at q) does not change the index at q
    r = rng(304)
    cases = [(cp2, etas2), (hirzebruch, etash)]
    for _ in range(200):
        g, etas = cases[r.randrange(2)]
        vids = g.vids()
        q = vids[r.randrange(len(vids))]
        a = rand_gkm_class(r, g, etas)
        others = [p for p in vids if q not in flow_face(g, p)]
        pert = cl.zero_class(K, g)
        for p in others:
            if r.random() < 0.6:
                pert = cl.class_add(pert, cl.class_scale(etas[p], rand_laurent(r, g.rank)))
        assert pert[q].is_zero()
        f = rand_laurent(r, g.rank)
        assert cl.local_index(K, g, cl.class_add(a, cl.class_scale(pert, f)), q) == \
            cl.local_index(K, g, a, q)


def _reduced_local_index(ring, g, c, q):
    """The oracle: the cut space fixed point sum of ``local_index_parts``
    reduced over its common denominator, then the auxiliary last coordinate
    set to zero."""
    s = LocalizedSum(ring.mode, g.rank + 1)
    for f, den in zip(*local_index_parts(ring, g, c, q)):
        s.add_term(f, den)
    out = s.reduce()
    assert not isinstance(out, Irreducible)
    unit = [tuple(int(i == j) for j in range(g.rank + 1)) for i in range(g.rank + 1)]
    return substitute(ring, out, unit, [u[:-1] for u in unit])


def _rand_homogeneous(r, rank, deg, max_terms=3):
    terms = {}
    for _ in range(r.randint(1, max_terms)):
        e = [0] * rank
        for _ in range(deg):
            e[r.randrange(rank)] += 1
        terms[tuple(e)] = Fraction(r.randint(-3, 3), r.randint(1, 2))
    return PolyH(rank, terms)


def _product_input(factors):
    verts = [sum(combo, ()) for combo in itertools.product(*factors)]
    return ToricInput(rank=len(verts[0]), vertices=[
        (f"v{i}", tuple(Fraction(x) for x in v)) for i, v in enumerate(verts)])


def _oracle_graphs():
    """The fixtures and the product polytopes of the edge detection test,
    each in both orientations."""
    inputs = [fixture_input(name) for name in ("cp1", "cp2", "cpn:3", "cpn:4",
                                               "hirzebruch", "square")]
    inputs += [_product_input(factors) for factors in SIMPLE_SHAPES]
    for inp in inputs:
        g = build_graph(inp)
        yield g
        inp.xi = tuple(-x for x in g.xi)
        yield build_graph(inp)


@pytest.mark.parametrize("ring", [K, H], ids=["ktheory", "cohomology"])
def test_local_index_matches_reduced_fixed_point_sum(ring):
    # values at sampled vertices of random classes (combinations of the
    # flow-up duals, homogeneous in H) and of random non-classes, in H of
    # degrees on both sides of lam_q
    r = rng(311 if ring is K else 312)
    checked = nonzero = 0
    for g in _oracle_graphs():
        etas = {p: cl.poincare_dual(ring, g, p) for p in g.vids()}
        for q in r.sample(g.vids(), min(3, len(g.vids()))):
            deg = g.point(q).lam + r.randint(-1, 2)
            klass = cl.zero_class(ring, g)
            for p in g.vids():
                if ring is K and r.random() < 0.5:
                    klass = cl.class_add(klass, cl.class_scale(etas[p], rand_laurent(r, g.rank)))
                elif ring is H and g.point(p).lam <= deg and r.random() < 0.5:
                    a = _rand_homogeneous(r, g.rank, deg - g.point(p).lam)
                    klass = cl.class_add(klass, cl.class_scale(etas[p], a))
            other = cl.zero_class(ring, g)
            other[q] = rand_laurent(r, g.rank) if ring is K else \
                _rand_homogeneous(r, g.rank, max(deg, 0))
            for c in (klass, other):
                got = cl.local_index(ring, g, c, q)
                assert got == _reduced_local_index(ring, g, c, q), (g, q, c[q])
                checked += 1
                nonzero += not got.is_zero()
    assert checked >= 150 and nonzero >= checked // 3


def _rand_value(r, ring, rank):
    return rand_laurent(r, rank) if ring is K else rand_polyh(r, rank)


@pytest.mark.parametrize("ring", [K, H], ids=["ktheory", "cohomology"])
def test_shear_matches_the_substitution_at_every_vertex(ring):
    # the frame is dual to the weights, and the shear along a_1 + ... + a_lam
    # is the lattice map of the local index: w_i -> w_i - a for the incoming
    # labels, the outgoing ones fixed
    r = rng(316 if ring is K else 317)
    checked = 0
    for g in _oracle_graphs():
        for q in g.vids():
            pt = g.point(q)
            weights = list(pt.wplus + pt.wminus)
            assert [[wt_dot(a, w) for w in weights] for a in pt.frame] == \
                [[int(i == j) for j in range(g.rank)] for i in range(g.rank)]
            sigma = tuple(map(sum, zip(*pt.frame[:pt.lam])))
            value = _rand_value(r, ring, g.rank)
            for a in pt.wplus:
                images = [wt_sub(w, a) for w in pt.wplus] + list(pt.wminus)
                assert ring.shear(value, sigma, a) == substitute(ring, value, weights, images)
                checked += 1
    assert checked > 300


@pytest.mark.parametrize("ring", [K, H], ids=["ktheory", "cohomology"])
def test_shear_matches_the_substitution_at_the_reduced_points(ring):
    # the point's edge dual and edge weight give the map that fixes the
    # residual weights and kills the edge weight
    r = rng(318 if ring is K else 319)
    checked = 0
    for g in _oracle_graphs():
        n = g.rank
        for pi in ((0,) * (n - 1) + (1,), (-1,) * n, (-1,) + (0,) * (n - 2) + (1,)):
            try:
                setup = reduced_fixed_data(g, pi)
            except ValidationError:  # not a free circle, or no unique top
                continue
            for point in setup.points:
                basis = list(point.residual) + [point.edge_weight]
                images = list(point.residual) + [(0,) * n]
                value = _rand_value(r, ring, n)
                assert ring.shear(value, point.edge_dual, point.edge_weight) == \
                    substitute(ring, value, basis, images)
                checked += 1
    assert checked > 150


def test_no_elimination_runs_after_the_graph_is_built(monkeypatch):
    # the frames of build_graph and the edge duals of reduced_fixed_data
    # serve every later lattice map; count the eliminations after them
    graphs = [fixture_graph("hirzebruch"), build_graph(_product_input(SIMPLE_SHAPES[5]))]
    setups = [reduced_fixed_data(graphs[0], (0, 1)), reduced_fixed_data(graphs[1], (-1, 0, 1))]
    orig = symcore.scaled_inverse
    calls = []

    def counted(cols):
        calls.append(cols)
        return orig(cols)
    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("gkmcalc") and getattr(mod, "scaled_inverse", None) is orig:
            monkeypatch.setattr(mod, "scaled_inverse", counted)
    for g, setup in zip(graphs, setups):
        basis = cl.basis(K, g, "point")
        for ring in (K, H):
            c = basis if ring is K else {p: cl.poincare_dual(H, g, p) for p in g.vids()}
            for p in g.vids():
                for q in g.vids():
                    cl.local_index(ring, g, c[p], q)
                cl.pushforward(ring, g, c[p])
                kirwan_restrict_all(setup, c[p])
    assert calls == []


# ---------------------------------------------------------------------------
# canonical basis

TRIANGLE_BASIS = {
    "p0": {"p0": LaurentPoly.one(2), "p1": LaurentPoly.one(2),
           "p2": LaurentPoly.one(2)},
    "p1": {"p1": 1 - e(1, 0), "p2": 1 - e(0, 1)},
    "p2": {"p2": (1 - e(-1, 1)) * (1 - e(0, 1))},
}


def test_triangle_basis_matches_golden(cp2):
    basis = cl.basis(K, cp2)
    for p, want in TRIANGLE_BASIS.items():
        got = basis[p]
        for vid in cp2.vids():
            assert got[vid] == want.get(vid, LaurentPoly.zero(2))


def test_trapezoid_basis_values(hirzebruch):
    basis = cl.basis(K, hirzebruch)
    assert cl.class_equal(basis["p0"], cl.one_class(K, hirzebruch))
    t1 = basis["p1"]
    assert t1["p1"] == 1 - e(1, 1)
    assert t1["p2"] == 1 - e(1, 0)
    assert t1["p3"] == (1 - e(0, 1)) * e(-1, 1)
    t2 = basis["p2"]
    assert t2["p2"] == 1 - e(0, 1)
    assert t2["p3"] == 1 - e(0, 1)
    assert basis["p3"]["p3"] == (1 - e(0, 1)) * (1 - e(-1, 1))


def test_trapezoid_inductive_corrections_are_nontrivial(hirzebruch, etash):
    basis = cl.basis(K, hirzebruch)
    assert not cl.class_equal(basis["p1"], etash["p1"])


def test_basis_index_profile(cp2, cp3, hirzebruch):
    # CP^1 x CP^2 is index increasing, so its basis is the flow-up duals
    cp1xcp2 = build_graph(_product_input(SIMPLE_SHAPES[5]))
    assert is_index_increasing(cp1xcp2)
    for g in (cp2, cp3, hirzebruch, cp1xcp2):
        basis = cl.basis(K, g)
        one = LaurentPoly.one(g.rank)
        zero = LaurentPoly.zero(g.rank)
        for p in g.vids():
            face = flow_face(g, p)
            for q in g.vids():
                want = one if q in face else zero
                assert cl.local_index(K, g, basis[p], q) == want


def test_basis_members_are_kirwan_with_small_support(cp2, cp3, hirzebruch):
    for g in (cp2, cp3, hirzebruch):
        basis = cl.basis(K, g)
        for p in g.vids():
            assert cl.check_gkm(K, g, basis[p]) == []
            assert is_kirwan_class(K, g, basis[p], p)
            assert support(basis[p]) <= set(upward_closure(g, p))


def test_minimum_class_is_one(cp1, cp2, cp3, hirzebruch, square):
    for g in (cp1, cp2, cp3, hirzebruch, square):
        basis = cl.basis(K, g)
        assert cl.class_equal(basis[g.vids()[0]], cl.one_class(K, g))


def test_uniqueness_under_input_permutation():
    r = rng(305)
    base = build_graph(hirzebruch_input())
    want = cl.basis(K, base)
    for _ in range(200):
        inp = hirzebruch_input()
        r.shuffle(inp.vertices)
        g = build_graph(inp)
        got = cl.basis(K, g)
        for p in g.vids():
            assert cl.class_equal(got[p], want[p])


def test_point_normalized_basis(hirzebruch):
    basis = cl.basis(K, hirzebruch, "point")
    one = LaurentPoly.one(2)
    zero = LaurentPoly.zero(2)
    for p in hirzebruch.vids():
        for q in hirzebruch.vids():
            want = one if q == p else zero
            assert cl.local_index(K, hirzebruch, basis[p], q) == want
        assert cl.check_gkm(K, hirzebruch, basis[p]) == []
    t1 = basis["p1"]
    assert t1["p1"] == 1 - e(1, 1)
    assert t1["p2"] == e(0, 1) - e(1, 0)
    assert t1["p3"].is_zero()


def test_bases_on_oracle_graphs():
    # every graph that is not index increasing and a sample of the others:
    # the H basis is the flow-up duals (the canonical classes of H are the
    # duals on any orientation), and the K canonical and point bases have
    # local index 1 on the flow-up face and at p alone, 0 elsewhere
    graphs = list(_oracle_graphs())
    plain = [g for g in graphs if is_index_increasing(g)]
    graphs = [g for g in graphs if not is_index_increasing(g)] + rng(313).sample(plain, 12)
    for g in graphs:
        hbasis = cl.basis(H, g)
        for p in g.vids():
            assert cl.class_equal(hbasis[p], cl.poincare_dual(H, g, p)), (g, p)
        for normalization in ("canonical", "point"):
            basis = cl.basis(K, g, normalization)
            for p in g.vids():
                face = flow_face(g, p) if normalization == "canonical" else {p}
                for q in g.vids():
                    want = K.one(g.rank) if q in face else K.zero(g.rank)
                    assert cl.local_index(K, g, basis[p], q) == want, (g, normalization, p, q)
    assert len(graphs) == 24


def test_point_normalized_basis_of_cp6_is_fast():
    g = fixture_graph("cpn:6")
    t0 = time.perf_counter()
    basis = cl.basis(K, g, "point")
    assert time.perf_counter() - t0 < 0.3
    for p in g.vids():
        assert is_kirwan_class(K, g, basis[p], p)
        assert cl.check_gkm(K, g, basis[p]) == []


def test_reference_basis_multiset(hirzebruch):
    basis = hirzebruch_reference_basis(hirzebruch)
    values = sorted(
        repr(v) for c in basis.values() for v in c.values() if not v.is_zero())
    expected_polys = [
        LaurentPoly.one(2), LaurentPoly.one(2), LaurentPoly.one(2),
        LaurentPoly.one(2),
        1 - e(1, 1),
        e(0, 1) - e(1, 0),
        1 - e(0, 1),
        (1 - e(0, 1)) * e(-1, 1),
        (1 - e(0, 1)) * (1 - e(-1, 1)),
    ]
    assert values == sorted(repr(p) for p in expected_polys)


# ---------------------------------------------------------------------------
# expansion and structure constants

def test_expand_basis_element(cp2, etas2):
    basis = cl.basis(K, cp2)
    coeffs = cl.expand_in_basis(K, cp2, basis, basis["p1"])
    assert coeffs == {"p1": LaurentPoly.one(2)}


def test_expand_one_in_basis(cp2, cp3, hirzebruch):
    for g in (cp2, cp3, hirzebruch):
        basis = cl.basis(K, g)
        coeffs = cl.expand_in_basis(K, g, basis, cl.one_class(K, g))
        assert coeffs == {g.vids()[0]: LaurentPoly.one(g.rank)}


def test_expand_square_of_middle_class(cp2):
    basis = cl.basis(K, cp2)
    prod = cl.class_mul(basis["p1"], basis["p1"])
    coeffs = cl.expand_in_basis(K, cp2, basis, prod)
    assert coeffs == {"p1": 1 - e(1, 0), "p2": e(1, 0)}


def test_change_of_basis_is_triangular(cp2, cp3, hirzebruch):
    for g in (cp2, cp3, hirzebruch):
        etas = {p: cl.poincare_dual(K, g, p) for p in g.vids()}
        basis = cl.basis(K, g)
        for p in g.vids():
            coeffs = cl.expand_in_basis(K, g, etas, basis[p])
            assert coeffs[p] == LaurentPoly.one(g.rank)
            for q in coeffs:
                assert g.order_index(q) >= g.order_index(p)


def test_triangularity_random(cp2, cp3, hirzebruch):
    r = rng(306)
    graphs = [cp2, cp3, hirzebruch]
    for _ in range(200):
        g = graphs[r.randrange(3)]
        etas = {p: cl.poincare_dual(K, g, p) for p in g.vids()}
        basis = cl.basis(K, g)
        p = g.vids()[r.randrange(len(g.vids()))]
        coeffs = cl.expand_in_basis(K, g, etas, basis[p])
        assert coeffs[p] == LaurentPoly.one(g.rank)
        assert all(g.order_index(q) >= g.order_index(p) for q in coeffs)


def test_expansion_failure_detected(cp2):
    broken = {p: cl.one_class(K, cp2) for p in cp2.vids()}
    with pytest.raises(DivisionFailure):
        cl.expand_in_basis(K, cp2, broken, table(cp2, p1=1 - e(1, 0), p2=1 - e(0, 1)))


def test_structure_constants_triangle(cp2):
    basis = cl.basis(K, cp2)
    tab = cl.structure_constants(K, cp2, basis)
    one = LaurentPoly.one(2)
    for p in cp2.vids():
        assert tab[("p0", p, p)] == one
    assert tab[("p1", "p1", "p1")] == 1 - e(1, 0)
    assert tab[("p1", "p1", "p2")] == e(1, 0)
    assert tab[("p2", "p2", "p2")] == (1 - e(0, 1)) * (1 - e(-1, 1))


def test_structure_constants_reproduce_products(cp2, cp3, hirzebruch):
    r = rng(307)
    graphs = [cp2, cp3, hirzebruch]
    bases = {id(g): cl.basis(K, g) for g in graphs}
    tables = {id(g): cl.structure_constants(K, g, bases[id(g)]) for g in graphs}
    for _ in range(200):
        g = graphs[r.randrange(3)]
        basis, tab = bases[id(g)], tables[id(g)]
        vids = g.vids()
        i = r.randrange(len(vids))
        j = r.randrange(i, len(vids))
        p, q = vids[i], vids[j]
        f = rand_laurent(r, g.rank, 1)
        h = rand_laurent(r, g.rank, 1)
        prod = cl.class_mul(cl.class_scale(basis[p], f), cl.class_scale(basis[q], h))
        acc = cl.zero_class(K, g)
        for s in vids:
            coeff = tab.get((p, q, s))
            if coeff is not None:
                acc = cl.class_add(acc, cl.class_scale(basis[s], f * h * coeff))
        assert cl.class_equal(acc, prod)


def test_emitted_classes_pass_divisibility_random(cp2, hirzebruch, etas2, etash):
    r = rng(308)
    cases = [(cp2, etas2), (hirzebruch, etash)]
    for _ in range(200):
        g, etas = cases[r.randrange(2)]
        c = rand_gkm_class(r, g, etas)
        assert cl.check_gkm(K, g, c) == []


# ---------------------------------------------------------------------------
# projective space product classes

def test_prequantization_segment():
    g, basis = cpn_prequantization_basis(1)
    assert cl.class_equal(basis["p0"], cl.one_class(K, g))
    assert basis["p1"]["p1"] == 1 - LaurentPoly.monomial((1,))


def test_prequantization_matches_canonical():
    for n in (1, 2, 3):
        g, basis = cpn_prequantization_basis(n)
        canonical = cl.basis(K, g)
        for p in g.vids():
            assert cl.class_equal(basis[p], canonical[p])


def test_prequantization_support_pattern():
    g, basis = cpn_prequantization_basis(3)
    vids = g.vids()
    for k, p in enumerate(vids):
        face = flow_face(g, p)
        assert support(basis[p]) == face
        assert face == {q for q in vids if g.order_index(q) >= k}
        # k-fold products of shifted line bundle restrictions
        for s in face:
            val = LaurentPoly.one(3)
            for q in vids[:k]:
                diff = tuple(int(a - b) for a, b in zip(g.psi(s), g.psi(q)))
                val = val * (1 - LaurentPoly.monomial(diff))
            assert basis[p][s] == val
