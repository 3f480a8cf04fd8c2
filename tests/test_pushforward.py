"""The push-forward to a point against the fixed point formula.

A class sum a_p * eta_p, with small random a_p, pushes forward to the sum
of the a_p in K-theory and to a_top in cohomology (with coefficients of
denominators 1 to 3, which the expansion clears before it runs); the
unreduced fixed point sum, specialized exactly, is the independent oracle.
A table that is not a class has no push-forward: one more term at one
vertex raises ``NonPolynomialIndex`` exactly where the table stops being a
class.
"""

from fractions import Fraction

import pytest

from gkmcalc import classes as cl
from gkmcalc import symcore
from gkmcalc.errors import NonPolynomialIndex
from gkmcalc.gkm import build_graph
from gkmcalc.symcore import LIMIT, H, K, LaurentPoly, PolyH

from conftest import rng
from oracles import (
    BASES,
    blowup,
    eval_h,
    eval_k,
    eval_laurent,
    eval_poly,
    fixture_graph,
    localized_sum,
    polytope_input,
    product_polytope,
)

SEGMENT, TRIANGLE = BASES["cube3"][0], BASES["cp2"][0]
PRODUCTS = {
    "cube3": [SEGMENT] * 3,
    "cube4": [SEGMENT] * 4,
    "cp2xcp1": [TRIANGLE, SEGMENT],
    "cp2xcp2": [TRIANGLE, TRIANGLE],
    "F1xcp1": BASES["F1"] + [SEGMENT],
}
GRAPHS = ["cpn:3", "cpn:4", "cpn:5", *PRODUCTS, "blowup-cp2", "blowup-F1", "blowup-cube3",
          "blowup-cp3"]


def _graph(name):
    if name.startswith("cpn:"):
        return fixture_graph(name)
    if name.startswith("blowup-"):
        return build_graph(polytope_input(blowup(rng(911), name[7:], 2)[0]))
    return build_graph(polytope_input(product_polytope(PRODUCTS[name])[0]))


def _rand_k(r, rank):
    return LaurentPoly(rank, {tuple(r.randint(-1, 1) for _ in range(rank)):
                              r.choice((-3, -2, -1, 1, 2, 3)) for _ in range(r.randint(1, 2))})


def _rand_h(r, rank):
    terms = {}
    for _ in range(r.randint(1, 2)):
        e = [0] * rank
        for _ in range(r.randint(0, 2)):
            e[r.randrange(rank)] += 1
        terms[tuple(e)] = Fraction(r.choice((-3, -2, -1, 1, 2, 3)), r.randint(1, 3))
    return PolyH(rank, terms)


def _combination(ring, g, coeffs):
    duals = {p: cl.poincare_dual(ring, g, p) for p in coeffs}
    return {q: sum((a * duals[p][q] for p, a in coeffs.items()), ring.zero(g.rank))
            for q in g.vids()}


def _fixed_point_sum_agrees(ring, g, c, out):
    s = localized_sum(ring, g, c)
    if ring is K:
        return all(eval_k(s, base, g.xi) == eval_laurent(out, base, g.xi)
                   for base in (Fraction(2, 3), Fraction(5, 2)))
    points = [tuple(t * x for x in g.xi) for t in (Fraction(1), Fraction(-3, 2))]
    return all(eval_h(s, point) == eval_poly(out, point) for point in points)


@pytest.mark.parametrize("name", GRAPHS)
@pytest.mark.parametrize("ring", [K, H], ids=["K", "H"])
def test_pushforward_of_a_dual_combination_is_the_fixed_point_sum(ring, name):
    g = _graph(name)
    r = rng(913 + GRAPHS.index(name))
    rand = _rand_k if ring is K else _rand_h
    top = g.vids()[-1]
    for trial in range(3):
        coeffs = {p: rand(r, g.rank) for p in g.vids() if trial == 0 or r.random() < 0.7}
        c = _combination(ring, g, coeffs)
        out = cl.pushforward(ring, g, c)
        want = sum(coeffs.values(), K.zero(g.rank)) if ring is K \
            else coeffs.get(top, H.zero(g.rank))
        assert out == want, (name, trial)
        assert _fixed_point_sum_agrees(ring, g, c, out), (name, trial)
        # one more term at one vertex: a non-class exactly when some edge
        # at that vertex stops dividing
        q = r.choice(g.vids())
        low = -1 if ring is K else 0
        bump = ring(g.rank, {tuple(r.randint(low, 1) for _ in range(g.rank)): 1})
        bumped = {**c, q: c[q] + bump}
        if cl.check_gkm(ring, g, bumped) is None:
            assert cl.pushforward(ring, g, bumped) == out + cl.pushforward(
                ring, g, {v: bump if v == q else ring.zero(g.rank) for v in g.vids()})
        else:
            with pytest.raises(NonPolynomialIndex, match="push-forward of a non-class: value at "):
                cl.pushforward(ring, g, bumped)


def _bumped(ring, g, coeffs, q, bump):
    c = _combination(ring, g, coeffs)
    return {**c, q: c[q] + bump}


# (graph, ring, {vertex: a_p}, vertex bumped, bump): the first vertex whose
# residual is not a multiple of its Euler class names itself in the error
PINNED = [
    ("cpn:3", K, {"p0": 2, "p2": (1, 0, -1)}, "p3", (1, 0, 0),
     "push-forward of a non-class: value at p3 is not a multiple of its Euler class"),
    ("cube3", H, {"v0": Fraction(1, 2), "v3": (0, 1, 0)}, "v5", (0, 0, 0),
     "push-forward of a non-class: value at v5 is not a multiple of its Euler class"),
    ("cpn:4", K, {"p1": (0, 1, 0, 0)}, "p0", (0, 0, 0, 1),
     "push-forward of a non-class: value at p1 is not a multiple of its Euler class"),
]


def _value(ring, rank, a):
    if isinstance(a, tuple):
        return ring(rank, {a: 1})
    return ring.constant(rank, a)


@pytest.mark.parametrize("case", PINNED, ids=[f"{c[0]}-{c[1].name}" for c in PINNED])
def test_non_classes_name_the_first_vertex_that_fails(case):
    name, ring, coeffs, q, bump, message = case
    g = _graph(name)
    coeffs = {p: _value(ring, g.rank, a) for p, a in coeffs.items()}
    c = _bumped(ring, g, coeffs, q, _value(ring, g.rank, bump))
    with pytest.raises(NonPolynomialIndex) as exc:
        cl.pushforward(ring, g, c)
    assert str(exc.value) == message


def test_a_product_bound_at_the_limit_is_built_by_the_ring(monkeypatch):
    # a_p1 = e^(2^62 - 2, 0): the step at p1 leaves a quotient whose bound,
    # 2^62 - 1, plus the factor's at p2 reaches the limit, so that product
    # is built by _Poly.__mul__, which takes its exact bound; the bump at p2
    # then fails there as before
    g = fixture_graph("cp2")
    big = LIMIT - 2
    c = _bumped(K, g, {"p1": LaurentPoly(2, {(big, 0): 1})}, "p2", K.one(2))
    bounds = []
    mul = symcore._Poly.__mul__

    def spy(self, other):
        bounds.append(self.top + getattr(other, "top", 0))
        return mul(self, other)

    monkeypatch.setattr(symcore._Poly, "__mul__", spy)
    with pytest.raises(NonPolynomialIndex) as exc:
        cl.pushforward(K, g, c)
    assert str(exc.value) == \
        "push-forward of a non-class: value at p2 is not a multiple of its Euler class"
    assert max(bounds) >= LIMIT
    monkeypatch.undo()
    # without the bump it is a class, and the push-forward is a_p1
    c = _combination(K, g, {"p1": LaurentPoly(2, {(big, 0): 1})})
    assert cl.pushforward(K, g, c) == LaurentPoly(2, {(big, 0): 1})


def test_cohomology_expands_over_the_integers(monkeypatch):
    # the class is scaled by the lcm of its denominators, 6, so the
    # divisions see int coefficients only, and the answer is divided once
    g = fixture_graph("cpn:3")
    coeffs = {p: PolyH.constant(3, Fraction(1, k)) for p, k in zip(g.vids(), (1, 2, 3, 2))}
    c = _combination(H, g, coeffs)
    assert any(type(x) is Fraction for v in c.values() for x in v.terms.values())
    seen = []
    divide = symcore.divide_by_linear_form
    monkeypatch.setattr(symcore, "divide_by_linear_form",
                        lambda p, *ws: seen.append(p) or divide(p, *ws))
    assert cl.pushforward(H, g, c) == PolyH.constant(3, Fraction(1, 2))
    assert seen and all(type(x) is int for p in seen for x in p.terms.values())
    # one division call per vertex step, with all the incoming labels
    assert len(seen) == len(g.vids()) - 1


def test_one_division_call_takes_the_whole_euler_class():
    g = fixture_graph("cpn:3")
    for ring in (K, H):
        for p in g.vids():
            euler = cl.euler_minus(ring, g, p)
            f = ring(3, {(1, 0, 0): 2, (0, 1, 1): -1}) if ring is K else ring(3, {(1, 0, 0): 2})
            labels = g.point(p).wplus
            assert (f * euler).divide(*labels) == f
            one_at_a_time = f * euler
            for w in labels:
                one_at_a_time = one_at_a_time.divide(w)
            assert one_at_a_time == f
            if labels:
                assert (f * euler + 1).divide(*labels) is None
    assert K.one(2).divide() == K.one(2)
