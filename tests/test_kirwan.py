"""Circle reductions near the top vertex and the shared substitution core."""

import pytest

from gkmcalc import classes as cl
from gkmcalc.errors import NonUniqueMaximum, NotFreeAction
from gkmcalc.fixtures import hirzebruch_sample_class, square_reference_class
from gkmcalc.kirwan import kirwan_restrict_all, reduced_fixed_data
from gkmcalc.symcore import H, K, LaurentPoly, PolyH, lattice_dual, substitute_linear, wt_neg

from conftest import rand_polyh, rng
from oracles import lift, local_index_parts, restrict_from_sources, wt_add


def form(*w):
    return PolyH.linear_form(w)


@pytest.fixture(scope="module")
def square_setup(square):
    return reduced_fixed_data(square, (1, 1))


def _point_by_source(setup, source):
    return next(p for p in setup.points if p.source == source)


# ---------------------------------------------------------------------------
# reduced data

def test_square_reduced_points(square, square_setup):
    setup = square_setup
    assert setup.top == "q0"
    assert {p.source for p in setup.points} == {"q1", "q2"}
    horizontal = _point_by_source(setup, "q1")   # edge weight x
    vertical = _point_by_source(setup, "q2")     # edge weight y
    assert horizontal.edge_weight == (1, 0)
    assert vertical.edge_weight == (0, 1)
    # both residual lattices are generated by (1, -1) up to sign
    for p in setup.points:
        (res,) = p.residual
        assert res in ((1, -1), (-1, 1))
        assert lattice_dual([res, p.edge_weight]) is not None


def test_segment_reduction_has_no_residual_directions(cp1):
    setup = reduced_fixed_data(cp1, (1,))
    assert len(setup.points) == 1
    assert setup.points[0].residual == ()


def test_triangle_reduction(cp2):
    setup = reduced_fixed_data(cp2, (0, 1))
    assert setup.top == "p2"
    assert {p.source for p in setup.points} == {"p0", "p1"}
    for p in setup.points:
        assert len(p.residual) == 1


def test_triangle_non_free_covector(cp2):
    # pairings 2 and 1 at the top leave a half-integral residual weight
    with pytest.raises(NotFreeAction):
        reduced_fixed_data(cp2, (1, 2))


def test_tied_maximum_rejected(cp2):
    with pytest.raises(NonUniqueMaximum):
        reduced_fixed_data(cp2, (1, 1))


def test_non_free_action_rejected(square):
    with pytest.raises(NotFreeAction):
        reduced_fixed_data(square, (1, 2))


# ---------------------------------------------------------------------------
# restriction values

def test_square_golden_values(square, square_setup):
    alpha = square_reference_class(square)
    assert cl.check_gkm(H, square, alpha) == []
    horizontal = _point_by_source(square_setup, "q1")
    vertical = _point_by_source(square_setup, "q2")
    x = form(1, -1)
    vals = kirwan_restrict_all(square_setup, alpha)
    assert vals[horizontal.id] == -x
    assert vals[vertical.id] == x


def test_square_cross_checks_from_other_endpoint(square, square_setup):
    alpha = square_reference_class(square)
    x = form(1, -1)
    horizontal = _point_by_source(square_setup, "q1")  # value there is 4x1 + x2
    vertical = _point_by_source(square_setup, "q2")    # value there is x1 + 7x2
    vals = restrict_from_sources(square_setup, alpha)
    assert vals[horizontal.id] == -x
    assert vals[vertical.id] == x


def test_constant_class_restricts_to_one(square, square_setup):
    vals = kirwan_restrict_all(square_setup, cl.one_class(H, square))
    for v in vals.values():
        assert v == PolyH.one(2)


def test_source_independence_random(square, square_setup):
    r = rng(501)
    etas = {p: cl.poincare_dual(H, square, p) for p in square.vids()}
    for _ in range(200):
        c = {v: PolyH.zero(2) for v in square.vids()}
        for p in square.vids():
            if r.random() < 0.6:
                f = rand_polyh(r, 2, max_terms=2, deg=1)
                c = {v: c[v] + f * etas[p][v] for v in c}
        assert kirwan_restrict_all(square_setup, c) == restrict_from_sources(square_setup, c)


def test_output_lies_in_residual_span(square, square_setup):
    from gkmcalc.symcore import substitute_linear_h

    r = rng(502)
    for _ in range(50):
        val = rand_polyh(r, 2, max_terms=3, deg=2)
        c = {v: val for v in square.vids()}  # constant table is a valid class
        vals = kirwan_restrict_all(square_setup, c)
        for p in square_setup.points:
            out = vals[p.id]
            # rewriting through the basis (residual, edge weight) must show
            # zero degree in the killed edge-weight coordinate
            (res,) = p.residual
            rewritten = substitute_linear_h(
                out, [res, p.edge_weight], [(1, 0), (0, 1)])
            for expo, _ in rewritten.sorted_terms():
                assert expo[1] == 0


def test_multiplicative_restriction(square, square_setup):
    # same substitution core on character sums: e^(edge weight) -> 1
    c = {v: LaurentPoly.monomial((1, 1)) for v in square.vids()}
    vals = kirwan_restrict_all(square_setup, c)
    on_w1 = _point_by_source(square_setup, "q1")
    assert vals[on_w1.id] == LaurentPoly.monomial((-1, 1))
    on_w2 = _point_by_source(square_setup, "q2")
    assert vals[on_w2.id] == LaurentPoly.monomial((1, -1))


# ---------------------------------------------------------------------------
# consistency with the local index substitution

def test_cut_space_restrictions_match_local_index_parts(hirzebruch):
    """The substituted values f_j of the local index are exactly the
    basis-change-then-kill-one-weight restrictions at the cut space points."""
    tau = hirzebruch_sample_class(hirzebruch)
    q = "p2"
    fs, _dens = local_index_parts(K, hirzebruch, tau, q)
    pt = hirzebruch.point(q)
    n = hirzebruch.rank
    wplus = list(pt.wplus)
    wrest = list(pt.wminus)
    w0 = (0,) * n + (1,)
    value = tau[q].apply_matrix(
        tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n + 1)))

    # point 0: kill the auxiliary direction, basis shifted by it
    basis0 = [wt_add(lift(w), w0) for w in wplus] + \
        [lift(w) for w in wrest] + [w0]
    images0 = [wt_add(lift(w), w0) for w in wplus] + \
        [lift(w) for w in wrest] + [(0,) * (n + 1)]
    assert substitute_linear(value, basis0, images0) == fs[0]

    # point j: kill the cut edge weight w_j, residuals are the differences
    for j, wj in enumerate(wplus):
        basis = [lift(tuple(a - b for a, b in zip(w, wj)))
                 for i, w in enumerate(wplus) if i != j]
        basis += [lift(w) for w in wrest]
        basis += [wt_neg(wt_add(lift(wj), w0)), lift(wj)]
        images = list(basis[:-1]) + [(0,) * (n + 1)]
        assert substitute_linear(value, basis, images) == fs[j + 1]
