"""Graph construction, orientation and combinatorial derived data."""

import itertools
import math
import time
from fractions import Fraction

import pytest

from gkmcalc.errors import (
    NotAPolytopeSkeleton,
    NotDelzant,
    SuppliedXiNotGeneric,
    ValidationError,
)
from gkmcalc.fixtures import cp_input, fixture_input, hirzebruch_input
from gkmcalc.gkm import (
    ToricInput,
    build_graph,
    detect_edges,
    flow_face,
    index_violations,
    is_index_increasing,
    upward_closure,
)
from gkmcalc.symcore import canonical_sign, wt_dot, wt_primitive, wt_sub

from conftest import rng


def F(seq):
    return tuple(Fraction(x) for x in seq)


# ---------------------------------------------------------------------------
# construction

def test_plane_triangle(cp2):
    assert len(cp2.points) == 3
    assert len(cp2.edges) == 3
    labels = {e.weight for e in cp2.edges}
    assert labels == {(1, 0), (0, 1), (-1, 1)}


def test_segment(cp1):
    assert len(cp1.points) == 2
    assert len(cp1.edges) == 1
    assert cp1.edges[0].weight == (1,)


def test_trapezoid(hirzebruch):
    assert len(hirzebruch.edges) == 4
    labels = sorted(e.weight for e in hirzebruch.edges)
    assert labels == [(-1, 1), (0, 1), (0, 1), (1, 1)]
    mults = sorted(e.mult for e in hirzebruch.edges)
    assert mults == [1, 1, 1, 3]


def test_explicit_edges_match_detection(cp2):
    inp = cp_input(2)
    inp.edges = [("p0", "p1"), ("p0", "p2"), ("p1", "p2")]
    g = build_graph(inp)
    assert {(e.src, e.dst, e.weight) for e in g.edges} == \
        {(e.src, e.dst, e.weight) for e in cp2.edges}


def test_wrong_explicit_edges_rejected():
    inp = cp_input(2)
    inp.edges = [("p0", "p1"), ("p0", "p2")]
    with pytest.raises(NotAPolytopeSkeleton):
        build_graph(inp)


def test_simplex_is_complete_graph(cp3):
    assert len(cp3.edges) == 6
    for p in cp3.points:
        assert len(p.wplus) + len(p.wminus) == 3


def test_interior_point_rejected():
    inp = ToricInput(rank=2, vertices=[
        ("a", F([0, 0])), ("b", F([1, 0])), ("c", F([0, 1])),
        ("m", F(["1/4", "1/4"])),
    ])
    with pytest.raises(NotAPolytopeSkeleton):
        build_graph(inp)


def test_non_lattice_basis_rejected():
    inp = ToricInput(rank=2, vertices=[
        ("a", F([0, 0])), ("b", F([1, 0])), ("c", F([0, 2])),
    ])
    with pytest.raises(NotDelzant):
        build_graph(inp)


def test_pyramid_apex_degree_rejected():
    inp = ToricInput(rank=3, vertices=[
        ("a", F([0, 0, 0])), ("b", F([1, 0, 0])),
        ("c", F([0, 1, 0])), ("d", F([1, 1, 0])),
        ("apex", F([0, 0, 1])),
    ])
    with pytest.raises(NotAPolytopeSkeleton, match="vertex apex fails"):
        build_graph(inp)


def _cube(n):
    return [tuple(Fraction(x) for x in p) for p in itertools.product((0, 1), repeat=n)]


@pytest.mark.parametrize("psis, error, message", [
    ([F(p) for p in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))],
     NotAPolytopeSkeleton, "fails the skeleton certificate"),
    (_cube(3) + [F(["1/2", 0, 0])], NotAPolytopeSkeleton, "lies on its edge"),
    (_cube(3) + [F(["1/2", "1/2", 0])], NotAPolytopeSkeleton, "has degree 0, expected 3"),
    ([F(p) for p in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 3, 0))],
     NotDelzant, "vertices do not span the ambient space"),
], ids=["octahedron", "edge-midpoint", "facet-interior", "coplanar"])
def test_non_skeleton_inputs_rejected(psis, error, message):
    inp = ToricInput(rank=3, vertices=[(f"v{i}", p) for i, p in enumerate(psis)])
    with pytest.raises(error, match=message):
        build_graph(inp)


@pytest.mark.parametrize("n", [5, 6])
def test_large_cube_skeleton_is_fast(n):
    inp = ToricInput(rank=n, vertices=[(f"v{i}", p) for i, p in enumerate(_cube(n))])
    t0 = time.perf_counter()
    g = build_graph(inp)
    assert time.perf_counter() - t0 < 1.0
    assert len(g.edges) == 2 ** n * n // 2


# ---------------------------------------------------------------------------
# the exhaustive facet enumeration, kept as the small-input oracle

def _hyperplane_normal(points):
    """Primitive integer normal of the affine span of rank points, or None."""
    n = len(points[0])
    rows = [[Fraction(x) for x in wt_sub(p, points[0])] for p in points[1:]]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if r != n - 1:
        return None
    free = next(c for c in range(n) if c not in pivots)
    kern = [Fraction(0)] * n
    kern[free] = Fraction(1)
    for i, c in enumerate(pivots):
        kern[c] = -rows[i][free]
    denom = math.lcm(*(x.denominator for x in kern))
    prim, _ = wt_primitive(tuple(int(x * denom) for x in kern))
    return canonical_sign(prim)[0]


def _exhaustive_edges(rank, psis):
    """A pair spans an edge exactly when the intersection of all facets
    containing both of them is that pair alone; every rank-subset of the
    points is tried as a facet."""
    nv = len(psis)
    facets = set()
    seen = set()
    for subset in itertools.combinations(range(nv), rank):
        normal = _hyperplane_normal([psis[i] for i in subset])
        if normal is None:
            continue
        offset = wt_dot(normal, psis[subset[0]])
        if (normal, offset) in seen:
            continue
        seen.add((normal, offset))
        sides = [wt_dot(normal, p) - offset for p in psis]
        if all(s >= 0 for s in sides) or all(s <= 0 for s in sides):
            facets.add(frozenset(i for i, s in enumerate(sides) if s == 0))
    edges = []
    for i, j in itertools.combinations(range(nv), 2):
        common = [f for f in facets if i in f and j in f]
        if common and frozenset.intersection(*common) == {i, j}:
            edges.append((i, j))
    return edges


def _simplex(m):
    return [(0,) * m] + [tuple(int(i == j) for j in range(m)) for i in range(m)]


def _trapezoid(k):
    return [(0, 0), (1, 0), (1, 1), (0, k + 1)]


SIMPLE_SHAPES = [
    [_simplex(2)], [_simplex(3)], [_simplex(4)], [_trapezoid(1)], [_trapezoid(3)],
    [_simplex(1), _simplex(2)], [_simplex(1), _simplex(3)], [_simplex(2), _simplex(2)],
    [_trapezoid(2), _simplex(1)], [_trapezoid(1), _simplex(2)],
    [_simplex(1)] * 3, [_simplex(1)] * 4, [_simplex(1), _simplex(1), _simplex(2)],
    [_trapezoid(1), _trapezoid(2)],
]


def _random_unimodular(r, n):
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = r.sample(range(n), 2)
        c = r.choice((-2, -1, 1, 2))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    r.shuffle(a)
    return a


def test_detect_edges_matches_exhaustive_enumeration():
    r = rng(301)
    dilations = (Fraction(1), Fraction(2), Fraction(3, 2), Fraction(5, 3))
    # every shape once, then the first ten (V <= 12) again: the oracle costs C(V, n)
    for case, factors in enumerate(SIMPLE_SHAPES + SIMPLE_SHAPES[:10]):
        verts = [sum(combo, ()) for combo in itertools.product(*factors)]
        n = len(verts[0])
        a = _random_unimodular(r, n)
        t = [r.randint(-5, 5) for _ in range(n)]
        s = dilations[case % len(dilations)]
        psis = [tuple(s * wt_dot(row, v) + c for row, c in zip(a, t)) for v in verts]
        r.shuffle(psis)
        ids = [f"v{i}" for i in range(len(psis))]
        assert n <= 4 and len(psis) <= 16
        assert detect_edges(n, ids, psis) == _exhaustive_edges(n, psis), (factors, s)


def _assert_exact_moment_data(g):
    for e in g.edges:
        assert wt_sub(g.psi(e.dst), g.psi(e.src)) == tuple(e.mult * x for x in e.weight)
    for p in g.points:
        assert p.mu == sum(Fraction(x) * y for x, y in zip(p.psi, g.xi))


def test_rational_dilation_scales_only_mu_and_mult():
    r = rng(302)
    for case, factors in enumerate(SIMPLE_SHAPES):
        verts = [sum(combo, ()) for combo in itertools.product(*factors)]
        n = len(verts[0])
        a = _random_unimodular(r, n)
        t = [Fraction(r.randint(-9, 9), r.choice((1, 2, 3))) for _ in range(n)]
        psis = [tuple(wt_dot(row, v) + c for row, c in zip(a, t)) for v in verts]
        ids = [f"v{i}" for i in range(len(psis))]
        base = build_graph(ToricInput(rank=n, vertices=list(zip(ids, psis))))
        _assert_exact_moment_data(base)
        # odd cases take the base graph's edges as given, even ones detect them
        edges = [(e.src, e.dst) for e in base.edges] if case % 2 else None
        for d in (Fraction(3, 2), Fraction(5, 3), Fraction(7, 4)):
            g = build_graph(ToricInput(rank=n, edges=edges, vertices=[
                (i, tuple(d * x for x in p)) for i, p in zip(ids, psis)]))
            _assert_exact_moment_data(g)
            assert g.xi == base.xi
            assert [(e.src, e.dst, e.weight) for e in g.edges] == \
                [(e.src, e.dst, e.weight) for e in base.edges]
            assert [(p.id, p.lam, p.wplus, p.wminus) for p in g.points] == \
                [(p.id, p.lam, p.wplus, p.wminus) for p in base.points]
            assert [p.mu for p in g.points] == [d * p.mu for p in base.points]
            assert [e.mult for e in g.edges] == [d * e.mult for e in base.edges]


def test_duplicate_psi_rejected():
    inp = ToricInput(rank=1, vertices=[("a", F([0])), ("b", F([0]))])
    with pytest.raises(ValidationError):
        build_graph(inp)


# ---------------------------------------------------------------------------
# genericity and orientation

def test_default_direction_on_triangle(cp2):
    assert cp2.xi == (1, 2)
    assert [p.mu for p in cp2.points] == [0, 1, 2]


def test_non_generic_direction_rejected():
    # (1, 1) pairs to zero with the antidiagonal edge; a wrong length is
    # reported by its entry count
    for xi, match in [((1, 1), "is not generic"),
                      ((1, 2, 3), "xi has 3 entries, expected 2"),
                      ((1,), "xi has 1 entries, expected 2")]:
        inp = cp_input(2)
        inp.xi = xi
        with pytest.raises(SuppliedXiNotGeneric, match=match):
            build_graph(inp)


def test_segment_direction(cp1):
    assert cp1.xi == (1,)


def test_indices_on_triangle(cp2):
    assert [p.lam for p in cp2.points] == [0, 1, 2]
    assert cp2.points[0].wplus == ()


def test_minimum_has_only_negative_weights(cp2, cp3, hirzebruch):
    for g in (cp2, cp3, hirzebruch):
        bottom = g.points[0]
        assert bottom.lam == 0
        assert len(bottom.wminus) == g.rank


def test_reversed_direction_flips_indices():
    fwd = build_graph(cp_input(2))
    inp = cp_input(2)
    inp.xi = (-1, -2)
    rev = build_graph(inp)
    for p in fwd.points:
        assert rev.point(p.id).lam == fwd.rank - p.lam


def test_unique_extrema(cp1, cp2, cp3, hirzebruch, square):
    for g in (cp1, cp2, cp3, hirzebruch, square):
        lams = [p.lam for p in g.points]
        assert lams.count(0) == 1
        assert lams.count(g.rank) == 1


# ---------------------------------------------------------------------------
# flow faces and closures

def test_flow_face_up_triangle(cp2):
    assert flow_face(cp2, "p1") == {"p1", "p2"}


def test_flow_face_up_from_minimum(cp2, cp3, hirzebruch):
    for g in (cp2, cp3, hirzebruch):
        bottom = g.vids()[0]
        assert flow_face(g, bottom) == set(g.vids())


def _reversed(name, g):
    """The fixture oriented by -xi, where flow-down faces are flow-up."""
    inp = fixture_input(name)
    inp.xi = tuple(-x for x in g.xi)
    return build_graph(inp)


def test_flow_face_down_at_minimum(cp2):
    assert flow_face(_reversed("cp2", cp2), "p0") == {"p0"}


def test_trapezoid_faces(hirzebruch):
    assert flow_face(hirzebruch, "p1") == {"p1", "p2"}
    assert flow_face(hirzebruch, "p2") == {"p2", "p3"}
    assert flow_face(hirzebruch, "p3") == {"p3"}
    assert flow_face(_reversed("hirzebruch", hirzebruch), "p2") == {"p1", "p2"}


def test_upward_closure(cp2, cp3, hirzebruch):
    assert upward_closure(cp2, "p2") == ["p2"]
    assert upward_closure(cp2, "p0") == ["p0", "p1", "p2"]
    assert upward_closure(cp2, "p1") == ["p1", "p2"]
    assert upward_closure(hirzebruch, "p1") == ["p1", "p2", "p3"]
    assert upward_closure(cp3, "p0") == cp3.vids()


def test_index_increasing(cp1, cp2, cp3, hirzebruch):
    assert is_index_increasing(cp1)
    assert is_index_increasing(cp2)
    assert is_index_increasing(cp3)
    assert not is_index_increasing(hirzebruch)
    bad = index_violations(hirzebruch)
    assert [(e.src, e.dst) for e in bad] == [("p1", "p2")]


def test_flow_face_inside_upward_closure(cp1, cp2, cp3, hirzebruch, square):
    for g in (cp1, cp2, cp3, hirzebruch, square):
        for p in g.vids():
            face = flow_face(g, p)
            closure = set(upward_closure(g, p))
            assert face <= closure
            if is_index_increasing(g):
                assert face == closure


def test_face_indices_strictly_larger_when_increasing(cp2, cp3):
    for g in (cp2, cp3):
        for p in g.vids():
            lam = g.point(p).lam
            for q in flow_face(g, p):
                if q != p:
                    assert g.point(q).lam > lam


def test_weight_toward_is_antisymmetric(cp2):
    w = cp2.weight_toward("p0", "p1")
    assert cp2.weight_toward("p1", "p0") == tuple(-x for x in w)


def test_edge_labels_primitive_with_positive_multiplicity(cp2, cp3, hirzebruch, square):
    from gkmcalc.symcore import wt_dot, wt_gcd, wt_scale, wt_sub

    for g in (cp2, cp3, hirzebruch, square):
        for e in g.edges:
            assert wt_gcd(e.weight) == 1
            assert e.mult > 0
            assert wt_dot(e.weight, g.xi) > 0
            diff = wt_sub(g.psi(e.dst), g.psi(e.src))
            assert tuple(diff) == wt_scale(e.weight, e.mult)


def test_random_vertex_permutations_build_same_graph():
    r = rng(201)
    base = build_graph(hirzebruch_input())
    for _ in range(25):
        inp = hirzebruch_input()
        r.shuffle(inp.vertices)
        g = build_graph(inp)
        assert g.vids() == base.vids()
        assert {(e.src, e.dst, e.weight) for e in g.edges} == \
            {(e.src, e.dst, e.weight) for e in base.edges}
