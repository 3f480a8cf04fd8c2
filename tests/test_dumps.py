"""The one-pass JSON emitter against ``json`` itself.

``serialize.dumps`` must write exactly ``json.dumps(x, indent=2,
sort_keys=True)`` and a newline: on every JSON output of the golden command
lines, and on seeded nested values with non-ASCII, quote, backslash and
control-character strings, empty containers, bools, None and 100-digit ints,
and on tuples that hold other values than ints or meet again at another
indentation.  Keys are strings, the only keys the commands emit.  A ring
value is written as ``json`` writes its JSON form, ``oracles.to_terms``, at
any rank and depth, whatever other values of the same call share its
exponents.  A moment graph is written as ``json`` writes
``oracles.graph_dict``, the ``graph`` command's JSON form as a dict: on
every fixture, on seeded blow-ups and products, at rational scales and with
vertex ids that ``json`` must escape.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest

from gkmcalc import classes as cl
from gkmcalc.cli import main
from gkmcalc.errors import SuppliedXiNotGeneric
from gkmcalc.fixtures import fixture_input
from gkmcalc.gkm import build_graph, index_violations, is_index_increasing
from gkmcalc.serialize import dumps, toric_input_from_dict
from gkmcalc.symcore import LIMIT, H, K

from conftest import rng
from oracles import BASES, blowup, graph_dict, polytope_json, product_polytope, to_terms
from test_golden import FIXTURES, cases


def _reference(x):
    return json.dumps(x, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("fixture", FIXTURES)
def test_dumps_equals_json_on_every_golden_output(fixture):
    emitted = 0
    for argv in cases(fixture):
        if "json" not in argv:
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
        try:
            value = json.loads(out.getvalue())
        except ValueError:  # check and verify write text in either format
            continue
        assert rc == 0, argv
        assert dumps(value) == _reference(value) == out.getvalue(), argv
        emitted += 1
    assert emitted >= 30


ALPHABET = ['a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\x00', '\x1f', '\x7f',
            'é', 'ψ', ' ', '\U0001d11e', '\ud800', '*', '->']


def _text(r):
    return "".join(r.choice(ALPHABET) for _ in range(r.randint(0, 6)))


def _scalar(r):
    kind = r.randrange(8)
    if kind == 0:
        return None
    if kind == 1:
        return r.choice((True, False))
    if kind == 2:
        return r.choice((-1, 1)) * r.randrange(10 ** 99, 10 ** 100)
    if kind == 3:
        return r.randint(-5, 5)
    if kind == 4:
        return r.choice((0.5, -2.0, 1e300))
    return _text(r)


def _value(r, depth):
    kind = r.randrange(5) if depth else 0
    if kind == 0:
        return _scalar(r)
    items = [_value(r, depth - 1) for _ in range(r.choice((0, 1, 2, 3)))]
    if kind == 1:
        return items
    if kind == 2:
        return tuple(items)
    return {_text(r): v for v in items}


def test_dumps_equals_json_on_seeded_nested_values():
    r = rng(906)
    for _ in range(2000):
        value = _value(r, r.randint(0, 5))
        assert dumps(value) == _reference(value), value


def test_dumps_writes_one_int_tuple_at_each_indentation():
    # the same all-int tuple at three indentations in one call, and again
    t = (1, -2, 10 ** 30)
    value = {"a": t, "b": [t, [t, ()]], "c": [t]}
    assert dumps(value) == _reference(value)
    assert dumps([value, t]) == _reference([value, t])


@pytest.mark.parametrize("value", [
    [(1, [2, 3])],
    [(1, 1), (1, True), (True, 1), (1, 1)],  # (1, True) == (1, 1)
    [(0, 0), (False, 0), (0.0, 0), (0, None), (None,)],
    {"a": (1, 2), "b": ((1, 2), [(1, 2)]), "c": ([1], {"d": (1, 2)})},
], ids=["list", "bool", "falsy", "nested"])
def test_dumps_writes_tuples_of_any_values(value):
    # only tuples of exact ints share text: a tuple equal to an int tuple
    # but holding a bool or a float, or one holding a list, is written as
    # itself
    assert dumps(value) == _reference(value)


def test_dumps_refuses_what_json_refuses_and_keys_that_are_not_strings():
    for value in (object(), {(1, 2): 1}, [1, {2}], {"a": 1, 2: 3}):
        with pytest.raises(TypeError):
            _reference(value)
        with pytest.raises(TypeError):
            dumps(value)
    with pytest.raises(TypeError):
        dumps({1: "a"})


def _plain(x):
    """x with every ring value replaced by its JSON form as plain lists."""
    if type(x) in (K, H):
        return to_terms(x)
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def _ring_value(r, ring, rank, pool):
    """A seeded value with up to 5 terms whose exponents come from ``pool``
    or are drawn afresh, with Fraction coefficients in H."""
    terms = {}
    for _ in range(r.randint(0, 5)):
        e = r.choice(pool[rank]) if r.random() < 0.5 else tuple(
            r.choice((0, 1, 3, -2, LIMIT - 1, 1 - LIMIT)) for _ in range(rank))
        if ring is H:
            e = tuple(map(abs, e))
            c = r.choice((Fraction(r.randint(-9, 9), r.randint(1, 4)), r.randint(-9, 9)))
        else:
            c = r.choice((r.randint(-9, 9), r.randint(-10 ** 30, 10 ** 30)))
        terms[e] = c
    return ring(rank, terms)


def _nest(r, x, depth):
    for _ in range(depth):
        x = r.choice(([x], {"v": x, "w": 1}, (x, [])))
    return x


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("ring", [K, H], ids=["ktheory", "cohomology"])
def test_dumps_writes_ring_values_as_json_writes_their_terms(ring, rank):
    r = rng(931 + rank)
    pool = {rank: [tuple(r.randint(-3, 3) for _ in range(rank)) for _ in range(4)]
            + [(LIMIT - 1,) * rank, (1 - LIMIT,) * rank]}
    zero = ring.zero(rank)
    assert dumps(zero) == _reference([]) == "[]\n"
    for depth in range(5):
        for _ in range(40):
            value = _nest(r, _ring_value(r, ring, rank, pool), depth)
            assert dumps(value) == _reference(_plain(value)), value
        nested = _nest(r, zero, depth)
        assert dumps(nested) == _reference(_plain(nested))


def test_dumps_writes_values_that_share_exponents_at_every_depth_in_one_call():
    # one memo serves the whole call: the text of an exponent written at
    # one depth must not be reused at another, nor across ranks or rings
    r = rng(937)
    pool = {rank: [tuple(r.randint(-2, 2) for _ in range(rank)) for _ in range(3)]
            + [(LIMIT - 1,) * rank, (1 - LIMIT,) * rank] for rank in range(1, 6)}
    items = []
    for _ in range(300):
        ring, rank = r.choice((K, H)), r.randint(1, 5)
        items.append(_nest(r, _ring_value(r, ring, rank, pool), r.randint(0, 4)))
    value = {"items": items, "again": items[::-1], "one": items[:1]}
    assert dumps(value) == _reference(_plain(value))
    assert sum(type(v) in (K, H) and v.top == LIMIT - 1 for v in _values(value)) >= 10
    assert any(v.terms and min(min(e) for e, _ in v.sorted_terms()) < 0 for v in _values(value))
    assert any(type(c) is Fraction for v in _values(value) for c in v.terms.values())


def _values(x):
    if type(x) in (K, H):
        yield x
    elif isinstance(x, dict):
        for v in x.values():
            yield from _values(v)
    elif isinstance(x, (list, tuple)):
        for v in x:
            yield from _values(v)


# ---------------------------------------------------------------------------
# the moment graph

def _graph_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["graph", "--format", "json"] + argv) == 0, argv
    return out.getvalue()


def _graph_file(tmp_path, data):
    """The ``graph`` command's JSON output on a graph file, the graph its
    input builds, and that graph's reference text."""
    g = build_graph(toric_input_from_dict(data))
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    return _graph_json(["--input", str(path)]), g, _reference(graph_dict(g))


@pytest.mark.parametrize("fixture", ["cp1", "cp2", "cpn:3", "cpn:5", "hirzebruch", "square"])
def test_graph_json_is_the_graph_dict_on_every_fixture(fixture):
    g = build_graph(fixture_input(fixture))
    assert _graph_json(["--fixture", fixture]) == dumps(g) == _reference(graph_dict(g))


def _scaled(verts, s):
    return {v: tuple(x * s for x in psi) for v, psi in verts.items()}


def test_graph_json_is_the_graph_dict_on_blowups_and_products(tmp_path):
    # vertex-only and supplied-edge inputs under seeded directions and the
    # dilations 1, 3/2 and 5/3, so mu, mult and psi are often Fractions
    r = rng(951)
    cases = [blowup(r, base, cuts) for base in BASES for cuts in (0, 1, 2, 3)]
    cases += [product_polytope(f) for f in ([BASES["cp2"][0]] * 2, [BASES["F1"][0]] * 2
                                            + [BASES["cube3"][0]])]
    seen = {"graph": 0, "fraction": 0, "not index increasing": 0}
    for i, (verts, edges) in enumerate(cases):
        verts = _scaled(verts, (1, Fraction(3, 2), Fraction(5, 3))[i % 3])
        data = polytope_json(verts)
        if i % 2:
            data["edges"] = sorted(sorted(e) for e in edges)
            data["xi"] = [r.randint(-9, 9) for _ in range(data["rank"])]
        try:
            got, g, want = _graph_file(tmp_path, data)
        except SuppliedXiNotGeneric:
            continue
        assert got == want
        seen["graph"] += 1
        seen["fraction"] += any(type(p.mu) is Fraction for p in g.points) \
            and any(type(e.mult) is Fraction for e in g.edges)
        seen["not index increasing"] += not is_index_increasing(g)
    assert seen["graph"] >= 18 and seen["fraction"] >= 8 and seen["not index increasing"] >= 4, seen


def test_graph_json_escapes_vertex_ids_as_json_does(tmp_path):
    ids = ['q"uote', "back\\slash", "\u00e9t\u00e9 \u03c8\U0001d11e", "tab\tline\n"]
    psis = [(0, 0), (2, 0), (2, 1), (0, 1)]
    data = {"rank": 2, "vertices": [{"id": v, "psi": list(p)} for v, p in zip(ids, psis)]}
    got, g, want = _graph_file(tmp_path, data)
    assert got == want
    assert "\\u00e9t\\u00e9" in got and '\\"uote' in got and "back\\\\slash" in got


def test_graph_json_reads_the_same_at_any_depth():
    g = build_graph(fixture_input("hirzebruch"))
    h = build_graph(fixture_input("cpn:3"))
    value = {"g": [g, (1, 0)], "h": (h, {"k": h}), "w": g.edges[0].weight}
    plain = {"g": [graph_dict(g), (1, 0)], "h": (graph_dict(h), {"k": graph_dict(h)}),
             "w": g.edges[0].weight}
    assert dumps(value) == _reference(plain)


def test_index_increasing_is_tested_once_per_basis(monkeypatch):
    calls = []
    test = cl.is_index_increasing
    monkeypatch.setattr(cl, "is_index_increasing", lambda g: calls.append(g) or test(g))
    for fixture in ("hirzebruch", "cpn:3"):
        g = build_graph(fixture_input(fixture))
        assert test(g) == (not index_violations(g))
        for ring in (K, H):
            calls.clear()
            cl.basis(ring, g)
            assert len(calls) == (ring is K)
