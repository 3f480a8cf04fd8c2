"""The one-pass JSON emitter against ``json`` itself.

``serialize.dumps`` must write exactly ``json.dumps(x, indent=2,
sort_keys=True)`` and a newline: on every JSON output of the golden command
lines, and on seeded nested values with non-ASCII, quote, backslash and
control-character strings, empty containers, bools, None and 100-digit ints,
and on tuples that hold other values than ints or meet again at another
indentation.  Keys are strings, the only keys the commands emit.
"""

import contextlib
import io
import json

import pytest

from gkmcalc.cli import main
from gkmcalc.serialize import dumps

from conftest import rng
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
