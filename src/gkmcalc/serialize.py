"""JSON input and output.

Graph files:  {"rank": n, "vertices": [{"id": ..., "psi": [...]}, ...],
               "edges": [[id, id], ...]?, "xi": [...]?}
with rationals written as integers or as "p/q" or plain decimal strings
(exponent notation is refused).

Class files:  {"mode": "ktheory"|"cohomology", "class": {vid: [[coeff, [e...]], ...]}}
with coefficients as decimal strings (K) or "p/q" strings (H) so any integer
width survives; the coefficient ring of the mode reads the terms, and each
value writes its own.  Basis files carry a map of vertex id to class under
"basis".  Emission is sorted everywhere, so emit / read / emit is
byte-stable.

``dumps`` writes exactly what ``json.dumps(data, indent=2, sort_keys=True)``
writes, in one pass over the values the commands emit: strs, ints, floats,
bools, None, lists, tuples and dicts with string keys (any other key raises
``TypeError``), and the ring values ``K`` and ``H``, written as ``json``
would write their JSON form, sorted [coefficient string, exponent array]
pairs.  Strings are quoted by ``json``'s own ASCII quoter; ``json`` itself
would take its pure-Python encoder, which ``indent`` forces.  The strs and
ints of a container are written in place, and a tuple of ints is rendered
once per indentation within one call, since a graph repeats its weights.
A ring value writes itself from its packed terms (``json_text``), which
only ``symcore`` can decode, so the writers here and in the CLI hand
``dumps`` the values themselves and no term list is built.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from .errors import ValidationError
from .gkm import ToricInput
from .symcore import RINGS, H, K, parse_exact, parse_int


def toric_input_from_dict(data):
    if not isinstance(data, dict):
        raise ValidationError("malformed graph file: not a JSON object")
    try:
        rank = parse_int(data["rank"])
        vertices = [(str(v["id"]), tuple(map(parse_exact, v["psi"])))
                    for v in data["vertices"]]
        edges = None
        if data.get("edges") is not None:
            edges = [(str(a), str(b)) for a, b in data["edges"]]
        xi = None
        if data.get("xi") is not None:
            xi = tuple(parse_int(x) for x in data["xi"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed graph file: {exc}") from None
    return ToricInput(rank=rank, vertices=vertices, edges=edges, xi=xi)


def _load_json(path, what):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValidationError(f"{what} file is not JSON: {exc}") from None


def load_toric_input(path):
    return toric_input_from_dict(_load_json(path, "graph"))


# ---------------------------------------------------------------------------
# class and basis files

def _ring(data):
    mode = data.get("mode", "ktheory")
    if not isinstance(mode, str) or mode not in RINGS:
        raise ValidationError(f"malformed class file: unknown mode {mode!r}")
    return mode, RINGS[mode]


def class_from_dict(data, rank):
    if not isinstance(data, dict) or not isinstance(data.get("class"), dict):
        raise ValidationError("malformed class file: no \"class\" object")
    mode, ring = _ring(data)
    try:
        return {vid: ring.from_terms(rank, items) for vid, items in data["class"].items()}, mode
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed class file: {exc}") from None


def basis_to_dict(basis, mode):
    return {"mode": mode, "basis": basis}


def dumps(data):
    return _encode(data, "\n", {}) + "\n"


def _encode(x, nl, memo):
    """The JSON text of x, its lines after the first opening with ``nl``.
    Strs and ints inside a container are written in place; ``memo`` holds
    the text of each all-int tuple at each indentation, and what ring values
    keep under ``nl`` (``json_text``), for one call of ``dumps``."""
    t = type(x)
    if t is str:
        return _quote(x)
    if t is int:
        return int.__repr__(x)
    if t is list or t is tuple:
        if not x:
            return "[]"
        inner = nl + "  "
        if t is tuple and all([type(v) is int for v in x]):
            key = nl, x
            text = memo.get(key)
            if text is None:
                text = memo[key] = ("[" + inner + ("," + inner).join(map(int.__repr__, x))
                                    + nl + "]")
            return text
        return "[" + inner + ("," + inner).join([
            _quote(v) if type(v) is str else int.__repr__(v) if type(v) is int
            else _encode(v, inner, memo) for v in x]) + nl + "]"
    if t is dict:
        if not x:
            return "{}"
        inner = nl + "  "
        return "{" + inner + ("," + inner).join([
            _quote(k) + ": " + (_quote(v) if type(v) is str else int.__repr__(v)
                                if type(v) is int else _encode(v, inner, memo))
            for k, v in sorted(x.items())]) + nl + "}"
    if t is K or t is H:
        return x.json_text(nl, memo)
    if x is None or t is bool or t is float:
        return json.dumps(x)
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def load_class_file(path, rank):
    return class_from_dict(_load_json(path, "class"), rank)
