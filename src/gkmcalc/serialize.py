"""JSON input and output.

Graph files:  {"rank": n, "vertices": [{"id": ..., "psi": [...]}, ...],
               "edges": [[id, id], ...]?, "xi": [...]?}
with rationals written as integers or as "p/q" or plain decimal strings
(exponent notation is refused), and vertex ids as strings or as integers,
read as their decimal strings.

Class files:  {"mode": "ktheory"|"cohomology", "class": {vid: [[coeff, [e...]], ...]}}
with coefficients as decimal strings (K) or "p/q" strings (H) so any integer
width survives; the coefficient ring of the mode reads the terms, and each
value writes its own.  Basis files carry a map of vertex id to class under
"basis".  Emission is sorted everywhere, so emit / read / emit is
byte-stable.

``dumps`` writes exactly what ``json.dumps(data, indent=2, sort_keys=True)``
writes, in one pass over the values the commands emit: strs, ints, floats,
bools, None, lists, tuples and dicts with string keys (any other key raises
``TypeError``), the ring values ``K`` and ``H``, written as ``json`` would
write their JSON form, sorted [coefficient string, exponent array] pairs,
and the moment graph ``GKMGraph``, written as ``json`` would write the
dict of the ``graph`` command's JSON form.  Strings are quoted by
``json``'s own ASCII quoter; ``json`` itself would take its pure-Python
encoder, which ``indent`` forces.  A ring value writes itself from its
packed terms (``json_text``), which only ``symcore`` can decode, and a graph
field by field from its points and edges (``_graph_text``), so the writers
here and in the CLI hand ``dumps`` the values themselves and build no term
list or graph dict.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from .errors import ValidationError
from .gkm import GKMGraph, ToricInput, is_index_increasing
from .symcore import RINGS, H, K, _too_long, parse_exact, parse_int


def toric_input_from_dict(data):
    if not isinstance(data, dict):
        raise ValidationError("malformed graph file: not a JSON object")
    try:
        rank = parse_int(data["rank"])
        vertices = [(_vid(v["id"]), tuple(map(parse_exact, _array(v["psi"], "psi"))))
                    for v in _array(data["vertices"], "vertices")]
        edges = None
        if data.get("edges") is not None:
            edges = [(_vid(a), _vid(b)) for a, b in
                     (_array(e, "an edge") for e in _array(data["edges"], "edges"))]
        xi = None
        if data.get("xi") is not None:
            xi = tuple(parse_int(x) for x in _array(data["xi"], "xi"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed graph file: {exc}") from None
    return ToricInput(rank=rank, vertices=vertices, edges=edges, xi=xi)


def _array(x, what):
    """x, refused unless it is an array: a string or an object would be
    read entry by entry."""
    if not isinstance(x, (list, tuple)):
        raise TypeError(f"{what} is not an array: {x!r}")
    return x


def _vid(x):
    """A vertex id: a string, or an integer as its decimal string."""
    if type(x) is str:
        return x
    if type(x) is int:
        return str(x)
    raise TypeError(f"vertex id {x!r} is not a string or an integer")


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

def class_from_dict(data, rank):
    """The class of a class file's data and its mode.  The whole table is
    read in one pass (``from_table``); a table with an irregular value is
    read value by value in file order through the constructor, so the
    first bad value in the file gives the error."""
    if not isinstance(data, dict) or not isinstance(data.get("class"), dict):
        raise ValidationError("malformed class file: no \"class\" object")
    mode = data.get("mode", "ktheory")
    if not isinstance(mode, str) or mode not in RINGS:
        raise ValidationError(f"malformed class file: unknown mode {mode!r}")
    ring, table = RINGS[mode], data["class"]
    try:
        c = ring.from_table(rank, table)
        if c is None:
            c = {vid: ring.from_terms(rank, _array(items, f"the value at {vid}"))
                 for vid, items in table.items()}
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed class file: {exc}") from None
    return c, mode


def dumps(data):
    return _encode(data, "\n", {}) + "\n"


def _encode(x, nl, memo):
    """The JSON text of x, its lines after the first opening with ``nl``.
    ``memo`` holds what ring values keep under ``nl`` (``json_text``), for
    one call of ``dumps``."""
    t = type(x)
    if t is str:
        return _quote(x)
    if t is int:
        return int.__repr__(x)
    if t is list or t is tuple:
        if not x:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join([_encode(v, inner, memo) for v in x]) + nl + "]"
    if t is dict:
        if not x:
            return "{}"
        inner = nl + "  "
        return "{" + inner + ("," + inner).join([
            _quote(k) + ": " + _encode(v, inner, memo) for k, v in sorted(x.items())]) + nl + "}"
    if t is K or t is H:
        return x.json_text(nl, memo)
    if t is GKMGraph:
        try:
            return _graph_text(x, nl, memo)
        except ValueError:  # an int past the limit of int-to-str conversion
            raise _too_long("a number in the graph") from None
    if x is None or t is bool or t is float:
        return json.dumps(x)
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _graph_text(g, nl, memo):
    """The ``graph`` command's JSON form of g, sorted keys at every level:
    the edges (src, dst, weight, mult), whether the orientation is index
    increasing, the rank, the vertices (id, psi, mu, lambda, wplus) and
    xi, with ``mu``, ``mult`` and each ``psi`` entry as strings.  It is
    written straight from the points and edges.  Each vertex id is quoted
    once, and each edge label, which is also the weight in ``wplus`` at the
    edge's upper end, is written once at each of its two indentations.  The
    ``str`` of an int or Fraction is digits, a sign and a slash, so it is
    quoted without escaping."""
    i1 = nl + "  "
    i2 = i1 + "  "
    i3 = i2 + "  "
    i4 = i3 + "  "
    ids = {p.id: _quote(p.id) for p in g.points}
    sep = "," + i4
    at3 = {w: "[" + i4 + sep.join(map(int.__repr__, w)) + i3 + "]"
           for w in {e.weight for e in g.edges}}
    at4 = {w: text.replace("\n", "\n  ") for w, text in at3.items()}  # two spaces deeper
    both = '",' + i4 + '"'
    edges = [f'{{{i3}"dst": {ids[e.dst]},{i3}"mult": "{e.mult!s}",{i3}"src": {ids[e.src]},'
             f'{i3}"weight": {at3[e.weight]}{i2}}}' for e in g.edges]
    vertices = [
        f'{{{i3}"id": {ids[p.id]},{i3}"lambda": {p.lam},{i3}"mu": "{p.mu!s}",'
        f'{i3}"psi": [{i4}"{both.join(map(str, p.psi))}"{i3}],{i3}"wplus": '
        + ("[" + i4 + ("," + i4).join([at4[w] for w in p.wplus]) + i3 + "]"
           if p.wplus else "[]") + i2 + "}"
        for p in g.points]
    return (f'{{{i1}"edges": ' + ("[" + i2 + ("," + i2).join(edges) + i1 + "]" if edges else "[]")
            + f',{i1}"index_increasing": {"true" if is_index_increasing(g) else "false"},'
            f'{i1}"rank": {g.rank},{i1}"vertices": [{i2}' + ("," + i2).join(vertices)
            + f'{i1}],{i1}"xi": {_encode(g.xi, i1, memo)}{nl}}}')


def load_class_file(path, rank):
    return class_from_dict(_load_json(path, "class"), rank)
