"""JSON input and output.

Graph files:  {"rank": n, "vertices": [{"id": ..., "psi": [...]}, ...],
               "edges": [[id, id], ...]?, "xi": [...]?}
with rationals written either as integers or as "p/q" strings.

Class files:  {"mode": "ktheory"|"cohomology", "class": {vid: [[coeff, [e...]], ...]}}
with coefficients as decimal strings (K) or "p/q" strings (H) so any integer
width survives.  Basis files carry a map of vertex id to class under
"basis".  Emission is sorted everywhere, so emit / read / emit is
byte-stable.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import ValidationError
from .gkm import ToricInput
from .symcore import LaurentPoly, PolyH


def parse_rational(x):
    if isinstance(x, bool):
        raise ValidationError("booleans are not rationals")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"bad rational {x!r}") from None
    raise ValidationError(f"bad rational {x!r}")


def format_rational(f):
    f = Fraction(f)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def toric_input_from_dict(data):
    if not isinstance(data, dict):
        raise ValidationError("malformed graph file: not a JSON object")
    try:
        rank = int(data["rank"])
        vertices = [(str(v["id"]), tuple(parse_rational(x) for x in v["psi"]))
                    for v in data["vertices"]]
        edges = None
        if data.get("edges") is not None:
            edges = [(str(a), str(b)) for a, b in data["edges"]]
        xi = None
        if data.get("xi") is not None:
            xi = tuple(int(x) for x in data["xi"])
    except ValidationError:
        raise
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
# polynomial values

def poly_to_terms(p):
    if isinstance(p, LaurentPoly):
        return [[str(c), list(e)] for e, c in p.sorted_terms()]
    if isinstance(p, PolyH):
        return [[format_rational(c), list(e)] for e, c in p.sorted_terms()]
    raise TypeError("unsupported value type")


def laurent_from_terms(rank, items):
    terms = {}
    for c, e in items:
        terms[tuple(int(x) for x in e)] = int(str(c))
    return LaurentPoly(rank, terms)


def polyh_from_terms(rank, items):
    terms = {}
    for c, e in items:
        terms[tuple(int(x) for x in e)] = parse_rational(c)
    return PolyH(rank, terms)


def class_to_dict(c, mode):
    return {
        "mode": mode,
        "class": {vid: poly_to_terms(val) for vid, val in sorted(c.items())},
    }


def class_from_dict(data, rank):
    if not isinstance(data, dict) or not isinstance(data.get("class"), dict):
        raise ValidationError("malformed class file: no \"class\" object")
    mode = data.get("mode", "ktheory")
    loader = laurent_from_terms if mode == "ktheory" else polyh_from_terms
    try:
        return {vid: loader(rank, items) for vid, items in data["class"].items()}, mode
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed class file: {exc}") from None


def basis_to_dict(basis, mode):
    return {
        "mode": mode,
        "basis": {
            vid: {q: poly_to_terms(val) for q, val in sorted(c.items())}
            for vid, c in sorted(basis.items())
        },
    }


def basis_from_dict(data, rank):
    mode = data.get("mode", "ktheory")
    loader = laurent_from_terms if mode == "ktheory" else polyh_from_terms
    basis = {}
    for vid, tbl in data["basis"].items():
        basis[vid] = {q: loader(rank, items) for q, items in tbl.items()}
    return basis, mode


def dumps(data):
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def load_class_file(path, rank):
    return class_from_dict(_load_json(path, "class"), rank)
