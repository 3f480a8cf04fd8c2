"""Command line front end.

Exit codes: 0 ok, 2 validation error, 3 arithmetic contract violation,
4 i/o error.  Output is deterministic: vertices in increasing moment order,
monomials in lexicographic exponent order.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import classes as cl
from . import cohomology as ch
from .errors import ContractError, ValidationError
from .fixtures import (
    fixture_input,
    fixture_names,
    hirzebruch_sample_class,
    square_reference_class,
)
from .gkm import build_graph, flow_face, index_violations, is_index_increasing, upward_closure
from .kirwan import kirwan_restrict_all, reduced_fixed_data
from .serialize import basis_to_dict, dumps, load_class_file, load_toric_input
from .symcore import RINGS, H, K


# ---------------------------------------------------------------------------
# output

def emit_class(ring, g, name, c, lines):
    lines.append(f"class {name}")
    for vid in g.vids():
        lines.append(f"  {vid}: {ring.fmt(c[vid])}")


def emit_value(args, out, ring, data, value):
    """One ring value, in JSON under "value" next to ``data`` or as text."""
    if args.format == "json":
        out.write(dumps({**data, "value": ring.to_terms(value)}))
    else:
        out.write(ring.fmt(value) + "\n")
    return 0


# ---------------------------------------------------------------------------
# shared option handling

def load_graph(args):
    if args.fixture:
        inp = fixture_input(args.fixture)
    elif args.input:
        inp = load_toric_input(args.input)
    else:
        raise ValidationError("need --fixture or --input")
    if args.xi is not None:
        inp.xi = int_vector(args.xi, "--xi")
    return build_graph(inp)


def int_vector(text, flag):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValidationError(
            f"{flag} must be comma separated integers, got {text!r}") from None


def resolve_class(g, spec, ring):
    """Named classes: one, tau:<v>, pd:<v>, point:<v>, gt:<v>, sample;
    anything ending in .json is read as a class file."""
    if spec is None:
        raise ValidationError("need --class")
    if spec.endswith(".json"):
        c, file_mode = load_class_file(spec, g.rank)
        if file_mode != ring.name:
            raise ValidationError(f"class file is {file_mode}, requested {ring.name}")
        missing = [vid for vid in g.vids() if vid not in c]
        if missing:
            raise ValidationError(f"class file has no value at vertex {missing[0]}")
        return c
    name = spec.strip()
    if name == "one":
        return cl.one_class(ring, g)
    if name == "sample":
        if ring is not K:
            raise ValidationError("the sample trapezoid class is a K class")
        return hirzebruch_sample_class(g)
    if ":" in name:
        kind, vid = name.split(":", 1)
        vid = _resolve_vid(g, vid)
        if kind == "tau":
            return cl.canonical_class(ring, g, vid)
        if kind == "pd":
            return cl.poincare_dual(ring, g, vid)
        if kind == "point":
            if ring is not K:
                raise ValidationError("point normalization is a K-side construction")
            return cl.canonical_class(ring, g, vid, "point")
        if kind == "gt":
            if ring is not H:
                raise ValidationError("path-sum classes live in cohomology")
            return ch.gt_class(g, vid)
    raise ValidationError(f"unknown class {spec!r}")


def _resolve_vid(g, vid):
    if vid in g.vids():
        return vid
    try:
        return g.vids()[int(vid)]
    except (ValueError, IndexError):
        raise ValidationError(f"unknown vertex {vid!r}") from None


# ---------------------------------------------------------------------------
# commands

def cmd_graph(args, out):
    g = load_graph(args)
    if args.format == "json":
        data = {
            "rank": g.rank,
            "xi": list(g.xi),
            "vertices": [
                {
                    "id": p.id,
                    "psi": [str(x) for x in p.psi],
                    "mu": str(p.mu),
                    "lambda": p.lam,
                    "wplus": [list(w) for w in p.wplus],
                }
                for p in g.points
            ],
            "edges": [
                {"src": e.src, "dst": e.dst, "weight": list(e.weight), "mult": str(e.mult)}
                for e in g.edges
            ],
            "index_increasing": is_index_increasing(g),
        }
        out.write(dumps(data))
        return 0
    out.write(f"rank {g.rank}, xi = ({','.join(map(str, g.xi))})\n")
    for p in g.points:
        psi = ",".join(str(x) for x in p.psi)
        out.write(f"vertex {p.id}: psi=({psi}) mu={p.mu} lambda={p.lam}\n")
    for e in g.edges:
        out.write(f"edge {e.src} -> {e.dst}: weight=({','.join(map(str, e.weight))})"
                  f" mult={e.mult}\n")
    ii = is_index_increasing(g)
    out.write(f"index increasing: {'yes' if ii else 'no'}\n")
    for e in index_violations(g):
        out.write(f"  violated on {e.src} -> {e.dst}\n")
    return 0


def cmd_check(args, out):
    g = load_graph(args)
    if args.klass is not None:
        ring = RINGS[args.mode]
        bad = cl.check_gkm(ring, g, resolve_class(g, args.klass, ring))
        if bad:
            edge = bad[0][0]
            raise ValidationError(f"divisibility fails on {edge.src}->{edge.dst}")
    out.write("ok\n")
    return 0


def cmd_basis(args, out):
    g = load_graph(args)
    basis = cl.basis(RINGS[args.mode], g, args.normalization)
    return _emit_basis(args, out, g, basis, "tau")


def cmd_pd(args, out):
    g = load_graph(args)
    ring = RINGS[args.mode]
    basis = {p: cl.poincare_dual(ring, g, p) for p in g.vids()}
    return _emit_basis(args, out, g, basis, "pd")


def cmd_gt(args, out):
    g = load_graph(args)
    basis = ch.gt_basis(g)
    return _emit_basis(args, out, g, basis, "gt")


def _emit_basis(args, out, g, basis, label):
    mode = getattr(args, "mode", "cohomology")
    if args.format == "json":
        out.write(dumps(basis_to_dict(basis, mode)))
        return 0
    lines = []
    for vid in g.vids():
        emit_class(RINGS[mode], g, f"{label}:{vid}", basis[vid], lines)
    out.write("\n".join(lines) + "\n")
    return 0


def cmd_local_index(args, out):
    g = load_graph(args)
    ring = RINGS[args.mode]
    c = resolve_class(g, args.klass, ring)
    vid = _resolve_vid(g, args.vertex)
    return emit_value(args, out, ring, {"vertex": vid}, cl.local_index(ring, g, c, vid))


def cmd_index(args, out):
    g = load_graph(args)
    ring = RINGS[args.mode]
    c = resolve_class(g, args.klass, ring)
    return emit_value(args, out, ring, {}, cl.pushforward(ring, g, c))


def cmd_structure(args, out):
    g = load_graph(args)
    ring = RINGS[args.mode]
    table = cl.structure_constants(ring, g, cl.basis(ring, g))
    if args.format == "json":
        data = {f"{p}*{q}->{r}": ring.to_terms(f) for (p, q, r), f in sorted(table.items())}
        out.write(dumps(data))
        return 0
    for (p, q, r), f in sorted(table.items()):
        out.write(f"{p} * {q} -> {r}: {ring.fmt(f)}\n")
    return 0


def cmd_kirwan(args, out):
    g = load_graph(args)
    if not args.pi:
        raise ValidationError("need --pi")
    pi = int_vector(args.pi, "--pi")
    setup = reduced_fixed_data(g, pi)
    if args.klass is not None:
        c = resolve_class(g, args.klass, H)
    elif args.fixture == "square":
        c = square_reference_class(g)
    else:
        c = cl.one_class(H, g)
    vals = kirwan_restrict_all(setup, c)
    if args.format == "json":
        data = {
            "top": setup.top,
            "points": [
                {
                    "id": p.id,
                    "source": p.source,
                    "edge_weight": list(p.edge_weight),
                    "residual": [list(w) for w in p.residual],
                    "value": H.to_terms(vals[p.id]),
                }
                for p in setup.points
            ],
        }
        out.write(dumps(data))
        return 0
    out.write(f"top vertex: {setup.top}\n")
    for p in setup.points:
        out.write(f"{p.id} (edge {p.source} -> {setup.top}): {H.fmt(vals[p.id])}\n")
    return 0


# ---------------------------------------------------------------------------
# verification matrix

def _verify_checks(g, full):
    from fractions import Fraction

    checks = []

    def add(name, fn):
        try:
            verdict = "PASS" if fn() else "FAIL"
        except Exception as exc:
            verdict = f"FAIL ({type(exc).__name__}: {exc})"
        checks.append((name, verdict))

    vids = g.vids()
    increasing = is_index_increasing(g)
    add("unique minimum", lambda: [g.point(v).lam for v in vids].count(0) == 1)
    add("unique maximum", lambda: [g.point(v).lam for v in vids].count(g.rank) == 1)
    add("flow-up inside upward closure",
        lambda: all(flow_face(g, p) <= set(upward_closure(g, p)) for p in vids))
    if increasing:
        add("flow-up equals upward closure",
            lambda: all(flow_face(g, p) == set(upward_closure(g, p)) for p in vids))

    etas = {p: cl.poincare_dual(K, g, p) for p in vids}
    add("duals satisfy divisibility",
        lambda: all(not cl.check_gkm(K, g, etas[p]) for p in vids))
    add("duals are Kirwan classes",
        lambda: all(cl.is_kirwan_class(K, g, etas[p], p) for p in vids))

    taus = cl.basis(K, g)
    add("canonical classes satisfy divisibility",
        lambda: all(not cl.check_gkm(K, g, taus[p]) for p in vids))
    add("canonical class at the minimum is 1",
        lambda: cl.class_equal(taus[vids[0]], cl.one_class(K, g)))

    def index_profile(ring, classes, face_of):
        """Local index 1 on face_of(p) and 0 elsewhere, for each class."""
        for p in vids:
            face = face_of(p)
            for q in vids:
                want = ring.one(g.rank) if q in face else ring.zero(g.rank)
                if cl.local_index(ring, g, classes[p], q) != want:
                    return False
        return True
    add("canonical index profile",
        lambda: index_profile(K, taus, lambda p: flow_face(g, p)))

    add("push-forward of 1 equals 1",
        lambda: cl.pushforward(K, g, cl.one_class(K, g)) == K.one(g.rank))
    add("integral of 1 vanishes",
        lambda: cl.pushforward(H, g, cl.one_class(H, g)) == H.zero(g.rank))

    # Theta belongs to the path-sum construction, which needs an index
    # increasing orientation; elsewhere a connection may carry an incoming
    # weight to an outgoing one, and the projected factors need not divide
    if increasing:
        add("jump-one ratios are 1",
            lambda: all(ch.theta(g, e) == Fraction(1) for e in ch.ecan_edges(g)))

    hbasis = {p: cl.poincare_dual(H, g, p) for p in vids}
    add("cohomology duals satisfy divisibility",
        lambda: all(not cl.check_gkm(H, g, hbasis[p]) for p in vids))

    if full:
        def triangular():
            for p in vids:
                coeffs = cl.expand_in_basis(K, g, etas, taus[p])
                if coeffs.get(p) != K.one(g.rank):
                    return False
                for r, f in coeffs.items():
                    if g.order_index(r) < g.order_index(p) and not f.is_zero():
                        return False
            return True
        add("triangular change of basis", triangular)

        add("cohomology duals pass index conditions",
            lambda: index_profile(H, hbasis, lambda p: {p}))

        if increasing:
            def gt_match():
                zetas = ch.gt_basis(g)
                return all(cl.class_equal(zetas[p], hbasis[p]) for p in vids)
            add("path-sum classes equal duals", gt_match)

        def structure_ok():
            table = cl.structure_constants(K, g, taus)
            for i, p in enumerate(vids):
                for q in vids[i:]:
                    prod = cl.class_mul(taus[p], taus[q])
                    acc = cl.zero_class(K, g)
                    for r in vids:
                        f = table.get((p, q, r))
                        if f is not None:
                            acc = cl.class_add(acc, cl.class_scale(taus[r], f))
                    if not cl.class_equal(acc, prod):
                        return False
            return True
        add("structure constants recombine", structure_ok)

    return checks


def cmd_verify(args, out):
    g = load_graph(args)
    checks = _verify_checks(g, full=(args.level == "full"))
    width = max(len(n) for n, _ in checks)
    for name, verdict in checks:
        out.write(f"{name.ljust(width)}  {verdict}\n")
    if any(verdict != "PASS" for _, verdict in checks):
        raise ValidationError("verification failed")
    return 0


# ---------------------------------------------------------------------------
# parser

@functools.cache
def make_parser():
    """The argument parser, built once per process: ``parse_args`` returns a
    new namespace per call and no option has a mutable default."""
    parser = argparse.ArgumentParser(
        prog="gkmcalc",
        description="Canonical bases for equivariant K-theory and cohomology "
                    "of toric manifolds from moment polytope data.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mode=True):
        p.add_argument("--fixture", help="one of: " + ", ".join(fixture_names()))
        p.add_argument("--input", help="graph JSON file")
        p.add_argument("--xi", help="comma separated direction vector")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write output to a file")
        if mode:
            p.add_argument("--mode", choices=("ktheory", "cohomology"),
                           default="ktheory")

    p = sub.add_parser("graph", help="build, orient and report the moment graph")
    common(p, mode=False)
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("check", help="validate input and optionally a class")
    common(p)
    p.add_argument("--class", dest="klass")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("basis", help="canonical basis in the chosen mode")
    common(p)
    p.add_argument("--normalization", choices=("canonical", "point"),
                   default="canonical")
    p.set_defaults(fn=cmd_basis)

    p = sub.add_parser("pd", help="duals of the flow-up faces")
    common(p)
    p.set_defaults(fn=cmd_pd)

    p = sub.add_parser("gt", help="path-sum basis (cohomology, index increasing)")
    common(p, mode=False)
    p.set_defaults(fn=cmd_gt)

    p = sub.add_parser("local-index", help="local index of a class at a vertex")
    common(p)
    p.add_argument("--class", dest="klass", required=True)
    p.add_argument("--vertex", required=True)
    p.set_defaults(fn=cmd_local_index)

    p = sub.add_parser("index", help="global push-forward / integral")
    common(p)
    p.add_argument("--class", dest="klass", required=True)
    p.set_defaults(fn=cmd_index)

    p = sub.add_parser("structure", help="structure constants of the canonical basis")
    common(p)
    p.set_defaults(fn=cmd_structure)

    p = sub.add_parser("kirwan", help="reduced restrictions near the top vertex")
    common(p, mode=False)
    p.add_argument("--pi", required=True, help="comma separated covector")
    p.add_argument("--class", dest="klass")
    p.set_defaults(fn=cmd_kirwan)

    p = sub.add_parser("verify", help="run the invariant matrix on a fixture")
    common(p, mode=False)
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if args.out is not None:
            with open(args.out, "w") as fh:
                return args.fn(args, fh)
        return args.fn(args, sys.stdout)
    except ValidationError as exc:
        print(json.dumps({"error": "validation", "message": str(exc)}),
              file=sys.stderr)
        return 2
    except ContractError as exc:
        print(json.dumps({"error": "contract", "message": str(exc)}),
              file=sys.stderr)
        return 3
    except OSError as exc:
        print(json.dumps({"error": "io", "message": str(exc)}), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
