"""Command line front end.

Every command runs through ``main``: it parses the arguments, builds the
moment graph, picks the coefficient ring and calls the command with both
and an in-memory buffer, whose text it then writes once.
Exit codes: 0 ok, 2 validation error, 3 arithmetic contract violation,
4 i/o error.  Output is deterministic: vertices in increasing moment order,
monomials in lexicographic exponent order.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys

from . import classes as cl
from . import cohomology as ch
from .errors import ContractError, ValidationError
from .fixtures import (
    fixture_input,
    fixture_key,
    fixture_names,
    hirzebruch_sample_class,
    square_reference_class,
)
from .gkm import build_graph, flow_face, index_violations, is_index_increasing, upward_closure
from .kirwan import kirwan_restrict_all, reduced_fixed_data
from .serialize import dumps, load_class_file, load_toric_input
from .symcore import RINGS, H, K, _too_long


# ---------------------------------------------------------------------------
# output

def emit_value(args, out, ring, data, value):
    """One ring value, in JSON under "value" next to ``data`` or as text."""
    if args.format == "json":
        out.write(dumps({**data, "value": value}))
    else:
        out.write(ring.fmt(value) + "\n")


# ---------------------------------------------------------------------------
# shared option handling

def load_graph(args):
    """The graph of ``--fixture`` or ``--input``, of which the parser lets
    through exactly one."""
    inp = fixture_input(args.fixture) if args.input is None else load_toric_input(args.input)
    if args.xi is not None:
        inp = inp._replace(xi=int_vector(args.xi, "--xi"))
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
    if spec.endswith(".json"):
        c, file_mode = load_class_file(spec, g.rank)
        if file_mode != ring.name:
            raise ValidationError(f"class file is {file_mode}, requested {ring.name}")
        missing = [vid for vid in g.vids() if vid not in c]
        if missing:
            raise ValidationError(f"class file has no value at vertex {missing[0]}")
        unknown = [vid for vid in c if vid not in g.adjacency]
        if unknown:
            raise ValidationError(f"class file has a value at unknown vertex {unknown[0]}")
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
            return cl.basis(ring, g, vids=[vid])[vid]
        if kind == "pd":
            return cl.poincare_dual(ring, g, vid)
        if kind == "point":
            if ring is not K:
                raise ValidationError("point normalization is a K-side construction")
            return cl.basis(ring, g, "point", [vid])[vid]
        if kind == "gt":
            if ring is not H:
                raise ValidationError("path-sum classes live in cohomology")
            ch.require_index_increasing(g)
            return cl.poincare_dual(H, g, vid)
    raise ValidationError(f"unknown class {spec!r}")


def _resolve_vid(g, vid):
    """A vertex id, or a position 0 to V - 1 in the moment order."""
    vids = g.vids()
    if vid in vids:
        return vid
    try:
        pos = int(vid)
    except ValueError:
        pos = -1
    if not 0 <= pos < len(vids):
        raise ValidationError(f"unknown vertex {vid!r}")
    return vids[pos]


# ---------------------------------------------------------------------------
# commands

def cmd_graph(args, out, g, ring):
    if args.format == "json":
        out.write(dumps(g))
        return
    # the whole text is formatted before the first write, so a number past
    # the limit of int-to-str conversion leaves nothing partial behind
    try:
        lines = [f"rank {g.rank}, xi = ({','.join(map(str, g.xi))})"]
        for p in g.points:
            psi = ",".join(str(x) for x in p.psi)
            lines.append(f"vertex {p.id}: psi=({psi}) mu={p.mu} lambda={p.lam}")
        for e in g.edges:
            lines.append(f"edge {e.src} -> {e.dst}: weight=({','.join(map(str, e.weight))})"
                         f" mult={e.mult}")
    except ValueError:
        raise _too_long("a number in the graph") from None
    bad = index_violations(g)
    lines.append(f"index increasing: {'no' if bad else 'yes'}")
    lines += [f"  violated on {e.src} -> {e.dst}" for e in bad]
    out.write("\n".join(lines) + "\n")


def cmd_check(args, out, g, ring):
    if args.klass is not None:
        edge = cl.check_gkm(ring, g, resolve_class(g, args.klass, ring))
        if edge is not None:
            raise ValidationError(f"divisibility fails on {edge.src}->{edge.dst}")
    out.write("ok\n")


def cmd_basis(args, out, g, ring):
    _emit_basis(args, out, g, ring, cl.basis(ring, g, args.normalization), "tau")


def cmd_pd(args, out, g, ring):
    _emit_basis(args, out, g, ring, {p: cl.poincare_dual(ring, g, p) for p in g.vids()}, "pd")


def cmd_gt(args, out, g, ring):
    """The path-sum basis, built as the flow-up duals it equals."""
    ch.require_index_increasing(g)
    _emit_basis(args, out, g, ring, cl.basis(ring, g), "gt")


def _emit_basis(args, out, g, ring, basis, label):
    if args.format == "json":
        out.write(dumps({"mode": ring.name, "basis": basis}))
        return
    vids = g.vids()
    lines = []
    for p in vids:
        lines.append(f"class {label}:{p}")
        lines += [f"  {q}: {ring.fmt(basis[p][q])}" for q in vids]
    out.write("\n".join(lines) + "\n")


def cmd_local_index(args, out, g, ring):
    c = resolve_class(g, args.klass, ring)
    vid = _resolve_vid(g, args.vertex)
    emit_value(args, out, ring, {"vertex": vid}, cl.local_index(ring, g, c, vid))


def cmd_index(args, out, g, ring):
    c = resolve_class(g, args.klass, ring)
    emit_value(args, out, ring, {}, cl.pushforward(ring, g, c))


def cmd_structure(args, out, g, ring):
    table = cl.structure_constants(ring, g, cl.basis(ring, g))
    if args.format == "json":
        out.write(dumps({f"{p}*{q}->{r}": f for (p, q, r), f in sorted(table.items())}))
        return
    out.write("".join([f"{p} * {q} -> {r}: {ring.fmt(f)}\n"
                       for (p, q, r), f in sorted(table.items())]))


def cmd_kirwan(args, out, g, ring):
    pi = int_vector(args.pi, "--pi")
    setup = reduced_fixed_data(g, pi)
    if args.klass is not None:
        c = resolve_class(g, args.klass, ring)
    elif args.fixture and fixture_key(args.fixture) == "square":
        c = square_reference_class(g)
    else:
        c = cl.one_class(ring, g)
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
                    "value": vals[p.id],
                }
                for p in setup.points
            ],
        }
        out.write(dumps(data))
        return
    out.write("".join([f"top vertex: {setup.top}\n"] + [
        f"{p.id} (edge {p.source} -> {setup.top}): {ring.fmt(vals[p.id])}\n"
        for p in setup.points]))


# ---------------------------------------------------------------------------
# verification matrix

def _verify_checks(g, full):
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
        lambda: all(cl.check_gkm(K, g, etas[p]) is None for p in vids))
    add("duals are Kirwan classes",
        lambda: all(cl.is_kirwan_class(K, g, etas[p], p) for p in vids))

    taus = cl.basis(K, g)
    add("canonical classes satisfy divisibility",
        lambda: all(cl.check_gkm(K, g, taus[p]) is None for p in vids))
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
            lambda: all(ch.theta(g, e) == 1 for e in ch.ecan_edges(g)))

    hbasis = {p: cl.poincare_dual(H, g, p) for p in vids}
    add("cohomology duals satisfy divisibility",
        lambda: all(cl.check_gkm(H, g, hbasis[p]) is None for p in vids))

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


def cmd_verify(args, out, g, ring):
    checks = _verify_checks(g, full=(args.level == "full"))
    width = max(len(n) for n, _ in checks)
    for name, verdict in checks:
        out.write(f"{name.ljust(width)}  {verdict}\n")
    if any(verdict != "PASS" for _, verdict in checks):
        raise ValidationError("verification failed")


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ``ValidationError``, so
    they end, like every other refused input, in one JSON line and exit 2;
    the subcommand parsers are of this class too."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


@functools.cache
def make_parser():
    """The argument parser, built once per process: ``parse_args`` returns a
    new namespace per call and no option has a mutable default.  Each
    command's parser is also kept in ``parser.commands`` under its name."""
    parser = _Parser(
        prog="gkmcalc",
        description="Canonical bases for equivariant K-theory and cohomology "
                    "of toric manifolds from moment polytope data.")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}

    def command(name, fn, summary):
        p = parser.commands[name] = sub.add_parser(name, help=summary)
        p.set_defaults(fn=fn)
        return p

    def common(p, mode=True):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--fixture", help="one of: " + ", ".join(fixture_names()))
        source.add_argument("--input", help="graph JSON file")
        p.add_argument("--xi", help="comma separated direction vector")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write output to a file")
        if mode:
            p.add_argument("--mode", choices=("ktheory", "cohomology"),
                           default="ktheory")

    p = command("graph", cmd_graph, "build, orient and report the moment graph")
    common(p, mode=False)

    p = command("check", cmd_check, "validate input and optionally a class")
    common(p)
    p.add_argument("--class", dest="klass")

    p = command("basis", cmd_basis, "canonical basis in the chosen mode")
    common(p)
    p.add_argument("--normalization", choices=("canonical", "point"),
                   default="canonical")

    p = command("pd", cmd_pd, "duals of the flow-up faces")
    common(p)

    p = command("gt", cmd_gt, "path-sum basis (cohomology, index increasing)")
    common(p, mode=False)

    p = command("local-index", cmd_local_index, "local index of a class at a vertex")
    common(p)
    p.add_argument("--class", dest="klass", required=True)
    p.add_argument("--vertex", required=True)

    p = command("index", cmd_index, "global push-forward / integral")
    common(p)
    p.add_argument("--class", dest="klass", required=True)

    p = command("structure", cmd_structure, "structure constants of the canonical basis")
    common(p)

    p = command("kirwan", cmd_kirwan, "reduced restrictions near the top vertex")
    common(p, mode=False)
    p.add_argument("--pi", required=True, help="comma separated covector")
    p.add_argument("--class", dest="klass")

    p = command("verify", cmd_verify, "run the invariant matrix on a fixture")
    common(p, mode=False)
    p.add_argument("--level", choices=("fast", "full"), default="fast")

    return parser


def parse_args(argv):
    """The namespace ``make_parser().parse_args(argv)`` returns, parsed by
    the command's own parser when ``argv[0]`` names one: the whole parser
    would hand it everything after the name anyway.  Leftover tokens are
    refused by the whole parser, as it would refuse them.  A vector after
    ``--xi`` or ``--pi`` that opens with a minus sign is its value, as in
    ``--xi=-1,-2``: argparse would read ``-1,-2`` as an option."""
    argv = list(argv)
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] in ("--xi", "--pi") and argv[i + 1][:1] == "-" and argv[i + 1][1:2].isdigit():
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    parser = make_parser()
    cmd = parser.commands.get(argv[0]) if argv else None
    if cmd is None:
        return parser.parse_args(argv)
    args, extra = cmd.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def main(argv=None):
    """Run one command; its output is collected and written once, to stdout
    or to ``--out``, also when the command fails after writing (``verify``
    reports before it raises).  A command that writes nothing leaves an
    existing ``--out`` file as it was."""
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        g = load_graph(args)
        # gt and kirwan work in H; graph and verify take no ring
        ring = RINGS[args.mode] if "mode" in args else H
        out = io.StringIO()
        try:
            args.fn(args, out, g, ring)
        finally:
            if args.out is None:
                sys.stdout.write(out.getvalue())
            elif out.tell():  # the command wrote
                with open(args.out, "w") as fh:
                    fh.write(out.getvalue())
        return 0
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
