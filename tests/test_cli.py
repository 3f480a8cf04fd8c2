"""Front end: subcommands, formats, exit codes, round trips."""

import copy
import io
import json
import time
from fractions import Fraction

import pytest

from gkmcalc import classes as cl
from gkmcalc import cohomology
from gkmcalc.cli import main, make_parser
from gkmcalc.errors import NonConstantQuotient, ValidationError
from gkmcalc.serialize import (
    basis_from_dict,
    basis_to_dict,
    class_from_dict,
    class_to_dict,
    dumps,
    parse_rational,
    toric_input_from_dict,
)
from gkmcalc.gkm import build_graph
from gkmcalc.symcore import K

from conftest import rng


def run_cli(args, capsys):
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


GOLDEN_TRIANGLE_BASIS = """\
class tau:p0
  p0: 1
  p1: 1
  p2: 1
class tau:p1
  p0: 0
  p1: 1 - e[1,0]
  p2: 1 - e[0,1]
class tau:p2
  p0: 0
  p1: 0
  p2: -e[-1,1] + e[-1,2] + 1 - e[0,1]
"""


def test_basis_text_golden(capsys):
    rc, out, _ = run_cli(["basis", "--fixture", "cp2", "--mode", "ktheory"], capsys)
    assert rc == 0
    assert out == GOLDEN_TRIANGLE_BASIS


def test_index_of_one(capsys):
    rc, out, _ = run_cli(["index", "--fixture", "cp2", "--class", "one"], capsys)
    assert rc == 0
    assert out.strip() == "1"


def test_local_index_sample_class(capsys):
    rc, out, _ = run_cli(
        ["local-index", "--fixture", "hirzebruch", "--class", "sample",
         "--vertex", "p2"], capsys)
    assert rc == 0
    assert out.strip() == "0"


def test_local_index_canonical_class(capsys):
    rc, out, _ = run_cli(
        ["local-index", "--fixture", "hirzebruch", "--class", "tau:p1",
         "--vertex", "p2"], capsys)
    assert rc == 0
    assert out.strip() == "1"


def test_graph_report(capsys):
    rc, out, _ = run_cli(["graph", "--fixture", "hirzebruch"], capsys)
    assert rc == 0
    assert "index increasing: no" in out
    assert "violated on p1 -> p2" in out


def test_kirwan_square(capsys):
    rc, out, _ = run_cli(["kirwan", "--fixture", "square", "--pi", "1,1"], capsys)
    assert rc == 0
    assert "top vertex: q0" in out


def test_structure_table(capsys):
    rc, out, _ = run_cli(["structure", "--fixture", "cp2"], capsys)
    assert rc == 0
    assert "p1 * p1 -> p2: e[1,0]" in out


def test_gt_command(capsys):
    rc, out, _ = run_cli(["gt", "--fixture", "cp2"], capsys)
    assert rc == 0
    assert "class gt:p1" in out


def test_verify_fast(capsys):
    for fixture in ("cp1", "cp2", "hirzebruch"):
        rc, out, _ = run_cli(["verify", "--fixture", fixture], capsys)
        assert rc == 0
        assert "FAIL" not in out


def test_verify_full(capsys):
    rc, out, _ = run_cli(["verify", "--fixture", "cp2", "--level", "full"], capsys)
    assert rc == 0
    assert "FAIL" not in out


# the unit cube with the corner (0,0,1) cut off at lattice distance 1/3: a
# Delzant polytope whose orientation is not index increasing
CUT_CUBE = {"rank": 3, "vertices": [
    {"id": f"v{i}", "psi": psi} for i, psi in enumerate(
        [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1) if (x, y, z) != (0, 0, 1)]
        + [[0, 0, "2/3"], ["1/3", 0, 1], [0, "1/3", 1]])]}


def test_verify_full_passes_on_a_cut_cube(tmp_path, capsys):
    # the jump-one ratio belongs to the path sums, which need an index
    # increasing orientation; here it used to fail on a connection that
    # carries an incoming weight to an outgoing one
    rc, out, _ = run_cli(["verify", "--input", _write(tmp_path, "cut.json", CUT_CUBE),
                          "--level", "full"], capsys)
    assert rc == 0
    assert "FAIL" not in out and "jump-one ratios" not in out


def test_verify_names_the_exception_behind_a_fail(capsys, monkeypatch):
    def broken_theta(g, edge):
        raise NonConstantQuotient("no ratio here")

    monkeypatch.setattr(cohomology, "theta", broken_theta)
    rc, out, err = run_cli(["verify", "--fixture", "cp2"], capsys)
    assert rc == 2
    assert "jump-one ratios are 1" in out
    assert "FAIL (NonConstantQuotient: no ratio here)" in out
    assert "unique minimum" in out and out.count("FAIL") == 1
    assert json.loads(err)["error"] == "validation"


def test_fractional_theta_makes_gt_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(cohomology, "theta", lambda g, edge: Fraction(1, 2))
    rc, out, err = run_cli(["gt", "--fixture", "cp2"], capsys)
    assert rc == 3
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "contract"


# ---------------------------------------------------------------------------
# exit codes

def test_unknown_fixture_is_validation_error(capsys):
    rc, _, err = run_cli(["graph", "--fixture", "nope"], capsys)
    assert rc == 2
    assert json.loads(err)["error"] == "validation"


def test_bad_direction_is_validation_error(capsys):
    rc, _, err = run_cli(["graph", "--fixture", "cp2", "--xi", "1,1"], capsys)
    assert rc == 2


def test_non_class_index_is_contract_error(tmp_path, capsys):
    bad = {"mode": "ktheory",
           "class": {"p0": [], "p1": [["1", [0, 0]]], "p2": []}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    rc, _, err = run_cli(
        ["index", "--fixture", "cp2", "--class", str(path)], capsys)
    assert rc == 3
    assert json.loads(err)["error"] == "contract"


def test_missing_file_is_io_error(capsys):
    rc, _, err = run_cli(
        ["graph", "--input", "/nonexistent/graph.json"], capsys)
    assert rc == 4


def test_empty_out_path_is_io_error(capsys):
    rc, out, err = run_cli(["index", "--fixture", "cp2", "--class", "one", "--out", ""],
                           capsys)
    assert rc == 4
    assert out == ""
    _assert_clean_exit(rc, err)


TRIANGLE = {
    "rank": 2,
    "vertices": [{"id": "a", "psi": [0, 0]}, {"id": "b", "psi": [1, 0]},
                 {"id": "c", "psi": ["0", "1"]}],
    "edges": [["a", "b"], ["a", "c"], ["b", "c"]],
    "xi": [1, 2],
}
TRIANGLE_ONE = {
    "ktheory": {"mode": "ktheory",
                "class": {v: [["1", [0, 0]]] for v in "abc"}},
    "cohomology": {"mode": "cohomology",
                   "class": {v: [["1/2", [1, 0]], ["1", [0, 1]]] for v in "abc"}},
}


def _write(tmp_path, name, data):
    """Write a str as raw text and anything else as JSON."""
    path = tmp_path / name
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


def _assert_clean_exit(rc, err):
    assert rc in (0, 2, 3, 4)
    if rc:
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert json.loads(lines[0])["error"] in ("validation", "contract", "io")


@pytest.mark.parametrize("graph, klass, flags, message", [
    ({**TRIANGLE, "xi": ["x", 1]}, None, [], "malformed graph file"),
    ({**TRIANGLE, "edges": [["a"]]}, None, [], "malformed graph file"),
    ("{", None, [], "graph file is not JSON"),
    (TRIANGLE, None, ["--xi", "1,a"], "--xi must be comma separated integers"),
    (TRIANGLE, "{", ["--class"], "class file is not JSON"),
    (TRIANGLE, {"mode": "ktheory", "class": {"a": [["1", [0, 0]]]}}, ["--class"],
     "no value at vertex b"),
    ({**TRIANGLE, "rank": 2.7}, None, [], "bad integer 2.7"),
    ({**TRIANGLE, "rank": True}, None, [], "bad integer True"),
    ({**TRIANGLE, "xi": [1.9, 2.2]}, None, [], "bad integer 1.9"),
    (TRIANGLE, {"mode": "ktheory", "class": {v: [["1", [0.9, 0]]] for v in "abc"}},
     ["--class"], "bad integer 0.9"),
    (TRIANGLE, {"mode": "ktheory", "class": {v: [["1", [True, 0]]] for v in "abc"}},
     ["--class"], "bad integer True"),
    (TRIANGLE, None, ["--xi", ""], "--xi must be comma separated integers, got ''"),
    (TRIANGLE, None, ["check", "--class", ""], "unknown class ''"),
    (TRIANGLE, None, ["kirwan", "--pi", "1,0", "--class", ""], "unknown class ''"),
    (TRIANGLE, {"mode": "ktheory", "class": {v: [["1", [2 ** 62, 0]]] for v in "abc"}},
     ["--class"], "outside the supported range"),
])
def test_malformed_inputs_are_validation_errors(tmp_path, capsys, graph, klass, flags,
                                                message):
    # the command is index with a class file, graph without, unless flags name it
    command = "index" if klass else "graph"
    if flags and not flags[0].startswith("--"):
        command, flags = flags[0], flags[1:]
    argv = [command, "--input", _write(tmp_path, "g.json", graph)]
    if klass:
        flags = flags + [_write(tmp_path, "c.json", klass)]
    rc, _, err = run_cli(argv + flags, capsys)
    assert rc == 2
    _assert_clean_exit(rc, err)
    assert message in json.loads(err)["message"]


def test_non_homogeneous_local_index_is_validation_error(tmp_path, capsys):
    klass = {"mode": "cohomology", "class": {v: [["1", [0, 0]], ["1", [1, 0]]] for v in "abc"}}
    rc, _, err = run_cli(["local-index", "--input", _write(tmp_path, "g.json", TRIANGLE),
                          "--class", _write(tmp_path, "c.json", klass), "--mode", "cohomology",
                          "--vertex", "b"], capsys)
    assert rc == 2
    assert "homogeneous" in json.loads(err)["message"]


def test_check_does_not_build_the_quotient(tmp_path, capsys):
    # 1 - e^[N,0] at a: divisible along a->b, where a quotient would have N
    # terms, and not along a->c
    n = 10 ** 9
    klass = {"mode": "ktheory", "class": {"a": [["1", [0, 0]], ["-1", [n, 0]]], "b": [],
                                          "c": []}}
    start = time.perf_counter()
    rc, _, err = run_cli(["check", "--input", _write(tmp_path, "g.json", TRIANGLE),
                          "--class", _write(tmp_path, "c.json", klass)], capsys)
    assert time.perf_counter() - start < 1
    assert rc == 2
    assert "divisibility fails on a->c" in json.loads(err)["message"]


@pytest.mark.parametrize("power", [10000, 100000])
def test_check_divides_a_high_power_in_linear_time(tmp_path, capsys, power):
    # x1^power at p1: the division by each edge form steps through power
    # pivot degrees, which must neither rebuild the quotient nor copy the
    # remainder at every step
    klass = {"mode": "cohomology", "class": {"p0": [], "p1": [["1", [power, 0]]], "p2": []}}
    start = time.perf_counter()
    rc, _, err = run_cli(["check", "--fixture", "cp2", "--mode", "cohomology",
                          "--class", _write(tmp_path, "c.json", klass)], capsys)
    assert time.perf_counter() - start < 3
    assert rc == 2
    _assert_clean_exit(rc, err)


def test_exponent_overflow_is_contract_error(tmp_path, capsys):
    # the constant class e^(N, N) is valid; at the top of the triangle the
    # local index shears it to e^(2N, 0), and 2N = 2^62 is out of range
    n = 2 ** 61
    klass = {"mode": "ktheory", "class": {v: [["1", [n, n]]] for v in ("p0", "p1", "p2")}}
    rc, out, err = run_cli(["local-index", "--fixture", "cp2", "--vertex", "2",
                            "--class", _write(tmp_path, "c.json", klass)], capsys)
    assert rc == 3
    assert out == ""
    _assert_clean_exit(rc, err)
    assert "outside the supported range" in json.loads(err)["message"]


HUGE = 10 ** 8
# at cp2's vertex 1 the local index shears x1 to 0 and x2 to x2 - x1
HUGE_CASES = {
    # e^(2^62 - 1, 0) everywhere: a divided difference would fill a gap of
    # about 2^62 quotient terms
    "ktheory-local-index": (["local-index", "--vertex", "1"], "ktheory",
                            {v: [["1", [2 ** 62 - 1, 0]]] for v in ("p0", "p1", "p2")}),
    # x1^HUGE at p1 alone: the quotient by the form of the edge p1 -> p2
    # would have HUGE terms
    "cohomology-check": (["check"], "cohomology",
                         {"p0": [], "p1": [["1", [HUGE, 0]]], "p2": []}),
    "cohomology-index": (["index"], "cohomology",
                         {"p0": [], "p1": [["1", [HUGE, 0]]], "p2": []}),
    # x2^HUGE everywhere: its shear (x2 - x1)^HUGE would have HUGE + 1 terms
    "cohomology-local-index": (["local-index", "--vertex", "1"], "cohomology",
                               {v: [["1", [0, HUGE]]] for v in ("p0", "p1", "p2")}),
}


@pytest.mark.parametrize("case", sorted(HUGE_CASES))
def test_results_past_the_term_budget_are_contract_errors(tmp_path, capsys, case):
    argv, mode, values = HUGE_CASES[case]
    path = _write(tmp_path, "c.json", {"mode": mode, "class": values})
    start = time.perf_counter()
    rc, out, err = run_cli(argv[:1] + ["--fixture", "cp2", "--mode", mode, "--class", path]
                           + argv[1:], capsys)
    assert time.perf_counter() - start < 3
    assert rc == 3
    assert out == ""
    _assert_clean_exit(rc, err)
    assert "more than 1048576 terms" in json.loads(err)["message"]


def test_local_index_of_a_huge_power_the_shear_kills(tmp_path, capsys):
    # at vertex 1 the shear sends x1 to 0, so the divided difference is one
    # division of x1^HUGE by x1; the division jumps over the empty slices
    path = _write(tmp_path, "c.json", {"mode": "cohomology", "class": {
        "p0": [], "p1": [["1", [HUGE, 0]]], "p2": []}})
    start = time.perf_counter()
    rc, out, _ = run_cli(["local-index", "--fixture", "cp2", "--mode", "cohomology",
                          "--class", path, "--vertex", "1"], capsys)
    assert time.perf_counter() - start < 3
    assert rc == 0
    assert out == f"x1^{HUGE - 1}\n"


def test_parse_rational_refuses_exponent_notation():
    assert parse_rational(7) == 7
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("1.25") == Fraction(5, 4)
    for text in ("1e3", "1E3", "2.5e-1", "1e100000000"):
        with pytest.raises(ValidationError):
            parse_rational(text)


@pytest.mark.parametrize("graph, klass, mode", [
    ({**TRIANGLE, "vertices": [{"id": "a", "psi": [0, 0]}, {"id": "b", "psi": ["1e100000000", 0]},
                               {"id": "c", "psi": [0, 1]}]},
     TRIANGLE_ONE["cohomology"], "cohomology"),
    (TRIANGLE, {"mode": "cohomology",
                "class": {v: [["1e100000000", [1, 0]]] for v in "abc"}}, "cohomology"),
])
def test_exponent_notation_is_rejected_fast(tmp_path, capsys, graph, klass, mode):
    start = time.perf_counter()
    rc, _, err = run_cli(["index", "--input", _write(tmp_path, "g.json", graph),
                          "--class", _write(tmp_path, "c.json", klass), "--mode", mode],
                         capsys)
    assert time.perf_counter() - start < 1
    assert rc == 2
    _assert_clean_exit(rc, err)
    assert "1e100000000" in json.loads(err)["message"]


def test_bad_covector_is_validation_error(capsys):
    rc, _, err = run_cli(["kirwan", "--fixture", "square", "--pi", "1,a"], capsys)
    assert rc == 2
    assert "--pi must be comma separated integers" in json.loads(err)["message"]


JUNK = [None, True, -1, 0, 7, 1.5, "", "x", "1/0", "2/3", [], {}, ["a"], [1],
        [[0, 1]], {"id": "a"}]


def _paths(obj, path=()):
    yield path
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, val in items:
        yield from _paths(val, path + (key,))


def _mutate(r, data):
    """Replace or delete one randomly chosen node of a JSON document, or
    truncate its text."""
    if r.random() < 0.1:
        return json.dumps(data)[:-1]
    data = copy.deepcopy(data)
    path = r.choice(list(_paths(data)))
    if not path:
        return r.choice(JUNK)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if r.random() < 0.2:
        del parent[path[-1]]
    else:
        parent[path[-1]] = r.choice(JUNK)
    return data


def _vector(r):
    return ",".join(r.choice(["1", "-2", "0", "3", "a", "", " 2", "1.5"])
                    for _ in range(r.randint(1, 3)))


def test_mutated_inputs_exit_cleanly(tmp_path, capsys):
    r = rng(401)
    for case in range(300):
        mode = r.choice(("ktheory", "cohomology"))
        graph, klass = TRIANGLE, TRIANGLE_ONE[mode]
        pick = r.randrange(4)
        if pick == 0:
            graph = _mutate(r, graph)
        elif pick == 1:
            klass = _mutate(r, klass)
        gp = _write(tmp_path, f"g{case}.json", graph)
        cp = _write(tmp_path, f"c{case}.json", klass)
        argv = r.choice([
            ["graph", "--input", gp],
            ["check", "--input", gp, "--class", cp, "--mode", mode],
            ["index", "--input", gp, "--class", cp, "--mode", mode],
            ["local-index", "--input", gp, "--class", cp, "--mode", mode, "--vertex", "b"],
            ["kirwan", "--input", gp, "--class", _write(tmp_path, f"h{case}.json", klass)
             if mode == "cohomology" else cp, "--pi=" + (_vector(r) if pick == 3 else "1,2")],
        ])
        if pick == 3 and r.random() < 0.5:
            argv.append("--xi=" + _vector(r))
        rc, _, err = run_cli(argv, capsys)
        _assert_clean_exit(rc, err)


# ---------------------------------------------------------------------------
# serialization round trips

def test_basis_json_roundtrip_bytes(cp2):
    basis = cl.basis(K, cp2)
    blob = dumps(basis_to_dict(basis, "ktheory"))
    loaded, mode = basis_from_dict(json.loads(blob), cp2.rank)
    assert mode == "ktheory"
    blob2 = dumps(basis_to_dict(loaded, mode))
    assert blob == blob2
    for p in cp2.vids():
        assert cl.class_equal(loaded[p], basis[p])


def test_class_json_roundtrip(cp2):
    c = cl.one_class(K, cp2)
    blob = dumps(class_to_dict(c, "ktheory"))
    loaded, _ = class_from_dict(json.loads(blob), cp2.rank)
    assert cl.class_equal(loaded, c)
    assert dumps(class_to_dict(loaded, "ktheory")) == blob


def test_graph_file_roundtrip(tmp_path, capsys):
    data = {
        "rank": 2,
        "vertices": [
            {"id": "a", "psi": [0, 0]},
            {"id": "b", "psi": [1, 0]},
            {"id": "c", "psi": [0, 1]},
        ],
        "xi": [1, 2],
    }
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(data))
    rc, out, _ = run_cli(["graph", "--input", str(path)], capsys)
    assert rc == 0
    assert "index increasing: yes" in out
    inp = toric_input_from_dict(data)
    g = build_graph(inp)
    assert g.xi == (1, 2)


def test_rational_strings_accepted():
    data = {
        "rank": 1,
        "vertices": [{"id": "a", "psi": ["0"]}, {"id": "b", "psi": ["1/2"]}],
    }
    inp = toric_input_from_dict(data)
    g = build_graph(inp)
    assert [str(p.mu) for p in g.points] == ["0", "1/2"]


def test_json_output_mode(capsys):
    rc, out, _ = run_cli(
        ["basis", "--fixture", "cp1", "--mode", "ktheory", "--format", "json"],
        capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["mode"] == "ktheory"
    assert data["basis"]["p1"]["p1"] == [["1", [0]], ["-1", [1]]]


def test_out_file(tmp_path):
    target = tmp_path / "basis.txt"
    rc = main(["basis", "--fixture", "cp2", "--mode", "ktheory",
               "--out", str(target)])
    assert rc == 0
    assert target.read_text() == GOLDEN_TRIANGLE_BASIS


def test_parser_rejects_missing_command():
    with pytest.raises(SystemExit):
        make_parser().parse_args([])


def test_parser_reuse_carries_nothing_over(tmp_path, capsys):
    k_run = ["basis", "--fixture", "cp2"]
    h_run = ["basis", "--fixture", "hirzebruch", "--mode", "cohomology", "--format", "json"]
    first_k, first_h = run_cli(k_run, capsys), run_cli(h_run, capsys)
    assert first_k == (0, GOLDEN_TRIANGLE_BASIS, "")
    assert first_h[0] == 0 and json.loads(first_h[1])["mode"] == "cohomology"
    with pytest.raises(SystemExit):
        main(["basis", "--fixture", "cp2", "--mode", "nope"])
    capsys.readouterr()
    target = tmp_path / "index.json"
    rc, out, _ = run_cli(["index", "--fixture", "cp2", "--class", "one", "--mode",
                          "cohomology", "--format", "json", "--out", str(target)], capsys)
    assert (rc, out) == (0, "")
    assert json.loads(target.read_text()) == {"value": []}
    # the K run relies on the defaults of --mode, --format and --out
    assert run_cli(k_run, capsys) == first_k
    assert run_cli(h_run, capsys) == first_h
    assert make_parser() is make_parser()
    args = make_parser().parse_args(k_run)
    assert (args.mode, args.format, args.out) == ("ktheory", "text", None)
