"""Front end: subcommands, formats, exit codes, round trips."""

import copy
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from gkmcalc import classes as cl
from gkmcalc import cli, cohomology, symcore
from gkmcalc.cli import main, make_parser, parse_args
from gkmcalc.errors import NonConstantQuotient, ValidationError
from gkmcalc.serialize import class_from_dict, dumps, toric_input_from_dict
from gkmcalc.fixtures import fixture_input
from gkmcalc.gkm import build_graph
from gkmcalc.symcore import H, K, TERM_BUDGET, LocalizedSum, PolyH, parse_exact

from conftest import rng
from oracles import (
    basis_from_dict,
    class_to_dict,
    eval_h,
    eval_poly,
    local_index_parts,
    to_terms,
)


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
    assert "r1 (edge q2 -> q0): -x2 + x1" in out  # the reference class, not 1
    # the fixture's name picks the class however it is spelled
    for spelling in ("SQUARE", " Square "):
        assert run_cli(["kirwan", "--fixture", spelling, "--pi=1,1"], capsys) == (0, out, "")


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


def test_fractional_theta_fails_verify_full(capsys, monkeypatch):
    # the path sums are verify's check of the duals that ``gt`` prints, so a
    # wrong Theta shows there, naming the exception the recursion raised
    monkeypatch.setattr(cohomology, "theta", lambda g, edge: Fraction(1, 2))
    rc, out, err = run_cli(["verify", "--level", "full", "--fixture", "cp2"], capsys)
    assert rc == 2
    verdicts = {name: verdict.strip() for name, verdict in
                (line.split("  ", 1) for line in out.splitlines())}
    assert verdicts["jump-one ratios are 1"] == "FAIL"
    assert verdicts["path-sum classes equal duals"].startswith(
        "FAIL (IntegralityFailure: ")
    assert sum(v.startswith("FAIL") for v in verdicts.values()) == 2
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "validation"


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
    assert json.loads(err) == {"error": "io",
                               "message": "[Errno 2] No such file or directory: ''"}


def test_a_failed_command_leaves_its_out_file_as_it_was(tmp_path, capsys):
    target = tmp_path / "o.txt"
    target.write_text("kept\n")
    rc, out, err = run_cli(["graph", "--input", str(tmp_path / "missing.json"),
                            "--out", str(target)], capsys)
    assert (rc, out, json.loads(err)["error"]) == (4, "", "io")
    assert target.read_text() == "kept\n"
    short = {"mode": "ktheory", "class": {"p0": [["1", [0, 0]]], "p1": [["1", [0, 0]]]}}
    rc, out, err = run_cli(["index", "--fixture", "cp2", "--class",
                            _write(tmp_path, "c.json", short), "--out", str(target)], capsys)
    assert (rc, out) == (2, "")
    assert json.loads(err) == {"error": "validation",
                               "message": "class file has no value at vertex p2"}
    assert target.read_text() == "kept\n"
    # a command that writes and then fails keeps what it wrote
    rc, out, _ = run_cli(["verify", "--fixture", "hirzebruch", "--out", str(target)], capsys)
    assert (rc, out) == (0, "")
    report = target.read_text()
    assert "unique minimum" in report and "FAIL" not in report


def test_verify_keeps_its_failing_report_in_the_out_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cohomology, "theta", lambda g, edge: Fraction(1, 2))
    target = tmp_path / "o.txt"
    target.write_text("old\n")
    rc, out, err = run_cli(["verify", "--fixture", "cp2", "--out", str(target)], capsys)
    assert (rc, out) == (2, "")
    assert json.loads(err) == {"error": "validation", "message": "verification failed"}
    report = target.read_text()
    assert "unique minimum" in report and report.count("FAIL") == 1
    assert "old" not in report


def test_a_failing_division_of_a_high_power_is_refuted_quickly(tmp_path, capsys):
    # x1^D at the top vertex a of this CP^2 image, zero elsewhere: its first
    # Euler factor 3 x2 - 2 x1 does not divide it, and the quotient walk
    # down the powers of x1 would grow coefficients like (3/2)^k
    graph = {"rank": 2, "vertices": [{"id": "a", "psi": [0, 0]}, {"id": "b", "psi": [2, -3]},
                                     {"id": "c", "psi": [1, -1]}],
             "edges": [["a", "b"], ["b", "c"], ["c", "a"]]}
    path = _write(tmp_path, "g.json", graph)
    for power in (2000, 100000):
        klass = {"mode": "cohomology", "class": {"a": [["1", [power, 0]]], "b": [], "c": []}}
        start = time.perf_counter()
        rc, out, err = run_cli(["index", "--mode", "cohomology", "--input", path, "--class",
                                _write(tmp_path, "c.json", klass)], capsys)
        assert time.perf_counter() - start < 3
        assert (rc, out) == (3, "")
        assert json.loads(err) == {
            "error": "contract", "message": "push-forward of a non-class: value at a is not "
                                            "a multiple of its Euler class"}


@pytest.mark.parametrize("power", [40000, 60000, (1 << 20) - 1])
def test_a_shear_counts_the_coefficients_of_the_powers_it_builds(tmp_path, capsys, monkeypatch,
                                                                 power):
    # x1^D at the top vertex a of this CP^2 image: the local index shears it
    # along a's frame, and the D-th power of x1's image has D + 1 terms whose
    # coefficients grow with D; counted by term alone the shear built it
    # (2^20 - 1: MemoryError in the power, 40,000: exit 3 only after about
    # a minute), counted as ``divides`` counts it the shear refuses at once
    graph = {"rank": 2, "vertices": [{"id": "a", "psi": ["0", "0"]}, {"id": "b", "psi": ["2", "-3"]},
                                     {"id": "c", "psi": ["1", "-1"]}],
             "edges": [["a", "b"], ["a", "c"], ["b", "c"]]}
    klass = {"mode": "cohomology", "class": {"a": [["1", [power, 0]]], "b": [], "c": []}}
    built = []
    linear_power = symcore._linear_power
    monkeypatch.setattr(symcore, "_linear_power",
                        lambda form, d: built.append(d) or linear_power(form, d))
    start = time.perf_counter()
    rc, out, err = run_cli(["local-index", "--input", _write(tmp_path, "g.json", graph),
                            "--class", _write(tmp_path, "c.json", klass), "--vertex", "a",
                            "--mode", "cohomology"], capsys)
    assert time.perf_counter() - start < 3
    assert (rc, out) == (3, "")
    _assert_clean_exit(rc, err)
    assert json.loads(err) == {"error": "contract",
                               "message": f"shear: more than {TERM_BUDGET} terms"}
    assert built == []


# the arguments of one call of each command
ONE_OF_EACH = {
    "graph": ["--fixture", "cp2"],
    "check": ["--fixture", "cp2", "--class", "tau:p1"],
    "basis": ["--fixture", "cp2"],
    "pd": ["--fixture", "hirzebruch"],
    "gt": ["--fixture", "cp2"],
    "local-index": ["--fixture", "cp2", "--class", "tau:p1", "--vertex", "p1"],
    "index": ["--fixture", "cp2", "--class", "one", "--mode", "cohomology"],
    "structure": ["--fixture", "cp2"],
    "kirwan": ["--fixture", "square", "--pi", "1,1"],
    "verify": ["--fixture", "cp2"],
}


class _CountedWrites(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", sorted(make_parser().commands))
def test_every_command_reaches_stdout_in_one_write(monkeypatch, command, fmt):
    out = _CountedWrites()
    monkeypatch.setattr(sys, "stdout", out)
    assert main([command] + ONE_OF_EACH[command] + ["--format", fmt]) == 0
    assert out.writes == 1 and out.getvalue().endswith("\n")


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
    (TRIANGLE, {"mode": "ktheory", "class": {**{v: [["1", [0, 0]]] for v in "abc"},
                                             "zz": [["5", [0, 0]]]}}, ["--class"],
     "class file has a value at unknown vertex zz"),
    (TRIANGLE, {"mode": "ktheory", "class": {v: [["1", "00"]] for v in "abc"}}, ["--class"],
     "malformed class file: exponent '00' is not an array"),
    (TRIANGLE, {"mode": "ktheory", "class": {v: [["1", "12"]] for v in "abc"}}, ["--class"],
     "malformed class file: exponent '12' is not an array"),
    (TRIANGLE, {"mode": "ktheory", "class": {v: ["1x"] for v in "abc"}}, ["--class"],
     "malformed class file: exponent 'x' is not an array"),
    # a string or an object where the format has an array is not read entry by entry
    ({**TRIANGLE, "vertices": [{"id": "a", "psi": [0, 0]}, {"id": "b", "psi": "10"},
                               {"id": "c", "psi": [0, 1]}]}, None, [],
     "malformed graph file: psi is not an array: '10'"),
    ({**TRIANGLE, "edges": ["ab", "bc", "ca"]}, None, [],
     "malformed graph file: an edge is not an array: 'ab'"),
    ({**TRIANGLE, "xi": "12"}, None, [], "malformed graph file: xi is not an array: '12'"),
    ({**TRIANGLE, "vertices": "abc"}, None, [],
     "malformed graph file: vertices is not an array: 'abc'"),
    ({**TRIANGLE, "edges": {"a": "b"}}, None, [],
     "malformed graph file: edges is not an array: {'a': 'b'}"),
    ({**TRIANGLE, "vertices": [{"id": None, "psi": [0, 0]}, *TRIANGLE["vertices"][1:]]}, None,
     [], "malformed graph file: vertex id None is not a string or an integer"),
    ({**TRIANGLE, "vertices": [{"id": True, "psi": [0, 0]}, *TRIANGLE["vertices"][1:]]}, None,
     [], "malformed graph file: vertex id True is not a string or an integer"),
    ({**TRIANGLE, "vertices": [{"id": [1], "psi": [0, 0]}, *TRIANGLE["vertices"][1:]]}, None,
     [], "malformed graph file: vertex id [1] is not a string or an integer"),
    ({**TRIANGLE, "edges": [["a", "b"], ["a", 1.0], ["b", "c"]]}, None, [],
     "malformed graph file: vertex id 1.0 is not a string or an integer"),
    (TRIANGLE, {"mode": "ktheory", "class": {"a": [["1", [1, 1]]], "b": "", "c": []}},
     ["local-index", "--vertex", "a", "--class"],
     "malformed class file: the value at b is not an array: ''"),
    (TRIANGLE, {"mode": "ktheory", "class": {"a": [["1", [1, 1]]], "b": {}, "c": []}},
     ["local-index", "--vertex", "a", "--class"],
     "malformed class file: the value at b is not an array: {}"),
    (TRIANGLE, TRIANGLE_ONE["cohomology"], ["--class"],
     "class file is cohomology, requested ktheory"),
    (TRIANGLE, {**TRIANGLE_ONE["ktheory"], "mode": "quantum"}, ["--class"],
     "malformed class file: unknown mode 'quantum'"),
    ({**TRIANGLE, "vertices": [{"id": "a", "psi": [True]}, *TRIANGLE["vertices"][1:]]}, None,
     [], "booleans are not rationals"),
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


def test_integer_vertex_ids_read_as_their_strings(tmp_path, capsys):
    named = {"rank": 1, "vertices": [{"id": "0", "psi": [0]}, {"id": "1", "psi": [1]}],
             "edges": [["0", "1"]]}
    numbered = {"rank": 1, "vertices": [{"id": 0, "psi": [0]}, {"id": 1, "psi": [1]}],
                "edges": [[0, 1]]}
    inp = toric_input_from_dict(numbered)
    assert (inp.vertices, inp.edges) == ([("0", (0,)), ("1", (1,))], [("0", "1")])
    outputs = [run_cli(["basis", "--input", _write(tmp_path, "g.json", data)], capsys)
               for data in (named, numbered)]
    assert outputs[0] == outputs[1] and outputs[0][0] == 0


def test_supplied_edges_are_refused_by_the_certificate_in_traversal_order(tmp_path, capsys):
    # a quadrilateral with two vertices swapped and its edges kept, from the
    # corruptions of tests/test_frames.py: the traversal is rooted at v0,
    # whose cone misses v2, before it reaches v1, whose edge directions are
    # not a lattice basis
    graph = {"rank": 2,
             "vertices": [{"id": v, "psi": p} for v, p in (
                 ("v0", [4, 3]), ("v1", [-12, 12]), ("v2", [-10, 11]), ("v3", [-19, 16]))],
             "edges": [["v0", "v3"], ["v0", "v1"], ["v1", "v2"], ["v3", "v2"]]}
    rc, out, err = run_cli(["graph", "--input", _write(tmp_path, "g.json", graph)], capsys)
    assert rc == 2 and out == ""
    _assert_clean_exit(rc, err)
    assert json.loads(err) == {
        "error": "validation",
        "message": "vertex v0 fails the skeleton certificate: "
                   "point v2 lies outside the cone of its candidate edges"}


@pytest.mark.parametrize("command, mode, extra", [
    ("index", "ktheory", []),
    ("index", "cohomology", []),
    ("check", "ktheory", []),
    ("local-index", "ktheory", ["--vertex", "p1"]),
    ("kirwan", "cohomology", ["--pi", "1,0"]),
])
def test_class_file_with_an_unknown_vertex_is_refused(tmp_path, capsys, command, mode, extra):
    klass = {"mode": mode, "class": {v: [["1", [0, 0]]] for v in ("p0", "p1", "p2")}}
    klass["class"]["zz"] = [["5", [0, 0]]]
    argv = [command, "--fixture", "cp2", "--mode", mode, *extra,
            "--class", _write(tmp_path, "c.json", klass)]
    if command == "kirwan":
        argv.remove("--mode")
        argv.remove(mode)
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2 and out == ""
    _assert_clean_exit(rc, err)
    assert json.loads(err)["message"] == "class file has a value at unknown vertex zz"


def test_integer_strings_inside_an_exponent_array_stay_accepted(tmp_path, capsys):
    klass = {"mode": "ktheory", "class": {v: [["1", ["0", "0"]]] for v in ("p0", "p1", "p2")}}
    rc, out, _ = run_cli(["index", "--fixture", "cp2", "--class",
                          _write(tmp_path, "c.json", klass)], capsys)
    assert rc == 0 and out == "1\n"


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
    # x1^power at p1: each difference is restricted to the hyperplane of
    # its edge form term by term, where a quotient would step through power
    # pivot degrees
    klass = {"mode": "cohomology", "class": {"p0": [], "p1": [["1", [power, 0]]], "p2": []}}
    start = time.perf_counter()
    rc, _, err = run_cli(["check", "--fixture", "cp2", "--mode", "cohomology",
                          "--class", _write(tmp_path, "c.json", klass)], capsys)
    assert time.perf_counter() - start < 3
    assert rc == 2
    _assert_clean_exit(rc, err)


def test_check_stops_at_the_first_failing_edge(tmp_path, capsys):
    # x1^N + x2^N at p1: p0->p1 fails and is reported; the quotient by the
    # form of p1 -> p2, a later edge, would take N steps to build
    n = 400000
    klass = {"mode": "cohomology",
             "class": {"p0": [], "p1": [["1", [n, 0]], ["1", [0, n]]], "p2": []}}
    start = time.perf_counter()
    rc, _, err = run_cli(["check", "--fixture", "cp2", "--mode", "cohomology",
                          "--class", _write(tmp_path, "c.json", klass)], capsys)
    assert time.perf_counter() - start < 1
    assert rc == 2
    assert json.loads(err)["message"] == "divisibility fails on p0->p1"


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


def test_check_refutes_a_huge_power_without_a_quotient(tmp_path, capsys):
    # x1^HUGE at p1 alone: on the hyperplane of the form of p1 -> p2 it
    # restricts to one nonzero term, where the quotient would have HUGE terms
    path = _write(tmp_path, "c.json", {"mode": "cohomology", "class": {
        "p0": [], "p1": [["1", [HUGE, 0]]], "p2": []}})
    start = time.perf_counter()
    rc, out, err = run_cli(["check", "--fixture", "cp2", "--mode", "cohomology",
                            "--class", path], capsys)
    assert time.perf_counter() - start < 3
    assert rc == 2
    assert out == ""
    assert json.loads(err)["message"] == "divisibility fails on p1->p2"


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


# the CP^2 image a=(0,0), b=(2,-3), c=(1,-1): a is its top vertex, and the
# local index there shears x1 to forms of two terms
SHEARED_CP2 = {"rank": 2, "edges": [["a", "b"], ["a", "c"], ["b", "c"]],
               "vertices": [{"id": "a", "psi": ["0", "0"]}, {"id": "b", "psi": ["2", "-3"]},
                            {"id": "c", "psi": ["1", "-1"]}]}


def test_the_local_index_of_a_power_of_degree_2000_is_exact(tmp_path, capsys):
    # each shear and each divided difference has about 2,000 terms; a count
    # of the worst case per term refused this, as more than the budget
    deg = 2000
    graph = _write(tmp_path, "g.json", SHEARED_CP2)
    klass = _write(tmp_path, "c.json", {"mode": "cohomology", "class": {
        "a": [["1", [deg, 0]]], "b": [], "c": []}})
    start = time.perf_counter()
    rc, out, err = run_cli(["local-index", "--input", graph, "--class", klass, "--vertex", "a",
                            "--mode", "cohomology", "--format", "json"], capsys)
    assert time.perf_counter() - start < 10
    assert (rc, err) == (0, "")
    value = H.from_terms(2, json.loads(out)["value"])
    assert value.homogeneous_degree() == deg - 2 and len(value.terms) == deg - 1
    # the oracle's substitutions are ring maps, so each sends x1^deg to the
    # deg-th power of its image of x1: its cut space fixed point sum is
    # specialized from the parts of x1, at points with the auxiliary w_0 = 0
    g = build_graph(toric_input_from_dict(SHEARED_CP2))
    x1 = {"a": PolyH(2, {(1, 0): 1}), "b": PolyH.zero(2), "c": PolyH.zero(2)}
    fs, dens = local_index_parts(H, g, x1, "a")
    r = rng(157)
    checked = 0
    while checked < 3:
        point = (r.randint(-40, 40), r.randint(-40, 40), 0)
        s = LocalizedSum("H", 3)
        for f, den in zip(fs, dens):
            s.add_term(PolyH.constant(3, eval_poly(f, point) ** deg), den)
        try:
            want = eval_h(s, point)
        except ValueError:  # the point is on a denominator's hyperplane
            continue
        assert eval_poly(value, point[:2]) == want
        checked += 1


def test_a_class_whose_restriction_outgrows_the_budget_is_refused_at_once(tmp_path, capsys):
    # on the edge of weight (2, -3), x1^N x2^N restricts to one term, but
    # its coefficient (3/2)^N has tens of millions of bits
    n = 1 << 25
    graph = _write(tmp_path, "g.json", SHEARED_CP2)
    klass = _write(tmp_path, "c.json", {"mode": "cohomology", "class": {
        "a": [["1", [n, n]]], "b": [], "c": []}})
    start = time.perf_counter()
    rc, out, err = run_cli(["check", "--input", graph, "--class", klass, "--mode", "cohomology"],
                           capsys)
    assert time.perf_counter() - start < 10
    assert (rc, out) == (3, "")
    _assert_clean_exit(rc, err)
    assert json.loads(err)["message"] == f"divisibility test: more than {TERM_BUDGET} terms"


def test_parse_rational_refuses_exponent_notation():
    assert parse_exact(7) == 7
    assert parse_exact("-3/4") == Fraction(-3, 4)
    assert parse_exact("1.25") == Fraction(5, 4)
    for text in ("1e3", "1E3", "2.5e-1", "1e100000000"):
        with pytest.raises(ValidationError):
            parse_exact(text)


def test_parse_rational_agrees_with_fraction():
    # the int() fast path must accept and refuse exactly what Fraction does,
    # exponent notation apart
    texts = [" 3/2 ", "3/ 2", "1/-1", "1/0", "-0", "+3", "1_000", "0.5", ".5", "1e3",
             "\u0663", "\u00b2", "", "-", "7" * 5000, "1/" + "7" * 5000,
             "3/2", "-6/4", "+3/2", "1/+2", "1/2/3", "0/0", "--1", "1.", "\u0661/\u0662"]
    for text in texts:
        try:
            want = None if "e" in text.lower() else Fraction(text)
        except (ValueError, ZeroDivisionError):
            want = None
        if want is None:
            with pytest.raises(ValidationError):
                parse_exact(text)
        else:
            exact = parse_exact(text)
            assert exact == want, text
            assert type(exact) is (int if want.denominator == 1 else Fraction), text


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


@pytest.mark.parametrize("argv", [
    ["graph", "--fixture", "cp2", "--xi", "-1,-2"],
    ["graph", "--fixture", "cp2", "--format", "json", "--xi", "-1,-2"],
    ["kirwan", "--fixture", "square", "--pi", "-1,-1"],
    ["kirwan", "--fixture", "square", "--pi", "-1,-1", "--format", "json"],
    ["kirwan", "--fixture", "cp2", "--xi", "-2,-1", "--pi", "-1,-1", "--format", "json"],
    ["basis", "--fixture", "hirzebruch", "--xi", "-3,-1"],
])
def test_a_negative_vector_after_a_space_reads_as_after_an_equals_sign(argv, capsys):
    joined = []
    for arg in argv:
        if joined and joined[-1] in ("--xi", "--pi"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    assert len(joined) < len(argv)
    want = run_cli(joined, capsys)
    assert want[0] == 0 and want[1]
    assert run_cli(argv, capsys) == want


def test_an_option_after_the_vector_flag_is_still_refused(capsys):
    rc, out, err = run_cli(["graph", "--fixture", "cp2", "--xi", "--format", "json"], capsys)
    assert (rc, out) == (2, "")
    assert json.loads(err)["message"] == "gkmcalc graph: argument --xi: expected one argument"


@pytest.mark.parametrize("pi, var", [("1,0", "x2"), ("0,1", "x1")])
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("limit", ["default", "lifted"])
def test_a_result_past_the_int_string_limit_ends_cleanly_or_exactly(
        tmp_path, capsys, pi, var, fmt, limit):
    # every coefficient read is within CPython's 4,300-digit limit, but the
    # shear adds three of them; the refusal writes nothing, to stdout or to
    # --out, and where the interpreter has no limit the value is exact
    c = "9" * 4300
    value = [[c, [2, 0]], [c, [1, 1]], [c, [0, 2]]]
    klass = _write(tmp_path, "c.json", {"mode": "cohomology",
                                        "class": dict.fromkeys(("p0", "p1", "p2"), value)})
    target = tmp_path / "o.txt"
    target.write_text("kept\n")
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    old = get_limit() if get_limit else None
    if limit == "lifted" and old is not None:
        sys.set_int_max_str_digits(0)
    try:
        for flags in ([], ["--out", str(target)]):
            rc, out, err = run_cli(["kirwan", "--fixture", "cp2", "--pi", pi, "--class", klass,
                                    "--format", fmt, *flags], capsys)
            _assert_clean_exit(rc, err)
            if flags:
                assert out == ""
                out = target.read_text()
            if rc:
                assert limit == "default" and rc == 3 and out in ("", "kept\n")
                assert json.loads(err)["message"] == (
                    "a coefficient has more than 4300 digits, "
                    "past the limit of integer string conversion")
                continue
            assert limit == "lifted" or old is None
            top = {"x2": "p1", "x1": "p2"}[var]
            if fmt == "text":
                assert out == (f"top vertex: {top}\nr1 (edge p0 -> {top}): {c}*{var}^2\n"
                               f"r2 (edge {'p2' if top == 'p1' else 'p1'} -> {top}): "
                               f"{3 * int(c)}*{var}^2\n")
            else:
                points = json.loads(out)["points"]
                assert [p["value"][0][0] for p in points] == [c, str(3 * int(c))]
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("limit", ["default", "lifted"])
def test_a_graph_past_the_int_string_limit_ends_cleanly_or_exactly(tmp_path, capsys, fmt, limit):
    # every psi entry read is within CPython's 4,300-digit limit, but the
    # moment values 10 n and 11 n are not; the refusal writes nothing, to
    # stdout or to --out, and where the interpreter has no limit the text is
    # exact
    n = "9" * 4300
    graph = _write(tmp_path, "g.json", {"rank": 2, "vertices": [
        {"id": "p0", "psi": ["0", "0"]}, {"id": "p1", "psi": [n, "0"]},
        {"id": "p2", "psi": ["0", n]}]})
    target = tmp_path / "o.txt"
    target.write_text("kept\n")
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    old = get_limit() if get_limit else None
    if limit == "lifted" and old is not None:
        sys.set_int_max_str_digits(0)
    try:
        for flags in ([], ["--out", str(target)]):
            rc, out, err = run_cli(["graph", "--input", graph, "--xi=10,11", "--format", fmt,
                                    *flags], capsys)
            _assert_clean_exit(rc, err)
            if flags:
                assert out == ""
                out = target.read_text()
            if rc:
                assert limit == "default" and rc == 3
                assert out == ("kept\n" if flags else "")
                assert json.loads(err)["message"] == (
                    "a number in the graph has more than 4300 digits, "
                    "past the limit of integer string conversion")
                continue
            assert limit == "lifted" or old is None
            mu = [0, 10 * int(n), 11 * int(n)]
            if fmt == "text":
                assert out == (
                    f"rank 2, xi = (10,11)\n"
                    f"vertex p0: psi=(0,0) mu=0 lambda=0\n"
                    f"vertex p1: psi=({n},0) mu={mu[1]} lambda=1\n"
                    f"vertex p2: psi=(0,{n}) mu={mu[2]} lambda=2\n"
                    f"edge p0 -> p1: weight=(1,0) mult={n}\n"
                    f"edge p0 -> p2: weight=(0,1) mult={n}\n"
                    f"edge p1 -> p2: weight=(-1,1) mult={n}\n"
                    f"index increasing: yes\n")
            else:
                data = json.loads(out)
                assert [v["mu"] for v in data["vertices"]] == list(map(str, mu))
                assert [e["mult"] for e in data["edges"]] == [n] * 3
                assert [v["psi"] for v in data["vertices"]] == [["0", "0"], [n, "0"], ["0", n]]
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)


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
    blob = dumps({"mode": "ktheory", "basis": basis})
    assert json.loads(blob) == {"mode": "ktheory", "basis": {
        p: {q: to_terms(x) for q, x in c.items()} for p, c in basis.items()}}
    loaded, mode = basis_from_dict(json.loads(blob), cp2.rank)
    assert mode == "ktheory"
    blob2 = dumps({"mode": mode, "basis": loaded})
    assert blob == blob2
    for p in cp2.vids():
        assert cl.class_equal(loaded[p], basis[p])


def test_class_json_roundtrip(cp2):
    c = cl.one_class(K, cp2)
    blob = dumps(class_to_dict(c, "ktheory"))
    assert json.loads(blob) == {"mode": "ktheory",
                                "class": {v: to_terms(x) for v, x in c.items()}}
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


def _assert_refused(rc, out, err, message):
    assert (rc, out) == (2, "")
    _assert_clean_exit(rc, err)
    assert json.loads(err) == {"error": "validation", "message": message}


def test_parser_rejects_missing_command(capsys):
    _assert_refused(*run_cli([], capsys),
                    "gkmcalc: the following arguments are required: command")
    with pytest.raises(ValidationError):
        make_parser().parse_args([])


def test_usage_errors_are_one_json_line(capsys):
    rc, out, err = run_cli(["basis", "--fixture", "cp2", "--mode", "nope"], capsys)
    assert (rc, out) == (2, "")
    _assert_clean_exit(rc, err)
    assert json.loads(err)["message"].startswith("gkmcalc basis: argument --mode: invalid choice")
    rc, out, err = run_cli(["basis", "--fixture", "cp2", "--bogus"], capsys)
    _assert_refused(rc, out, err, "gkmcalc: unrecognized arguments: --bogus")
    # --help still prints its usage and exits 0
    with pytest.raises(SystemExit) as exc:
        main(["basis", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gkmcalc basis")


@pytest.mark.parametrize("n", [102, 200000000000])
def test_huge_projective_fixture_is_refused(capsys, n):
    # 102 is the first n whose frames, (n+1)*n^2 entries, exceed the budget
    assert 102 * 101 ** 2 <= TERM_BUDGET < 103 * 102 ** 2
    assert fixture_input("cpn:101").rank == 101
    _assert_refused(*run_cli(["graph", "--fixture", f"cpn:{n}"], capsys),
                    f"projective fixture cpn:{n} is too large: its frames hold (n+1)*n^2 "
                    f"entries, more than {TERM_BUDGET}")


@pytest.mark.parametrize("argv", [
    ["local-index", "--class", "one", "--vertex", "-1"],
    ["local-index", "--class", "one", "--vertex", "3"],
    ["index", "--class", "tau:-3"],
])
def test_vertex_positions_do_not_wrap(capsys, argv):
    vid = argv[-1].split(":")[-1]
    _assert_refused(*run_cli(argv + ["--fixture", "cp2"], capsys),
                    f"unknown vertex {vid!r}")


def test_parser_reuse_carries_nothing_over(tmp_path, capsys):
    k_run = ["basis", "--fixture", "cp2"]
    h_run = ["basis", "--fixture", "hirzebruch", "--mode", "cohomology", "--format", "json"]
    first_k, first_h = run_cli(k_run, capsys), run_cli(h_run, capsys)
    assert first_k == (0, GOLDEN_TRIANGLE_BASIS, "")
    assert first_h[0] == 0 and json.loads(first_h[1])["mode"] == "cohomology"
    rc, out, err = run_cli(["basis", "--fixture", "cp2", "--mode", "nope"], capsys)
    assert (rc, out) == (2, "")
    assert json.loads(err)["error"] == "validation"
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


@pytest.mark.parametrize("argv", [
    ["graph", "--fixture", "cp2"],
    ["basis", "--norm", "point", "--fixture", "cp2"],
    ["basis", "--fixture=hirzebruch", "--mode=cohomology", "--format", "json", "--out", "b.json"],
    ["kirwan", "--fixture", "square", "--pi=1,1"],
    ["local-index", "--input", "g.json", "--class", "tau:1", "--vertex", "2", "--xi", "1,3",
     "--mode", "cohomology"],
    ["verify", "--lev", "full", "--fixture", "cp1"],
    ["gt", "--fixture", "cp2", "--fixture", "cpn:3"],
])
def test_command_parser_gives_the_whole_parsers_namespace(argv):
    # the defaults included: every option of the command is in both
    assert vars(parse_args(argv)) == vars(make_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    [],
    ["nope", "--fixture", "cp2"],
    ["graph", "--fixture", "cp2", "--bogus", "x"],
    ["gt", "--fixture", "cp2", "--mode", "cohomology"],
    ["basis", "--fixture", "cp2", "--mode", "nope"],
    ["local-index", "--fixture", "cp2"],
    ["graph", "--fixture", "cp2", "--input", "g.json"],
    ["graph"],
], ids=["missing command", "unknown command", "unknown option", "option of another command",
        "bad choice", "missing required option", "two graph sources", "no graph source"])
def test_usage_error_line_is_the_whole_parsers(capsys, argv):
    with pytest.raises(ValidationError) as exc:
        make_parser().parse_args(argv)
    _assert_refused(*run_cli(argv, capsys), str(exc.value))


# one run of each command; square is index increasing and has a unique top
# vertex for the covector (1, 1)
EVERY_COMMAND = [
    ["graph"], ["check", "--class", "one"], ["basis"], ["pd"], ["gt"],
    ["local-index", "--class", "one", "--vertex", "1"], ["index", "--class", "one"],
    ["structure"], ["kirwan", "--pi", "1,1"], ["verify"],
]


def test_every_command_has_a_run():
    assert sorted(argv[0] for argv in EVERY_COMMAND) == sorted(make_parser().commands)


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
def test_each_command_builds_the_moment_graph_once(monkeypatch, capsys, argv):
    calls = []

    def counted(inp):
        calls.append(inp)
        return build_graph(inp)
    monkeypatch.setattr(cli, "build_graph", counted)
    rc, out, err = run_cli(argv + ["--fixture", "square"], capsys)
    assert (rc, err) == (0, "") and out
    assert len(calls) == 1


def test_the_module_entry_point_exits_with_mains_code(tmp_path):
    # ``python -m gkmcalc.cli`` goes through ``sys.exit(main())``
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    non_class = _write(tmp_path, "bad.json", {"mode": "ktheory", "class": {
        "p0": [], "p1": [["1", [0, 0]]], "p2": []}})
    runs = [
        (0, ["basis", "--fixture", "cp2"], None),
        (2, ["graph", "--fixture", "nope"], "validation"),
        (3, ["index", "--fixture", "cp2", "--class", non_class], "contract"),
        (4, ["graph", "--input", str(tmp_path / "missing.json")], "io"),
    ]
    for code, argv, error in runs:
        done = subprocess.run([sys.executable, "-m", "gkmcalc.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == code, (argv, done.stderr)
        if error is None:
            assert (done.stdout, done.stderr) == (GOLDEN_TRIANGLE_BASIS, "")
        else:
            assert done.stdout == ""
            lines = done.stderr.splitlines()
            assert len(lines) == 1, done.stderr
            assert json.loads(lines[0])["error"] == error


def test_top_level_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gkmcalc")
