"""Self-tests of the benchmark: generated inputs are sound, no oracle is
vacuous, and job lists are a pure function of the seed.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracle  # noqa: E402
import worker  # noqa: E402

cli = worker.load_cli(SRC)
from gkmcalc.gkm import build_graph  # noqa: E402
from gkmcalc.serialize import toric_input_from_dict  # noqa: E402


@pytest.fixture(scope="module")
def plans(tmp_path_factory):
    out = {}
    for w in gen.WORKLOADS:
        plan = gen.build(w, 7)
        d = str(tmp_path_factory.mktemp(w))
        plan.write(d)
        out[w] = (plan, d)
    return out


def _graphs(plan):
    seen = {}
    for job in plan.jobs + [plan.warmup]:
        g = job.expect.get("graph")
        if g is not None:
            gp = next(a for a in job.argv if a.startswith("@g"))
            seen[gp] = g
    return seen


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_every_polytope_builds_with_vn_over_2_edges(plans, workload):
    plan, _ = plans[workload]
    for name, g in _graphs(plan).items():
        want = len(g.ids) * g.rank // 2
        assert len(g.edges) == want, name
        built = build_graph(toric_input_from_dict(json.loads(plan.files[name[1:]])))
        assert len(built.edges) == want, name


def _flip_first_coefficient(data):
    """Negate the first [coefficient, exponent] pair found, or for a graph
    the first edge weight."""
    if isinstance(data, dict):
        if "edges" in data and "vertices" in data:
            data["edges"][0]["weight"] = [-x for x in data["edges"][0]["weight"]]
            return True
        return any(_flip_first_coefficient(v) for _, v in sorted(data.items()))
    if isinstance(data, list):
        if len(data) == 2 and isinstance(data[0], str) and isinstance(data[1], list):
            data[0] = data[0][1:] if data[0].startswith("-") else "-" + data[0]
            return True
        return any(_flip_first_coefficient(v) for v in data)
    return False


def _run(job, d):
    _, status, text = worker.call(cli, job.argv_in(d), 60)
    assert status == "ok", (job.argv, status)
    return text


def _size(job):
    g = job.expect.get("graph")
    return len(g.ids) if g is not None else 0


def _samples(plan):
    """The smallest job of each kind, mode and command in the plan."""
    out = {}
    for job in sorted(plan.jobs, key=_size):
        out.setdefault((job.kind, job.mode, job.argv[0], "--normalization" in job.argv), job)
    return list(out.values())


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_oracles_accept_outputs_and_reject_a_flipped_coefficient(plans, workload):
    plan, d = plans[workload]
    refs = {j.id: j for j in plan.refs}
    samples = _samples(plan)
    assert samples
    for job in samples:
        text = _run(job, d)
        ref = _run(refs[job.ref], d) if job.ref else None
        assert oracle.check(job, text, ref) is None, job.argv
        data = json.loads(text)
        assert _flip_first_coefficient(data), job.argv
        assert oracle.check(job, json.dumps(data), ref) is not None, job.argv


def test_structure_oracle_rejects_a_flipped_reference_basis(plans):
    plan, d = plans["bases"]
    job = min((j for j in plan.jobs if j.kind == "structure"), key=_size)
    ref = json.loads(_run(next(j for j in plan.refs if j.id == job.ref), d))
    _flip_first_coefficient(ref)
    assert oracle.check(job, _run(job, d), json.dumps(ref)) is not None


def _digest(workload, seed, hashseed):
    code = f"import gen; print(gen.build({workload!r}, {seed}).digest())"
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    return subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_job_list(workload):
    a = _digest(workload, 3, 1)
    assert a == _digest(workload, 3, 2)
    assert a != _digest(workload, 4, 1)


def test_job_over_the_cap_is_a_failure(plans):
    plan, d = plans["skeleton"]
    signal.signal(signal.SIGALRM, worker._on_alarm)
    job = max(plan.jobs, key=_size)
    dt, status, _ = worker.call(cli, job.argv_in(d), 0.01)
    assert status.startswith("over the") and dt < 5
