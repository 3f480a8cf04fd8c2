"""Closed-loop benchmark of the gkmcalc command line.

    python3 perfbench/run.py --workload skeleton|pushforward|bases \
        --seed N --seconds S --trace 0|1

One client, one process, one thread: a worker interpreter calls
``gkmcalc.cli.main(argv)`` on one job after another, in whole rounds of a job
list that is a pure function of the workload and the seed, until S seconds
have passed.  Inputs are generated here, before the worker starts, and every
output is checked against an exact oracle after it ends, so neither counts
towards the timings or the worker's memory.  ``--trace 1`` instead runs one
round untraced and the same jobs again with per-layer spans.  The last line
of stdout is the JSON result; see README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracle  # noqa: E402

JOB_CAP_S = 10
OVERRUN_S = 30  # a round may end this long after --seconds, never later
SETUP_SAMPLES = 7


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, HERE, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(plan, workdir, env):
    """Median wall time of a fresh interpreter that imports gkmcalc.cli and
    runs the workload's warm-up job.  One untimed start first, so byte-code
    caching is not part of the figure."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "setup", SRC]
    cmd += plan.warmup.argv_in(workdir)
    times = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=60)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr.decode()[-500:]}")
        if i:
            times.append(dt)
    return statistics.median(times)


def run_worker(plan, workdir, env, seconds, trace):
    outdir = os.path.join(workdir, "out")
    os.makedirs(outdir)
    spec = {
        "src": SRC, "cap": JOB_CAP_S, "seconds": seconds, "trace": trace,
        "overrun": OVERRUN_S,
        "outdir": outdir, "result": os.path.join(workdir, "result.json"),
        "spans": os.path.join(WORK, f"spans-{plan.workload}-{plan.seed}.txt"),
        "warmup": plan.warmup.argv_in(workdir),
        "jobs": [{"id": j.id, "argv": j.argv_in(workdir)} for j in plan.jobs],
        "refs": [{"id": j.id, "argv": j.argv_in(workdir)} for j in plan.refs],
    }
    path = os.path.join(workdir, "spec.json")
    with open(path, "w") as fh:
        json.dump(spec, fh)
    limit = 2 * (seconds + OVERRUN_S) + JOB_CAP_S + 30
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "loop", path],
                          env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=limit)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed: {proc.stderr.decode()[-2000:]}")
    with open(spec["result"]) as fh:
        return json.load(fh), outdir


def judge(plan, records, outdir):
    """Mark each record failed or not: the job must have exited 0, and its
    output must pass the oracle (checked once per distinct job)."""
    def text(jid):
        with open(os.path.join(outdir, jid + ".json")) as fh:
            return fh.read()

    def check(job):
        if job.ref and not os.path.exists(os.path.join(outdir, job.ref + ".json")):
            return "reference output missing"
        return oracle.check(job, text(job.id), text(job.ref) if job.ref else None)

    verdict = {}
    failures = []
    for rec in records:
        job = plan.jobs[rec[0]]
        if rec[2] == "ok" and job.id not in verdict:
            verdict[job.id] = check(job)
        why = rec[2] if rec[2] != "ok" else verdict[job.id]
        rec.append(why)
        if why:
            failures.append(f"{job.id} {' '.join(job.argv)}: {why}")
    return failures


def best_latencies(records):
    """Each job's fastest untraced run, job index -> seconds."""
    best = {}
    for i, dt, _status, traced, *_ in records:
        if not traced:
            best[i] = min(dt, best.get(i, dt))
    return best


def end_to_end(records, result, setup_s):
    best = list(best_latencies(records).values())
    return {
        "jobs_per_s": (len(best) / sum(best), "jobs/s"),
        "job_p50_ms": (statistics.median(best) * 1000, "ms"),
        "job_p90_ms": (statistics.quantiles(best, n=10, method="inclusive")[8] * 1000, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def mode_rate(records, plan, mode):
    lat = [r[1] for r in records if plan.jobs[r[0]].mode == mode]
    return len(lat) / sum(lat) if lat else 0.0


def per_layer(plan, records, result):
    plain = [r for r in records if not r[3]]
    traced = [r for r in records if r[3]]
    base = {r[0]: r[1] for r in plain}
    out = dict(result["trace"])
    out["trace.overhead_ratio"] = (sum(r[1] for r in traced)
                                   / sum(base[r[0]] for r in traced), "ratio")
    out["trace.jobs"] = (len(traced), "count")
    out["jobs.ktheory_jobs_per_s"] = (mode_rate(plain, plan, gen.K), "jobs/s")
    out["jobs.cohomology_jobs_per_s"] = (mode_rate(plain, plan, gen.H), "jobs/s")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gkmcalc", "cli.py")):
        print(f"no gkmcalc sources under {SRC}", file=sys.stderr)
        return 2

    plan = gen.build(args.workload, args.seed)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        plan.write(workdir)
        env = worker_env()
        setup_s = None if args.trace else measure_setup(plan, workdir, env)
        result, outdir = run_worker(plan, workdir, env, args.seconds, bool(args.trace))
        records = result["records"]
        failures = judge(plan, records, outdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = per_layer(plan, records, result)
    else:
        metrics = end_to_end(records, result, setup_s)
    for line in failures[:20]:
        print("FAILED", line, file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} runs={len(records)} "
          f"jobs={len(best_latencies(records))}/{len(plan.jobs)} failed={len(failures)} "
          f"digest={plan.digest()[:16]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
