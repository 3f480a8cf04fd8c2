"""Runs gkmcalc CLI jobs in-process, one at a time, in a fresh interpreter.

    python3 worker.py setup <src> <argv...>   import gkmcalc.cli, run one job
    python3 worker.py loop <spec.json>        the timed closed loop

The loop calls ``gkmcalc.cli.main(argv)`` with stdout captured and times only
that call.  A job over the per-job cap is interrupted by SIGALRM and recorded
as failed.  The first output of each job is written to the output directory
for the oracles; later runs of the same job must reproduce it byte for byte.
Nothing is checked here: the oracles run in the parent process afterwards.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
from time import perf_counter


class JobTimeout(BaseException):
    """Raised by the per-job alarm; a BaseException so no handler in the
    program under test can swallow it."""


def _on_alarm(_signum, _frame):
    raise JobTimeout()


def load_cli(src):
    sys.path.insert(0, src)
    import gkmcalc.cli as cli
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"gkmcalc imported from {cli.__file__}, not from {src}")
    return cli


def call(cli, argv, cap):
    """(seconds, status, stdout text) of one CLI call; status "ok" or why not."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        signal.setitimer(signal.ITIMER_REAL, cap)
        t0 = perf_counter()
        try:
            rc = cli.main(argv)
            status = "ok" if rc == 0 else f"exit {rc}: {err.getvalue().strip()[:200]}"
        except JobTimeout:
            status = f"over the {cap} s cap"
        except SystemExit as exc:
            status = f"exit {exc.code}: {err.getvalue().strip()[:200]}"
        except Exception as exc:  # a crash is a failed job, not a failed run
            status = f"{type(exc).__name__}: {exc}"[:300]
        finally:
            t1 = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
    return t1 - t0, status, out.getvalue()


class Loop:
    def __init__(self, cli, spec):
        self.cli = cli
        self.jobs = spec["jobs"]
        self.cap = spec["cap"]
        self.outdir = spec["outdir"]
        self.records = []  # [job index, seconds, status, traced]
        self.digests = {}

    def run(self, i, traced=False):
        job = self.jobs[i]
        dt, status, text = call(self.cli, job["argv"], self.cap)
        if status == "ok":
            self._keep(job["id"], text)
            digest = hashlib.sha256(text.encode()).hexdigest()
            if self.digests.setdefault(job["id"], digest) != digest:
                status = "output differs from the first run of the job"
        self.records.append([i, dt, status, traced])

    def _keep(self, jid, text):
        if jid not in self.digests:
            with open(os.path.join(self.outdir, jid + ".json"), "w") as fh:
                fh.write(text)

    def run_refs(self, refs):
        """Untimed runs of the jobs whose output the oracles read."""
        for ref in refs:
            _, status, text = call(self.cli, ref["argv"], self.cap)
            if status == "ok":
                self._keep(ref["id"], text)


def main_loop(spec):
    signal.signal(signal.SIGALRM, _on_alarm)
    cli = load_cli(spec["src"])
    call(cli, spec["warmup"], spec["cap"])
    loop = Loop(cli, spec)
    seconds = spec["seconds"]
    n = len(loop.jobs)
    tracer = None
    start = perf_counter()
    if not spec["trace"]:
        # Whole rounds, so every job runs the same number of times, unless a
        # slow program overruns the hard limit.
        while perf_counter() - start < seconds:
            for i in range(n):
                if perf_counter() - start > seconds + spec["overrun"]:
                    break
                loop.run(i)
    else:
        # One round untraced, then the same jobs traced: the per-layer counts
        # repeat exactly for a seed, and the two times give the overhead.
        i = 0
        while i < n and perf_counter() - start < seconds:
            loop.run(i)
            i += 1
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        start = perf_counter()
        for j in range(i):
            if perf_counter() - start > seconds + spec["overrun"]:
                break
            tracer.job_id = j
            loop.run(j, traced=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    loop.run_refs(spec["refs"])
    result = {"records": loop.records, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        result["trace"] = tracer.metrics()
        tracer.dump(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


def main(argv):
    if argv[:1] == ["setup"]:
        signal.signal(signal.SIGALRM, _on_alarm)
        _, status, _ = call(load_cli(argv[1]), argv[2:], 60)
        return 0 if status == "ok" else 1
    if argv[:1] == ["loop"]:
        with open(argv[1]) as fh:
            main_loop(json.load(fh))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
