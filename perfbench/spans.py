"""Per-layer spans for the traced run, recorded from outside the program.

``Tracer.install`` wraps the public functions named in ``TARGETS`` and
rebinds each wrapper under every name that holds the original in any loaded
``gkmcalc`` module (``ktheory`` holds its own ``divide_by_cyclotomic``, the
CLI its own ``build_graph``), and wraps ``LocalizedSum.reduce`` on the class.
Spans (name, start, end, parent, job) are kept in flat arrays and written out
by ``dump``; self time is a span's duration minus the time its child spans
cover, accumulated as spans close.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from array import array
from time import perf_counter

TARGETS = {
    "cli": ["main"],
    "serialize": ["load_toric_input", "load_class_file", "dumps"],
    "gkm": ["build_graph", "detect_edges", "flow_face", "upward_closure"],
    "symcore": ["divide_by_cyclotomic", "divide_by_linear_form",
                "substitute_linear", "substitute_linear_h"],
    "ktheory": ["local_index_k", "poincare_dual_k", "icanonical_basis_k",
                "point_normalized_basis_k", "expand_in_basis", "structure_constants",
                "atiyah_segal_index"],
    "cohomology": ["abbv_index", "local_index_h", "icanonical_basis_h", "gt_class", "theta"],
    "kirwan": ["reduced_fixed_data", "kirwan_restrict_all"],
}


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ix = array("H")  # index into self.names
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.job_id = -1
        self._stack = []
        self._child = []
        self.self_s = {}
        self.calls = {}
        self.counts = {"divide_by_cyclotomic.failed": 0, "divide_by_linear_form.failed": 0,
                       "local_index_k.nonzero": 0, "reduce.lcd_factors_max": 0,
                       "detect_edges.subsets": 0, "dumps.bytes": 0}

    def _span(self, name, fn, after=None):
        ix = len(self.names)
        self.names.append(name)
        self.self_s[name] = 0.0
        self.calls[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.start)
            self.name_ix.append(ix)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.job.append(self.job_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(sid)
            self._child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                child = self._child.pop()
                self.start[sid] = t0
                self.end[sid] = t1
                self.self_s[name] += (t1 - t0) - child
                self.calls[name] += 1
                if self._child:
                    self._child[-1] += t1 - t0
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after(self, fname):
        c = self.counts
        if fname in ("divide_by_cyclotomic", "divide_by_linear_form"):
            key = fname + ".failed"

            def after(_args, result):
                if result is None:
                    c[key] += 1
            return after
        if fname == "local_index_k":
            def after(_args, result):
                if not result.is_zero():
                    c["local_index_k.nonzero"] += 1
            return after
        if fname == "detect_edges":
            def after(args, _result):
                c["detect_edges.subsets"] += math.comb(len(args[1]), args[0])
            return after
        if fname == "dumps":
            def after(_args, result):
                c["dumps.bytes"] += len(result.encode())
            return after
        return None

    def install(self):
        mods = {k: v for k, v in sys.modules.items()
                if k == "gkmcalc" or k.startswith("gkmcalc.")}
        for layer, fnames in TARGETS.items():
            home = mods["gkmcalc." + layer]
            for fname in fnames:
                orig = getattr(home, fname)
                wrapped = self._span(f"{layer}.{fname}", orig, self._after(fname))
                for mod in mods.values():
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)
        cls = mods["gkmcalc.symcore"].LocalizedSum

        def count_factors(args, _result):
            weights = {w for _, den in args[0].terms for w in den}
            c = self.counts
            c["reduce.lcd_factors_max"] = max(c["reduce.lcd_factors_max"], len(weights))
        cls.reduce = self._span("symcore.reduce", cls.reduce, count_factors)

    def dump(self, path):
        """Write the spans: a JSON header line, then one line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["name", "start", "end", "parent", "job"]}) + "\n")
            for row in zip(self.name_ix, self.start, self.end, self.parent, self.job):
                fh.write("%d %.9f %.9f %d %d\n" % row)

    def metrics(self):
        """Per-layer figures over everything traced so far."""
        s, n, c = self.self_s, self.calls, self.counts
        div_calls = n["symcore.divide_by_cyclotomic"] + n["symcore.divide_by_linear_form"]
        div_failed = c["divide_by_cyclotomic.failed"] + c["divide_by_linear_form.failed"]
        out = {
            "symcore.reduce.calls": (n["symcore.reduce"], "count"),
            "symcore.reduce.self_s": (s["symcore.reduce"], "s"),
            "symcore.reduce.lcd_factors_max": (c["reduce.lcd_factors_max"], "count"),
            "symcore.substitute.calls": (n["symcore.substitute_linear"]
                                         + n["symcore.substitute_linear_h"], "count"),
            "symcore.substitute.self_s": (s["symcore.substitute_linear"]
                                          + s["symcore.substitute_linear_h"], "s"),
            "symcore.division_success_ratio": (
                (div_calls - div_failed) / div_calls if div_calls else 0.0, "ratio"),
            "gkm.detect_edges.subsets": (c["detect_edges.subsets"], "count"),
            "ktheory.local_index_k.nonzero_ratio": (
                c["local_index_k.nonzero"] / n["ktheory.local_index_k"]
                if n["ktheory.local_index_k"] else 0.0, "ratio"),
            "serialize.bytes_out": (c["dumps.bytes"], "bytes"),
            "cli.main.calls": (n["cli.main"], "count"),
            "cli.self_s": (s["cli.main"], "s"),
        }
        for div in ("divide_by_cyclotomic", "divide_by_linear_form"):
            out[f"symcore.{div}.calls"] = (n["symcore." + div], "count")
            out[f"symcore.{div}.failed"] = (c[div + ".failed"], "count")
            out[f"symcore.{div}.self_s"] = (s["symcore." + div], "s")
        for name in ("gkm.build_graph", "gkm.detect_edges", "gkm.flow_face",
                     "gkm.upward_closure", "ktheory.local_index_k", "ktheory.expand_in_basis",
                     "cohomology.local_index_h", "cohomology.gt_class", "cohomology.theta"):
            out[name + ".calls"] = (n[name], "count")
            out[name + ".self_s"] = (s[name], "s")
        for name in ("ktheory.poincare_dual_k", "ktheory.icanonical_basis_k",
                     "ktheory.point_normalized_basis_k", "ktheory.structure_constants",
                     "ktheory.atiyah_segal_index", "cohomology.abbv_index",
                     "cohomology.icanonical_basis_h", "kirwan.reduced_fixed_data",
                     "kirwan.kirwan_restrict_all", "serialize.load_toric_input",
                     "serialize.load_class_file", "serialize.dumps"):
            out[name + ".self_s"] = (s[name], "s")
        return out
