"""Exact oracles for the benchmark's jobs.

``check(job, text, ref_text)`` returns None when the CLI output ``text`` is
right and a one-line reason otherwise.  Every check uses the generator's own
moment-graph data and the term-dict arithmetic of ``algebra``; none calls
gkmcalc.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import algebra as alg
from algebra import H, K


def check(job, text, ref_text=None):
    try:
        data = json.loads(text)
    except ValueError:
        return "output is not JSON"
    try:
        return CHECKS[job.kind](job, data, ref_text)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


def _graph(job, data, _ref):
    g = job.expect["graph"]
    got = {frozenset((e["src"], e["dst"])) for e in data["edges"]}
    if got != g.edges:
        return f"edge set differs: {len(got - g.edges)} extra, {len(g.edges - got)} missing"
    xi = data["xi"]
    incoming = {v: 0 for v in g.ids}
    for e in data["edges"]:
        w = tuple(e["weight"])
        if w != g.label(e["src"], e["dst"]) or alg.dot(w, xi) <= 0:
            return f"edge {e['src']}->{e['dst']} has weight {list(w)}"
        incoming[e["dst"]] += 1
    for v in data["vertices"]:
        if v["lambda"] != incoming[v["id"]]:
            return f"vertex {v['id']} has index {v['lambda']}, not {incoming[v['id']]}"
    return None


def _value(job, data, _ref):
    got = alg.from_json(data["value"], job.mode)
    if got != job.expect["value"]:
        return f"value {data['value']} differs from the expected one"
    return None


def _basis_table(data, mode, g):
    basis = data["basis"]
    if set(basis) != set(g.ids):
        return None
    return {p: {q: alg.from_json(basis[p][q], mode) for q in g.ids} for p in g.ids}


def check_basis_class(g, p, c, mode, rng):
    """Kirwan property at p and edge divisibility, or the reason it fails."""
    if c[p] != g.euler(p, mode):
        return f"class {p} is not the Euler class at {p}"
    for q in g.order[:g.order.index(p)]:
        if c[q]:
            return f"class {p} is nonzero at {q}, below {p}"
    for e in g.edges:
        a, b = sorted(e)
        diff = alg.add(c[a], c[b], -1)
        if not diff:
            continue
        w = g.label(a, b)
        ok = alg.k_divisible(diff, w) if mode == K else alg.h_divisible(diff, w, rng)
        if not ok:
            return f"class {p} fails divisibility on {a}-{b}"
    return None


def _basis(job, data, _ref):
    g = job.expect["graph"]
    mode = job.mode
    if data["mode"] != mode:
        return f"basis is in mode {data['mode']}"
    table = _basis_table(data, mode, g)
    if table is None:
        return "basis is not indexed by the vertices"
    rng = random.Random(job.id)
    exact = job.expect.get("exact")
    for p in g.ids:
        bad = check_basis_class(g, p, table[p], mode, rng)
        if bad:
            return bad
        if exact is not None and table[p] != exact[p]:
            return f"class {p} differs from the flow-up dual"
    return None


def _structure(job, data, ref_text):
    """The constants must recombine the canonical basis (the output of the
    reference basis job, itself checked) into every pairwise product."""
    g = job.expect["graph"]
    ref = json.loads(ref_text)
    tau = _basis_table(ref, K, g)
    if tau is None or any(check_basis_class(g, p, tau[p], K, None) for p in g.ids):
        return "reference basis is not a Kirwan basis"
    consts = {}
    for key, terms in data.items():
        pq, r = key.split("->")
        p, q = pq.split("*")
        consts.setdefault((p, q), []).append((r, alg.from_json(terms, K)))
    order = g.order
    for i, p in enumerate(order):
        for q in order[i:]:
            terms = consts.pop((p, q), [])
            for v in g.ids:
                acc = {}
                for r, f in terms:
                    acc = alg.add(acc, alg.mul(f, tau[r][v]))
                if acc != alg.mul(tau[p][v], tau[q][v]):
                    return f"constants of {p}*{q} do not recombine at {v}"
    if consts:
        return f"unexpected pairs {sorted(consts)[:3]}"
    return None


def _kirwan(job, data, _ref):
    """Reduced data as the generator computed it; each reduced value is the
    substitution applied to the class at the lower end of the cut edge (the
    program uses the top end; the two agree because the class is
    divisible along that edge)."""
    ex = job.expect
    if data["top"] != ex["top"]:
        return f"top vertex {data['top']}, expected {ex['top']}"
    want = {pt["source"]: pt for pt in ex["points"]}
    if sorted(p["source"] for p in data["points"]) != sorted(want):
        return "reduced points differ"
    rng = random.Random(job.id)
    n = ex["graph"].rank
    for p in data["points"]:
        w = want[p["source"]]
        if tuple(p["edge_weight"]) != w["edge_weight"]:
            return f"edge weight at {p['id']} differs"
        if sorted(map(tuple, p["residual"])) != sorted(w["residual"]):
            return f"residual weights at {p['id']} differ"
        m = _kill_map(w["residual"], w["edge_weight"])
        value = alg.from_json(p["value"], H)
        source = ex["class"][p["source"]]
        for _ in range(3):
            y = [Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 97)) for _ in range(n)]
            x = [sum(m[r][t] * y[r] for r in range(n)) for t in range(n)]
            if alg.evaluate(value, y) != alg.evaluate(source, x):
                return f"reduced value at {p['id']} differs"
    return None


def _kill_map(residual, v):
    """Matrix of the lattice map fixing each residual weight and sending v
    to 0, as A * B^-1 with B = [residual | v] and A = [residual | 0]."""
    cols = list(residual) + [v]
    n = len(v)
    b = [[Fraction(cols[j][i]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for c in range(n):
        piv = next(r for r in range(c, n) if b[r][c])
        b[c], b[piv] = b[piv], b[c]
        b[c] = [x / b[c][c] for x in b[c]]
        for r in range(n):
            if r != c and b[r][c]:
                b[r] = [x - b[r][c] * y for x, y in zip(b[r], b[c])]
    binv = [row[n:] for row in b]
    a = [[cols[j][i] if j < n - 1 else 0 for j in range(n)] for i in range(n)]
    return [[sum(a[i][k] * binv[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


CHECKS = {
    "graph": _graph,
    "index": _value,
    "local-index": _value,
    "basis": _basis,
    "structure": _structure,
    "kirwan": _kirwan,
}
