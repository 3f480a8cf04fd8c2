"""Seeded inputs for the gkmcalc benchmark.

Polytopes are simplices (CP^m), the trapezoids F_k with vertices (0,0),
(1,0), (1,1), (0,k+1), and products of these; their edges are known from
the product structure.  ``MomentGraph`` orients such a polytope along a
direction xi and computes, with its own exact span-closure code, the indices,
flow-up faces and flow-up duals eta_p that the oracles rely on.  Nothing here
imports gkmcalc, so a job list is a pure function of the workload and the
seed, identical at every commit of the program.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from fractions import Fraction

import algebra as alg
from algebra import H, K


# ---------------------------------------------------------------------------
# polytopes

class Polytope:
    def __init__(self, rank, verts, edges):
        self.rank = rank
        self.verts = [tuple(Fraction(x) for x in v) for v in verts]
        self.edges = {frozenset(e) for e in edges}  # vertex index pairs


def simplex(m):
    verts = [(0,) * m] + [tuple(int(i == j) for j in range(m)) for i in range(m)]
    return Polytope(m, verts, itertools.combinations(range(m + 1), 2))


def trapezoid(k):
    return Polytope(2, [(0, 0), (1, 0), (1, 1), (0, k + 1)],
                    [(0, 1), (0, 3), (1, 2), (2, 3)])


def product(a, b):
    nb = len(b.verts)
    verts = [u + v for u in a.verts for v in b.verts]
    edges = [(i * nb + j, i2 * nb + j) for e in a.edges for i, i2 in [tuple(e)]
             for j in range(nb)]
    edges += [(i * nb + j, i * nb + j2) for i in range(len(a.verts))
              for e in b.edges for j, j2 in [tuple(e)]]
    return Polytope(a.rank + b.rank, verts, edges)


def polytope(spec):
    """``cp<m>``, ``F<k>`` and ``cube<n>`` factors joined by ``*``."""
    out = None
    for name in spec.split("*"):
        if name.startswith("cube"):
            parts = [simplex(1)] * int(name[4:])
        elif name.startswith("cp"):
            parts = [simplex(int(name[2:]))]
        elif name.startswith("F"):
            parts = [trapezoid(int(name[1:]))]
        else:
            raise ValueError(f"unknown factor {name!r}")
        for p in parts:
            out = p if out is None else product(out, p)
    return out


def random_unimodular(rng, n, max_entry=3):
    """A random integer matrix of determinant +-1 with small entries."""
    while True:
        a = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(n + 1):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        rng.shuffle(a)
        a = [[-x for x in row] if rng.random() < 0.5 else row for row in a]
        if max(abs(x) for row in a for x in row) <= max_entry:
            return a


# ---------------------------------------------------------------------------
# oriented moment graphs

def _rank(vectors):
    rows = [[Fraction(x) for x in v] for v in vectors]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


class MomentGraph:
    """A Delzant polytope with vertex ids, oriented along a generic xi."""

    def __init__(self, rank, ids, psis, edges, xi):
        self.rank = rank
        self.ids = list(ids)
        self.psi = dict(zip(ids, psis))
        self.edges = {frozenset((ids[i], ids[j])) for i, j in map(tuple, edges)}
        self.xi = tuple(xi)
        self.nbrs = {v: [] for v in ids}
        for e in self.edges:
            a, b = tuple(e)
            self.nbrs[a].append(b)
            self.nbrs[b].append(a)
        for v in ids:
            self.nbrs[v].sort()
        self.mu = {v: alg.dot(self.psi[v], xi) for v in ids}
        self.order = sorted(ids, key=self.mu.get)
        self.wplus = {q: sorted(self.label(o, q) for o in self.nbrs[q]
                                if self.mu[o] < self.mu[q]) for q in ids}
        self.wminus = {q: sorted(self.label(o, q) for o in self.nbrs[q]
                                 if self.mu[o] > self.mu[q]) for q in ids}

    def label(self, a, b):
        """Primitive direction of psi(b) - psi(a)."""
        return alg.primitive([y - x for x, y in zip(self.psi[a], self.psi[b])])

    def is_generic(self):
        return len(set(self.mu.values())) == len(self.ids) and all(
            alg.dot(self.label(*tuple(e)), self.xi) != 0 for e in self.edges)

    def lam(self, q):
        return len(self.wplus[q])

    def index_increasing(self):
        return all(self.lam(a) != self.lam(b) for a, b in map(tuple, self.edges))

    def face_up(self, p):
        """Vertices reached from p along edges inside the span of the
        weights pointing up from p."""
        gens = self.wminus[p]
        base = _rank(gens) if gens else 0
        reach, stack = {p}, [p]
        while stack:
            v = stack.pop()
            for o in self.nbrs[v]:
                if o not in reach and gens and _rank(gens + [self.label(v, o)]) == base:
                    reach.add(o)
                    stack.append(o)
        return reach

    def dual(self, p, mode):
        """eta_p: on the flow-up face of p, the product of the factors of the
        edges leaving the face; zero off it."""
        face = self.face_up(p)
        return {q: (alg.product(mode, self.rank,
                                [self.label(o, q) for o in self.nbrs[q] if o not in face])
                    if q in face else {}) for q in self.ids}

    def euler(self, q, mode):
        return alg.product(mode, self.rank, self.wplus[q])

    def to_json(self, explicit=True):
        data = {"rank": self.rank,
                "vertices": [{"id": v, "psi": [alg.fmt_rational(x) for x in self.psi[v]]}
                             for v in self.ids]}
        if explicit:
            data["edges"] = sorted(sorted(e) for e in self.edges)
            data["xi"] = list(self.xi)
        return data


def oriented(rng, spec, want_ii=None):
    """The polytope of ``spec`` in standard coordinates with a seeded generic
    xi, resampled until the index-increasing property is ``want_ii``."""
    p = polytope(spec)
    ids = [f"v{i}" for i in range(len(p.verts))]
    edges = [tuple(e) for e in p.edges]
    for _ in range(10000):
        xi = [rng.randint(-30, 30) for _ in range(p.rank)]
        g = MomentGraph(p.rank, ids, p.verts, edges, xi)
        if g.is_generic() and (want_ii is None or g.index_increasing() == want_ii):
            return g
    raise RuntimeError(f"no suitable direction for {spec}")


def disguised(rng, spec, s=1):
    """The polytope of ``spec`` dilated by ``s``, moved by a seeded GL(n,Z)
    change of coordinates and an integer translation, with its vertices
    listed in shuffled order and no edges or xi."""
    p = polytope(spec)
    n = p.rank
    a = random_unimodular(rng, n)
    t = [rng.randint(-5, 5) for _ in range(n)]
    pos = list(range(len(p.verts)))
    rng.shuffle(pos)
    psis = [None] * len(pos)
    for i, v in enumerate(p.verts):
        psis[pos[i]] = tuple(Fraction(s) * alg.dot(row, v) + c for row, c in zip(a, t))
    edges = [(pos[i], pos[j]) for i, j in map(tuple, p.edges)]
    return MomentGraph(n, [f"v{i}" for i in range(len(pos))], psis, edges, (0,) * n)


# ---------------------------------------------------------------------------
# classes

def rand_k(rng, rank):
    """A small Laurent polynomial: one or two terms, exponents in [-1, 1]."""
    out = {}
    for _ in range(rng.randint(1, 2)):
        e = tuple(rng.randint(-1, 1) for _ in range(rank))
        out[e] = out.get(e, 0) + rng.choice((-3, -2, -1, 1, 2, 3))
    return {e: c for e, c in out.items() if c} or {(0,) * rank: 1}


def rand_h(rng, rank, deg):
    """A homogeneous polynomial of degree ``deg`` with one or two terms."""
    out = {}
    for _ in range(rng.randint(1, 2)):
        e = [0] * rank
        for _ in range(deg):
            e[rng.randrange(rank)] += 1
        c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2)))
        out[tuple(e)] = out.get(tuple(e), 0) + c
    return {e: c for e, c in out.items() if c} or {(0,) * rank: Fraction(1)}


def coefficient(rng, g, p, mode, degree):
    if mode == K:
        return rand_k(rng, g.rank)
    return rand_h(rng, g.rank, degree - g.lam(p))


def combination(g, coeffs, mode):
    """The class sum of coeffs[p] * eta_p."""
    c = {q: {} for q in g.ids}
    for p, a in coeffs.items():
        eta = g.dual(p, mode)
        for q in g.ids:
            if eta[q]:
                c[q] = alg.add(c[q], alg.mul(a, eta[q]))
    return c


def class_json(c, mode):
    return {"mode": mode, "class": {q: alg.to_json(v, mode) for q, v in sorted(c.items())}}


def kirwan_covector(rng, g):
    """A covector with a unique top vertex, no level edge at it and a free
    circle action at every reduced point, with the expected reduced data."""
    for _ in range(10000):
        pi = tuple(rng.randint(-4, 4) for _ in range(g.rank))
        vals = {v: alg.dot(g.psi[v], pi) for v in g.ids}
        best = max(vals.values())
        tops = [v for v in g.ids if vals[v] == best]
        if len(tops) != 1:
            continue
        top = tops[0]
        inc = [(o, g.label(o, top)) for o in g.nbrs[top]]
        pair = [alg.dot(w, pi) for _, w in inc]
        if 0 in pair:
            continue
        points = []
        for i, (src, vi) in enumerate(inc):
            others = [(pair[t], vt) for t, (_, vt) in enumerate(inc) if t != i]
            if any(c % pair[i] for c, _ in others):
                break
            residual = [tuple(x - (c // pair[i]) * y for x, y in zip(vt, vi)) for c, vt in others]
            if abs(_det(residual + [vi])) != 1:
                break
            points.append({"source": src, "edge_weight": vi, "residual": residual})
        else:
            return pi, top, points
    raise RuntimeError("no free covector found")


def _det(cols):
    n = len(cols)
    a = [[Fraction(cols[j][i]) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


# ---------------------------------------------------------------------------
# job lists

class Job:
    """One CLI call.  ``argv`` names input files as ``@name``; ``expect``
    carries what the oracle needs; ``ref`` names a job whose output the
    oracle also reads."""

    def __init__(self, jid, kind, mode, argv, expect, ref=None):
        self.id = jid
        self.kind = kind
        self.mode = mode
        self.argv = argv
        self.expect = expect
        self.ref = ref

    def argv_in(self, workdir):
        return [os.path.join(workdir, a[1:]) if a.startswith("@") else a for a in self.argv]


class Plan:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.files = {}
        self.jobs = []
        self.refs = []  # untimed jobs whose output an oracle reads
        self.warmup = None

    def add_file(self, name, data):
        self.files[name] = json.dumps(data, sort_keys=True)
        return "@" + name

    def add(self, kind, mode, argv, expect, ref=None):
        self.jobs.append(Job(f"j{len(self.jobs):03d}", kind, mode, argv, expect, ref))

    def add_ref(self, argv):
        job = Job(f"r{len(self.refs):03d}", "basis", K, argv, {})
        self.refs.append(job)
        return job.id

    def digest(self):
        blob = json.dumps({"files": self.files,
                           "jobs": [[j.id, j.kind, j.mode, j.argv, j.ref]
                                    for j in self.jobs + self.refs]},
                          sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def write(self, workdir):
        os.makedirs(workdir, exist_ok=True)
        for name, text in self.files.items():
            with open(os.path.join(workdir, name), "w") as fh:
                fh.write(text)


def _interleave(groups):
    """Round-robin over job groups in proportion to their sizes, so every
    stretch of the cycle carries roughly the whole mix."""
    keyed = []
    for g in groups:
        for i, item in enumerate(g):
            keyed.append(((i + 0.5) / len(g), len(keyed), item))
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [item for _, _, item in keyed]


# A shape is a polytope spec, or a function of the copy index that gives one,
# so every round holds the same trapezoids F_k; the seed moves coordinates,
# orientations and classes only.
def _fk(template):
    return lambda i: template.format(a=1 + i % 3, b=1 + (i + 1) % 3)


# (shape, copies per round).  Sorted by time the groups are (8,3), (8,4),
# (9,4), (10,5), (12,4), (16,4) in (vertices, rank): the median falls inside
# the CP2xCP2 group and p90 inside the 12-vertex group, never on a boundary.
SKELETON_MIX = [
    ("cube3", 12), (_fk("F{a}*cp1"), 12), ("cp3*cp1", 14), ("cp2*cp2", 24),
    ("cp4*cp1", 20), (_fk("F{a}*cp2"), 7), ("cp2*cube2", 7),
    ("cube4", 2), (_fk("F{a}*F{b}"), 2),
]
DILATIONS = (Fraction(1), Fraction(2), Fraction(3, 2), Fraction(1), Fraction(5, 3))

# (shape, mode, copies per round).  Sorted by time, the CP^5 H jobs sit at
# ranks 85-94 of 100 so that p90 falls inside them; the CP^5 K jobs above
# them carry most of the time.
PUSHFORWARD_MIX = [(shape, mode, 7) for shape in (
    "cp3", "cp4", "cube4", "cp2*cp2", _fk("F{a}*cp1"), _fk("F{a}*cp2")) for mode in (K, H)]
PUSHFORWARD_MIX += [("cp5", K, 6), ("cp5", H, 10)]

# Half of the shapes are never index increasing, so the K bases take the
# inductive path on them.  Each heavy job gets its own oriented instance, so
# the orientation-dependent cost of the inductive path averages out.
BASES_SHAPES = [
    (_fk("F{a}"), False), (_fk("F{a}*cp1"), False),
    (_fk("F{a}*cp2"), False), (_fk("F{a}*F{b}"), False),
    ("cube3", True), ("cube4", True), ("cp2*cp2", True), ("cp3*cp1", True),
]
LOCAL_INDEX_PER_SHAPE = 4
KIRWAN_PER_SHAPE = 2


def _spec(shape, i):
    return shape(i) if callable(shape) else shape


def _graph_job(plan, rng, spec, dilation=1):
    g = disguised(rng, spec, dilation)
    gp = plan.add_file(f"g{len(plan.files)}.json", g.to_json(explicit=False))
    return ("graph", None, ["graph", "--input", gp, "--format", "json"], {"graph": g})


def _index_job(plan, rng, spec, mode):
    g = oriented(rng, spec)
    gp = plan.add_file(f"g{len(plan.files)}.json", g.to_json())
    coeffs = {p: coefficient(rng, g, p, mode, g.rank) for p in g.ids}
    cp = plan.add_file(f"c{len(plan.files)}.json", class_json(combination(g, coeffs, mode), mode))
    # Each eta_p has index 1 in K; in H only the point class at the top
    # integrates to a nonzero constant, 1.
    want = {}
    for a in coeffs.values() if mode == K else [coeffs[g.order[-1]]]:
        want = alg.add(want, a)
    return ("index", mode, ["index", "--input", gp, "--class", cp, "--mode", mode,
                            "--format", "json"], {"value": want})


def _local_index_job(plan, rng, g, gp, mode):
    q = rng.choice(g.ids)
    f = rand_k(rng, g.rank) if mode == K else rand_h(rng, g.rank, rng.randint(0, 2))
    cp = plan.add_file(f"c{len(plan.files)}.json", class_json(combination(g, {q: f}, mode), mode))
    return ("local-index", mode, ["local-index", "--input", gp, "--class", cp, "--vertex", q,
                                  "--mode", mode, "--format", "json"], {"value": f})


def _kirwan_job(plan, rng, g, gp):
    pi, top, points = kirwan_covector(rng, g)
    c = combination(g, {p: coefficient(rng, g, p, H, g.rank) for p in g.ids}, H)
    cp = plan.add_file(f"c{len(plan.files)}.json", class_json(c, H))
    return ("kirwan", H, ["kirwan", "--input", gp, "--pi=" + ",".join(map(str, pi)), "--class", cp,
                          "--format", "json"],
            {"graph": g, "top": top, "points": points, "class": c})


def _instance(plan, rng, spec, ii):
    g = oriented(rng, spec, want_ii=ii)
    return g, plan.add_file(f"g{len(plan.files)}.json", g.to_json())


def _bases_heavy(plan, rng, shape, ii):
    """basis (K canonical, K point, H), structure and, on index-increasing
    shapes, gt, each on its own instance of the shape."""
    kinds = ((["basis"], K), (["basis", "--normalization", "point"], K),
             (["basis", "--mode", "cohomology"], H), (["structure"], K), (["gt"], H))
    jobs = []
    for i, (cmd, mode) in enumerate(kinds):
        if cmd == ["gt"] and not ii:
            continue
        g, gp = _instance(plan, rng, _spec(shape, i), ii)
        argv = [cmd[0], "--input", gp] + cmd[1:] + ["--format", "json"]
        if cmd == ["structure"]:
            ref = plan.add_ref(["basis", "--input", gp, "--format", "json"])
            jobs.append(("structure", K, argv, {"graph": g}, ref))
            continue
        # The H basis and gt are the flow-up duals, and so is the canonical K
        # basis of an index-increasing orientation.
        known = mode == H or (cmd == ["basis"] and ii)
        exact = {p: g.dual(p, mode) for p in g.ids} if known else None
        jobs.append(("basis", mode, argv, {"graph": g, "exact": exact}))
    return jobs


def build(workload, seed):
    """The job list of a workload; a pure function of (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    plan = Plan(workload, seed)
    groups = []
    if workload == "skeleton":
        for shape, n in SKELETON_MIX:
            groups.append([_graph_job(plan, rng, _spec(shape, i), DILATIONS[i % len(DILATIONS)])
                           for i in range(n)])
        warm = _graph_job(plan, rng, "cube3")
    elif workload == "pushforward":
        for shape, mode, n in PUSHFORWARD_MIX:
            groups.append([_index_job(plan, rng, _spec(shape, i), mode) for i in range(n)])
        warm = _index_job(plan, rng, "cp3", K)
    elif workload == "bases":
        heavy, light = [], []
        for shape, ii in BASES_SHAPES:
            heavy += _bases_heavy(plan, rng, shape, ii)
            g, gp = _instance(plan, rng, _spec(shape, 0), ii)
            light += [_local_index_job(plan, rng, g, gp, m)
                      for m in (K, H) for _ in range(LOCAL_INDEX_PER_SHAPE)]
            light += [_kirwan_job(plan, rng, g, gp) for _ in range(KIRWAN_PER_SHAPE)]
        groups = [heavy, light]
        g, gp = _instance(plan, rng, "F1", False)
        warm = _local_index_job(plan, rng, g, gp, K)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for item in _interleave(groups):
        plan.add(*item)
    plan.warmup = Job("warmup", *warm)
    return plan


WORKLOADS = ("skeleton", "pushforward", "bases")
