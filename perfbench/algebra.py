"""Exact term-dict arithmetic for the benchmark's generator and oracles.

A value is a dict mapping an exponent tuple to a nonzero coefficient: an int
for a K-theory character sum (negative exponents allowed), a Fraction for a
cohomology polynomial.  Addition and multiplication are the same code in both
modes; only the factor attached to a weight differs.  Nothing here imports
gkmcalc, so the generator and the oracles stay independent of the code under
test.
"""

from __future__ import annotations

import math
from fractions import Fraction

K = "ktheory"
H = "cohomology"


def add(a, b, scale=1):
    """a + scale * b."""
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + scale * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def one(rank, mode=K):
    return {(0,) * rank: 1 if mode == K else Fraction(1)}


def factor(mode, w):
    """1 - e^w in K mode, the linear form <w, x> in H mode."""
    n = len(w)
    if mode == K:
        return {(0,) * n: 1, tuple(w): -1}
    return {tuple(int(i == j) for j in range(n)): Fraction(c)
            for i, c in enumerate(w) if c}


def product(mode, rank, weights):
    out = one(rank, mode)
    for w in weights:
        out = mul(out, factor(mode, w))
    return out


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def primitive(v):
    """Primitive integer vector on the ray of a nonzero rational vector."""
    fr = [Fraction(x) for x in v]
    den = 1
    for x in fr:
        den = den * x.denominator // math.gcd(den, x.denominator)
    ints = [int(x * den) for x in fr]
    g = 0
    for x in ints:
        g = math.gcd(g, abs(x))
    if g == 0:
        raise ValueError("zero vector has no direction")
    return tuple(x // g for x in ints)


def fmt_rational(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def to_json(value, mode):
    """The gkmcalc class-file encoding: sorted [coefficient, exponent] pairs."""
    fmt = str if mode == K else fmt_rational
    return [[fmt(c), list(e)] for e, c in sorted(value.items())]


def from_json(items, mode):
    conv = int if mode == K else Fraction
    out = {}
    for c, e in items:
        e = tuple(int(x) for x in e)
        out[e] = out.get(e, 0) + conv(c)
    return {e: c for e, c in out.items() if c}


# ---------------------------------------------------------------------------
# divisibility tests that share no code with gkmcalc's division routines

def k_divisible(value, w):
    """1 - e^w divides a character sum exactly when the coefficients of every
    coset e + Z*w sum to zero."""
    i = next(j for j, x in enumerate(w) if x)
    sums = {}
    for e, c in value.items():
        t = e[i] // w[i]
        rep = tuple(x - t * y for x, y in zip(e, w))
        sums[rep] = sums.get(rep, 0) + c
    return not any(sums.values())


def evaluate(value, point):
    total = Fraction(0)
    for e, c in value.items():
        v = Fraction(c)
        for x, d in zip(point, e):
            if d:
                v *= x ** d
        total += v
    return total


def hyperplane_points(rng, w, count=3):
    """Exact random rational points on the hyperplane <w, x> = 0."""
    n = len(w)
    i = next(j for j, x in enumerate(w) if x)
    pts = []
    for _ in range(count):
        x = [Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 97)) for _ in range(n)]
        x[i] = Fraction(0)
        x[i] = -Fraction(dot(w, x)) / w[i]
        pts.append(tuple(x))
    return pts


def h_divisible(value, w, rng):
    """<w, x> divides a polynomial exactly when it vanishes on the hyperplane;
    tested at exact random rational points of it."""
    return all(evaluate(value, p) == 0 for p in hyperplane_points(rng, w))
