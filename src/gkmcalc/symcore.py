"""Exact arithmetic backbone.

Weights are integer tuples.  ``LaurentPoly`` models finite character sums
(exponent vector -> integer coefficient, negative exponents allowed),
``PolyH`` models polynomials with exact rational coefficients (multidegree ->
Fraction).  ``LocalizedSum`` models sums of fractions whose denominators are
products of the factor attached to a weight w: ``1 - e^w`` in K mode and the
linear form ``w`` in H mode.  Reduction brings everything over a least common
denominator and cancels factor by factor with the two exact division
routines; there is deliberately no general multivariate gcd.  It serves the
local indices and path sums; the global indices expand in the flow-up duals
instead and keep reduction only as a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


# ---------------------------------------------------------------------------
# weight vectors (plain int tuples)

def wt_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def wt_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def wt_neg(a):
    return tuple(-x for x in a)


def wt_scale(a, k):
    return tuple(k * x for x in a)


def wt_dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def wt_is_zero(a):
    return all(x == 0 for x in a)


def wt_gcd(a):
    g = 0
    for x in a:
        g = math.gcd(g, abs(x))
    return g


def wt_primitive(a):
    """Split a nonzero integer vector as g * u with u primitive, g > 0."""
    g = wt_gcd(a)
    if g == 0:
        raise ValueError("zero vector has no primitive part")
    return tuple(x // g for x in a), g


def is_primitive(a):
    return wt_gcd(a) == 1


def rational_primitive(a):
    """Write a nonzero rational vector as scale * u with u a primitive
    integer vector and scale a positive Fraction."""
    denom = 1
    for x in a:
        f = Fraction(x)
        denom = denom * f.denominator // math.gcd(denom, f.denominator)
    ints = tuple(int(Fraction(x) * denom) for x in a)
    u, g = wt_primitive(ints)
    return u, Fraction(g, denom)


def canonical_sign(a):
    """Return (w, s) with s in {+1,-1}, w = s*a and the first nonzero
    coordinate of w positive."""
    for x in a:
        if x > 0:
            return tuple(a), 1
        if x < 0:
            return wt_neg(a), -1
    raise ValueError("zero vector has no canonical sign")


def wt_lift(a, extra=1):
    """Append ``extra`` zero coordinates."""
    return tuple(a) + (0,) * extra


# ---------------------------------------------------------------------------
# small exact matrices (tuples of row tuples)

def mat_from_cols(cols):
    rows = len(cols[0])
    return tuple(tuple(c[i] for c in cols) for i in range(rows))


def mat_vec(m, v):
    return tuple(sum(r[i] * v[i] for i in range(len(v))) for r in m)


def mat_mul(a, b):
    cols = len(b[0])
    return tuple(
        tuple(sum(ra[k] * b[k][j] for k in range(len(b))) for j in range(cols))
        for ra in a
    )


def mat_det(m):
    """Determinant by fraction Gaussian elimination; exact."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] * inv
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    return det


def mat_inv_unimodular(m):
    """Inverse of an integer matrix with determinant +-1, as integer rows."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    out = []
    for row in a:
        ints = []
        for x in row[n:]:
            if x.denominator != 1:
                raise ValueError("matrix is not unimodular")
            ints.append(int(x))
        out.append(tuple(ints))
    return tuple(out)


# ---------------------------------------------------------------------------
# Laurent character sums over Z

class LaurentPoly:
    """Finite sum of integer multiples of formal exponentials e^v."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank, terms=None):
        self.rank = rank
        clean = {}
        for e, c in (terms or {}).items():
            if c:
                e = tuple(e)
                if len(e) != rank:
                    raise ValueError("exponent rank mismatch")
                clean[e] = c
        self.terms = clean

    @classmethod
    def zero(cls, rank):
        return cls(rank)

    @classmethod
    def one(cls, rank):
        return cls(rank, {(0,) * rank: 1})

    @classmethod
    def monomial(cls, expo, coeff=1):
        return cls(len(expo), {tuple(expo): coeff})

    @classmethod
    def one_minus(cls, w):
        """The factor 1 - e^w."""
        return cls(len(w), {(0,) * len(w): 1, tuple(w): -1})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly(self.rank, {(0,) * self.rank: other})
        return isinstance(other, LaurentPoly) and self.rank == other.rank \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.rank, frozenset(self.terms.items())))

    def _coerce(self, other):
        if isinstance(other, int):
            return LaurentPoly(self.rank, {(0,) * self.rank: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if other.rank != self.rank:
            raise ValueError("rank mismatch")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(self.rank, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.rank, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = wt_add(e1, e2)
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(self.rank, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers unsupported")
        result = LaurentPoly.one(self.rank)
        for _ in range(k):
            result = result * self
        return result

    def apply_matrix(self, m):
        """Push exponents through v -> m @ v; m may change the rank."""
        out = {}
        for e, c in self.terms.items():
            ne = mat_vec(m, e)
            out[ne] = out.get(ne, 0) + c
        return LaurentPoly(len(m), out)

    def drop_last_coordinate(self):
        """Set the last exponent coordinate to zero, then forget it."""
        out = {}
        for e, c in self.terms.items():
            ne = e[:-1]
            out[ne] = out.get(ne, 0) + c
        return LaurentPoly(self.rank - 1, out)

    def eval_at(self, base, xi):
        """Specialize e^v -> base ** <v, xi>; base a nonzero Fraction."""
        total = Fraction(0)
        for e, c in self.terms.items():
            total += c * (Fraction(base) ** wt_dot(e, xi))
        return total

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "LaurentPoly(0)"
        bits = [f"{c}*e{list(e)}" for e, c in self.sorted_terms()]
        return "LaurentPoly(" + " + ".join(bits) + ")"


# ---------------------------------------------------------------------------
# polynomials with rational coefficients

class PolyH:
    """Polynomial in x1..xk with Fraction coefficients, dense multidegrees."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank, terms=None):
        self.rank = rank
        clean = {}
        for e, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                e = tuple(e)
                if len(e) != rank or any(d < 0 for d in e):
                    raise ValueError("bad multidegree")
                clean[e] = c
        self.terms = clean

    @classmethod
    def zero(cls, rank):
        return cls(rank)

    @classmethod
    def one(cls, rank):
        return cls(rank, {(0,) * rank: Fraction(1)})

    @classmethod
    def constant(cls, rank, c):
        return cls(rank, {(0,) * rank: Fraction(c)})

    @classmethod
    def linear_form(cls, w):
        """The degree one polynomial <w, x>."""
        rank = len(w)
        terms = {}
        for i, c in enumerate(w):
            if c:
                e = tuple(1 if j == i else 0 for j in range(rank))
                terms[e] = Fraction(c)
        return cls(rank, terms)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolyH.constant(self.rank, other)
        return isinstance(other, PolyH) and self.rank == other.rank \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.rank, frozenset(self.terms.items())))

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return PolyH.constant(self.rank, other)
        if not isinstance(other, PolyH):
            return NotImplemented
        if other.rank != self.rank:
            raise ValueError("rank mismatch")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return PolyH(self.rank, out)

    __radd__ = __add__

    def __neg__(self):
        return PolyH(self.rank, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = wt_add(e1, e2)
                out[e] = out.get(e, 0) + c1 * c2
        return PolyH(self.rank, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        result = PolyH.one(self.rank)
        for _ in range(k):
            result = result * self
        return result

    def homogeneous_degree(self):
        """Total degree if homogeneous, None for 0 or mixed degrees."""
        degs = {sum(e) for e in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_integral(self):
        return all(c.denominator == 1 for c in self.terms.values())

    def constant_value(self):
        """The value of a constant polynomial, else None."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and (0,) * self.rank in self.terms:
            return self.terms[(0,) * self.rank]
        return None

    def drop_last_variable(self):
        """Substitute 0 for the last variable, then forget it."""
        out = {}
        for e, c in self.terms.items():
            if e[-1] == 0:
                out[e[:-1]] = c
        return PolyH(self.rank - 1, out)

    def eval_at(self, point):
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, d in zip(point, e):
                if d:
                    v *= Fraction(x) ** d
            total += v
        return total

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "PolyH(0)"
        bits = [f"{c}*x^{list(e)}" for e, c in self.sorted_terms()]
        return "PolyH(" + " + ".join(bits) + ")"


# ---------------------------------------------------------------------------
# exact division routines

def divide_by_cyclotomic(p, w):
    """Exact division of p by (1 - e^w); returns the quotient or None.

    The exponents of p fall into coset chains e + Z*w, positioned by a pivot
    coordinate of w.  Along a chain the quotient is the running sum of the
    coefficients of p, so the chain divides exactly iff its total is 0.
    """
    if wt_is_zero(w):
        raise ValueError("zero weight")
    if p.is_zero():
        return p
    pivot = next(i for i, c in enumerate(w) if c)
    step = w[pivot]
    chains = {}
    for e, c in p.terms.items():
        k = e[pivot] // step
        base = tuple(x - k * y for x, y in zip(e, w))
        chains.setdefault(base, []).append((k, c))
    out = {}
    for base, chain in chains.items():
        chain.sort()
        total = 0
        for (k, c), (k_next, _) in zip(chain, chain[1:]):
            total += c
            if total:
                for j in range(k, k_next):
                    out[tuple(x + j * y for x, y in zip(base, w))] = total
        if total + chain[-1][1]:
            return None
    return LaurentPoly(p.rank, out)


def divide_by_linear_form(p, w):
    """Exact division of p by the linear form <w, x>; quotient or None."""
    if wt_is_zero(w):
        raise ValueError("zero weight")
    if p.is_zero():
        return p
    pivot = next(i for i, c in enumerate(w) if c)
    wpoly = PolyH.linear_form(w)
    inv = Fraction(1, w[pivot])
    quot = PolyH.zero(p.rank)
    rem = p
    while True:
        top = max((e[pivot] for e in rem.terms), default=0)
        if top == 0:
            break
        slice_terms = {}
        for e, c in rem.terms.items():
            if e[pivot] == top:
                ne = tuple(d - 1 if i == pivot else d for i, d in enumerate(e))
                slice_terms[ne] = c * inv
        piece = PolyH(p.rank, slice_terms)
        quot = quot + piece
        rem = rem - piece * wpoly
    if rem.is_zero():
        return quot
    return None


def substitution_matrix(basis, images, rank):
    """Integer matrix of the linear map sending basis[i] -> images[i].

    The basis must be a lattice basis (determinant +-1); images may live in a
    different rank, including zero vectors.
    """
    if len(basis) != rank:
        raise ValueError("basis size must equal the ambient rank")
    bmat = mat_from_cols(basis)
    if abs(mat_det(bmat)) != 1:
        raise ValueError("basis is not unimodular")
    binv = mat_inv_unimodular(bmat)
    if len(images) != rank:
        raise ValueError("need one image per basis vector")
    rank_out = len(images[0])
    if any(len(v) != rank_out for v in images):
        raise ValueError("images of unequal rank")
    amat = mat_from_cols(images)
    return mat_mul(amat, binv)


def substitute_linear(p, basis, images):
    """Ring map on character sums induced by the lattice map basis -> images."""
    m = substitution_matrix(basis, images, p.rank)
    return p.apply_matrix(m)


def substitute_linear_h(p, basis, images):
    """Same substitution on the polynomial side: variables map to the linear
    forms prescribed by basis -> images."""
    m = substitution_matrix(basis, images, p.rank)
    rank_out = len(m)
    var_images = [
        PolyH.linear_form(tuple(m[r][t] for r in range(rank_out)))
        for t in range(p.rank)
    ]
    result = PolyH.zero(rank_out)
    for e, c in p.terms.items():
        term = PolyH.constant(rank_out, c)
        for t, d in enumerate(e):
            if d:
                term = term * var_images[t] ** d
        result = result + term
    return result


# ---------------------------------------------------------------------------
# localized sums

@dataclass(frozen=True)
class Irreducible:
    """A fraction left over after all possible factor cancellations."""
    numerator: object
    denominator: tuple  # sorted ((weight, multiplicity), ...)
    mode: str


class LocalizedSum:
    """Sum of numerator / product-of-weight-factors terms.

    Every denominator weight is stored with its first nonzero coordinate
    positive; flipping a factor's sign multiplies the numerator by -e^w in
    K mode (1 - e^-w = -e^-w (1 - e^w)) and by -1 in H mode.
    """

    def __init__(self, mode, rank):
        if mode not in ("K", "H"):
            raise ValueError("mode must be 'K' or 'H'")
        self.mode = mode
        self.rank = rank
        self.terms = []

    def _zero(self):
        return LaurentPoly.zero(self.rank) if self.mode == "K" else PolyH.zero(self.rank)

    def _factor(self, w):
        if self.mode == "K":
            return LaurentPoly.one_minus(w)
        return PolyH.linear_form(w)

    def add_term(self, numer, weights):
        den = {}
        for w in weights:
            w = tuple(w)
            if len(w) != self.rank:
                raise ValueError("weight rank mismatch")
            wc, s = canonical_sign(w)
            if s < 0:
                if self.mode == "K":
                    numer = numer * LaurentPoly.monomial(wc, -1)
                else:
                    numer = numer * Fraction(-1)
            den[wc] = den.get(wc, 0) + 1
        if numer.is_zero():
            return
        self.terms.append((numer, den))

    def reduce(self):
        """Common denominator, sum, then cancel factors one at a time."""
        if not self.terms:
            return self._zero()
        lcd = {}
        for _, den in self.terms:
            for w, m in den.items():
                lcd[w] = max(lcd.get(w, 0), m)
        total = self._zero()
        for numer, den in self.terms:
            extra = numer
            for w, m in lcd.items():
                for _ in range(m - den.get(w, 0)):
                    extra = extra * self._factor(w)
            total = total + extra
        if total.is_zero():
            return total
        divide = divide_by_cyclotomic if self.mode == "K" else divide_by_linear_form
        remaining = dict(lcd)
        for w in sorted(lcd):
            while remaining[w] > 0:
                quot = divide(total, w)
                if quot is None:
                    break
                total = quot
                remaining[w] -= 1
        remaining = {w: m for w, m in remaining.items() if m}
        if remaining:
            return Irreducible(total, tuple(sorted(remaining.items())), self.mode)
        return total

    # numeric specialization, used as an independent oracle in the tests
    def eval_k(self, base, xi):
        if self.mode != "K":
            raise ValueError("K specialization on an H sum")
        total = Fraction(0)
        for numer, den in self.terms:
            val = numer.eval_at(base, xi)
            for w, m in den.items():
                d = 1 - Fraction(base) ** wt_dot(w, xi)
                if d == 0:
                    raise ValueError("specialization point kills a denominator")
                val /= d ** m
            total += val
        return total

    def eval_h(self, point):
        if self.mode != "H":
            raise ValueError("H specialization on a K sum")
        total = Fraction(0)
        for numer, den in self.terms:
            val = numer.eval_at(point)
            for w, m in den.items():
                d = Fraction(wt_dot(w, point))
                if d == 0:
                    raise ValueError("specialization point kills a denominator")
                val /= d ** m
            total += val
        return total
