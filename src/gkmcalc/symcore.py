"""Exact arithmetic backbone.

Weights are integer tuples.  ``LaurentPoly`` models finite character sums
(exponent vector -> integer coefficient, negative exponents allowed),
``PolyH`` models polynomials with exact rational coefficients (multidegree ->
Fraction); the two share one arithmetic core.

A coefficient ring, ``K`` for K-theory and ``H`` for cohomology, is what a
construction needs to know about its mode: zero and one, the factor attached
to a weight w (``1 - e^w`` in K, the linear form ``w`` in H), the unit that
flipping the sign of w costs, exact division and the divisibility test,
linear substitution, and the JSON and text forms of a value.  ``RINGS`` maps
the CLI mode names to the rings.

``LocalizedSum`` models sums of fractions whose denominators are products of
factors.  Reduction brings everything over a least common denominator and
cancels factor by factor with the two exact division routines; there is
deliberately no general multivariate gcd.  It serves the test oracles and
the benchmark tracer only: the global indices expand in the flow-up duals,
the path sums follow a one-step recursion and the local index is a divided
difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError


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


def parse_rational(x):
    """An int or a string in integer, "p/q" or plain decimal notation, as a
    Fraction.  Exponent notation is refused: ``Fraction`` would expand
    "1e100000000" digit by digit."""
    if isinstance(x, bool):
        raise ValidationError("booleans are not rationals")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str) and "e" not in x.lower():
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValidationError(f"bad rational {x!r}")


def parse_int(x):
    """An int or an integer string; floats and booleans are refused."""
    if type(x) is int:
        return x
    if isinstance(x, str):
        try:
            return int(x)
        except ValueError:
            pass
    raise ValidationError(f"bad integer {x!r}")


def format_rational(f):
    f = Fraction(f)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


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


def scaled_inverse(cols):
    """(D, rows) with D = |det R| > 0 and rows the integer matrix D * R^-1,
    where R has the given integer columns; None when R is singular.

    Fraction-free Gauss-Jordan elimination (Bareiss): every division is
    exact and the final pivot is +-det R.
    """
    n = len(cols)
    m = [[c[i] for c in cols] + [int(i == j) for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            return None
        m[k], m[piv] = m[piv], m[k]
        pk = m[k][k]
        for r in range(n):
            if r != k:
                f = m[r][k]
                m[r] = [(pk * x - f * y) // prev for x, y in zip(m[r], m[k])]
        prev = pk
    sign = 1 if prev > 0 else -1
    return abs(prev), tuple(tuple(sign * x for x in row[n:]) for row in m)


def is_lattice_basis(cols):
    """Whether the integer vectors form a basis of the lattice (det +-1)."""
    inv = scaled_inverse(cols)
    return inv is not None and inv[0] == 1


# ---------------------------------------------------------------------------
# polynomials: one arithmetic core, two coefficient modes

class _Poly:
    """Finite map from exponent tuple to nonzero coefficient, with ring
    arithmetic; scalars of the types in ``scalars`` coerce to constants and
    ``ring`` is the coefficient ring of the subclass."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank, terms=None):
        self.rank = rank
        self.terms = {}
        for e, c in (terms or {}).items():
            if c:
                e = tuple(e)
                if len(e) != rank or min(e, default=0) < self.lowest:
                    raise ValueError(f"bad exponent {e} for rank {rank}")
                self.terms[e] = c

    @classmethod
    def _new(cls, rank, terms):
        """Unchecked constructor for exponents known to be valid."""
        p = object.__new__(cls)
        p.rank = rank
        p.terms = {e: c for e, c in terms.items() if c}
        return p

    @classmethod
    def zero(cls, rank):
        return cls._new(rank, {})

    @classmethod
    def one(cls, rank):
        return cls._new(rank, {(0,) * rank: 1})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, self.scalars):
            other = self._new(self.rank, {(0,) * self.rank: other})
        return isinstance(other, type(self)) and self.rank == other.rank \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.rank, frozenset(self.terms.items())))

    def _coerce(self, other):
        if isinstance(other, self.scalars):
            return self._new(self.rank, {(0,) * self.rank: other})
        if not isinstance(other, type(self)):
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
        return self._new(self.rank, out)

    __radd__ = __add__

    def __neg__(self):
        return self._new(self.rank, {e: -c for e, c in self.terms.items()})

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
        return self._new(self.rank, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers unsupported")
        result = self.one(self.rank)
        for _ in range(k):
            result = result * self
        return result

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        bits = [f"{c}*{self.symbol}{list(e)}" for e, c in self.sorted_terms()]
        return f"{type(self).__name__}({' + '.join(bits) or 0})"


class LaurentPoly(_Poly):
    """Finite sum of integer multiples of formal exponentials e^v."""

    __slots__ = ()
    scalars = (int,)
    lowest = -math.inf
    symbol = "e"

    @classmethod
    def monomial(cls, expo, coeff=1):
        return cls(len(expo), {tuple(expo): coeff})

    @classmethod
    def one_minus(cls, w):
        """The factor 1 - e^w."""
        return cls(len(w), {(0,) * len(w): 1, tuple(w): -1})

    def apply_matrix(self, m):
        """Push exponents through v -> m @ v; m may change the rank."""
        out = {}
        for e, c in self.terms.items():
            ne = mat_vec(m, e)
            out[ne] = out.get(ne, 0) + c
        return LaurentPoly._new(len(m), out)

    def eval_at(self, base, xi):
        """Specialize e^v -> base ** <v, xi>; base a nonzero Fraction."""
        total = Fraction(0)
        for e, c in self.terms.items():
            total += c * (Fraction(base) ** wt_dot(e, xi))
        return total


class PolyH(_Poly):
    """Polynomial in x1..xk with Fraction coefficients, dense multidegrees."""

    __slots__ = ()
    scalars = (int, Fraction)
    lowest = 0
    symbol = "x^"

    @classmethod
    def constant(cls, rank, c):
        return cls._new(rank, {(0,) * rank: Fraction(c)})

    @classmethod
    def linear_form(cls, w):
        """The degree one polynomial <w, x>."""
        rank = len(w)
        return cls._new(rank, {tuple(int(j == i) for j in range(rank)): Fraction(c)
                               for i, c in enumerate(w)})

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

    def eval_at(self, point):
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, d in zip(point, e):
                if d:
                    v *= Fraction(x) ** d
            total += v
        return total


# ---------------------------------------------------------------------------
# exact division routines

def _coset_chains(p, w):
    """The terms of p grouped by coset chain e + Z*w, positioned by a pivot
    coordinate of w: {chain base: [(position, coefficient), ...]}, together
    with whether every chain sums to zero."""
    if wt_is_zero(w):
        raise ValueError("zero weight")
    pivot = next(i for i, c in enumerate(w) if c)
    step = w[pivot]
    chains, totals = {}, {}
    for e, c in p.terms.items():
        k = e[pivot] // step
        base = tuple(x - k * y for x, y in zip(e, w))
        chains.setdefault(base, []).append((k, c))
        totals[base] = totals.get(base, 0) + c
    return chains, not any(totals.values())


def cyclotomic_divides(p, w):
    """Whether (1 - e^w) divides p: every coset chain sums to zero.  No
    quotient is built, so the cost does not grow with exponent gaps."""
    return _coset_chains(p, w)[1]


def divide_by_cyclotomic(p, w):
    """Exact division of p by (1 - e^w); returns the quotient or None.

    Along a coset chain the quotient is the running sum of the coefficients
    of p, so the chain divides exactly iff its total is 0; that is checked
    before any quotient term is built.
    """
    chains, divisible = _coset_chains(p, w)
    if not divisible:
        return None
    out = {}
    for base, chain in chains.items():
        chain.sort()
        total = 0
        for (k, c), (k_next, _) in zip(chain, chain[1:]):
            total += c
            if total:
                for j in range(k, k_next):
                    out[tuple(x + j * y for x, y in zip(base, w))] = total
    return LaurentPoly._new(p.rank, out)


def divide_by_linear_form(p, w):
    """Exact division of p by the linear form <w, x>; quotient or None.

    With x_i the first variable of w and r the rest of the form, p is cut
    into slices p_d by the degree d in x_i.  From the top slice down, the
    quotient's slice q_(d-1) is (p_d - r q_d) / w_i, and p divides exactly
    when p_0 - r q_0 is zero."""
    if wt_is_zero(w):
        raise ValueError("zero weight")
    if p.is_zero():
        return p
    pivot = next(i for i, c in enumerate(w) if c)
    inv = Fraction(1, w[pivot])
    rest = [(i, c) for i, c in enumerate(w) if c and i != pivot]
    slices = {}
    for e, c in p.terms.items():
        slices.setdefault(e[pivot], {})[e] = c
    quot = {}
    carry = {}  # r q_d, taken off the slice of degree d
    for d in range(max(slices), -1, -1):
        cur = slices.get(d, {})
        for e, c in carry.items():
            v = cur.get(e, 0) - c
            if v:
                cur[e] = v
            else:
                cur.pop(e, None)
        if d == 0:
            return None if cur else PolyH._new(p.rank, quot)
        carry = {}
        for e, c in cur.items():
            qe = e[:pivot] + (d - 1,) + e[pivot + 1:]
            quot[qe] = qc = c * inv
            for i, wi in rest:
                ne = qe[:i] + (qe[i] + 1,) + qe[i + 1:]
                carry[ne] = carry.get(ne, 0) + wi * qc


def substitution_matrix(basis, images, rank):
    """Integer matrix of the linear map sending basis[i] -> images[i].

    The basis must be a lattice basis (determinant +-1); images may live in a
    different rank, including zero vectors.
    """
    if len(basis) != rank:
        raise ValueError("basis size must equal the ambient rank")
    inv = scaled_inverse(basis)
    if inv is None or inv[0] != 1:
        raise ValueError("basis is not unimodular")
    if len(images) != rank:
        raise ValueError("need one image per basis vector")
    rank_out = len(images[0])
    if any(len(v) != rank_out for v in images):
        raise ValueError("images of unequal rank")
    return mat_mul(mat_from_cols(images), inv[1])


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
# coefficient rings

class _Ring:
    """What a construction needs to know about its coefficient mode.

    ``name`` is the CLI mode, ``mode`` the ``LocalizedSum`` tag, ``poly``
    the value class; ``graded`` rings have a degree, so a class integrates
    to zero on a space of larger dimension.  Division and substitution look
    their routines up by module-global name at call time.
    """

    def zero(self, rank):
        return self.poly.zero(rank)

    def one(self, rank):
        return self.poly.one(rank)

    def to_terms(self, p):
        """JSON form: sorted [coefficient string, exponent list] pairs."""
        return [[self.format_coeff(c), list(e)] for e, c in p.sorted_terms()]

    def from_terms(self, rank, items):
        return self.poly(rank, {tuple(parse_int(x) for x in e): self.parse_coeff(c)
                                for c, e in items})

    def fmt(self, p):
        """Text form: signed terms in exponent order, unit factors omitted."""
        out = ""
        for e, c in p.sorted_terms():
            mono, a = self.fmt_monomial(e), abs(c)
            piece = str(a) if mono == "1" else mono if a == 1 else f"{a}*{mono}"
            sign = "-" if c < 0 else "+"
            out = f"{out} {sign} {piece}" if out else ("-" if c < 0 else "") + piece
        return out or "0"


class _KRing(_Ring):
    name, mode, poly, graded = "ktheory", "K", LaurentPoly, False
    format_coeff = staticmethod(str)

    parse_coeff = staticmethod(parse_int)

    @staticmethod
    def fmt_monomial(e):
        return "e[" + ",".join(map(str, e)) + "]" if any(e) else "1"

    def factor(self, w):
        return LaurentPoly.one_minus(w)

    def flip(self, w):
        """1 - e^-w = -e^-w (1 - e^w): the unit -e^w moves to the numerator."""
        return LaurentPoly.monomial(w, -1)

    def divide(self, p, w):
        return divide_by_cyclotomic(p, w)

    def divides(self, p, w):
        return cyclotomic_divides(p, w)

    def substitute(self, p, basis, images):
        return substitute_linear(p, basis, images)


class _HRing(_Ring):
    name, mode, poly, graded = "cohomology", "H", PolyH, True
    format_coeff = staticmethod(format_rational)
    parse_coeff = staticmethod(parse_rational)

    @staticmethod
    def fmt_monomial(e):
        return "*".join(f"x{i + 1}" + (f"^{d}" if d > 1 else "")
                        for i, d in enumerate(e) if d) or "1"

    def factor(self, w):
        return PolyH.linear_form(w)

    def flip(self, w):
        return PolyH.constant(len(w), -1)

    def divide(self, p, w):
        return divide_by_linear_form(p, w)

    def divides(self, p, w):
        return divide_by_linear_form(p, w) is not None

    def substitute(self, p, basis, images):
        return substitute_linear_h(p, basis, images)


K, H = _KRing(), _HRing()
RINGS = {"ktheory": K, "cohomology": H}
LaurentPoly.ring, PolyH.ring = K, H


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
    positive; flipping a factor's sign multiplies the numerator by the
    ring's unit for it.
    """

    def __init__(self, mode, rank):
        self.ring = {"K": K, "H": H}.get(mode)
        if self.ring is None:
            raise ValueError("mode must be 'K' or 'H'")
        self.mode = mode
        self.rank = rank
        self.terms = []

    def add_term(self, numer, weights):
        den = {}
        for w in weights:
            w = tuple(w)
            if len(w) != self.rank:
                raise ValueError("weight rank mismatch")
            wc, s = canonical_sign(w)
            if s < 0:
                numer = numer * self.ring.flip(wc)
            den[wc] = den.get(wc, 0) + 1
        if numer.is_zero():
            return
        self.terms.append((numer, den))

    def reduce(self):
        """Common denominator, sum, then cancel factors one at a time."""
        ring = self.ring
        if not self.terms:
            return ring.zero(self.rank)
        lcd = {}
        for _, den in self.terms:
            for w, m in den.items():
                lcd[w] = max(lcd.get(w, 0), m)
        total = ring.zero(self.rank)
        for numer, den in self.terms:
            extra = numer
            for w, m in lcd.items():
                for _ in range(m - den.get(w, 0)):
                    extra = extra * ring.factor(w)
            total = total + extra
        if total.is_zero():
            return total
        remaining = dict(lcd)
        for w in sorted(lcd):
            while remaining[w] > 0:
                quot = ring.divide(total, w)
                if quot is None:
                    break
                total = quot
                remaining[w] -= 1
        remaining = {w: m for w, m in remaining.items() if m}
        if remaining:
            return Irreducible(total, tuple(sorted(remaining.items())), self.mode)
        return total

    # numeric specialization, used as an independent oracle in the tests
    def _eval(self, mode, value, factor):
        if self.mode != mode:
            raise ValueError(f"{mode} specialization of a {self.mode} mode sum")
        total = Fraction(0)
        for numer, den in self.terms:
            val = value(numer)
            for w, m in den.items():
                d = factor(w)
                if d == 0:
                    raise ValueError("specialization point kills a denominator")
                val /= d ** m
            total += val
        return total

    def eval_k(self, base, xi):
        return self._eval("K", lambda p: p.eval_at(base, xi),
                          lambda w: 1 - Fraction(base) ** wt_dot(w, xi))

    def eval_h(self, point):
        return self._eval("H", lambda p: p.eval_at(point),
                          lambda w: Fraction(wt_dot(w, point)))
