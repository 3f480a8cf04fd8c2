"""Exact arithmetic backbone.

Weights are integer tuples.  ``LaurentPoly`` models finite character sums
(exponent vector -> integer coefficient, negative exponents allowed),
``PolyH`` models polynomials with exact rational coefficients (multidegree ->
Fraction); the two share one arithmetic core.

Inside that core every monomial is one integer key.  Each coordinate of the
exponent vector fills a signed 64-bit field, coordinate 0 in the most
significant one, and carries a bias of 2^63, so that the order of the keys
is the lexicographic order of the exponent tuples.  Multiplying monomials is
adding their keys and taking off one bias; the exact divisions step along a
weight by adding its packed vector, and the shear moves a key the same way.
Only this module knows the format: the constructors take exponent tuples,
and ``sorted_terms``, the JSON and the text forms decode.

No answer is ever wrapped.  Every stored exponent has |e_i| < 2^62
(``LIMIT``), so the sum of two fits a field and no carry crosses into the
next; a constructor given an exponent at or past the limit raises
``ValidationError``.  Each value carries ``top``, an upper bound on its
|e_i|, and arithmetic that would store an exponent at or past the limit
raises ``ContractError``:

* a product whose bound, the sum of its factors', reaches the limit decodes
  its terms and raises if one of them does;
* a shear checks every field it decodes;
* a division raises when its intermediate keys could leave their fields:
  2 top + |w| >= 2^63 for ``1 - e^w``, rank * top >= 2^63 for ``<w, x>``.

No exact division or power builds more than ``TERM_BUDGET`` terms.  Each
counts its terms before it builds one and raises ``ContractError`` past the
budget: a quotient by ``1 - e^w`` from the gaps of its coset chains, a
quotient by ``<w, x>`` from the pivot degrees of its slices, a power of a
linear form with m terms to the d-th as C(d + m - 1, m - 1), and a product
in the shear as the product of its factors' term counts.  Exponents of
a valid class may lie 2^62 apart, so without it a single division could try
to fill a gap of that length.

A coefficient ring, ``K`` for K-theory and ``H`` for cohomology, is what a
construction needs to know about its mode: zero and one, the factor attached
to a weight w (``1 - e^w`` in K, the linear form ``w`` in H), the unit that
flipping the sign of w costs, exact division and the divisibility test, the
shear e -> e - <sigma, e> a that the local index and the Kirwan restriction
apply, and the JSON and text forms of a value.  ``RINGS`` maps the CLI mode
names to the rings.

``LocalizedSum`` (sums of fractions whose denominators are products of
factors, reduced over a least common denominator with the two exact
divisions), ``Irreducible``, ``canonical_sign`` and the general lattice
substitutions ``substitute_linear``/``_h`` have no caller in the program:
the global indices expand in the flow-up duals, the path sums follow a
one-step recursion and the local index is a divided difference of shears.
They stay here because the benchmark's traced run wraps them by name; the
tests use them as independent oracles.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from fractions import Fraction

from .errors import ContractError, ValidationError


# ---------------------------------------------------------------------------
# weight vectors (plain int tuples)

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


def lattice_dual(cols):
    """The rows of R^-1, where R has the given integer columns, when the
    columns form a basis of the lattice (det +-1); None otherwise.  Row i
    pairs to 1 with column i and to 0 with every other column."""
    inv = scaled_inverse(cols)
    return inv[1] if inv is not None and inv[0] == 1 else None


# ---------------------------------------------------------------------------
# packed exponent keys

FIELD = 64
BIAS = 1 << (FIELD - 1)
MASK = (1 << FIELD) - 1
LIMIT = 1 << 62
TERM_BUDGET = 1 << 20


@functools.cache
def _zero_key(rank):
    """The key of the zero exponent vector: every field at its bias."""
    return sum(BIAS << (FIELD * i) for i in range(rank))


@functools.cache
def _fields(rank):
    return struct.Struct(f">{rank}q").unpack


def _pack_delta(v):
    """The unbiased packed vector: key(e) + _pack_delta(v) == key(e + v)
    whenever e and e + v are in range."""
    key = 0
    for x in v:
        key = (key << FIELD) + x
    return key


def _unpack(key, rank):
    """The exponent tuple of a key.  XOR with the biases leaves each field
    in two's complement, so one ``struct`` call reads them all."""
    return _fields(rank)((key ^ _zero_key(rank)).to_bytes(8 * rank, "big"))


def _unit_key(rank, i):
    return 1 << (FIELD * (rank - 1 - i))


def _too_large(what):
    return ContractError(f"{what}: exponent outside the supported range |e| < 2^62")


def _too_many(what):
    return ContractError(f"{what}: more than {TERM_BUDGET} terms")


def _exact_top(p):
    return max((max(map(abs, e), default=0) for e, _ in p.sorted_terms()), default=0)


# ---------------------------------------------------------------------------
# polynomials: one arithmetic core, two coefficient modes

class _Poly:
    """Finite map from packed exponent key to nonzero coefficient, with ring
    arithmetic; scalars of the types in ``scalars`` coerce to constants and
    ``ring`` is the coefficient ring of the subclass.  ``top`` bounds the
    absolute value of every exponent."""

    __slots__ = ("rank", "terms", "top")

    def __init__(self, rank, terms=None):
        self.rank = rank
        self.terms = {}
        zero, top = _zero_key(rank), 0
        for e, c in (terms or {}).items():
            if c:
                e = tuple(e)
                lo, hi = min(e, default=0), max(e, default=0)
                if len(e) != rank or lo < self.lowest:
                    raise ValueError(f"bad exponent {e} for rank {rank}")
                top = max(top, hi, -lo)
                if top >= LIMIT:
                    raise ValidationError(
                        f"exponent {e} is outside the supported range |e| < 2^62")
                self.terms[_pack_delta(e) + zero] = c
        self.top = top

    @classmethod
    def _new(cls, rank, terms, top):
        """Unchecked constructor for keys known to be valid, with a bound on
        their exponents; it takes ownership of ``terms``."""
        p = object.__new__(cls)
        p.rank = rank
        p.terms = terms if all(terms.values()) else {e: c for e, c in terms.items() if c}
        p.top = top
        return p

    @classmethod
    def zero(cls, rank):
        return cls._new(rank, {}, 0)

    @classmethod
    def one(cls, rank):
        return cls._new(rank, {_zero_key(rank): 1}, 0)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, self.scalars):
            other = self._new(self.rank, {_zero_key(self.rank): other}, 0)
        return isinstance(other, type(self)) and self.rank == other.rank \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.rank, frozenset(self.terms.items())))

    def _coerce(self, other):
        if type(other) is type(self):
            if other.rank != self.rank:
                raise ValueError("rank mismatch")
            return other
        if isinstance(other, self.scalars):
            return self._new(self.rank, {_zero_key(self.rank): other}, 0)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return self._new(self.rank, out, max(self.top, other.top))

    __radd__ = __add__

    def __neg__(self):
        return self._new(self.rank, {e: -c for e, c in self.terms.items()}, self.top)

    def __sub__(self, other):
        other = self._coerce(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        zero = _zero_key(self.rank)
        out = {}
        get = out.get
        for e1, c1 in self.terms.items():
            e1 -= zero
            for e2, c2 in other.terms.items():
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        result = self._new(self.rank, out, self.top + other.top)
        if result.top >= LIMIT:
            # every field is a sum of two in-range exponents, so it decodes
            result.top = _exact_top(result)
            if result.top >= LIMIT:
                raise _too_large("product")
        return result

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers unsupported")
        result, base = self.one(self.rank), self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def sorted_terms(self):
        """(exponent tuple, coefficient) pairs in exponent order."""
        return [(_unpack(e, self.rank), c) for e, c in sorted(self.terms.items())]

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
        for e, c in self.sorted_terms():
            ne = mat_vec(m, e)
            out[ne] = out.get(ne, 0) + c
        return LaurentPoly(len(m), out)


class PolyH(_Poly):
    """Polynomial in x1..xk with Fraction coefficients, dense multidegrees."""

    __slots__ = ()
    scalars = (int, Fraction)
    lowest = 0
    symbol = "x^"

    @classmethod
    def constant(cls, rank, c):
        return cls._new(rank, {_zero_key(rank): Fraction(c)}, 0)

    @classmethod
    def linear_form(cls, w):
        """The degree one polynomial <w, x>."""
        rank = len(w)
        zero = _zero_key(rank)
        return cls._new(rank, {zero + _unit_key(rank, i): Fraction(c)
                               for i, c in enumerate(w)}, 1)

    def homogeneous_degree(self):
        """Total degree if homogeneous, None for 0 or mixed degrees."""
        degs = {sum(e) for e, _ in self.sorted_terms()}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_integral(self):
        return all(c.denominator == 1 for c in self.terms.values())

    def constant_value(self):
        """The value of a constant polynomial, else None."""
        if not self.terms:
            return Fraction(0)
        zero = _zero_key(self.rank)
        if len(self.terms) == 1 and zero in self.terms:
            return self.terms[zero]
        return None


# ---------------------------------------------------------------------------
# exact division routines

def _coset_chains(p, w):
    """The terms of p grouped by coset chain e + Z*w, positioned along w by
    the pivot coordinate where |w| is largest: {chain base key: [(position,
    coefficient, key), ...]}, together with whether every chain sums to
    zero.  With that pivot a base coordinate stays below 2 top + |w|, and
    distinct bases have distinct keys while that fits a field."""
    if wt_is_zero(w):
        raise ValueError("zero weight")
    rank = p.rank
    sizes = list(map(abs, w))
    pivot = sizes.index(max(sizes))
    step = w[pivot]
    if 2 * p.top + abs(step) >= BIAS:
        raise _too_large("cyclotomic division")
    shift, delta = FIELD * (rank - 1 - pivot), _pack_delta(w)
    chains, totals = {}, {}
    for e, c in p.terms.items():
        k = (((e >> shift) & MASK) - BIAS) // step
        base = e - k * delta
        chains.setdefault(base, []).append((k, c, e))
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
    before any quotient term is built, and so is the quotient's size: the
    sum of the gaps that a nonzero running sum spans.  The quotient's terms
    lie between terms of p on their chain, so p's bound holds for them.
    """
    chains, divisible = _coset_chains(p, w)
    if not divisible:
        return None
    runs, size = [], 0
    for chain in chains.values():
        chain.sort()
        total = 0
        for (k, c, e), (k_next, _, _) in zip(chain, chain[1:]):
            total += c
            if total:
                runs.append((e, total, k_next - k))
                size += k_next - k
    if size > TERM_BUDGET:
        raise _too_many("cyclotomic division")
    delta = _pack_delta(w)
    out = {}
    for e, total, gap in runs:
        for _ in range(gap):
            out[e] = total
            e += delta
    return LaurentPoly._new(p.rank, out, p.top)


def divide_by_linear_form(p, w):
    """Exact division of p by the linear form <w, x>; quotient or None.

    With x_i the first variable of w and r the rest of the form, p is cut
    into slices p_d by the degree d in x_i.  From the top slice down, the
    quotient's slice q_(d-1) is (p_d - r q_d) / w_i, and p divides exactly
    when p_0 - r q_0 is zero; where r q_d is zero the walk jumps to the next
    nonempty slice.  A term of degree d in x_i reaches at most C(d - 1 + m,
    m) quotient terms, m the number of variables in r, and their sum is
    checked against the budget first.  No intermediate exponent exceeds the
    total degree of p, at most rank * top; an exact quotient keeps p's bound."""
    if wt_is_zero(w):
        raise ValueError("zero weight")
    if p.is_zero():
        return p
    rank = p.rank
    if rank * p.top >= BIAS:
        raise _too_large("linear form division")
    pivot = next(i for i, c in enumerate(w) if c)
    inv = Fraction(1, w[pivot])
    shift = FIELD * (rank - 1 - pivot)
    unit = 1 << shift
    rest = [(_unit_key(rank, i), c) for i, c in enumerate(w) if c and i != pivot]
    slices = {}
    for e, c in p.terms.items():
        slices.setdefault(((e >> shift) & MASK) - BIAS, {})[e] = c
    m = len(rest)
    if p.top and len(p.terms) * math.comb(p.top - 1 + m, m) > TERM_BUDGET \
            and sum(len(s) * math.comb(d - 1 + m, m) for d, s in slices.items() if d) > TERM_BUDGET:
        raise _too_many("linear form division")
    quot = {}
    carry = {}  # r q_d, taken off the slice of degree d
    d = max(slices)
    while True:
        cur = slices.get(d, {})
        for e, c in carry.items():
            v = cur.get(e, 0) - c
            if v:
                cur[e] = v
            else:
                cur.pop(e, None)
        if d == 0:
            return None if cur else PolyH._new(rank, quot, p.top)
        carry = {}
        for e, c in cur.items():
            qe = e - unit
            quot[qe] = qc = c * inv
            for u, wi in rest:
                ne = qe + u
                carry[ne] = carry.get(ne, 0) + wi * qc
        d = d - 1 if carry or d - 1 in slices else max((k for k in slices if k < d), default=0)


# ---------------------------------------------------------------------------
# lattice substitutions

def shear_exponents(p, sigma, a):
    """The ring map e^v -> e^(v - <sigma, v> a) on character sums.

    Each term is decoded once; its key moves by <sigma, v> packed copies of
    a, and every field it lands on is checked against the limit.
    """
    rank = p.rank
    delta = _pack_delta(a)
    out, top = {}, 0
    for e, c in p.terms.items():
        v = _unpack(e, rank)
        s = wt_dot(sigma, v)
        if s:
            v = [x - s * y for x, y in zip(v, a)]
            e -= s * delta
        size = max(map(abs, v), default=0)
        if size >= LIMIT:
            raise _too_large("shear")
        top = max(top, size)
        out[e] = out.get(e, 0) + c
    return LaurentPoly._new(rank, out, top)


def shear_variables(p, sigma, a):
    """The same map on polynomials: x_t -> x_t - sigma_t <a, x>, the
    variables with sigma_t = 0 fixed.  The powers of each image are built
    once per call; a power's term count, C(d + m - 1, m - 1) for an image of
    m terms, and a product's, at most the product of its factors' counts,
    are checked against the budget before it is built."""
    rank = p.rank
    images = {t: PolyH.linear_form(tuple(int(i == t) - s * y for i, y in enumerate(a)))
              for t, s in enumerate(sigma) if s}
    powers = {}
    out, top = {}, 0
    for e, c in p.sorted_terms():
        fixed = tuple(0 if t in images else d for t, d in enumerate(e))
        term = PolyH(rank, {fixed: c})
        for t, d in enumerate(e):
            if d and t in images:
                if (t, d) not in powers:
                    m = len(images[t].terms)
                    if m and math.comb(d + m - 1, m - 1) > TERM_BUDGET:
                        raise _too_many("shear")
                    powers[t, d] = images[t] ** d
                if len(term.terms) * len(powers[t, d].terms) > TERM_BUDGET:
                    raise _too_many("shear")
                term = term * powers[t, d]
        for k, v in term.terms.items():
            out[k] = out.get(k, 0) + v
        top = max(top, term.top)
    return PolyH._new(rank, out, top)


def substitution_matrix(basis, images, rank):
    """Integer matrix of the linear map sending basis[i] -> images[i].

    The basis must be a lattice basis (determinant +-1); images may live in a
    different rank, including zero vectors.
    """
    if len(basis) != rank:
        raise ValueError("basis size must equal the ambient rank")
    dual = lattice_dual(basis)
    if dual is None:
        raise ValueError("basis is not unimodular")
    if len(images) != rank:
        raise ValueError("need one image per basis vector")
    rank_out = len(images[0])
    if any(len(v) != rank_out for v in images):
        raise ValueError("images of unequal rank")
    return mat_mul(mat_from_cols(images), dual)


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
    for e, c in p.sorted_terms():
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
    to zero on a space of larger dimension.  Division and the shear look
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

    def shear(self, p, sigma, a):
        """The lattice map v -> v - <sigma, v> a applied to p."""
        return shear_exponents(p, sigma, a)


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

    def shear(self, p, sigma, a):
        """The lattice map v -> v - <sigma, v> a applied to p."""
        return shear_variables(p, sigma, a)


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
