"""Exact arithmetic backbone.

Weights are integer tuples.  ``LaurentPoly`` models finite character sums
(exponent vector -> integer coefficient, negative exponents allowed),
``PolyH`` models polynomials with exact rational coefficients (multidegree ->
int or Fraction); the two share one arithmetic core.  A ``PolyH``
coefficient enters as an int wherever it is an integer: in ``constant``,
``linear_form`` and scalar coercion, the parsed JSON coefficient, the
quotient step of the division by a linear form, and ``scaled``.  Sums and
products of ints stay ints, and an int operation costs a small part of a
``Fraction`` one, so integral inputs never reach ``Fraction`` arithmetic.
Fractions can still add up to an integer (1/2 + 1/2) and stay a Fraction;
an int and a Fraction of equal value compare and hash equal, and
``format_rational`` prints them alike, so the type never shows in a
comparison or an output.

Inside that core every monomial is one integer key.  Each coordinate of the
exponent vector fills a signed 64-bit field, coordinate 0 in the most
significant one, and carries a bias of 2^63, so that the order of the keys
is the lexicographic order of the exponent tuples.  Multiplying monomials is
adding their keys and taking off one bias; the exact divisions step along a
weight by adding its packed vector, and the shear moves a key the same way.
Only this module knows the format: the constructors take exponent tuples,
and ``sorted_terms`` and the text form decode.  The JSON text is written
here too (``json_text``), straight from the sorted keys, each exponent
decoded once per key and indentation in one ``serialize.dumps`` call, and
a class file's table is read here in one pass (``from_table``).  A
coefficient past the interpreter's limit on the digits of an int's string
has neither text form and raises ``ContractError`` (``_too_long``).
``sub_product`` takes a product of values off a plain term dict in place,
the residuals that the triangular expansion keeps.

Each ring's value runs its own kernels as methods: the shear
(``LaurentPoly.shear``, ``PolyH.shear``) and the divisibility test
(``LaurentPoly.divides`` over the coset chains of ``_coset_chains``,
``PolyH.divides`` by a shear onto the hyperplane).  The two exact divisions
stay module functions, ``divide_by_cyclotomic`` and
``divide_by_linear_form``, which ``divide`` calls by module-global name.
The H shear works on the same packed lists: the d-th power of each
variable's image is built once per call from its multinomial expansion
(``_linear_power``), every term of the value is multiplied out against the
powers of its variables as (key offset, coefficient) pairs, and the
products are collected once, over one common denominator.  No polynomial is
multiplied and no value is built per term, so a shear costs about one
operation per product it collects.

No answer is ever wrapped.  Every stored exponent has |e_i| < 2^62
(``LIMIT``), so the sum of two fits a field and no carry crosses into the
next; a constructor given an exponent at or past the limit raises
``ValidationError``.  Each value carries ``top``, an upper bound on its
|e_i|, and arithmetic that would store an exponent at or past the limit
raises ``ContractError``:

* a product whose bound, the sum of its factors', reaches the limit decodes
  its terms and raises if one of them does;
* a K shear checks every field it decodes, and an H shear bounds each
  term by the value's bound plus the term's sheared degree, and where that
  reaches the limit works out the term's largest exponent and raises if it
  does, before any key of it is formed;
* a division raises when its intermediate keys could leave their fields:
  2 top + |w| >= 2^63 for ``1 - e^w``, rank * top >= 2^63 for ``<w, x>``.

No exact division or power builds more than ``TERM_BUDGET`` terms.  Each
counts its terms before it builds one and raises ``ContractError`` past the
budget: a quotient by ``1 - e^w`` from the gaps of its coset chains, a
quotient by ``<w, x>`` from the pivot degrees of its slices, the
restriction that tests divisibility by ``<w, x>`` from the pivot degree of
each term, a power of a linear form with m terms to the d-th as
C(d + m - 1, m - 1), and the products of a shear as the sum over its
terms of the product of their powers' term counts.  The two counts by
pivot degree are worst cases per term, and they also bound the size of the
coefficients, which grow with each term's pivot degree.  A shear counts
the powers it builds the way the divisibility test counts its restriction,
C(d + m - 1, m) for the d-th power of an image of m terms and nothing for
an image +-x_j, so a power whose coefficients would outgrow memory is
refused before it is built.  Where one of these three counts passes the
budget and the value is homogeneous, of degree D in rank n, its terms are
counted again by the size of the answer, the monomials of its degree
(``_past_budget``): at most C(D + n - 2, n - 2) terms on the hyperplane,
C(D + n - 2, n - 1) in the quotient, which the walk's terms, all of degree
D - 1, cannot exceed, and C(D + k - 1, k - 1) in a shear whose images
leave k variables.  Its coefficients are still bounded: the count, by
pivot degree or by power, must stay within ``SIZE_BUDGET`` and D within
the budget.  A value of mixed degrees keeps the worst case.  Exponents of
a valid class may lie 2^62 apart, so without the budget a single division
could try to fill a gap of that length.

Each coefficient ring is one class, ``K = LaurentPoly`` for K-theory and
``H = PolyH`` for cohomology, and holds what a construction needs to know
about its mode: zero and one, the factor attached to a weight w (``1 - e^w``
in K, the linear form ``w`` in H) and the unit that flipping the sign of w
costs, as class methods; exact division by the factors of one or more
weights (``divide(*ws)``, one weight at a time), the divisibility test,
the shear e -> e - <sigma, e> a that the local index and the Kirwan
restriction apply, and the JSON and text forms, as methods of each value,
which also work called on the class (``H.divide(p, w)``).  H tests
divisibility by restricting to the hyperplane <w, x> = 0, K by the coset
sums of ``_coset_chains``; neither builds a quotient.  ``RINGS`` maps
the CLI mode names to the classes.

``LocalizedSum`` (sums of fractions whose denominators are products of
factors, reduced over a least common denominator with the two exact
divisions), ``Irreducible`` and the general lattice substitutions
``substitute_linear``/``_h`` have no caller in the program:
the global indices expand in the flow-up duals, the path sums follow a
one-step recursion and the local index is a divided difference of shears.
They stay here because the benchmark's traced run wraps them by name; the
tests use them as independent oracles.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import struct
import sys
from collections import namedtuple
from fractions import Fraction

from .errors import ContractError, ValidationError


# ---------------------------------------------------------------------------
# weight vectors (plain int tuples)

def wt_sub(a, b):
    return tuple(map(operator.sub, a, b))


def wt_neg(a):
    return tuple(map(operator.neg, a))


def wt_scale(a, k):
    return tuple(k * x for x in a)


def wt_dot(a, b):
    return sum(map(operator.mul, a, b))


def wt_gcd(a):
    return math.gcd(*a)


def wt_primitive(a):
    """Split a nonzero integer vector as g * u with u primitive, g > 0."""
    g = wt_gcd(a)
    if g == 1:
        return tuple(a), 1
    if g == 0:
        raise ValueError("zero vector has no primitive part")
    return tuple(map(g.__rfloordiv__, a)), g


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


def int_or_fraction(x):
    """A rational x as an int when it is an integer, else unchanged."""
    return x.numerator if x.denominator == 1 else x


def parse_exact(x):
    """An int or a string in integer, "p/q" or plain decimal notation, as an
    int when its value is an integer and as a Fraction otherwise.  Exponent
    notation is refused: ``Fraction`` would expand "1e100000000" digit by
    digit.  Plain ASCII integers and "p/q" are read with ``int``, which
    gives the same values as ``Fraction`` on exactly those strings at about
    half its cost; every other string goes to ``Fraction``."""
    if isinstance(x, str):
        num, slash, den = x.partition("/")
        digits = num[1:] if num[:1] in ("-", "+") else num
        try:
            if digits.isascii() and digits.isdigit():
                if not slash:
                    return int(num)
                if den.isascii() and den.isdigit():
                    return int_or_fraction(Fraction(int(num), int(den)))
            if "e" not in x.lower():
                return int_or_fraction(Fraction(x))
        except (ValueError, ZeroDivisionError):
            pass
    elif isinstance(x, bool):
        raise ValidationError("booleans are not rationals")
    elif isinstance(x, int):
        return int(x)
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
    if type(f) is int:
        return int.__repr__(f)
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
SIZE_BUDGET = 1 << 22
_INT, _LIST, _STR = frozenset((int,)), frozenset((list,)), frozenset((str,))


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


def _too_long(what="a coefficient"):
    """A value with a number past the interpreter's limit on the digits of an
    int's string (``sys.set_int_max_str_digits``) has no text form; ``what``
    names the number."""
    return ContractError(f"{what} has more than {sys.get_int_max_str_digits()} digits, "
                         "past the limit of integer string conversion")


def _past_budget(p, count, shift, variables):
    """Whether a worst-case count, by pivot degree or by a shear's powers,
    refuses the H value p.  A count past ``TERM_BUDGET`` refuses a value of
    mixed degrees.  A homogeneous value of degree D is let through while
    its answer, the monomials of degree D + shift in ``variables``
    variables, has at most the budget's terms, and its coefficients stay
    bounded: the count, which sums each term's coefficient growth, at most
    ``SIZE_BUDGET``, and D at most the budget."""
    if count <= TERM_BUDGET:
        return False
    degree = p.homogeneous_degree()
    return (degree is None or count > SIZE_BUDGET or degree > TERM_BUDGET
            or math.comb(degree + shift + variables - 1, variables - 1) > TERM_BUDGET)


def _exact_top(p):
    return max((max(map(abs, e), default=0) for e, _ in p.sorted_terms()), default=0)


# ---------------------------------------------------------------------------
# polynomials: one arithmetic core, two coefficient modes

class _Poly:
    """Finite map from packed exponent key to nonzero coefficient, with ring
    arithmetic; scalars of the types in ``scalars`` coerce to constants.
    ``top`` bounds the absolute value of every exponent.

    Each subclass is a coefficient ring.  ``name`` is its CLI mode, ``mode``
    its ``LocalizedSum`` tag; a ``graded`` ring has a degree, so a class
    integrates to zero on a space of larger dimension.  Division and the
    shear look their routines up by module-global name at call time."""

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
        their exponents; it takes ownership of ``terms``, a term dict that
        sums may have been taken into in place (``sub_product``), and drops
        its zero terms."""
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

    @classmethod
    def constant(cls, rank, c):
        return cls._new(rank, {_zero_key(rank): int_or_fraction(c)}, 0)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, self.scalars):
            other = self.constant(self.rank, other)
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
            return self.constant(self.rank, other)
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
        if other is NotImplemented:
            return other
        out = dict(self.terms)
        get = out.get
        for e, c in other.terms.items():
            out[e] = get(e, 0) - c
        return self._new(self.rank, out, max(self.top, other.top))

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

    def json_text(self, nl, memo):
        """The JSON form, [coefficient string, exponent array] pairs in
        exponent order, as ``json.dumps(..., indent=2)`` lays it out when the
        value opens a line and each of its later lines opens with ``nl``.

        It is written from the sorted keys.  A coefficient string is digits,
        a sign and a slash, so it is quoted without escaping.  The text after
        it, the exponent array with its indentation, is decoded once per
        indentation and key into ``memo``, a dict that lives for one
        ``dumps`` call, under ``nl`` with the other fixed pieces of the
        layout; keys of different ranks differ, as every field is at least
        2^62, so values of any rank share it."""
        terms = self.terms
        if not terms:
            return "[]"
        layout = memo.get(nl)
        if layout is None:
            inner = nl + "  "
            deep = inner + "  "
            layout = memo[nl] = ({}, "[" + deep + '"', '",' + deep, "," + deep + "  ",
                                 deep + "]", inner, "," + inner)
        tails, head, mid, sep, close, inner, comma = layout
        fmt, rank, parts = self.format_coeff, self.rank, []
        for e, c in sorted(terms.items()):
            tail = tails.get(e)
            if tail is None:
                expo = _unpack(e, rank)
                array = "[" + sep[1:] + sep.join(map(int.__repr__, expo)) + close if expo else "[]"
                tail = tails[e] = mid + array + inner + "]"
            try:
                parts.append(head + fmt(c) + tail)
            except ValueError:
                raise _too_long() from None
        return "[" + inner + comma.join(parts) + nl + "]"

    @classmethod
    def from_terms(cls, rank, items):
        """The value of JSON terms, [coefficient, exponent array] pairs, each
        exponent entry read by ``parse_int`` and every term checked by the
        constructor.  A later term with the same exponent replaces an
        earlier one."""
        terms = {}
        for c, e in items:
            if not isinstance(e, (list, tuple)):
                raise ValidationError(f"exponent {e!r} is not an array")
            terms[tuple(map(parse_int, e))] = cls.parse_coeff(c)
        return cls(rank, terms)

    @classmethod
    def from_table(cls, rank, table):
        """The values of a class file's table, {vertex: JSON terms}, read in
        one pass, or None when any value is irregular.

        A regular table has lists of [coefficient string, exponent list]
        pairs, every exponent of ``rank`` plain ints in the ring's range, and
        coefficients that parse.  That is checked by type and length sets
        over all the terms at once; then every exponent of the table is
        packed by one ``struct`` call and keyed by one ``int.from_bytes``
        map.  A value's bound is its largest |e_i|, or where a zero
        coefficient or a repeated exponent dropped a term, the bound of the
        terms that stay.  So every regular table gives the values and bounds
        that ``from_terms`` gives value by value, and on None the caller
        reads the table that way, which raises what it raises."""
        values = list(table.values())
        if not _LIST.issuperset(map(type, values)):
            return None
        items = list(itertools.chain.from_iterable(values))
        if not _LIST.issuperset(map(type, items)) or not {2}.issuperset(map(len, items)):
            return None
        coeffs, exps = zip(*items) if items else ((), ())
        if not _LIST.issuperset(map(type, exps)) or not {rank}.issuperset(map(len, exps)) \
                or not _STR.issuperset(map(type, coeffs)):
            return None
        flat = list(itertools.chain.from_iterable(exps))
        if not _INT.issuperset(map(type, flat)) or flat and (
                min(flat) < max(cls.lowest, 1 - LIMIT) or max(flat) >= LIMIT):
            return None
        try:
            parsed = {c: cls.parse_coeff(c) for c in set(coeffs)}
        except ValueError:
            return None
        coeffs = list(map(parsed.__getitem__, coeffs))
        packed = struct.pack(f">{len(flat)}q", *flat)
        keys = list(map(_zero_key(rank).__xor__, map(
            int.from_bytes, struct.unpack(f"{8 * rank}s" * len(items), packed),
            itertools.repeat("big"))))
        out, i = {}, 0
        for vid, value in zip(table, values):
            j = i + len(value)
            cs = coeffs[i:j]
            terms = dict(zip(keys[i:j], cs))
            p = out[vid] = cls._new(rank, terms, max(map(abs, flat[i * rank:j * rank]), default=0))
            if len(terms) < len(cs) or not all(cs):
                p.top = _exact_top(p)
            i = j
        return out

    def fmt(self):
        """Text form: signed terms in exponent order, unit factors omitted."""
        out = []
        for e, c in self.sorted_terms():
            mono, a = self.fmt_monomial(e), abs(c)
            try:
                piece = str(a) if mono == "1" else mono if a == 1 else f"{a}*{mono}"
            except ValueError:
                raise _too_long() from None
            out.append((" - " if c < 0 else " + ") + piece)
        if not out:
            return "0"
        text = "".join(out)  # one join, where adding each term would copy the text so far
        return ("-" if text[1] == "-" else "") + text[3:]

    def __repr__(self):
        bits = [f"{c}*{self.symbol}{list(e)}" for e, c in self.sorted_terms()]
        return f"{type(self).__name__}({' + '.join(bits) or 0})"


def sub_product(terms, f, factors):
    """Subtract f times the product of ``factors``, a list of values, from
    the term dict ``terms`` in place, and return the product's bound: f's
    plus the factors'.  The factors are multiplied out as a list of (key
    offset, coefficient) pairs, like terms not collected, and each term of
    f is taken off ``terms`` against that list, so no value is built.
    Where the bound reaches the limit the factors are multiplied first and
    then f, each a ``_Poly`` product, which raises as they would, and the
    product's exact bound is returned."""
    zero = _zero_key(f.rank)
    top, prod = f.top, [(0, 1)]
    for b in factors:
        top += b.top
        prod = [(d + e - zero, c * x) for e, x in b.terms.items() for d, c in prod]
    get = terms.get
    if top >= LIMIT:
        prod = f * functools.reduce(operator.mul, factors)
        for e, c in prod.terms.items():
            terms[e] = get(e, 0) - c
        return prod.top
    for e, c in f.terms.items():
        for d, x in prod:
            k = e + d
            terms[k] = get(k, 0) - c * x
    return top


class LaurentPoly(_Poly):
    """Finite sum of integer multiples of formal exponentials e^v: the ring
    ``K``."""

    __slots__ = ()
    name, mode, graded = "ktheory", "K", False
    scalars = (int,)
    lowest = -math.inf
    symbol = "e"
    format_coeff = staticmethod(str)
    parse_coeff = staticmethod(parse_int)

    @staticmethod
    def fmt_monomial(e):
        return "e[" + ",".join(map(str, e)) + "]" if any(e) else "1"

    @classmethod
    def monomial(cls, expo, coeff=1):
        return cls(len(expo), {tuple(expo): coeff})

    @classmethod
    def factor(cls, w):
        """The factor 1 - e^w."""
        return cls(len(w), {(0,) * len(w): 1, tuple(w): -1})

    @classmethod
    def flip(cls, w):
        """1 - e^-w = -e^-w (1 - e^w): the unit -e^w moves to the numerator."""
        return cls.monomial(w, -1)

    def divide(self, *ws):
        return divide_by_cyclotomic(self, *ws)

    def divides(self, w):
        """Whether (1 - e^w) divides the value: every coset chain sums to
        zero (``_coset_chains``).  No quotient is built, so the cost does not
        grow with exponent gaps."""
        return _coset_chains(self, w)[1]

    def shear(self, sigma, a):
        """The ring map e^v -> e^(v - <sigma, v> a).

        Each term is decoded once; its key moves by <sigma, v> packed copies
        of a, and every field it lands on is checked against the limit.
        """
        rank = self.rank
        delta = _pack_delta(a)
        out, top = {}, 0
        for e, c in self.terms.items():
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

    def apply_matrix(self, m):
        """Push exponents through v -> m @ v; m may change the rank."""
        out = {}
        for e, c in self.sorted_terms():
            ne = mat_vec(m, e)
            out[ne] = out.get(ne, 0) + c
        return LaurentPoly(len(m), out)


class PolyH(_Poly):
    """Polynomial in x1..xk with rational coefficients, dense multidegrees:
    the ring ``H``.  ``constant``, ``linear_form``, scalar coercion and
    ``scaled`` store an integral coefficient as an int."""

    __slots__ = ()
    name, mode, graded = "cohomology", "H", True
    scalars = (int, Fraction)
    lowest = 0
    symbol = "x^"
    format_coeff = staticmethod(format_rational)
    parse_coeff = staticmethod(parse_exact)

    @staticmethod
    def fmt_monomial(e):
        return "*".join(f"x{i + 1}" + (f"^{d}" if d > 1 else "")
                        for i, d in enumerate(e) if d) or "1"

    @classmethod
    def linear_form(cls, w):
        """The degree one polynomial <w, x>."""
        rank = len(w)
        zero = _zero_key(rank)
        return cls._new(rank, {zero + _unit_key(rank, i): int_or_fraction(c)
                               for i, c in enumerate(w)}, 1)

    factor = linear_form

    @classmethod
    def flip(cls, w):
        return cls.constant(len(w), -1)

    def divide(self, *ws):
        return divide_by_linear_form(self, *ws)

    def divides(self, w):
        """Whether <w, x> divides the value: its restriction to the
        hyperplane <w, x> = 0, the shear that sends a pivot x_i to
        x_i - <w, x> / w_i, is zero.  No quotient is built.

        The image of x_i is a form in the m other variables of w.  Where it
        is +-x_j, each power of it is one term of coefficient +-1.  Any
        other power of degree d grows its coefficients with d, as the
        quotient's do, so its term counts against the budget as the
        quotient counts it, C(d + m - 1, m), before anything is built.  The
        pivot is one of least count, and among those of least |w_i|.  A
        homogeneous value past the budget by that count is let through
        when its restriction, a form of its degree in rank - 1 variables,
        has at most the budget's terms, its count stays within
        ``SIZE_BUDGET`` and its degree within the budget
        (``_past_budget``)."""
        if not any(w):
            raise ValueError("zero weight")
        support = [i for i, c in enumerate(w) if c]
        m = len(support) - 1
        counts = dict.fromkeys(support, 0)
        if m > 1 or m and abs(w[support[0]]) != abs(w[support[1]]):
            for i in support:
                shift = FIELD * (self.rank - 1 - i)
                counts[i] = sum(math.comb(((e >> shift) & MASK) - BIAS + m - 1, m)
                                for e in self.terms)
        pivot = min(support, key=lambda i: (counts[i], abs(w[i])))
        if _past_budget(self, counts[pivot], 0, self.rank - 1):
            raise _too_many("divisibility test")
        sigma = [0] * self.rank
        sigma[pivot] = int_or_fraction(Fraction(1, w[pivot]))
        return self.shear(sigma, w).is_zero()

    def shear(self, sigma, a):
        """The ring map x_t -> x_t - sigma_t <a, x>, the variables with
        sigma_t = 0 fixed.

        Each image is an int form over a denominator q_t.  The terms are
        staged first: each power of an image that a term needs is recorded
        with its term count, C(d + m - 1, m - 1) for the d-th power of an
        image of m terms, which is checked against the budget, and so is the
        sum over the terms of the product of their powers' counts.  Each
        power is also counted as ``divides`` counts the restriction: an
        image +-x_j grows no coefficient and counts nothing, and the d-th
        power of any other image of m terms counts C(d + m - 1, m).  That
        sum is checked once, after the staging and before any power is
        built, a homogeneous value being let through by the size of its
        answer, the monomials of its degree in the variables that stay
        (``_past_budget``).  Each power is then built from its multinomial
        expansion (``_linear_power``), every staged term is multiplied out
        against its powers as a list of (key offset, coefficient) pairs,
        like ``sub_product``, and all the products are collected once into
        the result.  The coefficients are taken over one common denominator,
        so the sums are of ints, and divided by it at the end.  A term whose
        exponents could reach the limit, the value's bound plus its sheared
        degree, has its true bound worked out first (``_shear_bound``)."""
        rank = self.rank
        units = [_unit_key(rank, i) for i in range(rank)]
        images = []
        for t, st in enumerate(sigma):
            if st:
                image = [-st * y for y in a]
                image[t] += 1
                q = 1
                if type(st) is not int:
                    q = math.lcm(*(c.denominator for c in image))
                    image = [(c * q).numerator for c in image]
                form = [(u, c) for u, c in zip(units, image) if c]
                grows = q != 1 or len(form) != 1 or form[0][1] not in (1, -1)  # not +-x_j
                images.append((FIELD * (rank - 1 - t), q, {}, form, grows))
        staged = []  # (key with the sheared fields at zero, coefficient, (powers, degree) pairs)
        top = products = growth = 0
        for e, c in self.terms.items():
            base, den, deg, size, needs = e, 1, 0, 1, []
            for shift, q, powers, form, grows in images:
                d = ((e >> shift) & MASK) - BIAS
                if d:
                    if not form:
                        break  # the image is zero
                    count = powers.get(d)
                    if count is None:
                        count = powers[d] = math.comb(d + len(form) - 1, len(form) - 1)
                        if count > TERM_BUDGET:
                            raise _too_many("shear")
                        growth += math.comb(d + len(form) - 1, len(form)) if grows else 0
                    size *= count
                    needs.append((powers, d))
                    base -= d << shift
                    deg += d
                    if q != 1:
                        den *= q ** d
            else:
                products += size
                if products > TERM_BUDGET:
                    raise _too_many("shear")
                bound = self.top + deg
                top = max(top, bound if bound < LIMIT else _shear_bound(e, rank, images))
                staged.append((base, c if den == 1 else Fraction(c, den), needs))
        # the answer keeps every variable but a lone sheared x_t with
        # sigma_t a_t = 1, whose image lacks it
        if _past_budget(self, growth, 0, rank - (len(images) == 1 and wt_dot(sigma, a) == 1)):
            raise _too_many("shear")
        for _, _, powers, form, _ in images:
            for d in powers:
                powers[d] = _linear_power(form, d)  # the power in place of its count
        scale = math.lcm(*(c.denominator for _, c, _ in staged))
        out = {}
        get = out.get
        for base, c, needs in staged:
            prod = [(base, c.numerator * (scale // c.denominator))]
            for powers, d in needs:
                prod = [(o + k, y * z) for k, z in powers[d] for o, y in prod]
            for k, y in prod:
                out[k] = get(k, 0) + y
        if scale != 1:
            out = {k: int_or_fraction(Fraction(v, scale)) for k, v in out.items() if v}
        return PolyH._new(rank, out, top)

    def scaled(self, f):
        """The product with the rational f, its integral coefficients ints."""
        return self._new(self.rank, {e: int_or_fraction(c * f) for e, c in self.terms.items()},
                         self.top)

    def cleared(self, d):
        """The product with the int d, a multiple of the denominator of
        every coefficient: an integral value with int coefficients."""
        return self._new(self.rank, {e: c.numerator * (d // c.denominator)
                                     for e, c in self.terms.items()}, self.top)

    def homogeneous_degree(self):
        """Total degree if homogeneous, None for 0 or mixed degrees."""
        degs = {sum(e) for e, _ in self.sorted_terms()}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_integral(self):
        return all(c.denominator == 1 for c in self.terms.values())


K, H = LaurentPoly, PolyH
RINGS = {"ktheory": K, "cohomology": H}


# ---------------------------------------------------------------------------
# exact division routines

def _coset_chains(p, w):
    """The terms of p on their coset chains e + Z*w, positioned along w by
    the pivot coordinate where |w| is largest: a list of (chain base key,
    position, coefficient, key), whether every chain sums to zero, and the
    packed w.  With that pivot a base coordinate stays below 2 top + |w|,
    and distinct bases have distinct keys while that fits a field."""
    if not any(w):
        raise ValueError("zero weight")
    sizes = list(map(abs, w))
    size = max(sizes)
    pivot = sizes.index(size)
    step = w[pivot]
    if 2 * p.top + size >= BIAS:
        raise _too_large("cyclotomic division")
    shift, delta = FIELD * (p.rank - 1 - pivot), _pack_delta(w)
    terms, totals = [], {}
    for e, c in p.terms.items():
        k = (((e >> shift) & MASK) - BIAS) // step
        base = e - k * delta
        terms.append((base, k, c, e))
        totals[base] = totals.get(base, 0) + c
    return terms, not any(totals.values()), delta


def divide_by_cyclotomic(p, *ws):
    """Exact division of p by the product of the (1 - e^w) over the labels
    ``ws``, one label at a time in order; the quotient or None.  Each label
    runs the checks of its own division, so a product of labels raises and
    fails where dividing by them one call at a time would."""
    for w in ws:
        p = _cyclotomic_quotient(p, w)
        if p is None:
            return None
    return p


def _cyclotomic_quotient(p, w):
    """The quotient of p by (1 - e^w), or None.

    Along a coset chain the quotient is the running sum of the coefficients
    of p, so the chain divides exactly iff its total is 0; that is checked
    before any quotient term is built, and so is the quotient's size: the
    sum of the gaps that a nonzero running sum spans.  The quotient's terms
    lie between terms of p on their chain, so p's bound holds for them.
    """
    terms, divisible, delta = _coset_chains(p, w)
    if not divisible:
        return None
    # in chain and position order the running sum is back at 0 at the end
    # of every chain, so it never carries from one chain into the next
    runs, size, total = [], 0, 0
    for _, k, c, e in sorted(terms):
        if total:
            runs.append((last, total, k - at))
            size += k - at
        total += c
        last, at = e, k
    if size > TERM_BUDGET:
        raise _too_many("cyclotomic division")
    out = {}
    for e, total, gap in runs:
        for _ in range(gap):
            out[e] = total
            e += delta
    return LaurentPoly._new(p.rank, out, p.top)


def divide_by_linear_form(p, *ws):
    """Exact division of p by the product of the linear forms <w, x> over
    the labels ``ws``, one label at a time in order, with the checks of
    each; the quotient or None."""
    for w in ws:
        p = _linear_quotient(p, w)
        if p is None:
            return None
    return p


def _linear_quotient(p, w):
    """The quotient of p by <w, x>, or None.

    With x_i the first variable of w and r the rest of the form, p is cut
    into slices p_d by the degree d in x_i.  From the top slice down, the
    quotient's slice q_(d-1) is (p_d - r q_d) / w_i, and p divides exactly
    when p_0 - r q_0 is zero; where r q_d is zero the walk jumps to the next
    nonempty slice.  A term of degree d in x_i reaches at most C(d - 1 + m,
    m) quotient terms, m the number of variables in r, and their sum is
    checked against the budget first; past it, a homogeneous p is counted
    again by its quotient's size, the monomials of its degree less one,
    while the sum stays within ``SIZE_BUDGET`` and the degree within the
    budget (``_past_budget``).  No intermediate exponent exceeds the total
    degree of p, at most rank * top; an exact quotient keeps p's bound.
    A quotient coefficient is c // w_i, an int, when w_i divides c, and
    Fraction(c, w_i) otherwise, so integral inputs stay in int arithmetic.

    A walk over more than 2 * rank degrees of x_i first tests divisibility
    on the hyperplane (``PolyH.divides``), which builds no quotient, so a
    failing division of a high power is refuted before its quotient's
    coefficients grow.  The commands' own values never walk that far: a
    product of two classes has degree at most 2 * rank, so only a class
    file's value can take the test."""
    if not any(w):
        raise ValueError("zero weight")
    if p.is_zero():
        return p
    rank = p.rank
    if rank * p.top >= BIAS:
        raise _too_large("linear form division")
    pivot = next(i for i, c in enumerate(w) if c)
    step = w[pivot]
    shift = FIELD * (rank - 1 - pivot)
    unit = 1 << shift
    rest = [(_unit_key(rank, i), c) for i, c in enumerate(w) if c and i != pivot]
    slices = {}
    for e, c in p.terms.items():
        slices.setdefault(((e >> shift) & MASK) - BIAS, {})[e] = c
    m = len(rest)
    if p.top and len(p.terms) * math.comb(p.top - 1 + m, m) > TERM_BUDGET and _past_budget(
            p, sum(len(s) * math.comb(d - 1 + m, m) for d, s in slices.items() if d), -1, rank):
        raise _too_many("linear form division")
    d = max(slices)
    if d > 2 * rank and not p.divides(w):
        return None
    quot = {}
    carry = {}  # r q_d, taken off the slice of degree d
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
            qc, rem = divmod(c, step)
            if rem:
                qc = Fraction(c, step)
            quot[qe] = qc
            for u, wi in rest:
                ne = qe + u
                carry[ne] = carry.get(ne, 0) + wi * qc
        d = d - 1 if carry or d - 1 in slices else max((k for k in slices if k < d), default=0)


# ---------------------------------------------------------------------------
# lattice substitutions

def _linear_power(form, d):
    """The d-th power of the form sum c_i x_i, given as (unit key, int c_i)
    pairs, as (key offset, coefficient) pairs, one per term of its
    multinomial expansion: x^k has coefficient d! / prod k_i! prod c_i^k_i.
    Each variable but the last splits the degree that is left k ways by a
    binomial, and the last takes the rest; no polynomial is multiplied."""
    *head, (unit, c) = form
    if not head:
        return [(d * unit, c ** d)]
    parts = [(0, 1, d)]  # (key offset, coefficient, degree left)
    for u, h in head:
        pw = list(itertools.accumulate(itertools.repeat(h, d), operator.mul, initial=1))
        nxt = []
        for off, x, left in parts:
            b = 1
            for k in range(left + 1):
                nxt.append((off, x * b * pw[k], left - k))
                off += u
                b = b * (left - k) // (k + 1)
        parts = nxt
    pw = list(itertools.accumulate(itertools.repeat(c, d), operator.mul, initial=1))
    return [(off + left * unit, x * pw[left]) for off, x, left in parts]


def _shear_bound(e, rank, images):
    """The largest exponent of the shear of the monomial of key e: each
    coordinate keeps its degree unless its variable is sheared, and gains
    the degree of every sheared variable whose image has it.  It raises
    past the limit, before any key of the product is formed."""
    v = list(_unpack(e, rank))
    out = list(v)
    for shift, _q, _powers, form, _grows in images:
        t = rank - 1 - shift // FIELD
        d, out[t] = v[t], out[t] - v[t]
        for unit, _c in form:
            out[rank - 1 - (unit.bit_length() - 1) // FIELD] += d
    bound = max(out)
    if bound >= LIMIT:
        raise _too_large("shear")
    return bound


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
# localized sums

# a fraction left over after all possible factor cancellations; the
# denominator is sorted ((weight, multiplicity), ...)
Irreducible = namedtuple("Irreducible", "numerator denominator mode")


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
                quot = total.divide(w)
                if quot is None:
                    break
                total = quot
                remaining[w] -= 1
        remaining = {w: m for w, m in remaining.items() if m}
        if remaining:
            return Irreducible(total, tuple(sorted(remaining.items())), self.mode)
        return total
