"""Exact arithmetic layer: ring ops, packed keys, lattice tools, division,
localization."""

import time
from fractions import Fraction

import pytest

from gkmcalc import classes as cl
from gkmcalc import symcore
from gkmcalc.cli import main
from gkmcalc.errors import ContractError, DivisionFailure, ValidationError
from gkmcalc.serialize import class_from_dict
from gkmcalc.symcore import (
    LIMIT,
    RINGS,
    H,
    K,
    Irreducible,
    LaurentPoly,
    LocalizedSum,
    SIZE_BUDGET,
    TERM_BUDGET,
    PolyH,
    canonical_sign,
    cyclotomic_divides,
    divide_by_cyclotomic,
    divide_by_linear_form,
    rational_primitive,
    shear_variables,
    substitute_linear,
    substitute_linear_h,
    wt_scale,
    wt_sub,
)

from conftest import rand_laurent, rand_polyh, rand_weight, rng
from oracles import eval_h, eval_k, eval_laurent, eval_poly, parsed_terms, to_terms


def e(*expo):
    return LaurentPoly.monomial(expo)


# ---------------------------------------------------------------------------
# Laurent arithmetic

def test_multiplying_by_zero_annihilates():
    p = 1 - e(1, 0)
    assert p * LaurentPoly.zero(2) == LaurentPoly.zero(2)


def test_difference_of_squares():
    assert (1 - e(1, 0)) * (1 + e(1, 0)) == 1 - e(2, 0)


def test_mixed_product_difference():
    # (1-e^y)^2 - (1-e^x)(1-e^y) expanded by hand equals (1-e^y)(e^x - e^y)
    x, y = e(1, 0), e(0, 1)
    lhs = (1 - y) * (1 - y) - (1 - x) * (1 - y)
    expected = LaurentPoly(2, {(1, 0): 1, (0, 1): -1, (1, 1): -1, (0, 2): 1})
    assert lhs == expected
    assert lhs == (1 - y) * (x - y)


def test_ring_axioms_random():
    r = rng(101)
    for _ in range(200):
        a = rand_laurent(r, 2)
        b = rand_laurent(r, 2)
        c = rand_laurent(r, 2)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        LaurentPoly.one(2) + LaurentPoly.one(3)


def test_polyh_basics():
    x = PolyH.linear_form((1, 0))
    y = PolyH.linear_form((0, 1))
    assert (x + y) * (x - y) == x * x - y * y
    assert (x * y).homogeneous_degree() == 2
    assert (1 + x).homogeneous_degree() is None
    assert PolyH.constant(2, Fraction(1, 2)).is_integral() is False


# ---------------------------------------------------------------------------
# lattice utilities

def test_rational_primitive():
    u, s = rational_primitive((Fraction(3, 2), Fraction(-3, 2)))
    assert u == (1, -1)
    assert s == Fraction(3, 2)


def test_canonical_sign():
    assert canonical_sign((0, -2, 1)) == ((0, 2, -1), -1)
    assert canonical_sign((1, -5)) == ((1, -5), 1)


# ---------------------------------------------------------------------------
# cyclotomic division

def test_cyclotomic_exact_factor():
    p = 1 - e(1, 1)
    assert divide_by_cyclotomic(p, (1, 1)) == LaurentPoly.one(2)


def test_cyclotomic_independent_direction():
    p = 1 - e(1, 0)
    assert divide_by_cyclotomic(p, (0, 1)) is None


def test_cyclotomic_doubled_weight():
    p = 1 - e(2, 0)
    assert divide_by_cyclotomic(p, (1, 0)) == 1 + e(1, 0)


def test_cyclotomic_roundtrip_random():
    r = rng(103)
    for _ in range(200):
        rank = r.randint(1, 3)
        p = rand_laurent(r, rank)
        w = rand_weight(r, rank, -3, 3)
        prod = LaurentPoly.factor(w) * p
        assert divide_by_cyclotomic(prod, w) == p


def test_cyclotomic_rejects_zero_weight():
    with pytest.raises(ValueError):
        divide_by_cyclotomic(LaurentPoly.one(2), (0, 0))


def test_cyclotomic_zero_weight_rejected_for_zero_dividend():
    with pytest.raises(ValueError):
        divide_by_cyclotomic(LaurentPoly.zero(3), (0, 0, 0))


def test_cyclotomic_zero_dividend():
    r = rng(105)
    for _ in range(20):
        rank = r.randint(1, 4)
        z = LaurentPoly.zero(rank)
        assert divide_by_cyclotomic(z, rand_weight(r, rank, -5, 5)) == z


def test_cyclotomic_roundtrip_non_primitive_weight():
    r = rng(106)
    for _ in range(200):
        rank = r.randint(1, 4)
        w = wt_scale(rand_weight(r, rank, -3, 3), r.randint(2, 4))
        p = rand_laurent(r, rank, max_terms=4, expo=3)
        assert divide_by_cyclotomic(LaurentPoly.factor(w) * p, w) == p


def test_cyclotomic_roundtrip_negative_first_entry():
    r = rng(107)
    for _ in range(200):
        rank = r.randint(1, 4)
        w = (-r.randint(1, 5),) + rand_weight(r, rank - 1, -5, 5, nonzero=False)
        p = rand_laurent(r, rank, max_terms=4, expo=3)
        assert divide_by_cyclotomic(LaurentPoly.factor(w) * p, w) == p


def test_cyclotomic_rejects_nonzero_coset_sum():
    # adding c*e^v to a multiple of 1 - e^w makes the sum over the coset
    # v + Z*w nonzero, whatever the rest of the polynomial is
    r = rng(108)
    for _ in range(200):
        rank = r.randint(1, 4)
        w = rand_weight(r, rank, -4, 4)
        prod = LaurentPoly.factor(w) * rand_laurent(r, rank, max_terms=4, expo=3)
        v = tuple(r.randint(-4, 4) for _ in range(rank))
        bump = LaurentPoly.monomial(v, r.choice([-2, -1, 1, 2]))
        assert divide_by_cyclotomic(prod + bump, w) is None


def _is_integer_multiple(d, w):
    ratios = {Fraction(x, y) for x, y in zip(d, w) if y}
    return len(ratios) == 1 and ratios.pop().denominator == 1 \
        and all(x == 0 for x, y in zip(d, w) if not y)


def _coset_sums(p, w):
    """Coefficient sums over the classes of exponents that differ by an
    integer multiple of w, grouped by pairwise comparison."""
    classes = []
    for e, c in p.sorted_terms():
        for cls in classes:
            if _is_integer_multiple(wt_sub(e, cls[0]), w):
                cls[1] += c
                break
        else:
            classes.append([e, c])
    return [c for _, c in classes]


def test_cyclotomic_divides_iff_every_coset_sums_to_zero():
    r = rng(109)
    hits = 0
    for _ in range(400):
        rank = r.randint(1, 3)
        w = rand_weight(r, rank, -3, 3)
        p = rand_laurent(r, rank, max_terms=4, expo=2)
        if r.random() < 0.5:
            p = LaurentPoly.factor(w) * p
        q = divide_by_cyclotomic(p, w)
        divisible = all(s == 0 for s in _coset_sums(p, w))
        assert (q is not None) == divisible
        assert cyclotomic_divides(p, w) == divisible
        if q is not None:
            hits += 1
            assert LaurentPoly.factor(w) * q == p
    assert 0 < hits < 400


# ---------------------------------------------------------------------------
# linear form division

def test_linear_division_example():
    # x*y - y^2 divided by the form y - x
    p = PolyH(2, {(1, 1): 1, (0, 2): -1})
    q = divide_by_linear_form(p, (-1, 1))
    assert q == PolyH(2, {(0, 1): -1})


def test_linear_division_failure():
    p = PolyH.linear_form((1, 0))
    assert divide_by_linear_form(p, (0, 1)) is None


@pytest.mark.parametrize("power", [10000, 100000])
def test_linear_division_of_a_high_power_takes_linear_time(power):
    # x1^power by x2 - x1 steps through power pivot degrees, which must
    # neither rebuild the quotient nor copy the remainder at every step
    start = time.perf_counter()
    assert divide_by_linear_form(PolyH(2, {(power, 0): 1}), (-1, 1)) is None
    assert time.perf_counter() - start < 3


def test_linear_division_zero_dividend():
    z = PolyH.zero(2)
    assert divide_by_linear_form(z, (1, 4)) == z


def test_linear_division_roundtrip_random():
    r = rng(104)
    for _ in range(200):
        rank = r.randint(1, 3)
        p = rand_polyh(r, rank)
        w = rand_weight(r, rank, -3, 3)
        prod = PolyH.linear_form(w) * p
        assert divide_by_linear_form(prod, w) == p


# ---------------------------------------------------------------------------
# packed keys against the tuple-keyed loops they replaced

def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ref_divide_by_cyclotomic(p, w):
    pivot = next(i for i, c in enumerate(w) if c)
    step = w[pivot]
    chains = {}
    for e, c in p.items():
        k = e[pivot] // step
        base = tuple(x - k * y for x, y in zip(e, w))
        chains.setdefault(base, []).append((k, c))
    if any(sum(c for _, c in chain) for chain in chains.values()):
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
    return out


def _ref_divide_by_linear_form(p, w):
    if not p:
        return {}
    pivot = next(i for i, c in enumerate(w) if c)
    inv = Fraction(1, w[pivot])
    rest = [(i, c) for i, c in enumerate(w) if c and i != pivot]
    slices = {}
    for e, c in p.items():
        slices.setdefault(e[pivot], {})[e] = c
    quot, carry = {}, {}
    for d in range(max(slices), -1, -1):
        cur = slices.get(d, {})
        for e, c in carry.items():
            cur[e] = cur.get(e, 0) - c
        cur = {e: c for e, c in cur.items() if c}
        if d == 0:
            return None if cur else quot
        carry = {}
        for e, c in cur.items():
            qe = e[:pivot] + (d - 1,) + e[pivot + 1:]
            quot[qe] = qc = c * inv
            for i, wi in rest:
                ne = qe[:i] + (qe[i] + 1,) + qe[i + 1:]
                carry[ne] = carry.get(ne, 0) + wi * qc


def _rand_terms(r, rank, big, lowest):
    """Up to four terms whose coordinates are small or up to +-big, all of
    them >= 0 when lowest is 0."""
    terms = {}
    for _ in range(r.randint(1, 4)):
        e = tuple(r.choice((r.randint(-3, 3), r.randint(-big, big))) for _ in range(rank))
        if lowest == 0:
            e = tuple(map(abs, e))
        terms[e] = r.choice([-2, -1, 1, 3, Fraction(1, 2)]) if lowest == 0 \
            else r.choice([-2, -1, 1, 3])
    return terms


def _same(p, ref):
    # decoding, order and coefficients in one comparison
    return ref is not None and p.sorted_terms() == sorted(ref.items())


@pytest.mark.parametrize("cls", [LaurentPoly, PolyH])
def test_packed_sum_and_product_match_tuple_keys(cls):
    # exponents up to 2^60, so that sums cross the fields' halfway marks and
    # negative coordinates borrow from the field above
    r = rng(110 if cls is LaurentPoly else 111)
    lowest = 0 if cls is PolyH else -1
    for _ in range(300):
        rank = r.randint(1, 5)
        a, b = (_rand_terms(r, rank, 1 << 60, lowest) for _ in range(2))
        pa, pb = cls(rank, a), cls(rank, b)
        assert _same(pa, a)
        assert _same(pa + pb, _ref_add(a, b))
        assert _same(pa * pb, _ref_mul(a, b))
        assert _same(pa - pa, {})


def test_packed_cyclotomic_division_matches_tuple_keys():
    r = rng(112)
    hits = 0
    for _ in range(300):
        rank = r.randint(1, 4)
        w = rand_weight(r, rank, -3, 3)
        q = _rand_terms(r, rank, 1 << 59, -1)
        p = _ref_mul({(0,) * rank: 1, w: -1}, q)
        if r.random() < 0.5:
            p = _ref_add(p, {tuple(r.randint(-3, 3) for _ in range(rank)): 1})
        ref = _ref_divide_by_cyclotomic(p, w)
        got = divide_by_cyclotomic(LaurentPoly(rank, p), w)
        assert cyclotomic_divides(LaurentPoly(rank, p), w) == (ref is not None)
        if ref is None:
            assert got is None
        else:
            hits += 1
            assert _same(got, ref)
    assert 0 < hits < 300


def test_packed_linear_division_matches_tuple_keys():
    # small degrees: the division walks every degree of its pivot variable
    r = rng(113)
    hits = 0
    for _ in range(300):
        rank = r.randint(1, 4)
        w = rand_weight(r, rank, -3, 3)
        q = _rand_terms(r, rank, 4, 0)
        p = _ref_mul({tuple(int(i == j) for j in range(rank)): Fraction(c)
                      for i, c in enumerate(w) if c}, q)
        if r.random() < 0.5:
            p = _ref_add(p, {tuple(r.randint(0, 3) for _ in range(rank)): 1})
        ref = _ref_divide_by_linear_form(p, w)
        got = divide_by_linear_form(PolyH(rank, p), w)
        if ref is None:
            assert got is None
        else:
            hits += 1
            assert _same(got, ref)
    assert 0 < hits < 300


def _count_divides(monkeypatch):
    calls = []
    divides = PolyH.divides

    def counted(self, w):
        calls.append(w)
        return divides(self, w)
    monkeypatch.setattr(PolyH, "divides", counted)
    return calls


def test_divisions_past_twice_the_rank_in_degree_test_the_hyperplane_first(monkeypatch):
    # the walk's answer is kept: the test only refutes, before a quotient
    calls = _count_divides(monkeypatch)
    r = rng(127)
    hits = misses = 0
    for _ in range(200):
        rank = r.randint(1, 3)
        w = rand_weight(r, rank, -3, 3)
        q = rand_polyh(r, rank, deg=2 * rank + 2)
        p = PolyH.linear_form(w) * q
        if r.random() < 0.5:
            p = p + PolyH(rank, {tuple(r.randint(0, 2 * rank + 2) for _ in range(rank)): 1})
        ref = _ref_divide_by_linear_form(dict(p.sorted_terms()), w)
        before = len(calls)
        got = divide_by_linear_form(p, w)
        pivot = next(i for i, c in enumerate(w) if c)
        walked = max((e[pivot] for e, _ in p.sorted_terms()), default=0)
        assert len(calls) - before == (walked > 2 * rank and not p.is_zero())
        if ref is None:
            misses += 1
            assert got is None
        else:
            hits += 1
            assert _same(got, ref)
    assert hits > 50 and misses > 50 and len(calls) > 50


def test_exact_division_of_a_high_power_takes_linear_time():
    # x1^n (x2 - x1) passes the hyperplane test, then the walk runs n steps
    n = 100000
    start = time.perf_counter()
    assert divide_by_linear_form(PolyH(2, {(n, 1): 1, (n + 1, 0): -1}), (-1, 1)) \
        == PolyH(2, {(n, 0): 1})
    assert time.perf_counter() - start < 3


@pytest.mark.parametrize("fixture", ["cp2", "cpn:3", "cpn:4", "hirzebruch", "square"])
def test_the_commands_own_divisions_never_take_the_hyperplane_test(fixture, monkeypatch):
    # their values have degree at most 2 * rank, a product of two classes
    calls = _count_divides(monkeypatch)
    divisions = []
    divide = symcore.divide_by_linear_form
    monkeypatch.setattr(symcore, "divide_by_linear_form",
                        lambda p, *ws: divisions.extend(ws) or divide(p, *ws))
    runs = [["structure"], ["basis"], ["pd"], ["gt"], ["index", "--class", "pd:1"],
            ["local-index", "--class", "tau:1", "--vertex", "2"]]
    for argv in runs:
        if argv[0] == "gt" and fixture == "hirzebruch":
            continue
        mode = [] if argv[0] == "gt" else ["--mode", "cohomology"]
        assert main(argv + ["--fixture", fixture] + mode) == 0, argv
    assert divisions and calls == []


def test_results_past_the_term_budget_are_refused():
    n = TERM_BUDGET + 1
    with pytest.raises(ContractError, match="terms"):
        divide_by_cyclotomic(1 - e(n, 0), (1, 0))
    with pytest.raises(ContractError, match="terms"):
        divide_by_linear_form(PolyH(2, {(n, 0): 1, (0, n): -1}), (1, -1))
    with pytest.raises(ContractError, match="terms"):
        shear_variables(PolyH(2, {(0, n): 1}), (1, 1), (1, 0))  # (x2 - x1)^n
    # x1 -> -x1 - 2 x2 and x2 -> -2 x1 - x2: a term x1^a x2^b makes
    # (a + 1)(b + 1) products, within the budget for each of these three
    # terms but past it for their sum
    terms = {(600, 600): 1, (601, 599): 2, (599, 601): 3}
    assert max((a + 1) * (b + 1) for a, b in terms) <= TERM_BUDGET
    assert sum((a + 1) * (b + 1) for a, b in terms) > TERM_BUDGET
    with pytest.raises(ContractError, match="shear: more than"):
        shear_variables(PolyH(2, terms), (1, 1), (2, 2))


def test_gaps_without_quotient_terms_cost_nothing():
    big = 10 ** 12
    # (e^(big, 0) - 1)(1 - e^(1, 0)): the running sum is zero across the gap
    p = (e(big, 0) - 1) * (1 - e(1, 0))
    assert divide_by_cyclotomic(p, (1, 0)) == e(big, 0) - 1
    # one term per nonempty slice: the walk jumps over the empty ones
    q = PolyH(2, {(big, 1): 3, (1, 0): 1})
    assert divide_by_linear_form(q, (1, 0)) == PolyH(2, {(big - 1, 1): 3, (0, 0): 1})
    # a power takes about log2(big) products
    assert PolyH.linear_form((-1, 0)) ** (big + 1) == PolyH(2, {(big + 1, 0): -1})
    assert shear_variables(PolyH(2, {(big, 0): 1}), (1, 1), (1, 0)).is_zero()


def test_exponents_at_the_limit_are_refused():
    limit = 1 << 62
    for expo in ((limit, 0), (0, -limit)):
        with pytest.raises(ValidationError, match="outside the supported range"):
            LaurentPoly.monomial(expo)
    edge = LaurentPoly.monomial((limit - 1, 0))
    # the factors' bounds pass the limit, the product's exponents do not
    assert (edge * e(-1, 5)).sorted_terms() == [((limit - 2, 5), 1)]
    with pytest.raises(ContractError):
        edge * e(1, 0)
    with pytest.raises(ContractError):
        PolyH(1, {(limit // 2,): 1}) ** 2


# ---------------------------------------------------------------------------
# linear substitution

def test_substitution_shift_by_auxiliary():
    # (1 - e^(x-y)) e^y through the basis (y, x-y), first vector shifted
    p = (1 - e(1, -1)) * e(0, 1)
    basis = [(0, 1), (1, -1)]
    images = [(0, 1, 1), (1, -1, 0)]
    out = substitute_linear(p, basis, images)
    expected = LaurentPoly(3, {(0, 1, 1): 1, (1, 0, 1): -1})
    assert out == expected


def test_substitution_kill_first_vector():
    p = (1 - e(1, -1)) * e(0, 1)
    basis = [(0, 1), (1, -1)]
    images = [(0, 0), (1, -1)]
    out = substitute_linear(p, basis, images)
    assert out == 1 - e(1, -1)


def test_substitution_identity():
    r = rng(105)
    basis = [(1, 0), (0, 1)]
    for _ in range(20):
        p = rand_laurent(r, 2)
        assert substitute_linear(p, basis, basis) == p


def test_substitution_is_ring_map():
    r = rng(106)
    basis = [(0, 1), (1, -1)]
    images = [(0, 1, 1), (1, -1, 0)]
    for _ in range(200):
        a = rand_laurent(r, 2)
        b = rand_laurent(r, 2)
        sa = substitute_linear(a, basis, images)
        sb = substitute_linear(b, basis, images)
        assert substitute_linear(a + b, basis, images) == sa + sb
        assert substitute_linear(a * b, basis, images) == sa * sb


def test_substitution_rejects_non_basis():
    with pytest.raises(ValueError):
        substitute_linear(LaurentPoly.one(2), [(2, 0), (0, 1)], [(1, 0), (0, 1)])


# ---------------------------------------------------------------------------
# localized sums

def test_two_point_sum_reduces_to_one():
    s = LocalizedSum("K", 1)
    s.add_term(LaurentPoly.one(1), [(-1,)])
    s.add_term(LaurentPoly.one(1), [(1,)])
    assert s.reduce() == LaurentPoly.one(1)


def test_three_point_plane_integral_vanishes():
    s = LocalizedSum("H", 2)
    s.add_term(PolyH.one(2), [(-1, 0), (-1, 1)])
    s.add_term(PolyH.one(2), [(0, -1), (1, -1)])
    s.add_term(PolyH.one(2), [(1, 0), (0, 1)])
    assert s.reduce() == PolyH.zero(2)


def test_single_term_empty_denominator():
    s = LocalizedSum("K", 2)
    p = 1 + e(1, 1)
    s.add_term(p, [])
    assert s.reduce() == p


def test_denominators_stored_canonically():
    s = LocalizedSum("K", 2)
    s.add_term(LaurentPoly.one(2), [(-1, 0), (0, -2)])
    (numer, den), = s.terms
    assert set(den) == {(1, 0), (0, 2)}


def test_irreducible_left_over():
    s = LocalizedSum("K", 2)
    s.add_term(LaurentPoly.one(2), [(1, 0)])
    out = s.reduce()
    assert isinstance(out, Irreducible)


def test_reduce_order_invariance_and_splitting():
    r = rng(107)
    for _ in range(200):
        rank = 2
        parts = []
        for _ in range(r.randint(2, 4)):
            numer = rand_laurent(r, rank)
            dens = [rand_weight(r, rank, -2, 2) for _ in range(r.randint(0, 2))]
            parts.append((numer, dens))
        sums = []
        for order in (parts, list(reversed(parts))):
            s = LocalizedSum("K", rank)
            for numer, dens in order:
                s.add_term(numer, dens)
            sums.append(s)
        # split the first term of a third copy into two halves
        s3 = LocalizedSum("K", rank)
        first_numer, first_dens = parts[0]
        s3.add_term(first_numer + first_numer, first_dens)
        s3.add_term(-first_numer, first_dens)
        for numer, dens in parts[1:]:
            s3.add_term(numer, dens)
        r0 = sums[0].reduce()
        r1 = sums[1].reduce()
        r2 = s3.reduce()
        if isinstance(r0, Irreducible):
            assert isinstance(r1, Irreducible) and isinstance(r2, Irreducible)
            bases, xis = _valid_points(sums[0], rank)
            for base, xi in zip(bases, xis):
                v0 = eval_k(sums[0], base, xi)
                assert eval_k(sums[1], base, xi) == v0
                assert eval_k(s3, base, xi) == v0
        else:
            assert r0 == r1 == r2


def _valid_points(s, rank):
    from conftest import specialization_points

    bases, xis = specialization_points(rank, 3)
    found = []
    for base in bases:
        for xi in xis:
            try:
                eval_k(s, base, xi)
            except ValueError:
                continue
            found.append((base, xi))
            if len(found) == 3:
                return [b for b, _ in found], [x for _, x in found]
    raise AssertionError("no valid specialization points")


def test_numeric_specialization_oracle_k():
    # the reduced polynomial evaluates like the unreduced sum
    r = rng(108)
    for _ in range(60):
        rank = 2
        s = LocalizedSum("K", rank)
        dens = [rand_weight(r, rank, -2, 2) for _ in range(2)]
        numer = rand_laurent(r, rank)
        for w in dens:
            numer = numer * LaurentPoly.factor(w)
        s.add_term(numer, dens)
        extra = rand_laurent(r, rank)
        s.add_term(extra, [])
        out = s.reduce()
        assert isinstance(out, LaurentPoly)
        bases, xis = _valid_points(s, rank)
        for base, xi in zip(bases, xis):
            assert eval_laurent(out, base, xi) == eval_k(s, base, xi)


def test_numeric_specialization_oracle_h():
    r = rng(109)
    for _ in range(60):
        rank = 2
        s = LocalizedSum("H", rank)
        dens = [rand_weight(r, rank, -2, 2) for _ in range(2)]
        numer = rand_polyh(r, rank)
        for w in dens:
            numer = numer * PolyH.linear_form(w)
        s.add_term(numer, dens)
        out = s.reduce()
        assert isinstance(out, PolyH)
        point = (Fraction(3, 7), Fraction(12, 5))
        if all(eval_poly(PolyH.linear_form(w), point) != 0 for w in dens):
            assert eval_poly(out, point) == eval_h(s, point)


# ---------------------------------------------------------------------------
# int coefficients in cohomology

def _ints(p):
    return all(type(c) is int for c in p.terms.values())


def _rand_int_terms(r, rank, n=3, deg=2):
    return [[str(r.randint(-4, 4)), [r.randint(0, deg) for _ in range(rank)]] for _ in range(n)]


def test_integral_h_arithmetic_keeps_int_coefficients():
    r = rng(131)
    for _ in range(100):
        a = H.from_terms(2, _rand_int_terms(r, 2))
        b = H.from_terms(2, _rand_int_terms(r, 2))
        w = rand_weight(r, 2, -3, 3)
        lf = PolyH.linear_form(w)
        sigma, shift = rand_weight(r, 2, -2, 2, nonzero=False), rand_weight(r, 2)
        values = [a, b, lf, PolyH.constant(2, r.randint(-3, 3)), a + b, a - b, a * b,
                  -a, a + 3, 3 - a, a * 2, shear_variables(a, sigma, shift),
                  divide_by_linear_form(a * lf, w)]
        for v in values:
            assert _ints(v), v


def test_non_integral_coefficient_stays_a_fraction():
    p = H.from_terms(2, [["3/2", [1, 0]], ["-4/2", [0, 1]]])
    assert {type(c) for c in p.terms.values()} == {Fraction, int}
    assert H.fmt(p) == "-2*x2 + 3/2*x1"
    assert to_terms(p) == [["-2", [0, 1]], ["3/2", [1, 0]]]
    half = divide_by_linear_form(PolyH.linear_form((1, 0)), (2, 0))
    assert half == PolyH.constant(2, Fraction(1, 2))
    assert type(half.constant_value()) is Fraction
    assert H.fmt(half) == "1/2"


def test_integral_fraction_equals_and_hashes_like_its_int():
    # a product of a Fraction and an int is an integral Fraction
    a = PolyH.constant(2, Fraction(3, 2)) * PolyH.linear_form((2, 0))
    b = PolyH(2, {(1, 0): 3})
    assert type(next(iter(a.terms.values()))) is Fraction
    assert a == b and hash(a) == hash(b)
    assert H.fmt(a) == H.fmt(b) and to_terms(a) == to_terms(b)
    c = PolyH(2, {(1, 0): Fraction(3)})
    assert type(next(iter(c.terms.values()))) is Fraction
    assert c == b and hash(c) == hash(b) and {c: 1}[b] == 1
    assert PolyH.constant(2, 3) == Fraction(3) and PolyH.constant(2, Fraction(3)) == 3
    # half plus half is an integral Fraction; it still compares as 1
    half = PolyH.constant(2, Fraction(1, 2))
    assert half + half == PolyH.one(2) and hash(half + half) == hash(PolyH.one(2))


def _reference_divide_by_linear_form(p, w):
    """The division by <w, x> in Fraction arithmetic throughout: every
    quotient coefficient is c * Fraction(1, w_pivot)."""
    from gkmcalc.symcore import BIAS, FIELD, MASK, _unit_key

    if p.is_zero():
        return p
    rank = p.rank
    pivot = next(i for i, c in enumerate(w) if c)
    inv = Fraction(1, w[pivot])
    shift = FIELD * (rank - 1 - pivot)
    unit = 1 << shift
    rest = [(_unit_key(rank, i), c) for i, c in enumerate(w) if c and i != pivot]
    slices = {}
    for e, c in p.terms.items():
        slices.setdefault(((e >> shift) & MASK) - BIAS, {})[e] = Fraction(c)
    quot, carry = {}, {}
    for d in range(max(slices), -1, -1):
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
                carry[qe + u] = carry.get(qe + u, 0) + wi * qc


def test_division_by_linear_form_matches_the_fraction_reference():
    r = rng(137)
    exact = 0
    for trial in range(400):
        rank = r.choice((2, 3))
        w = rand_weight(r, rank, -3, 3)
        if trial % 4 == 0:
            # a pivot of size at least 2, of either sign
            w = (r.choice((-3, -2, 2, 3)),) + w[1:]
        p = rand_polyh(r, rank, max_terms=4, coeff=6)
        if trial % 5 == 1:
            p = p * PolyH.constant(rank, Fraction(r.randint(1, 5), r.randint(1, 5)))
        if trial % 2 == 0:
            p = p * PolyH.linear_form(w)  # divisible
        got, want = divide_by_linear_form(p, w), _reference_divide_by_linear_form(p, w)
        assert got == want, (p, w)
        assert H.divides(p, w) == (want is not None), (p, w)
        if got is not None:
            exact += 1
            assert all(type(c) is int for c in got.terms.values()
                       if c.denominator == 1), (p, w)
            assert all(type(c) is Fraction for c in got.terms.values()
                       if c.denominator != 1), (p, w)
    assert exact > 200


def test_h_divisibility_counts_the_restriction_before_building_it():
    # with every pivot, (x1 x2 x3)^d restricts to a power of degree d of a
    # form other than +-x_j; each counts as the quotient by the form would
    d = TERM_BUDGET + 1
    p = PolyH(3, {(d, d, d): 1})
    for w in ((1, 1, 1), (1, 2, 0)):
        with pytest.raises(ContractError, match="divisibility test: more than"):
            p.divides(w)
    # on x1 = x3 the image of x1 is the one unit term x3
    assert not p.divides((1, 0, -1))
    # x1^d is refuted with a pivot it does not contain
    q = PolyH(3, {(d, 0, 0): 1})
    assert not q.divides((1, 1, 1)) and not q.divides((1, 2, 0)) and q.divides((2, 0, 0))
    with pytest.raises(ValueError):
        q.divides((0, 0, 0))


def _rand_rational(r):
    return r.choice([r.randint(-4, 4), Fraction(r.randint(-4, 4), r.randint(1, 4))])


def test_the_shear_is_the_substitution_by_its_matrix():
    # x_t -> x_t - sigma_t <a, x> is the lattice map e_t -> e_t - sigma_t a
    # on the variables, which the general substitution builds with ** and
    # one product per term
    r = rng(151)
    for trial in range(400):
        rank = r.randint(1, 4)
        deg = r.randint(0, 8)
        terms = {}
        for _ in range(r.randint(1, 4)):
            e = [0] * rank
            for _ in range(r.randint(0, deg)):
                e[r.randrange(rank)] += 1
            terms[tuple(e)] = r.randint(-5, 5) if trial % 2 else _rand_rational(r)
        p = PolyH(rank, terms)
        sigma = tuple(r.choice([0, 0, 1, -1, 2]) if trial % 3 else _rand_rational(r)
                      for _ in range(rank))
        a = rand_weight(r, rank, -3, 3, nonzero=False)
        unit = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        images = [tuple(int(i == t) - sigma[t] * y for i, y in enumerate(a)) for t in range(rank)]
        got = shear_variables(p, sigma, a)
        assert got == substitute_linear_h(p, unit, images), (p, sigma, a)
        assert got.top >= max((max(e) for e, _ in got.sorted_terms()), default=0)
        if trial % 2:
            assert all(type(c) is int for c in got.terms.values() if c.denominator == 1)


def test_the_closed_form_power_is_the_repeated_product():
    r = rng(152)
    for _ in range(300):
        rank = r.randint(1, 4)
        w = rand_weight(r, rank, -4, 4)
        d = r.randint(0, 12)
        form = [(symcore._unit_key(rank, i), c) for i, c in enumerate(w) if c]
        power = symcore._linear_power(form, d)
        assert len(power) == len({k for k, _ in power})
        zero = symcore._zero_key(rank)
        got = PolyH._new(rank, {zero + k: c for k, c in power}, d)
        assert got == PolyH.linear_form(w) ** d, (w, d)


def test_h_budgets_count_the_answer_of_a_homogeneous_value(monkeypatch):
    # q (x1 + 2 x2) of degree 1501 has about 1.1 M pivot degrees to walk, so
    # both worst-case counts pass the budget, but its quotient has 1501 terms
    # and its restriction to the hyperplane one
    r = rng(153)
    q = PolyH(2, {(k, 1500 - k): r.randint(1, 9) for k in range(1501)})
    p = q * PolyH.linear_form((1, 2))
    assert sum(e[0] for e, _ in p.sorted_terms()) > TERM_BUDGET
    assert divide_by_linear_form(p, (1, 2)) == q
    assert p.divides((1, 2)) and not p.divides((1, 3))
    # a value of mixed degrees keeps the worst-case counts, and is refused
    # before its shear or its quotient is built
    mixed = p + PolyH.linear_form((1, 0))
    built = []
    power = symcore._linear_power
    monkeypatch.setattr(symcore, "_linear_power", lambda form, d: built.append(d) or power(form, d))
    with pytest.raises(ContractError, match="divisibility test: more than"):
        mixed.divides((1, 2))
    with pytest.raises(ContractError, match="linear form division: more than"):
        divide_by_linear_form(mixed, (1, 2))
    # x1^N x2^N restricts to one term on the hyperplane of (2, -3), but its
    # coefficient (3/2)^N has about 1.6 N bits: a count of 2^25 is past the
    # size budget, and a count of 2^21 within it is past the budget in degree
    for n in (1 << 25, 1 << 21):
        with pytest.raises(ContractError, match="divisibility test: more than"):
            PolyH(2, {(n, n): 1}).divides((2, -3))
    # all 3,001 monomials of degree 3000: the quotient and the restriction
    # are small, but the pivot degrees sum to about 4.5 M, past the size budget
    deg = 3000
    many = PolyH(2, {(k, deg - k): 1 for k in range(deg + 1)})
    assert deg * (deg + 1) // 2 > SIZE_BUDGET
    with pytest.raises(ContractError, match="divisibility test: more than"):
        many.divides((2, -3))
    with pytest.raises(ContractError, match="linear form division: more than"):
        divide_by_linear_form(many, (2, -3))
    assert built == []


def test_a_shear_past_the_exponent_limit_is_refused():
    half = 1 << 61
    # x1 -> x2 sends x1^(2^61) x2^(2^61) to x2^(2^62)
    with pytest.raises(ContractError, match="outside the supported range"):
        shear_variables(PolyH(2, {(half, half): 1}), (1, 0), (1, -1))
    # one short of the limit, or summed into different coordinates, it passes
    got = shear_variables(PolyH(2, {(half - 1, half): 3}), (1, 0), (1, -1))
    assert got.sorted_terms() == [((0, LIMIT - 1), 3)] and got.top == LIMIT - 1
    got = shear_variables(PolyH(3, {(half, 0, half): 1}), (1, 0, 0), (1, -1, 0))
    assert got.sorted_terms() == [((0, half, half), 1)] and got.top == half


def test_one_pass_subtraction_equals_adding_the_negation():
    r = rng(139)
    for _ in range(200):
        for a, b in ((rand_laurent(r, 2), rand_laurent(r, 2)),
                     (rand_polyh(r, 2), rand_polyh(r, 2) * PolyH.constant(2, Fraction(1, 3)))):
            diff = a - b
            assert diff == a + (-b)
            assert diff.terms == (a + (-b)).terms and diff.top == (a + (-b)).top
            assert all(diff.terms.values())
            assert a - 2 == a + (-2) and 2 - a == (-a) + 2


# ---------------------------------------------------------------------------
# reading JSON terms

def _outcome_of(read, ring, rank, items):
    try:
        p = read(ring, rank, items)
    except (ValueError, TypeError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return p, p.top, type(p)


def _entry(r, ring):
    """One exponent entry, mostly an int, sometimes an integer string,
    sometimes near the limit."""
    low = 0 if ring is H else -5
    x = r.choice([r.randint(low, 5)] * 6 + [LIMIT - 1, r.randint(low, 9) * 10 ** 15]
                  + ([1 - LIMIT] if ring is K else []))
    return str(x) if r.random() < 0.1 else x


def _rand_items(r, ring, rank):
    """Valid JSON terms: repeated exponents, zero coefficients, integer and
    string spellings of one exponent."""
    items = []
    for _ in range(r.randint(0, 8)):
        if items and r.random() < 0.2:
            e = list(r.choice(items)[1])  # the same exponent again
        else:
            e = [_entry(r, ring) for _ in range(rank)]
        c = r.choice([0, 0, 1, -1, 2, 7, -12])
        coeff = str(c) if ring is K or r.random() < 0.5 else f"{c}/{r.randint(1, 4)}"
        items.append([coeff, e])
    return items


@pytest.mark.parametrize("ring", [K, H], ids=["K", "H"])
def test_terms_read_in_one_pass_equal_the_constructor(ring):
    r = rng(171)
    for _ in range(1500):
        rank = r.randint(1, 5)
        items = _rand_items(r, ring, rank)
        got = _outcome_of(lambda ring, rank, items: ring.from_terms(rank, items), ring, rank,
                          items)
        assert got == _outcome_of(parsed_terms, ring, rank, items), items
        assert not isinstance(got[0], type), (items, got)
        # the one-pass reader of a class file's table, where it takes them
        table = ring.from_table(rank, {"v": items})
        if table is not None:
            assert (table["v"], table["v"].top, type(table["v"])) == got, items


MALFORMED = [
    [["1", [0, 0, 0]]],
    [["1", [0]]],
    [["1", []]],
    [["1", [True, 0]]],
    [["1", [0, False]]],
    [["1", [0.5, 0]]],
    [["1", ["x", 0]]],
    [["1", [None, 0]]],
    [["1", [LIMIT, 0]]],
    [["1", [0, -LIMIT]]],
    [["1", [2 ** 63, 0]]],
    [["1", [-2 ** 63 - 1, 0]]],
    [["1", [0, 10 ** 30]]],
    [["1", [-1, 0]]],
    [["1", [0, 0]], ["2", [LIMIT, 1]], ["3", [1, 2, 3]]],
    [["1", [1, 2, 3]], ["2", [LIMIT, 1]]],
    [["0", [1, 2, 3]], ["0", [LIMIT, 0]], ["4", [1, 1]]],
    [["5", [1, 2, 3]], ["0", [1, 2, 3]]],
    [["5", [LIMIT, 0]], ["0", [str(LIMIT), 0]]],
    [["5", [LIMIT, 0]], ["bad", [0, 0]]],
    [["1", [0, 0]], ["1", "00"]],
    [["1", [0, 0]], ["1", 7]],
    [["1.5", [0, 0]]],
    [["x", [1, 2, 3]]],
    [[None, [0, 0]]],
    [["1", [0, 0], 3]],
    [["1"]],
    ["1x"],
    [7],
    "ab",
    {"ab": 1},
    [],
    {},
]


@pytest.mark.parametrize("ring", [K, H], ids=["K", "H"])
@pytest.mark.parametrize("items", MALFORMED, ids=range(len(MALFORMED)))
def test_malformed_terms_raise_as_the_constructor(ring, items):
    got = _outcome_of(lambda ring, rank, items: ring.from_terms(rank, items), ring, 2, items)
    assert got == _outcome_of(parsed_terms, ring, 2, items)
    if isinstance(got[0], type):  # the one-pass reader leaves them to from_terms
        assert ring.from_table(2, {"v": items}) is None


def _per_value(ring, rank, table):
    """A class file's table read value by value in file order through the
    constructor, with the errors the reader reports."""
    out = {}
    for vid, items in table.items():
        if not isinstance(items, (list, tuple)):
            raise ValidationError(
                f"malformed class file: the value at {vid} is not an array: {items!r}")
        try:
            out[vid] = parsed_terms(ring, rank, items)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed class file: {exc}") from None
    return out


def _table_outcome(read, ring, rank, table):
    try:
        c = read(ring, rank, table)
    except ValidationError as exc:
        return str(exc)
    return {v: (p, p.top, type(p)) for v, p in c.items()}, list(c)


def _from_file(ring, rank, table):
    c, mode = class_from_dict({"mode": ring.name, "class": table}, rank)
    assert mode == ring.name
    return c


@pytest.mark.parametrize("ring", [K, H], ids=["K", "H"])
def test_class_tables_read_in_one_pass_equal_the_values_read_one_by_one(ring):
    r = rng(173)
    one_pass = 0
    for trial in range(600):
        rank = r.randint(1, 4)
        table = {f"v{i}": _rand_items(r, ring, rank) for i in range(r.randint(0, 6))}
        if trial % 3:  # a malformed value first, in the middle or last
            bad = r.choice(MALFORMED)
            vids = list(table)
            at = r.choice([0, len(vids) // 2, len(vids)])
            table = dict([*[(v, table[v]) for v in vids[:at]], ("bad", bad),
                          *[(v, table[v]) for v in vids[at:]]])
        got = _table_outcome(_from_file, ring, rank, table)
        assert got == _table_outcome(_per_value, ring, rank, table), table
        one_pass += ring.from_table(rank, table) is not None
    assert one_pass > 50


@pytest.mark.parametrize("ring", [K, H], ids=["K", "H"])
@pytest.mark.parametrize("at", ["first", "middle", "last"])
def test_each_malformed_value_in_a_table_raises_as_read_alone(ring, at):
    r = rng(174)
    for items in MALFORMED:
        good = [_rand_items(r, ring, 2) for _ in range(2)]
        values = {"first": [items] + good, "middle": [good[0], items, good[1]],
                  "last": good + [items]}[at]
        table = {f"v{i}": v for i, v in enumerate(values)}
        got = _table_outcome(_from_file, ring, 2, table)
        assert got == _table_outcome(_per_value, ring, 2, table), table


# ---------------------------------------------------------------------------
# coefficient rings

@pytest.mark.parametrize("name", sorted(RINGS))
def test_each_ring_is_its_value_class(name, cp2):
    ring = RINGS[name]
    assert ring is {"ktheory": LaurentPoly, "cohomology": PolyH}[name] and ring.name == name
    w = (1, -2)
    values = [ring.factor(w), ring.flip(w), ring.zero(2), ring.one(2),
              ring.from_terms(2, [["3", [1, 2]]]), (ring.factor(w) ** 2).divide(w),
              ring.factor(w).shear((1, 0), (0, 1))]
    assert all(type(v) is ring for v in values), values
    assert values[5] == ring.factor(w)
    # the elimination divides in the ring of the value, and a non-class
    # still raises as it did
    with pytest.raises(DivisionFailure) as exc:
        cl.triangular_expansion(cp2, {"p1": ring.one(2)},
                                lambda r: cl.poincare_dual(ring, cp2, r))
    assert str(exc.value) == "value at p1 is not a multiple of its Euler class"
    # the class at p1, handed over off p1, is nonzero at p0 below it: the
    # step at p1 leaves a residual at p0 that no later step takes off
    p1 = cl.poincare_dual(ring, cp2, "p1")
    with pytest.raises(DivisionFailure) as exc:
        cl.triangular_expansion(cp2, {"p1": p1["p1"]},
                                lambda r: {"p0": [ring.one(2)]} if r == "p1" else {})
    assert str(exc.value) == "basis does not span: nonzero residual remains"
