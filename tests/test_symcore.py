"""Exact arithmetic layer: ring ops, packed keys, lattice tools, division,
localization."""

from fractions import Fraction

import pytest

from gkmcalc.errors import ContractError, ValidationError
from gkmcalc.symcore import (
    Irreducible,
    LaurentPoly,
    LocalizedSum,
    TERM_BUDGET,
    PolyH,
    canonical_sign,
    cyclotomic_divides,
    divide_by_cyclotomic,
    divide_by_linear_form,
    rational_primitive,
    shear_variables,
    substitute_linear,
    wt_scale,
    wt_sub,
)

from conftest import rand_laurent, rand_polyh, rand_weight, rng
from oracles import eval_h, eval_k, eval_laurent, eval_poly


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
        prod = LaurentPoly.one_minus(w) * p
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
        assert divide_by_cyclotomic(LaurentPoly.one_minus(w) * p, w) == p


def test_cyclotomic_roundtrip_negative_first_entry():
    r = rng(107)
    for _ in range(200):
        rank = r.randint(1, 4)
        w = (-r.randint(1, 5),) + rand_weight(r, rank - 1, -5, 5, nonzero=False)
        p = rand_laurent(r, rank, max_terms=4, expo=3)
        assert divide_by_cyclotomic(LaurentPoly.one_minus(w) * p, w) == p


def test_cyclotomic_rejects_nonzero_coset_sum():
    # adding c*e^v to a multiple of 1 - e^w makes the sum over the coset
    # v + Z*w nonzero, whatever the rest of the polynomial is
    r = rng(108)
    for _ in range(200):
        rank = r.randint(1, 4)
        w = rand_weight(r, rank, -4, 4)
        prod = LaurentPoly.one_minus(w) * rand_laurent(r, rank, max_terms=4, expo=3)
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
            p = LaurentPoly.one_minus(w) * p
        q = divide_by_cyclotomic(p, w)
        divisible = all(s == 0 for s in _coset_sums(p, w))
        assert (q is not None) == divisible
        assert cyclotomic_divides(p, w) == divisible
        if q is not None:
            hits += 1
            assert LaurentPoly.one_minus(w) * q == p
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


def test_results_past_the_term_budget_are_refused():
    n = TERM_BUDGET + 1
    with pytest.raises(ContractError, match="terms"):
        divide_by_cyclotomic(1 - e(n, 0), (1, 0))
    with pytest.raises(ContractError, match="terms"):
        divide_by_linear_form(PolyH(2, {(n, 0): 1, (0, n): -1}), (1, -1))
    with pytest.raises(ContractError, match="terms"):
        shear_variables(PolyH(2, {(0, n): 1}), (1, 1), (1, 0))  # (x2 - x1)^n


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
            numer = numer * LaurentPoly.one_minus(w)
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
