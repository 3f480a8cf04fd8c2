import random
from fractions import Fraction

import pytest

from oracles import fixture_graph
from gkmcalc.symcore import LaurentPoly, PolyH


@pytest.fixture(scope="session")
def cp1():
    return fixture_graph("cp1")


@pytest.fixture(scope="session")
def cp2():
    return fixture_graph("cp2")


@pytest.fixture(scope="session")
def cp3():
    return fixture_graph("cpn:3")


@pytest.fixture(scope="session")
def hirzebruch():
    return fixture_graph("hirzebruch")


@pytest.fixture(scope="session")
def square():
    return fixture_graph("square")


def rng(seed):
    return random.Random(seed)


def rand_weight(r, rank, lo=-2, hi=2, nonzero=True):
    while True:
        w = tuple(r.randint(lo, hi) for _ in range(rank))
        if not nonzero or any(w):
            return w


def rand_laurent(r, rank, max_terms=3, coeff=3, expo=2):
    terms = {}
    for _ in range(r.randint(1, max_terms)):
        e = tuple(r.randint(-expo, expo) for _ in range(rank))
        c = r.randint(-coeff, coeff)
        if c:
            terms[e] = terms.get(e, 0) + c
    return LaurentPoly(rank, terms)


def rand_polyh(r, rank, max_terms=3, coeff=3, deg=2):
    terms = {}
    for _ in range(r.randint(1, max_terms)):
        e = tuple(r.randint(0, deg) for _ in range(rank))
        c = Fraction(r.randint(-coeff, coeff))
        if c:
            terms[e] = terms.get(e, 0) + c
    return PolyH(rank, terms)


def specialization_points(rank, count=3):
    """(base, xi) pairs for the K oracle and rational points for H."""
    bases = [Fraction(2, 3), Fraction(3, 5), Fraction(5, 2), Fraction(7, 4)]
    xis = []
    c = 2
    while len(xis) < count + 2:
        xis.append(tuple(c ** k for k in range(rank)))
        c += 1
    return bases, xis
