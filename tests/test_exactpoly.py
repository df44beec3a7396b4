"""Polynomial arithmetic, grading, and random section generation."""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsegre.errors import NotHomogeneous
from toricsegre.exactpoly import (GrevLex, Polynomial, RingContext,
                                  monomials_of_degree, multidegree_of,
                                  random_homogeneous, ungraded_context)

CTX2 = RingContext(names=("x", "y", "z"), grading=((1, 1, 1),), heft=(1,))
# P1 x P1 style bigrading
CTXB = RingContext(names=("x0", "x1", "y0", "y1"),
                   grading=((1, 1, 0, 0), (0, 0, 1, 1)), heft=(1, 1))


def polys(nvars=3):
    monomial = st.tuples(*([st.integers(0, 3)] * nvars))
    return st.dictionaries(monomial, st.integers(-5, 5), max_size=5).map(
        lambda d: Polynomial(nvars, {m: c for m, c in d.items() if c}))


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == Polynomial.zero(3)
    assert f * Polynomial.constant(3, 1) == f


def test_formatting():
    x = Polynomial.variable(3, 0)
    y = Polynomial.variable(3, 1)
    f = x * x - y * 2 + 1
    assert f.format(("x", "y", "z")) == "x^2 - 2*y + 1"
    assert Polynomial.zero(3).format(("x", "y", "z")) == "0"


def test_multidegree_oracle():
    x0 = Polynomial.variable(4, 0)
    y0 = Polynomial.variable(4, 2)
    f = x0 * x0 * y0
    assert multidegree_of(f, CTXB) == (2, 1)
    g = x0 + y0
    with pytest.raises(NotHomogeneous):
        multidegree_of(g, CTXB)


def test_monomials_of_degree_counts():
    # degree-d monomials in 3 variables: C(d+2, 2)
    for d in range(5):
        assert len(monomials_of_degree((d,), CTX2)) == comb(d + 2, 2)
    # bidegree (a, b) on P1 x P1: (a+1)(b+1)
    for a in range(4):
        for b in range(4):
            assert len(monomials_of_degree((a, b), CTXB)) == \
                (a + 1) * (b + 1)


def test_monomials_of_degree_empty():
    assert list(monomials_of_degree((-1, 0), CTXB)) == []


def test_random_homogeneous_degree_and_support():
    rng = random.Random(7)
    for delta in ((2, 1), (0, 3), (1, 0)):
        f = random_homogeneous(delta, rng, 10, CTXB)
        assert multidegree_of(f, CTXB) == delta
        assert len(f.coeffs) == len(monomials_of_degree(delta, CTXB))
        for c in f.coeffs.values():
            assert c != 0 and abs(c) <= 10 and c.denominator == 1


def test_random_homogeneous_deterministic():
    a = random_homogeneous((2, 2), random.Random("s"), 100, CTXB)
    b = random_homogeneous((2, 2), random.Random("s"), 100, CTXB)
    assert a == b


def test_set_to_one():
    x0, x1 = Polynomial.variable(4, 0), Polynomial.variable(4, 1)
    f = x0 * x0 * x1 + x1 * 3
    g = f.set_to_one((0,))
    # substituted variables are dropped: result lives in a 3-variable ring
    assert g == Polynomial.variable(3, 0) * 4


def test_grevlex_order_p2():
    order = GrevLex((1, 1, 1))
    # x^2 > x y > y^2 > x z > y z > z^2 under grevlex with x > y > z
    monos = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1),
             (0, 0, 2)]
    assert sorted(monos, key=order.key, reverse=True) == monos


def test_ungraded_context():
    ctx = ungraded_context(("a", "b"))
    assert ctx.nvars == 2
    assert multidegree_of(Polynomial.variable(2, 0) +
                          Polynomial.variable(2, 1) ** 3, ctx) == ()
