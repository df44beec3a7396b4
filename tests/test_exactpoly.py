"""Polynomial arithmetic, grading, and random section generation."""

import itertools
import random
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricsegre import linalg
from toricsegre.errors import NotHomogeneous
from toricsegre.exactpoly import (BlockOrder, GrevLex, Polynomial,
                                  RingContext, monomials_of_degree,
                                  monomials_of_total_degree, multidegree_of,
                                  random_homogeneous)
from toricsegre.library import (hirzebruch, product_p1_cubed,
                                projective_space, threefold_p2_x_p1)

from _oracles import (block_key_by_comprehension,
                      grevlex_key_by_comprehension, monomials_by_heft_walk)
from test_cones import EIGHT_RAYS, FIVE_RAYS, cyclic_surface

CTX2 = RingContext(names=("x", "y", "z"), grading=((1, 1, 1),))
# P1 x P1 style bigrading
CTXB = RingContext(names=("x0", "x1", "y0", "y1"),
                   grading=((1, 1, 0, 0), (0, 0, 1, 1)))


def polys(nvars=3, max_exp=3, max_size=5):
    monomial = st.tuples(*([st.integers(0, max_exp)] * nvars))
    return st.dictionaries(monomial, st.integers(-5, 5),
                           max_size=max_size).map(
        lambda d: Polynomial(nvars, {m: c for m, c in d.items() if c}))


@st.composite
def orders(draw, nvars):
    """GrevLex with a perm other than the natural order, or a BlockOrder
    with a random proper front block."""
    if draw(st.booleans()):
        perm = draw(st.permutations(range(nvars)).filter(
            lambda p: p != sorted(p)))
        return GrevLex(perm)
    front = draw(st.sets(st.integers(0, nvars - 1), min_size=1,
                         max_size=nvars - 1))
    return BlockOrder(front, nvars)


def leads(a, b, order):
    """Whether monomial a is greater than b, from the order's definition:
    block by block (one block for GrevLex, ordered by ``perm``), the larger
    total degree wins, and then the last variable of the block where the
    exponents differ decides, the smaller exponent winning."""
    if isinstance(order, GrevLex):
        blocks = (order.perm,)
    else:
        blocks = (order.front, order.rest)
    for block in blocks:
        da = sum(a[i] for i in block)
        db = sum(b[i] for i in block)
        if da != db:
            return da > db
        for i in reversed(block):
            if a[i] != b[i]:
                return a[i] < b[i]
    return False


@st.composite
def keyed_exponents(draw):
    """An exponent tuple in 1 to 6 variables and an order on them: GrevLex
    with any perm, or a BlockOrder whose front block may be empty or
    everything."""
    nvars = draw(st.integers(1, 6))
    e = draw(st.tuples(*([st.integers(0, 9)] * nvars)))
    if draw(st.booleans()):
        return e, GrevLex(draw(st.permutations(range(nvars))))
    front = draw(st.sets(st.integers(0, nvars - 1), max_size=nvars))
    return e, BlockOrder(front, nvars)


CHOW_SHAPED_PERM = (3, 11) + tuple(i for i in range(16) if i not in (3, 11))


@given(keyed_exponents())
@example((tuple(range(7, 23)), GrevLex(CHOW_SHAPED_PERM)))
@example(((5, 0, 2, 9, 1), GrevLex(range(5))))
@example(((5, 0, 2, 9, 1), GrevLex((4, 3, 2, 1, 0))))
@example(((5, 0, 2, 9, 1), BlockOrder((2,), 5)))
@example(((5, 0, 2, 9, 1), BlockOrder((0, 1, 2, 4), 5)))
@example(((5, 0, 2, 9, 1), BlockOrder((4,), 5)))
@example(((5, 0, 2, 9, 1), BlockOrder((0, 2, 3), 5)))
@example(((5, 0, 2, 9, 1), BlockOrder((3, 4), 5)))
@example(((4,), GrevLex((0,))))
@example(((3,), BlockOrder((), 1)))
@example(((3,), BlockOrder((0,), 1)))
@example(((2, 0, 5), BlockOrder((), 3)))
@example(((2, 0, 5), BlockOrder((0, 1, 2), 3)))
@settings(max_examples=200, deadline=None)
def test_order_keys_match_comprehension_oracles(case):
    """The keys equal the keys built by list comprehensions: the
    ``itemgetter`` GrevLex key on the 16-variable permuted perm of a Chow
    ring, the identity perm, its reverse and one variable, and the
    BlockOrder key on blocks of one variable or none, and on blocks that
    are a run of variables or not."""
    e, order = case
    if isinstance(order, GrevLex):
        assert order.key(e) == grevlex_key_by_comprehension(order, e)
    else:
        assert order.key(e) == block_key_by_comprehension(order, e)


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


@given(polys(max_exp=2, max_size=3), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_power_is_repeated_product(p, n):
    """Repeated squaring gives the n-fold product."""
    product = Polynomial.constant(3, 1)
    for _ in range(n):
        product = product * p
    assert p ** n == product


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


def test_monomials_of_degree_matches_heft_walk():
    """The lattice points, in order, against the heft-simplex walk on
    random degrees, some of them not effective, over P^1-P^3, F0-F3, P1^3,
    P2 x P1 and the 5- and 8-ray surfaces, and on every variable degree."""
    rings = [projective_space(n) for n in (1, 2, 3)]
    rings += [hirzebruch(e) for e in range(4)]
    rings += [product_p1_cubed(), threefold_p2_x_p1()]
    rings += [cyclic_surface(FIVE_RAYS), cyclic_surface(EIGHT_RAYS)]
    rng = random.Random(18)
    for cox in rings:
        ctx = cox.ring
        r = ctx.nvars
        top = 3 if r < 8 else 1
        degrees = [ctx.degree_of_variable(i) for i in range(r)]
        for _ in range(12):
            e = [rng.randint(0, top) - rng.randint(0, 1) for _ in range(r)]
            degrees.append(tuple(sum(row[i] * e[i] for i in range(r))
                                 for row in ctx.grading))
        for delta in degrees:
            assert list(monomials_of_degree(delta, ctx)) == \
                monomials_by_heft_walk(delta, cox), (ctx.names, delta)


def test_monomials_of_degree_takes_one_smith_form(monkeypatch):
    """e0 and the kernel both come from one Smith form of the grading."""
    cox = hirzebruch(1)
    smith = []
    form = linalg.smith_normal_form
    monkeypatch.setattr(linalg, "smith_normal_form",
                        lambda m: smith.append(m) or form(m))
    monomials_of_degree.cache_clear()
    got = monomials_of_degree((3, 2), cox.ring)
    assert len(smith) == 1
    assert list(got) == monomials_by_heft_walk((3, 2), cox)


def test_monomials_of_total_degree_lex():
    for n in range(1, 5):
        for d in range(4):
            box = itertools.product(range(d + 1), repeat=n)
            assert monomials_of_total_degree(n, d) == \
                tuple(e for e in box if sum(e) == d), (n, d)


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
    order = GrevLex(range(3))
    # x^2 > x y > y^2 > x z > y z > z^2 under grevlex with x > y > z
    monos = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1),
             (0, 0, 2)]
    assert sorted(monos, key=order.key) == monos


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_sorting_by_key_lists_the_leading_monomial_first(data):
    nvars = data.draw(st.integers(2, 5))
    order = data.draw(orders(nvars))
    monos = data.draw(st.lists(st.tuples(*([st.integers(0, 3)] * nvars)),
                               min_size=2, max_size=12, unique=True))
    ranked = sorted(monos, key=order.key)
    assert all(leads(a, b, order) for a, b in zip(ranked, ranked[1:]))

