"""Groebner engine: membership, elimination, saturation, dimension and
length, cross-checked against hand computations and sympy.  Membership and
ideal equality are read off the canonical reduced bases."""

import random
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsegre import groebner
from toricsegre.chow import build_chow_ring
from toricsegre.errors import NonIntegerCoefficient, NotZeroDimensional
from toricsegre.exactpoly import (BlockOrder, GrevLex, Polynomial,
                                  RingContext, monomials_of_degree,
                                  random_homogeneous)
from toricsegre.groebner import (Ideal, groebner_basis, krull_dimension,
                                 normal_form, saturate_ideal,
                                 vector_space_dimension)
from toricsegre.library import hirzebruch

from _fans import fan_library
from _oracles import (grevlex_ideal, intersect, irrelevant_ideal,
                      monomial_lcm_by_max, normal_form_by_scan, reduce_by_scan,
                      vector_space_dimension_by_box)
from test_cones import EIGHT_RAYS, TWELVE_RAYS, cyclic_surface
from test_exactpoly import leads, orders, polys
from test_segre import time_limit

XY = ("x", "y")
XYZ = ("x", "y", "z")


def var(names, i):
    return Polynomial.variable(len(names), i)


def ideal(names, *gens, order=None):
    """The ideal of ``gens`` for ``order``, by default grevlex in
    variable order."""
    return Ideal.create(gens, names, order or GrevLex(range(len(names))))


def same_ideal(I, J):
    """Equality of two ideals of one order via the canonical reduced
    bases."""
    return groebner_basis(I).elements == groebner_basis(J).elements


def in_ideal(f, I):
    """f lies in I exactly when adding it leaves the reduced basis as is."""
    return same_ideal(ideal(I.names, *I.generators, f, order=I.order), I)


@given(st.integers(1, 16).flatmap(lambda n: st.tuples(
    *[st.tuples(st.integers(0, 9), st.integers(0, 9))] * n)))
@settings(max_examples=200, deadline=None)
def test_monomial_lcm_matches_max_oracle(pairs):
    """The one-pass lcm kernel equals ``max`` of each exponent pair, as a
    tuple, on up to 16 variables (the Chow rings' largest)."""
    a, b = zip(*pairs)
    lcm = groebner._monomial_lcm(a, b)
    assert type(lcm) is tuple
    assert lcm == monomial_lcm_by_max(a, b)


def test_membership_oracle():
    x, y = var(XY, 0), var(XY, 1)
    I = ideal(XY, x * x - y, y * y)
    assert in_ideal(x ** 4, I)          # x^4 = (x^2-y)(x^2+y) + y^2
    assert in_ideal(x * x * y - y * y, I)
    assert not in_ideal(x, I)
    assert not in_ideal(y, I)


def test_normal_form_is_linear_and_idempotent():
    x, y = var(XY, 0), var(XY, 1)
    G = groebner_basis(ideal(XY, x * x - y))
    f, g = x ** 3 + y, x * y
    assert normal_form(f + g, G) == normal_form(f, G) + normal_form(g, G)
    assert normal_form(normal_form(f, G), G) == normal_form(f, G)


def test_normal_form_rejects_non_integral_remainder():
    x, y = var(XY, 0), var(XY, 1)
    G = groebner_basis(ideal(XY, x * 2 - y))  # lead 2x: x reduces to y/2
    with pytest.raises(NonIntegerCoefficient):
        normal_form(x, G)
    assert normal_form(x * 2, G) == y


def test_unit_ideal():
    x = var(XY, 0)
    assert krull_dimension(ideal(XY, x, x + Polynomial.constant(2, 1))) is None


def test_eliminate_twisted_parabola():
    t, x, y = var(XYZ, 0), var(XYZ, 1), var(XYZ, 2)
    # a block order with t in front: the t-free basis elements generate
    # the elimination ideal, which stays in the full ring
    G = groebner_basis(ideal(XYZ, x - t, y - t * t,
                             order=BlockOrder((0,), len(XYZ))))
    t_free = [g for g in G.elements if all(m[0] == 0 for m in g.coeffs)]
    assert same_ideal(ideal(XYZ, *t_free), ideal(XYZ, y - x * x))


def test_saturate_element_oracle():
    x, y = var(XY, 0), var(XY, 1)
    I = ideal(XY, x * x * y, x * y * y)  # = xy.(x, y)
    S = saturate_ideal(I, ideal(XY, x))
    assert same_ideal(S, ideal(XY, y))


def test_saturate_ideal_monomial():
    x, y = var(XY, 0), var(XY, 1)
    I = ideal(XY, x * x, x * y)
    S = saturate_ideal(I, ideal(XY, x, y))
    assert same_ideal(S, ideal(XY, x))


def test_saturate_ideal_general():
    x, y = var(XY, 0), var(XY, 1)
    I = ideal(XY, (x - y) * x, (x - y) * y)
    S = saturate_ideal(I, ideal(XY, x + y))
    assert same_ideal(S, ideal(XY, x - y))
    # two lines through the origin have no embedded point, so saturating
    # by (x, y) gives I back; one y shared across the generators would
    # saturate by x + y and give (x)
    I = ideal(XY, x * (x + y))
    S = saturate_ideal(I, ideal(XY, x, y))
    assert same_ideal(S, I)


def test_intersect_oracle():
    x, y = var(XY, 0), var(XY, 1)
    J = intersect(ideal(XY, x), ideal(XY, y))
    assert same_ideal(J, ideal(XY, x * y))


def test_krull_dimension_oracles():
    x, y, z = var(XYZ, 0), var(XYZ, 1), var(XYZ, 2)
    assert krull_dimension(ideal(XYZ, x)) == 2
    assert krull_dimension(ideal(XYZ, x, y)) == 1
    assert krull_dimension(ideal(XYZ, x, y, z)) == 0
    assert krull_dimension(ideal(XYZ, x * y - z * z)) == 2
    assert krull_dimension(
        ideal(XYZ, x + Polynomial.constant(3, 1), x)) is None


def test_vector_space_dimension_oracles():
    x, y = var(XY, 0), var(XY, 1)
    assert vector_space_dimension(ideal(XY, x ** 2, y ** 3)) == 6
    assert vector_space_dimension(ideal(XY, x * x + y, y * y)) == 4
    assert vector_space_dimension(
        ideal(XY, x, x + Polynomial.constant(2, 1))) == 0
    with pytest.raises(NotZeroDimensional):
        vector_space_dimension(ideal(XY, x))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_vector_space_dimension_matches_box_oracle(data):
    """Random Artinian ideals: pure powers of every variable plus a few
    random polynomials.  The walk counts what the box scan counts."""
    nvars = data.draw(st.integers(1, 3))
    names = "xyz"[:nvars]
    powers = [var(names, i) ** data.draw(st.integers(1, 5))
              for i in range(nvars)]
    extra = data.draw(st.lists(polys(nvars, max_exp=3, max_size=3),
                               max_size=3))
    I = ideal(names, *powers, *extra)
    assert vector_space_dimension(I) == vector_space_dimension_by_box(I)


def test_vector_space_dimension_of_a_large_box_within_2_s():
    """x_i^30 and every x_i x_j in 6 variables: the box below the pure
    powers holds 30^6 > 10^8 monomials, the quotient 1 + 6 * 29."""
    names = "abcdef"
    xs = [var(names, i) for i in range(6)]
    I = ideal(names, *(x ** 30 for x in xs),
              *(xs[i] * xs[j] for i in range(6) for j in range(i + 1, 6)))
    with time_limit(2, "the 30^6 box"):
        assert vector_space_dimension(I) == 175


def _to_sympy(f, syms):
    expr = 0
    for m, c in f.coeffs.items():
        term = sympy.Integer(c)
        for s, e in zip(syms, m):
            term *= s ** e
        expr += term
    return expr


def test_membership_against_sympy():
    rng = random.Random(20260823)
    syms = sympy.symbols("x y")
    monos = list(monomials_of_degree((3,), RingContext(names=XY,
                                                       grading=((1, 1),))))
    for trial in range(8):
        gens = []
        for _ in range(2):
            f = Polynomial.zero(2)
            for m in monos:
                c = rng.randint(-3, 3)
                if c:
                    f = f + Polynomial(2, {m: c})
            if not f.is_zero():
                gens.append(f)
        if not gens:
            continue
        I = ideal(XY, *gens)
        sgens = [_to_sympy(g, syms) for g in gens]
        for _ in range(4):
            f = Polynomial.zero(2)
            for m in monos:
                c = rng.randint(-2, 2)
                if c:
                    f = f + Polynomial(2, {m: c})
            ours = in_ideal(f, I)
            theirs = sympy.reduced(
                _to_sympy(f, syms),
                sympy.groebner(sgens, *syms, order="grevlex"))[1] == 0
            assert ours == theirs


def test_vsdim_against_sympy():
    # colength of (x^2 - y^3, x y) : standard monomials via sympy GB
    x, y = var(XY, 0), var(XY, 1)
    I = ideal(XY, x * x - y ** 3, x * y)
    syms = sympy.symbols("x y")
    gb = sympy.groebner([syms[0] ** 2 - syms[1] ** 3,
                         syms[0] * syms[1]], *syms, order="grevlex")
    lead_exps = [tuple(p.LM(order="grevlex").exponents) for p in gb.polys]
    count = 0
    for a in range(10):
        for b in range(10):
            if not any(a >= la and b >= lb for la, lb in lead_exps):
                count += 1
    assert vector_space_dimension(I) == count


def test_groebner_respects_order_argument():
    x, y = var(XY, 0), var(XY, 1)
    for order in (GrevLex((0, 1)), GrevLex((1, 0))):
        I = ideal(XY, x * x - y, y * y - x, order=order)
        assert in_ideal(x ** 4 - x, I)
        assert not in_ideal(x - y, I)


def test_block_orders_give_their_own_bases():
    # ring (t, x, y): one ideal per block order, with t and with y in front
    t, x, y = var(XYZ, 0), var(XYZ, 1), var(XYZ, 2)
    gens = (t * x - y, x ** 3 - y * y)
    t_front = groebner_basis(ideal(XYZ, *gens, order=BlockOrder((0,), 3)))
    y_front = groebner_basis(ideal(XYZ, *gens, order=BlockOrder((2,), 3)))
    assert y_front.leads == ((0, 0, 1), (2, 2, 0))
    assert len(t_front.elements) == 3


def test_basis_is_computed_once():
    """The first query computes the basis and every later one returns
    it, with no Buchberger run."""
    x, y = var(XY, 0), var(XY, 1)
    I = ideal(XY, x * x - y, y * y - x)
    G = groebner_basis(I)
    with mock.patch.object(groebner, "_buchberger",
                           wraps=groebner._buchberger) as spy:
        assert groebner_basis(I) is G
    assert spy.call_count == 0


def _terms_or_error(fn, f, G):
    """Terms of fn(f, G) in the order they are stored, or the message of
    the NonIntegerCoefficient it raises."""
    try:
        return list(fn(f, G).coeffs.items())
    except NonIntegerCoefficient as exc:
        return str(exc)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_heap_reduction_matches_scan_oracle(data):
    """On random ideals, under GrevLex with a non-natural perm and under
    BlockOrder: reduction by the generators and the basis are the ones the
    scanning reduction gives, term for term; the stored leads are each
    element's greatest monomial; and normal_form equals the scanning
    oracle or raises the same error."""
    nvars = data.draw(st.integers(2, 3))
    order = data.draw(orders(nvars))
    gens = data.draw(st.lists(
        polys(nvars, max_exp=2, max_size=3).filter(bool), min_size=2,
        max_size=3))
    raw = [g.coeffs for g in gens]
    key = order.key
    leads_of_raw = [min(q, key=key) for q in raw]
    reducers = sorted(((lm, q, q[lm]) for lm, q in zip(leads_of_raw, raw)),
                      key=lambda t: key(t[0]), reverse=True)
    for f in data.draw(st.lists(polys(nvars), min_size=1, max_size=4)):
        assert (list(groebner._reduce(f.coeffs, reducers, order).items())
                == list(reduce_by_scan(f.coeffs, reducers, order).items()))
    with mock.patch.object(groebner, "_reduce", reduce_by_scan):
        by_scan = groebner._buchberger(raw, order)
    by_heap = groebner._buchberger(raw, order)
    assert ([(lm, list(p.items())) for lm, p in by_heap]
            == [(lm, list(p.items())) for lm, p in by_scan])

    G = groebner_basis(ideal("xyz"[:nvars], *gens, order=order))
    for g, lm in zip(G.elements, G.leads):
        assert all(leads(lm, m, order) for m in g.coeffs if m != lm)
    for f in data.draw(st.lists(polys(nvars), min_size=1, max_size=4)):
        assert (_terms_or_error(normal_form, f, G)
                == _terms_or_error(normal_form_by_scan, f, G))


def test_normal_form_matches_scan_oracle_on_chow_bases():
    """The Chow bases of the 8- and 12-ray surfaces have many leads of one
    degree, which the small random bases above lack.  Random products of
    one to three divisor classes, each a combination of the D_i taken raw
    or in normal form, reduce term for term as the scan oracle reduces
    them."""
    rng = random.Random(24)
    for rays in (EIGHT_RAYS, TWELVE_RAYS):
        chow = build_chow_ring(cyclic_surface(rays))
        G = chow.gb
        assert sum(sum(lm) == 2 for lm in G.leads) > len(rays)
        for _ in range(60):
            f = chow.one() * rng.randint(1, 5)
            for _ in range(rng.randint(1, 3)):
                d = chow.zero()
                for i in rng.sample(range(chow.nvars), rng.randint(1, 4)):
                    d = d + Polynomial.variable(chow.nvars, i) * rng.randint(
                        -3, 3)
                f = f * (d if rng.random() < 0.5 else chow.reduce(d))
            assert (_terms_or_error(normal_form, f, G)
                    == _terms_or_error(normal_form_by_scan, f, G))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_extended_basis_matches_fresh_basis(data):
    """On random ideals, under GrevLex with a non-natural perm and under
    BlockOrder: extending the basis of some generators by the others gives
    the basis Buchberger computes from all of them at once, and ``extend``
    has computed it already, so the query runs no Buchberger."""
    nvars = data.draw(st.integers(2, 3))
    order = data.draw(orders(nvars))
    names = "xyz"[:nvars]
    first, more = (data.draw(st.lists(polys(nvars, max_exp=2, max_size=3),
                                      min_size=1, max_size=3))
                   for _ in range(2))
    ext = ideal(names, *first, order=order).extend(more)
    with mock.patch.object(groebner, "_buchberger",
                           wraps=groebner._buchberger) as spy:
        extended = groebner_basis(ext)
    assert spy.call_count == 0
    fresh = groebner_basis(ideal(names, *first, *more, order=order))
    assert extended.elements == fresh.elements
    assert extended.leads == fresh.leads


def test_extend_basis_is_a_fresh_basis_of_its_generators():
    """The basis ``extend`` makes its ideal with is the one a new ideal
    of the same generators and order computes."""
    x, y, z = var(XYZ, 0), var(XYZ, 1), var(XYZ, 2)
    for order in (GrevLex((0, 1, 2)), GrevLex((2, 0, 1)),
                  BlockOrder((1,), 3)):
        ext = ideal(XYZ, x * x - y * z, y ** 3 - x,
                    order=order).extend([x * y - z, z ** 2])
        fresh = groebner_basis(ideal(XYZ, *ext.generators, order=order))
        assert groebner_basis(ext).elements == fresh.elements
        assert groebner_basis(ext).leads == fresh.leads


def _saturations():
    """(I, J) pairs: the hand cases above, random ones on two and three
    variables, and one in the graded Cox ring of F_1."""
    x, y = var(XY, 0), var(XY, 1)
    yield ideal(XY, (x - y) * x, (x - y) * y), ideal(XY, x + y)
    yield ideal(XY, x * (x + y)), ideal(XY, x, y)
    yield ideal(XY, x * x * y, x * y * y), ideal(XY, x)
    rng = random.Random(0)
    for names in (XY, XYZ) * 6:
        def rand():
            return Polynomial(len(names), {
                tuple(rng.randint(0, 2) for _ in range(len(names))):
                    rng.randint(-3, 3) for _ in range(3)})
        yield (ideal(names, *(rand() for _ in range(2))),
               ideal(names, *(rand() for _ in range(rng.randint(1, 2)))))
    names = hirzebruch(1).ring.names
    x0, x1, y0, y1 = (var(names, i) for i in range(4))
    yield (ideal(names, x0 * y1, x1 * y1 * x0 - y0 * x0),
           ideal(names, x0, y1))


def test_saturation_seeds_its_reduced_basis():
    """The basis ``saturate_ideal`` makes its ideal with, from the
    elimination, is the one Buchberger computes from the saturation's
    generators."""
    for I, J in _saturations():
        S = saturate_ideal(I, J)
        if S is I:
            continue
        with mock.patch.object(groebner, "_buchberger",
                               wraps=groebner._buchberger) as spy:
            seeded = groebner_basis(S)
        assert spy.call_count == 0
        fresh = groebner_basis(ideal(S.names, *S.generators, order=S.order))
        assert seeded.elements == fresh.elements
        assert seeded.leads == fresh.leads


def _random_ideal(data, ring, rng, max_size):
    """1..max_size random homogeneous generators, each of the degree of a
    product of one or two variables."""
    gens = []
    for _ in range(data.draw(st.integers(1, max_size))):
        vs = data.draw(st.lists(st.integers(0, ring.nvars - 1),
                                min_size=1, max_size=2))
        delta = tuple(map(sum, zip(*(ring.degree_of_variable(i)
                                     for i in vs))))
        gens.append(random_homogeneous(delta, rng, 5, ring))
    return grevlex_ideal(gens, ring.names)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_saturation_basis_is_multihomogeneous(data):
    """With y_i of degree -deg g_i the elimination's inputs are all
    homogeneous, so every element of its reduced basis in k[x] has one
    multidegree (DECISIONS.md entry 17): for homogeneous I and J in the
    Cox rings of F_1 and P1 x P1, and for J the irrelevant ideal of a
    library fan."""
    library = fan_library()
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    if data.draw(st.booleans()):
        ring = library[data.draw(st.sampled_from(["F1", "P1xP1"]))].ring
        I = _random_ideal(data, ring, rng, 2)
        J = _random_ideal(data, ring, rng, 2)
    else:
        cox = library[data.draw(st.sampled_from(sorted(library)))]
        ring = cox.ring
        I = _random_ideal(data, ring, rng, 2)
        J = irrelevant_ideal(cox)
    eliminated = []
    eliminate = groebner._eliminate_extra_raw

    def recording(*args):
        eliminated.append(eliminate(*args))
        return eliminated[-1]

    with mock.patch.object(groebner, "_eliminate_extra_raw", recording):
        saturate_ideal(I, J)
    assert len(eliminated) == 1
    for p in eliminated[0]:
        assert len({tuple(sum(w * e for w, e in zip(row, m))
                          for row in ring.grading) for m in p}) == 1, p


def test_extend_grades_its_ideal_like_create():
    """``extend`` builds its ideal as ``create`` does: the basis elements,
    then the new generators with the zero ones dropped, in the same
    variables and order."""
    names = hirzebruch(1).ring.names
    x0, x1, y0, y1 = (var(names, i) for i in range(4))
    I = ideal(names, x0 * y1, x1 * y1 * x0 - y0 * x0)
    ext = I.extend([x1 * x1 * y1, Polynomial(len(names), {})])
    assert ext.generators == groebner_basis(I).elements + (x1 * x1 * y1,)
    assert (ext.names, ext.order) == (I.names, I.order)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_prime_field_basis_matches_integer_oracle(data):
    """On random ideals, under GrevLex with a non-natural perm and under
    BlockOrder: the reduced basis mod p = 2^31 - 1 is the integer basis
    made monic mod p, so it has the same leads; krull_dimension and
    vector_space_dimension read the same on both; and saturating by a
    random ideal gives the same leads over both fields."""
    p = 2 ** 31 - 1
    nvars = data.draw(st.integers(2, 3))
    order = data.draw(orders(nvars))
    names = "xyz"[:nvars]
    gens = data.draw(st.lists(polys(nvars, max_exp=2, max_size=3),
                              min_size=1, max_size=3))
    over_z = Ideal.create(gens, names, order)
    mod_p = Ideal.create(gens, names, order, p)
    G, Gp = groebner_basis(over_z), groebner_basis(mod_p)
    assert Gp.leads == G.leads
    for g, gp, lm in zip(G.elements, Gp.elements, G.leads):
        inv = pow(g.coeffs[lm], -1, p)
        assert gp.coeffs == {m: c * inv % p for m, c in g.coeffs.items()
                             if c % p}
    assert krull_dimension(mod_p) == krull_dimension(over_z)

    def length(I):
        try:
            return vector_space_dimension(I)
        except NotZeroDimensional:
            return None

    assert length(mod_p) == length(over_z)
    J = ideal(names, *data.draw(st.lists(
        polys(nvars, max_exp=2, max_size=2).filter(bool), min_size=1,
        max_size=2)))
    S, Sp = saturate_ideal(over_z, J), saturate_ideal(mod_p, J)
    assert Sp.prime == p and S.prime is None
    assert groebner_basis(Sp).leads == groebner_basis(S).leads


def test_prime_is_kept_by_extend_and_saturate():
    """An ideal over GF(p) extends and saturates to ideals over GF(p),
    whose generators are read mod p: 2*x - 2*p*y is 2*x there."""
    p = 7
    x, y = var(XY, 0), var(XY, 1)
    I = Ideal.create([x * 2 - y * (2 * p), y * y * 3], XY, GrevLex((0, 1)),
                     p)
    G = groebner_basis(I)
    assert G.leads == ((0, 2), (1, 0))
    assert [g.coeffs for g in G.elements] == [{(0, 2): 1}, {(1, 0): 1}]
    E = I.extend([y * 14 + x])
    assert E.prime == p and groebner_basis(E).elements == G.elements
    S = saturate_ideal(I, ideal(XY, y))
    assert S.prime == p and groebner_basis(S).leads == ((0, 0),)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_lead_lookup_matches_scan_oracle_on_lead_terms(data):
    """Under grevlex in variable order, GrevLex with another perm and
    BlockOrder: polynomials built from the basis's own leads, their
    multiples and random terms reduce term for term as the scan of every
    lead reduces them, or raise the same error.  A term that is a lead
    is found by the lookup, every other term by the leads of lower
    degree."""
    nvars = data.draw(st.integers(2, 3))
    order = data.draw(st.one_of(st.just(GrevLex(range(nvars))),
                                orders(nvars)))
    gens = data.draw(st.lists(
        polys(nvars, max_exp=2, max_size=3).filter(bool), min_size=1,
        max_size=3))
    G = groebner_basis(ideal("xyz"[:nvars], *gens, order=order))
    monomial = st.tuples(*([st.integers(0, 2)] * nvars))
    for _ in range(4):
        terms = {}
        for lm in data.draw(st.lists(st.sampled_from(G.leads), max_size=4)):
            shift = data.draw(st.one_of(st.just((0,) * nvars), monomial))
            m = tuple(a + b for a, b in zip(lm, shift))
            terms[m] = data.draw(st.integers(-5, 5))
        f = Polynomial(nvars, {m: c for m, c in terms.items() if c})
        f = f + data.draw(polys(nvars, max_exp=2, max_size=3))
        assert (_terms_or_error(normal_form, f, G)
                == _terms_or_error(normal_form_by_scan, f, G))


def test_constant_generator_gives_the_unit_basis():
    """A nonzero constant among the generators gives the reduced basis 1
    over Z and mod p, with or without a known basis, and reduces no
    S-polynomial; a constant that p divides is dropped mod p."""
    x, y = var(XY, 0), var(XY, 1)
    one = {(0, 0): 1}
    order = GrevLex((0, 1))
    known = groebner._buchberger([(x * x - y).coeffs], order)
    for prime in (None, 7, 2 ** 31 - 1):
        for gens in ([x * y + x, Polynomial.constant(2, -6), y],
                     [Polynomial.constant(2, 3)]):
            calls = []
            with mock.patch.object(groebner, "_spoly",
                                   side_effect=calls.append), \
                    mock.patch.object(groebner, "_spoly_mod",
                                      side_effect=calls.append):
                for base in ((), known):
                    got = groebner._buchberger([g.coeffs for g in gens],
                                               order, base, prime)
                    assert got == [((0, 0), one)], (prime, gens)
            assert calls == []
        I = Ideal.create([x, Polynomial.constant(2, 2)], XY, order, prime)
        assert groebner_basis(I).elements == (Polynomial.constant(2, 1),)
        assert krull_dimension(I) is None
    I = Ideal.create([x * x, Polynomial.constant(2, 7)], XY, order, 7)
    assert groebner_basis(I).leads == ((2, 0),)
