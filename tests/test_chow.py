"""Chow rings: ranks, degrees, known intersection numbers, pairing
non-degeneracy."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsegre import chow as chow_module
from toricsegre import linalg
from toricsegre.chow import (MAX_CHOW_ORDERS, _assemble, build_chow_ring,
                             chow_ranks)
from toricsegre.errors import (CodimOverflow, NormalizationInconsistent,
                               RankMismatch, TooLarge)
from toricsegre.exactpoly import GrevLex, Polynomial, random_homogeneous
from toricsegre.fan import Fan, build_cox_context, validate_smooth_complete
from toricsegre.groebner import groebner_basis
from toricsegre.library import (hirzebruch, product_p1_cubed,
                                projective_space, threefold_p2_x_p1)
from toricsegre.parser import parse_polynomial

from _fans import fan_library
from _oracles import _det, chow_ideal_by_solved_forms, irrelevant_ideal
from test_cones import EIGHT_RAYS, TWELVE_RAYS, cyclic_surface
from test_fan import star_subdivide
from test_segre import time_limit


def chow_of(name):
    return build_chow_ring(fan_library()[name])


def test_rank_identity_library():
    for name, cox in fan_library().items():
        chow = build_chow_ring(cox)
        ranks = chow_ranks(cox.fan)
        assert tuple(len(b) for b in chow.bases) == ranks, name


def test_known_ranks():
    assert chow_ranks(projective_space(2).fan) == (1, 1, 1)
    assert chow_ranks(hirzebruch(1).fan) == (1, 2, 1)
    assert chow_ranks(fan_library()["P1xP1xP1"].fan) == (1, 3, 3, 1)
    assert chow_ranks(fan_library()["P2xP1"].fan) == (1, 2, 2, 1)


def test_p2_intersection_numbers():
    chow = chow_of("P2")
    h = chow.divisor(0)
    assert chow.degree(chow.power(h, 2)) == 1
    # all hyperplane divisors agree in the Chow ring
    for i in range(3):
        assert chow.divisor(i) == h


def test_hirzebruch_intersection_numbers():
    for e in range(4):
        chow = build_chow_ring(hirzebruch(e))
        F = chow.divisor(0)   # fiber class [V(x0)]
        E = chow.divisor(3)   # section class [V(y1)], E^2 = -e EF
        assert chow.degree(chow.multiply(F, F)) == 0
        assert chow.degree(chow.multiply(E, F)) == 1
        assert chow.degree(chow.multiply(E, E)) == -e


def test_p1_cubed_intersection_numbers():
    chow = chow_of("P1xP1xP1")
    d1, d2, d3 = chow.divisor(0), chow.divisor(2), chow.divisor(4)
    assert chow.degree(chow.multiply(chow.multiply(d1, d2), d3)) == 1
    assert chow.multiply(d1, d1).is_zero()


def test_degree_rejects_low_codim():
    chow = chow_of("P2")
    with pytest.raises(CodimOverflow):
        chow.degree(chow.divisor(0))


def test_multiply_rejects_overflow():
    chow = chow_of("P2")
    h2 = chow.power(chow.divisor(0), 2)
    with pytest.raises(CodimOverflow):
        chow.multiply(h2, chow.divisor(0))


def test_pic_to_chow_round_trip():
    for name in ("P2", "F1", "P1xP1xP1"):
        cox = fan_library()[name]
        chow = build_chow_ring(cox)
        a = cox.ring.grading
        for delta in ((1,) * len(a), tuple(range(1, len(a) + 1))):
            cls = chow.pic_to_chow(delta)
            # re-read the multidegree from any integer divisor lift
            (lift,) = linalg.solve_integer(a, [delta])
            assert lift is not None
            assert chow.codim_of(cls) == 1 or cls.is_zero()


def test_poincare_pairing_unimodular():
    """Pairing matrix between codim d and k-d bases has determinant +-1."""
    for name in ("P2", "P1xP1", "F0", "F1", "F2", "F3", "P1xP1xP1"):
        cox = fan_library()[name]
        chow = build_chow_ring(cox)
        k = cox.fan.dim
        for d in range(k + 1):
            a_basis = chow.bases[d]
            b_basis = chow.bases[k - d]
            assert len(a_basis) == len(b_basis)
            mat = [[chow.degree(chow.multiply(
                        Polynomial(chow.nvars, {ma: 1}),
                        chow.reduce(Polynomial(chow.nvars, {mb: 1}))))
                    for mb in b_basis] for ma in a_basis]
            assert abs(_det(mat)) == 1, (name, d)


def test_class_coefficient_round_trip():
    chow = chow_of("F1")
    cls = chow.class_from_coefficients([3, -2], 1)
    assert chow.coefficients_on_basis(cls, 1) == (3, -2)


def test_no_integer_lift_error():
    # grading of P2 is (1,1,1); every integer delta lifts, so use a check
    # that the error path exists via an impossible equation on P1xP1 with
    # a doubled grading row is rejected earlier; here just assert lifts work
    chow = chow_of("P2")
    assert not chow.pic_to_chow((2,)).is_zero()


def _all_ints(polys):
    return all(type(c) is int for p in polys for c in p.coeffs.values())


def test_coefficients_are_ints():
    rng = random.Random(5)
    for name, cox in fan_library().items():
        chow = build_chow_ring(cox)
        ring = cox.ring
        text = "3*%s^2 - 2*%s + 7" % (ring.names[0], ring.names[-1])
        delta = ring.degree_of_variable(0)
        products = [chow.reduce(chow.divisor(i) * chow.divisor(j))
                    for i in range(chow.nvars) for j in range(chow.nvars)]
        assert _all_ints([parse_polynomial(text, ring)]), name
        assert _all_ints([random_homogeneous(delta, rng, 9, ring)]), name
        assert _all_ints(products), name
        assert _all_ints(chow.gb.elements), name
        assert _all_ints(
            groebner_basis(irrelevant_ideal(cox)).elements), name


def test_f2_presentation_is_monic_and_unchanged():
    """On F2 the first candidate order has a non-monic lead and is
    rejected; the accepted presentation is the one pinned below."""
    chow = chow_of("F2")
    assert chow.bases == (((0, 0, 0, 0),),
                          ((0, 0, 1, 0), (0, 1, 0, 0)),
                          ((0, 1, 1, 0),))
    assert chow.top == (0, 1, 1, 0)
    assert chow.sign == 1
    assert all(g.coeffs[lead] == 1 for g, lead
               in zip(chow.gb.elements, chow.gb.leads))


def chow_ring_by_solved_forms(cox):
    """``build_chow_ring`` as it was before it took the raw lattice
    relations: each pivot cone solves them again, and its orders are tried
    on that cone's ideal."""
    last_error = None
    for cone in cox.fan.max_cones:
        for perm in itertools.permutations(cox.fan.cone_complement(cone)):
            try:
                return _assemble(cox, chow_ideal_by_solved_forms(
                    cox, cone, GrevLex(cone + perm)))
            except (RankMismatch, NormalizationInconsistent) as exc:
                last_error = exc
    raise last_error


def assert_same_presentation(cox):
    got, want = build_chow_ring(cox), chow_ring_by_solved_forms(cox)
    assert repr(got.gb.order) == repr(want.gb.order), cox.fan.rays
    assert got.gb.elements == want.gb.elements, cox.fan.rays
    assert (got.bases, got.top, got.sign) == (want.bases, want.top,
                                              want.sign), cox.fan.rays


def test_raw_relations_match_solved_forms_on_library_fans():
    """The one ideal of the raw lattice relations gives the basis, order,
    standard monomials, top monomial and sign that the per-pivot solved
    forms gave, on every library fan."""
    for cox in fan_library().values():
        assert_same_presentation(cox)


@st.composite
def star_subdivisions(draw):
    """One to three star subdivisions of P2, P1 x P1, P3, P1^3 or
    P2 x P1."""
    base = draw(st.sampled_from(
        (projective_space(2), hirzebruch(0), projective_space(3),
         product_p1_cubed(), threefold_p2_x_p1()))).fan
    rays, cones = base.rays, list(base.max_cones)
    for _ in range(draw(st.integers(1, 3))):
        cone = draw(st.sampled_from(cones))
        face = draw(st.sampled_from(
            [f for size in range(2, base.dim + 1)
             for f in itertools.combinations(cone, size)]))
        rays, cones = star_subdivide(rays, cones, face)
    return Fan(rays, tuple(cones))


@given(star_subdivisions())
@settings(max_examples=25, deadline=None)
def test_raw_relations_match_solved_forms_on_star_subdivisions(fan):
    assert validate_smooth_complete(fan)
    assert_same_presentation(build_cox_context(fan))


def test_order_search_stops_at_the_cap(monkeypatch):
    """With every order rejected, the search on the 12-ray surface (10!
    orders per pivot cone) gives up after MAX_CHOW_ORDERS orders with
    TooLarge naming the count, in under 1 s.  On P2 the three orders run
    out first, and the last rejection is raised."""
    tried = []

    def reject(cox, ideal):
        tried.append(ideal.order)
        raise RankMismatch("rejected", codim=0, got=0, expected=1)

    monkeypatch.setattr(chow_module, "_assemble", reject)
    with time_limit(1, "the capped order search"):
        with pytest.raises(TooLarge) as exc:
            build_chow_ring(cyclic_surface(TWELVE_RAYS))
    assert len(tried) == MAX_CHOW_ORDERS
    assert exc.value.code == "E_TOO_LARGE"
    assert exc.value.details["orders"] == MAX_CHOW_ORDERS
    assert "first %d monomial orders" % MAX_CHOW_ORDERS in str(exc.value)
    tried.clear()
    with pytest.raises(RankMismatch):
        build_chow_ring(projective_space(2))
    assert len(tried) == 3


def test_library_fans_need_few_orders(monkeypatch):
    """The cap leaves room: every library fan and the 8- and 12-ray
    surfaces take one order, F2 and F3 two."""
    tried = []

    def counting(cox, ideal):
        tried.append(ideal.order)
        return _assemble(cox, ideal)

    monkeypatch.setattr(chow_module, "_assemble", counting)
    fans = dict(fan_library())
    fans["8 rays"] = cyclic_surface(EIGHT_RAYS)
    fans["12 rays"] = cyclic_surface(TWELVE_RAYS)
    for name, cox in fans.items():
        tried.clear()
        build_chow_ring(cox)
        assert len(tried) == (2 if name in ("F2", "F3") else 1), name
