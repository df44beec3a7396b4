"""Wall curves, nef checks, and the bounding class alpha."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsegre import fan as fan_module
from toricsegre import linalg
from toricsegre.chow import build_chow_ring
from toricsegre.cones import curve_functionals, find_alpha, find_ample, is_nef
from toricsegre.errors import InvalidFan, NotComplete, NotProjective, NotSmooth
from toricsegre.exactpoly import Polynomial, monomials_of_degree
from toricsegre.fan import (Fan, build_cox_context, validate_smooth_complete,
                            wall_relations)
from toricsegre.library import (hirzebruch, product_p1_cubed,
                                projective_space, threefold_p2_x_p1)
from toricsegre.segre import preprocess

from _fans import fan_library
from test_fan import generated_fans

FIVE_RAYS = ((1, 0), (1, 1), (0, 1), (-1, 0), (0, -1))
EIGHT_RAYS = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1),
              (1, -1))
TWELVE_RAYS = ((1, 0), (2, 1), (3, 2), (4, 3), (5, 4), (1, 1), (0, 1),
               (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))


def cyclic_surface(rays):
    """Cox context of the surface whose maximal cones are the cyclically
    adjacent ray pairs; variables z0, z1, ..."""
    r = len(rays)
    return build_cox_context(
        Fan(tuple(rays), tuple((i, (i + 1) % r) for i in range(r))))


def variable_degrees(cox, indices):
    return [cox.ring.degree_of_variable(i) for i in indices]


def objective(functionals, alpha):
    return sum(sum(wi * ai for wi, ai in zip(w, alpha)) for w in functionals)


def test_wall_relations_annihilate_rays():
    for cox in fan_library().values():
        fan = cox.fan
        for c in wall_relations(fan):
            for j in range(fan.dim):
                assert sum(ci * fan.rays[i][j]
                           for i, ci in enumerate(c)) == 0


def test_walls_are_walked_once_per_fan(monkeypatch):
    """Validation, the wall functionals and ``preprocess`` of one Cox
    context share a single walk of its fan's walls."""
    walked = []
    walk = fan_module.wall_relations

    def counting(fan):
        walked.append(fan)
        return walk(fan)

    monkeypatch.setattr(fan_module, "wall_relations", counting)
    cox = cyclic_surface(FIVE_RAYS)
    chow = build_chow_ring(cox)
    validate_smooth_complete(cox.fan)
    curve_functionals(cox)
    preprocess(cox, chow, [Polynomial.variable(cox.nvars, 0)])
    assert walked == [cox.fan]


def test_nef_criterion_p2():
    cox = projective_space(2)
    w = curve_functionals(cox)
    assert is_nef((0,), w) and is_nef((3,), w)
    assert not is_nef((-1,), w)


def test_nef_criterion_hirzebruch():
    """(a, b) nef on F_e iff a >= e b, b >= 0 and a >= 0."""
    for e in range(4):
        cox = hirzebruch(e)
        w = curve_functionals(cox)
        for a in range(6):
            for b in range(6):
                expected = a >= e * b and b >= 0 and a >= 0
                assert is_nef((a, b), w) == expected, (e, a, b)
        assert not is_nef((-1, 0), w)
        assert not is_nef((0, -1), w)


def test_nef_criterion_p1_cubed():
    w = curve_functionals(product_p1_cubed())
    assert is_nef((1, 2, 3), w)
    assert not is_nef((1, -1, 0), w)


def test_find_ample_is_nef_and_positive():
    for name, cox in fan_library().items():
        w = curve_functionals(cox)
        ample = find_ample(cox, w)
        for f in w:
            assert sum(fi * ai for fi, ai in zip(f, ample)) >= 1, name


def test_alpha_hirzebruch_closed_form():
    """On F_e the least common nef bound of degrees (a_i, b_i) is
    (max(e b_i) - min(e b_i - a_i), max b_i)."""
    cases = [
        (1, [(4, 2), (3, 4)], (6, 4)),     # the worked example
        (0, [(1, 2), (2, 1)], (2, 2)),
        (2, [(1, 1), (3, 0)], None),       # computed from the formula
        (3, [(2, 2), (5, 1)], None),
    ]
    for e, degrees, expected in cases:
        if expected is None:
            mx = max(e * b for _a, b in degrees)
            expected = (mx - min(e * b - a for a, b in degrees),
                        max(b for _a, b in degrees))
        cox = hirzebruch(e)
        assert (find_alpha(degrees, cox, curve_functionals(cox))
                == expected), (e, degrees)


def test_alpha_p1_cubed_is_coordinatewise_max():
    cox = product_p1_cubed()
    degrees = [(1, 0, 2), (0, 1, 1)]
    assert find_alpha(degrees, cox, curve_functionals(cox)) == (1, 1, 2)


def test_alpha_single_degree_is_itself_when_nef():
    cox = hirzebruch(1)
    assert find_alpha([(3, 2)], cox, curve_functionals(cox)) == (3, 2)


def test_alpha_dominates_all_degrees():
    for name, cox in fan_library().items():
        w = curve_functionals(cox)
        p = cox.ring.pic_rank
        degrees = [tuple(1 if i == j else 0 for i in range(p))
                   for j in range(p)] or [()]
        alpha = find_alpha(degrees, cox, w)
        for d in degrees:
            gap = tuple(a - x for a, x in zip(alpha, d))
            assert is_nef(gap, w), (name, alpha, d)


def assert_least_in_box(cox, degrees, radius):
    """No class within ``radius`` of find_alpha's answer in each coordinate
    bounds the degrees with a smaller sum of wall pairings, or with an
    equal sum and fewer monomials."""
    w = curve_functionals(cox)
    alpha = find_alpha(degrees, cox, w)
    best = objective(w, alpha)
    sections = len(monomials_of_degree(alpha, cox.ring))
    for d in degrees:
        assert is_nef([a - x for a, x in zip(alpha, d)], w), (alpha, d)
    for step in itertools.product(range(-radius, radius + 1),
                                  repeat=len(alpha)):
        other = tuple(a + s for a, s in zip(alpha, step))
        if not all(is_nef([a - x for a, x in zip(other, d)], w)
                   for d in degrees):
            continue
        value = objective(w, other)
        assert value >= best, (degrees, alpha, other)
        if value == best and other != alpha:
            assert len(monomials_of_degree(other, cox.ring)) >= sections, \
                (degrees, alpha, other)
    return alpha


def test_alpha_is_least_in_a_box():
    """Random generator-degree sets on P^1-P^3, F0-F3, P1^3 and P2 x P1;
    each degree is that of a random monomial."""
    fans = [projective_space(n) for n in (1, 2, 3)]
    fans += [hirzebruch(e) for e in range(4)]
    fans += [product_p1_cubed(), threefold_p2_x_p1()]
    rng = random.Random(16)
    for cox in fans:
        r = cox.nvars
        for _ in range(4):
            degrees = []
            for _ in range(rng.randint(1, 3)):
                e = [rng.randint(0, 3) for _ in range(r)]
                degrees.append(tuple(sum(row[i] * e[i] for i in range(r))
                                     for row in cox.ring.grading))
            assert_least_in_box(cox, degrees, 2)


def test_alpha_of_surface_points():
    """V(z0, z1) on the 5- and 8-ray surfaces has no apex.  On the 8-ray
    surface (1,3,3,4,2,0) also has the least sum, 7, but 10 monomials
    against 9."""
    cox = cyclic_surface(FIVE_RAYS)
    assert assert_least_in_box(cox, variable_degrees(cox, (0, 1)), 2) \
        == (2, 3, 2)
    cox = cyclic_surface(EIGHT_RAYS)
    degrees = variable_degrees(cox, (0, 1))
    assert assert_least_in_box(cox, degrees, 2) == (1, 3, 3, 4, 1, 0)
    w = curve_functionals(cox)
    assert objective(w, (1, 3, 3, 4, 1, 0)) == 7
    assert objective(w, (1, 3, 3, 4, 2, 0)) == 7
    assert len(monomials_of_degree((1, 3, 3, 4, 2, 0), cox.ring)) == 10
    assert len(monomials_of_degree((1, 3, 3, 4, 1, 0), cox.ring)) == 9


def test_alpha_12_ray_point_fast():
    """Picard rank 10 and no apex: the least sum of wall pairings is 11."""
    cox = cyclic_surface(TWELVE_RAYS)
    degrees = variable_degrees(cox, (0, 1))
    start = time.perf_counter()
    w = curve_functionals(cox)
    alpha = find_alpha(degrees, cox, w)
    elapsed = time.perf_counter() - start
    for d in degrees:
        assert is_nef([a - x for a, x in zip(alpha, d)], w)
    assert objective(w, alpha) == 11
    assert elapsed < 2.0


def test_no_positive_class_raises_not_projective():
    """Wall functionals x and -x have no common positive class; with no
    apex the search must stop with NotProjective, not loop."""
    cox = projective_space(1)
    w = ((1,), (-1,))
    with pytest.raises(NotProjective):
        find_alpha([(0,), (1,)], cox, w)
    with pytest.raises(NotProjective):
        find_ample(cox, w)


def assert_functionals_solve_each_wall(cox):
    """``curve_functionals`` lists, without repeats and in wall order, the
    solution of w . A = c that a solve of each wall c alone finds."""
    a = cox.ring.grading
    cols = [list(col) for col in zip(*a)]
    expected = []
    for c in cox.fan.walls:
        (w,) = linalg.solve_integer(cols, [c])
        assert tuple(sum(wi * row[j] for wi, row in zip(w, a))
                     for j in range(cox.fan.nrays)) == c
        if w not in expected:
            expected.append(w)
    assert curve_functionals(cox) == tuple(expected)


def test_functionals_match_per_wall_solves_on_library_fans():
    coxes = list(fan_library().values())
    coxes += [cyclic_surface(rays) for rays in (EIGHT_RAYS, TWELVE_RAYS)]
    # F_1 with its worked-example degrees and with the canonical grading
    coxes += [hirzebruch(1), build_cox_context(hirzebruch(1).fan)]
    for cox in coxes:
        assert_functionals_solve_each_wall(cox)


@given(generated_fans(), st.integers(-3, 3))
@settings(max_examples=100, deadline=None)
def test_functionals_match_per_wall_solves_on_generated_fans(data, t):
    """With the canonical grading and with a supplied one (the first row
    plus t times the last)."""
    try:
        fan = Fan(*data)
        cox = build_cox_context(fan)
    except (InvalidFan, NotSmooth, NotComplete):
        return
    assert_functionals_solve_each_wall(cox)
    a = [list(row) for row in cox.ring.grading]
    if len(a) > 1:
        a[0] = [x + t * y for x, y in zip(a[0], a[-1])]
        assert_functionals_solve_each_wall(build_cox_context(fan, degrees=a))
