"""Fan validation, gradings, irrelevant ideal, and chart dehomogenization."""

import itertools
import random
import time
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricsegre import linalg
from toricsegre.errors import (InvalidFan, InvalidGrading, NotComplete,
                               NotSmooth)
from toricsegre.exactpoly import Polynomial
from toricsegre.fan import (Fan, build_cox_context, chart_dehomogenize,
                            grading_matrix, validate_smooth_complete,
                            wall_relations)
from toricsegre.library import (hirzebruch, product_p1_cubed,
                                projective_space, threefold_p2_x_p1)

from _fans import fan_library, star_subdivide
from _oracles import (heft_from_positive_relation, irrelevant_ideal,
                      validate_by_facet_normals)


def test_all_library_fans_validate():
    for cox in fan_library().values():
        assert validate_smooth_complete(cox.fan)


def test_invalid_fan_inputs():
    with pytest.raises(InvalidFan):
        Fan(((2, 0), (0, 1)), ((0, 1),))  # non-primitive ray
    with pytest.raises(InvalidFan):
        Fan(((1, 0), (1, 0)), ((0, 1),))  # duplicate rays
    with pytest.raises(InvalidFan):
        Fan(((1, 0), (0, 1)), ((0, 5),))  # bad index
    with pytest.raises(InvalidFan):
        Fan(((1, 0), (0, 1), (-1, -1)), ((0, 1), (0,)))  # comparable cones


def test_not_smooth_cone():
    # cone spanned by (1,0) and (1,2) has index 2
    fan = Fan(((1, 0), (1, 2), (-1, -1), (0, -1), (-1, 1)),
              ((0, 1), (1, 4), (4, 2), (2, 3), (3, 0)))
    with pytest.raises(NotSmooth) as exc:
        validate_smooth_complete(fan)
    assert exc.value.details["cone"] == (0, 1)


def test_not_complete_fan():
    # only the first quadrant: facet pairing fails
    fan = Fan(((1, 0), (0, 1)), ((0, 1),))
    with pytest.raises(NotComplete):
        validate_smooth_complete(fan)


def test_same_side_fan_not_complete():
    # P2 with (-1, -1) flipped to (1, 1): every cone is unimodular, but
    # the cones on facet (0,) both lie above it
    fan = Fan(((1, 0), (0, 1), (1, 1)), ((0, 1), (1, 2), (0, 2)))
    with pytest.raises(NotComplete) as exc:
        validate_smooth_complete(fan)
    assert exc.value.details["facet"] == (0,)
    with pytest.raises(NotComplete) as exc:
        validate_by_facet_normals(fan)
    assert exc.value.details["facet"] == (0,)


def test_cox_context_validates_its_fan_once(monkeypatch):
    """``build_cox_context`` validates the fan before it reads names or
    degrees: a fan with a one-cone facet (and so no heft) raises
    NotComplete, a non-smooth fan NotSmooth even with too few names.  A
    fan that passed keeps its verdict, so validating it again computes no
    Smith form; one that failed keeps nothing and fails again."""
    one_sided = Fan(((1, 0), (0, 1), (1, 1)), ((0, 2), (2, 1)))
    for _ in range(2):
        with pytest.raises(NotComplete) as exc:
            build_cox_context(one_sided)
        assert exc.value.details["facet"] == (0,)
    with pytest.raises(NotSmooth):
        build_cox_context(Fan(((1, 0), (1, 2), (-1, -1), (0, -1), (-1, 1)),
                              ((0, 1), (1, 4), (4, 2), (2, 3), (3, 0))),
                          names=("a",))
    smith = []
    form = linalg.smith_normal_form
    monkeypatch.setattr(linalg, "smith_normal_form",
                        lambda m: smith.append(m) or form(m))
    library_fan = hirzebruch(2).fan
    fan = Fan(library_fan.rays, library_fan.max_cones)  # not yet validated
    build_cox_context(fan)
    assert len(smith) > len(fan.max_cones)
    del smith[:]
    assert validate_smooth_complete(fan)
    assert smith == []


# Every wall is two-sided, but the five cones turn 135-162 degrees each,
# 720 in all: they cover the plane twice.
OVERLAPPING = (((1, 0), (1, 1), (-1, 1), (-2, -1), (0, -1)),
               ((0, 2), (2, 4), (4, 1), (1, 3), (3, 0)))


def test_overlapping_cones_rejected():
    fan = Fan(*OVERLAPPING)
    wall_relations(fan)  # every wall relation is integral
    with pytest.raises(InvalidFan) as exc:
        validate_smooth_complete(fan)
    assert exc.value.details["cone"] == (1, 3)
    assert "(0, 2)" in str(exc.value)


@st.composite
def generated_fans(draw):
    """Star subdivisions of P1, P2, P1 x P1 or P3, then up to two
    mutations: drop a maximal cone, move a ray to a small primitive vector,
    or flip a ray through the origin (every cone stays unimodular, and the
    two cones of each wall opposite that ray end up on the same side)."""
    base = draw(st.sampled_from(
        (projective_space(1), projective_space(2), hirzebruch(0),
         projective_space(3)))).fan
    rays, cones, k = base.rays, list(base.max_cones), base.dim
    if k > 1:
        for _ in range(draw(st.integers(0, 3))):
            cone = draw(st.sampled_from(cones))
            face = draw(st.sampled_from(
                [f for size in range(2, k + 1)
                 for f in itertools.combinations(cone, size)]))
            rays, cones = star_subdivide(rays, cones, face)
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(("drop", "move", "flip")))
        i = draw(st.integers(0, len(rays) - 1))
        if kind == "drop":
            cones = cones[:i % len(cones)] + cones[i % len(cones) + 1:]
            continue
        if kind == "move":
            v = tuple(draw(st.lists(st.integers(-2, 2), min_size=k,
                                    max_size=k)))
        else:
            v = tuple(-x for x in rays[i])
        if gcd(*v) == 1 and v not in rays:
            rays = rays[:i] + (v,) + rays[i + 1:]
    return rays, tuple(cones)


def _outcome(check, fan):
    try:
        check(fan)
    except (NotSmooth, NotComplete, InvalidFan) as exc:
        return exc
    return None


@given(generated_fans())
@example(OVERLAPPING)
@settings(max_examples=150, deadline=None)
def test_validation_matches_facet_normal_oracle(data):
    rays, cones = data
    try:
        fan = Fan(rays, cones)
    except InvalidFan:
        return
    got = _outcome(validate_smooth_complete, fan)
    want = _outcome(validate_by_facet_normals, fan)
    assert type(got) is type(want), (rays, cones, got, want)
    if isinstance(want, NotSmooth):
        assert got.details["cone"] == want.details["cone"]
    if want is None:
        walls = wall_relations(fan)
        assert len(walls) == fan.face_counts()[fan.dim - 1]
        for c in walls:
            for j in range(fan.dim):
                assert sum(ci * fan.rays[i][j]
                           for i, ci in enumerate(c)) == 0


def test_grading_matrix_p2():
    cox = projective_space(2)
    a = grading_matrix(cox.fan)
    assert a == ((1, 1, 1),)


def test_grading_matrix_annihilates_rays():
    for cox in fan_library().values():
        a = grading_matrix(cox.fan)
        k = cox.fan.dim
        for row in a:
            for j in range(k):
                assert sum(row[i] * cox.fan.rays[i][j]
                           for i in range(cox.fan.nrays)) == 0


def test_custom_degrees_validated():
    fan = hirzebruch(1).fan
    # wrong shape
    with pytest.raises(InvalidGrading):
        build_cox_context(fan, degrees=((1, 1, 1, 0),))
    # does not annihilate the rays
    with pytest.raises(InvalidGrading):
        build_cox_context(fan, degrees=((1, 0, 0, 0), (0, 0, 1, 1)))
    # annihilates but does not span the Picard lattice over Z
    with pytest.raises(InvalidGrading):
        build_cox_context(fan, degrees=((2, 2, 2, 0), (0, 0, 1, 1)))


def test_custom_degrees_accepted():
    cox = hirzebruch(1)
    assert cox.ring.grading == ((1, 1, 1, 0), (0, 0, 1, 1))
    canonical = grading_matrix(cox.fan)
    for row in cox.ring.grading:
        assert linalg.in_integer_row_span(canonical, row)


def test_minimal_non_faces():
    assert projective_space(2).fan.minimal_non_faces() == ((0, 1, 2),)
    assert set(hirzebruch(1).fan.minimal_non_faces()) == {(0, 1), (2, 3)}
    assert len(product_p1_cubed().fan.minimal_non_faces()) == 3


def cyclic_surface(r):
    """Smooth complete surface fan with r >= 4 rays: P1 x P1 blown up
    r - 4 times, each time at the fixed point of the cone spanned by (1, 0)
    and the next ray counterclockwise."""
    rays = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    for _ in range(r - 4):
        rays.insert(1, (rays[0][0] + rays[1][0], rays[0][1] + rays[1][1]))
    return Fan(tuple(rays), tuple((i, (i + 1) % r) for i in range(r)))


def brute_force_non_faces(fan):
    """Minimal non-faces by a scan of all 2^r ray subsets."""
    faces = {frozenset(s) for c in fan.max_cones
             for size in range(len(c) + 1)
             for s in itertools.combinations(c, size)}
    out = set()
    for size in range(1, fan.nrays + 1):
        for combo in itertools.combinations(range(fan.nrays), size):
            s = frozenset(combo)
            if s not in faces and all(s - {i} in faces for i in s):
                out.add(combo)
    return out


def test_minimal_non_faces_match_brute_force():
    fans = [cox.fan for cox in fan_library().values()]
    fans += [cyclic_surface(r) for r in (8, 10, 12)]
    for fan in fans:
        assert validate_smooth_complete(fan)
        found = fan.minimal_non_faces()
        assert len(found) == len(set(found))
        assert set(found) == brute_force_non_faces(fan), fan.rays


def test_minimal_non_faces_20_rays_fast():
    fan = cyclic_surface(20)
    assert validate_smooth_complete(fan)
    start = time.perf_counter()
    found = fan.minimal_non_faces()
    elapsed = time.perf_counter() - start
    assert len(found) == 170  # the non-adjacent pairs, 20 * 17 / 2
    assert all(len(c) == 2 for c in found)
    assert elapsed < 1.0



def check_what_validation_proves(cox, rng):
    """The facts of DECISIONS.md entry 23 that let the program skip a heft
    search and three re-checks: the grading has a heft, every Picard class
    lifts to an integer divisor, every wall relation is an integral
    functional of the grading, and the Picard rank is at least 1."""
    a = cox.ring.grading
    r = cox.fan.nrays
    assert cox.ring.pic_rank >= 1
    heft = heft_from_positive_relation(cox)
    assert heft is not None, cox.fan
    for i in range(r):
        assert sum(h * row[i] for h, row in zip(heft, a)) >= 1
    for _ in range(5):
        delta = [rng.randint(-5, 5) for _ in a]
        (lift,) = linalg.solve_integer(a, [delta])
        assert lift is not None, (a, delta)
        assert [sum(map(int.__mul__, row, lift)) for row in a] == delta
    cols = [[row[j] for row in a] for j in range(r)]
    for c in cox.fan.walls:
        (w,) = linalg.solve_integer(cols, [c])
        assert w is not None, (a, c)
        assert tuple(sum(wi * row[j] for wi, row in zip(w, a))
                     for j in range(r)) == c


def test_validation_proves_heft_lift_and_functionals():
    coxes = list(fan_library().values())
    coxes += [build_cox_context(cyclic_surface(r)) for r in range(4, 13)]
    rng = random.Random(23)
    for cox in coxes:
        assert validate_smooth_complete(cox.fan)
        check_what_validation_proves(cox, rng)


@given(generated_fans(), st.integers(-3, 3))
@settings(max_examples=150, deadline=None)
def test_validated_generated_fans_have_heft_lift_and_functionals(data, t):
    """On every generated fan that validates, with the canonical grading
    and with a supplied one (the first row plus t times the last)."""
    rays, cones = data
    try:
        fan = Fan(rays, cones)
        validate_smooth_complete(fan)
    except (InvalidFan, NotSmooth, NotComplete):
        return
    rng = random.Random(t)
    cox = build_cox_context(fan)
    check_what_validation_proves(cox, rng)
    a = [list(row) for row in cox.ring.grading]
    if len(a) > 1:
        a[0] = [x + t * y for x, y in zip(a[0], a[-1])]
        check_what_validation_proves(build_cox_context(fan, degrees=a), rng)

def test_irrelevant_ideal_p2():
    cox = projective_space(2)
    gens = {tuple(sorted(i for i, e in enumerate(next(iter(g.coeffs))) if e))
            for g in irrelevant_ideal(cox).generators}
    assert gens == {(0,), (1,), (2,)}  # one variable per opposite cone


def test_face_counts():
    assert projective_space(2).fan.face_counts() == (1, 3, 3)
    assert hirzebruch(0).fan.face_counts() == (1, 4, 4)
    assert threefold_p2_x_p1().fan.face_counts() == (1, 5, 9, 6)


def test_chart_dehomogenize_drops_off_chart_vars():
    cox = projective_space(2)
    x0 = Polynomial.variable(3, 0)
    x1 = Polynomial.variable(3, 1)
    charts = chart_dehomogenize([x0 * x0 - x1 * x1], cox)
    assert len(charts) == len(cox.fan.max_cones)
    for J in charts:
        assert J.nvars == 2
        for g in J.generators:
            assert not g.is_zero()
