"""Fan validation, gradings, irrelevant ideal, and chart dehomogenization."""

import itertools
import random
import time
from fractions import Fraction
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricsegre import fan as fan_module
from toricsegre import linalg
from toricsegre.errors import (InvalidFan, InvalidGrading, NotComplete,
                               NotSmooth)
from toricsegre.exactpoly import Polynomial
from toricsegre.fan import (Fan, build_cox_context, chart_dehomogenize,
                            grading_matrix, validate_degree_matrix,
                            validate_smooth_complete, wall_relations)
from toricsegre.library import (hirzebruch, product_p1_cubed,
                                projective_space, threefold_p2_x_p1)

from _fans import chain_surface, fan_library, star_subdivide
from _oracles import (_det, degree_check_by_determinant,
                      heft_from_positive_relation, in_integer_row_span,
                      irrelevant_ideal, validate_by_facet_normals,
                      wall_relations_by_solve)


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
    with pytest.raises(NotComplete) as exc:
        validate_smooth_complete(fan)
    assert_same_error(exc.value, fan)


def assert_same_error(error, fan):
    """``wall_relations_by_solve`` raises on ``fan`` the type, text and
    details of ``error``."""
    with pytest.raises(type(error)) as exc:
        wall_relations_by_solve(fan)
    assert (str(exc.value), exc.value.details) == (str(error),
                                                  error.details)


def test_same_side_fan_not_complete():
    # P2 with (-1, -1) flipped to (1, 1): every cone is unimodular, but
    # the cones on facet (0,) both lie above it
    fan = Fan(((1, 0), (0, 1), (1, 1)), ((0, 1), (1, 2), (0, 2)))
    with pytest.raises(NotComplete) as exc:
        validate_smooth_complete(fan)
    assert exc.value.details["facet"] == (0,)
    assert_same_error(exc.value, fan)
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
        assert_same_error(exc.value, one_sided)
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
    wall_relations_by_solve(fan)  # every wall relation is integral
    with pytest.raises(InvalidFan) as exc:
        validate_smooth_complete(fan)
    assert exc.value.details["cone"] == (1, 3)
    assert str(exc.value) == "maximal cones (0, 2) and (1, 3) overlap"


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
        walls = fan.walls
        assert walls == wall_relations_by_solve(fan)
        assert len(walls) == fan.face_counts()[fan.dim - 1]
        for c in walls:
            for j in range(fan.dim):
                assert sum(ci * fan.rays[i][j]
                           for i, ci in enumerate(c)) == 0


def cone_inverses(fan):
    """The columns of B^-1 for each maximal cone's ray rows B, each column
    one integer solve of B x = e_j."""
    unit = [[int(i == j) for i in range(fan.dim)] for j in range(fan.dim)]
    return [linalg.solve_integer([fan.rays[i] for i in cone], unit)
            for cone in fan.max_cones]


def walls_or_error(walls, fan):
    """The wall relations, or the text and details of NotComplete."""
    try:
        return walls(fan)
    except NotComplete as exc:
        return str(exc), exc.details


def test_walls_match_solve_oracle_on_library_and_chow_setup_fans():
    """The walls read off the cone inverses are the per-facet integer
    solves' on the library fans and the 12-16-ray ``chow-setup``
    surfaces."""
    fans = [cox.fan for cox in fan_library().values()]
    fans += [chain_surface(r) for r in (12, 14, 16)]
    for fan in fans:
        assert validate_smooth_complete(fan)
        assert fan.walls == wall_relations_by_solve(fan), fan.rays


@given(generated_fans())
@example(OVERLAPPING)
@settings(max_examples=150, deadline=None)
def test_walls_match_solve_oracle_on_generated_fans(data):
    """On star subdivisions and their mutations whose cones pass the
    index check, the walls from the cone inverses are the oracle's, or
    both raise NotComplete on the same facet with the same text."""
    rays, cones = data
    try:
        fan = Fan(rays, cones)
    except InvalidFan:
        return
    if any(len(c) != fan.dim or abs(_det([fan.rays[i] for i in c])) != 1
           for c in fan.max_cones):
        return
    got = walls_or_error(lambda f: wall_relations(f, cone_inverses(f)), fan)
    assert got == walls_or_error(wall_relations_by_solve, fan), (rays, cones)


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
        assert in_integer_row_span(canonical, row)


def validated_fan(data):
    """The fan of ``generated_fans`` data, or None when it fails
    validation."""
    try:
        fan = Fan(*data)
        validate_smooth_complete(fan)
    except (InvalidFan, NotSmooth, NotComplete):
        return None
    return fan


def spans_by_row_span(canonical, a):
    """The two-sided row-span test ``validate_degree_matrix`` made before
    it read a determinant: every row of each matrix is an integer
    combination of the other's rows."""
    return (all(in_integer_row_span(canonical, row) for row in a)
            and all(in_integer_row_span(a, row) for row in canonical))


def unimodular(draw, n):
    """A random n x n integer matrix of determinant +-1, as a product of
    elementary row operations."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            u[i] = [-x for x in u[i]]
        else:
            q = draw(st.integers(-3, 3))
            u[i] = [x + q * y for x, y in zip(u[i], u[j])]
    return u


def supplied_grading(draw, fan, unimodular_only):
    """U . A for the canonical grading A of ``fan`` and U unimodular, or
    (unless ``unimodular_only``) any small square integer U."""
    canonical = grading_matrix(fan)
    n = len(canonical)
    if unimodular_only or draw(st.booleans()):
        u = unimodular(draw, n)
    else:
        u = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n,
                                   max_size=n), min_size=n, max_size=n))
    return [[sum(uij * row[c] for uij, row in zip(ui, canonical))
             for c in range(fan.nrays)] for ui in u]


@given(generated_fans(), st.data())
@settings(max_examples=150, deadline=None)
def test_degree_check_matches_row_span_oracle(data, draw):
    """Gradings U . A, A the canonical one, with U unimodular or not: the
    check accepts exactly those the two-sided row-span test accepts, and
    rejects the others with the same text."""
    fan = validated_fan(data)
    if fan is None:
        return
    a = supplied_grading(draw.draw, fan, False)
    want = spans_by_row_span(grading_matrix(fan), a)
    try:
        got = validate_degree_matrix(fan, a)[0] == tuple(map(tuple, a))
    except InvalidGrading as exc:
        assert str(exc) == "degree rows do not span the Picard lattice"
        got = False
    assert got == want, (data, a)


def check_right_inverse(cox):
    """The block of the grading off the first maximal cone is unimodular,
    and the Cox context's X is a right inverse of the grading that is
    zero on the rows of that cone."""
    fan, a, x = cox.fan, cox.ring.grading, cox.right_inverse
    off = fan.cone_complement(fan.max_cones[0])
    assert abs(_det([[row[i] for i in off] for row in a])) == 1
    assert len(x) == fan.nrays
    assert all(not any(x[i]) for i in fan.max_cones[0])
    assert [[sum(row[i] * x[i][j] for i in range(fan.nrays))
             for j in range(len(a))] for row in a] == \
        [[int(i == j) for j in range(len(a))] for i in range(len(a))]


def test_right_inverse_on_library_and_chow_setup_fans():
    coxes = list(fan_library().values())
    coxes += [build_cox_context(chain_surface(r)) for r in (12, 14, 16)]
    coxes += [build_cox_context(hirzebruch(1).fan,
                                degrees=((1, 1, 1, 0), (1, 1, 2, 1)))]
    for cox in coxes:
        check_right_inverse(cox)


@given(generated_fans(), st.data())
@settings(max_examples=150, deadline=None)
def test_right_inverse_on_generated_fans(data, draw):
    """With the canonical grading and with a supplied one, U . A for a
    unimodular U."""
    fan = validated_fan(data)
    if fan is None:
        return
    check_right_inverse(build_cox_context(fan))
    check_right_inverse(build_cox_context(
        fan, degrees=supplied_grading(draw.draw, fan, True)))


def verdict(check, fan, a):
    try:
        return check(fan, a)
    except InvalidGrading as exc:
        return str(exc)


@given(generated_fans(), st.data())
@settings(max_examples=150, deadline=None)
def test_degree_check_matches_determinant_oracle(data, draw):
    """Gradings U . A, U unimodular or not, some with one entry changed
    so that they no longer annihilate the rays and some with a row
    dropped: the check of the block off the first maximal cone gives the
    verdict and the text the determinant of degrees . X gave, and it
    computes no canonical grading."""
    fan = validated_fan(data)
    if fan is None:
        return
    a = supplied_grading(draw.draw, fan, False)
    change = draw.draw(st.sampled_from(("none", "entry", "row")))
    if change == "entry":
        a[0][draw.draw(st.integers(0, fan.nrays - 1))] += 1
    elif change == "row":
        a = a[1:]
    want = verdict(degree_check_by_determinant, fan, a)
    with mock.patch.object(fan_module, "grading_matrix",
                           side_effect=AssertionError("canonical grading")):
        got = verdict(validate_degree_matrix, fan, a)
    if isinstance(want, str):
        assert got == want, (data, a)
    else:
        assert got[0] == want, (data, a)


@given(generated_fans(), st.lists(st.integers(-4, 4), min_size=1,
                                  max_size=12))
@settings(max_examples=150, deadline=None)
def test_rows_annihilating_the_rays_lie_in_the_canonical_lattice(data,
                                                                 coeffs):
    """The fact that makes the old "not integral Picard classes" branch
    unreachable (DECISIONS.md entry 26): on a validated fan, every integer
    row that annihilates the rays is an integer combination of the
    canonical grading's rows.  The rows are built without the grading:
    the wall relations, each rational kernel vector of the ray matrix
    cleared of denominators, and an integer combination of those, each
    divided by the gcd of its entries."""
    fan = validated_fan(data)
    if fan is None:
        return
    r, k = fan.nrays, fan.dim
    m, pivots = linalg.rref([[v[j] for v in fan.rays] for j in range(k)])
    rows = list(fan.walls)
    for f in (j for j in range(r) if j not in pivots):
        x = [Fraction(int(j == f)) for j in range(r)]
        for row, col in zip(m, pivots):
            x[col] = -row[f]
        scale = lcm(*(q.denominator for q in x))
        rows.append([int(q * scale) for q in x])
    rows.append([sum(c * row[j] for c, row in zip(coeffs, rows))
                 for j in range(r)])
    canonical = grading_matrix(fan)
    for row in rows:
        g = gcd(*row)
        if g:
            assert in_integer_row_span(canonical, [x // g for x in row]), \
                (data, row)


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
