"""Segre-class engine: classification, residuals, lengths, and classical
oracles."""

import itertools
import random
import signal
from contextlib import contextmanager
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsegre.chow import build_chow_ring
from toricsegre.errors import EmptySubscheme, NotHomogeneous, WholeSpace
from toricsegre.cones import find_alpha
from toricsegre.exactpoly import (Polynomial, monomials_of_degree,
                                  multidegree_of, random_homogeneous)
from toricsegre.fan import Fan, build_cox_context, chart_dehomogenize
from toricsegre.groebner import (Ideal, groebner_basis, saturate_ideal,
                                 vector_space_dimension)
from toricsegre.library import (hirzebruch, product_p1_cubed,
                                projective_space, threefold_p2_x_p1)
from toricsegre.parser import parse_polynomial
from toricsegre import cli, groebner, segre
from toricsegre.segre import (DEFAULT_COEFF_BOUND, _attempt, _attempt_primes,
                              pick_sections, preprocess, residual_class,
                              segre_class, zero_dim_length)

from _fans import star_subdivide
from _oracles import (grevlex_ideal, intersect, irrelevant_ideal,
                      saturate_by_intersection)
from test_cones import (EIGHT_RAYS, FIVE_RAYS, TWELVE_RAYS,
                        cyclic_surface)
from regenerate_golden import PROBLEMS


def setup(cox, *texts):
    chow = build_chow_ring(cox)
    gens = [parse_polynomial(t, cox.ring) for t in texts]
    return chow, preprocess(cox, chow, gens)


@contextmanager
def time_limit(seconds, what):
    """Raise TimeoutError inside the block once ``seconds`` have passed."""
    def expire(_signum, _frame):
        raise TimeoutError("%s took more than %d s" % (what, seconds))

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_preprocess_dimensions():
    cox = projective_space(2)
    _chow, prob = setup(cox, "x0", "x1")
    assert prob.dim == 0 and prob.codim == 2
    _chow, prob = setup(cox, "x0*x1")
    assert prob.dim == 1
    # the line x0 = 0 plus the point (1:0:0): chart dimensions 0, 1, 1
    _chow, prob = setup(cox, "x0*x1", "x0*x2")
    assert prob.dim == 1
    cox = product_p1_cubed()
    _chow, prob = setup(cox, "x0*z0^2", "y0*z0 + z0*y1")
    assert prob.dim == 2


def test_preprocess_empty_subscheme():
    cox = projective_space(2)
    chow = build_chow_ring(cox)
    with pytest.raises(EmptySubscheme):
        preprocess(cox, chow, [parse_polynomial(t, cox.ring)
                               for t in ("x0", "x1", "x2")])
    # the irrelevant ideal itself cuts out nothing
    with pytest.raises(EmptySubscheme):
        preprocess(cox, chow, list(irrelevant_ideal(cox).generators))


def test_preprocess_whole_space():
    cox = projective_space(2)
    chow = build_chow_ring(cox)
    with pytest.raises(WholeSpace):
        preprocess(cox, chow, [Polynomial.zero(3)])


def test_preprocess_grades_the_input_before_any_basis():
    """On the library path ``preprocess`` is the one homogeneity check:
    x0 + y1 on F_1 raises NotHomogeneous with both degrees, and it does so
    before any chart work, so no Groebner basis is computed."""
    cox = hirzebruch(1)
    chow = build_chow_ring(cox)
    gens = [parse_polynomial("x0 + y1", cox.ring)]
    with mock.patch.object(groebner, "_buchberger",
                           wraps=groebner._buchberger) as spy:
        with pytest.raises(NotHomogeneous) as info:
            preprocess(cox, chow, gens)
    assert spy.call_count == 0
    assert (info.value.degree_a, info.value.degree_b) == ((1, 0), (0, 1))


def test_preprocess_names_the_inhomogeneous_generator():
    """The library path names a non-multihomogeneous generator by its
    index in the list given, zero generators included, and by its text."""
    cox = hirzebruch(1)
    chow = build_chow_ring(cox)
    gens = [parse_polynomial(t, cox.ring) for t in ("x0", "0", "x0 + y1")]
    with pytest.raises(NotHomogeneous) as info:
        preprocess(cox, chow, gens)
    assert "ideal generator 2 (x0 + y1)" in str(info.value)
    assert (info.value.degree_a, info.value.degree_b) == ((1, 0), (0, 1))


def test_point_in_p2():
    cox = projective_space(2)
    chow, prob = setup(cox, "x0", "x1 - x2")
    res = segre_class(prob)
    assert len(res.components) == 1
    assert chow.degree(res.components[0]) == 1


def test_conic_in_p2():
    cox = projective_space(2)
    chow, prob = setup(cox, "x0*x1 - x2^2")
    res = segre_class(prob)
    h = chow.divisor(0)
    assert res.components[0] == chow.reduce(h * 2)
    assert res.components[1] == chow.reduce(chow.multiply(h, h) * -4)


def test_twisted_cubic_in_p3():
    cox = projective_space(3)
    chow, prob = setup(cox, "x0*x2 - x1^2", "x1*x3 - x2^2",
                       "x0*x3 - x1*x2")
    res = segre_class(prob)
    h = chow.divisor(0)
    h2 = chow.multiply(h, h)
    assert res.components[0] == chow.reduce(h2 * 3)
    assert res.components[1] == chow.reduce(chow.multiply(h2, h) * -10)


def test_sections_have_degree_alpha_and_lie_in_ideal():
    cox = hirzebruch(1)
    chow, prob = setup(cox, "x1^2*y0^2 + x0^3*x1*y1^2",
                       "x1*y0^2*y1^2 + x0^3*y1^4")
    alpha = find_alpha(prob.degrees, cox, prob.functionals)
    assert alpha == (6, 4)
    rng = random.Random(11)
    G = groebner_basis(grevlex_ideal(prob.generators, cox.ring.names)).elements
    for f in pick_sections(prob, alpha, 2, rng, 50):
        assert multidegree_of(f, cox.ring) == alpha
        with_f = grevlex_ideal(list(prob.generators) + [f], cox.ring.names)
        assert groebner_basis(with_f).elements == G


def test_colon_saturation_stability():
    """Each chart ideal of the residual equals the chart of the Cox-ring
    residual ((F : B^inf) : I^inf), on the F1 worked example (d = 1, 2)
    and the point V(x0, y0, z0) on P1^3 (d = 3)."""
    from toricsegre.segre import residual_ideal
    cases = [(hirzebruch(1), ("x1^2*y0^2 + x0^3*x1*y1^2",
                              "x1*y0^2*y1^2 + x0^3*y1^4"), (1, 2)),
             (product_p1_cubed(), ("x0", "y0", "z0"), (3,))]
    for cox, texts, ds in cases:
        chow, prob = setup(cox, *texts)
        alpha = find_alpha(prob.degrees, cox, prob.functionals)
        for d in ds:
            rng = random.Random("stab:%d" % d)
            sections = pick_sections(prob, alpha, d, rng, 50)
            charts = residual_ideal(prob, sections, None)  # over Z
            F = grevlex_ideal(sections, cox.ring.names)
            cox_residual = saturate_ideal(
                saturate_ideal(F, irrelevant_ideal(cox)),
                grevlex_ideal(prob.generators, cox.ring.names))
            oracles = chart_dehomogenize(cox_residual.generators, cox)
            assert len(charts) == len(cox.fan.max_cones)
            for t, (chart, oracle) in enumerate(zip(charts, oracles)):
                assert (groebner_basis(chart).elements
                        == groebner_basis(oracle).elements), (texts, d, t)


def test_saturate_ideal_matches_intersection_of_element_saturations(
        monkeypatch):
    """Every (F_sigma : I_sigma^inf) that the residuals of examples 1-2 and
    the P1^3 point saturate, seeds 0-1, has the reduced basis of the
    intersection of the element saturations (F_sigma : g^inf)."""
    pairs = []

    def recording(I, J):
        S = saturate_ideal(I, J)
        pairs.append((I, J, S))
        return S

    monkeypatch.setattr(segre, "saturate_ideal", recording)
    cases = [(hirzebruch(1), ("x1^2*y0^2 + x0^3*x1*y1^2",
                              "x1*y0^2*y1^2 + x0^3*y1^4")),
             (product_p1_cubed(), ("x0*z0^2", "y0*z0 + z0*y1")),
             (product_p1_cubed(), ("x0", "y0", "z0"))]
    for cox, texts in cases:
        _chow, prob = setup(cox, *texts)
        for seed in (0, 1):
            segre_class(prob, seed=seed)
    assert any(len(J.generators) > 1 for _I, J, _S in pairs)
    for I, J, S in pairs:
        assert (groebner_basis(S).elements
                == groebner_basis(saturate_by_intersection(I, J)).elements)


def point_ideal_p1p1(cox, p, q):
    """Ideal of the point ((p0:p1), (q0:q1)) on P1 x P1 (variables
    x0, x1, y0, y1)."""
    x0 = Polynomial.variable(4, 0)
    x1 = Polynomial.variable(4, 1)
    y0 = Polynomial.variable(4, 2)
    y1 = Polynomial.variable(4, 3)
    return [x0 * p[1] - x1 * p[0], y0 * q[1] - y1 * q[0]]


def length_of(I, cox):
    """``zero_dim_length`` of a Cox-ring ideal, through its charts."""
    return zero_dim_length(chart_dehomogenize(I.generators, cox), cox)


def test_zero_dim_length_single_points():
    cox = hirzebruch(0)
    for p, q in (((1, 0), (1, 0)), ((1, 1), (2, 3)), ((0, 1), (1, -1))):
        I = grevlex_ideal(point_ideal_p1p1(cox, p, q), cox.ring.names)
        I = saturate_ideal(I, irrelevant_ideal(cox))
        assert length_of(I, cox) == 1, (p, q)


def test_zero_dim_length_fat_point():
    # square of a torus point ideal on P1 x P1: length 3
    cox = hirzebruch(0)
    gens = point_ideal_p1p1(cox, (1, 1), (1, 2))
    sq = [a * b for a in gens for b in gens]
    I = saturate_ideal(grevlex_ideal(sq, cox.ring.names),
                       irrelevant_ideal(cox))
    assert length_of(I, cox) == 3


def test_zero_dim_length_union():
    cox = hirzebruch(0)
    A = grevlex_ideal(point_ideal_p1p1(cox, (1, 0), (1, 0)), cox.ring.names)
    B = grevlex_ideal(point_ideal_p1p1(cox, (1, 1), (2, 1)), cox.ring.names)
    I = saturate_ideal(intersect(A, B), irrelevant_ideal(cox))
    assert length_of(I, cox) == 2


def length_by_saturation(charts, cox):
    """The chart sweep as v - vsdim(J : M^inf): v = vsdim(J) for the chart
    ideal J, M the dehomogenized irrelevant monomials of earlier cones."""
    total = 0
    irr = irrelevant_ideal(cox).generators
    for t, J in enumerate(charts):
        v = vector_space_dimension(J)
        if t == 0 or v == 0:
            total += v
            continue
        off = cox.fan.cone_complement(cox.fan.max_cones[t])
        M = Ideal.create([irr[s].set_to_one(off) for s in range(t)],
                         J.names, J.order)
        total += v - vector_space_dimension(saturate_ideal(J, M))
    return total


def test_zero_dim_length_matches_saturation_sweep(monkeypatch):
    """Every residual-plus-cut chart tuple of examples 1-2 and the P1^3
    point, seeds 0-1, has the length the saturation sweep gives."""
    calls = []

    def recording(I, cox):
        n = zero_dim_length(I, cox)
        calls.append((I, cox, n))
        return n

    monkeypatch.setattr(segre, "zero_dim_length", recording)
    cases = [(hirzebruch(1), ("x1^2*y0^2 + x0^3*x1*y1^2",
                              "x1*y0^2*y1^2 + x0^3*y1^4")),
             (product_p1_cubed(), ("x0*z0^2", "y0*z0 + z0*y1")),
             (product_p1_cubed(), ("x0", "y0", "z0"))]
    for cox, texts in cases:
        _chow, prob = setup(cox, *texts)
        for seed in range(4):
            segre_class(prob, seed=seed)
    assert len(calls) > 40
    for I, cox, n in calls:
        assert n == length_by_saturation(I, cox)


def test_residual_class_sweeps_only_chosen_rows(monkeypatch):
    """Examples 1-2, the twisted cubic and V(x0*x2, x0*x4) = V(x0) on
    P2 x P1, seeds 0-2: each nonempty residual is counted by h + 1 chart
    sweeps (h at codimension dim X, which has a single exponent tuple), one
    per kept row, and no kept row is zero.  On P2 x P1 the lex tuple right
    after full rank in codimension 1 is the zero product Dx2 * Dx4."""
    sweeps = []
    residuals = []

    def counting(I, cox):
        sweeps.append(I)
        return zero_dim_length(I, cox)

    def recording(problem, d, *args):
        before = len(sweeps)
        cls, rows, gammas = residual_class(problem, d, *args)
        residuals.append((problem, d, rows, gammas, len(sweeps) - before))
        return cls, rows, gammas

    monkeypatch.setattr(segre, "zero_dim_length", counting)
    monkeypatch.setattr(segre, "residual_class", recording)
    cases = [(hirzebruch(1), ("x1^2*y0^2 + x0^3*x1*y1^2",
                              "x1*y0^2*y1^2 + x0^3*y1^4")),
             (product_p1_cubed(), ("x0*z0^2", "y0*z0 + z0*y1")),
             (projective_space(3), ("x0*x2 - x1^2", "x1*x3 - x2^2",
                                    "x0*x3 - x1*x2")),
             (threefold_p2_x_p1(), ("x0*x2", "x0*x4"))]
    for cox, texts in cases:
        _chow, prob = setup(cox, *texts)
        for seed in range(3):
            segre_class(prob, seed=seed)
    assert residuals
    for problem, d, rows, gammas, swept in residuals:
        h = len(problem.chow.bases[d])
        spare = d < problem.cox.fan.dim
        assert swept == len(rows) == len(gammas) == h + spare
        assert all(any(row) for row in rows)


def blown_up_p3():
    """P3 blown up at the torus-fixed point of the cone (1, 2, 3): the new
    ray 4 = (-1, 0, 0), whose divisor E = D_4 is the one divisor that is
    not nef."""
    base = projective_space(3).fan
    rays, cones = star_subdivide(base.rays, base.max_cones, (1, 2, 3))
    return build_cox_context(Fan(rays, tuple(cones)))


def test_blown_up_p3_exceptional_divisor():
    """V(z1*z4, z2*z4, z3*z4) is E, and s(E) = E - E^2 + E^3.  When the
    degree row of E^2 was cut by two sections of O(E), both multiples of
    z4, every attempt failed as not zero-dimensional."""
    cox = blown_up_p3()
    chow, prob = setup(cox, "z1*z4", "z2*z4", "z3*z4")
    E = chow.divisor(4)
    expected = chow.reduce(E - chow.power(E, 2) + chow.power(E, 3))
    for seed in range(3):
        assert segre_class(prob, seed=seed).total == expected, seed


def test_blown_up_p3_divisor_plus_curve():
    """V(z0*z1, z0*z2) is the divisor D = D_0 with the residual curve
    C = D_1 . D_2.  By the residual formula (Fulton, Prop. 9.2),
    s = s(D) + c(O(D))^-1 (s(C) (x) O(D))
      = D - D^2 + D^3 + D_1 D_2 - 3 D D_1 D_2 - D_1 D_2 (D_1 + D_2),
    at attempt 0 for every seed."""
    cox = blown_up_p3()
    chow, prob = setup(cox, "z0*z1", "z0*z2")
    D, D1, D2 = (chow.divisor(i) for i in range(3))
    C = chow.multiply(D1, D2)
    expected = chow.reduce(
        D - chow.power(D, 2) + chow.power(D, 3) + C
        - chow.multiply(D, C) * 3 - chow.multiply(C, D1 + D2))
    for seed in range(3):
        res = segre_class(prob, seed=seed)
        assert (res.total, res.attempt) == (expected, 0), seed


def test_zero_dim_length_curvilinear_fat_point():
    """A curvilinear point of length 4 at the torus-fixed point of the last
    cone of P1 x P1 (x0 = y0 = 0), where the earlier cones' monomials
    y0, x0*y0 and x0 restrict to x0, x0^2 and x0, plus a reduced point in
    chart 0: length 5."""
    cox = hirzebruch(0)
    x0, x1, y0, y1 = (Polynomial.variable(4, i) for i in range(4))
    fat = grevlex_ideal([x0 ** 4, y0 * x1 - x0 * y1], cox.ring.names)
    point = grevlex_ideal(point_ideal_p1p1(cox, (1, 1), (1, 1)),
                          cox.ring.names)
    assert length_of(fat, cox) == 4
    I = intersect(fat, point)
    charts = chart_dehomogenize(I.generators, cox)
    assert zero_dim_length(charts, cox) == 5
    assert length_by_saturation(charts, cox) == 5


def test_seed_independence_on_worked_example():
    cox = hirzebruch(1)
    chow, prob = setup(cox, "x1^2*y0^2 + x0^3*x1*y1^2",
                       "x1*y0^2*y1^2 + x0^3*y1^4")
    # at seed 500 and coefficients in +-[1, 100] the two sections are
    # tangent at Z and s_1 came out as -5 Dy0^2
    results = [segre_class(prob, seed=s) for s in (0, 1, 2, 500)]
    for r in results[1:]:
        assert r.alpha == results[0].alpha
        assert r.components == results[0].components


def test_point_on_8_ray_surface_within_30_s():
    """V(z0, z1) on the surface with rays (1,0), (1,1), ..., (1,-1): its
    Segre class is the point Dz0 . Dz1.  With a class alpha that is not
    the least, this solve ran past 90 s."""
    cox = cyclic_surface(EIGHT_RAYS)
    chow, prob = setup(cox, "z0", "z1")
    with time_limit(30, "the 8-ray point"):
        res = segre_class(prob, seed=0)
    assert res.alpha == (1, 3, 3, 4, 1, 0)
    assert len(res.components) == 1
    assert chow.degree(res.components[0]) == 1
    assert res.components[0] == chow.multiply(chow.divisor(0),
                                              chow.divisor(1))


def test_point_on_12_ray_surface_within_30_s():
    """V(z0, z1) on the 12-ray surface is the point Dz0 . Dz1.  Over Z
    this solve ran past 250 s: one residual basis reached 904-bit
    coefficients."""
    cox = cyclic_surface(TWELVE_RAYS)
    chow, prob = setup(cox, "z0", "z1")
    with time_limit(30, "the 12-ray point"):
        res = segre_class(prob, seed=0)
    assert res.components == (chow.multiply(chow.divisor(0),
                                            chow.divisor(1)),)
    assert chow.degree(res.components[0]) == 1


def p1_power(n):
    """(P1)^n with rays +-e_i, the ray of -e_i right after that of e_i,
    and variables z0 .. z(2n-1)."""
    rays = tuple(tuple(s * (j == i) for j in range(n))
                 for i in range(n) for s in (1, -1))
    cones = tuple(tuple(2 * i + b for i, b in enumerate(bits))
                  for bits in itertools.product((0, 1), repeat=n))
    return build_cox_context(Fan(rays, cones))


def test_point_on_p1_to_the_4_within_30_s():
    """The torus-fixed point V(z0, z2, z4, z6) of (P1)^4 is the product of
    its four divisors, of degree 1.  Over Z this solve ran past 200 s."""
    cox = p1_power(4)
    chow, prob = setup(cox, "z0", "z2", "z4", "z6")
    with time_limit(30, "the P1^4 point"):
        res = segre_class(prob, seed=0)
    point = chow.one()
    for i in (0, 2, 4, 6):
        point = chow.multiply(point, chow.divisor(i))
    assert res.components == (point,)
    assert chow.degree(point) == 1


def test_attempt_primes_count_down_below_2_to_the_31():
    """Attempt i works mod the i-th prime below 2^31, counting from 0."""
    p = 2 ** 31
    for prime in itertools.islice(_attempt_primes(), 12):
        p = sympy.prevprime(p)
        assert prime == p


# the two torus-fixed points of the benchmark: Cox context, generators
BENCHMARK_POINTS = {
    "point_p1_cubed": (product_p1_cubed, ("x0", "y0", "z0")),
    "point_5_ray_surface": (lambda: cyclic_surface(FIVE_RAYS), ("z0", "z1")),
}


@pytest.mark.parametrize("name", sorted(
    [p.stem for p in PROBLEMS.glob("*.json")] + list(BENCHMARK_POINTS)))
def test_attempt_over_z_matches_attempt_mod_p(name):
    """Whole attempts at seed 0 on the problem documents of
    ``perfbench/problems`` and the benchmark's points: attempt 0 with its
    Groebner work over Z and over GF(p) for the first attempt prime gives
    the same Segre class and the same residual point counts (DECISIONS.md
    entry 22)."""
    if name in BENCHMARK_POINTS:
        make_cox, texts = BENCHMARK_POINTS[name]
        cox = make_cox()
        chow = build_chow_ring(cox)
        gens = [parse_polynomial(t, cox.ring) for t in texts]
    else:
        cox, chow, gens = cli.build_problem(cli.load_document(
            (PROBLEMS / (name + ".json")).read_text()))
    problem = preprocess(cox, chow, gens)
    alpha = find_alpha(problem.degrees, cox, problem.functionals)
    prime = next(_attempt_primes())
    over_z, mod_p = (_attempt(problem, alpha, 0, 0, p, DEFAULT_COEFF_BOUND)
                     for p in (None, prime))
    assert mod_p.components == over_z.components, name
    assert ([rd.gammas for rd in mod_p.residuals]
            == [rd.gammas for rd in over_z.residuals]), name


def test_retries_below_one_are_refused():
    _chow, prob = setup(projective_space(2), "x0")
    for retries in (0, -3):
        with pytest.raises(ValueError):
            segre_class(prob, retries=retries)
    assert segre_class(prob, retries=1).attempt == 0


def test_unlucky_prime_is_retried(monkeypatch):
    """Example 1 at seed 0 with attempt 0 patched to work mod 3: its codim-2
    residual comes out one-dimensional, the purity check rejects the
    attempt, and attempt 1, on a prime below 2^31, gives the exact class;
    the result keeps attempt 0's failure."""
    chow, prob = setup(hirzebruch(1), "x1^2*y0^2 + x0^3*x1*y1^2",
                       "x1*y0^2*y1^2 + x0^3*y1^4")
    F, E = chow.divisor(0), chow.divisor(3)
    oracle = (chow.reduce(F * 3 + E * 2),
              chow.reduce(chow.multiply(E, F) * -6))
    res = segre_class(prob, seed=0)
    assert (res.attempt, res.failures, res.components) == (0, (), oracle)
    monkeypatch.setattr(segre, "_attempt_primes",
                        lambda: iter([3, 2147483647]))
    res = segre_class(prob, seed=0)
    assert res.attempt == 1
    assert res.components == oracle
    assert res.failures == ("DimensionFailure: residual of 2 sections has "
                            "dimension 1, expected 0",)


def test_point_on_5_ray_surface_at_tangent_draws():
    """V(z0, z1) on the 5-ray surface is the point Dz0 . Dz1.  At these
    seeds, with coefficients in +-[1, 100], the linear parts of the two
    sections at the point were proportional, the saturation removed a
    length-2 piece, and the class came out twice the point."""
    cox = cyclic_surface(FIVE_RAYS)
    chow, prob = setup(cox, "z0", "z1")
    point = chow.multiply(chow.divisor(0), chow.divisor(1))
    for seed in (5779, 51009):
        res = segre_class(prob, seed=seed)
        assert res.components == (point,), seed


def test_sections_of_12_ray_point_within_2_s():
    """The sections of V(z0, z1) on a 12-ray surface have 17 monomials
    each; walking the heft simplex to list them ran past 30 s."""
    cox = cyclic_surface(TWELVE_RAYS)
    gens = [parse_polynomial(t, cox.ring) for t in ("z0", "z1")]
    prob = preprocess(cox, None, gens)  # sections need no Chow ring
    alpha = find_alpha(prob.degrees, cox, prob.functionals)
    monomials_of_degree.cache_clear()
    with time_limit(2, "the 12-ray sections"):
        sections = pick_sections(prob, alpha, 2, random.Random(0),
                                 DEFAULT_COEFF_BOUND)
    assert [len(f.coeffs) for f in sections] == [17, 17]
    for f in sections:
        assert multidegree_of(f, cox.ring) == alpha


def test_determinism_same_seed():
    cox = projective_space(2)
    chow, prob = setup(cox, "x0*x1 - x2^2")
    a = segre_class(prob, seed=42)
    b = segre_class(prob, seed=42)
    assert a.components == b.components
    assert [rd.gammas for rd in a.residuals] == \
        [rd.gammas for rd in b.residuals]


def test_divisor_on_f1_closed_form():
    cox = hirzebruch(1)
    chow = build_chow_ring(cox)
    rng = random.Random(3)
    a, b, e = 3, 2, 1
    f = random_homogeneous((a, b), rng, 20, cox.ring)
    prob = preprocess(cox, chow, [f])
    res = segre_class(prob)
    F, E = chow.divisor(0), chow.divisor(3)
    assert res.components[0] == chow.reduce(F * a + E * b)
    assert res.components[1] == chow.reduce(
        chow.multiply(E, F) * (b * b * e - 2 * a * b))


def test_point_on_p1_cubed_reduces_no_pair_of_known_elements():
    """At the P1^3 point, seed 0, the chart sweep extends the chart bases
    it holds by the earlier cones' monomials, and no S-polynomial it
    forms pairs two elements of a known basis."""
    cox = product_p1_cubed()
    chow, prob = setup(cox, "x0", "y0", "z0")
    known = []
    counts = {"extending": 0, "known pairs": 0}
    buchberger, spoly_mod = groebner._buchberger, groebner._spoly_mod

    def spy_buchberger(gens, order, basis=(), prime=None):
        known.append({frozenset(p.items()) for _lm, p in basis})
        try:
            return buchberger(gens, order, basis, prime)
        finally:
            known.pop()

    def spy_spoly_mod(f, lf, g, lg, prime):
        if known[-1]:
            counts["extending"] += 1
            if (frozenset(f.items()) in known[-1]
                    and frozenset(g.items()) in known[-1]):
                counts["known pairs"] += 1
        return spoly_mod(f, lf, g, lg, prime)

    # the attempt's Groebner work runs mod a prime, in the monic kernel
    with mock.patch.object(groebner, "_buchberger", spy_buchberger), \
            mock.patch.object(groebner, "_spoly_mod", spy_spoly_mod):
        res = segre_class(prob, seed=0)
    assert res.components == (chow.multiply(chow.multiply(
        chow.divisor(0), chow.divisor(2)), chow.divisor(4)),)
    assert counts["extending"] > 0
    assert counts["known pairs"] == 0


def point_class(chow, cone):
    """[point] of the torus-fixed point of a maximal cone: the product of
    the cone's divisors."""
    point = chow.divisor(cone[0])
    for i in cone[1:]:
        point = chow.multiply(point, chow.divisor(i))
    return point


def test_seed_independence_on_star_subdivisions():
    """On P2 blown up at a point, P3 star-subdivided along an edge and
    P2 x P1 star-subdivided along an edge, seeds 0, 1 and 2 give the same
    components for the torus-fixed point of a cone at the new ray, and for
    that ray's divisor D: [point] and D/(1+D) = D - D^2 + D^3 - ..."""
    for base in (projective_space(2), projective_space(3),
                 threefold_p2_x_p1()):
        rays, cones = star_subdivide(base.fan.rays, base.fan.max_cones,
                                     base.fan.max_cones[0][:2])
        cox = build_cox_context(Fan(rays, tuple(cones)))
        chow = build_chow_ring(cox)
        new = len(rays) - 1
        cone = next(c for c in cones if new in c)
        D = chow.divisor(new)
        cases = ((["z%d" % i for i in cone], (point_class(chow, cone),)),
                 (["z%d" % new], tuple(
                     chow.reduce(chow.power(D, i + 1) * (-1) ** i)
                     for i in range(cox.fan.dim))))
        for texts, expected in cases:
            prob = preprocess(cox, chow, [parse_polynomial(t, cox.ring)
                                          for t in texts])
            for seed in range(3):
                assert segre_class(prob, seed=seed).components == \
                    expected, (rays, texts, seed)


@st.composite
def generated_surfaces(draw):
    """Star subdivisions of P2 or P1 x P1 at random cones until the fan
    has 6 to 8 rays, and one of its maximal cones."""
    base = draw(st.sampled_from((projective_space(2), hirzebruch(0)))).fan
    rays, cones = base.rays, list(base.max_cones)
    target = draw(st.integers(6, 8))
    while len(rays) < target:
        rays, cones = star_subdivide(rays, cones, draw(st.sampled_from(cones)))
    return rays, tuple(cones), draw(st.sampled_from(cones))


@given(generated_surfaces(), st.integers(0, 2))
@settings(max_examples=15, deadline=None)
def test_point_on_generated_surfaces(case, seed):
    """s(point) = [point], of degree 1, for the torus-fixed point of any
    cone of a generated surface with 6 to 8 rays."""
    rays, cones, cone = case
    cox = build_cox_context(Fan(rays, cones))
    chow, prob = setup(cox, *("z%d" % i for i in cone))
    point = point_class(chow, cone)
    assert chow.degree(point) == 1
    assert segre_class(prob, seed=seed).components == (point,), rays


@given(generated_surfaces(), st.integers(0, 7))
@settings(max_examples=10, deadline=None)
def test_ray_divisor_on_generated_surfaces(case, ray):
    """s(D) = D/(1 + D) = D - D^2 for the divisor D of any ray of a
    generated surface with 6 to 8 rays, the same class at seeds 0, 1
    and 2."""
    rays, cones, _cone = case
    i = ray % len(rays)
    cox = build_cox_context(Fan(rays, cones))
    chow, prob = setup(cox, "z%d" % i)
    D = chow.divisor(i)
    expected = (D, chow.reduce(chow.multiply(D, D) * -1))
    for seed in range(3):
        assert segre_class(prob, seed=seed).components == expected, \
            (rays, i, seed)
