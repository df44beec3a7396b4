"""Segre-class engine: classification, residuals, lengths, and classical
oracles."""

import random

import pytest

from toricsegre.chow import build_chow_ring
from toricsegre.errors import EmptySubscheme, WholeSpace
from toricsegre.exactpoly import (Polynomial, multidegree_of,
                                  random_homogeneous)
from toricsegre.fan import chart_dehomogenize
from toricsegre.groebner import (MultigradedIdeal, groebner_basis,
                                 intersect, saturate_ideal,
                                 vector_space_dimension)
from toricsegre.library import (hirzebruch, product_p1_cubed,
                                projective_space)
from toricsegre.parser import parse_polynomial
from toricsegre import segre
from toricsegre.segre import (pick_sections, preprocess, segre_class,
                              zero_dim_length)


def setup(cox, *texts):
    chow = build_chow_ring(cox)
    gens = [parse_polynomial(t, cox.ring) for t in texts]
    return chow, preprocess(cox, chow, gens)


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
        preprocess(cox, chow, list(cox.irrelevant.generators))


def test_preprocess_whole_space():
    cox = projective_space(2)
    chow = build_chow_ring(cox)
    with pytest.raises(WholeSpace):
        preprocess(cox, chow, [Polynomial.zero(3)])


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
    from toricsegre.cones import find_alpha
    cox = hirzebruch(1)
    chow, prob = setup(cox, "x1^2*y0^2 + x0^3*x1*y1^2",
                       "x1*y0^2*y1^2 + x0^3*y1^4")
    alpha = find_alpha(prob.ideal.degrees, cox, prob.functionals)
    assert alpha == (6, 4)
    rng = random.Random(11)
    G = groebner_basis(prob.ideal).elements
    for f in pick_sections(prob, alpha, 2, rng, 50):
        assert multidegree_of(f, cox.ring) == alpha
        with_f = MultigradedIdeal.create(
            list(prob.ideal.generators) + [f], cox.ring)
        assert groebner_basis(with_f).elements == G


def saturate_by_irrelevant(I, cox):
    """(I : B^inf), one minimal prime of B at a time: each is generated by
    the variables of a primitive collection."""
    for collection in cox.fan.minimal_non_faces():
        prime = MultigradedIdeal.create(
            [Polynomial.variable(cox.nvars, i) for i in collection],
            cox.ring)
        I = saturate_ideal(I, prime)
    return I


def test_colon_saturation_stability():
    """Each chart ideal of the residual equals the chart of the Cox-ring
    residual ((F : B^inf) : I^inf), on the F1 worked example (d = 1, 2)
    and the point V(x0, y0, z0) on P1^3 (d = 3)."""
    from toricsegre.cones import find_alpha
    from toricsegre.segre import residual_ideal
    cases = [(hirzebruch(1), ("x1^2*y0^2 + x0^3*x1*y1^2",
                              "x1*y0^2*y1^2 + x0^3*y1^4"), (1, 2)),
             (product_p1_cubed(), ("x0", "y0", "z0"), (3,))]
    for cox, texts, ds in cases:
        chow, prob = setup(cox, *texts)
        alpha = find_alpha(prob.ideal.degrees, cox, prob.functionals)
        for d in ds:
            rng = random.Random("stab:%d" % d)
            sections = pick_sections(prob, alpha, d, rng, 50)
            charts = residual_ideal(prob, sections)
            F = MultigradedIdeal.create(sections, cox.ring)
            cox_residual = saturate_ideal(saturate_by_irrelevant(F, cox),
                                          prob.ideal)
            assert len(charts) == len(cox.fan.max_cones)
            for t, chart in enumerate(charts):
                oracle = chart_dehomogenize(cox_residual, cox, t)
                assert (groebner_basis(chart).elements
                        == groebner_basis(oracle).elements), (texts, d, t)


def point_ideal_p1p1(cox, p, q):
    """Ideal of the point ((p0:p1), (q0:q1)) on P1 x P1 (variables
    x0, x1, y0, y1)."""
    x0 = Polynomial.variable(4, 0)
    x1 = Polynomial.variable(4, 1)
    y0 = Polynomial.variable(4, 2)
    y1 = Polynomial.variable(4, 3)
    return [x0 * p[1] - x1 * p[0], y0 * q[1] - y1 * q[0]]


def test_zero_dim_length_single_points():
    cox = hirzebruch(0)
    for p, q in (((1, 0), (1, 0)), ((1, 1), (2, 3)), ((0, 1), (1, -1))):
        I = MultigradedIdeal.create(point_ideal_p1p1(cox, p, q), cox.ring)
        I = saturate_ideal(I, cox.irrelevant)
        assert zero_dim_length(I, cox) == 1, (p, q)


def test_zero_dim_length_fat_point():
    # square of a torus point ideal on P1 x P1: length 3
    cox = hirzebruch(0)
    gens = point_ideal_p1p1(cox, (1, 1), (1, 2))
    sq = [a * b for a in gens for b in gens]
    I = saturate_ideal(MultigradedIdeal.create(sq, cox.ring),
                       cox.irrelevant)
    assert zero_dim_length(I, cox) == 3


def test_zero_dim_length_union():
    cox = hirzebruch(0)
    A = MultigradedIdeal.create(point_ideal_p1p1(cox, (1, 0), (1, 0)),
                                cox.ring)
    B = MultigradedIdeal.create(point_ideal_p1p1(cox, (1, 1), (2, 1)),
                                cox.ring)
    I = saturate_ideal(intersect(A, B), cox.irrelevant)
    assert zero_dim_length(I, cox) == 2


def length_by_saturation(charts, cox):
    """The chart sweep as v - vsdim(J : M^inf): v = vsdim(J) for the chart
    ideal J, M the dehomogenized irrelevant monomials of earlier cones."""
    total = 0
    irr = cox.irrelevant.generators
    for t, J in enumerate(charts):
        v = vector_space_dimension(J)
        if t == 0 or v == 0:
            total += v
            continue
        off = cox.fan.cone_complement(cox.fan.max_cones[t])
        M = MultigradedIdeal.create(
            [irr[s].set_to_one(off) for s in range(t)], J.ctx)
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
        for seed in (0, 1):
            segre_class(prob, seed=seed)
    assert len(calls) > 40
    for I, cox, n in calls:
        assert n == length_by_saturation(I, cox)


def test_zero_dim_length_curvilinear_fat_point():
    """A curvilinear point of length 4 at the torus-fixed point of the last
    cone of P1 x P1 (x0 = y0 = 0), where the earlier cones' monomials
    y0, x0*y0 and x0 restrict to x0, x0^2 and x0, plus a reduced point in
    chart 0: length 5."""
    cox = hirzebruch(0)
    x0, x1, y0, y1 = (Polynomial.variable(4, i) for i in range(4))
    fat = MultigradedIdeal.create([x0 ** 4, y0 * x1 - x0 * y1], cox.ring)
    point = MultigradedIdeal.create(point_ideal_p1p1(cox, (1, 1), (1, 1)),
                                    cox.ring)
    assert zero_dim_length(fat, cox) == 4
    I = intersect(fat, point)
    assert zero_dim_length(I, cox) == 5
    charts = tuple(chart_dehomogenize(I, cox, t) for t in range(4))
    assert length_by_saturation(charts, cox) == 5


def test_seed_independence_on_worked_example():
    cox = hirzebruch(1)
    chow, prob = setup(cox, "x1^2*y0^2 + x0^3*x1*y1^2",
                       "x1*y0^2*y1^2 + x0^3*y1^4")
    results = [segre_class(prob, seed=s) for s in (0, 1, 2)]
    for r in results[1:]:
        assert r.alpha == results[0].alpha
        assert r.components == results[0].components


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
