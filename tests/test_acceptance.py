"""Acceptance suite: the nine primary criteria, one pass/fail line each.

Criterion 3 checks the third worked example, a complete intersection on
P2xP1, against the closed form s(Z, X) = D1.D2/((1+D1)(1+D2)); its
dimension-0 component has degree -6 (DECISIONS.md, entries 1 and 6).
"""

import random
import time

import pytest

from toricsegre.chow import build_chow_ring, chow_ranks
from toricsegre.cones import curve_functionals, is_nef
from toricsegre.exactpoly import (Polynomial, multidegree_of,
                                  random_homogeneous)
from toricsegre.fan import chart_dehomogenize
from toricsegre.groebner import saturate_ideal
from toricsegre.library import (hirzebruch, product_p1_cubed,
                                projective_space, threefold_p2_x_p1)
from toricsegre.parser import parse_polynomial
from toricsegre.segre import preprocess, segre_class, zero_dim_length
from toricsegre import linalg

from _fans import fan_library
from _oracles import grevlex_ideal, intersect, irrelevant_ideal

SEEDS = (0, 1, 2)


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print("criterion %d: %s - %s"
              % (num, "PASS" if ok else "FAIL", detail))


def run_example(cox, texts, seed):
    chow = build_chow_ring(cox)
    gens = [parse_polynomial(t, cox.ring) for t in texts]
    prob = preprocess(cox, chow, gens)
    start = time.monotonic()
    res = segre_class(prob, seed=seed)
    return chow, prob, res, time.monotonic() - start


@pytest.fixture(scope="module")
def example1():
    cox = hirzebruch(1)
    return cox, [run_example(cox, ["x1^2*y0^2 + x0^3*x1*y1^2",
                                   "x1*y0^2*y1^2 + x0^3*y1^4"], s)
                 for s in SEEDS]


@pytest.fixture(scope="module")
def example2():
    cox = product_p1_cubed()
    return cox, [run_example(cox, ["x0*z0^2", "y0*z0 + z0*y1"], s)
                 for s in SEEDS]


@pytest.fixture(scope="module")
def example3():
    cox = threefold_p2_x_p1()
    return cox, [run_example(cox, ["x1*x2", "x3*x4"], s) for s in SEEDS]


def test_criterion_1_hirzebruch_example(example1, capsys):
    cox, runs = example1
    for _chow, _prob, res, elapsed in runs:
        chow = _chow
        F, E = chow.divisor(0), chow.divisor(3)
        assert res.alpha == (6, 4)
        assert elapsed < 60
        r1, r2 = res.residuals
        assert r1.chow_class == chow.reduce(F * 3 + E * 2)  # (3, 2)
        assert chow.degree(r2.chow_class) == 6              # b^(2) = 6
        assert res.components[0] == chow.reduce(F * 3 + E * 2)
        assert res.components[1] == chow.reduce(chow.multiply(E, F) * -6)
    report(capsys, 1, True,
           "F_1 example: alpha=(6,4), residuals (3,2) and 6, "
           "s_0=3F+2E, s_1=-6EF over seeds %s" % (SEEDS,))


def test_criterion_2_p1_cubed_example(example2, capsys):
    cox, runs = example2
    for chow, prob, res, elapsed in runs:
        assert prob.dim == 2
        assert elapsed < 120
        d1, d2, d3 = chow.divisor(0), chow.divisor(2), chow.divisor(4)
        r1, r2, r3 = res.residuals
        assert r1.chow_class == chow.reduce(d1 + d2 + d3)
        assert r2.chow_class == chow.reduce(
            chow.multiply(d2, d3) + chow.multiply(d1, d3) * 2 +
            chow.multiply(d1, d2))
        assert chow.degree(r3.chow_class) == 2
        assert res.components[0] == chow.reduce(d3)
        assert res.components[1] == chow.reduce(
            chow.multiply(d2, d3) + chow.multiply(d1, d2))
        assert res.components[2] == chow.reduce(
            chow.multiply(chow.multiply(d1, d2), d3) * -5)
    report(capsys, 2, True,
           "P1xP1xP1 example: n=2, residual tuples (1,1,1), (1,2,1), 2, "
           "s=(D3, D2D3+D1D2, -5D1D2D3) over seeds %s" % (SEEDS,))


def test_criterion_3_threefold_example(example3, capsys):
    cox, runs = example3
    for chow, prob, res, elapsed in runs:
        assert prob.dim == 1
        assert elapsed < 300
        # internal consistency: recursion re-substitution
        alpha_cls = chow.pic_to_chow(res.alpha)
        c = prob.codim
        from math import comb
        for i, s_i in enumerate(res.components):
            val = chow.power(alpha_cls, c + i)
            for rd in res.residuals:
                if rd.d == c + i:
                    val = val - rd.chow_class
            for j in range(i):
                val = val - chow.multiply(chow.power(alpha_cls, i - j),
                                          res.components[j]) * comb(c + i,
                                                                    i - j)
            assert chow.reduce(val) == s_i
    # seed independence of the full output
    classes = [tuple(r[2].components) for r in runs]
    assert classes.count(classes[0]) == len(classes)
    # closed form: V(x1*x2, x3*x4) has pure codimension 2 in P2xP1, so
    # s = D1.D2/((1+D1)(1+D2)) = (D1.D2, -(D1+D2).D1.D2)
    for chow, prob, res, _elapsed in runs:
        d1, d2 = (chow.pic_to_chow(multidegree_of(g, cox.ring))
                  for g in prob.generators)
        prod = chow.multiply(d1, d2)
        assert res.components[0] == chow.reduce(prod)
        assert res.components[1] == chow.reduce(
            chow.multiply(d1 + d2, prod) * -1)
        # by hand: D1 = D2 = H + F with H^3 = F^2 = 0, so
        # (H + F)^3 = 3H^2F and s_1 = -2(H + F)^3 has degree -6
        assert chow.degree(res.components[1]) == -6
    report(capsys, 3, True,
           "threefold example: n=1, s_0=D1D2, s_1=-(D1+D2)D1D2 of "
           "degree -6 (complete-intersection closed form) over seeds %s"
           % (SEEDS,))


def test_criterion_4_divisor_closed_form(capsys):
    rng = random.Random(20260823)
    checked = 0
    for e in (0, 1, 2):
        cox = hirzebruch(e)
        chow = build_chow_ring(cox)
        F, E = chow.divisor(0), chow.divisor(3)
        done = 0
        while done < 10:
            a = rng.randint(0, 3)
            b = rng.randint(0, 3)
            if a + b == 0 or a < e * b:  # require a nef bidegree
                continue
            f = random_homogeneous((a, b), rng, 30, cox.ring)
            prob = preprocess(cox, chow, [f])
            res = segre_class(prob, seed=done)
            assert res.components[0] == chow.reduce(F * a + E * b), (e, a, b)
            assert res.components[1] == chow.reduce(
                chow.multiply(E, F) * (b * b * e - 2 * a * b)), (e, a, b)
            done += 1
            checked += 1
    report(capsys, 4, True,
           "divisor closed form aF+bE+(b^2e-2ab)EF verified on %d random "
           "divisors over F_0, F_1, F_2" % checked)


def test_criterion_5_complete_intersection_oracle(capsys):
    rng = random.Random(5)
    fans = ("P2", "P1xP1", "F1", "P1xP1xP1")
    lib = fan_library()
    for name in fans:
        cox = lib[name]
        chow = build_chow_ring(cox)
        w = curve_functionals(cox)
        p = cox.ring.pic_rank
        # degree entries up to 2 on the surfaces; on the 3-fold stay with
        # 0/1 entries to keep each exact run at desk scale
        hi = 1 if cox.fan.dim == 3 else 2
        done = 0
        while done < 5:
            d1 = tuple(rng.randint(0, hi) for _ in range(p))
            d2 = tuple(rng.randint(0, hi) for _ in range(p))
            if not (is_nef(d1, w) and is_nef(d2, w)
                    and any(d1) and any(d2)):
                continue
            c1, c2 = chow.pic_to_chow(d1), chow.pic_to_chow(d2)
            if chow.multiply(c1, c2).is_zero():
                continue  # generic intersection is empty (e.g. two fibers)
            u = random_homogeneous(d1, rng, 30, cox.ring)
            v = random_homogeneous(d2, rng, 30, cox.ring)
            prob = preprocess(cox, chow, [u, v])
            res = segre_class(prob, seed=done)
            prod = chow.multiply(c1, c2)
            assert res.components[0] == prod, (name, d1, d2)
            if prob.dim >= 1:
                assert res.components[1] == chow.reduce(
                    chow.multiply(c1 + c2, prod) * -1), (name, d1, d2)
            done += 1
    report(capsys, 5, True,
           "complete-intersection oracle s_0=d1.d2, s_1=-(d1+d2).d1.d2 "
           "verified for 5 degree pairs on each of %s" % (fans,))


def test_criterion_6_chow_rank_identity(capsys):
    lib = fan_library()
    for name, cox in lib.items():
        chow = build_chow_ring(cox)
        assert tuple(len(b) for b in chow.bases) == chow_ranks(cox.fan)
    report(capsys, 6, True,
           "graded Chow ranks match the combinatorial formula on %s"
           % sorted(lib))


def test_criterion_7_nef_criterion(capsys):
    for e in range(4):
        w = curve_functionals(hirzebruch(e))
        for a in range(6):
            for b in range(6):
                assert is_nef((a, b), w) == \
                    (a >= e * b and b >= 0 and a >= 0), (e, a, b)
    report(capsys, 7, True,
           "is_nef((a,b)) iff a>=eb, b>=0, a>=0 on F_e, e<=3, 0<=a,b<=5")


def _point_ideal(cox, coords):
    """Ideal of a point with the given homogeneous coordinates per factor
    variable pair, for P1xP1 (2 pairs) or P2 (one triple)."""
    n = cox.ring.nvars
    gens = []
    if n == 4:  # P1 x P1: pairs (x0, x1), (y0, y1)
        (p0, p1), (q0, q1) = coords
        gens.append(Polynomial.variable(4, 0) * p1 -
                    Polynomial.variable(4, 1) * p0)
        gens.append(Polynomial.variable(4, 2) * q1 -
                    Polynomial.variable(4, 3) * q0)
    else:  # P2
        a, b, c = coords
        x0, x1, x2 = (Polynomial.variable(3, i) for i in range(3))
        if a:
            gens = [x1 * a - x0 * b, x2 * a - x0 * c]
        elif b:
            gens = [x0 * b - x1 * a, x2 * b - x1 * c]
        else:
            gens = [x0, x1]
    return gens


def test_criterion_8_length_oracle(example1, example2, capsys):
    cases = 0
    rng = random.Random(99)
    for space in ("P1xP1", "P2"):
        cox = fan_library()[space] if space == "P1xP1" \
            else projective_space(2)
        if space == "P1xP1":
            points = [((1, 0), (1, 0)), ((1, 1), (1, 0)), ((0, 1), (1, 2)),
                      ((1, 2), (3, 1)), ((1, 1), (1, 1))]
        else:
            points = [(1, 0, 0), (0, 1, 0), (1, 1, 1), (1, 2, 3), (0, 1, 2)]
        for trial in range(10):
            npts = rng.randint(1, 2)
            chosen = rng.sample(points, npts)
            total = 0
            ideal = None
            for coords in chosen:
                m = rng.randint(1, 2)
                gens = _point_ideal(cox, coords)
                if m == 2:
                    gens = [a * b for a in gens for b in gens]
                    total += 3  # colength of m^2 for a smooth surface point
                else:
                    total += 1
                I = grevlex_ideal(gens, cox.ring.names)
                ideal = I if ideal is None else intersect(ideal, I)
            ideal = saturate_ideal(ideal, irrelevant_ideal(cox))
            charts = chart_dehomogenize(ideal.generators, cox)
            assert zero_dim_length(charts, cox) == total, (space, chosen)
            cases += 1
    assert cases == 20
    # gamma values identical across seeds on the worked examples
    for _cox, runs in (example1, example2):
        gammas = [tuple(rd.gammas for rd in r[2].residuals) for r in runs]
        assert gammas.count(gammas[0]) == len(gammas)
    report(capsys, 8, True,
           "zero_dim_length matched hand multiplicities on 20 fat-point "
           "unions; gamma values seed-independent on examples 1-2")


def test_criterion_9_runtime_assertions(example1, example2, example3,
                                        capsys):
    checked_rows = 0
    for cox, runs in (example1, example2, example3):
        k = cox.fan.dim
        for chow, prob, res, _elapsed in runs:
            for rd in res.residuals:
                # Purity: dimension is exactly k - d or the residual is
                # empty (already asserted during the run; re-checked here).
                assert rd.dimension in (None, k - rd.d)
                if rd.dimension is None:
                    continue
                # Overdetermined consistency: every accumulated row,
                # including the extra ones beyond full rank, is satisfied
                # by the solved class.
                coeffs = chow.coefficients_on_basis(rd.chow_class, rd.d)
                h = len(chow.bases[rd.d])
                assert linalg.rational_rank(
                    [list(r) for r in rd.beta_rows]) == h
                assert len(rd.beta_rows) > h or len(rd.beta_rows) == \
                    len(list(rd.gammas))
                for row, gamma in zip(rd.beta_rows, rd.gammas):
                    assert sum(r * c for r, c in zip(row, coeffs)) == gamma
                    checked_rows += 1
    report(capsys, 9, True,
           "purity and %d overdetermined consistency rows verified on all "
           "successful runs of examples 1-3" % checked_rows)
