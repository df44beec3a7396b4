"""Test oracles: fan checks, ideal operations, reductions, monomial
lists, monomial helpers and order keys the program no longer computes this
way, kept to check the ones it does."""

import itertools
from fractions import Fraction
from math import gcd, lcm

from toricsegre import linalg
from toricsegre.errors import (InvalidFan, NonIntegerCoefficient, NotComplete,
                               NotSmooth)
from toricsegre.exactpoly import GrevLex, Polynomial
from toricsegre.groebner import (Ideal, _eliminate_extra_raw, _primitive,
                                 groebner_basis, saturate_ideal)


def _monomial_divides(a, b):
    """Whether a divides b, exponent by exponent in a comprehension."""
    return all(x <= y for x, y in zip(a, b))


def _monomial_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def grevlex_key_by_comprehension(order, e):
    """``GrevLex.key`` as it was before it mapped ``e.__getitem__``: the
    negated total degree, then the exponents of ``order.perm`` in
    reverse, by a list comprehension."""
    return (-sum(e), *[e[i] for i in reversed(order.perm)])


def block_key_by_comprehension(order, e):
    """``BlockOrder.key`` as it was before it mapped ``e.__getitem__``:
    each block's negated total degree followed by its exponents in
    reverse, by list comprehensions."""
    return (-sum([e[i] for i in order.front]),
            *[e[i] for i in reversed(order.front)],
            -sum([e[i] for i in order.rest]),
            *[e[i] for i in reversed(order.rest)])


def grevlex_ideal(gens, names):
    """The ideal of ``gens`` in the variables ``names``, ordered by
    grevlex in variable order, as the chart ideals are."""
    return Ideal.create(gens, names, GrevLex(range(len(names))))


def _det(rows):
    """Determinant of a square integer matrix by Gaussian elimination over
    the rationals."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for i in range(col + 1, n):
            f = m[i][col] * inv
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return det


def _facet_normal(rows):
    """A nonzero rational vector orthogonal to the span of the rows."""
    k = len(rows[0])
    m, pivots = linalg.rref(rows)
    free = [j for j in range(k) if j not in pivots]
    j = free[0]
    n = [Fraction(0)] * k
    n[j] = Fraction(1)
    for r, col in enumerate(pivots):
        n[col] = -m[r][j]
    return n


def sheets_over_a_generic_point(fan):
    """How many maximal cones contain the moment-curve point
    (1, n, n^2, ...) for the least n >= 2 that lies on no hyperplane
    spanned by k - 1 rays of a cone, with its coordinates on each cone's
    rays by Cramer's rule.  Such an n exists: each coordinate is a nonzero
    polynomial in n, as the moment curve spans the space."""
    k = fan.dim
    n = 2
    while True:
        w = [n ** j for j in range(k)]
        coords = []
        for cone in fan.max_cones:
            rows = [list(fan.rays[i]) for i in cone]
            d = _det(rows)
            coords.append([_det(rows[:j] + [w] + rows[j + 1:]) / d
                           for j in range(k)])
        if all(x for xs in coords for x in xs):
            return sum(all(x > 0 for x in xs) for xs in coords)
        n += 1


def validate_by_facet_normals(fan):
    """``fan.validate_smooth_complete`` as it was before it read the wall
    relations: each maximal cone has a rational determinant of +-1, each
    facet lies in exactly two maximal cones, and their extra rays pair with
    a rational facet normal to opposite signs.  Then the cones must cover a
    generic point once (``sheets_over_a_generic_point``)."""
    k = fan.dim
    for cone in fan.max_cones:
        if len(cone) != k:
            raise NotSmooth("maximal cone %r does not have %d rays" % (cone, k),
                            cone=cone)
        d = _det([fan.rays[i] for i in cone])
        if abs(d) != 1:
            raise NotSmooth("cone %r has determinant %s" % (cone, d), cone=cone)
    facet_map = {}
    for ci, cone in enumerate(fan.max_cones):
        for facet in itertools.combinations(cone, k - 1):
            extra = next(i for i in cone if i not in facet)
            facet_map.setdefault(facet, []).append((ci, extra))
    for facet, hits in facet_map.items():
        if len(hits) != 2:
            raise NotComplete(
                "facet %r belongs to %d maximal cones" % (facet, len(hits)),
                facet=facet)
        if k == 1:
            u, v = fan.rays[hits[0][1]], fan.rays[hits[1][1]]
            if u[0] * v[0] >= 0:
                raise NotComplete("rays on the same side", facet=facet)
            continue
        normal = _facet_normal([fan.rays[i] for i in facet])
        s0 = sum(a * b for a, b in zip(normal, fan.rays[hits[0][1]]))
        s1 = sum(a * b for a, b in zip(normal, fan.rays[hits[1][1]]))
        if s0 == 0 or s1 == 0 or (s0 > 0) == (s1 > 0):
            raise NotComplete(
                "cones %r and %r do not lie on opposite sides of facet %r"
                % (fan.max_cones[hits[0][0]], fan.max_cones[hits[1][0]], facet),
                facet=facet)
    sheets = sheets_over_a_generic_point(fan)
    if sheets != 1:
        raise InvalidFan("the maximal cones cover a generic point %d times"
                         % sheets)
    return True


def heft_from_positive_relation(cox):
    """A heft of the grading of a complete fan, built as in the proof of
    DECISIONS.md entry 23: each -u_i lies in a maximal cone, so
    -u_i = sum_j a_j u_j with a_j >= 0, and u_i + sum_j a_j u_j = 0 is a
    ray relation that is 1 at i and nonnegative elsewhere.  The sum c of
    these r relations has every entry >= 1, and h with h . A = c is a heft,
    cleared of denominators.  None when some -u_i lies in no maximal
    cone or c is not in the row space of A."""
    fan, a = cox.fan, cox.ring.grading
    k = fan.dim
    c = [Fraction(0)] * fan.nrays
    for i, ray in enumerate(fan.rays):
        for cone in fan.max_cones:
            cols = [[fan.rays[j][l] for j in cone] for l in range(k)]
            x = linalg.solve_linear_system(cols, [-v for v in ray])
            if x is not None and min(x) >= 0:
                break
        else:
            return None
        c[i] += 1
        for j, xj in zip(cone, x):
            c[j] += xj
    h = linalg.solve_linear_system([list(col) for col in zip(*a)], c)
    if h is None:
        return None
    mult = lcm(*(x.denominator for x in h))
    return tuple(int(x * mult) for x in h)


def chow_ideal_by_solved_forms(cox, pivot_cone, order):
    """The Chow ideal for ``order`` as ``chow.build_chow_ring`` built it
    for each pivot cone before it took the raw lattice relations: the
    Stanley-Reisner monomials plus, for each l, the relation
    sum_i <m_l, u_i> D_i of the dual basis vector m_l of the pivot cone's
    rays (the integer solution of <m_l, u_j> = delta_jl over the rays u_j
    of the cone), which solves the relations for the cone's divisors."""
    fan = cox.fan
    r, k = fan.nrays, fan.dim
    gens = []
    for nf in fan.minimal_non_faces():
        gens.append(Polynomial.from_monomial(
            tuple(1 if i in nf else 0 for i in range(r))))
    pivot_rays = [fan.rays[i] for i in pivot_cone]
    for l in range(k):
        (m,) = linalg.solve_integer(pivot_rays,
                                    [[1 if j == l else 0 for j in range(k)]])
        lin = Polynomial.zero(r)
        for i in range(r):
            c = sum(int(mj) * fan.rays[i][j] for j, mj in enumerate(m))
            if c:
                lin = lin + Polynomial.variable(r, i) * c
        gens.append(lin)
    return Ideal.create(gens, ("D%s" % n for n in cox.ring.names), order)


def irrelevant_ideal(cox):
    """The irrelevant ideal B of the Cox ring: one squarefree generator per
    maximal cone, the product of the variables of the rays outside it."""
    fan = cox.fan
    gens = []
    for cone in fan.max_cones:
        e = [0] * fan.nrays
        for i in fan.cone_complement(cone):
            e[i] = 1
        gens.append(Polynomial.from_monomial(tuple(e)))
    return grevlex_ideal(gens, cox.ring.names)


def intersect(I, J):
    """I meet J through a tag variable u: (u*I + (1 - u)*J) meet k[x],
    over the field of I."""
    ext = []
    for g in I.generators:
        ext.append({m + (1,): c for m, c in g.coeffs.items()})
    for g in J.generators:
        q = {m + (0,): c for m, c in g.coeffs.items()}
        for m, c in g.coeffs.items():
            q[m + (1,)] = -c
        ext.append(q)
    n = I.nvars
    return Ideal.create(
        [Polynomial(n, p) for p in _eliminate_extra_raw(ext, n, 1, I.prime)],
        I.names, I.order, I.prime)


def saturate_by_intersection(I, J):
    """(I : J^inf) as the intersection of the element saturations
    (I : g^inf) over the generators g of J."""
    parts = [saturate_ideal(I, Ideal.create([g], J.names, J.order))
             for g in J.generators]
    acc = parts[0]
    for nxt in parts[1:]:
        acc = intersect(acc, nxt)
    return acc


def monomials_by_heft_walk(delta, cox):
    """All exponent vectors e >= 0 with grading . e == delta, in
    lexicographic order, by backtracking variable by variable over the heft
    simplex of ``heft_from_positive_relation``: each exponent is bounded by
    the residual heft of delta."""
    delta = tuple(delta)
    ctx = cox.ring
    r = ctx.nvars
    heft = heft_from_positive_relation(cox)
    budget = sum(h * d for h, d in zip(heft, delta))
    if budget < 0:
        return []
    weights = [sum(h * row[i] for h, row in zip(heft, ctx.grading))
               for i in range(r)]
    cols = [ctx.degree_of_variable(i) for i in range(r)]
    out = []
    e = [0] * r

    def recurse(i, residual, budget):
        if i == r:
            if all(x == 0 for x in residual):
                out.append(tuple(e))
            return
        w = weights[i]
        col = cols[i]
        for exp in range(budget // w + 1):
            e[i] = exp
            recurse(i + 1,
                    tuple(x - exp * c for x, c in zip(residual, col)),
                    budget - exp * w)
        e[i] = 0

    recurse(0, delta, budget)
    return out


def _subtract(num, m, lm, q, b):
    """num -= b * (m / lm) * q, dropping cancelled terms."""
    shift = tuple(x - y for x, y in zip(m, lm))
    for mm, cc in q.items():
        mm2 = _monomial_mul(mm, shift)
        s = num.get(mm2, 0) - b * cc
        if s:
            num[mm2] = s
        else:
            num.pop(mm2, None)


def reduce_by_scan(p, reducers, order):
    """``groebner._reduce`` as it was before the heap: each step scans every
    live term for the lead, keying each one again."""
    key = order.key
    num = dict(p)
    res = {}
    steps = 0
    while num:
        m = min(num, key=key)
        c = num[m]
        for lm, q, lc in reducers:
            if _monomial_divides(lm, m):
                break
        else:
            del num[m]
            res[m] = c
            continue
        d = gcd(c, lc)
        a, b = lc // d, c // d
        if a != 1:
            for k in num:
                num[k] *= a
            for k in res:
                res[k] *= a
        _subtract(num, m, lm, q, b)
        steps += 1
        if steps % 16 == 0 and (num or res):
            g = 0
            for cc in num.values():
                g = gcd(g, abs(cc))
            for cc in res.values():
                g = gcd(g, abs(cc))
            if g > 1:
                num = {k: v // g for k, v in num.items()}
                res = {k: v // g for k, v in res.items()}
    return _primitive(res, min(res, key=key)) if res else res


def normal_form_by_scan(f, G):
    """``groebner.normal_form`` as it was before the heap and the stored
    leads: the leads of G are found and sorted again on every call, and
    each step scans every live term for the lead."""
    key = G.order.key
    reducers = sorted(((min(g.coeffs, key=key), g.coeffs)
                       for g in G.elements),
                      key=lambda t: key(t[0]), reverse=True)
    num = dict(f.coeffs)
    res = {}
    while num:
        m = min(num, key=key)
        c = num[m]
        for lm, q in reducers:
            if _monomial_divides(lm, m):
                break
        else:
            del num[m]
            res[m] = c
            continue
        b, rest = divmod(c, q[lm])
        if rest:
            raise NonIntegerCoefficient(
                "lead coefficient %d does not divide %d" % (q[lm], c))
        _subtract(num, m, lm, q, b)
    return Polynomial(f.nvars, res)


def vector_space_dimension_by_box(I):
    """``groebner.vector_space_dimension`` as it was before the walk: every
    monomial of the box below the pure-power leads is tested, so the cost
    is the product of those bounds.  The ideal must be zero-dimensional."""
    lms = groebner_basis(I).leads
    if any(max(m) == 0 for m in lms):
        return 0
    bounds = [min(m[i] for m in lms
                  if all(e == 0 for j, e in enumerate(m) if j != i))
              for i in range(I.nvars)]
    return sum(1 for m in itertools.product(*(range(b) for b in bounds))
               if not any(_monomial_divides(lm, m) for lm in lms))
