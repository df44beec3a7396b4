"""Test oracles: ideal operations and monomial lists the program no longer
computes this way, kept to check the ones it does."""

from toricsegre.groebner import (MultigradedIdeal, _eliminate_extra_raw,
                                 _ideal_from_raw, saturate_ideal)


def intersect(I, J):
    """I meet J through a tag variable u: (u*I + (1 - u)*J) meet k[x]."""
    ext = []
    for g in I.generators:
        ext.append({m + (1,): c for m, c in g.coeffs.items()})
    for g in J.generators:
        q = {m + (0,): c for m, c in g.coeffs.items()}
        for m, c in g.coeffs.items():
            q[m + (1,)] = -c
        ext.append(q)
    return _ideal_from_raw(_eliminate_extra_raw(ext, I.ctx.weights, 1),
                           I.ctx)


def saturate_by_intersection(I, J):
    """(I : J^inf) as the intersection of the element saturations
    (I : g^inf) over the generators g of J."""
    parts = [saturate_ideal(I, MultigradedIdeal.create([g], J.ctx))
             for g in J.generators]
    acc = parts[0]
    for nxt in parts[1:]:
        acc = intersect(acc, nxt)
    return acc


def monomials_by_heft_walk(delta, ctx):
    """All exponent vectors e >= 0 with grading . e == delta, in
    lexicographic order, by backtracking variable by variable over the heft
    simplex: each exponent is bounded by the residual heft of delta."""
    delta = tuple(delta)
    r = ctx.nvars
    budget = ctx.heft_of(delta)
    if budget < 0:
        return []
    weights = ctx.weights
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
