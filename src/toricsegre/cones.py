"""Curve classes, nef checks, and the choice of the bounding divisor class.

Every interior wall (codimension-one cone) of a complete simplicial fan
carries a torus-invariant curve; its intersection numbers with the toric
divisors give an integer functional on the Picard lattice.  A class is nef
exactly when all wall functionals are nonnegative on it.  The bounding
class used by the residual algorithm is the least class whose translates by
the generator degrees stay nef: the common apex of the translated nef
cones when it exists, and otherwise a feasible point reached from one
generator degree along an ample direction.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from . import linalg
from .errors import InconsistentSystem, NotProjective


def wall_relations(fan):
    """One integer relation per wall: for a facet shared by maximal cones
    with extra rays u and u', the vector c with c_u = c_u' = 1 and
    c_i = -b_i on the facet rays, where u + u' = sum b_i u_i.  The b_i are
    integers by smoothness; c annihilates the ray matrix."""
    k = fan.dim
    facet_map = {}
    for cone in fan.max_cones:
        for facet in itertools.combinations(cone, k - 1):
            extra = next(i for i in cone if i not in facet)
            facet_map.setdefault(facet, []).append(extra)
    relations = []
    for facet, extras in sorted(facet_map.items()):
        if len(extras) != 2:
            continue
        u, up = extras
        target = [fan.rays[u][j] + fan.rays[up][j] for j in range(k)]
        if facet:
            cols = [[fan.rays[i][j] for i in facet] for j in range(k)]
            b = linalg.solve_integer(cols, target)
            if b is None:
                raise InconsistentSystem(
                    "wall relation for facet %r has no integer solution"
                    % (facet,))
        else:
            b = ()
        c = [0] * fan.nrays
        c[u] += 1
        c[up] += 1
        for i, bi in zip(facet, b):
            c[i] -= int(bi)
        relations.append(tuple(c))
    return tuple(relations)


def curve_functionals(cox):
    """Deduplicated wall functionals on the Picard lattice: integer vectors
    w with w . A = c for each wall relation c (A the grading matrix)."""
    a = cox.ring.grading
    p = len(a)
    cols = [[a[i][j] for i in range(p)] for j in range(cox.fan.nrays)]
    out = []
    seen = set()
    for c in wall_relations(cox.fan):
        w = linalg.solve_integer(cols, list(c))
        if w is None:
            raise InconsistentSystem(
                "wall relation %r is not a functional on the Picard lattice"
                % (c,))
        w = tuple(int(x) for x in w)
        if w not in seen:
            seen.add(w)
            out.append(w)
    return tuple(out)


def is_nef(delta, functionals):
    delta = tuple(delta)
    return all(sum(wi * di for wi, di in zip(w, delta)) >= 0
               for w in functionals)


def _pairing(w, delta):
    return sum(wi * di for wi, di in zip(w, delta))


def _descend(delta, system, heft):
    """Greedy best-effort heft reduction: step by +-1 along coordinates
    while the system stays satisfied and the heft strictly drops."""
    p = len(delta)
    delta = list(delta)

    def feasible(d):
        return all(_pairing(w, d) + c >= 0 for w, c in system)

    def heft_of(d):
        return sum(h * x for h, x in zip(heft, d))

    improved = True
    while improved:
        improved = False
        for j in range(p):
            for step in (-1, 1):
                trial = list(delta)
                trial[j] += step
                if heft_of(trial) < heft_of(delta) and feasible(trial):
                    delta = trial
                    improved = True
                    break
    return tuple(delta)


def find_ample(cox, functionals=None):
    """An integer class pairing >= 1 with every wall curve, pushed to low
    heft by coordinate descent.  Raises NotProjective if none exists."""
    if functionals is None:
        functionals = curve_functionals(cox)
    p = cox.ring.pic_rank
    if p == 0:
        raise NotProjective("trivial Picard lattice")
    system = [(w, Fraction(-1)) for w in functionals]
    point = linalg.fm_feasible_point(system, p)
    if point is None:
        raise NotProjective("no class is positive on every wall curve")
    mult = 1
    for x in point:
        mult = mult * x.denominator // gcd(mult, x.denominator)
    # scaling by a positive integer preserves pairing >= 1
    delta = tuple(int(x * mult) for x in point)
    return _descend(delta, [(w, -1) for w in functionals], cox.ring.heft)


def find_alpha(degrees, cox, functionals=None):
    """Least common bound of the generator degrees: a class alpha with
    alpha - delta nef for every generator degree delta.

    Per wall functional w the constraint is w . alpha >= max_i w . delta_i;
    when the system of equalities has an integer solution that is the apex
    of the intersection of the translated nef cones and is returned.
    Otherwise the first generator degree is pushed into the feasible region
    along an ample class.
    """
    degrees = [tuple(d) for d in degrees]
    if not degrees:
        raise ValueError("need at least one generator degree")
    if functionals is None:
        functionals = curve_functionals(cox)
    targets = [max(_pairing(w, d) for d in degrees) for w in functionals]
    rows = [list(w) for w in functionals]
    apex = linalg.solve_integer(rows, targets)
    if apex is not None:
        ok = all(_pairing(w, apex) == t for w, t in zip(functionals, targets))
        if ok:
            return tuple(int(x) for x in apex)
    ample = find_ample(cox, functionals)
    base = degrees[0]
    j = max([0] + [t - _pairing(w, base)
                   for w, t in zip(functionals, targets)])
    delta = tuple(b + j * a for b, a in zip(base, ample))
    system = [(w, -t) for w, t in zip(functionals, targets)]
    return _descend(delta, system, cox.ring.heft)
