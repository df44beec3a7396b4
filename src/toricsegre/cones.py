"""Curve classes, nef checks, and the choice of the bounding divisor class.

Every interior wall (codimension-one cone) of a complete simplicial fan
carries a torus-invariant curve; its intersection numbers with the toric
divisors give an integer functional on the Picard lattice.  A class is nef
exactly when all wall functionals are nonnegative on it (Cox-Little-Schenck
6.1 and 6.3: nef means basepoint free, and the wall curves generate the
Mori cone).  The bounding class used by the residual algorithm is a class
alpha with alpha - deg g_i nef for every generator g_i; among those,
``find_alpha`` returns the one that minimizes the sum of the pairings of
alpha with the distinct wall functionals, by exact integer minimization,
with the fewest monomials of degree alpha among equal sums.  The same
minimizer with every pairing at least 1 gives the ample class of
``find_ample``.
"""

from __future__ import annotations

from operator import mul

from . import linalg
from .errors import NotProjective
from .exactpoly import monomials_of_degree


def curve_functionals(cox):
    """Deduplicated wall functionals on the Picard lattice: integer vectors
    w with w . A = c for each wall relation c (A the grading matrix), in
    wall order.  The rows of A are a Z-basis of the relation lattice, so
    each w exists (DECISIONS.md entry 23), and it is unique because the
    rows of A are independent.  With X the Cox context's right inverse,
    w = w . A . X = c . X (DECISIONS.md entry 27)."""
    cols = list(zip(*cox.right_inverse))
    return tuple(dict.fromkeys(
        tuple(sum(map(mul, c, col)) for col in cols) for c in cox.fan.walls))


def is_nef(delta, functionals):
    delta = tuple(delta)
    return all(sum(wi * di for wi, di in zip(w, delta)) >= 0
               for w in functionals)


def _pairing(w, delta):
    return sum(wi * di for wi, di in zip(w, delta))


def _least_class(functionals, targets, cox):
    """The integer class alpha with w . alpha >= t_w for every wall
    functional w that minimizes sum_w w . alpha, ties broken by the number
    of monomials of degree alpha and then by alpha itself.

    The sum pairs alpha with one wall curve per wall functional, so it is
    positive on every nonzero nef class.  When the equalities
    w . alpha = t_w have an integer solution, every feasible class exceeds
    it by a nef class, so it is the unique minimum; that cheap check comes
    first.  Otherwise a unimodular change of coordinates makes the
    objective z the last coordinate, Fourier-Motzkin projects the feasible
    set onto z, and the levels z = ceil(LP bound), +1, ... are searched for
    integer points.  Raises NotProjective when no class is positive on
    every wall curve, which is exactly when the projection bounds z from
    above or keeps a row without z.
    """
    (apex,) = linalg.solve_integer(functionals, [targets])
    if apex is not None and all(_pairing(w, apex) == t
                                for w, t in zip(functionals, targets)):
        return tuple(int(x) for x in apex)
    p = cox.ring.pic_rank
    objective = [sum(col) for col in zip(*functionals)]
    # u . objective . v = (g, 0, ..., 0) with g the gcd and u = (+-1), so
    # alpha = v . beta puts the objective / g in beta_0.  Moving that column
    # last makes it the variable Fourier-Motzkin eliminates last and the
    # search fixes first.
    _d, u, v = linalg.smith_normal_form([objective])
    v = [row[1:] + [u[0][0] * row[0]] for row in v]
    system = [(tuple(_pairing(w, col) for col in zip(*v)), -t)
              for w, t in zip(functionals, targets)]
    stages = linalg.fm_stages(system, p)
    if any(coeffs[p - 1] <= 0 for coeffs, _const in stages[p - 1]):
        raise NotProjective("no class is positive on every wall curve")
    z = max(-(const // coeffs[p - 1]) for coeffs, const in stages[p - 1])
    while True:
        found = [tuple(_pairing(row, beta) for row in v)
                 for beta in linalg.fm_integer_points(stages, (z,))]
        if found:
            if len(found) == 1:
                return found[0]
            return min(found, key=lambda a: (
                len(monomials_of_degree(a, cox.ring)), a))
        z += 1


def find_ample(cox, functionals):
    """The least integer class pairing >= 1 with every wall curve (the
    ``curve_functionals`` of ``cox``), in the order of ``find_alpha``.
    Raises NotProjective if none exists."""
    return _least_class(functionals, [1] * len(functionals), cox)


def find_alpha(degrees, cox, functionals):
    """The least common nef bound of the generator degrees: the integer
    class alpha with alpha - delta nef for every generator degree delta
    that minimizes the sum of its pairings with the wall functionals, ties
    broken by the number of monomials of degree alpha.

    Per wall functional w the constraint is w . alpha >= max_i w . delta_i.
    When these hold with equality at an integer class (the apex of the
    translated nef cones), that class is the answer.
    """
    degrees = [tuple(d) for d in degrees]
    if not degrees:
        raise ValueError("need at least one generator degree")
    targets = [max(_pairing(w, d) for d in degrees) for w in functionals]
    return _least_class(functionals, targets, cox)
