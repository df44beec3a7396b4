"""Fan data model and validation, Cox grading and chart dehomogenization.

A fan is given by its primitive ray generators and its maximal cones (index
sets).  Validation certifies smoothness (every maximal cone unimodular),
completeness (every wall relation is integral, see ``wall_relations``) and
that the cones do not overlap; ``build_cox_context`` runs it first, and
the fan keeps the verdict.  The grading matrix is the cokernel
projection of the ray matrix, computed by Smith normal form and
canonicalized by row Hermite form; the Cox context keeps one right
inverse of it, read off the grading's columns off the first maximal
cone (DECISIONS.md entry 27).  Because the rays of a validated fan
positively span the space, every grading of it has a heft (DECISIONS.md
entry 23), so no step below searches for one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import gcd, prod
from operator import mul

from . import linalg
from .errors import InvalidFan, InvalidGrading, NotComplete, NotSmooth
from .exactpoly import GrevLex, RingContext
from .groebner import Ideal


@dataclass(frozen=True)
class Fan:
    """Rays (primitive integer vectors) and maximal cones (ray index sets)."""

    rays: tuple
    max_cones: tuple

    def __post_init__(self):
        rays = tuple(tuple(int(x) for x in v) for v in self.rays)
        cones = tuple(tuple(sorted(set(c))) for c in self.max_cones)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "max_cones", cones)
        if not rays:
            raise InvalidFan("fan has no rays")
        k = len(rays[0])
        if any(len(v) != k for v in rays):
            raise InvalidFan("rays of mixed dimension")
        for v in rays:
            g = 0
            for x in v:
                g = gcd(g, abs(x))
            if g != 1:
                raise InvalidFan("ray %r is not primitive" % (v,))
        if len(set(rays)) != len(rays):
            raise InvalidFan("duplicate rays")
        for c in cones:
            if any(i < 0 or i >= len(rays) for i in c):
                raise InvalidFan("cone %r has an out-of-range ray index" % (c,))
        for a, b in itertools.combinations(cones, 2):
            if set(a) <= set(b) or set(b) <= set(a):
                raise InvalidFan("maximal cones %r and %r are comparable" % (a, b))
        covered = set().union(*map(set, cones)) if cones else set()
        if covered != set(range(len(rays))):
            raise InvalidFan("some ray appears in no maximal cone")

    @property
    def dim(self):
        return len(self.rays[0])

    @property
    def nrays(self):
        return len(self.rays)

    @cached_property
    def walls(self):
        """The wall relations, found by this fan's one validation
        (``validate_smooth_complete``); a failed one keeps nothing."""
        return _certify(self)

    def cone_complement(self, cone):
        inside = set(cone)
        return tuple(i for i in range(self.nrays) if i not in inside)

    def face_counts(self):
        """Number of p-dimensional cones for p = 0..k (simplicial fan:
        faces are the ray subsets of maximal cones)."""
        faces = set()
        for c in self.max_cones:
            for size in range(len(c) + 1):
                faces.update(itertools.combinations(c, size))
        counts = [0] * (self.dim + 1)
        for f in faces:
            counts[len(f)] += 1
        return tuple(counts)

    def minimal_non_faces(self):
        """Minimal ray subsets contained in no cone (primitive collections).

        Every proper subset of a minimal non-face is a face, so none has
        more than one ray beyond the largest cone.
        """
        cones = [set(c) for c in self.max_cones]
        largest = max(map(len, cones))
        out = []
        for size in range(1, min(largest + 1, self.nrays) + 1):
            for combo in itertools.combinations(range(self.nrays), size):
                s = set(combo)
                if any(set(nf) <= s for nf in out):
                    continue
                if not any(s <= c for c in cones):
                    out.append(combo)
        return tuple(out)


def validate_smooth_complete(fan):
    """Certify that the fan is smooth (every maximal cone has k rays and
    index 1), complete (every wall has its two cones on opposite sides,
    see ``wall_relations``) and a fan (no two maximal cones overlap).
    Raises with the offending cone or facet otherwise.

    The index check's Smith form u . B . v = I of a cone's ray rows B
    gives B^-1 = v . u: w . B^-1 are the coordinates of w on the cone's
    rays, which the walls (``wall_relations``) and the overlap check
    read.  Once every wall is two-sided, the cones cover the space off
    their codimension-2 faces equally often everywhere, so the sum p of
    the first cone's rays must lie in no other maximal cone.  The verdict
    is kept on the fan with its walls (``Fan.walls``)."""
    fan.walls  # validates the fan on the first call
    return True


def _certify(fan):
    """The checks of ``validate_smooth_complete``; returns the walls."""
    k = fan.dim
    inverses = []
    for cone in fan.max_cones:
        if len(cone) != k:
            raise NotSmooth("maximal cone %r does not have %d rays" % (cone, k),
                            cone=cone)
        d, u, v = linalg.smith_normal_form([fan.rays[i] for i in cone])
        index = prod(d[i][i] for i in range(k))
        if index != 1:
            raise NotSmooth("cone %r has index %d" % (cone, index), cone=cone)
        inverses.append([[sum(map(mul, row, col)) for row in v]
                         for col in zip(*u)])  # the columns of v . u
    walls = wall_relations(fan, inverses)
    first = fan.max_cones[0]
    p = [sum(col) for col in zip(*(fan.rays[i] for i in first))]
    for cone, cols in zip(fan.max_cones[1:], inverses[1:]):
        if all(sum(map(mul, p, col)) >= 0 for col in cols):
            raise InvalidFan("maximal cones %r and %r overlap"
                             % (first, cone), cone=cone)
    return walls


def wall_relations(fan, inverses):
    """One integer relation per wall, in sorted facet order: for a facet
    shared by maximal cones with extra rays u and u', the vector c with
    c_u = c_u' = 1 and c_i = -b_i on the facet rays, where
    u + u' = sum b_i u_i; c annihilates the ray matrix.  ``inverses``
    holds the columns of B^-1 for each maximal cone's ray rows B.

    Raises NotComplete when a facet of a maximal cone lies in one maximal
    cone or in more than two, or when the two cones lie on the same side
    of it.  On the rays of the first cone, u' = y . B with y = u' . B^-1
    and y_u = +-1 (both cones are unimodular).  The sides are opposite
    exactly when y_u = -1, and then b_i = y_i (DECISIONS.md entry 26)."""
    k = fan.dim
    facet_map = {}
    for ci, cone in enumerate(fan.max_cones):
        for facet in itertools.combinations(cone, k - 1):
            extra = next(i for i in cone if i not in facet)
            facet_map.setdefault(facet, []).append((ci, extra))
    relations = []
    for facet, hits in sorted(facet_map.items()):
        if len(hits) != 2:
            raise NotComplete(
                "facet %r belongs to %d maximal cones" % (facet, len(hits)),
                facet=facet)
        (ci, u), (cj, up) = hits
        c = [0] * fan.nrays
        c[up] = 1
        for i, col in zip(fan.max_cones[ci], inverses[ci]):
            c[i] = -sum(map(mul, fan.rays[up], col))
        if c[u] != 1:
            raise NotComplete(
                "cones %r and %r do not lie on opposite sides of facet %r"
                % (fan.max_cones[ci], fan.max_cones[cj], facet),
                facet=facet)
        relations.append(tuple(c))
    return tuple(relations)


def grading_matrix(fan):
    """Canonical cokernel projection of the ray matrix: an (r-k) x r
    integer matrix A with A . rays^T = 0, surjective onto Z^(r-k), in row
    Hermite normal form."""
    r, k = fan.nrays, fan.dim
    ray_matrix = [list(v) for v in fan.rays]  # r x k, rows are rays
    d, u, _v = linalg.smith_normal_form(ray_matrix)
    for i in range(k):
        if d[i][i] != 1:
            raise NotSmooth(
                "ray matrix has invariant factor %d (torsion cokernel)"
                % d[i][i])
    a = [u[i] for i in range(k, r)]
    a, _ = linalg.row_hermite(a)
    return tuple(tuple(row) for row in a)


def _right_inverse(fan, a):
    """The right inverse X of a grading ``a`` (a . X = I) that is zero on
    the rows of the first maximal cone, or None when there is none of
    that form.

    The columns of ``a`` off that cone form a square block, and X is the
    inverse P of that block spread onto the rows off the cone.  A grading
    of a validated fan has a unimodular block exactly when it spans the
    Picard lattice (DECISIONS.md entry 27), so one row Hermite form
    U . block = H decides: a square integer matrix is unimodular exactly
    when its Hermite form is I, and then P = U."""
    off = fan.cone_complement(fan.max_cones[0])
    n = len(a)
    h, p = linalg.row_hermite([[row[i] for i in off] for row in a])
    if h != [[int(i == j) for j in range(n)] for i in range(n)]:
        return None
    x = [(0,) * n] * fan.nrays
    for i, row in zip(off, p):
        x[i] = tuple(row)
    return tuple(x)


def validate_degree_matrix(fan, degrees):
    """Check a user-supplied degree matrix: right shape, annihilates the
    rays, and generates the same integer row space as the canonical one.
    Returns the matrix and its ``_right_inverse``.

    A row that annihilates the rays is already an integer combination of
    the canonical rows (DECISIONS.md entry 26), so the rows span the
    lattice exactly when the block off the first maximal cone is
    unimodular (entry 27), which ``_right_inverse`` decides."""
    r, k = fan.nrays, fan.dim
    a = tuple(tuple(int(x) for x in row) for row in degrees)
    if len(a) != r - k or any(len(row) != r for row in a):
        raise InvalidGrading("degree matrix must be %d x %d" % (r - k, r))
    for j in range(k):
        for row in a:
            if sum(row[i] * fan.rays[i][j] for i in range(r)) != 0:
                raise InvalidGrading(
                    "degree matrix does not annihilate the ray matrix")
    x = _right_inverse(fan, a)
    if x is None:
        raise InvalidGrading("degree rows do not span the Picard lattice")
    return a, x


@dataclass(frozen=True)
class CoxContext:
    """Ring context of the Cox ring together with the fan, and the
    right inverse X of the grading A (A . X = I, see ``_right_inverse``):
    X . delta lifts a Picard class delta to a divisor, and c . X is the
    functional w with w . A = c of a ray relation c."""

    ring: RingContext
    fan: Fan
    right_inverse: tuple

    @property
    def nvars(self):
        return self.ring.nvars


def build_cox_context(fan, names=None, degrees=None):
    """Cox ring of the fan: ``validate_smooth_complete`` first, then the
    variable names, then the grading, canonical or user-supplied after
    ``validate_degree_matrix``, with its right inverse."""
    validate_smooth_complete(fan)
    r = fan.nrays
    if names is None:
        names = tuple("z%d" % i for i in range(r))
    else:
        names = tuple(names)
        if len(names) != r:
            raise InvalidFan("need one variable name per ray")
        if len(set(names)) != r:
            raise InvalidFan("duplicate variable names")
    if degrees is None:
        a = grading_matrix(fan)
        x = _right_inverse(fan, a)
    else:
        a, x = validate_degree_matrix(fan, degrees)
    return CoxContext(ring=RingContext(names=names, grading=a), fan=fan,
                      right_inverse=x)


def chart_dehomogenize(gens, cox, prime=None):
    """The ideals of the Cox-ring polynomials ``gens`` on the charts of the
    maximal cones, in cone order: every off-chart variable is set to 1,
    and the ring of a chart has the rays of its cone as variables, in
    index order, ordered by grevlex.  Their bases are over GF(``prime``),
    or over Z when ``prime`` is None."""
    names, fan = cox.ring.names, cox.fan
    out = []
    for cone in fan.max_cones:
        off = fan.cone_complement(cone)
        out.append(Ideal.create([g.set_to_one(off) for g in gens],
                                [names[i] for i in cone],
                                GrevLex(range(len(cone))), prime))
    return tuple(out)
