"""Fan data model and validation, Cox grading and chart dehomogenization.

A fan is given by its primitive ray generators and its maximal cones (index
sets).  Validation certifies smoothness (every maximal cone unimodular),
completeness (every wall relation is integral, see ``wall_relations``) and
that the cones do not overlap; ``build_cox_context`` runs it first, and
the fan keeps the verdict.  The grading matrix is the cokernel
projection of the ray matrix, computed by Smith normal form and
canonicalized by row Hermite form.  Because the rays of a validated fan
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
        """``wall_relations`` of this fan, walked once."""
        return wall_relations(self)

    @cached_property
    def validated(self):
        """True once ``validate_smooth_complete`` has passed on this fan,
        so that it runs once; a failed validation keeps nothing."""
        return _certify(self)

    def cone_complement(self, cone):
        return tuple(i for i in range(self.nrays) if i not in set(cone))

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

    Once every wall is two-sided, the cones cover the space off their
    codimension-2 faces the same number of times everywhere, so one point
    inside the first cone decides whether they cover it once: the sum p of
    its rays must lie in no other maximal cone.  The coordinates of p on a
    cone's rays are p . B^-1 = p . v . u, from the Smith form u . B . v = I
    of the cone's ray rows B that the index check computes.

    The verdict is kept on the fan (``Fan.validated``), so a second call
    on the same fan costs nothing."""
    return fan.validated


def _certify(fan):
    """The checks of ``validate_smooth_complete``."""
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
        inverses.append((u, v))
    fan.walls  # raises NotComplete unless every wall relation is integral
    first = fan.max_cones[0]
    p = [sum(col) for col in zip(*(fan.rays[i] for i in first))]
    for cone, (u, v) in zip(fan.max_cones[1:], inverses[1:]):
        pv = [sum(map(mul, p, col)) for col in zip(*v)]
        if all(sum(map(mul, pv, col)) >= 0 for col in zip(*u)):
            raise InvalidFan("maximal cones %r and %r overlap"
                             % (first, cone), cone=cone)
    return True


def wall_relations(fan):
    """One integer relation per wall, in sorted facet order: for a facet
    shared by maximal cones with extra rays u and u', the vector c with
    c_u = c_u' = 1 and c_i = -b_i on the facet rays, where
    u + u' = sum b_i u_i; c annihilates the ray matrix.

    Raises NotComplete when a facet of a maximal cone lies in one maximal
    cone or in more than two, or when u + u' is no integer combination of
    the facet rays.  For unimodular cones the latter is exactly "the two
    cones lie on the same side of the facet": u' = a u + (facet rays) with
    a = +-1, and a = -1 means opposite sides (DECISIONS.md entry 15)."""
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
        target = [a + b for a, b in zip(fan.rays[u], fan.rays[up])]
        cols = [[fan.rays[i][j] for i in facet] for j in range(k)]
        (b,) = linalg.solve_integer(cols, [target])
        if b is None:
            raise NotComplete(
                "cones %r and %r do not lie on opposite sides of facet %r"
                % (fan.max_cones[ci], fan.max_cones[cj], facet),
                facet=facet)
        c = [0] * fan.nrays
        c[u] += 1
        c[up] += 1
        for i, bi in zip(facet, b):
            c[i] -= bi
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



def validate_degree_matrix(fan, degrees):
    """Check a user-supplied degree matrix: right shape, annihilates the
    rays, and generates the same integer row space as the canonical one."""
    r, k = fan.nrays, fan.dim
    a = tuple(tuple(int(x) for x in row) for row in degrees)
    if len(a) != r - k or any(len(row) != r for row in a):
        raise InvalidGrading("degree matrix must be %d x %d" % (r - k, r))
    for j in range(k):
        for row in a:
            if sum(row[i] * fan.rays[i][j] for i in range(r)) != 0:
                raise InvalidGrading(
                    "degree matrix does not annihilate the ray matrix")
    canonical = grading_matrix(fan)
    if not all(linalg.in_integer_row_span(canonical, row) for row in a):
        raise InvalidGrading("degree rows are not integral Picard classes")
    if not all(linalg.in_integer_row_span(a, row) for row in canonical):
        raise InvalidGrading("degree rows do not span the Picard lattice")
    return a


@dataclass(frozen=True)
class CoxContext:
    """Ring context of the Cox ring together with the fan."""

    ring: RingContext
    fan: Fan

    @property
    def nvars(self):
        return self.ring.nvars


def build_cox_context(fan, names=None, degrees=None):
    """Cox ring of the fan: ``validate_smooth_complete`` first, then the
    variable names, then the grading, canonical or user-supplied after
    ``validate_degree_matrix``."""
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
    else:
        a = validate_degree_matrix(fan, degrees)
    return CoxContext(ring=RingContext(names=names, grading=a), fan=fan)


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
