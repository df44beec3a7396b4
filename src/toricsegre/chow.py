"""Integral Chow ring of a smooth complete toric variety.

Presented as Z[D_1..D_r] modulo the Stanley-Reisner ideal (one squarefree
monomial per minimal non-face of the fan) and the linear relations coming
from the ambient lattice.  Classes are kept as polynomials in normal form
with respect to a fixed Groebner basis; a per-codimension standard-monomial
basis is extracted and cross-checked against the combinatorial rank
formula, and the degree map is normalized so that every torus-fixed point
has degree one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from operator import le

from . import linalg
from .errors import (CodimOverflow, NormalizationInconsistent, NotHomogeneous,
                     RankMismatch, TooLarge)
from .exactpoly import GrevLex, Polynomial, monomials_of_total_degree
from .groebner import Ideal, groebner_basis, normal_form


# The most monomial orders ``build_chow_ring`` tries.  Each costs one
# Groebner basis; the library fans need one order, F2 and F3 two.
MAX_CHOW_ORDERS = 24


def chow_ranks(fan):
    """Ranks of the graded pieces of the Chow ring from the face counts:
    h_i = sum_{j=i}^{k} (-1)^(j-i) C(j,i) d_{k-j} where d_m counts the
    m-dimensional cones."""
    k = fan.dim
    d = fan.face_counts()
    return tuple(sum((-1) ** (j - i) * comb(j, i) * d[k - j]
                     for j in range(i, k + 1))
                 for i in range(k + 1))


@dataclass(frozen=True)
class ChowRing:
    """Chow ring with a fixed normal-form presentation.

    ``bases[p]`` lists the standard monomials of codimension p; ``top`` is
    the unique codimension-k standard monomial and ``sign`` the common
    value of NF(product of the divisors of a maximal cone) / top, so that
    degree(c) = sign * coefficient of top in NF(c).
    """

    cox: object
    names: tuple
    gb: object
    bases: tuple
    top: tuple
    sign: int

    @property
    def dim(self):
        return self.cox.fan.dim

    @property
    def nvars(self):
        return len(self.names)

    def zero(self):
        return Polynomial.zero(self.nvars)

    def one(self):
        return Polynomial.constant(self.nvars, 1)

    def divisor(self, i):
        """Class of the toric divisor of ray ``i``, in normal form."""
        return self.reduce(Polynomial.variable(self.nvars, i))

    def reduce(self, f):
        return normal_form(f, self.gb)

    def codim_of(self, c):
        """Common total degree of the terms of a class in normal form;
        0 for the zero class."""
        if c.is_zero():
            return 0
        degs = {sum(m) for m in c.coeffs}
        if len(degs) != 1:
            raise NotHomogeneous("class mixes codimensions %r" % sorted(degs))
        return degs.pop()

    def multiply(self, a, b):
        """Intersection product; raises if nonzero classes land above the
        ambient dimension."""
        if a.is_zero() or b.is_zero():
            return self.zero()
        ca, cb = self.codim_of(a), self.codim_of(b)
        if ca + cb > self.dim:
            raise CodimOverflow(
                "product of codimensions %d and %d exceeds dimension %d"
                % (ca, cb, self.dim))
        return self.reduce(a * b)

    def power(self, a, n):
        out = self.one()
        for _ in range(n):
            out = self.multiply(out, a)
        return out

    def degree(self, c):
        """Degree of a codimension-k class."""
        c = self.reduce(c)
        if c.is_zero():
            return 0
        if self.codim_of(c) != self.dim:
            raise CodimOverflow(
                "degree is defined for codimension-%d classes only" % self.dim)
        return c.coeffs.get(self.top, 0) * self.sign

    def pic_to_chow(self, delta):
        """Divisor class with the given Picard multidegree, via an integer
        lift through the grading matrix.  One always exists: the grading maps
        Z^r onto the Picard lattice (DECISIONS.md entry 23)."""
        (lift,) = linalg.solve_integer(self.cox.ring.grading, [delta])
        out = self.zero()
        for i, c in enumerate(lift):
            if c:
                out = out + Polynomial.variable(self.nvars, i) * c
        return self.reduce(out)

    def coefficients_on_basis(self, c, p=None):
        """Coefficients of a normal-form class on the standard-monomial
        basis of its codimension."""
        c = self.reduce(c)
        if c.is_zero():
            if p is None:
                return ()
            return (0,) * len(self.bases[p])
        if p is None:
            p = self.codim_of(c)
        return tuple(c.coeffs.get(m, 0) for m in self.bases[p])

    def class_from_coefficients(self, coeffs, p):
        return Polynomial(self.nvars, dict(zip(self.bases[p], coeffs)))

    def format_class(self, c):
        return self.reduce(c).format(self.names)


def build_chow_ring(cox):
    """Chow ring of the (validated) toric variety of ``cox``.

    The ideal's generators are built once: the Stanley-Reisner monomials
    plus the k raw linear relations sum_i <e_l, u_i> D_i, and each order
    tried makes its ideal from them.  Its reduced Groebner basis for an
    order is unique, so it does not matter which basis of M spans the
    relations; with the divisors of a maximal cone greatest (its ray
    submatrix is unimodular) the basis holds their solved forms, with unit
    leads.  Whether the surviving standard monomials form an integral
    basis depends on the tie-break order among the remaining divisors, so
    pivot cones and orders are tried until the rank check, monic leads (so
    normal forms stay integral) and the point-class normalization (every
    maximal cone reduces to +- the top monomial, with one common sign) all
    pass.  Past ``MAX_CHOW_ORDERS`` orders it raises TooLarge.
    """
    fan = cox.fan
    r, k = fan.nrays, fan.dim
    gens = [Polynomial.from_monomial(tuple(int(i in nf) for i in range(r)))
            for nf in fan.minimal_non_faces()]
    for l in range(k):
        gens.append(Polynomial(r, {tuple(int(j == i) for j in range(r)): u[l]
                                   for i, u in enumerate(fan.rays)}))
    names = tuple("D%s" % n for n in cox.ring.names)
    last_error = None
    tried = 0
    for pivot_cone in fan.max_cones:
        rest = fan.cone_complement(pivot_cone)
        for rest_perm in itertools.permutations(rest):
            if tried == MAX_CHOW_ORDERS:
                raise TooLarge(
                    "no integral Chow presentation in the first %d monomial "
                    "orders; last: %s" % (tried, last_error), orders=tried)
            tried += 1
            order = GrevLex(tuple(pivot_cone) + rest_perm)
            try:
                return _assemble(cox, Ideal.create(gens, names, order))
            except (RankMismatch, NormalizationInconsistent) as exc:
                last_error = exc
    raise last_error


def _assemble(cox, ideal):
    fan = cox.fan
    r, k = fan.nrays, fan.dim
    names = ideal.names
    gb = groebner_basis(ideal)
    leads = gb.leads

    def is_standard(m):
        return not any(all(map(le, lead, m)) for lead in leads)

    bases = []
    for p in range(k + 2):
        bases.append(tuple(m for m in monomials_of_total_degree(r, p)
                           if is_standard(m)))
    ranks = chow_ranks(fan)
    for p in range(k + 1):
        if len(bases[p]) != ranks[p]:
            raise RankMismatch(
                "codimension %d has %d standard monomials, expected %d"
                % (p, len(bases[p]), ranks[p]),
                codim=p, got=len(bases[p]), expected=ranks[p])
    if bases[k + 1]:
        raise RankMismatch("standard monomials above the ambient dimension",
                           codim=k + 1, got=len(bases[k + 1]), expected=0)
    for g, lead in zip(gb.elements, leads):
        if g.coeffs[lead] != 1:
            raise NormalizationInconsistent(
                "basis element %s has a non-monic lead term"
                % g.format(names))
    top = bases[k][0]
    sign = None
    for cone in fan.max_cones:
        e = [0] * r
        for i in cone:
            e[i] = 1
        nf = normal_form(Polynomial.from_monomial(tuple(e)), gb)
        lam = nf.coeffs.get(top, 0)
        if set(nf.coeffs) != {top} or lam not in (1, -1):
            raise NormalizationInconsistent(
                "point class of cone %r reduced to %s, not +-(top monomial)"
                % (cone, nf.format(names)), cone=cone)
        if sign is None:
            sign = lam
        elif sign != lam:
            raise NormalizationInconsistent(
                "cone %r gives point class sign %d, earlier cones gave %d"
                % (cone, lam, sign), cone=cone)
    return ChowRing(cox=cox, names=names, gb=gb, bases=tuple(bases[:k + 1]),
                    top=top, sign=sign)

