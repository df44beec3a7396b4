"""Groebner basis engine: Buchberger with the Gebauer-Moller pair criteria,
normal forms, elimination, saturation, Krull dimension and vector-space
dimension of Artinian quotients.

Coefficients are integers throughout.  The engine works directly on the
coefficient dicts of :class:`exactpoly.Polynomial` values (exponent tuple ->
int): Buchberger runs fraction-free and keeps basis elements primitive
(content 1, positive leading coefficient), and normal forms are exact
integer reductions by the basis scaled to monic leads.  A reduction keys
each term once by ``order.key`` (ascending keys list the leading monomial
first) and pops its leads from a heap, so remainders come out in
decreasing order; a basis stores its leads.

Saturation is one elimination with a new variable y_i per generator g_i
of J:  (I : J^inf) = (I + (1 - y_1*g_1 - ... - y_m*g_m)) meet k[x].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from math import gcd

from .errors import NonIntegerCoefficient, NotHomogeneous, NotZeroDimensional
from .exactpoly import (BlockOrder, GrevLex, Polynomial, RingContext,
                        multidegree_of)

# --- coefficient-dict helpers (exponent tuple -> int) ----------------------

def _content(p):
    g = 0
    for c in p.values():
        g = gcd(g, abs(c))
        if g == 1:
            return 1
    return g


def _primitive(p, lead):
    """p divided by its content, with a positive coefficient at ``lead``."""
    if not p:
        return p
    g = _content(p)
    if p[lead] < 0:
        g = -g
    if g == 1:
        return p
    return {m: c // g for m, c in p.items()}


def _monomial_lcm(a, b):
    return tuple(map(max, a, b))


def _monomial_divides(a, b):
    """Whether a divides b."""
    return all(x <= y for x, y in zip(a, b))


def _monomial_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _shift(p, m):
    return {_monomial_mul(mm, m): c for mm, c in p.items()}


def _spoly(f, lf, g, lg, order):
    l = _monomial_lcm(lf, lg)
    cf, cg = f[lf], g[lg]
    d = gcd(cf, cg)
    a, b = cg // d, cf // d
    out = {}
    for m, c in _shift(f, tuple(x - y for x, y in zip(l, lf))).items():
        out[m] = a * c
    for m, c in _shift(g, tuple(x - y for x, y in zip(l, lg))).items():
        s = out.get(m, 0) - b * c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _subtract_tail(num, heap, key, m, lm, q, b):
    """num -= b * (m / lm) * (q minus its lead term), the step that cancels
    the popped term at m.  A monomial new to num goes on the heap with its
    key; a cancelled one leaves num, and its heap entry is skipped."""
    shift = tuple(x - y for x, y in zip(m, lm))
    for mm, cc in q.items():
        if mm == lm:
            continue
        mm2 = _monomial_mul(mm, shift)
        old = num.get(mm2)
        if old is None:
            num[mm2] = -b * cc
            heappush(heap, (key(mm2), mm2))
        else:
            s = old - b * cc
            if s:
                num[mm2] = s
            else:
                del num[mm2]


def _reduce(p, reducers, order):
    """Full fraction-free reduction of p modulo the reducers, given as
    (lead, poly, lead coefficient) in ascending-lead order.

    Returns the primitive remainder: a rational multiple of the exact
    normal form, which is all Buchberger needs.  Its terms come in
    decreasing order, so its first monomial is its lead.
    """
    key = order.key
    num = dict(p)
    # the live terms, keyed once each: pops come leading-first
    heap = [(key(m), m) for m in num]
    heapify(heap)
    res = {}
    steps = 0
    while heap:
        m = heappop(heap)[1]
        c = num.pop(m, 0)
        if not c:
            continue
        for lm, q, lc in reducers:
            if _monomial_divides(lm, m):
                break
        else:
            res[m] = c
            continue
        d = gcd(c, lc)
        a, b = lc // d, c // d
        if a != 1:
            for k in num:
                num[k] *= a
            for k in res:
                res[k] *= a
        _subtract_tail(num, heap, key, m, lm, q, b)
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
    return _primitive(res, next(iter(res))) if res else res


def _buchberger(gens, order, known=()):
    """Reduced Groebner basis of the ideal generated by ``known`` and
    ``gens``, as a list of (lead monomial, element) sorted by decreasing
    lead.

    Classic Buchberger with the Gebauer-Moller update (criteria M, F and
    B_k) and normal pair selection, after Becker-Weispfenning.  ``known``
    is a reduced basis for ``order`` as (lead, element) pairs.  The S-pair
    of two known elements reduces to zero, so it is never queued; it
    still counts in the criteria that prune the other pairs.
    """
    key = order.key
    # (lead, element, whether it is known)
    f = [(lm, p, True) for lm, p in known]
    seen = {frozenset(p.items()) for _lm, p in known}
    for p in gens:
        if p:
            lm = min(p, key=key)
            p = _primitive(dict(p), lm)
            fs = frozenset(p.items())
            if fs not in seen:
                seen.add(fs)
                f.append((lm, p, False))
    if len(f) == len(known):
        return list(known)
    f.sort(key=lambda t: key(t[0]))
    lms = [lm for lm, _p, _k in f]
    is_known = [k for _lm, _p, k in f]
    f = [p for _lm, p, _k in f]

    def lcm_ij(i, j):
        return _monomial_lcm(lms[i], lms[j])

    def disjoint(i, j):
        return all(a == 0 or b == 0 for a, b in zip(lms[i], lms[j]))

    def update(G, B, ih):
        # Gebauer-Moller: prune the new pairs {(ih, g)} and the old ones
        mh = lms[ih]
        C = {(ih, g) for g in G}
        D = set()
        while C:
            pair = C.pop()
            g = pair[1]
            lcm_hg = lcm_ij(ih, g)
            if disjoint(ih, g):
                D.add(pair)
                continue
            if not any(_monomial_divides(lcm_ij(ih, r[1]), lcm_hg)
                       for r in itertools.chain(C, D)):
                D.add(pair)
        E = {pair for pair in D if not disjoint(ih, pair[1])}
        if is_known[ih]:
            E = {pair for pair in E if not is_known[pair[1]]}
        B_new = set()
        for (i1, i2) in B:
            lcm12 = lcm_ij(i1, i2)
            if (not _monomial_divides(mh, lcm12)
                    or lcm_ij(i1, ih) == lcm12
                    or lcm_ij(i2, ih) == lcm12):
                B_new.add((i1, i2))
        B_new |= E
        G_new = {g for g in G if not _monomial_divides(mh, lms[g])}
        G_new.add(ih)
        return G_new, B_new

    G, B = set(), set()
    for i in range(len(f)):
        G, B = update(G, B, i)

    while B:
        i, j = max(B, key=lambda p: key(lcm_ij(p[0], p[1])))
        B.remove((i, j))
        s = _spoly(f[i], lms[i], f[j], lms[j], order)
        reducers = sorted(((lms[g], f[g], f[g][lms[g]]) for g in G),
                          key=lambda t: key(t[0]), reverse=True)
        h = _reduce(s, reducers, order)
        if h:
            f.append(h)
            lms.append(next(iter(h)))
            is_known.append(False)
            G, B = update(G, B, len(f) - 1)

    # tail-reduce to the unique reduced basis; a lead of G divides no
    # other, so each element keeps its lead
    ordered = sorted(G, key=lambda g: key(lms[g]))
    reducers = [(lms[g], f[g], f[g][lms[g]]) for g in reversed(ordered)]
    return [(lms[g], _reduce(f[g], [t for t in reducers if t[0] != lms[g]],
                             order))
            for g in ordered]


# --- public types ----------------------------------------------------------

@dataclass(frozen=True)
class MultigradedIdeal:
    """An ideal given by multihomogeneous generators in a graded ring.

    For an ungraded (affine chart) context the degrees are all the empty
    tuple and every nonzero polynomial counts as homogeneous.  ``known``
    is set only by ``GroebnerBasis.extend``: a reduced basis whose elements
    are the first generators.
    """

    generators: tuple
    ctx: RingContext
    degrees: tuple
    known: object = field(default=None, compare=False, repr=False)
    _cache: dict = field(default_factory=dict, compare=False, repr=False,
                         hash=False)

    @classmethod
    def create(cls, gens, ctx, split=False):
        """Build an ideal, dropping zero generators.

        With ``split`` non-homogeneous generators are replaced by their
        multihomogeneous components (only valid when the ideal itself is
        known to be graded, e.g. output of a saturation); otherwise a
        non-homogeneous generator raises.
        """
        flat = []
        degs = []
        for g in gens:
            if g.is_zero():
                continue
            try:
                degs.append(multidegree_of(g, ctx))
                flat.append(g)
            except NotHomogeneous:
                if not split:
                    raise
                parts = {}
                for m, c in g.coeffs.items():
                    d = tuple(sum(row[i] * m[i] for i in range(len(m)))
                              for row in ctx.grading)
                    parts.setdefault(d, {})[m] = c
                for d, sub in parts.items():
                    flat.append(Polynomial(ctx.nvars, sub))
                    degs.append(d)
        return cls(generators=tuple(flat), ctx=ctx, degrees=tuple(degs))

    def is_zero(self):
        return not self.generators

    def default_order(self):
        return GrevLex(self.ctx.weights)


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis; elements are primitive integer polynomials
    with positive leading coefficients, sorted by decreasing lead, and
    ``leads`` holds their lead monomials."""

    elements: tuple
    leads: tuple
    order: object
    ctx: RingContext

    def extend(self, gens):
        """The ideal of these elements and ``gens``.  Its basis for this
        order is computed from this one: Buchberger queues no S-pair of
        two of these elements.

        The elements of a reduced basis of a graded ideal are homogeneous,
        so each takes the degree of its lead; only ``gens`` are checked."""
        gens = tuple(g for g in gens if not g.is_zero())
        grading = self.ctx.grading
        degs = tuple(tuple(sum(w * e for w, e in zip(row, lm))
                           for row in grading) for lm in self.leads)
        return MultigradedIdeal(
            generators=self.elements + gens, ctx=self.ctx,
            degrees=degs + tuple(multidegree_of(g, self.ctx) for g in gens),
            known=self)


def _store(I, order, basis):
    """Cache ``basis``, a list of (lead, element) pairs, as the reduced
    basis of ``I`` for ``order``, and return it."""
    gb = GroebnerBasis(
        elements=tuple(Polynomial(I.ctx.nvars, p) for _lm, p in basis),
        leads=tuple(lm for lm, _p in basis), order=order, ctx=I.ctx)
    # the repr of an order names every field that defines it
    I._cache[repr(order)] = gb
    return gb


def groebner_basis(I, order=None):
    """Reduced Groebner basis of ``I`` for the given (default grevlex)
    monomial order."""
    if order is None:
        order = I.default_order()
    hit = I._cache.get(repr(order))
    if hit is not None:
        return hit
    gens, known = I.generators, ()
    if I.known is not None and repr(I.known.order) == repr(order):
        gens = gens[len(I.known.elements):]
        known = list(zip(I.known.leads,
                         [g.coeffs for g in I.known.elements]))
    return _store(I, order,
                  _buchberger([g.coeffs for g in gens], order, known))


def normal_form(f, G):
    """Unique remainder of ``f`` on division by the reduced basis ``G``
    with its leads made monic, computed in integers.

    Raises NonIntegerCoefficient when a lead coefficient of ``G`` does not
    divide the coefficient it has to cancel.
    """
    key = G.order.key
    # the elements in ascending-lead order; the first whose lead divides
    # reduces
    reducers = [(lm, g.coeffs)
                for lm, g in zip(reversed(G.leads), reversed(G.elements))]
    num = dict(f.coeffs)
    heap = [(key(m), m) for m in num]
    heapify(heap)
    res = {}
    while heap:
        m = heappop(heap)[1]
        c = num.pop(m, 0)
        if not c:
            continue
        for lm, q in reducers:
            if _monomial_divides(lm, m):
                break
        else:
            res[m] = c
            continue
        b, rest = divmod(c, q[lm])
        if rest:
            raise NonIntegerCoefficient(
                "lead coefficient %d does not divide %d" % (q[lm], c))
        _subtract_tail(num, heap, key, m, lm, q, b)
    return Polynomial(f.nvars, res)


def _ideal_from_raw(raw, ctx):
    gens = [Polynomial(ctx.nvars, p) for p in raw if p]
    return MultigradedIdeal.create(gens, ctx, split=bool(ctx.grading))


# --- elimination, saturation ----------------------------------------------

def _eliminate_extra_raw(raw, base_weights, n_extra):
    """Raw polynomials live in nvars+n_extra variables (extras trailing);
    eliminate the extras and project back to the base ring.

    The result is the reduced basis of the elimination ideal for grevlex
    on the base ring (the rest block of the elimination order), each
    element's terms in decreasing order."""
    r = len(base_weights)
    weights = tuple(base_weights) + (1,) * n_extra
    order = BlockOrder(range(r, r + n_extra), weights)
    out = []
    for _lm, p in _buchberger(raw, order):
        if all(all(m[r + i] == 0 for i in range(n_extra)) for m in p):
            out.append({m[:r]: c for m, c in p.items()})
    return out


def saturate_ideal(I, J):
    """(I : J^inf) for J = (g_1, ..., g_m), as the one elimination
    (I + (1 - y_1*g_1 - ... - y_m*g_m)) meet k[x].

    The eliminated basis is the result's reduced basis for its default
    order, so it goes into the result's cache."""
    if J.is_zero():
        raise ValueError("cannot saturate by the zero ideal")
    raws = [g.coeffs for g in J.generators]
    if any(max(sum(m) for m in p) == 0 for p in raws):
        return I  # J is the unit ideal
    n = len(raws)
    pad = (0,) * n
    ext = [{m + pad: c for m, c in g.coeffs.items()} for g in I.generators]
    rab = {(0,) * I.ctx.nvars + pad: 1}
    for i, p in enumerate(raws):
        tag = pad[:i] + (1,) + pad[i + 1:]
        for m, c in p.items():
            rab[m + tag] = -c
    ext.append(rab)
    raw = _eliminate_extra_raw(ext, I.ctx.weights, n)
    S = _ideal_from_raw(raw, I.ctx)
    _store(S, S.default_order(), [(next(iter(p)), p) for p in raw])
    return S


# --- dimensions ------------------------------------------------------------

def krull_dimension(I):
    """Krull dimension of the affine quotient ring, or None for the unit
    ideal.  Combinatorial: largest variable subset meeting no lead-term
    support."""
    G = groebner_basis(I)
    if not G.elements:
        return I.ctx.nvars
    lms = G.leads
    if any(max(m) == 0 for m in lms):
        return None
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in lms]
    r = I.ctx.nvars
    best = 0
    for size in range(r, 0, -1):
        if size <= best:
            break
        for combo in itertools.combinations(range(r), size):
            s = set(combo)
            if not any(sup <= s for sup in supports):
                best = size
                break
    return best


def vector_space_dimension(I):
    """Number of standard monomials (length of the Artinian quotient).

    The standard monomials are closed under division, so each is reached
    from 1 by raising its exponents in variable order: a depth-first walk
    that raises only the last variable raised or a later one meets each
    once, and stops at every monomial a lead divides.  The walk tests at
    most nvars times as many monomials as it counts."""
    G = groebner_basis(I)
    lms = G.leads
    if any(max(m) == 0 for m in lms):
        return 0
    r = I.ctx.nvars
    for i in range(r):
        if not any(all(e == 0 for j, e in enumerate(m) if j != i)
                   for m in lms):
            raise NotZeroDimensional(
                "variable %s is not nilpotent modulo the lead-term ideal"
                % I.ctx.names[i])
    count = 0
    stack = [((0,) * r, 0)]
    while stack:
        m, first = stack.pop()
        count += 1
        for i in range(first, r):
            e = m[:i] + (m[i] + 1,) + m[i + 1:]
            if not any(_monomial_divides(lm, e) for lm in lms):
                stack.append((e, i))
    return count
