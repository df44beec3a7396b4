"""Groebner basis engine: Buchberger with the Gebauer-Moller pair criteria,
normal forms, elimination, saturation, Krull dimension and vector-space
dimension of Artinian quotients.

The engine works directly on the coefficient dicts of
:class:`exactpoly.Polynomial` values (exponent tuple -> int), over Z or
over GF(p) for a prime p.  Over Z, Buchberger runs fraction-free and keeps
basis elements primitive (content 1, positive leading coefficient), and
normal forms are exact integer reductions by the basis scaled to monic
leads.  Over GF(p) the same pair loop runs a monic kernel: coefficients
live in [0, p), every element has lead coefficient 1, and no gcd or
rescaling runs.  An ideal carries the prime of its basis, or None for an
integer basis; ``Ideal.extend`` and ``saturate_ideal`` keep it, and
``normal_form`` reads integer bases only (DECISIONS.md entry 22).  A
reduction keys each term once by ``order.key`` (ascending keys list the
leading monomial first) and pops its leads from a heap, so remainders come
out in decreasing order; a basis stores its leads.

Exponent tuples are combined by builtins mapped over them, so the loop
over exponents runs in C: a product or shift is ``tuple(map(add, m,
shift))`` with the shift ``tuple(map(sub, l, lm))`` built once per call,
divisibility is ``all(map(le, lm, m))``, written inline in the reducer
scans, and disjoint leads are ``not any(map(mul, a, b))`` (DECISIONS.md
entry 21).  The two kernels of pair selection, which runs once per
queued pair at every step, take one pass each: an lcm is one list
comprehension, and a ``GrevLex`` key takes its exponents by one
``itemgetter`` call; ``BlockOrder.key`` still maps ``e.__getitem__``
(DECISIONS.md entry 25).

An ideal is its generators, its variable names and one monomial order,
and it holds its one reduced basis for that order.  The basis is computed
where the ideal is made: ``Ideal.extend`` from the basis it extends,
``saturate_ideal`` from its elimination, and ``groebner_basis`` on the
first query of any other ideal.

Saturation is one elimination with a new variable y_i per generator g_i
of J:  (I : J^inf) = (I + (1 - y_1*g_1 - ... - y_m*g_m)) meet k[x].

The engine reads no grading: its orders are plain grevlex and grevlex
blocks, and its ideals carry no degrees (DECISIONS.md entry 18).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from math import gcd
from operator import add, le, mul, sub

from .errors import NonIntegerCoefficient, NotZeroDimensional
from .exactpoly import BlockOrder, GrevLex, Polynomial

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


def _monic(p, lead, prime):
    """p, its coefficients in [1, prime), scaled mod ``prime`` to lead
    coefficient 1."""
    inv = pow(p[lead], -1, prime)
    if inv == 1:
        return p
    return {m: c * inv % prime for m, c in p.items()}


def _monomial_lcm(a, b):
    return tuple([x if x > y else y for x, y in zip(a, b)])


def _spoly(f, lf, g, lg):
    l = _monomial_lcm(lf, lg)
    cf, cg = f[lf], g[lg]
    d = gcd(cf, cg)
    a, b = cg // d, cf // d
    shift = tuple(map(sub, l, lf))
    out = {tuple(map(add, m, shift)): a * c for m, c in f.items()}
    shift = tuple(map(sub, l, lg))
    for m, c in g.items():
        m = tuple(map(add, m, shift))
        s = out.get(m, 0) - b * c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _spoly_mod(f, lf, g, lg, prime):
    """The S-polynomial of two monic polynomials mod ``prime``."""
    l = _monomial_lcm(lf, lg)
    shift = tuple(map(sub, l, lf))
    out = {tuple(map(add, m, shift)): c for m, c in f.items()}
    shift = tuple(map(sub, l, lg))
    for m, c in g.items():
        m = tuple(map(add, m, shift))
        s = (out.get(m, 0) - c) % prime
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _subtract_tail(num, heap, key, m, lm, q, b):
    """num -= b * (m / lm) * (q minus its lead term), the step that cancels
    the popped term at m.  A monomial new to num goes on the heap with its
    key; a cancelled one leaves num, and its heap entry is skipped."""
    shift = tuple(map(sub, m, lm))
    for mm, cc in q.items():
        if mm == lm:
            continue
        mm2 = tuple(map(add, mm, shift))
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
            if all(map(le, lm, m)):
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


def _reduce_mod(p, reducers, order, prime):
    """Full reduction of p mod ``prime`` by monic reducers, given as
    (lead, poly, 1) in ascending-lead order: ``_reduce``'s heap walk with
    each popped term cancelled outright.  Returns the monic remainder, its
    terms in decreasing order."""
    key = order.key
    num = dict(p)
    heap = [(key(m), m) for m in num]
    heapify(heap)
    res = {}
    while heap:
        m = heappop(heap)[1]
        c = num.pop(m, 0)
        if not c:
            continue
        for lm, q, _lc in reducers:
            if all(map(le, lm, m)):
                break
        else:
            res[m] = c
            continue
        shift = tuple(map(sub, m, lm))
        for mm, cc in q.items():
            if mm == lm:
                continue
            mm = tuple(map(add, mm, shift))
            old = num.get(mm)
            if old is None:
                num[mm] = -c * cc % prime
                heappush(heap, (key(mm), mm))
            else:
                s = (old - c * cc) % prime
                if s:
                    num[mm] = s
                else:
                    del num[mm]
    return _monic(res, next(iter(res)), prime) if res else res


def _buchberger(gens, order, known=(), prime=None):
    """Reduced Groebner basis of the ideal generated by ``known`` and
    ``gens``, as a list of (lead monomial, element) sorted by decreasing
    lead: over Z when ``prime`` is None, else over GF(prime), where the
    generators are read mod ``prime`` and the elements are monic.

    Classic Buchberger with the Gebauer-Moller update (criteria M, F and
    B_k) and normal pair selection, after Becker-Weispfenning.  ``known``
    is a reduced basis for ``order`` (and ``prime``) as (lead, element)
    pairs.  The S-pair of two known elements reduces to zero, so it is
    never queued; it still counts in the criteria that prune the other
    pairs.  A generator that is a nonzero constant makes the unit ideal,
    whose reduced basis is 1, at once.
    """
    key = order.key
    if prime is None:
        spoly, reduce = _spoly, _reduce
    else:
        def spoly(f, lf, g, lg):
            return _spoly_mod(f, lf, g, lg, prime)

        def reduce(p, reducers, order):
            return _reduce_mod(p, reducers, order, prime)
    # (lead, element, whether it is known)
    f = [(lm, p, True) for lm, p in known]
    seen = {frozenset(p.items()) for _lm, p in known}
    for p in gens:
        if prime is not None:
            p = {m: c % prime for m, c in p.items() if c % prime}
        if p:
            lm = min(p, key=key)
            if not any(lm):
                return [(lm, {lm: 1})]  # a nonzero constant: the unit ideal
            p = (_primitive(dict(p), lm) if prime is None
                 else _monic(p, lm, prime))
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
        return not any(map(mul, lms[i], lms[j]))

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
            if not any(all(map(le, lcm_ij(ih, r[1]), lcm_hg))
                       for r in itertools.chain(C, D)):
                D.add(pair)
        E = {pair for pair in D if not disjoint(ih, pair[1])}
        if is_known[ih]:
            E = {pair for pair in E if not is_known[pair[1]]}
        B_new = set()
        for (i1, i2) in B:
            lcm12 = lcm_ij(i1, i2)
            if (not all(map(le, mh, lcm12))
                    or lcm_ij(i1, ih) == lcm12
                    or lcm_ij(i2, ih) == lcm12):
                B_new.add((i1, i2))
        B_new |= E
        G_new = {g for g in G if not all(map(le, mh, lms[g]))}
        G_new.add(ih)
        return G_new, B_new

    G, B = set(), set()
    for i in range(len(f)):
        G, B = update(G, B, i)

    while B:
        i, j = max(B, key=lambda p: key(lcm_ij(p[0], p[1])))
        B.remove((i, j))
        s = spoly(f[i], lms[i], f[j], lms[j])
        reducers = sorted(((lms[g], f[g], f[g][lms[g]]) for g in G),
                          key=lambda t: key(t[0]), reverse=True)
        h = reduce(s, reducers, order)
        if h:
            f.append(h)
            lms.append(next(iter(h)))
            is_known.append(False)
            G, B = update(G, B, len(f) - 1)

    # tail-reduce to the unique reduced basis; a lead of G divides no
    # other, so each element keeps its lead
    ordered = sorted(G, key=lambda g: key(lms[g]))
    reducers = [(lms[g], f[g], f[g][lms[g]]) for g in reversed(ordered)]
    return [(lms[g], reduce(f[g], [t for t in reducers if t[0] != lms[g]],
                            order))
            for g in ordered]


# --- public types ----------------------------------------------------------

@dataclass(frozen=True)
class Ideal:
    """An ideal given by its generators, the names of its ring's variables,
    the monomial order of its one reduced basis, ``_basis``, and the prime
    of that basis: None for a basis over Z, p for one over GF(p), whose
    generators are read mod p.

    It carries no degrees: the Cox-ring input is graded once, by
    ``segre.preprocess``.  ``extend`` and ``saturate_ideal`` make their
    ideals with the basis, over the field of the ideal they start from;
    ``groebner_basis`` computes it for any other.
    """

    generators: tuple
    names: tuple
    order: object
    prime: object = None
    _basis: object = field(default=None, compare=False, repr=False)

    @classmethod
    def create(cls, gens, names, order, prime=None):
        """Build an ideal, dropping zero generators."""
        return cls(generators=tuple(g for g in gens if not g.is_zero()),
                   names=tuple(names), order=order, prime=prime)

    @property
    def nvars(self):
        return len(self.names)

    def extend(self, gens):
        """The ideal of this one's basis elements and ``gens``, made with
        its basis, which is computed from this one's: Buchberger queues no
        S-pair of two of these elements."""
        gens = tuple(g for g in gens if not g.is_zero())
        G = groebner_basis(self)
        known = list(zip(G.leads, [g.coeffs for g in G.elements]))
        basis = _buchberger([g.coeffs for g in gens], self.order, known,
                            self.prime)
        return Ideal(G.elements + gens, self.names, self.order, self.prime,
                     _reduced_basis(self.nvars, self.order, basis))


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis; elements are primitive integer polynomials
    with positive leading coefficients, or over GF(p) monic polynomials
    with coefficients in [0, p), sorted by decreasing lead, and ``leads``
    holds their lead monomials."""

    elements: tuple
    leads: tuple
    order: object


def _reduced_basis(nvars, order, basis):
    """The GroebnerBasis of ``basis``, a list of (lead, element) pairs."""
    return GroebnerBasis(
        elements=tuple(Polynomial(nvars, p) for _lm, p in basis),
        leads=tuple(lm for lm, _p in basis), order=order)


def groebner_basis(I):
    """Reduced Groebner basis of ``I`` for its order, computed on the
    first query."""
    if I._basis is None:
        # the one slot a frozen ideal fills after it is made
        object.__setattr__(I, "_basis", _reduced_basis(
            I.nvars, I.order,
            _buchberger([g.coeffs for g in I.generators], I.order,
                        prime=I.prime)))
    return I._basis


def normal_form(f, G):
    """Unique remainder of ``f`` on division by the reduced integer basis
    ``G`` with its leads made monic, computed in integers.

    Raises NonIntegerCoefficient when a lead coefficient of ``G`` does not
    divide the coefficient it has to cancel.

    In a reduced basis no lead divides another, so a term that is a lead
    has that element as its only reducer, found by one lookup.  A lead
    divides any other term only if its total degree is lower, so the
    other terms scan only the leads of lower degree, in ascending-lead
    order: under any order the reducer is the first whose lead divides,
    the one a scan of every lead finds (DECISIONS.md entry 27).
    """
    key = G.order.key
    by_lead = dict(zip(G.leads, [g.coeffs for g in G.elements]))
    below = {}  # total degree -> the leads of lower degree, ascending
    num = dict(f.coeffs)
    heap = [(key(m), m) for m in num]
    heapify(heap)
    res = {}
    while heap:
        m = heappop(heap)[1]
        c = num.pop(m, 0)
        if not c:
            continue
        q = by_lead.get(m)
        if q is not None:
            lm = m
        else:
            dm = sum(m)
            scan = below.get(dm)
            if scan is None:
                scan = below[dm] = [lm for lm in reversed(G.leads)
                                    if sum(lm) < dm]
            for lm in scan:
                if all(map(le, lm, m)):
                    q = by_lead[lm]
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


# --- elimination, saturation ----------------------------------------------

def _eliminate_extra_raw(raw, nvars, n_extra, prime=None):
    """Raw polynomials live in nvars+n_extra variables (extras trailing);
    eliminate the extras and project back to the base ring, over Z or
    over GF(``prime``).

    The result is the reduced basis of the elimination ideal for grevlex
    on the base ring (the rest block of the elimination order), each
    element's terms in decreasing order."""
    order = BlockOrder(range(nvars, nvars + n_extra), nvars + n_extra)
    out = []
    for _lm, p in _buchberger(raw, order, prime=prime):
        if not any(any(m[nvars:]) for m in p):
            out.append({m[:nvars]: c for m, c in p.items()})
    return out


def saturate_ideal(I, J):
    """(I : J^inf) for J = (g_1, ..., g_m), as the one elimination
    (I + (1 - y_1*g_1 - ... - y_m*g_m)) meet k[x].

    The eliminated basis is the result's reduced basis for grevlex on
    k[x], over the field of I, so the result is made with it."""
    if not J.generators:
        raise ValueError("cannot saturate by the zero ideal")
    raws = [g.coeffs for g in J.generators]
    if any(max(sum(m) for m in p) == 0 for p in raws):
        return I  # J is the unit ideal
    n = len(raws)
    pad = (0,) * n
    ext = [{m + pad: c for m, c in g.coeffs.items()} for g in I.generators]
    rab = {(0,) * I.nvars + pad: 1}
    for i, p in enumerate(raws):
        tag = pad[:i] + (1,) + pad[i + 1:]
        for m, c in p.items():
            rab[m + tag] = -c
    ext.append(rab)
    raw = _eliminate_extra_raw(ext, I.nvars, n, I.prime)
    order = GrevLex(range(I.nvars))
    return Ideal(tuple(Polynomial(I.nvars, p) for p in raw), I.names, order,
                 I.prime, _reduced_basis(I.nvars, order,
                                         [(next(iter(p)), p) for p in raw]))


# --- dimensions ------------------------------------------------------------

def krull_dimension(I):
    """Krull dimension of the affine quotient ring, or None for the unit
    ideal.  Combinatorial: largest variable subset meeting no lead-term
    support."""
    G = groebner_basis(I)
    if not G.elements:
        return I.nvars
    lms = G.leads
    if any(max(m) == 0 for m in lms):
        return None
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in lms]
    r = I.nvars
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


def standard_monomials(leads, nvars, top=None):
    """The monomials in ``nvars`` variables that no monomial of ``leads``
    divides, of total degree at most ``top`` (all of them when None, and
    then they must be finitely many), in no particular order.

    They are closed under division, so each is reached from 1 by raising
    its exponents in variable order: a depth-first walk that raises only
    the last variable raised or a later one meets each once, and stops at
    every monomial a lead divides.  The walk tests at most nvars times as
    many monomials as it yields."""
    if any(max(m) == 0 for m in leads):
        return
    stack = [((0,) * nvars, 0, 0)]
    while stack:
        m, first, degree = stack.pop()
        yield m
        if degree == top:
            continue
        for i in range(first, nvars):
            e = m[:i] + (m[i] + 1,) + m[i + 1:]
            if not any(all(map(le, lm, e)) for lm in leads):
                stack.append((e, i, degree + 1))


def vector_space_dimension(I):
    """Number of standard monomials (length of the Artinian quotient),
    counted by the walk of ``standard_monomials``."""
    lms = groebner_basis(I).leads
    for i in range(I.nvars):
        if not any(m[i] == sum(m) for m in lms):
            raise NotZeroDimensional(
                "variable %s is not nilpotent modulo the lead-term ideal"
                % I.names[i])
    return sum(1 for _ in standard_monomials(lms, I.nvars))
