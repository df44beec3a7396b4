"""Exact multivariate polynomial arithmetic over the integers.

Monomials are exponent tuples, coefficients are Python ints (zero terms
are never stored), and the Cox ring's context carries its multigrading:
an integer matrix with one column per variable.  All values are
immutable; every operation is a pure function, so shared read-only use
from several threads is safe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import add, itemgetter

from . import linalg
from .errors import EmptyDegree, NotHomogeneous, ZeroPolynomial


@dataclass(frozen=True)
class RingContext:
    """Variable names and grading matrix of the Cox ring.

    ``grading`` has one row per Picard coordinate and one column per
    variable.  It serves the Cox ring's degrees and sections only: the
    monomial orders and the Groebner engine do not read it, and take
    variable names alone.
    """

    names: tuple
    grading: tuple  # rows, each a tuple of len(names) ints

    def __post_init__(self):
        for row in self.grading:
            if len(row) != len(self.names):
                raise ValueError("grading row length != variable count")

    @property
    def nvars(self):
        return len(self.names)

    @property
    def pic_rank(self):
        return len(self.grading)

    def degree_of_variable(self, i):
        return tuple(row[i] for row in self.grading)


# --- monomial orders -------------------------------------------------------

@lru_cache(maxsize=256)
def _grevlex_key(perm):
    """The grevlex key on ``perm``: the exponents are taken by one
    ``itemgetter`` call, ``e[::-1]`` for the identity perm, which is also
    the perm of one variable or none, where ``itemgetter`` of the indices
    would return a bare int or fail.  Orders on one perm share the
    function, so an order kept with a basis holds no closure of its own
    (DECISIONS.md entry 25)."""
    if perm == tuple(range(len(perm))):
        get = itemgetter(slice(None, None, -1))
    else:
        get = itemgetter(*reversed(perm))

    def key(e):
        return (-sum(e),) + get(e)

    return key


class GrevLex:
    """Graded reverse lexicographic order.

    Grades by total degree.  Ties break on the variables of ``perm`` taken
    from its last entry backwards: the first variable where the exponents
    differ decides, and the larger exponent there makes the smaller
    monomial.

    ``key(e)`` is a flat int tuple, leading monomial first: the negated
    total degree, then the exponents of ``perm`` in reverse.  It is the
    function ``_grevlex_key(perm)`` set on the instance, so a key costs
    one Python frame.
    """

    __slots__ = ("perm", "key")

    def __init__(self, perm):
        self.perm = tuple(perm)
        self.key = _grevlex_key(self.perm)

    def __repr__(self):
        return "GrevLex(perm=%r)" % (self.perm,)


class BlockOrder:
    """Elimination order on ``nvars`` variables: grevlex on a front block,
    then grevlex on the rest.

    Any monomial containing a front-block variable beats every monomial
    without one, so a Groebner basis element free of front-block variables
    lies in the subring omitting them.
    """

    __slots__ = ("front", "rest", "_front_rev", "_rest_rev")

    def __init__(self, front, nvars):
        self.front = tuple(sorted(front))
        self.rest = tuple(i for i in range(nvars) if i not in set(self.front))
        self._front_rev = tuple(reversed(self.front))
        self._rest_rev = tuple(reversed(self.rest))

    def key(self, e):
        """Flat int tuple, leading monomial first: each block's negated
        total degree followed by its exponents in reverse.  Kept on the
        mapped ``e.__getitem__`` (DECISIONS.md entry 25)."""
        get = e.__getitem__
        return (-sum(map(get, self.front)), *map(get, self._front_rev),
                -sum(map(get, self.rest)), *map(get, self._rest_rev))

    def __repr__(self):
        return "BlockOrder(front=%r, rest=%r)" % (self.front, self.rest)


# --- polynomials -----------------------------------------------------------

class Polynomial:
    """Immutable sparse polynomial with integer coefficients."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars, coeffs=None):
        object.__setattr__(self, "nvars", nvars)
        clean = {}
        if coeffs:
            for m, c in coeffs.items():
                if c:
                    clean[tuple(m)] = c
        object.__setattr__(self, "coeffs", clean)

    # constructors
    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1})

    @classmethod
    def from_monomial(cls, m):
        return cls(len(m), {tuple(m): 1})

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.nvars, frozenset(self.coeffs.items())))

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial(self.nvars, out)

    def __neg__(self):
        return Polynomial(self.nvars, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return Polynomial.zero(self.nvars)
            return Polynomial(self.nvars,
                              {m: c * other for m, c in self.coeffs.items()})
        out = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = tuple(map(add, m1, m2))
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
        return Polynomial(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        """self^n by repeated squaring: about 2 log2(n) products."""
        result = Polynomial.constant(self.nvars, 1)
        base = self
        while n > 0:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def _coerce(self, other):
        if isinstance(other, int):
            return Polynomial.constant(self.nvars, other)
        if other.nvars != self.nvars:
            raise ValueError("mixed variable counts")
        return other

    def set_to_one(self, indices):
        """Substitute 1 for the given variables and drop them from the ring."""
        drop = set(indices)
        keep = [i for i in range(self.nvars) if i not in drop]
        out = {}
        for m, c in self.coeffs.items():
            mm = tuple(m[i] for i in keep)
            s = out.get(mm, 0) + c
            if s:
                out[mm] = s
            else:
                del out[mm]
        return Polynomial(len(keep), out)

    def format(self, names):
        if not self.coeffs:
            return "0"
        parts = []
        for m, c in sorted(self.coeffs.items(), reverse=True):
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append("%s^%d" % (names[i], e))
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append("-" + body)
            else:
                parts.append("%s*%s" % (c, body))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self):
        return "Polynomial(%d, %r)" % (self.nvars, self.coeffs)


# --- graded operations -----------------------------------------------------

def multidegree_of(f, ctx):
    """Common multidegree of all terms of ``f``; raises if f is zero or the
    terms disagree."""
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial has no multidegree")
    delta = None
    for m in f.coeffs:
        d = tuple(sum(row[i] * m[i] for i in range(len(m)))
                  for row in ctx.grading)
        if delta is None:
            delta = d
        elif d != delta:
            raise NotHomogeneous(
                "terms of degrees %r and %r" % (delta, d),
                degree_a=delta, degree_b=d)
    return delta


@lru_cache(maxsize=1024)
def monomials_of_degree(delta, ctx):
    """All exponent vectors e >= 0 with grading . e == delta, as a tuple in
    lexicographic order.  ``delta`` must be a tuple: results are cached per
    (delta, ring).

    These are the lattice points of the polytope P_delta (Cox-Little-Schenck
    4.3): with e0 one integer solution of grading . e == delta and the
    columns of K a Z-basis of the grading's integer kernel, they are the
    points e0 + K m >= 0, and Fourier-Motzkin lists the m.  One Smith form
    u . grading . v = d gives both: e0 = v y for d y = u delta, and K is
    the columns of v past the rank.  Finite because the grading of a
    validated fan has a heft (DECISIONS.md entry 23); an unbounded
    variable makes ``linalg.fm_integer_points`` raise ValueError rather
    than run forever.
    """
    form = linalg.smith_normal_form([list(row) for row in ctx.grading])
    (e0,) = linalg.solve_by_smith_form(form, ctx.nvars, [delta])
    if e0 is None:
        return ()
    d, _u, v = form
    rank = sum(1 for i in range(min(len(d), ctx.nvars)) if d[i][i])
    kernel = [row[rank:] for row in v]
    stages = linalg.fm_stages(list(zip(kernel, e0)), ctx.nvars - rank)
    return tuple(sorted(
        tuple(x + sum(k * mi for k, mi in zip(row, m))
              for x, row in zip(e0, kernel))
        for m in linalg.fm_integer_points(stages, ())))


@lru_cache(maxsize=256)
def monomials_of_total_degree(nvars, d):
    """All exponent vectors of ``nvars`` entries >= 0 summing to ``d``, as a
    tuple in lexicographic order: each choice of nvars - 1 bar positions
    among d + nvars - 1 slots gives the entries as the gaps between the
    bars.  Cached, so the Chow bases built from them share their tuples."""
    slots = d + nvars - 1
    out = []
    for bars in itertools.combinations(range(slots), nvars - 1):
        e = []
        prev = -1
        for b in bars:
            e.append(b - prev - 1)
            prev = b
        e.append(slots - 1 - prev)
        out.append(tuple(e))
    return tuple(out)


def random_homogeneous(delta, rng, bound, ctx):
    """Random multihomogeneous polynomial of degree ``delta``: every monomial
    of that degree appears, with a uniformly random nonzero integer
    coefficient in [-bound, bound]."""
    monomials = monomials_of_degree(delta, ctx)
    if not monomials:
        raise EmptyDegree("no monomials of degree %r" % (tuple(delta),))
    coeffs = {}
    for m in monomials:
        c = rng.randint(1, bound)
        if rng.random() < 0.5:
            c = -c
        coeffs[m] = c
    return Polynomial(ctx.nvars, coeffs)
