"""Push-forward Segre classes of subschemes of smooth projective toric
varieties, by residual intersection.

Given a multihomogeneous ideal I in the Cox ring, the subscheme is
Z = V(I : B^inf) with B the irrelevant ideal.  Z and each residual scheme
are held as their ideals on the affine charts of the maximal cones, where B
is the unit ideal.  For each codimension d from codim Z up to dim X the
algorithm cuts with d random sections bounded by a common class alpha,
removes Z by an ideal quotient to obtain a residual scheme R_d of pure
dimension, and recovers the class of R_d from point counts against
products D^p of toric divisors.  The products are chosen from the Chow
ring before any count: a product that is 0, or that repeats a divisor
which is not nef, is never used, and below full rank neither is one that
adds no rank; one further nonzero product checks the solve.  The Segre
class components then follow by the inclusion-exclusion recursion

    s_i = alpha^(c+i) - [R_(c+i)] - sum_(j<i) C(c+i, i-j) alpha^(i-j) s_j

with c = codim Z.  Randomness is drawn from named deterministic streams so
runs are reproducible per (seed, attempt).  An attempt reads only lead-term
data of its Groebner bases (dimensions and lengths), so attempt i computes
them over GF(p_i), p_i the i-th prime below 2^31; the Chow ring, degrees
and linear solves stay exact over Z (DECISIONS.md entry 22).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from math import comb

from . import linalg
from .cones import curve_functionals, find_alpha, is_nef
from .errors import (DimensionFailure, EmptySubscheme, InconsistentSystem,
                     NonIntegerSolution, NotHomogeneous, NotZeroDimensional,
                     RetriesExhausted, WholeSpace)
from .exactpoly import (Polynomial, monomials_of_total_degree,
                        multidegree_of, random_homogeneous)
from .fan import chart_dehomogenize
from .groebner import krull_dimension, saturate_ideal, vector_space_dimension

# Random coefficients are drawn from +-[1, DEFAULT_COEFF_BOUND].  A draw
# whose sections meet Z non-transversally at the top codimension is not
# detected (that codimension has no consistency row), so the range is wide
# enough to make such draws rare (DECISIONS.md entry 12).
DEFAULT_COEFF_BOUND = 2 ** 15

RETRYABLE = (DimensionFailure, InconsistentSystem, NonIntegerSolution,
             NotZeroDimensional)

def _is_prime(n):
    """Whether the odd number n, 7 < n < 3,215,031,751, is prime:
    Miller-Rabin with the bases 2, 3, 5 and 7, which decide every such
    n."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _attempt_primes():
    """The primes of the attempts' Groebner work, one per attempt: the
    primes below 2^31 downwards, 2147483647, 2147483629, 2147483587, ..."""
    n = 2 ** 31 - 1
    while True:
        if _is_prime(n):
            yield n
        n -= 2


@dataclass(frozen=True)
class SubschemeInput:
    """Preprocessed problem: validated geometry, the input generators,
    their degrees, their charts."""

    cox: object
    chow: object
    generators: tuple  # nonzero input generators (sections come from them)
    degrees: tuple  # multidegree_of each generator
    charts: tuple  # chart_dehomogenize(generators), one per maximal cone
    dim: int
    codim: int
    functionals: tuple


@dataclass(frozen=True)
class ResidualData:
    """One residual scheme: its dimension (None when empty), the Chow
    class, and the linear system that produced the class."""

    d: int
    dimension: object
    chow_class: object
    beta_rows: tuple
    gammas: tuple


@dataclass(frozen=True)
class SegreResult:
    alpha: tuple
    dim: int
    components: tuple  # Chow classes s_0 .. s_n
    total: object
    residuals: tuple  # ResidualData per cut codimension
    seed: object
    attempt: int
    coeff_bound: int
    failures: tuple = ()  # the failure text of each earlier attempt


def _dimension(charts):
    """Dimension in X of the subscheme with these chart ideals: the
    largest chart dimension, or None when every chart is empty."""
    return max((n for n in map(krull_dimension, charts) if n is not None),
               default=None)


def preprocess(cox, chow, generators):
    """Grade the input generators, dehomogenize them on every chart and
    classify the subscheme.  Zero generators are dropped.  Raises
    NotHomogeneous, before any chart work, for a generator whose terms
    differ in degree, naming its index in ``generators``, and WholeSpace /
    EmptySubscheme for the degenerate cases."""
    gens, degrees = [], []
    for idx, g in enumerate(generators):
        if g.is_zero():
            continue
        try:
            degrees.append(multidegree_of(g, cox.ring))
        except NotHomogeneous as exc:
            raise NotHomogeneous(
                "ideal generator %d (%s) is not multihomogeneous: %s"
                % (idx, g.format(cox.ring.names), exc), **exc.details)
        gens.append(g)
    if not gens:
        raise WholeSpace("the ideal is zero")
    charts = chart_dehomogenize(gens, cox)
    n = _dimension(charts)
    if n is None:
        raise EmptySubscheme("the ideal is the unit ideal on every chart")
    k = cox.fan.dim
    if n >= k:
        raise WholeSpace("the subscheme has dimension %d in a %d-fold"
                         % (n, k))
    functionals = curve_functionals(cox)
    return SubschemeInput(cox=cox, chow=chow, generators=tuple(gens),
                          degrees=tuple(degrees), charts=charts, dim=n,
                          codim=k - n, functionals=functionals)


def pick_sections(problem, alpha, d, rng, coeff_bound):
    """d random sections of class alpha inside the ideal: each is a random
    homogeneous combination of the generators."""
    ring = problem.cox.ring
    out = []
    for _ in range(d):
        f = Polynomial.zero(ring.nvars)
        for g, delta in zip(problem.generators, problem.degrees):
            gap = tuple(a - x for a, x in zip(alpha, delta))
            f = f + g * random_homogeneous(gap, rng, coeff_bound, ring)
        out.append(f)
    return out


def residual_ideal(problem, sections, prime):
    """Chart ideals of the residual scheme: on each chart, the section
    ideal with the subscheme quotiented out, (F_sigma : I_sigma^inf),
    with bases over GF(``prime``), or over Z when ``prime`` is None."""
    return tuple(saturate_ideal(F_t, I_t) for F_t, I_t
                 in zip(chart_dehomogenize(sections, problem.cox, prime),
                        problem.charts))


def zero_dim_length(charts, cox):
    """Length of a zero-dimensional subscheme of X, by a chart sweep.

    ``charts`` holds its ideal on each chart, in cone order.  Chart t
    contributes the length of the part of the subscheme supported away
    from all earlier charts.  With J the chart ideal and v = vsdim(J), let
    m_s be the product of the chart variables of the rays outside an
    earlier cone s (the dehomogenized irrelevant monomial of s).  That
    part is cut out by J + (m_s^v): k[x]/J is the product of its local
    rings, each of length at most v, so m_s^v is zero in the local ring of
    a point where m_s vanishes and a unit in that of a point of chart s.
    Raises NotZeroDimensional when some chart ideal is not Artinian.
    """
    total = 0
    cones = cox.fan.max_cones
    for t, J in enumerate(charts):
        v = vector_space_dimension(J)
        if t == 0 or v == 0:
            total += v
            continue
        earlier = tuple(
            Polynomial.from_monomial(tuple(0 if i in s else v
                                           for i in cones[t]))
            for s in cones[:t])
        total += vector_space_dimension(J.extend(earlier))
    return total


def _degree_rows(problem, d):
    """The degree rows of the codim-d residual, chosen from the Chow ring
    alone: the (lex index, p) of each exponent tuple that
    ``residual_class`` sweeps, and its beta row.

    Tuples p with sum k-d are scanned in lexicographic order.  A tuple is
    skipped when D^p is 0 in the Chow ring, when it repeats a divisor D_j
    that is not nef (two general sections of O(D_j) need not meet
    properly), or, below full rank h, when its row adds no rank.  The
    first further nonzero row is kept as the consistency row, so at most
    h + 1 rows come back.  Skipping repeated non-nef divisors loses no
    rank: the squarefree products D_sigma over the cones sigma span
    A^(k-d).  Raises InconsistentSystem when the rows stay below rank h.
    """
    chow = problem.chow
    ring = problem.cox.ring
    fan = problem.cox.fan
    basis = chow.bases[d]
    h = len(basis)
    kept, rows = [], []
    for pidx, p in enumerate(monomials_of_total_degree(fan.nrays,
                                                       fan.dim - d)):
        if any(pj >= 2 and not is_nef(ring.degree_of_variable(j),
                                      problem.functionals)
               for j, pj in enumerate(p)):
            continue
        prod = chow.reduce(Polynomial.from_monomial(p))
        if not prod:
            continue
        row = [chow.degree(chow.multiply(Polynomial(chow.nvars, {m: 1}),
                                         prod)) for m in basis]
        # below rank h every kept row raised the rank, so it is len(rows)
        if len(rows) < h and linalg.rational_rank(rows + [row]) == len(rows):
            continue
        kept.append((pidx, p))
        rows.append(row)
        if len(rows) > h:
            break
    if len(rows) < h:
        raise InconsistentSystem(
            "divisor products give a rank-deficient pairing in codim %d" % d)
    return kept, rows


def residual_class(problem, d, I_R, seed, attempt, coeff_bound):
    """Chow class of a nonempty codim-d residual with chart ideals I_R.

    Unknown coefficients on the codimension-d standard basis are solved
    from degree equations indexed by exponent tuples p with sum k-d over
    the toric divisors: the pairing of each basis element with the product
    of the D_j^(p_j) (beta) must reproduce the counted length of the
    residual scheme cut by p_j random polynomials of each degree [D_j]
    (gamma).  The rows are chosen from beta alone (``_degree_rows``): h
    rows of full rank and, when one exists, a consistency row.  Only then
    are the cuts drawn, from a stream keyed on the tuple's lexicographic
    index, and each kept row's gamma counted by one chart sweep.
    """
    chow = problem.chow
    cox = problem.cox
    kept, rows = _degree_rows(problem, d)
    gammas = []
    for pidx, p in kept:
        rng = random.Random("%s:%d:%d:%d" % (seed, attempt, d, pidx))
        cuts = []
        for j, pj in enumerate(p):
            delta = cox.ring.degree_of_variable(j)
            for _ in range(pj):
                cuts.append(random_homogeneous(delta, rng, coeff_bound,
                                               cox.ring))
        cut_charts = chart_dehomogenize(cuts, cox)
        gamma = zero_dim_length(
            tuple(R.extend(C.generators) for R, C in zip(I_R, cut_charts)),
            cox)
        gammas.append(gamma)
    sol = linalg.solve_linear_system(rows, gammas)
    if sol is None:
        raise InconsistentSystem(
            "degree equations for the codim-%d residual disagree" % d,
            rows=tuple(map(tuple, rows)), gammas=tuple(gammas))
    if any(x.denominator != 1 for x in sol):
        raise NonIntegerSolution(
            "residual class solved to %r" % (sol,))
    cls = chow.class_from_coefficients([int(x) for x in sol], d)
    return cls, tuple(map(tuple, rows)), tuple(gammas)


def _attempt(problem, alpha, seed, attempt, prime, coeff_bound):
    cox, chow = problem.cox, problem.chow
    k, n, c = cox.fan.dim, problem.dim, problem.codim
    residuals = []
    classes = {}
    for d in range(c, k + 1):
        rng = random.Random("%s:%d:%d:sections" % (seed, attempt, d))
        sections = pick_sections(problem, alpha, d, rng, coeff_bound)
        I_R = residual_ideal(problem, sections, prime)
        dim_r = _dimension(I_R)
        if dim_r is None:
            residuals.append(ResidualData(d=d, dimension=None,
                                          chow_class=chow.zero(),
                                          beta_rows=(), gammas=()))
            classes[d] = chow.zero()
            continue
        if dim_r != k - d:
            raise DimensionFailure(
                "residual of %d sections has dimension %d, expected %d"
                % (d, dim_r, k - d), d=d, got=dim_r, expected=k - d)
        cls, rows, gammas = residual_class(problem, d, I_R, seed, attempt,
                                           coeff_bound)
        residuals.append(ResidualData(d=d, dimension=dim_r, chow_class=cls,
                                      beta_rows=rows, gammas=gammas))
        classes[d] = cls
    alpha_class = chow.pic_to_chow(alpha)
    powers = [chow.one()]  # alpha^0 .. alpha^k
    for _ in range(k):
        powers.append(chow.multiply(powers[-1], alpha_class))
    components = []
    for i in range(n + 1):
        m = c + i
        val = powers[m] - classes[m]
        for j in range(i):
            term = chow.multiply(powers[i - j], components[j])
            val = val - term * comb(m, i - j)
        components.append(chow.reduce(val))
    total = chow.zero()
    for s in components:
        total = total + s
    return SegreResult(alpha=tuple(alpha), dim=n,
                       components=tuple(components),
                       total=total, residuals=tuple(residuals), seed=seed,
                       attempt=attempt, coeff_bound=coeff_bound)


def segre_class(problem, seed=0, coeff_bound=DEFAULT_COEFF_BOUND, retries=5):
    """Push-forward Segre class of the subscheme, retrying with fresh
    randomness and a new prime when a draw or a prime is degenerate.  The
    result lists the failures of the attempts before it.  Raises
    ValueError when ``retries`` is below 1."""
    if retries < 1:
        raise ValueError("retries must be at least 1, not %r" % (retries,))
    alpha = find_alpha(problem.degrees, problem.cox, problem.functionals)
    failures = []
    for attempt, prime in zip(range(retries), _attempt_primes()):
        try:
            result = _attempt(problem, alpha, seed, attempt, prime,
                              coeff_bound)
        except RETRYABLE as exc:
            failures.append("%s: %s" % (type(exc).__name__, exc))
            continue
        return replace(result, failures=tuple(failures))
    raise RetriesExhausted(
        "all %d attempts failed; last: %s" % (retries, failures[-1]),
        failures=tuple(failures))
