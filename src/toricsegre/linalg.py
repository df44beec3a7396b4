"""Exact linear algebra helpers: rational elimination, Smith and Hermite
normal forms over the integers, and Fourier-Motzkin elimination.

Everything here works on lists of tuples and stays exact (ints and
Fractions); the matrices involved are tiny (rays x dimension scale).
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, gcd
from operator import mul


# --- rational elimination --------------------------------------------------

def rref(rows):
    """Reduced row echelon form over Q.  Returns (rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    row = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = next((i for i in range(row, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        m[row] = [x / pv for x in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[row])]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return m, pivots


def rational_rank(rows):
    if not rows:
        return 0
    return len(rref(rows)[1])


def solve_linear_system(rows, rhs):
    """One rational solution x of the (possibly overdetermined) system
    rows . x = rhs, or None when it is inconsistent.

    The system is consistent exactly when the reduced echelon form of the
    augmented matrix has no pivot in its last column, and then the
    solution read off it satisfies every row.
    """
    n = len(rows[0])
    m, pivots = rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        x[col] = m[r][-1]
    return tuple(x)


# --- integer normal forms --------------------------------------------------

def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(mat):
    """Smith normal form: returns (d, u, v) with u . mat . v = d, u and v
    unimodular and d diagonal with each invariant factor dividing the next."""
    m = [list(row) for row in mat]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    u = _identity(nrows)
    v = _identity(ncols)

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        m[dst] = [a + q * b for a, b in zip(m[dst], m[src])]
        u[dst] = [a + q * b for a, b in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in m:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    t = 0
    while t < min(nrows, ncols):
        # pivot: smallest nonzero entry in the remaining block
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if m[i][j] and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nrows):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    add_row(t, i, -q)
                    if m[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, ncols):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    add_col(t, j, -q)
                    if m[t][j]:
                        swap_cols(t, j)
                        dirty = True
        # enforce divisibility of the remaining block by the pivot
        fixed = False
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if m[i][j] % m[t][t]:
                    add_row(i, t, 1)
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return m, u, v


def row_hermite(mat):
    """Row-style Hermite normal form: returns (h, u) with u . mat = h,
    u unimodular, h in echelon form with positive pivots and reduced
    entries above each pivot."""
    m = [list(row) for row in mat]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    u = _identity(nrows)

    def add_row(src, dst, q):
        m[dst] = [a + q * b for a, b in zip(m[dst], m[src])]
        u[dst] = [a + q * b for a, b in zip(u[dst], u[src])]

    row = 0
    for col in range(ncols):
        # gcd-reduce the column below `row`
        while True:
            candidates = [i for i in range(row, nrows) if m[i][col]]
            if not candidates:
                break
            pivot = min(candidates, key=lambda i: abs(m[i][col]))
            m[row], m[pivot] = m[pivot], m[row]
            u[row], u[pivot] = u[pivot], u[row]
            done = True
            for i in range(row + 1, nrows):
                if m[i][col]:
                    add_row(row, i, -(m[i][col] // m[row][col]))
                    if m[i][col]:
                        done = False
            if done:
                break
        if row < nrows and m[row][col]:
            if m[row][col] < 0:
                m[row] = [-x for x in m[row]]
                u[row] = [-x for x in u[row]]
            for i in range(row):
                q = m[i][col] // m[row][col]
                if q:
                    add_row(row, i, -q)
            row += 1
            if row == nrows:
                break
    return m, u


def solve_integer(a_rows, rhs):
    """One integer solution x of A x = b for each right-hand side b in
    ``rhs``, in order; None for a b with none.

    One Smith form serves them all: with u A v = d, solve d y = u b and
    set x = v y.
    """
    ncols = len(a_rows[0]) if a_rows else 0
    return solve_by_smith_form(smith_normal_form(a_rows), ncols, rhs)


def solve_by_smith_form(form, ncols, rhs):
    """``solve_integer`` for a matrix A of ``ncols`` columns, given its
    Smith form ``form`` = (d, u, v), for a caller that reads the form as
    well."""
    d, u, v = form
    diag = [d[i][i] if i < ncols else 0 for i in range(len(d))]
    out = []
    for b in rhs:
        ub = [sum(map(mul, row, b)) for row in u]
        if any(x % di if di else x for x, di in zip(ub, diag)):
            out.append(None)
            continue
        y = [x // di if di else 0 for x, di in zip(ub, diag)]
        out.append(tuple(sum(map(mul, row, y)) for row in v))
    return tuple(out)


# --- Fourier-Motzkin -------------------------------------------------------

def _normalize_ineq(coeffs, const):
    """The integer row (coeffs, const) divided by the gcd of its entries."""
    g = gcd(*coeffs, const)
    if g > 1:
        return tuple(c // g for c in coeffs), const // g
    return tuple(coeffs), const


def fm_eliminate(system, var):
    """Eliminate ``var`` from a system of inequalities sum(a.x) + c >= 0.

    Returns the reduced system (still over the full variable tuple, with the
    eliminated variable's coefficient zero everywhere).
    """
    pos = [iq for iq in system if iq[0][var] > 0]
    neg = [iq for iq in system if iq[0][var] < 0]
    free = [iq for iq in system if iq[0][var] == 0]
    out = list(free)
    seen = set(free)
    for (ap, cp) in pos:
        for (an, cn) in neg:
            f_p, f_n = -an[var], ap[var]
            coeffs = tuple(f_p * a + f_n * b for a, b in zip(ap, an))
            const = f_p * cp + f_n * cn
            iq = _normalize_ineq(coeffs, const)
            if iq not in seen:
                seen.add(iq)
                out.append(iq)
    return out


def fm_stages(system, nvars):
    """Fourier-Motzkin elimination of variables 0, 1, ..., nvars - 1 in turn.

    ``system`` is a list of (coefficient tuple of length nvars, constant)
    meaning sum(a_i x_i) + c >= 0.  Returns nvars + 1 normalized systems:
    entry v involves only variables v..nvars-1 and describes the projection
    of the input polyhedron onto them; the last entry has no variables.
    """
    current = [_normalize_ineq(a, k) for a, k in system]
    stages = [current]
    for var in range(nvars):
        current = fm_eliminate(current, var)
        stages.append(current)
    return stages


def _interval(stage, var, x):
    """Bounds (lower, upper; None when absent) on x[var] from the rows of
    ``stage`` once x[var+1:] is fixed."""
    lower, upper = None, None
    for coeffs, const in stage:
        a = coeffs[var]
        if a == 0:
            continue
        rest = sum(c * x[j] for j, c in enumerate(coeffs)
                   if j > var and c) + const
        bound = Fraction(-rest, a)
        if a > 0:
            lower = bound if lower is None else max(lower, bound)
        else:
            upper = bound if upper is None else min(upper, bound)
    return lower, upper


def fm_integer_points(stages, tail):
    """Every integer point of ``stages[0]`` whose last coordinates are
    ``tail``, by backtracking through the Fourier-Motzkin stages from
    ``fm_stages``.  The polyhedron must be bounded once ``tail`` is fixed.

    Exact because each stage is the projection of the one before: a point
    of stage v + 1 extends to stage v along the interval its rows give.
    """
    nvars = len(stages) - 1
    free = nvars - len(tail)
    x = [0] * free + list(tail)
    if any(sum(c * xi for c, xi in zip(coeffs, x)) + const < 0
           for coeffs, const in stages[free]):
        return
    yield from _extend_points(stages, x, free - 1)


def _extend_points(stages, x, var):
    """The points of ``fm_integer_points`` that agree with ``x`` above
    ``var``: x[var] runs over its interval in stage ``var``, and each value
    extends downwards.  The state travels as arguments, so no closure cell
    ties the generators into a reference cycle."""
    if var < 0:
        yield tuple(x)
        return
    lower, upper = _interval(stages[var], var, x)
    if lower is None or upper is None:
        raise ValueError("variable %d is unbounded" % var)
    for value in range(ceil(lower), floor(upper) + 1):
        x[var] = value
        yield from _extend_points(stages, x, var - 1)
