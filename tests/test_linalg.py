"""Exact linear algebra: oracles against hand-computed values and
property tests against independent checks."""

import gc
import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from toricsegre import linalg

from _oracles import _det

small_int = st.integers(min_value=-6, max_value=6)


def matrices(max_rows=4, max_cols=4):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(small_int, min_size=c, max_size=c),
                min_size=r, max_size=r)))


def test_rref_identity():
    m, pivots = linalg.rref([[1, 0], [0, 1]])
    assert pivots == [0, 1]
    assert m == [[1, 0], [0, 1]]


def test_rank_oracle():
    assert linalg.rational_rank([[1, 2], [2, 4]]) == 1
    assert linalg.rational_rank([[1, 2], [3, 4]]) == 2
    assert linalg.rational_rank([[0, 0]]) == 0


def test_solve_rational_oracle():
    x = linalg.solve_linear_system([[2, 0], [0, 4]], [1, 1])
    assert list(x) == [Fraction(1, 2), Fraction(1, 4)]
    assert linalg.solve_linear_system([[1, 1], [1, 1]], [0, 1]) is None


def test_solve_linear_system_consistency_flag():
    sol = linalg.solve_linear_system([[1, 0], [0, 1], [1, 1]], [2, 3, 5])
    assert list(sol) == [2, 3]
    sol = linalg.solve_linear_system([[1, 0], [0, 1], [1, 1]], [2, 3, 6])
    assert sol is None


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_smith_form_properties(mat):
    d, u, v = linalg.smith_normal_form(mat)
    nr, nc = len(mat), len(mat[0])
    # u . mat . v == d
    um = [[sum(u[i][l] * mat[l][j] for l in range(nr)) for j in range(nc)]
          for i in range(nr)]
    umv = [[sum(um[i][l] * v[l][j] for l in range(nc)) for j in range(nc)]
           for i in range(nr)]
    assert umv == [list(row) for row in d]
    for i in range(nr):
        for j in range(nc):
            if i != j:
                assert d[i][j] == 0
    diag = [d[i][i] for i in range(min(nr, nc))]
    for a, b in zip(diag, diag[1:]):
        if a and b:
            assert b % a == 0
        if a == 0:
            assert b == 0
    # u, v unimodular
    assert abs(linalg.rational_rank(u)) == nr
    assert abs(_det(u)) == 1
    assert abs(_det(v)) == 1


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_row_hermite_properties(mat):
    h, u = linalg.row_hermite(mat)
    nr = len(mat)
    um = [[sum(u[i][l] * mat[l][j] for l in range(nr))
           for j in range(len(mat[0]))] for i in range(nr)]
    assert um == [list(row) for row in h]
    assert abs(_det(u)) == 1
    # echelon with positive pivots
    last = -1
    for row in h:
        nz = [j for j, x in enumerate(row) if x]
        if nz:
            assert nz[0] > last
            assert row[nz[0]] > 0
            last = nz[0]


@given(matrices(), st.lists(small_int, min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_solve_integer_is_exact_solution(mat, x):
    x = x[:len(mat[0])] + [0] * (len(mat[0]) - len(x))
    b = [sum(r * xi for r, xi in zip(row, x)) for row in mat]
    (sol,) = linalg.solve_integer(mat, [b])
    assert sol is not None
    assert all(isinstance(s, int) or getattr(s, "denominator", 1) == 1
               for s in sol)
    assert [sum(r * s for r, s in zip(row, sol)) for row in mat] == b


def test_solve_integer_no_solution():
    # 2x = 1 has no integer solution
    assert linalg.solve_integer([[2]], [[1]]) == (None,)


@given(matrices(), st.lists(st.lists(small_int, min_size=1, max_size=4),
                            max_size=4))
@settings(max_examples=80, deadline=None)
def test_solve_integer_takes_several_right_hand_sides(mat, bs):
    """Solving several right-hand sides at once gives each one's own
    solution, None included, in order."""
    bs = [(b * len(mat))[:len(mat)] for b in bs]
    sols = linalg.solve_integer(mat, bs)
    assert sols == tuple(linalg.solve_integer(mat, [b])[0] for b in bs)
    for b, sol in zip(bs, sols):
        if sol is not None:
            assert [sum(map(int.__mul__, row, sol)) for row in mat] == b


def test_in_integer_row_span():
    rows = [[1, 1, 0], [0, 2, 0]]
    assert linalg.in_integer_row_span(rows, (1, 3, 0))
    assert not linalg.in_integer_row_span(rows, (0, 1, 0))
    assert not linalg.in_integer_row_span(rows, (0, 0, 1))


def test_fm_infeasible():
    # x >= 1 and -x >= 0: elimination leaves -1 >= 0, and no point
    stages = linalg.fm_stages([((1,), -1), ((-1,), 0)], 1)
    assert stages[-1] == [((0,), -1)]
    assert list(linalg.fm_integer_points(stages, ())) == []


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.lists(small_int, min_size=n, max_size=n),
                       st.integers(-8, 8)), max_size=4))))
@settings(max_examples=80, deadline=None)
def test_fm_integer_points_match_box_scan(case):
    """Inside the box |x_j| <= 3, every integer point, and every one with
    the last coordinate fixed, against a scan of the box."""
    n, extra = case
    box = []
    for j in range(n):
        unit = tuple(1 if i == j else 0 for i in range(n))
        box.append((unit, 3))
        box.append((tuple(-u for u in unit), 3))
    system = box + [(tuple(a), c) for a, c in extra]
    expected = [x for x in itertools.product(range(-3, 4), repeat=n)
                if all(sum(ai * xi for ai, xi in zip(a, x)) + c >= 0
                       for a, c in system)]
    stages = linalg.fm_stages(system, n)
    assert sorted(linalg.fm_integer_points(stages, ())) == expected
    for last in range(-4, 5):
        assert sorted(linalg.fm_integer_points(stages, (last,))) == \
            [x for x in expected if x[-1] == last]


def test_fm_integer_points_leave_no_cyclic_garbage():
    """Listing points makes no reference cycle for the collector to free:
    a recursive closure once made one on every call."""
    # the triangle x, y >= 0, x + y <= 3
    stages = linalg.fm_stages([((1, 0), 0), ((0, 1), 0), ((-1, -1), 3)], 2)
    gc.collect()
    gc.disable()
    try:
        points = list(linalg.fm_integer_points(stages, ()))
        freed = gc.collect()
    finally:
        gc.enable()
    assert len(points) == 10
    assert freed == 0
