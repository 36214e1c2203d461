from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from arcones import exact


small_mat = st.lists(
    st.lists(st.integers(-6, 6), min_size=3, max_size=3),
    min_size=2, max_size=4,
)


def test_rref_identity():
    r, piv = exact.rref(exact.identity(3))
    assert r == [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert piv == [0, 1, 2]


def test_mat_inv():
    a = [[2, 1], [1, 1]]
    inv = exact.mat_inv(a)
    assert exact.mat_mul(a, inv) == [[1, 0], [0, 1]]


def test_solve_inconsistent():
    assert exact.solve([[1, 1], [1, 1]], [1, 2]) is None


@given(small_mat)
@settings(max_examples=50)
def test_nullspace_is_kernel(a):
    for v in exact.nullspace(a):
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)
    assert len(exact.nullspace(a)) == len(a[0]) - exact.rank(a)


@given(small_mat)
@settings(max_examples=50)
def test_row_hnf_transform(a):
    h, u = exact.row_hnf(a)
    assert exact.mat_mul(u, a) == h
    # u is unimodular
    det = _det(u)
    assert det in (1, -1)


def _det(a):
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for j in range(n):
        p = next((k for k in range(j, n) if m[k][j] != 0), None)
        if p is None:
            return 0
        if p != j:
            m[j], m[p] = m[p], m[j]
            det = -det
        det *= m[j][j]
        for k in range(j + 1, n):
            c = m[k][j] / m[j][j]
            m[k] = [x - c * y for x, y in zip(m[k], m[j])]
    return det


@given(small_mat)
@settings(max_examples=50)
def test_left_kernel_lattice(a):
    for v in exact.left_kernel_lattice(a):
        assert all(x == 0 for x in exact.vec_mat(v, a))


@given(small_mat, st.lists(st.integers(-4, 4), min_size=2, max_size=4))
@settings(max_examples=50)
def test_integer_row_solution(a, x):
    x = (x + [0] * len(a))[: len(a)]
    t = exact.vec_mat(x, a)
    sol = exact.integer_row_solution(a, t)
    assert sol is not None
    assert exact.vec_mat(sol, a) == t


def test_integer_row_solution_none():
    # x * [[2]] = [1] has no integer solution
    assert exact.integer_row_solution([[2]], [1]) is None


def test_clear_denominators():
    assert exact.clear_denominators([Fraction(1, 2), Fraction(3, 4)]) == [2, 3]
    assert exact.clear_denominators([2, 4]) == [1, 2]
