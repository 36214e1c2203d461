import itertools
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import arcones
from arcones import exact


small_mat = st.lists(
    st.lists(st.integers(-6, 6), min_size=3, max_size=3),
    min_size=2, max_size=4,
)


def test_scaled_inverse_unimodular():
    a = [[2, 1], [1, 1]]
    den, y = exact.scaled_inverse(a)
    assert (den, y) == (1, [[1, -1], [-1, 2]])
    assert exact.mat_mul(a, y) == [[1, 0], [0, 1]]


def test_scaled_inverse_diagonal():
    assert exact.scaled_inverse(exact.identity(3)) == (1, exact.identity(3))
    # D is the lcm of the diagonal, not its product 24
    den, y = exact.scaled_inverse([[2, 0, 0], [0, 3, 0], [0, 0, 4]])
    assert (den, y) == (12, [[6, 0, 0], [0, 4, 0], [0, 0, 3]])
    assert all(type(x) is int for row in y for x in row)


def test_scaled_inverse_singular():
    with pytest.raises(ValueError, match="singular"):
        exact.scaled_inverse([[1, 2, 3], [2, 4, 6], [0, 0, 1]])


def _solve(a, b):
    """One solution x of a x = b over Fraction, or None if inconsistent."""
    n = len(a[0]) if a else 0
    r, pivots = _rref_reference([list(row) + [y] for row, y in zip(a, b)])
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for i, p in enumerate(pivots):
        x[p] = r[i][n]
    return x


def test_solve_inconsistent():
    assert _solve([[1, 1], [1, 1]], [1, 2]) is None
    assert _solve([[2, 1], [1, 1]], [3, 2]) == [1, 1]


@given(small_mat)
@settings(max_examples=50)
def test_nullspace_is_kernel(a):
    basis = exact.nullspace(a)
    for v in basis:
        assert all(type(x) is int for x in v) and math.gcd(*v) == 1
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)
    assert len(basis) == len(a[0]) - exact.rank(a)


def _rref_reference(a):
    """Plain Gauss-Jordan over Fraction, the reference for exact's
    fraction-free core: (R, pivots) with R the reduced row echelon form,
    zero rows last."""
    r = [[Fraction(x) for x in row] for row in a]
    m = len(r)
    n = len(r[0]) if m else 0
    pivots = []
    i = 0
    for j in range(n):
        p = next((k for k in range(i, m) if r[k][j] != 0), None)
        if p is None:
            continue
        r[i], r[p] = r[p], r[i]
        piv = r[i][j]
        r[i] = [x / piv for x in r[i]]
        for k in range(m):
            if k != i and r[k][j] != 0:
                c = r[k][j]
                r[k] = [x - c * y for x, y in zip(r[k], r[i])]
        pivots.append(j)
        i += 1
        if i == m:
            break
    return r, pivots


def _nullspace_reference(a):
    """The Fraction nullspace basis read off _rref_reference, one vector
    per free column f with x[f] = 1."""
    if not a:
        return []
    n = len(a[0])
    r, pivots = _rref_reference(a)
    basis = []
    for f in (j for j in range(n) if j not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        basis.append(v)
    return basis


def _clear_denominators(v):
    """Scale a Fraction vector to a primitive integer vector."""
    den = 1
    for x in v:
        den = exact.lcm(den, Fraction(x).denominator)
    w = [int(Fraction(x) * den) for x in v]
    g = math.gcd(*w)
    return [x // g for x in w] if g > 1 else w


def _mat_inv_reference(a):
    n = len(a)
    r, pivots = _rref_reference([list(row) + [int(i == j) for j in range(n)]
                                 for i, row in enumerate(a)])
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in r[:n]]


BIG = 2 ** 70


@st.composite
def elimination_input(draw):
    """An m x n matrix, 0 <= m, n <= 6 (wide, tall and empty ones), of ints
    in [-3, 3] and ints within 3 of +-2^70, with some rows zeroed."""
    m = draw(st.integers(0, 6))
    n = draw(st.integers(0, 6))
    entry = st.one_of(
        st.integers(-3, 3),
        st.integers(-3, 3).map(lambda k: BIG + k),
        st.integers(-3, 3).map(lambda k: k - BIG))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    zero = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    return [[0] * n if z else row for row, z in zip(rows, zero)]


@given(elimination_input())
@example([])
@example([[]])
@example([[0, 0], [0, 0]])
@example([[BIG, BIG + 1], [BIG - 1, BIG]])
@example([[1, 2, 0], [0, 0, 0], [4, 8, -3]])
@settings(max_examples=300, deadline=None)
def test_elimination_matches_fraction_reference(a):
    r, pivots = _rref_reference(a)
    # row i of _gauss_jordan over its pivot entry is row i of the RREF
    rows, got_pivots = exact._gauss_jordan(a)
    assert all(type(x) is int for row in rows for x in row)
    assert all(row[p] > 0 and math.gcd(*row) == 1
               for row, p in zip(rows, got_pivots))
    n = len(a[0]) if a else 0
    got_r = [[Fraction(x, row[p]) for x in row]
             for row, p in zip(rows, got_pivots)]
    got_r += [[Fraction(0)] * n for _ in range(len(a) - len(rows))]
    assert (got_r, got_pivots) == (r, pivots)
    assert exact.rank(a) == len(pivots)
    assert exact.nullspace(a) == [_clear_denominators(v)
                                  for v in _nullspace_reference(a)]
    # scaled_inverse on the leading square block: the least D with
    # D * a^-1 integral, and Y = D * a^-1
    k = min(len(a), n)
    sq = [row[:k] for row in a[:k]]
    want = _mat_inv_reference(sq)
    if want is None:
        with pytest.raises(ValueError, match="singular"):
            exact.scaled_inverse(sq)
    else:
        den = 1
        for x in itertools.chain.from_iterable(want):
            den = exact.lcm(den, x.denominator)
        got_den, y = exact.scaled_inverse(sq)
        assert all(type(x) is int for row in y for x in row)
        assert got_den == den
        assert y == [[x * den for x in row] for row in want]


def test_elimination_refuses_fractions():
    # the elimination takes int rows only: a Fraction entry raises
    half = Fraction(1, 2)
    for a in ([[half, 1, 0]], [[1, 2, 0], [1, half, 0]]):
        with pytest.raises(TypeError):
            exact.rank(a)
        with pytest.raises(TypeError):
            exact.nullspace(a)


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
    for v in exact.left_kernel_lattice(exact.row_hnf(a)):
        assert all(x == 0 for x in exact.vec_mat(v, a))


@st.composite
def small_basis(draw):
    """m <= 4 integer vectors of one length n, m <= n <= m + 2, entries in
    [-9, 9]; independent unless hypothesis says otherwise."""
    m = draw(st.integers(0, 4))
    n = draw(st.integers(max(m, 1), max(m, 1) + 2))
    row = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=m, max_size=m))


def _gram_schmidt_ints(b):
    """(d, lam) of Cohen's integral LLL, by exact Gram-Schmidt over
    Fraction: d[j] = det of the Gram matrix of b[:j], lam[k][j] =
    d[j + 1] * mu_kj."""
    d = [Fraction(1)]
    stars, lam = [], []
    for v in b:
        w = [Fraction(x) for x in v]
        mus = []
        for u in stars:
            mu = exact.dot(v, u) / exact.dot(u, u)
            mus.append(mu)
            w = [x - mu * y for x, y in zip(w, u)]
        stars.append(w)
        d.append(d[-1] * exact.dot(w, w))
        lam.append([mu * d[j + 1] for j, mu in enumerate(mus)])
    return d, lam


def _integer_transform(src, dst):
    """The matrix t with t src = dst, or None if it is not integral."""
    t = []
    for v in dst:
        x = _solve([list(col) for col in zip(*src)], v)
        if x is None or any(xi.denominator != 1 for xi in x):
            return None
        t.append([int(xi) for xi in x])
    return t


@given(small_basis())
@settings(max_examples=100, deadline=None)
def test_lll_reduce(b):
    assume(exact.rank(b) == len(b))
    r = exact.lll_reduce(b)
    assert all(type(x) is int for row in r for x in row)
    assert len(r) == len(b) and all(len(x) == len(y) for x, y in zip(r, b))
    # the same lattice: each basis is an integer combination of the other,
    # by a transform of determinant +-1
    if b:
        t = _integer_transform(b, r)
        assert t is not None and _integer_transform(r, b) is not None
        assert _det(t) in (1, -1)
    # size-reduced, and the Lovasz condition with delta = 3/4
    d, lam = _gram_schmidt_ints(r)
    for k, row in enumerate(lam):
        for j, x in enumerate(row):
            assert x.denominator == 1
            assert abs(2 * x) <= d[j + 1], (k, j)
        if k:
            assert 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * row[-1] ** 2


def test_lll_reduce_small_cases():
    assert exact.lll_reduce([]) == []
    assert exact.lll_reduce([[3, -4, 0]]) == [[3, -4, 0]]
    # the example of the LLL article on Wikipedia
    assert exact.lll_reduce([[1, 1, 1], [-1, 0, 2], [3, 5, 6]]) == \
        [[0, 1, 0], [1, 0, 1], [-1, 0, 2]]
    with pytest.raises(RuntimeError):
        exact.lll_reduce([[1, 2], [2, 4]])
    with pytest.raises(RuntimeError):
        exact.lll_reduce([[0, 0]])


@given(small_basis(), st.lists(st.integers(-3, 3), min_size=4, max_size=4))
@settings(max_examples=50, deadline=None)
def test_lll_reduce_dependent_raises(b, x):
    assume(b)
    combo = [sum(c * row[j] for c, row in zip(x, b)) for j in range(len(b[0]))]
    with pytest.raises(RuntimeError):
        exact.lll_reduce(b + [combo])


@given(small_mat)
@settings(max_examples=50, deadline=None)
def test_left_kernel_lattice_is_reduced(a):
    kernel = exact.left_kernel_lattice(exact.row_hnf(a))
    d, lam = _gram_schmidt_ints(kernel)
    assert all(abs(2 * x) <= d[j + 1]
               for row in lam for j, x in enumerate(row))


@given(small_mat, st.lists(st.integers(-4, 4), min_size=2, max_size=4))
@settings(max_examples=50)
def test_integer_row_solution(a, x):
    x = (x + [0] * len(a))[: len(a)]
    t = exact.vec_mat(x, a)
    sol = exact.integer_row_solution(exact.row_hnf(a), t)
    assert sol is not None
    assert exact.vec_mat(sol, a) == t


def test_integer_row_solution_none():
    # x * [[2]] = [1] has no integer solution
    assert exact.integer_row_solution(exact.row_hnf([[2]]), [1]) is None


def test_row_hnf_refuses_fractions():
    # read through int(), the row (1/2, 1) became (0, 1), and h lost a pivot
    with pytest.raises(TypeError, match="row_hnf takes ints only, but a "
                                        "row holds Fraction"):
        exact.row_hnf([[Fraction(1, 2), 1], [0, 1]])


def test_lll_reduce_refuses_fractions():
    # read through int(), the basis row (3/2, 0) became (1, 0)
    with pytest.raises(TypeError, match="lll_reduce takes ints only"):
        exact.lll_reduce([[Fraction(3, 2), 0], [0, 1]])


def test_integer_row_solution_refuses_fractions():
    # read through int(), the target (1/2, 1) became (0, 1), which x a = t
    # solves
    hnf = exact.row_hnf([[1, 0], [0, 1]])
    assert exact.integer_row_solution(hnf, [0, 1]) == [0, 1]
    with pytest.raises(TypeError, match="integer_row_solution takes ints "
                                        "only, but t holds Fraction"):
        exact.integer_row_solution(hnf, [Fraction(1, 2), 1])


def test_clear_denominators():
    # the reference's scaling of a Fraction nullspace vector, which
    # exact.nullspace returns directly
    assert _clear_denominators([Fraction(1, 2), Fraction(3, 4)]) == [2, 3]
    assert _clear_denominators([2, 4]) == [1, 2]
    assert _clear_denominators([Fraction(-2, 3), 0, 1]) == [-2, 0, 3]
    assert exact.nullspace([[2, 1, 0]]) == [[-1, 2, 0], [0, 0, 1]]


@st.composite
def tiny_lp(draw):
    """(c, a_ub, b_ub, a_eq, b_eq, nonneg): <= 3 variables, <= 4
    constraints, integer entries in [-4, 4]."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, 4))
    n_eq = draw(st.integers(0, k))
    ints = st.integers(-4, 4)
    row = st.lists(ints, min_size=n, max_size=n)
    c = draw(row)
    a = draw(st.lists(row, min_size=k, max_size=k))
    b = draw(st.lists(ints, min_size=k, max_size=k))
    return c, a[n_eq:], b[n_eq:], a[:n_eq], b[:n_eq], draw(st.booleans())


def _lp_by_vertices(c, a_ub, b_ub, a_eq, b_eq, nonneg):
    """(status, optimum) by enumerating basic solutions in two boxes.

    Every vertex, and on a polyhedron without vertices some point of every
    minimal face, has coordinates below 400 in absolute value (Cramer's rule
    and Hadamard's bound for 3x3 minors of entries in [-4, 4]).  So the
    polyhedron is empty iff the box |x_j| <= 1000 holds no basic solution,
    and the LP is unbounded iff widening the box to 2000 lowers the minimum.
    """
    n = len(c)
    ub = list(zip(a_ub, b_ub))
    if nonneg:
        ub += [([-int(i == j) for j in range(n)], 0) for i in range(n)]
    eq = list(zip(a_eq, b_eq))

    def box_min(big):
        box = [([s * int(i == j) for j in range(n)], big)
               for i in range(n) for s in (1, -1)]
        best = None
        for sub in itertools.combinations(ub + eq + box, n):
            rows = [a for a, _b in sub]
            if exact.rank(rows) < n:
                continue
            x = _solve(rows, [b for _a, b in sub])
            if all(exact.dot(a, x) <= b for a, b in ub + box) and \
                    all(exact.dot(a, x) == b for a, b in eq):
                v = exact.dot(c, x)
                best = v if best is None else min(best, v)
        return best

    lo = box_min(1000)
    if lo is None:
        return "infeasible", None
    if box_min(2000) < lo:
        return "unbounded", None
    return "optimal", lo


def _solution(result):
    """(status, x / den as Fractions) of an lp_min result (status, x, den),
    or (status, None); checks that x holds ints and den > 0 is their least
    denominator."""
    status, x, den = result
    if status != "optimal":
        assert x is None and den is None
        return status, None
    assert all(type(v) is int for v in x) and type(den) is int
    assert den > 0 and math.gcd(den, *x) == 1
    return status, [Fraction(v, den) for v in x]


def _standard_form(c, a_ub, b_ub, a_eq, b_eq, nonneg):
    """(c, a_eq, b_eq) of the standard-form LP, min c.z subject to
    a_eq.z = b_eq and z >= 0, of the LP min c.x subject to a_ub.x <= b_ub
    and a_eq.x = b_eq over free x (x >= 0 when nonneg).  The columns are x
    split as u - w (no w when nonneg), then one slack per inequality; the
    inequality rows come first, with 1 at their own slack."""
    k = len(a_ub)

    def split(a):
        return list(a) + ([] if nonneg else [-x for x in a])
    rows = [split(a) + [int(j == i) for j in range(k)]
            for i, a in enumerate(a_ub)]
    rows += [split(a) + [0] * k for a in a_eq]
    return split(c) + [0] * k, rows, list(b_ub) + list(b_eq)


def _general(z, n, nonneg):
    """x = u - w of a solution z of _standard_form's LP over n variables."""
    return z[:n] if nonneg else [u - w for u, w in zip(z[:n], z[n:2 * n])]


@given(tiny_lp())
@example(([1, 1], [[1, 0], [-1, 0]], [-1, -1], [], [], False))  # infeasible
@example(([1, -1], [], [], [[1, 1]], [2], True))                # optimal
@example(([-1, 0], [[0, 1]], [3], [], [], True))                # unbounded
@example(([0, 0], [], [], [[1, 1], [2, 2]], [1, 2], True))      # redundant
@example(([3, 3], [], [], [[0, -2]], [0], True))             # pivot p < 0
@settings(max_examples=200, deadline=None)
def test_lp_min_matches_vertex_enumeration(lp):
    c, a_ub, b_ub, a_eq, b_eq, nonneg = lp
    status, z = _solution(exact.lp_min(*_standard_form(*lp)))
    want, best = _lp_by_vertices(*lp)
    assert status == want
    if status != "optimal":
        return
    assert all(zi >= 0 for zi in z)
    x = _general(z, len(c), nonneg)
    assert exact.dot(c, x) == best
    assert all(exact.dot(a, x) <= b for a, b in zip(a_ub, b_ub))
    assert all(exact.dot(a, x) == b for a, b in zip(a_eq, b_eq))
    assert not nonneg or all(xi >= 0 for xi in x)


def test_lp_min_redundant_equality():
    # the artificial variable of the second row stays basic after phase 1
    for nonneg in (True, False):
        lp = _standard_form([0, 0], [], [], [[1, 1], [2, 2]], [1, 2], nonneg)
        status, z = _solution(exact.lp_min(*lp))
        assert status == "optimal" and sum(_general(z, 2, nonneg)) == 1


def test_lp_min_rational_input():
    # lp_min and LPStart take ints only: a Fraction anywhere raises, where
    # the integer pivots would otherwise floor-divide it; the LP in ints
    # has the solution (13/2, 5/2, 0), over its least denominator
    half = Fraction(1, 2)
    lp = dict(c=[1, 2, 0], a_eq=[[1, 1, 0], [0, 2, -1]], b_eq=[9, 5])
    assert exact.lp_min(**lp) == ("optimal", [13, 5, 0], 2)
    for key, value in [("c", [half, 2, 0]),
                       ("a_eq", [[1, 1, 0], [0, half, -1]]),
                       ("b_eq", [9, half])]:
        with pytest.raises(TypeError, match="lp_min takes ints only"):
            exact.lp_min(**dict(lp, **{key: value}))
    with pytest.raises(TypeError, match="lp_min takes ints only"):
        exact.LPStart([[1, half]])
    start = exact.LPStart([[1, 1]])
    with pytest.raises(TypeError, match="lp_min takes ints only"):
        exact.lp_min([0, 0], b_eq=[half], start=start)


def _lp_min_under_python_O(plant):
    """The RuntimeError message of lp_min([1], a_eq=[[2]], b_eq=[3]), whose
    solution is 3/2, run under python -O with exact.gcd replaced by plant,
    the read-off's only call of it."""
    script = textwrap.dedent("""
        import math, sys
        from arcones import exact
        if __debug__:
            sys.exit("not running under -O")
        exact.gcd = %s
        try:
            exact.lp_min([1], a_eq=[[2]], b_eq=[3])
        except RuntimeError as exc:
            print(exc)
        else:
            sys.exit("wrong read-out returned")
    """ % plant)
    src = os.path.dirname(os.path.dirname(os.path.abspath(arcones.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stdout + res.stderr
    return res.stdout


def test_lp_min_certificate_survives_python_O():
    # a gcd twice too large reads x = 3 over D = 2 as 1 over 1, which
    # violates 2x = 3; the check must still fire with asserts stripped
    assert "violates an equality" in _lp_min_under_python_O(
        "lambda *args: 2 * math.gcd(*args)")


def test_lp_min_sign_certificate_survives_python_O():
    # a gcd of -1 reads x = 3 over D = 2 as -3 over -2: the equality still
    # holds, so only the check x >= 0 refuses it, with asserts stripped
    assert "solution is negative" in _lp_min_under_python_O(
        "lambda *args: -math.gcd(*args)")


def _lp_min_eager(c, a_eq, b_eq):
    """The reference for lp_min: the same two-phase Bland simplex with the
    same fraction-free pivot, on the whole tableau from the start, for
    min c.x subject to a_eq.x = b_eq and x >= 0.  Returns (status, x) with
    x a list of Fractions, or None."""
    def eliminate(row, pr, col, p, d):
        f = row[col]
        return [(p * x - f * y) // d for x, y in zip(row, pr)]

    ncol = len(c)
    m = len(a_eq)
    tab = []
    for a, b in zip(a_eq, b_eq):
        r = list(a) + [b]
        tab.append([-x for x in r] if b < 0 else r)
    basis = [ncol + i for i in range(m)]
    d = 1

    def pivot(col, rowi, obj):
        nonlocal d
        pr = tab[rowi]
        p = pr[col]
        for k in range(len(tab)):
            if k != rowi:
                tab[k] = eliminate(tab[k], pr, col, p, d)
        if obj is not None:
            obj[:] = eliminate(obj, pr, col, p, d)
        basis[rowi] = col
        d = p

    def solve_phase(obj):
        while True:
            col = next((j for j in range(ncol) if obj[j] < 0), -1)
            if col < 0:
                return "optimal"
            rowi = -1
            for i, row in enumerate(tab):
                if row[col] > 0:
                    if rowi < 0:
                        rowi = i
                        continue
                    lhs = row[-1] * tab[rowi][col]
                    rhs = tab[rowi][-1] * row[col]
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[rowi]):
                        rowi = i
            if rowi < 0:
                return "unbounded"
            pivot(col, rowi, obj)

    obj1 = [-sum(col) for col in zip(*tab)] if tab else [0] * (ncol + 1)
    solve_phase(obj1)
    if obj1[-1] != 0:
        return ("infeasible", None)
    for i in range(m):
        if basis[i] >= ncol:
            j = next((j for j in range(ncol) if tab[i][j]), None)
            if j is not None:
                if tab[i][j] < 0:
                    tab[i] = [-x for x in tab[i]]
                pivot(j, i, None)
    keep = [i for i in range(m) if basis[i] < ncol]
    tab[:] = [tab[i] for i in keep]
    basis[:] = [basis[i] for i in keep]
    obj2 = [d * x for x in c] + [0]
    for row, bi in zip(tab, basis):
        obj2 = [o - c[bi] * t for o, t in zip(obj2, row)]
    if solve_phase(obj2) != "optimal":
        return ("unbounded", None)
    x = [Fraction(0)] * ncol
    for row, bi in zip(tab, basis):
        x[bi] = Fraction(row[-1], d)
    return ("optimal", x)


@st.composite
def wide_lp(draw):
    """(c, a_ub, b_ub, a_eq, b_eq, nonneg) with up to 7 rows and up to 40
    columns in _standard_form, so that lp_min builds columns late:
    - "functional": x >= 0, equalities only and zero cost, with b = +-e_i
      or any small vector, like the LPs of SliceFamily and prune_redundant;
    - "free": free variables under inequalities and maybe equalities, with
      a cost;
    and in either kind maybe one row repeated as a multiple of itself: a
    redundant row, or an inconsistent equality when its right-hand side is
    off by one."""
    ints = st.integers(-3, 3)
    kind = draw(st.sampled_from(["functional", "free"]))
    k = draw(st.integers(1, 6))
    if kind == "functional":
        n = draw(st.integers(k, 40))
        n_eq = k
    else:
        n = draw(st.integers(1, min(k + 2, 8)))
        n_eq = draw(st.integers(0, min(k, 2)))
    row = st.lists(ints, min_size=n, max_size=n)
    a = draw(st.lists(row, min_size=k, max_size=k))
    if kind == "functional" and draw(st.booleans()):
        i = draw(st.integers(0, k - 1))
        b = [draw(st.sampled_from([1, -1])) * int(j == i) for j in range(k)]
    else:
        b = draw(st.lists(ints, min_size=k, max_size=k))
    c = draw(row) if kind == "free" else [0] * n
    eq = list(zip(a[:n_eq], b[:n_eq]))
    ub = list(zip(a[n_eq:], b[n_eq:]))
    if draw(st.booleans()):
        group = eq if eq and (not ub or draw(st.booleans())) else ub
        ra, rb = group[draw(st.integers(0, len(group) - 1))]
        f = draw(st.sampled_from([1, 2] if group is ub else [1, 2, -1]))
        group.append(([f * x for x in ra],
                      f * rb + draw(st.sampled_from([0, 0, 1]))))
    return (c, [r for r, _b in ub], [b for _r, b in ub],
            [r for r, _b in eq], [b for _r, b in eq], kind == "functional")


# LPs that reach the cases of _eliminate's unit-pivot path that a wrong
# shortcut breaks (test_lp_min_examples_reach_their_pivots): a pivot p
# over D = p != 1 on a row with f != 0, where the row is x - f*y/p and not
# x - f*y, and pivots p = D = 1 on rows with f = 1, f = -1 and f = -2.
# Taking x - f*y for every p = D, or swapping the subtraction and the
# addition of f = +-1, finds the first or the second infeasible.
LP_PIVOT_P_EQ_D = ([-3], [[0]], [1], [[-2]], [1], False)
LP_PIVOT_UNIT = ([1], [[1], [1]], [-3, -2], [], [], False)


@pytest.mark.parametrize("lp,case", [
    (LP_PIVOT_P_EQ_D, lambda p, d, f: p == d != 1 and f),
    (LP_PIVOT_UNIT, lambda p, d, f: p == d == 1 and f == 1),
    (LP_PIVOT_UNIT, lambda p, d, f: p == d == 1 and f == -1),
    (LP_PIVOT_UNIT, lambda p, d, f: p == d == 1 and f not in (0, 1, -1)),
], ids=["p=d!=1", "p=d=1,f=1", "p=d=1,f=-1", "p=d=1,f=-2"])
def test_lp_min_examples_reach_their_pivots(lp, case, monkeypatch):
    # each example of test_lp_min_matches_eager_tableau reaches the pivot
    # case it is there for
    real, seen = exact._eliminate, []

    def spy(row, pr, col, p, d):
        seen.append((p, d, row[col]))
        return real(row, pr, col, p, d)

    monkeypatch.setattr(exact, "_eliminate", spy)
    exact.lp_min(*_standard_form(*lp))
    assert any(case(*pdf) for pdf in seen), seen


@pytest.mark.parametrize("width", [0, exact.LAZY_WIDTH])
@given(lp=wide_lp())
@example(lp=LP_PIVOT_P_EQ_D)
@example(lp=LP_PIVOT_UNIT)
@example(lp=([0] * 12, [], [], [[1] * 12, [2] * 12], [1, 2], True))
@example(lp=([0] * 12, [], [], [[1] * 12, [1] * 12], [1, 2], True))
@example(lp=([-1, 0, 0], [[1, 1, 1]], [3], [], [], False))
@settings(max_examples=150, deadline=None)
def test_lp_min_matches_eager_tableau(width, lp):
    # width 0 builds every tableau column by column, the default only the
    # wide ones; the pivots, and so (status, x, den), must be those of the
    # whole tableau
    lp = _standard_form(*lp)
    saved = exact.LAZY_WIDTH
    exact.LAZY_WIDTH = width
    try:
        got = exact.lp_min(*lp)
    finally:
        exact.LAZY_WIDTH = saved
    assert _solution(got) == _lp_min_eager(*lp)


@given(lp=wide_lp(), data=st.data())
@example(lp=([1, 1], [[1, 2]], [2], [[3, 2]], [6], False), data=None)
@settings(max_examples=100, deadline=None)
def test_lp_start_shared_matches_eager(lp, data):
    # one LPStart shared by LPs that differ in their right-hand sides gives
    # each the result of the whole tableau: right-hand sides scaled by
    # other factors and signs, and drawn ones
    c, a_ub, b_ub, a_eq, b_eq, nonneg = lp
    start = exact.LPStart(_standard_form(*lp)[1])
    rhs = [(b_ub, b_eq), ([3 * b for b in b_ub], [-2 * b for b in b_eq])]
    if data is not None:
        ints = st.integers(-3, 3)
        rhs.append((data.draw(st.lists(ints, min_size=len(a_ub),
                                       max_size=len(a_ub))),
                    data.draw(st.lists(ints, min_size=len(a_eq),
                                       max_size=len(a_eq)))))
    for bu, be in rhs:
        cz, rows, bz = _standard_form(c, a_ub, bu, a_eq, be, nonneg)
        assert _solution(exact.lp_min(cz, b_eq=bz, start=start)) \
            == _lp_min_eager(cz, rows, bz)


def test_lp_min_refuses_mixed_or_short_constraints():
    start = exact.LPStart([[1, 1]])
    with pytest.raises(ValueError, match="either in start"):
        exact.lp_min([0, 0], a_eq=[[1, 1]], b_eq=[1], start=start)
    with pytest.raises(ValueError, match="one right-hand side"):
        exact.lp_min([0, 0], b_eq=[1, 2], start=start)
    with pytest.raises(ValueError, match="one right-hand side"):
        exact.lp_min([0, 0], a_eq=[[1, 1]], b_eq=[])
    with pytest.raises(ValueError, match="one entry per variable"):
        exact.lp_min([0, 0], a_eq=[[1, 1], [1]], b_eq=[1, 1])
