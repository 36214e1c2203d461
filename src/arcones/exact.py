"""Exact linear algebra helpers over the rationals and the integers.

Everything here works on plain lists of lists holding ints or Fractions.
No floating point is used anywhere.
"""

from fractions import Fraction
from math import gcd


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(m, n):
    return [[0] * n for _ in range(m)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def vec_mat(v, a):
    return [sum(x * row[j] for x, row in zip(v, a)) for j in range(len(a[0]))]


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def rref(a):
    """Reduced row echelon form over Fraction.

    Returns (R, pivots) where pivots is the list of pivot column indices.
    The input is not modified.
    """
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


def rank(a):
    if not a:
        return 0
    return len(rref(a)[1])


def mat_inv(a):
    """Inverse of a square matrix, entries Fraction."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a)]
    r, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in r[:n]]


def nullspace(a):
    """Basis of the right nullspace {x : a x = 0} over Fraction."""
    if not a:
        return []
    n = len(a[0])
    r, pivots = rref(a)
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        basis.append(v)
    return basis


def solve(a, b):
    """One solution x of a x = b over Fraction, or None if inconsistent."""
    m = len(a)
    n = len(a[0]) if m else 0
    aug = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    r, pivots = rref(aug)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for i, p in enumerate(pivots):
        x[p] = r[i][n]
    return x


def row_hnf(a):
    """Row Hermite normal form with transform.

    Returns (h, u) with u unimodular over the integers and u a = h, where h is
    in row echelon form with positive pivots and reduced entries above them.
    """
    h = [list(map(int, row)) for row in a]
    m = len(h)
    n = len(h[0]) if m else 0
    u = identity(m)
    i = 0
    for j in range(n):
        # Euclid on column j below row i.
        while True:
            nz = [k for k in range(i, m) if h[k][j] != 0]
            if not nz:
                break
            k = min(nz, key=lambda k: abs(h[k][j]))
            if k != i:
                h[i], h[k] = h[k], h[i]
                u[i], u[k] = u[k], u[i]
            if h[i][j] < 0:
                h[i] = [-x for x in h[i]]
                u[i] = [-x for x in u[i]]
            done = True
            for k in range(i + 1, m):
                q = h[k][j] // h[i][j]
                if q:
                    h[k] = [x - q * y for x, y in zip(h[k], h[i])]
                    u[k] = [x - q * y for x, y in zip(u[k], u[i])]
                if h[k][j] != 0:
                    done = False
            if done:
                break
        if any(h[k][j] != 0 for k in range(i, m)):
            # Reduce entries above the pivot.
            for k in range(i):
                q = h[k][j] // h[i][j]
                if q:
                    h[k] = [x - q * y for x, y in zip(h[k], h[i])]
                    u[k] = [x - q * y for x, y in zip(u[k], u[i])]
            i += 1
            if i == m:
                break
    return h, u


def left_kernel_lattice(a):
    """Saturated integer basis of {x in Z^m : x a = 0}."""
    h, u = row_hnf(a)
    return [u[k] for k in range(len(h)) if all(x == 0 for x in h[k])]


def integer_row_solution(a, t):
    """One integer solution x of x a = t, or None.

    None means there is no integer solution (there may or may not be a
    rational one).
    """
    h, u = row_hnf(a)
    m = len(h)
    t = list(map(int, t))
    y = [0] * m
    res = list(t)
    for k in range(m):
        piv = next((j for j in range(len(h[k])) if h[k][j] != 0), None)
        if piv is None:
            continue
        q, r = divmod(res[piv], h[k][piv])
        if r != 0:
            return None
        y[k] = q
        res = [x - q * z for x, z in zip(res, h[k])]
    if any(res):
        return None
    x = [0] * m
    for k in range(m):
        if y[k]:
            x = [xi + y[k] * ui for xi, ui in zip(x, u[k])]
    return x


def lcm(a, b):
    return a * b // gcd(a, b)


def clear_denominators(v):
    """Scale a Fraction vector to a primitive integer vector."""
    den = 1
    for x in v:
        den = lcm(den, Fraction(x).denominator)
    w = [int(Fraction(x) * den) for x in v]
    g = 0
    for x in w:
        g = gcd(g, x)
    if g > 1:
        w = [x // g for x in w]
    return w


def lp_min(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, nonneg=False):
    """Exact linear program: minimize c.x subject to a_ub.x <= b_ub and
    a_eq.x == b_eq, over free variables x (or x >= 0 when nonneg is True).

    Two-phase simplex with Bland's rule over Fractions.  Returns a tuple
    (status, x, value) with status one of "optimal", "infeasible",
    "unbounded"; x and value are None unless status is "optimal".
    """
    a_ub = a_ub or []
    b_ub = b_ub or []
    a_eq = a_eq or []
    b_eq = b_eq or []
    n = len(c)
    # free variables split as x = u - w with u, w >= 0; with nonneg no
    # splitting is needed
    nv = n if nonneg else 2 * n
    rows = []
    for a, b, is_eq in ([(a, b, False) for a, b in zip(a_ub, b_ub)] +
                        [(a, b, True) for a, b in zip(a_eq, b_eq)]):
        row = [Fraction(x) for x in a]
        if not nonneg:
            row = row + [Fraction(-x) for x in a]
        rows.append((row, Fraction(b), is_eq))
    nslack = sum(1 for _, _, is_eq in rows if not is_eq)
    m = len(rows)
    width = nv + nslack + m         # variables, slacks, artificials
    tab = []
    sl = 0
    basis = []
    for i, (row, b, is_eq) in enumerate(rows):
        r = row + [Fraction(0)] * (nslack + m) + [b]
        if not is_eq:
            r[nv + sl] = Fraction(1)
            sl += 1
        if b < 0:
            r = [-x for x in r[:-1]] + [-b]
        r[nv + nslack + i] = Fraction(1)
        tab.append(r)
        basis.append(2 * n + nslack + i)

    def pivot(tab, obj, basis, col, rowi):
        pr = tab[rowi]
        pv = pr[col]
        tab[rowi] = [x / pv for x in pr]
        pr = tab[rowi]
        for k in range(len(tab)):
            if k != rowi and tab[k][col]:
                f = tab[k][col]
                tab[k] = [x - f * y for x, y in zip(tab[k], pr)]
        if obj[col]:
            f = obj[col]
            for j in range(len(obj)):
                obj[j] -= f * pr[j]
        basis[rowi] = col

    def solve_phase(tab, obj, basis, allowed):
        while True:
            col = -1
            for j in range(width):
                if j in allowed and obj[j] < 0:
                    col = j
                    break
            if col < 0:
                return "optimal"
            rowi, best = -1, None
            for i in range(len(tab)):
                if tab[i][col] > 0:
                    ratio = tab[i][-1] / tab[i][col]
                    if best is None or ratio < best or \
                            (ratio == best and basis[i] < basis[rowi]):
                        rowi, best = i, ratio
            if rowi < 0:
                return "unbounded"
            pivot(tab, obj, basis, col, rowi)

    # phase 1: minimize the sum of artificials
    obj1 = [Fraction(0)] * width + [Fraction(0)]
    for i in range(m):
        obj1 = [o - t for o, t in zip(obj1, tab[i])]
    allowed1 = set(range(nv + nslack))
    solve_phase(tab, obj1, basis, allowed1)
    if -obj1[-1] != 0:
        return ("infeasible", None, None)
    # drive remaining artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= nv + nslack:
            for j in range(nv + nslack):
                if tab[i][j]:
                    pivot(tab, obj1, basis, j, i)
                    break
    # phase 2
    obj2 = [Fraction(x) for x in c]
    if not nonneg:
        obj2 = obj2 + [Fraction(-x) for x in c]
    obj2 = obj2 + [Fraction(0)] * (nslack + m) + [Fraction(0)]
    for i in range(m):
        if obj2[basis[i]]:
            f = obj2[basis[i]]
            obj2 = [o - f * t for o, t in zip(obj2, tab[i])]
    status = solve_phase(tab, obj2, basis, set(range(nv + nslack)))
    if status != "optimal":
        return ("unbounded", None, None)
    xs = [Fraction(0)] * nv
    for i, bi in enumerate(basis):
        if bi < nv:
            xs[bi] = tab[i][-1]
    x = xs if nonneg else [xs[j] - xs[n + j] for j in range(n)]
    value = sum(ci * xi for ci, xi in zip(c, x))
    # exact feasibility certificate
    for a, b in zip(a_ub, b_ub):
        assert sum(ai * xi for ai, xi in zip(a, x)) <= b
    for a, b in zip(a_eq, b_eq):
        assert sum(ai * xi for ai, xi in zip(a, x)) == b
    return ("optimal", x, value)
