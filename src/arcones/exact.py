"""Exact linear algebra helpers over the integers.

Everything here works on plain lists of lists of ints, and returns ints.
Row reduction (rank, nullspace, scaled_inverse) runs one fraction-free
Gauss-Jordan elimination on int rows kept primitive by their gcd:
scaled_inverse gives a^-1 as an integer matrix over its least denominator.
lp_min solves linear programs in standard form only, min c.x subject to
a.x = b and x >= 0, by a fraction-free integer simplex: its tableau holds
only ints over one common denominator, a unit pivot over a unit
denominator is one subtraction per row, the columns of a wide tableau are
built only as far as Bland's rule scans them, and LPs over the same
constraint rows check them once (LPStart).  Its solution is an int
vector over its least denominator, certified nonnegative and feasible.
Lattice bases are reduced by lll_reduce, Cohen's integral LLL, which keeps
its Gram-Schmidt data as ints with exact divisions.  No floating point and
no rational type is used anywhere: row_hnf, lll_reduce,
integer_row_solution and lp_min refuse a non-int entry with TypeError
through one check (ints) instead of truncating it, and the elimination
raises it from math.gcd.
"""

from math import gcd
from operator import add, sub


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def vec_mat(v, a):
    return [sum(x * row[j] for x, row in zip(v, a)) for j in range(len(a[0]))]


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _gauss_jordan(a, reduce=True):
    """Gauss-Jordan elimination, fraction-free, on the int rows of a.

    The rows are kept primitive by their gcd, so the elimination stays in
    ints: a pivot on the entry p of row y takes every other row x, with f
    its entry in the pivot column, to (p*x - f*y) / gcd (Bareiss 1968
    keeps the entries integral the same way).  Returns (rows, pivots): the
    nonzero rows in echelon form, each primitive with a positive leading
    entry at column pivots[i].  With reduce the rows above a pivot are
    cleared too, so row i divided by rows[i][pivots[i]] is row i of the
    unique reduced row echelon form; without it only the rows below are,
    which is enough for the rank.
    """
    n = len(a[0]) if a else 0
    rows = []
    for row in a:
        row = list(row)
        g = gcd(*row)
        if g:
            rows.append([x // g for x in row] if g > 1 else row)
    pivots = []
    i = 0
    for j in range(n):
        if i == len(rows):
            break
        r = next((k for k in range(i, len(rows)) if rows[k][j]), None)
        if r is None:
            continue
        y = rows[r]
        if y[j] < 0:
            y = [-x for x in y]
        rows[r] = rows[i]
        rows[i] = y
        p = y[j]
        for k in range(0 if reduce else i + 1, len(rows)):
            f = rows[k][j]
            if f and k != i:
                z = [p * u - f * v for u, v in zip(rows[k], y)]
                g = gcd(*z)
                rows[k] = [u // g for u in z] if g > 1 else z
        pivots.append(j)
        i += 1
    return rows[:i], pivots


def rank(a):
    return len(_gauss_jordan(a, reduce=False)[1])


def scaled_inverse(a):
    """(D, Y) with Y = D a^-1 an integer matrix and D > 0 the least such,
    for a square matrix a; raises ValueError if a is singular.  Row i of
    _gauss_jordan on [a | I] is p_i (e_i | row i of a^-1), primitive, so p_i
    is the least denominator of row i of a^-1 and D = lcm of the p_i."""
    n = len(a)
    rows, pivots = _gauss_jordan([list(row) + [int(i == j) for j in range(n)]
                                  for i, row in enumerate(a)])
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    den = 1
    for i, row in enumerate(rows):
        den = lcm(den, row[i])
    return den, [[x * (den // row[i]) for x in row[n:]]
                 for i, row in enumerate(rows)]


def nullspace(a):
    """Basis of the right nullspace {x : a x = 0}, one primitive integer
    vector per free column f of a's reduced row echelon form: the basis
    vector with x[f] = 1 scaled by a positive integer to be primitive."""
    if not a:
        return []
    n = len(a[0])
    rows, pivots = _gauss_jordan(a)
    basis = []
    for f in sorted(set(range(n)) - set(pivots)):
        den = 1
        for row, p in zip(rows, pivots):
            if row[f]:
                den = lcm(den, row[p])
        v = [0] * n
        v[f] = den
        for row, p in zip(rows, pivots):
            if row[f]:
                v[p] = -row[f] * (den // row[p])
        g = gcd(*v)
        basis.append([x // g for x in v] if g > 1 else v)
    return basis


def row_hnf(a):
    """Row Hermite normal form with transform.

    Returns (h, u) with u unimodular over the integers and u a = h, where h is
    in row echelon form with positive pivots and reduced entries above them.
    Raises TypeError on an entry that is not an int.
    """
    h = [ints(row, "row_hnf", "a row") for row in a]
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


def lll_reduce(basis):
    """LLL-reduced basis (delta = 3/4) of the lattice spanned by the rows of
    basis, which must be linearly independent.

    Cohen's integral LLL (A Course in Computational Algebraic Number Theory,
    1993, Alg. 2.6.7; Lenstra, Lenstra and Lovasz 1982): the Gram-Schmidt
    data are kept as the integers d[j] = det of the Gram matrix of the first
    j vectors and lam[k][j] = d[j+1] * mu_kj, so every division is exact.
    The result is size-reduced (|2 lam[k][j]| <= d[j+1]) and meets the
    Lovasz condition 4 d[k+1] d[k-1] >= 3 d[k]**2 - 4 lam[k][k-1]**2; it
    spans the same lattice.  Raises RuntimeError on dependent rows and
    TypeError on an entry that is not an int.
    """
    b = [ints(row, "lll_reduce", "a basis row") for row in basis]
    n = len(b)
    # vectors count from 0: Cohen's d_j is d[j] (d_0 = 1) and his
    # lambda_{k,j} is lam[k - 1][j - 1]
    d = [1] * (n + 1)
    lam = [[0] * n for _k in range(n)]

    def gram_schmidt(k):
        for j in range(k + 1):
            u = dot(b[k], b[j])
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            elif u == 0:
                raise RuntimeError("lll_reduce: the rows are dependent")
            else:
                d[k + 1] = u

    def reduce(k, l):
        # subtract the nearest integer multiple of b[l] from b[k]
        if 2 * abs(lam[k][l]) <= d[l + 1]:
            return
        q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
        b[k] = [x - q * y for x, y in zip(b[k], b[l])]
        lam[k][l] -= q * d[l + 1]
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    def swap(k, kmax):
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        x = lam[k][k - 1]
        bb = (d[k - 1] * d[k + 1] + x * x) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - x * t) // d[k]
            lam[i][k - 1] = (bb * t + x * lam[i][k]) // d[k + 1]
        d[k] = bb

    if n == 0:
        return b
    gram_schmidt(0)
    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            gram_schmidt(k)
        reduce(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            swap(k, kmax)
            k = max(1, k - 1)
            continue
        for l in range(k - 2, -1, -1):
            reduce(k, l)
        k += 1
    return b


def left_kernel_lattice(hnf):
    """LLL-reduced integer basis of {x in Z^m : x a = 0}, given
    hnf = row_hnf(a).  The zero rows of h pick a saturated basis out of the
    transform u; lll_reduce turns it into a short, nearly orthogonal basis
    of the same lattice."""
    h, u = hnf
    return lll_reduce([u[k] for k in range(len(h))
                       if all(x == 0 for x in h[k])])


def integer_row_solution(hnf, t):
    """One integer solution x of x a = t, or None, given hnf = row_hnf(a).

    Taking the Hermite normal form (h, u) of a instead of a itself lets a
    caller that solves for many right-hand sides t compute it once.  None
    means there is no integer solution (there may or may not be a rational
    one).  Raises TypeError on an entry of t that is not an int.
    """
    h, u = hnf
    t = ints(t, "integer_row_solution", "t")
    y = []
    res = t
    for row in h:
        # h is in row echelon form, so the first zero row ends the pivots
        piv = next((j for j, z in enumerate(row) if z), None)
        if piv is None:
            break
        q, r = divmod(res[piv], row[piv])
        if r != 0:
            return None
        y.append(q)
        if q:
            res = [x - q * z for x, z in zip(res, row)]
    if any(res):
        return None
    x = [0] * len(h)
    for q, ur in zip(y, u):
        if q:
            x = [xi + q * ui for xi, ui in zip(x, ur)]
    return x


def lcm(a, b):
    return a * b // gcd(a, b)


def ints(v, who, what):
    """v as a list, which must hold ints only: the exact routines here
    floor-divide and compare their entries, so anything else is refused
    rather than truncated.  who names the routine and what the argument in
    the TypeError."""
    v = list(v)
    if set(map(type, v)) - {int}:
        bad = next(x for x in v if type(x) is not int)
        raise TypeError("%s takes ints only, but %s holds %r"
                        % (who, what, bad))
    return v


def _eliminate(row, pr, col, p, d):
    """One row of a fraction-free pivot: (p*x - f*y) // d, exact; x - f*y
    where p = d = 1, but x - f*y/p where p = d != 1."""
    f = row[col]
    if not f:
        return row if p == d else [p * x // d for x in row]
    if p == 1 and d == 1:
        if f == 1:
            return list(map(sub, row, pr))
        if f == -1:
            return list(map(add, row, pr))
        return [x - f * y for x, y in zip(row, pr)]
    return [(p * x - f * y) // d for x, y in zip(row, pr)]


# lp_min builds the columns of its tableau on demand only when it has more
# than this many columns per row; a narrower tableau is built whole at once
LAZY_WIDTH = 8


class LPStart:
    """The equality rows a_eq of LPs that differ only in c and b_eq, checked
    once for every lp_min given this as start; they are the rows of each
    LP's starting tableau T0.  Raises TypeError on a row entry that is not
    an int."""

    def __init__(self, a_eq=None):
        self.rows = [ints(a, "lp_min", "a constraint row")
                     for a in a_eq or []]


def lp_min(c, a_eq=None, b_eq=None, start=None):
    """Exact linear program in standard form: minimize c.x subject to
    a_eq.x == b_eq and x >= 0.

    Two-phase simplex with Bland's rule, fraction-free: the integer-
    preserving pivot of Edmonds (1967) and Bareiss (1968).  The tableau
    holds ints over one common denominator D > 0, the last pivot; a pivot on
    p updates every other row x by its pivot-column entry f and the pivot
    row y as (p*x - f*y) // D, a division that is always exact.  Where
    p = D = 1 (nearly every pivot of the cone LPs) that is x - f*y, and a
    row with f = 0 is left as it is.  Returns a tuple (status, x, den)
    with status one of "optimal", "infeasible", "unbounded"; x and den are
    None unless status is "optimal".  Then the solution is x / den: x is a
    list of ints, den > 0 and gcd(den, *x) = 1.  x is read off the basic
    rows over D and divided by gcd(D, *x), and it is re-checked over its
    nonzero entries, as x >= 0 and a . x = b * den for every row.  Every
    entry of c, b_eq and the constraint rows must be an int: anything else
    raises TypeError.

    Columns are built on demand (partial pricing).  Beside its right-hand
    side each row keeps its part of the block M = D * B^-1, the artificial
    columns, so column j of the tableau is M . T0[:, j] for the starting
    tableau T0, the equality rows with the sign of each row whose right-
    hand side is negative flipped, and the objective row keeps its own part
    w, so that it reads w . T0[:, j] + D * cost_j there.  Bland's rule
    enters the first column of negative reduced cost, so the columns past
    the last one the scan has reached are not built; when the scan reaches
    them it builds the next max(built, m) of them.  w is 0 exactly when
    every basic variable costs 0 (M is nonsingular), and then an unbuilt
    column of nonnegative cost cannot enter: the phase ends without
    building it.  Once every column is built the block is dropped.  A
    tableau with at most LAZY_WIDTH columns per row, where the block would
    cost more than the columns it spares, is built whole at once.  The
    pivots, and so the results, are those of the whole tableau.  start, an
    LPStart, replaces a_eq, so LPs over the same rows check them once.
    """
    if start is None:
        start = LPStart(a_eq)
    elif a_eq is not None:
        raise ValueError("lp_min takes its constraint rows either in start "
                         "or as a_eq")
    rows = start.rows
    cost = ints(c, "lp_min", "c")
    b_eq = ints(b_eq or [], "lp_min", "b_eq")
    if len(b_eq) != len(rows):
        raise ValueError("lp_min needs one right-hand side per constraint "
                         "row")
    m = len(rows)
    # Every row starts with an artificial basic variable, numbered ncol + i;
    # phase 1 never lets one enter, so their columns are not built.
    ncol = len(cost)
    if any(len(r) != ncol for r in rows):
        raise ValueError("lp_min needs one entry per variable in each "
                         "constraint row")
    t0, b0 = [], []
    for r, b in zip(rows, b_eq):
        if b < 0:
            r = [-x for x in r]
            b = -b
        t0.append(r)
        b0.append(b)
    # a row is [rhs, its part of the block, the built columns]; column j
    # sits at base + j
    if ncol > LAZY_WIDTH * m:
        tab = [[b] + [int(k == i) for k in range(m)]
               for i, b in enumerate(b0)]
        base, built = 1 + m, 0
    else:
        tab = [[b] + r for r, b in zip(t0, b0)]
        base, built = 1, ncol
    basis = [ncol + i for i in range(m)]
    d = 1

    def pivot(col, rowi, obj):
        nonlocal d
        pr = tab[rowi]
        k = base + col
        p = pr[k]
        # with p = d a row that is 0 in the pivot column stays as it is
        for i, row in enumerate(tab):
            if i != rowi and (row[k] or p != d):
                tab[i] = _eliminate(row, pr, k, p, d)
        if obj is not None:
            obj[:] = _eliminate(obj, pr, k, p, d)
        basis[rowi] = col
        d = p

    def extend(obj, cost):
        # build the next max(built, m) columns, so that a scan to the end
        # extends only O(log ncol) times: each row gains M[i] . T0 over
        # them, summed over the nonzero entries of its block, and the
        # objective w . T0 + D * cost (phase 1's cost, None, is 0)
        nonlocal built, base
        upto = min(ncol, built + max(built, m, 1))
        part = [r[built:upto] for r in t0]
        for row in tab + [obj]:
            new = [0] * (upto - built)
            for x, t in zip(row[1:base], part):
                if x:
                    new = [y + x * z for y, z in zip(new, t)]
            row.extend(new)
        if cost is not None:
            for j in range(built, upto):
                if cost[j]:
                    obj[base + j] += d * cost[j]
        built = upto
        if built == ncol:
            for row in tab + [obj]:
                del row[1:base]
            base = 1

    def entering(obj, cost, last_neg):
        # Bland: the first column with a negative reduced cost, or -1
        scanned = 0
        while True:
            for j in range(base + scanned, len(obj)):
                if obj[j] < 0:
                    return j - base
            scanned = built
            if built == ncol or (last_neg < built and not any(obj[1:base])):
                return -1
            extend(obj, cost)

    def solve_phase(obj, cost, last_neg):
        # cost is None in phase 1, whose costs are all 0; last_neg is the
        # last column of negative cost, or -1
        while True:
            col = entering(obj, cost, last_neg)
            if col < 0:
                return "optimal"
            k = base + col
            # Bland's ratio test: least b_i / t_i over t_i > 0, ties to the
            # least basis index; the common denominator D cancels
            rowi = -1
            for i, row in enumerate(tab):
                t = row[k]
                if t > 0:
                    if rowi < 0:
                        rowi = i
                        continue
                    lhs = row[0] * tab[rowi][k]
                    rhs = tab[rowi][0] * t
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[rowi]):
                        rowi = i
            if rowi < 0:
                return "unbounded"
            pivot(col, rowi, obj)

    # phase 1: minimize the sum of artificials; the objective's block part
    # w starts at -1 in every row, pricing column j at -sum(T0[:, j])
    obj1 = ([-sum(b0)] + [-1] * (base - 1) +
            ([-sum(col) for col in zip(*t0)] if built else []))
    solve_phase(obj1, None, -1)
    if obj1[0] != 0:
        return ("infeasible", None, None)
    # drive remaining artificials out of the basis where possible; their
    # value is 0, so negating the row to make the pivot positive keeps the
    # right-hand side and D > 0.  A basic artificial made the last scan of
    # phase 1 build every column, so base is 1 here.
    for i in range(m):
        if basis[i] >= ncol:
            j = next((j for j in range(ncol) if tab[i][1 + j]), None)
            if j is not None:
                if tab[i][1 + j] < 0:
                    tab[i] = [-x for x in tab[i]]
                pivot(j, i, None)
    # an artificial still basic sits on a zero row (a redundant equality)
    keep = [i for i in range(m) if basis[i] < ncol]
    tab[:] = [tab[i] for i in keep]
    basis[:] = [basis[i] for i in keep]
    # phase 2: D * (reduced costs of c)
    obj2 = [0] * base + [d * x for x in cost[:built]]
    for row, bi in zip(tab, basis):
        if cost[bi]:
            f = cost[bi]
            obj2 = [o - f * t for o, t in zip(obj2, row)]
    last_neg = max((j for j, x in enumerate(cost) if x < 0), default=-1)
    if solve_phase(obj2, cost, last_neg) != "optimal":
        return ("unbounded", None, None)
    # x over D: a non-basic variable is 0; then over its least denominator
    x = [0] * ncol
    for row, bi in zip(tab, basis):
        x[bi] = row[0]
    g = gcd(d, *x)
    den = d // g
    if g != 1:
        x = [v // g for v in x]
    # an exact feasibility certificate over the nonzero entries of x
    support = [(j, v) for j, v in enumerate(x) if v]
    if any(v < 0 for _j, v in support):
        raise RuntimeError("lp_min solution is negative")
    for a, b in zip(rows, b_eq):
        if sum(a[j] * v for j, v in support) != b * den:
            raise RuntimeError("lp_min solution violates an equality")
    return ("optimal", x, den)
