"""Independent classical Lie-theory oracles.

Freudenthal weight multiplicities, Brauer-Klimyk tensor decomposition,
Kostant's partition function, and the type-A Littlewood-Richardson tableau
rule.  These are deliberately separate from the quiver machinery so they
can serve as cross-checks.

All weights are integer tuples in fundamental-weight coordinates.  Every
call computes in ints: the forms of each Cartan datum are scaled to integers
once (`_forms`), and each formula ends in one exact `divmod`.

Multiplicities are W-invariant, so Freudenthal's recursion runs in the
dominant chamber only (Moody & Patera 1982): the dominant weights of L(mu)
are enumerated by subtracting positive roots from mu through dominant
weights, the recursion visits them in decreasing height and reads each
m(lam + k alpha) at the dominant representative of lam + k alpha, and the
full weight dict is then the union of their W-orbits.  Brauer-Klimyk sums
over the weights of the factor with the smaller Weyl dimension.  A
decomposition lists its components in one canonical order, decreasing
height with ties broken by lam, whichever factor comes first.
"""

from collections import namedtuple
from functools import cache

from .exact import dot, ints, scaled_inverse, vec_mat
from .rootdata import positive_roots

_memo = {}

_Forms = namedtuple("_Forms", "den gram roots height mirrors")


def _forms(cd):
    """The integer forms of the Cartan datum C of cd, built once.

    den is the least denominator of C^-1 (exact.scaled_inverse), and
    gram[i][j] = den (C^-1)_ij d_j, so den (lam, mu) = mu . gram . lam.
    roots pairs each positive root alpha (fundamental-weight coordinates)
    with r_alpha = alpha . gram, so den (lam, alpha) = r_alpha . lam.
    height . w, with height[i] = den sum_j (C^-1)_ij, is den times the
    height of w.
    mirrors[i] lists the (j, C_ij) with j != i and C_ij != 0: the simple
    reflection s_i maps w to w - w_i alpha_i, which negates w_i and moves
    only those w_j.
    """
    key = ("forms", cd.Q.letter, cd.Q.n)
    if key not in _memo:
        den, inv = scaled_inverse(cd.cartan)
        gram = tuple(tuple(x * d for x, d in zip(row, cd.Q.d)) for row in inv)
        roots = tuple((alpha, tuple(vec_mat(alpha, gram)))
                      for _, alpha in positive_roots(cd))
        height = tuple(sum(row) for row in inv)
        mirrors = tuple(tuple((j, c) for j, c in enumerate(row)
                              if j != i and c)
                        for i, row in enumerate(cd.cartan))
        _memo[key] = _Forms(den, gram, roots, height, mirrors)
    return _memo[key]


def _norm(forms, v):
    """den (v, v)."""
    return dot(vec_mat(v, forms.gram), v)


def _check_dominant(what, *weights):
    if any(x < 0 for w in weights for x in w):
        raise ValueError("%s must be dominant" % what)


def _canonical(forms, weights):
    """weights in decreasing height, ties broken by the weight tuple."""
    return sorted(weights, key=lambda w: (-dot(forms.height, w), w))


def weyl_dimension(cd, mu):
    """dim L(mu) by the Weyl dimension formula: the product of the
    den (mu + rho, alpha) over the positive roots, over that of
    den (rho, alpha), kept per weight."""
    _check_dominant("mu", mu)
    key = ("dim", cd.Q.letter, cd.Q.n, tuple(mu))
    if key not in _memo:
        lam_rho = [m + 1 for m in mu]
        num = denom = 1
        for _, r in _forms(cd).roots:
            num *= dot(r, lam_rho)
            denom *= sum(r)           # r . rho, as rho = (1, ..., 1)
        dim, rem = divmod(num, denom)
        if rem:
            raise RuntimeError("dim L(%s) = %d/%d is not an integer"
                               % (mu, num, denom))
        _memo[key] = dim
    return _memo[key]


def _mirror(forms, v, i):
    """Apply the simple reflection s_i to the weight list v in place."""
    x = v[i]
    v[i] = -x
    for j, c in forms.mirrors[i]:
        v[j] -= x * c


def _reflect(forms, v):
    """Reflect the weight v into the dominant chamber.

    Applies s_i at the first negative coordinate until there is none, and
    returns (the dominant representative of v, the number of reflections).
    This is the module's one reflection loop: `freudenthal` reads
    multiplicities at dominant representatives, and `_straighten` adds the
    wall test and the sign.
    """
    v = list(v)
    flips = 0
    i = 0
    while i < len(v):
        if v[i] < 0:
            _mirror(forms, v, i)
            flips += 1
            i = 0
        else:
            i += 1
    return tuple(v), flips


def _straighten(forms, v):
    """Reflect v to the dominant chamber, tracking the sign.

    Returns (sign, dominant vector); sign 0 when v lies on a wall, that is
    when its dominant representative does.
    """
    dom, flips = _reflect(forms, v)
    if 0 in dom:
        return 0, None
    return (-1 if flips % 2 else 1), dom


def _dominant_weights(cd, mu):
    """The dominant weights of L(mu), in decreasing height, ties broken by
    the weight tuple.

    Subtracting positive roots from mu while the result stays dominant
    reaches every dominant weight below mu (Stembridge 1998, "The partial
    order of dominant weights"), and those are the dominant weights of
    L(mu).
    """
    forms = _forms(cd)
    seen = {mu}
    stack = [mu]
    while stack:
        w = stack.pop()
        for alpha, _ in forms.roots:
            down = tuple(x - a for x, a in zip(w, alpha))
            if min(down) >= 0 and down not in seen:
                seen.add(down)
                stack.append(down)
    return _canonical(forms, seen)


def freudenthal(cd, mu):
    """Weight multiplicities of the irreducible L(mu).

    Returns a dict {weight tuple: multiplicity} covering every weight of
    L(mu) (the full Weyl-invariant set, not just the dominant ones): each
    dominant weight in decreasing height, ties broken by the weight tuple,
    followed by the rest of its W-orbit.

    Freudenthal's recursion runs on the dominant weights only, in
    decreasing height, and reads m(lam + k alpha) at the dominant
    representative of lam + k alpha, as multiplicities are W-invariant
    (Moody & Patera 1982).  Both sides are scaled by den, so each
    multiplicity is one exact division.  The orbits are then expanded by
    simple reflections, and the total is checked to equal the Weyl
    dimension formula value.  Raises TypeError on an entry of mu that is
    not an int.
    """
    mu = tuple(ints(mu, "freudenthal", "mu"))
    _check_dominant("mu", mu)
    key = ("fr", cd.Q.letter, cd.Q.n, mu)
    if key in _memo:
        return _memo[key]
    forms = _forms(cd)
    dominant = _dominant_weights(cd, mu)
    is_weight = set(dominant)
    mult = {mu: 1}
    c_mu = _norm(forms, [m + 1 for m in mu])
    for lam in dominant:
        if lam == mu:
            continue
        acc = 0
        for alpha, r in forms.roots:
            up = tuple(l + a for l, a in zip(lam, alpha))
            while True:
                dom = _reflect(forms, up)[0]
                if dom not in is_weight:
                    break
                if dom not in mult:
                    raise RuntimeError(
                        "multiplicity of %s in L(%s) read before it is "
                        "computed" % (dom, mu))
                acc += mult[dom] * dot(r, up)
                up = tuple(u + a for u, a in zip(up, alpha))
        denom = c_mu - _norm(forms, [l + 1 for l in lam])
        m, rem = divmod(2 * acc, denom)
        if rem or m <= 0:
            raise RuntimeError("multiplicity %d/%d of %s in L(%s)"
                               % (2 * acc, denom, lam, mu))
        mult[lam] = m
    full = {}
    for lam in dominant:
        m = full[lam] = mult[lam]
        orbit = [lam]
        for w in orbit:
            for i, x in enumerate(w):
                if x > 0:
                    image = list(w)
                    _mirror(forms, image, i)
                    image = tuple(image)
                    if image not in full:
                        full[image] = m
                        orbit.append(image)
    if sum(full.values()) != weyl_dimension(cd, mu):
        raise RuntimeError("weight multiplicities of L(%s) do not add up to "
                           "its dimension" % (mu,))
    _memo[key] = full
    return full


def tensor_multiplicity(cd, mu, nu, lam):
    """c^lam_{mu,nu}: the lam entry of `tensor_decomposition`."""
    mu, nu, lam = tuple(mu), tuple(nu), tuple(lam)
    _check_dominant("all three weights", mu, nu, lam)
    return tensor_decomposition(cd, mu, nu).get(lam, 0)


def tensor_decomposition(cd, mu, nu):
    """Full decomposition of L(mu) (x) L(nu) as {lam: multiplicity}, by the
    Brauer-Klimyk signed-orbit sum.

    The sum runs over the weights of whichever factor has the smaller Weyl
    dimension, as L(mu) (x) L(nu) and L(nu) (x) L(mu) are isomorphic.  The
    components come in decreasing height, ties broken by lam, so the
    result does not depend on the order of mu and nu.
    """
    mu, nu = tuple(mu), tuple(nu)
    _check_dominant("mu and nu", mu, nu)
    dim_mu, dim_nu = weyl_dimension(cd, mu), weyl_dimension(cd, nu)
    if dim_nu > dim_mu:
        mu, nu = nu, mu
    forms = _forms(cd)
    out = {}
    for xi, m in freudenthal(cd, nu).items():
        sign, dom = _straighten(forms, [a + x + 1 for a, x in zip(mu, xi)])
        if sign:
            lam = tuple(x - 1 for x in dom)
            out[lam] = out.get(lam, 0) + sign * m
    out = {lam: out[lam] for lam in _canonical(forms, out) if out[lam]}
    if any(c < 0 for c in out.values()):
        raise RuntimeError("negative multiplicity in %s x %s" % (mu, nu))
    total = sum(c * weyl_dimension(cd, lam) for lam, c in out.items())
    if total != dim_mu * dim_nu:
        raise RuntimeError("dimensions of %s x %s do not add up" % (mu, nu))
    return out


def kostant_partition(cd, gamma):
    """Kostant's partition function: the number of ways to write gamma
    (a weight in fundamental-weight coordinates) as a nonnegative integer
    combination of the positive roots of the CartanData cd.  Returns 0
    outside the root cone.

    Only the non-simple roots are enumerated, memoized on (root index,
    remainder): the simple roots then fill any nonnegative remainder in
    exactly one way.
    """
    forms = _forms(cd)
    # the simple-root coordinates k = gamma . C^-1 of gamma, from
    # gamma . gram = den (d_j k_j)_j
    k = []
    for x, d in zip(vec_mat(gamma, forms.gram), cd.Q.d):
        q, r = divmod(x, forms.den * d)
        if r or q < 0:
            return 0
        k.append(q)
    roots = [a for a, _fw in positive_roots(cd) if sum(a) > 1]

    @cache
    def rec(idx, rem):
        if idx == len(roots):
            return 1
        a = roots[idx]
        total = 0
        while all(x >= 0 for x in rem):
            total += rec(idx + 1, rem)
            rem = tuple(x - y for x, y in zip(rem, a))
        return total

    return rec(0, tuple(k))


def weight_to_partition(n, mu):
    """Dominant A_n weight -> partition with n+1 parts (last may be 0)."""
    return tuple(sum(mu[j] for j in range(i, n)) for i in range(n)) + (0,)


def lr_coefficient(a, b, c):
    """Littlewood-Richardson coefficient c^c_{a,b} for partitions.

    Counts LR skew tableaux of shape c/a with content b: semistandard
    fillings whose reverse reading word is a lattice word.
    """
    a, b, c = tuple(a), tuple(b), tuple(c)
    if sum(a) + sum(b) != sum(c):
        return 0
    rows = len(c)
    a = a + (0,) * (rows - len(a))
    if any(c[i] < a[i] for i in range(rows)):
        return 0
    nvals = len(b)
    # cells in reverse reading order: each row right-to-left, top to bottom
    cells = [(r, col) for r in range(rows) for col in range(c[r] - 1, a[r] - 1, -1)]
    grid = [[0] * c[r] for r in range(rows)]
    remaining = list(b)
    count = 0

    def fill(idx, latt):
        nonlocal count
        if idx == len(cells):
            count += 1
            return
        r, col = cells[idx]
        lo, hi = 1, nvals
        if col + 1 < c[r] and grid[r][col + 1]:
            hi = min(hi, grid[r][col + 1])       # weakly increasing rows
        if r > 0 and col < len(grid[r - 1]) and grid[r - 1][col]:
            lo = max(lo, grid[r - 1][col] + 1)   # strictly increasing columns
        for v in range(lo, hi + 1):
            if remaining[v - 1] == 0:
                continue
            if v > 1 and latt[v - 1] + 1 > latt[v - 2]:
                continue                          # lattice word condition
            grid[r][col] = v
            remaining[v - 1] -= 1
            latt[v - 1] += 1
            fill(idx + 1, latt)
            latt[v - 1] -= 1
            remaining[v - 1] += 1
            grid[r][col] = 0

    fill(0, [0] * nvals)
    return count


def lr_from_weights(n, mu, nu, lam):
    """Type A_n tensor multiplicity via the LR rule on padded partitions."""
    a = list(weight_to_partition(n, mu))
    b = list(weight_to_partition(n, nu))
    c = list(weight_to_partition(n, lam))
    k = sum(a) + sum(b) - sum(c)
    if k % (n + 1) != 0:
        return 0
    k //= (n + 1)
    if k < 0:
        a = [x - k for x in a]
    elif k > 0:
        c = [x + k for x in c]
    b = [x for x in b if x > 0]
    return lr_coefficient(tuple(a), tuple(b), tuple(c))
