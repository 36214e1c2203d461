"""Independent classical Lie-theory oracles.

Freudenthal weight multiplicities, Brauer-Klimyk tensor decomposition, and
the type-A Littlewood-Richardson tableau rule.  These are deliberately
separate from the quiver machinery so they can serve as cross-checks.

All weights are integer tuples in fundamental-weight coordinates.
"""

from fractions import Fraction

from .exact import mat_inv

_memo = {}


def _inv_cartan(cd):
    key = ("inv", cd.Q.letter, cd.Q.n)
    if key not in _memo:
        _memo[key] = mat_inv(cd.cartan)
    return _memo[key]


def _pairing(cd, lam, mu):
    """Weyl-invariant bilinear form (lam, mu), exact Fraction."""
    inv = _inv_cartan(cd)
    n = cd.Q.n
    # coordinates of mu on the fundamental coweights: k = mu . C^{-1}
    k = [sum(mu[i] * inv[i][j] for i in range(n)) for j in range(n)]
    return sum(Fraction(lam[j]) * cd.Q.d[j] * k[j] for j in range(n))


def _height(cd, mu, lam):
    """Sum of the simple-root coordinates of mu - lam."""
    inv = _inv_cartan(cd)
    n = cd.Q.n
    diff = [mu[j] - lam[j] for j in range(n)]
    return sum(sum(diff[i] * inv[i][j] for i in range(n)) for j in range(n))


def weyl_dimension(cd, mu):
    """dim L(mu) by the Weyl dimension formula, exact."""
    from .rootdata import positive_roots

    rho = (1,) * cd.Q.n
    lam_rho = tuple(m + 1 for m in mu)
    num, den = Fraction(1), Fraction(1)
    for _, alpha in positive_roots(cd):
        num *= _pairing(cd, lam_rho, alpha)
        den *= _pairing(cd, rho, alpha)
    dim = num / den
    if dim.denominator != 1:
        raise RuntimeError("dim L(%s) = %s is not an integer" % (mu, dim))
    return int(dim)


def _weight_saturation(cd, mu):
    """All weights of L(mu): close mu under lam -> lam - k*alpha_i, k<=lam_i."""
    cart = cd.cartan
    n = cd.Q.n
    seen = {tuple(mu)}
    queue = [tuple(mu)]
    while queue:
        w = queue.pop()
        for i in range(n):
            for k in range(1, w[i] + 1):
                w2 = tuple(w[j] - k * cart[i][j] for j in range(n))
                if w2 not in seen:
                    seen.add(w2)
                    queue.append(w2)
    return seen


def freudenthal(cd, mu):
    """Weight multiplicities of the irreducible L(mu).

    Returns a dict {weight tuple: multiplicity} covering every weight of
    L(mu) (the full Weyl-invariant set, not just the dominant ones).  The
    total is asserted to equal the Weyl dimension formula value.
    """
    mu = tuple(int(x) for x in mu)
    if any(x < 0 for x in mu):
        raise ValueError("mu must be dominant")
    key = ("fr", cd.Q.letter, cd.Q.n, mu)
    if key in _memo:
        return _memo[key]
    from .rootdata import positive_roots

    n = cd.Q.n
    rho = (1,) * n
    weights = sorted(_weight_saturation(cd, mu), key=lambda w: _height(cd, mu, w))
    pos = [fw for _, fw in positive_roots(cd)]
    wset = set(weights)
    mult = {tuple(mu): 1}
    c_mu = _pairing(cd, tuple(a + b for a, b in zip(mu, rho)),
                    tuple(a + b for a, b in zip(mu, rho)))
    for lam in weights:
        if lam == mu:
            continue
        acc = Fraction(0)
        for alpha in pos:
            k = 1
            while True:
                up = tuple(l + k * a for l, a in zip(lam, alpha))
                if up not in wset:
                    break
                acc += mult[up] * _pairing(cd, up, alpha)
                k += 1
        lam_rho = tuple(a + b for a, b in zip(lam, rho))
        denom = c_mu - _pairing(cd, lam_rho, lam_rho)
        m = 2 * acc / denom
        if m.denominator != 1 or m <= 0:
            raise RuntimeError("multiplicity %s of %s in L(%s)"
                               % (m, lam, mu))
        mult[lam] = int(m)
    if sum(mult.values()) != weyl_dimension(cd, mu):
        raise RuntimeError("weight multiplicities of L(%s) do not add up to "
                           "its dimension" % (mu,))
    _memo[key] = mult
    return mult


def _straighten(cd, v):
    """Reflect v to the dominant chamber, tracking the sign.

    Returns (sign, dominant vector); sign 0 when v lies on a wall.
    """
    cart = cd.cartan
    n = cd.Q.n
    v = list(v)
    sign = 1
    while True:
        i = next((i for i in range(n) if v[i] < 0), None)
        if i is None:
            break
        if any(x == 0 for x in v):
            return 0, None
        pivot = v[i]
        v = [x - pivot * cart[i][j] for j, x in enumerate(v)]
        sign = -sign
    if any(x == 0 for x in v):
        return 0, None
    return sign, tuple(v)


def tensor_multiplicity(cd, mu, nu, lam):
    """c^lam_{mu,nu} by the Brauer-Klimyk signed-orbit algorithm."""
    mu, nu, lam = tuple(mu), tuple(nu), tuple(lam)
    if any(x < 0 for w in (mu, nu, lam) for x in w):
        raise ValueError("all three weights must be dominant")
    n = cd.Q.n
    target = tuple(lam[j] + 1 for j in range(n))
    total = 0
    for xi, m in freudenthal(cd, nu).items():
        v = tuple(mu[j] + xi[j] + 1 for j in range(n))
        sign, dom = _straighten(cd, v)
        if sign and dom == target:
            total += sign * m
    if total < 0:
        raise RuntimeError("negative multiplicity of %s in %s x %s"
                           % (lam, mu, nu))
    return total


def tensor_decomposition(cd, mu, nu):
    """Full decomposition of L(mu) (x) L(nu) as {lam: multiplicity}."""
    mu, nu = tuple(mu), tuple(nu)
    n = cd.Q.n
    out = {}
    for xi, m in freudenthal(cd, nu).items():
        v = tuple(mu[j] + xi[j] + 1 for j in range(n))
        sign, dom = _straighten(cd, v)
        if sign:
            lam = tuple(x - 1 for x in dom)
            out[lam] = out.get(lam, 0) + sign * m
    out = {lam: c for lam, c in out.items() if c != 0}
    if any(c < 0 for c in out.values()):
        raise RuntimeError("negative multiplicity in %s x %s" % (mu, nu))
    total = sum(c * weyl_dimension(cd, lam) for lam, c in out.items())
    if total != weyl_dimension(cd, mu) * weyl_dimension(cd, nu):
        raise RuntimeError("dimensions of %s x %s do not add up" % (mu, nu))
    return out


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
