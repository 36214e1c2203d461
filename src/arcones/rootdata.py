"""Dynkin combinatorics: valued quivers, Cartan data, the star involution,
roots.

Vertices are labelled 1..n following the LiE/Bourbaki convention.  All
weights are integer row vectors in the fundamental-weight basis; the simple
root alpha_i corresponds to row i of the Cartan matrix.
"""

from dataclasses import dataclass
from math import gcd

from .exact import mat_mul

NUM_POS_ROOTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


def dynkin_edges(letter, rank):
    """Unordered diagram edges (i, j) in Bourbaki labelling."""
    if letter in "ABCFG":
        if letter == "F" and rank != 4:
            raise ValueError("type F has rank 4")
        if letter == "G" and rank != 2:
            raise ValueError("type G has rank 2")
        if letter in "BC" and rank < 2:
            raise ValueError("types B and C need rank >= 2")
        if rank < 1:
            raise ValueError("rank must be positive")
        return [(i, i + 1) for i in range(1, rank)]
    if letter == "D":
        if rank < 3:
            raise ValueError("type D needs rank >= 3")
        return [(i, i + 1) for i in range(1, rank - 1)] + [(rank - 2, rank)]
    if letter == "E":
        if rank not in (6, 7, 8):
            raise ValueError("type E has rank 6, 7 or 8")
        return [(1, 3)] + [(i, i + 1) for i in range(3, rank)] + [(2, 4)]
    raise ValueError("unknown Dynkin type %r" % letter)


def cartan_matrix(letter, rank):
    """Cartan matrix with convention C[i][j] = <alpha_i, alpha_j^vee>."""
    edges = dynkin_edges(letter, rank)
    c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in edges:
        c[i - 1][j - 1] = -1
        c[j - 1][i - 1] = -1
    if letter == "B":
        c[rank - 2][rank - 1] = -2
    elif letter == "C":
        c[rank - 1][rank - 2] = -2
    elif letter == "F":
        c[1][2] = -2
    elif letter == "G":
        c[1][0] = -3
    return c


def symmetrizer(cartan):
    """Minimal positive integer d with C * diag(d) symmetric."""
    n = len(cartan)
    d = [None] * n
    d[0] = 1
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if i != j and cartan[i][j] != 0 and d[i] is not None and d[j] is None:
                    # C[i][j] d_j = C[j][i] d_i; scale the d found so far
                    # so that d_j is an int
                    num, den = d[i] * cartan[j][i], cartan[i][j]
                    s = abs(den) // gcd(num, den)
                    d = [None if x is None else x * s for x in d]
                    d[j] = num * s // den
                    changed = True
    if any(x is None for x in d):
        raise ValueError("Dynkin diagram is not connected")
    g = gcd(*d)
    return [x // g for x in d]


@dataclass(frozen=True)
class ValuedQuiver:
    """A valued quiver of Dynkin type."""

    letter: str
    n: int
    arrows: tuple          # ordered pairs (i, j), 1-based
    valuation: dict        # (i, j) -> (c_ij, c_ji)
    d: tuple               # symmetrizer

    def c(self, i, j):
        """The value c_{i,j}; zero unless i, j are adjacent."""
        if (i, j) in self.valuation:
            return self.valuation[(i, j)][0]
        if (j, i) in self.valuation:
            return self.valuation[(j, i)][1]
        return 0

    @property
    def trivially_valued(self):
        return all(v == (1, 1) for v in self.valuation.values())

    def topological_order(self):
        """Vertex order with i before j for every arrow (i, j)."""
        order, seen = [], set()
        out = {i: [] for i in range(1, self.n + 1)}
        indeg = {i: 0 for i in range(1, self.n + 1)}
        for i, j in self.arrows:
            out[i].append(j)
            indeg[j] += 1
        queue = sorted(i for i in indeg if indeg[i] == 0)
        while queue:
            v = queue.pop(0)
            order.append(v)
            seen.add(v)
            for w in out[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
            queue.sort()
        if len(order) != self.n:
            raise ValueError("quiver has an oriented cycle")
        return order

    def to_json_dict(self):
        return {
            "type": self.letter,
            "rank": self.n,
            "arrows": [list(a) for a in self.arrows],
            "valuation": {"%d,%d" % a: list(v) for a, v in self.valuation.items()},
            "d": list(self.d),
        }

    def to_dot(self):
        lines = ["digraph Q {"]
        for i in range(1, self.n + 1):
            lines.append('  %d [label="%d"];' % (i, i))
        for (i, j) in self.arrows:
            a, b = self.valuation[(i, j)]
            label = "" if (a, b) == (1, 1) else ' [label="(%d,%d)"]' % (a, b)
            lines.append("  %d -> %d%s;" % (i, j, label))
        lines.append("}")
        return "\n".join(lines)


def default_orientation(letter, rank):
    """Linear for A/B/C/F/G, legs toward the branch vertex for D/E."""
    edges = dynkin_edges(letter, rank)
    if letter in "ABCFG":
        return [(i, j) for i, j in edges]
    branch = rank - 2 if letter == "D" else 4
    arrows = []
    for i, j in edges:
        # orient the edge along its leg, toward the branch vertex
        di = _leg_distance(edges, i, branch)
        dj = _leg_distance(edges, j, branch)
        arrows.append((i, j) if di > dj else (j, i))
    return arrows


def _leg_distance(edges, v, target):
    adj = {}
    for i, j in edges:
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    dist = {v: 0}
    queue = [v]
    while queue:
        x = queue.pop(0)
        if x == target:
            return dist[x]
        for y in adj.get(x, []):
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    raise ValueError("disconnected diagram")


def build_dynkin(letter, rank, orientation=None):
    """Build the ValuedQuiver for a Dynkin type with a chosen orientation.

    ``orientation`` is a list of ordered pairs covering every diagram edge
    exactly once; omitted means the default orientation.
    """
    letter = letter.upper()
    edges = dynkin_edges(letter, rank)
    if orientation is None:
        orientation = default_orientation(letter, rank)
    eset = {frozenset(e) for e in edges}
    oset = [frozenset(a) for a in orientation]
    if sorted(map(sorted, eset)) != sorted(map(sorted, set(oset))) or len(oset) != len(eset):
        raise ValueError("orientation must list every diagram edge exactly once")
    cart = cartan_matrix(letter, rank)
    d = symmetrizer(cart)
    valuation = {}
    for (i, j) in orientation:
        valuation[(i, j)] = (-cart[j - 1][i - 1], -cart[i - 1][j - 1])
    return ValuedQuiver(letter, rank, tuple(orientation), valuation, tuple(d))


@dataclass(frozen=True)
class CartanData:
    Q: ValuedQuiver
    E_l: list
    E_r: list
    D: list
    euler: list
    cartan: list


def cartan_data(Q):
    """E_l, E_r, Euler matrix E(Q) = E_l D = D E_r and Cartan C(G) = E_l + E_r^T."""
    n = Q.n
    el = [[0] * n for _ in range(n)]
    er = [[0] * n for _ in range(n)]
    for i in range(1, n + 1):
        el[i - 1][i - 1] = 1
        er[i - 1][i - 1] = 1
    for (i, j) in Q.arrows:
        el[i - 1][j - 1] = -Q.c(j, i)
        er[i - 1][j - 1] = -Q.c(i, j)
    dmat = [[Q.d[i] if i == j else 0 for j in range(n)] for i in range(n)]
    euler = mat_mul(el, dmat)
    if euler != mat_mul(dmat, er):
        raise RuntimeError("E_l D != D E_r")
    cart = [[el[i][j] + er[j][i] for j in range(n)] for i in range(n)]
    if cart != cartan_matrix(Q.letter, n):
        raise RuntimeError("Cartan matrix mismatch")
    return CartanData(Q, el, er, dmat, euler, cart)


def star_involution(cd):
    """The involution i -> i* with w0(alpha_i) = -alpha_{i*}.

    Computed without generating W: identity except for types A, D_odd, E6.
    """
    letter, n = cd.Q.letter, cd.Q.n
    star = {i: i for i in range(1, n + 1)}
    if letter == "A":
        star = {i: n + 1 - i for i in range(1, n + 1)}
    elif letter == "D" and n % 2 == 1:
        star[n - 1], star[n] = n, n - 1
    elif letter == "E" and n == 6:
        star = {1: 6, 6: 1, 3: 5, 5: 3, 2: 2, 4: 4}
    return star


def positive_roots(cd):
    """All positive roots, in simple-root coordinates.

    Returns a list of (alpha_coords, fw_coords) pairs (tuples of ints).
    """
    cart = cd.cartan
    n = len(cart)
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(simples)
    queue = list(simples)
    while queue:
        k = queue.pop()
        for i in range(n):
            pair = sum(k[j] * cart[j][i] for j in range(n))
            k2 = list(k)
            k2[i] -= pair
            k2 = tuple(k2)
            if k2 not in seen:
                seen.add(k2)
                queue.append(k2)
    pos = sorted(k for k in seen if all(x >= 0 for x in k) and any(k))
    expected = NUM_POS_ROOTS[cd.Q.letter](n)
    if len(pos) != expected:
        raise RuntimeError("positive root count %d != %d" % (len(pos), expected))
    out = []
    for k in pos:
        fw = tuple(sum(k[j] * cart[j][i] for j in range(n)) for i in range(n))
        out.append((k, fw))
    return out
