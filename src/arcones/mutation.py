"""Skew-symmetrizable mutation engine.

B-matrix, g-vector and dual-(g, F) mutation; the mutation sequences
mu_sqrt_l, mu_l with the permutation pi; the cyclic identities report;
and the F-polynomial algorithm that computes all subrepresentation dimension
vectors of the cone modules T_v.  That algorithm mutates each T_v along the
walk mu_l . mu_l, whose last quarter repeats its first relabelled by pi^3;
where the state entering the last quarter is the pi^3-image of the base
state, exactly, the state it reaches is read off the first quarter's.

The first and last quarters are walked in a reordering of the paper's steps.
Mutations at u and v commute where b_uv = 0 (Fomin-Zelevinsky, Cluster
algebras IV): mu_u leaves row and column v as they are, and both orders
give the same seed, dual states included.  So a quarter may be walked in
any order that keeps each step after the earlier steps it depends on:
those at the same vertex, or at a vertex u_k with b_{u_k, u_j} != 0 where
step k is taken.  The order taken always takes next the latest step of
the paper's order whose dependencies are taken (_latest_first; _reordered
walks it and checks it).  At the E6 branch vertex the first quarter's
largest F-polynomial has 103 916 terms in the paper's order and 3 626 in
this one.
"""

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from math import comb
from operator import itemgetter, or_


@dataclass(frozen=True)
class Step:
    """One mutation at index u, with the nonzero off-diagonal entries of
    row u and of column u of the B-matrix it is applied to.  Only these
    entries enter the B-matrix, g-vector and F-polynomial mutation rules."""

    u: int
    row: tuple                   # (v, b[u][v]) with b[u][v] != 0, v != u
    col: tuple                   # (v, b[v][u]) with b[v][u] != 0, v != u

    @classmethod
    def at(cls, b, u):
        return cls(u,
                   tuple((v, x) for v, x in enumerate(b[u]) if x and v != u),
                   tuple((v, r[u]) for v, r in enumerate(b) if r[u] and v != u))

    def apply(self, b):
        """Fomin-Zelevinsky mutation of b, the matrix this step was taken
        from, in place.

        Row u and column u change sign; any other entry b[v][w] changes only
        if b[v][u] and b[u][w] are nonzero with the same sign.
        """
        u = self.u
        bu = b[u]
        for w, buw in self.row:
            bu[w] = -buw
        for v, bvu in self.col:
            bv = b[v]
            bv[u] = -bvu
            for w, buw in self.row:
                if (bvu > 0) == (buw > 0):
                    bv[w] += abs(bvu) * buw


def mutate_b(b, u):
    """Fomin-Zelevinsky matrix mutation at index u; returns a new matrix."""
    out = [list(r) for r in b]
    Step.at(b, u).apply(out)
    return out


def mutate_g(g, b, u):
    """Mutation of a coherent g-vector at u, with b the current B-matrix."""
    gu = g[u]
    out = list(g)
    out[u] = -gu
    for v in range(len(g)):
        if v == u:
            continue
        bvu = b[v][u]
        if bvu >= 0:
            out[v] = g[v] + bvu * max(gu, 0)
        else:
            out[v] = g[v] + bvu * max(-gu, 0)
    return out


def pack_exponents(e):
    """The exponent vector e packed into one int, e[k] in bits 8k .. 8k+7
    (byte k, little-endian); raises ValueError if an entry is outside
    0 .. 255."""
    return int.from_bytes(bytes(e), "little")


@dataclass
class DualTracked:
    """A representation tracked through mutation by (g^vee, F^vee) only.

    fpoly maps each exponent vector, packed by pack_exponents, to its
    positive int coefficient: e[k] = e >> 8k & 0xFF, and the terms that
    agree off u share the key e & ~(0xFF << 8u).
    """

    gdual: list
    fpoly: dict                  # packed exponent -> positive int coefficient


def mutate_dual_state(state, step):
    """Mutation of a dual-tracked representation at step.u.

    step is Step.at(b, u) for the B-matrix b of the current seed; the
    caller mutates b itself.  Returns the new DualTracked.  Raises
    RuntimeError if the result is not an F-polynomial (a remainder, a
    negative exponent or coefficient, no constant term 1), and
    NotImplementedError if an exponent exceeds 255: an 8-bit field of the
    packed keys cannot hold it, and it must not carry into the next one.
    A step that leaves the state as it is (_quiet) returns it after the
    same checks.
    """
    if _quiet(state, step):
        _check_fpoly(state.fpoly)
        return state
    u = step.u
    g = state.gdual
    gu = g[u]
    beta = max(-gu, 0)
    # dual g-vector; it changes at u and where column u of b is nonzero
    g2 = list(g)
    g2[u] = -gu
    for v, bvu in step.col:
        g2[v] += max(-bvu, 0) * gu - bvu * beta
    beta2 = max(gu, 0)

    # F-polynomial: F'(y') = sum_e c_e * y'^(e off u)
    #   * y'_u^(beta - e_u + sum_{v!=u} e_v [b_{u,v}]_+)
    #   * (1+y'_u)^(beta' - beta - sum_{v!=u} e_v b_{u,v})
    # the sums run over the nonzero entries of row u only and do not involve
    # e_u, so the terms that agree off u (one key) share them: each group is
    # (1+t)^q * sum c * t^(beta + sp - e_u) in t = y'_u.
    shift = 8 * u
    clear = ~(0xFF << shift)
    fpoly = state.fpoly
    keys = list(map(clear.__and__, fpoly))
    # the groups of one term, counted at C speed, build no list
    size = Counter(keys)
    # sp and sn read only the bytes of row u's vertices: (top, q) and the
    # binomial row of (1+t)^q once per pattern of those bytes
    rowmask = 0
    for v, _x in step.row:
        rowmask |= 0xFF << 8 * v
    spq = {pat: _pattern(pat, step.row, beta, beta2 - beta)
           for pat in set(map(rowmask.__and__, keys))}
    groups = {}
    newf = {}
    one = 1 << shift
    for key, e, c in zip(keys, fpoly, fpoly.values()):
        top, q, row = spq[key & rowmask]
        if q < 0 or size[key] > 1:
            groups.setdefault(key, []).append((e >> shift & 0xFF, c))
            continue
        # c * t^p * (1+t)^q: the binomial row times c
        p = top - (e >> shift & 0xFF)
        if p < 0:
            raise RuntimeError("negative exponent in mutated F-polynomial")
        if p + q > 0xFF:
            raise _field_overflow(p + q)
        k = key | p << shift
        if q:
            for b in row:
                newf[k] = c * b
                k += one
        else:
            newf[k] = c
    for key, terms in groups.items():
        top, q, row = spq[key & rowmask]
        hi = lo = top - terms[0][0]
        for eu, _ in terms:
            p = top - eu
            if p < lo:
                lo = p
            elif p > hi:
                hi = p
        # sum c * t^p * (1+t)^q; for q < 0, sum c * t^p divided by (1+t)^-q
        arr = [0] * (hi - lo + max(q, 0) + 1)
        for eu, c in terms:
            if q < 0:
                arr[top - eu - lo] += c
            else:
                for k, b in enumerate(row, top - eu - lo):
                    arr[k] += c * b
        for _ in range(-q):
            # synthetic division by (1 + t)
            quot = []
            prev = 0
            for c in arr:
                cur = c - prev
                quot.append(cur)
                prev = cur
            if quot[-1] != 0:
                raise RuntimeError("F-polynomial mutation left a remainder")
            arr = quot[:-1]
        for deg, c in enumerate(arr, lo):
            if c:
                if deg < 0:
                    raise RuntimeError("negative exponent in mutated "
                                       "F-polynomial")
                if deg > 0xFF:
                    raise _field_overflow(deg)
                # groups differ off u, so every key is set once
                newf[key | deg << shift] = c
    _check_fpoly(newf)
    return DualTracked(g2, newf)


def _pattern(pat, row, beta, dq):
    """(top, q, the binomial row of (1+t)^q) of the groups whose keys have
    the bytes pat at the vertices v of row, the (v, b_uv) of row u."""
    sp = sn = 0
    for v, x in row:
        if x > 0:
            sp += (pat >> 8 * v & 0xFF) * x
        else:
            sn += (pat >> 8 * v & 0xFF) * x
    q = dq - sp - sn
    return beta + sp, q, [comb(q, j) for j in range(q + 1)]


def _quiet(state, step):
    """Whether mutating state at step leaves it as it is: g_u = 0 and no
    exponent has a nonzero byte at u or at a vertex of step.row, read off
    the OR of the packed keys.  Then beta = beta' = 0, so g^vee is kept,
    and each term is its own group with t-exponent 0 and q = 0, so F is
    kept term by term."""
    if state.gdual[step.u]:
        return False
    touched = 0xFF << 8 * step.u
    for v, _x in step.row:
        touched |= 0xFF << 8 * v
    return not reduce(or_, state.fpoly, 0) & touched


def _check_fpoly(f):
    """Raise RuntimeError unless f has constant term 1 and no negative
    coefficient, as every mutated F-polynomial must."""
    if f.get(0) != 1:
        raise RuntimeError("mutated F-polynomial has no constant term 1")
    # f is not empty: it has the constant term
    if min(f.values()) < 0:
        raise RuntimeError("negative F-polynomial coefficient")


def _field_overflow(deg):
    return NotImplementedError(
        "F-polynomial exponent %d exceeds 255, the largest the F-polynomial "
        "route packs" % deg)


# ---------------------------------------------------------------------------
# mutation sequences
# ---------------------------------------------------------------------------

@dataclass
class Walk:
    """The B-matrix walk mu_l . mu_l of an ice quiver.

    Built once per quiver (IceQuiver.walk) and shared by the F-polynomial
    route, which mutates every T_v along it, and by the checks.  The walk
    has four quarters of equal length, mu_sqrt_l, pi(mu_sqrt_l), then both
    again; on the mutable vertices pi is an involution, so the last quarter
    walks the vertices of the first relabelled by pi^3, and
    quarter3_is_pi3 records whether its steps (u, row and column entries)
    are exactly those relabelled ones.  steps holds quarters 0 and 3 in
    their latest-first commutation order (b_walk), quarters 1 and 2 in the
    paper's: the walk reaches the same seeds after each quarter, and
    every step is the one the paper's order takes at that vertex, with the
    same row and column.  pi renames vertex k as pi[k], the
    convention of relabel_step, relabel_dual_state and relabel_b; its
    powers are taken where they are used.  pi has order 6: it is an
    involution on the mutable vertices and cycles O_i^- -> Id_i -> O_i^+
    -> O_{i*}^- on the frozen ones.
    """

    steps: list                  # Step per mutation of mu_l, then of mu_l again
    b_sqrt_l: list               # mu_sqrt_l(B)
    b_l: list                    # mu_l(B)
    b_l2: list                   # mu_l(mu_l(B))
    mu_l_is_pi2: bool            # mu_l(Delta) = pi^2(Delta), see _mu_l_is_pi2
    pi: list                     # pi renames vertex k as vertex pi[k]
    quarter3_is_pi3: bool        # steps of quarter 3 = pi^3(steps of quarter 0)


def _power(perm, k):
    """perm^k, k >= 0, for perm renaming vertex j as perm[j]."""
    out = list(range(len(perm)))
    for _ in range(k):
        out = [perm[j] for j in out]
    return out


def b_walk(iq):
    """The Walk of iq, from its full B-matrix.

    mu_sqrt_l mutates, for each mutable vertex at (i, t) in orbit
    coordinates, taken by t and then by the topological order of i, at the
    orbit members tau^s O_i^+ for s = 1 .. t_i - t; mu_l is mu_sqrt_l
    followed by its pi-image.  Each quarter is first walked in this, the
    paper's, order; quarters 0 and 3 are then walked again in the
    latest-first order of _latest_first, which reaches the same seed
    (_reordered checks that it meets the same steps and ends at the same
    B-matrix).  Quarters 1 and 2 stay in the paper's order: latest-first
    makes quarter 1 larger, not smaller (D6 i = 4 goes from 19 256 to
    68 076 term-steps there), and quarter 2 is small in the paper's order
    (390 term-steps at E6 i = 4, against 136 383 in quarter 0).
    """
    cat = iq.cat
    index = iq.index
    pos = {i: k for k, i in enumerate(cat.ar.Q.topological_order())}
    sqrt_l = []
    for p in sorted(iq.mutable,
                    key=lambda p: (cat.orbit[p][1], pos[cat.orbit[p][0]])):
        i, t = cat.orbit[p]
        chain = cat.orbits[i]
        sqrt_l.extend(index[v] for v in chain[1:len(chain) - t])
    pi = [index[cat.pi(v)] for v in iq.vertices]
    pi_sqrt_l = [pi[u] for u in sqrt_l]
    b0 = iq.bmat_full
    # one working matrix, mutated in place and copied at each quarter start
    b = [list(r) for r in b0]
    quarters = []
    starts = []
    for seq in (sqrt_l, pi_sqrt_l, sqrt_l, pi_sqrt_l):
        starts.append([list(r) for r in b])
        quarters.append([])
        for u in seq:
            step = Step.at(b, u)
            quarters[-1].append(step)
            step.apply(b)
    b_sqrt_l, b_l, b_l2 = starts[1], starts[2], b
    quarters[0] = _reordered(quarters[0], b0, b_sqrt_l)
    quarters[3] = _reordered(quarters[3], starts[3], b_l2)
    pi3 = _power(pi, 3)
    return Walk([s for q in quarters for s in q], b_sqrt_l, b_l, b_l2,
                _mu_l_is_pi2(iq, b_l, b0, _power(pi, 2)), pi,
                [relabel_step(s, pi3) for s in quarters[0]] == quarters[3])


def _latest_first(steps):
    """The positions of steps, a quarter walked in the paper's order, in
    their latest-first commutation order.

    Step j depends on an earlier step k when u_j = u_k or u_j is in
    steps[k].row (b_{u_k, u_j} != 0 where step k is taken); the order is
    the linear extension of these dependencies that always takes the
    latest step whose dependencies are all taken.
    """
    q = len(steps)
    waits = [0] * q
    after = [[] for _ in range(q)]
    # each step's vertex with the vertices of its row
    near = [{s.u} | {v for v, _x in s.row} for s in steps]
    for j, sj in enumerate(steps):
        for k in range(j):
            if sj.u in near[k]:
                waits[j] += 1
                after[k].append(j)
    # q <= 90 (E6) on every quiver built here, so a scan picks the latest
    ready = [j for j in range(q) if not waits[j]]
    order = []
    while ready:
        j = max(ready)
        ready.remove(j)
        order.append(j)
        for k in after[j]:
            waits[k] -= 1
            if not waits[k]:
                ready.append(k)
    return order


def _reordered(steps, b, end):
    """steps, a quarter walked from the B-matrix b to end in the paper's
    order, walked from b again in the order of _latest_first.

    Why it reaches the same seed, by induction on the quarter's length:
    drop the paper's last step s.  The order restricted to the rest keeps
    their dependencies, so by induction it meets the paper's steps and
    ends where the paper takes s; with s appended, it reaches the paper's
    seed.  s does not depend on any step x after it in the order: u_x !=
    u_s, and b_{u_x, u_s} = 0 in row u_x of the paper's step x, which is
    the row x meets.  So mu at u_s commutes with mu at u_x there, and s
    moves back past each such x to its place, leaving every step and the
    seed at the end as they were.  The walk checks what the argument
    promises: raises RuntimeError unless each step it meets is the
    paper's step at that vertex (same row and column) and it ends at end.
    """
    out = []
    b = [list(r) for r in b]
    for j in _latest_first(steps):
        step = Step.at(b, steps[j].u)
        if step != steps[j]:
            raise RuntimeError("reordered quarter meets step %d at vertex %d "
                               "with another row or column" % (j, step.u))
        out.append(step)
        step.apply(b)
    if b != end:
        raise RuntimeError("reordered quarter ends at another B-matrix")
    return out


def relabel_step(step, perm):
    """step with vertex k renamed perm[k]: as taken from the B-matrix
    relabelled the same way."""
    return Step(perm[step.u],
                tuple(sorted((perm[v], x) for v, x in step.row)),
                tuple(sorted((perm[v], x) for v, x in step.col)))


def relabel_dual_state(state, perm):
    """state with vertex k renamed perm[k], in gdual and in every exponent.

    mutate_dual_state reads vertices only through step.u, step.row,
    step.col and byte positions, so mutating the relabelled state along the
    relabelled step gives the relabelled result, checks included.
    """
    relabel = _renaming(perm)
    m = len(perm)
    return DualTracked(
        list(relabel(state.gdual)),
        {int.from_bytes(bytes(relabel(e.to_bytes(m, "little"))), "little"): c
         for e, c in state.fpoly.items()})


def _renaming(perm):
    """The function that renames vertex k as perm[k] in a sequence indexed
    by vertex: it sends x to the tuple x' with x'[perm[k]] = x[k]."""
    inv = [0] * len(perm)
    for k, j in enumerate(perm):
        inv[j] = k
    # itemgetter of 4 or more indices (every ice quiver has them) returns a
    # tuple: x'[j] = x[inv[j]]
    return itemgetter(*inv)


def relabel_b(b, perm):
    """The B-matrix b with vertex k renamed perm[k]: B'[perm[u]][perm[v]] =
    B[u][v]."""
    m = len(b)
    out = [[0] * m for _ in range(m)]
    for u in range(m):
        for v in range(m):
            out[perm[u]][perm[v]] = b[u][v]
    return out


def _restricted_equal(b1, b2, iq):
    """Equality on mutable rows (all columns)."""
    for v in iq.mutable:
        u = iq.index[v]
        if b1[u] != b2[u]:
            return False
    return True


def verify_cyclic(iq):
    """Check the cyclic mutation identities; returns a dict report."""
    walk = iq.walk
    pi = walk.pi
    b0 = iq.bmat_full
    quarter = len(walk.steps) // 4
    report = {}

    report["sqrt_l_vs_pi"] = _restricted_equal(
        walk.b_sqrt_l, relabel_b(b0, pi), iq)
    report["l_vs_pi2"] = _restricted_equal(
        walk.b_l, relabel_b(b0, _power(pi, 2)), iq)

    # a third mu_l, at the vertices of the walk's first half
    b = walk.b_l2
    for step in walk.steps[:2 * quarter]:
        b = mutate_b(b, step.u)
    report["l_cubed_identity"] = _restricted_equal(b, b0, iq)

    # Lemma: mu_sqrt_l(-e_{pi(v)}) = e_v for every mutable v, on the
    # mutable-only quiver (pi(v) is v's orbit reflection (i, t_i - t));
    # every g-vector is mutated along one walk of its B-matrix
    mut = {iq.index[v]: k for k, v in enumerate(iq.mutable)}
    b = [[b0[u][w] for w in mut] for u in mut]
    gs = {}
    for u, k in mut.items():
        g = [0] * len(mut)
        g[mut[pi[u]]] = -1
        gs[k] = g
    for step in walk.steps[:quarter]:
        u = mut[step.u]
        gs = {k: mutate_g(g, b, u) for k, g in gs.items()}
        b = mutate_b(b, u)
    report["g_vector_lemma"] = all(
        g == [int(j == k) for j in range(len(mut))] for k, g in gs.items())
    report["quarter3_is_pi3"] = walk.quarter3_is_pi3
    report["all"] = all(report.values())
    return report


# ---------------------------------------------------------------------------
# subrepresentations of T_v via F-polynomials
# ---------------------------------------------------------------------------

def _mu_l_is_pi2(iq, bl, b0, pi2):
    """Whether mu_l(Delta) = pi^2(Delta) as ice quivers, for bl, the
    B-matrix mu_l made from b0, and pi2 renaming vertex k as pi2[k].

    Entries between two frozen vertices are ignored: ice quivers are defined
    up to arrows between frozen vertices, and such entries never feed into
    mutations at mutable vertices.
    """
    bp = relabel_b(b0, pi2)
    mut = {iq.index[v] for v in iq.mutable}
    m = len(b0)
    return all(bl[u][v] == bp[u][v] for u in range(m) for v in range(m)
               if u in mut or v in mut)


def _base_state(iq, i):
    """Dual-tracked state of T_{O_i^-}: the uniserial chain on the orbit of
    O_{i*}^+, with g^vee = e_{O_i^-} - sum_{i->j} e_{O_j^-}."""
    cat = iq.cat
    m = len(iq.vertices)
    chain = cat.orbits[cat.star[i]]
    g = [0] * m
    g[iq.index[cat.by_label["O%d-" % i]]] = 1
    for (a, j) in cat.ar.Q.arrows:
        if a == i:
            g[iq.index[cat.by_label["O%d-" % j]]] -= 1
    fpoly = {0: 1}
    for t in range(1, len(chain) + 1):
        e = [0] * m
        for p in chain[-t:]:
            e[iq.index[p]] = 1
        fpoly[pack_exponents(e)] = 1
    return DualTracked(g, fpoly)


def tv_subreps_via_fpoly(iq, i):
    """Subrepresentation dimension vectors of T_{O_i^-}, T_{Id_{i*}}, T_{O_i^+}.

    Returns a dict keyed by the three frozen Presentation vertices; values are
    sets of dimension vectors (tuples indexed by iq.vertices), excluding the
    zero vector and the full dimension vector.  The base state S_0 of
    T_{O_i^-} is mutated along the four quarters of iq.walk, which is built
    on the first call for iq: T_{Id_{i*}} is read off S_2 and T_{O_i^+} off
    S_4, S_k the state after k quarters.  When quarter 3 is the pi^3-image of
    quarter 0 (Walk.quarter3_is_pi3) and S_3 equals pi^3(S_0) exactly,
    S_4 is pi^3(S_1), the state quarter 3 would reach, and quarter 3 is not
    mutated through; its checks are the images of quarter 0's.  S_2 is a
    state of mu_l(Delta) = pi^2(Delta) and S_4 one of pi^4(Delta), so they
    are read off renamed by pi^4 and pi^2, their inverses.  Raises
    RuntimeError if the precondition mu_l(Delta) = pi^2(Delta) fails: the
    route computes nothing for such a quiver.
    """
    walk = iq.walk
    if not walk.mu_l_is_pi2:
        raise RuntimeError("mu_l(Delta) != pi^2(Delta): the F-polynomial "
                           "route does not apply to this ice quiver")
    cat = iq.cat
    star = cat.star
    m = len(iq.vertices)
    steps = walk.steps
    quarter = len(steps) // 4
    pi2 = _power(walk.pi, 2)
    s0 = _base_state(iq, i)
    out = {cat.by_label["O%d-" % i]:
           {tuple(e.to_bytes(m, "little")) for e in s0.fpoly}}
    s1 = _mutate_along(s0, steps[:quarter])
    state = _mutate_along(s1, steps[quarter:2 * quarter])
    target = cat.by_label["Id%d" % star[i]]
    out[target] = _read_off(iq, state, target, _power(pi2, 2))
    state = _mutate_along(state, steps[2 * quarter:3 * quarter])
    pi3 = _power(walk.pi, 3)
    if walk.quarter3_is_pi3 and state == relabel_dual_state(s0, pi3):
        state = relabel_dual_state(s1, pi3)
    else:
        state = _mutate_along(state, steps[3 * quarter:])
    target = cat.by_label["O%d+" % i]
    out[target] = _read_off(iq, state, target, pi2)
    zero = (0,) * m
    for v in list(out):
        trivial = {zero, iq.tv_dim(v)}
        out[v] = {e for e in out[v] if e not in trivial}
    return out


def _mutate_along(state, steps):
    for step in steps:
        state = mutate_dual_state(state, step)
    return state


def _read_off(iq, state, target, perm):
    """The exponent vectors of state with vertex k renamed perm[k], as in
    relabel_dual_state, the subrep dimension vectors of T_target; raises
    RuntimeError unless the full dimension vector of T_target is the
    largest."""
    m = len(iq.vertices)
    # unpack: byte k of e is e[k]
    relabel = _renaming(perm)
    relabelled = {relabel(e.to_bytes(m, "little")) for e in state.fpoly}
    if max(relabelled, key=sum) != iq.tv_dim(target):
        raise RuntimeError("full dimension vector of T_%s is not the "
                           "largest subrep" % target.label)
    return relabelled
