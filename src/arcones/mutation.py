"""Skew-symmetrizable mutation engine.

B-matrix, g-vector and dual-(g, F) mutation; the mutation sequences
mu_sqrt_l, mu_l, mu_r with the permutation pi; the cyclic identities report;
and the F-polynomial algorithm that computes all subrepresentation dimension
vectors of the cone modules T_v.
"""

from dataclasses import dataclass
from operator import itemgetter


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
        from; returns a new matrix.

        Row u and column u change sign; any other entry b[v][w] changes only
        if b[v][u] and b[u][w] are nonzero with the same sign.
        """
        u = self.u
        out = [list(r) for r in b]
        bu = out[u]
        for w, buw in self.row:
            bu[w] = -buw
        for v, bvu in self.col:
            bv = out[v]
            bv[u] = -bvu
            for w, buw in self.row:
                if (bvu > 0) == (buw > 0):
                    bv[w] += abs(bvu) * buw
        return out


def mutate_b(b, u):
    """Fomin-Zelevinsky matrix mutation at index u; returns a new matrix."""
    return Step.at(b, u).apply(b)


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


@dataclass
class DualTracked:
    """A representation tracked through mutation by (g^vee, F^vee) only."""

    gdual: list
    fpoly: dict                  # exponent tuple -> positive int coefficient


def mutate_dual_state(state, step):
    """Mutation of a dual-tracked representation at step.u.

    step is Step.at(b, u) for the B-matrix b of the current seed; the
    caller mutates b itself.  Returns the new DualTracked.
    """
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
    # the sums run over the nonzero entries of row u only.  The exponent q
    # of (1+y'_u) does not involve e_u, so the terms that agree off u share
    # it: each group is (1+t)^q * sum c * t^p in t = y'_u.
    pos = [(v, x) for v, x in step.row if x > 0]
    neg = [(v, x) for v, x in step.row if x < 0]
    dq = beta2 - beta
    groups = {}
    add = groups.setdefault
    for e, c in state.fpoly.items():
        sp = 0
        for v, x in pos:
            sp += e[v] * x
        sn = 0
        for v, x in neg:
            sn += e[v] * x
        add((e[:u], e[u + 1:], dq - sp - sn), []).append((beta - e[u] + sp, c))
    newf = {}
    for (head, tail, q), terms in groups.items():
        lo = hi = terms[0][0]
        for p, _ in terms:
            if p < lo:
                lo = p
            elif p > hi:
                hi = p
        # expand sum c * t^p * (1+t)^(q+s), all powers nonneg after the shift
        s = -q if q < 0 else 0
        n = q + s
        if n < 0:
            raise RuntimeError("negative binomial exponent in "
                               "F-polynomial mutation")
        arr = [0] * (hi - lo + n + 1)
        for p, c in terms:
            binom = c
            k0 = p - lo
            for k in range(n + 1):
                arr[k0 + k] += binom
                binom = binom * (n - k) // (k + 1)
        for _ in range(s):
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
                # groups differ off u, so every key is set once
                newf[head + (deg,) + tail] = c
    if newf.get((0,) * len(g)) != 1:
        raise RuntimeError("mutated F-polynomial has no constant term 1")
    if any(c < 0 for c in newf.values()):
        raise RuntimeError("negative F-polynomial coefficient")
    return DualTracked(g2, newf)


# ---------------------------------------------------------------------------
# mutation sequences
# ---------------------------------------------------------------------------

@dataclass
class MuSequences:
    mu_sqrt_l: list              # vertex lists (Presentation), applied left to right
    mu_l: list
    mu_r: list
    pi: dict                     # Presentation -> Presentation
    pi2: dict


def mu_sequences(iq):
    """The sequences mu_sqrt_l, mu_l, mu_r and the permutations pi, pi^2."""
    cat = iq.cat
    Q = cat.ar.Q
    pos = {i: k for k, i in enumerate(Q.topological_order())}
    mutables = sorted(iq.mutable, key=lambda p: (cat.orbit[p][1], pos[cat.orbit[p][0]]))
    member = cat._orbit_member
    sqrt_l = []
    for p in mutables:
        i, t = cat.orbit[p]
        ti = cat.t_star(i)
        sqrt_l.extend(member(i, s) for s in range(1, ti - t + 1))
    pi = {v: cat.pi(v) for v in iq.vertices}
    pi2 = {v: pi[pi[v]] for v in iq.vertices}
    sqrt_l_pi = [pi[v] for v in sqrt_l]
    mu_l = sqrt_l + sqrt_l_pi
    mu_r = mu_l + mu_l
    return MuSequences(sqrt_l, mu_l, mu_r, pi, pi2)


@dataclass
class Walk:
    """The B-matrix walk mu_l . mu_l of an ice quiver.

    Built once per quiver (IceQuiver.walk) and shared by the F-polynomial
    route, which mutates every T_v along it, and by the checks.
    """

    seqs: MuSequences
    steps: list                  # Step per mutation of mu_l, then of mu_l again
    b_sqrt_l: list               # mu_sqrt_l(B)
    b_l: list                    # mu_l(B)
    b_l2: list                   # mu_l(mu_l(B))
    mu_l_is_pi2: bool            # mu_l(Delta) = pi^2(Delta), see check_mu_l_pi2
    pi2: list                    # pi^2 relabelling: e'[k] = e[pi2[k]]
    pi2_inv: list                # its inverse, the same way


def b_walk(iq):
    """The Walk of iq, from its full B-matrix."""
    seqs = mu_sequences(iq)
    index = iq.index
    b0 = iq.bmat_full
    b = b0
    steps = []
    ends = []
    # mu_l is mu_sqrt_l followed by its pi-image; the walk is mu_l twice
    half = len(seqs.mu_sqrt_l)
    for seq in (seqs.mu_sqrt_l, seqs.mu_l[half:], seqs.mu_l):
        for v in seq:
            step = Step.at(b, index[v])
            steps.append(step)
            b = step.apply(b)
        ends.append(b)
    b_sqrt_l, b_l, b_l2 = ends
    pi2_inv = {w: v for v, w in seqs.pi2.items()}
    return Walk(seqs, steps, b_sqrt_l, b_l, b_l2,
                _mu_l_is_pi2(iq, b_l, b0, seqs.pi2),
                [index[seqs.pi2[v]] for v in iq.vertices],
                [index[pi2_inv[v]] for v in iq.vertices])


def _relabelled_b(b, iq, perm):
    """B-matrix of the relabelled quiver: B'[perm(u)][perm(v)] = B[u][v]."""
    m = len(b)
    p = [iq.index[perm[v]] for v in iq.vertices]
    out = [[0] * m for _ in range(m)]
    for u in range(m):
        for v in range(m):
            out[p[u]][p[v]]= b[u][v]
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
    seqs = walk.seqs
    b0 = iq.bmat_full
    report = {}

    report["sqrt_l_vs_pi"] = _restricted_equal(
        walk.b_sqrt_l, _relabelled_b(b0, iq, seqs.pi), iq)
    report["l_vs_pi2"] = _restricted_equal(
        walk.b_l, _relabelled_b(b0, iq, seqs.pi2), iq)

    b = walk.b_l2
    for v in seqs.mu_l:
        b = mutate_b(b, iq.index[v])
    report["l_cubed_identity"] = _restricted_equal(b, b0, iq)

    # Lemma: mu_sqrt_l(-e_{i,t_i-t}) = e_{i,t} on the mutable-only quiver;
    # every g-vector is mutated along one walk of its B-matrix
    cat = iq.cat
    mut_index = {v: k for k, v in enumerate(iq.mutable)}
    b = [[b0[iq.index[v]][iq.index[w]] for w in iq.mutable]
         for v in iq.mutable]
    gs = {}
    for v in iq.mutable:
        i, t = cat.orbit[v]
        src = cat._orbit_member(i, cat.t_star(i) - t)
        g = [0] * len(iq.mutable)
        g[mut_index[src]] = -1
        gs[v] = g
    for w in seqs.mu_sqrt_l:
        u = mut_index[w]
        gs = {v: mutate_g(g, b, u) for v, g in gs.items()}
        b = mutate_b(b, u)
    ok = True
    for v, g in gs.items():
        expected = [0] * len(iq.mutable)
        expected[mut_index[v]] = 1
        ok = ok and g == expected
    report["g_vector_lemma"] = ok
    report["all"] = all(report.values())
    return report


# ---------------------------------------------------------------------------
# subrepresentations of T_v via F-polynomials
# ---------------------------------------------------------------------------

def check_mu_l_pi2(iq):
    """Whether mu_l(Delta) = pi^2(Delta) as ice quivers.

    Entries between two frozen vertices are ignored: ice quivers are defined
    up to arrows between frozen vertices, and such entries never feed into
    mutations at mutable vertices.
    """
    return iq.walk.mu_l_is_pi2


def _mu_l_is_pi2(iq, bl, b0, pi2):
    """check_mu_l_pi2 on bl, the B-matrix mu_l made from b0."""
    bp = _relabelled_b(b0, iq, pi2)
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
    fpoly = {(0,) * m: 1}
    for t in range(1, len(chain) + 1):
        e = [0] * m
        for p in chain[-t:]:
            e[iq.index[p]] = 1
        fpoly[tuple(e)] = 1
    return DualTracked(g, fpoly)


def tv_subreps_via_fpoly(iq, i):
    """Subrepresentation dimension vectors of T_{O_i^-}, T_{Id_{i*}}, T_{O_i^+}.

    Returns a dict keyed by the three frozen Presentation vertices; values are
    sets of dimension vectors (tuples indexed by iq.vertices), excluding the
    zero vector and the full dimension vector.  The states are mutated along
    iq.walk, which is built on the first call for iq.  Raises RuntimeError
    if the precondition mu_l(Delta) = pi^2(Delta) fails: the route computes
    nothing for such a quiver.
    """
    walk = iq.walk
    if not walk.mu_l_is_pi2:
        raise RuntimeError("mu_l(Delta) != pi^2(Delta): the F-polynomial "
                           "route does not apply to this ice quiver")
    cat = iq.cat
    star = cat.star
    state = _base_state(iq, i)
    out = {cat.by_label["O%d-" % i]: set(state.fpoly)}
    half = len(walk.steps) // 2
    for steps, target, perm in (
        (walk.steps[:half], cat.by_label["Id%d" % star[i]], walk.pi2),
        (walk.steps[half:], cat.by_label["O%d+" % i], walk.pi2_inv),
    ):
        for step in steps:
            state = mutate_dual_state(state, step)
        # a tuple, since ice quivers have 4 or more vertices
        relabel = itemgetter(*perm)
        relabelled = {relabel(e) for e in state.fpoly}
        full = iq.tv_dim(target)
        if max(relabelled, key=sum) != full:
            raise RuntimeError("full dimension vector of T_%s is not the "
                               "largest subrep" % target.label)
        out[target] = relabelled
    zero = (0,) * len(iq.vertices)
    for v in list(out):
        trivial = {zero, iq.tv_dim(v)}
        out[v] = {e for e in out[v] if e not in trivial}
    return out
