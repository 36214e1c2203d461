"""Skew-symmetrizable mutation engine.

B-matrix, g-vector and dual-(g, F) mutation; the mutation sequences
mu_sqrt_l, mu_l, mu_r with the permutation pi; the cyclic identities report;
and the F-polynomial algorithm that computes all subrepresentation dimension
vectors of the cone modules T_v.
"""

from dataclasses import dataclass


def mutate_b(b, u):
    """Fomin-Zelevinsky matrix mutation at index u; returns a new matrix."""
    m = len(b)
    out = [[0] * m for _ in range(m)]
    for v in range(m):
        for w in range(m):
            if v == u or w == u:
                out[v][w] = -b[v][w]
            else:
                bvu, buw = b[v][u], b[u][w]
                s = (bvu > 0) - (bvu < 0)
                out[v][w] = b[v][w] + s * max(0, bvu * buw)
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


@dataclass
class DualTracked:
    """A representation tracked through mutation by (g^vee, F^vee) only."""

    gdual: list
    fpoly: dict                  # exponent tuple -> positive int coefficient


def mutate_dual_state(state, b, u):
    """Mutation of a dual-tracked representation at u.

    b is the B-matrix of the current seed.  Returns the new DualTracked;
    the caller is responsible for mutating b itself.
    """
    g = state.gdual
    m = len(g)
    beta = max(-g[u], 0)
    # dual g-vector
    g2 = list(g)
    g2[u] = -g[u]
    for v in range(m):
        if v != u:
            g2[v] = g[v] + max(-b[v][u], 0) * g[u] - b[v][u] * beta
    beta2 = max(-g2[u], 0)

    # F-polynomial: F'(y') = sum_e c_e * y'^(e off u)
    #   * y'_u^(beta - e_u + sum_{v!=u} e_v [b_{u,v}]_+)
    #   * (1+y'_u)^(beta' - beta - sum_{v!=u} e_v b_{u,v})
    groups = {}
    for e, c in state.fpoly.items():
        off = tuple(x if v != u else 0 for v, x in enumerate(e))
        p = beta - e[u] + sum(e[v] * max(b[u][v], 0) for v in range(m) if v != u)
        q = beta2 - beta - sum(e[v] * b[u][v] for v in range(m) if v != u)
        groups.setdefault(off, []).append((p, q, c))
    newf = {}
    for off, terms in groups.items():
        s = max(0, -min(q for _, q, _ in terms))
        # expand sum c * t^p * (1+t)^(q+s), all powers nonneg after the shift
        coeffs = {}
        for p, q, c in terms:
            if q + s < 0:
                raise RuntimeError("negative binomial exponent in "
                                   "F-polynomial mutation")
            binom = 1
            for k in range(q + s + 1):
                coeffs[p + k] = coeffs.get(p + k, 0) + c * binom
                binom = binom * (q + s - k) // (k + 1)
        lo = min(coeffs)
        hi = max(coeffs)
        arr = [coeffs.get(k, 0) for k in range(lo, hi + 1)]
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
        for k, c in enumerate(arr):
            if c:
                deg = lo + k
                if deg < 0:
                    raise RuntimeError("negative exponent in mutated "
                                       "F-polynomial")
                ee = list(off)
                ee[u] = deg
                key = tuple(ee)
                newf[key] = newf.get(key, 0) + c
    newf = {e: c for e, c in newf.items() if c}
    zero = (0,) * m
    if newf.get(zero) != 1:
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


def _mutate_b_along(b, iq, seq):
    for v in seq:
        b = mutate_b(b, iq.index[v])
    return b


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
    seqs = mu_sequences(iq)
    b0 = [list(r) for r in iq.bmat_full]
    report = {}

    b_sqrt = _mutate_b_along(b0, iq, seqs.mu_sqrt_l)
    report["sqrt_l_vs_pi"] = _restricted_equal(b_sqrt, _relabelled_b(b0, iq, seqs.pi), iq)

    b_l = _mutate_b_along(b0, iq, seqs.mu_l)
    report["l_vs_pi2"] = _restricted_equal(b_l, _relabelled_b(b0, iq, seqs.pi2), iq)

    b = b0
    for _ in range(3):
        b = _mutate_b_along(b, iq, seqs.mu_l)
    report["l_cubed_identity"] = _restricted_equal(b, b0, iq)

    # Lemma: mu_sqrt_l(-e_{i,t_i-t}) = e_{i,t} on the mutable-only quiver
    cat = iq.cat
    mut_index = {v: k for k, v in enumerate(iq.mutable)}
    bmu = [[iq.bmat_full[iq.index[v]][iq.index[w]] for w in iq.mutable]
           for v in iq.mutable]
    ok = True
    for v in iq.mutable:
        i, t = cat.orbit[v]
        src = cat._orbit_member(i, cat.t_star(i) - t)
        g = [0] * len(iq.mutable)
        g[mut_index[src]] = -1
        b = bmu
        for w in seqs.mu_sqrt_l:
            g = mutate_g(g, b, mut_index[w])
            b = mutate_b(b, mut_index[w])
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
    seqs = mu_sequences(iq)
    b0 = [list(r) for r in iq.bmat_full]
    return _mu_l_is_pi2(iq, _mutate_b_along(b0, iq, seqs.mu_l), b0, seqs.pi2)


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
    zero vector and the full dimension vector.  Raises RuntimeError if the
    precondition mu_l(Delta) = pi^2(Delta) fails.
    """
    cat = iq.cat
    seqs = mu_sequences(iq)
    star = cat.star
    state = _base_state(iq, i)
    out = {cat.by_label["O%d-" % i]: set(state.fpoly)}
    b0 = [list(r) for r in iq.bmat_full]
    b = b0
    pi2 = seqs.pi2
    pi2inv = {w: v for v, w in pi2.items()}
    for steps, target, relabel in (
        (seqs.mu_l, cat.by_label["Id%d" % star[i]], pi2),
        (seqs.mu_l, cat.by_label["O%d+" % i], pi2inv),
    ):
        for v in steps:
            state = mutate_dual_state(state, b, iq.index[v])
            b = mutate_b(b, iq.index[v])
        # the first pass ends at mu_l(Delta), where the precondition is read
        if relabel is pi2 and not _mu_l_is_pi2(iq, b, b0, pi2):
            raise RuntimeError("mu_l(Delta) != pi^2(Delta); fall back to "
                               "brute force")
        relabelled = set()
        for e in state.fpoly:
            e2 = [0] * len(e)
            for w in iq.vertices:
                e2[iq.index[w]] = e[iq.index[relabel[w]]]
            relabelled.add(tuple(e2))
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
