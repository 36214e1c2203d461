"""AR quivers of rep(Q), presentation catalogs, and the associated ice quivers.

The objects here are the combinatorial backbone: indecomposable modules with
their meshes and valuations, minimal presentations f with their triple
weights (e(f), f_-, f_+), and the ice quivers (variant "full2" and its
frozen-vertex deletions "u", "sharp", "l", "r") with B-matrices and weight
configurations.
"""

from dataclasses import dataclass, field
from functools import cached_property

from . import mutation
from .exact import dot, mat_mul, rank, scaled_inverse, vec_mat
from .rootdata import NUM_POS_ROOTS, cartan_data, star_involution


# ---------------------------------------------------------------------------
# AR quiver of rep(Q)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Module:
    """Indecomposable representation, identified by its dimension vector."""

    dim: tuple
    # the dataclass's own hash, computed once for the catalog's dict keys
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.dim,)))

    def __hash__(self):
        return self._hash

    @property
    def name(self):
        return "M" + "".join(str(x) for x in self.dim)


@dataclass
class ARQuiver:
    Q: object
    cd: object
    modules: list                 # knitting order
    arrows: dict                  # (M, N) -> (a, b) valuation
    tau: dict                     # non-projective N -> tau N
    projectives: dict             # i -> Module
    injectives: dict              # i -> Module
    simples: dict                 # i -> Module
    projective_set: frozenset = field(init=False, repr=False)

    def __post_init__(self):
        self.projective_set = frozenset(self.projectives.values())

    def is_projective(self, m):
        return m in self.projective_set


def knit_rep_ar(Q):
    """Knit the AR quiver of rep(Q) from the projectives forward."""
    cd = cartan_data(Q)
    n = Q.n
    # the rows of D_Q E^-1 and of D_Q E^-T are the dimension vectors of the
    # P_i and I_i; with E^-1 = Y / den they are the rows of D_Q Y over den
    den, einv = scaled_inverse(cd.euler)
    dmat = cd.D
    proj_rows = mat_mul(dmat, einv)
    inj_rows = mat_mul(dmat, [list(r) for r in zip(*einv)])
    projectives = {}
    injectives = {}
    for i in range(1, n + 1):
        if any(x % den for x in proj_rows[i - 1] + inj_rows[i - 1]):
            raise RuntimeError("P%d or I%d has a non-integral dimension"
                               % (i, i))
        pd = tuple(x // den for x in proj_rows[i - 1])
        idim = tuple(x // den for x in inj_rows[i - 1])
        if any(x < 0 for x in pd + idim):
            raise RuntimeError("negative dimension in P%d or I%d" % (i, i))
        projectives[i] = Module(pd)
        injectives[i] = Module(idim)
    inj_dims = {m.dim for m in injectives.values()}

    modules = list(dict.fromkeys(projectives.values()))
    arrows = {}
    # the sources and the targets of each module's arrows, in the order the
    # arrows enter the dict
    ins, outs = {}, {}

    def add_arrow(s, t, val):
        if (s, t) not in arrows:
            ins.setdefault(t, []).append(s)
            outs.setdefault(s, []).append(t)
        arrows[(s, t)] = val

    for (i, j) in Q.arrows:
        # rad P_i contains P_j: irreducible map P_j -> P_i
        add_arrow(projectives[j], projectives[i], (Q.c(j, i), Q.c(i, j)))
    tau = {}

    expected = NUM_POS_ROOTS[Q.letter](n)
    done = set()
    guard = 0
    while len(done) < len(modules):
        guard += 1
        if guard > 4 * expected + 8:
            raise RuntimeError("knitting did not terminate; input not Dynkin?")
        progressed = False
        for L in list(modules):
            if L in done:
                continue
            if any(s not in done for s in ins.get(L, ())):
                continue
            # all in-arrows processed, so all out-arrows of L exist now
            done.add(L)
            progressed = True
            if L.dim in inj_dims:
                continue
            out = [(N, arrows[(L, N)]) for N in outs.get(L, ())]
            new_dim = [-x for x in L.dim]
            for N, (a, b) in out:
                for k in range(n):
                    new_dim[k] += b * N.dim[k]
            new_dim = tuple(new_dim)
            if any(x < 0 for x in new_dim) or not any(new_dim):
                raise RuntimeError("knitting produced the dimension vector "
                                   "%s" % (new_dim,))
            tl = Module(new_dim)
            if tl not in modules:
                modules.append(tl)
            tau[tl] = L
            for N, (a, b) in out:
                add_arrow(N, tl, (b, a))
        if not progressed:
            raise RuntimeError("knitting deadlocked; input not Dynkin?")
    if len(modules) != expected:
        raise RuntimeError("knitted %d modules, expected %d" % (len(modules), expected))
    simples = {}
    for i in range(1, n + 1):
        sdim = tuple(int(k == i) for k in range(1, n + 1))
        simples[i] = Module(sdim)
        if simples[i] not in modules:
            raise RuntimeError("simple S%d missing from the AR quiver" % i)
    return ARQuiver(Q, cd, modules, arrows, tau, projectives, injectives,
                    simples)


def hom_dim_table(ar):
    """dim_k Hom(M, N) for all ordered pairs of indecomposables.

    Computed by the functorial recursion over projectives and meshes, then
    validated against the Euler form via the AR formula.
    """
    Q, cd = ar.Q, ar.cd
    # reverse topological order: sinks first, so dimHom(-, P_i) only needs
    # dimHom(-, P_j) for arrows (i, j)
    order = list(reversed(Q.topological_order()))
    # the mesh starting at L: the middle terms of the AR arrows L -> mid
    mesh = {M: [] for M in ar.modules}
    for (s, mid), (_a, b) in ar.arrows.items():
        mesh[s].append((mid, b))
    # <M, -> of the Euler form as a row vector, one per module
    euler = {M: vec_mat(list(M.dim), cd.euler) for M in ar.modules}
    table = {}
    for M in ar.modules:
        row = {}
        for i in order:
            P = ar.projectives[i]
            val = Q.d[i - 1] if M == P else 0
            for (i2, j) in Q.arrows:
                if i2 == i:
                    val += Q.c(j, i) * row[ar.projectives[j]]
            row[P] = val
        # knitting order guarantees tau^{-1} targets come after their mesh
        for N in ar.modules:
            if N in row:
                continue
            L = ar.tau[N]
            val = -row[L]
            for mid, b in mesh[L]:
                val += b * row[mid]
            if M == N:
                val += dot(euler[N], N.dim)
            if val < 0:
                raise RuntimeError("dim Hom(%s, %s) = %d < 0"
                                   % (M.name, N.name, val))
            row[N] = val
        table[M] = row
    _validate_euler(ar, table, euler)
    return table


def _validate_euler(ar, table, euler):
    """dim Hom(M, N) - dim Hom(N, tau M) = <M, N> for every pair, with
    euler[M] the row vector <M, ->."""
    for M in ar.modules:
        tm = None if ar.is_projective(M) else ar.tau[M]
        for N in ar.modules:
            ext = 0 if tm is None else table[N][tm]
            if table[M][N] - ext != dot(euler[M], N.dim):
                raise RuntimeError("Euler form mismatch at (%s, %s)"
                                   % (M.name, N.name))


# ---------------------------------------------------------------------------
# Presentation catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Presentation:
    kind: str                     # negative | positive | neutral | module
    index: int = 0                # i for O_i^-, O_i^+, Id_i; 0 for modules
    module: Module = None         # the presented module, for kind "module"
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash",
                           hash((self.kind, self.index, self.module)))

    def __hash__(self):
        return self._hash

    @property
    def label(self):
        if self.kind == "negative":
            return "O%d-" % self.index
        if self.kind == "positive":
            return "O%d+" % self.index
        if self.kind == "neutral":
            return "Id%d" % self.index
        return "f[%s]" % ",".join(str(x) for x in self.module.dim)


@dataclass
class PresentationCatalog:
    ar: ARQuiver
    objects: list                  # all presentations, stable order
    f_minus: dict                  # Presentation -> tuple
    f_plus: dict
    e_vec: dict
    orbit: dict                    # non-neutral Presentation -> (i, t)
    by_module: dict                # Module -> Presentation (incl. projectives)
    by_label: dict                 # label -> Presentation
    star: dict                     # i -> i*, the involution -w0
    orbits: dict                   # i -> [O_i^+, ..., O_{i*}^-] along tau:
                                   # orbits[i][t] is tau^t O_i^+
    hom: dict                      # M -> N -> dim Hom(M, N), hom_dim_table

    @property
    def n(self):
        return self.ar.Q.n

    def triple_weight(self, p):
        return (self.e_vec[p], self.f_minus[p], self.f_plus[p])

    def pi(self, p):
        """The permutation pi of catalog objects (orbit shift by duality)."""
        if p.kind == "neutral":
            return self.by_label["O%d+" % p.index]
        if p.kind == "negative":
            return self.by_label["Id%d" % p.index]
        return self._reflect(p)

    def pi_inv(self, p):
        if p.kind == "neutral":
            return self.by_label["O%d-" % p.index]
        if p.kind == "positive":
            return self.by_label["Id%d" % p.index]
        return self._reflect(p)

    def _reflect(self, p):
        """The orbit reflection (i, t) -> (i, t_i - t), t_i the largest t
        with tau^t O_i^+ defined."""
        i, t = self.orbit[p]
        return self.orbits[i][-1 - t]


def enumerate_presentations(ar):
    """Build the full catalog of presentations of C^2 Q."""
    Q, cd = ar.Q, ar.cd
    n = Q.n
    hom = hom_dim_table(ar)
    star = star_involution(cd)

    neg = {i: Presentation("negative", i) for i in range(1, n + 1)}
    pos = {i: Presentation("positive", i) for i in range(1, n + 1)}
    neu = {i: Presentation("neutral", i) for i in range(1, n + 1)}
    by_module = {}
    mods = []
    for M in ar.modules:
        if ar.is_projective(M):
            j = next(j for j, P in ar.projectives.items() if P == M)
            by_module[M] = neg[j]
        else:
            p = Presentation("module", module=M)
            by_module[M] = p
            mods.append(p)

    f_minus, f_plus, e_vec = {}, {}, {}

    def unit(i):
        return tuple(int(k == i) for k in range(1, n + 1))

    zero = (0,) * n
    for i in range(1, n + 1):
        f_minus[neg[i]], f_plus[neg[i]] = unit(i), zero
        f_minus[pos[i]], f_plus[pos[i]] = zero, unit(i)
        f_minus[neu[i]], f_plus[neu[i]] = unit(i), unit(i)
        e_vec[neg[i]] = unit(star[i])
        e_vec[pos[i]] = unit(i)
        e_vec[neu[i]] = zero
    for p in mods:
        M = p.module
        red = vec_mat(list(M.dim), [[-x for x in row] for row in cd.E_l])
        f_plus[p] = tuple(max(x, 0) for x in red)
        f_minus[p] = tuple(max(-x, 0) for x in red)
        # cross-check against hom dims: f_-(i) = dimHom(M, S_i) / d_i
        for i in range(1, n + 1):
            h = hom[M][ar.simples[i]]
            if h % Q.d[i - 1] or f_minus[p][i - 1] != h // Q.d[i - 1]:
                raise RuntimeError("f_- mismatch for %s at vertex %d"
                                   % (M.name, i))

    # thread tau-orbits: O_i^+ -> f(I_i) -> ... -> O_{i*}^-
    orbit, orbits = {}, {}
    for i in range(1, n + 1):
        chain = [pos[i]]
        cur = by_module[ar.injectives[i]]
        while True:
            chain.append(cur)
            if cur.kind == "negative":
                break
            M = cur.module
            cur = by_module[ar.tau[M]]
        if chain[-1] != neg[star[i]]:
            raise RuntimeError("orbit of O%d+ does not end at O%d-"
                               % (i, star[i]))
        for t, p in enumerate(chain):
            orbit[p] = (i, t)
            e_vec[p] = unit(i)
        orbits[i] = chain

    objects = ([neg[i] for i in range(1, n + 1)]
               + [pos[i] for i in range(1, n + 1)]
               + [neu[i] for i in range(1, n + 1)]
               + mods)
    return PresentationCatalog(ar, objects, f_minus, f_plus, e_vec, orbit,
                               by_module, {p.label: p for p in objects},
                               star, orbits, hom)


# ---------------------------------------------------------------------------
# Ice quivers
# ---------------------------------------------------------------------------

VARIANTS = ("full2", "u", "sharp", "l", "r")

_DELETED = {
    "full2": (),
    "u": ("positive", "neutral"),
    "sharp": ("neutral",),
    "l": ("negative", "positive"),
    "r": ("negative", "neutral"),
}


@dataclass
class IceQuiver:
    variant: str
    cat: PresentationCatalog
    vertices: list                 # Presentation, stable order
    frozen: dict                   # Presentation -> bool
    arrows: list                   # (src, dst, (a, b), type)  type in {A, C}
    index: dict                    # Presentation -> column index
    bmat_full: list                # square B over all vertices
    bmat: list                     # restricted: mutable rows x all columns
    mutable: list                  # mutable vertices in order

    @property
    def n(self):
        return self.cat.n

    @cached_property
    def walk(self):
        """The B-matrix walk mu_l . mu_l (mutation.Walk), built on first use;
        it lives and dies with this quiver."""
        return mutation.b_walk(self)

    def tv_dim(self, v):
        """Dimension vector of T_v for the frozen vertex v, indexed like
        self.vertices: at p it is coordinate i* of e(p) for v = O_i^-,
        coordinate i of f_+(p) for O_i^+ and of f_-(p) for Id_i."""
        cat = self.cat
        if v.kind == "negative":
            rows, k = cat.e_vec, cat.star[v.index] - 1
        elif v.kind == "positive":
            rows, k = cat.f_plus, v.index - 1
        else:
            rows, k = cat.f_minus, v.index - 1
        return tuple(rows[p][k] for p in self.vertices)

    def to_json_dict(self):
        return {
            "variant": self.variant,
            "vertices": [{
                "id": v.label,
                "kind": v.kind,
                "orbit": list(self.cat.orbit[v]) if v in self.cat.orbit else None,
                "triple_weight": [list(w) for w in self.cat.triple_weight(v)],
                "frozen": self.frozen[v],
            } for v in self.vertices],
            "arrows": [{"src": s.label, "dst": t.label, "val": list(v), "type": ty}
                       for s, t, v, ty in self.arrows],
            "bmat": [list(r) for r in self.bmat],
        }

    def to_dot(self):
        lines = ["digraph Delta {"]
        for v in self.vertices:
            shape = "box" if self.frozen[v] else "ellipse"
            lines.append('  "%s" [shape=%s];' % (v.label, shape))
        for s, t, (a, b), ty in self.arrows:
            style = ' style=dashed' if ty == "C" else ""
            label = "" if (a, b) == (1, 1) else ' label="(%d,%d)"' % (a, b)
            lines.append('  "%s" -> "%s" [%s%s];' % (s.label, t.label, style, label))
        lines.append("}")
        return "\n".join(lines)


def _full2_arrows(cat):
    """All arrows of the full ice quiver, as (src, dst, valuation, type)."""
    ar = cat.ar
    Q = ar.Q
    fmap = cat.by_module
    arrows = []
    # (a) mesh arrows of the AR quiver of rep(Q), mapped through f
    for (M, N), val in ar.arrows.items():
        arrows.append((fmap[M], fmap[N], val, "A"))
    # (b) translation arrows f(M) -> f(tau M) for M non-projective
    for M in ar.modules:
        if M in ar.tau:
            arrows.append((fmap[M], fmap[ar.tau[M]], (1, 1), "C"))
    # (c) per arrow i -> j of Q
    for (i, j) in Q.arrows:
        a, b = Q.valuation[(i, j)]
        Oi, Oj = cat.by_label["O%d+" % i], cat.by_label["O%d+" % j]
        fIi = fmap[ar.injectives[i]]
        # valuations mirror the projective arrows P_j -> P_i of the AR quiver
        arrows.append((Oj, Oi, (b, a), "A"))
        arrows.append((fIi, Oj, (a, b), "A"))
    for i in range(1, Q.n + 1):
        fIi = fmap[ar.injectives[i]]
        arrows.append((cat.by_label["O%d+" % i], fIi, (1, 1), "C"))
    # (d) neutral vertices: f(S_i) -> Id_i -> tau^{-1} f(S_i), the orbit
    # member before f(S_i)
    for i in range(1, Q.n + 1):
        fSi = fmap[ar.simples[i]]
        Idi = cat.by_label["Id%d" % i]
        k, t = cat.orbit[fSi]
        arrows.append((fSi, Idi, (1, 1), "A"))
        arrows.append((Idi, cat.orbits[k][t - 1], (1, 1), "A"))
    return arrows


def build_ice_quiver(cat, variant="full2"):
    if variant not in VARIANTS:
        raise ValueError("unknown variant %r" % variant)
    deleted = _DELETED[variant]
    vertices = [v for v in cat.objects if v.kind not in deleted]
    vset = set(vertices)
    frozen = {v: v.kind != "module" for v in vertices}
    arrows = [a for a in _full2_arrows(cat)
              if a[0] in vset and a[1] in vset]
    index = {v: k for k, v in enumerate(vertices)}
    m = len(vertices)
    bfull = [[0] * m for _ in range(m)]
    # B = -E_l + E_r^T: an arrow u ->(a,b) v contributes b to B[u][v]
    # and -a to B[v][u]
    for s, t, (a, b), _ in arrows:
        bfull[index[s]][index[t]] += b
        bfull[index[t]][index[s]] -= a
    mutable = [v for v in vertices if not frozen[v]]
    bmat = [bfull[index[v]] for v in mutable]
    return IceQuiver(variant, cat, vertices, frozen, arrows, index,
                     bfull, bmat, mutable)


def weight_configuration(iq):
    """The weight configuration sigma of the variant, one row per vertex of
    iq, or None for the ungraded variants l and r; checks B . sigma = 0."""
    cat = iq.cat
    n = iq.n
    if iq.variant in ("l", "r"):
        return None
    rows = []
    for v in iq.vertices:
        e, fm, fp = cat.triple_weight(v)
        if iq.variant == "full2":
            rows.append(list(e) + list(fm) + list(fp))
        elif iq.variant == "u":
            rows.append([e[k] + fm[k] - fp[k] for k in range(n)])
        else:  # sharp
            rows.append(list(e) + [fp[k] - fm[k] for k in range(n)])
    prod = mat_mul(iq.bmat, rows)
    if any(any(x != 0 for x in r) for r in prod):
        raise RuntimeError("B . sigma != 0 for variant %s" % iq.variant)
    if iq.variant == "full2":
        if rank(rows) != 3 * n:
            raise RuntimeError("sigma^2 is not full rank 3n")
    return rows
