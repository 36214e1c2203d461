"""Explicit linear algebra over the path algebra of Q.

For a trivially valued Dynkin quiver Q (an oriented tree), every Hom space
between indecomposable projectives is spanned by at most one path, so a
morphism between sums of projectives is just a scalar matrix whose support is
constrained by path existence.  This module realizes every presentation in
the catalog as an explicit integer matrix, computes Hom spaces between
presentations by solving the commutativity equations, extracts irreducible
morphisms as a complement of rad^2 inside rad, and assembles the integer
quiver representations T_v attached to the frozen vertices of the ice quiver.
"""

import random
from dataclasses import dataclass
from math import gcd

from .exact import mat_mul, nullspace, rank


@dataclass(frozen=True)
class ProjMap:
    """A morphism between sums of projectives, f: P(plus) -> P(minus).

    ``plus`` and ``minus`` list the summand vertices; ``mat`` has one row per
    ``minus`` summand and one column per ``plus`` summand.  The (r, c) entry
    is the coefficient of the unique path minus[r] ~> plus[c] (zero when no
    such path exists).
    """
    plus: tuple
    minus: tuple
    mat: tuple


@dataclass
class PathHom:
    """A basis of Hom(f, g): pairs (phi_plus, phi_minus) of integer matrices.

    phi_plus maps P(plus(f)) to P(plus(g)) and phi_minus maps P(minus(f)) to
    P(minus(g)); each is stored with one row per target summand.
    """
    src: object
    dst: object
    basis: list

    @property
    def dim(self):
        return len(self.basis)


def _summands(cat, p):
    """(plus, minus) summand vertex lists of the presentation p."""
    plus, minus = [], []
    for i in range(1, cat.n + 1):
        plus.extend([i] * cat.f_plus[p][i - 1])
        minus.extend([i] * cat.f_minus[p][i - 1])
    return tuple(plus), tuple(minus)


class PathAlg:
    """Hom spaces, irreducible morphisms and T_v modules for one ice quiver."""

    def __init__(self, iq):
        cat = iq.cat
        Q = cat.ar.Q
        if not Q.trivially_valued:
            raise ValueError("path-algebra realizations require a trivially "
                             "valued (simply laced) quiver")
        self.iq = iq
        self.cat = cat
        self.Q = Q
        self._reach = _reachability(Q)
        self.real = {}
        for p in cat.objects:
            self.real[p] = self._realize(p)
        self._hom = {}
        self._validate_all_hom_dims()
        self._rad2 = {}

    # -- reachability / path bookkeeping --------------------------------

    def _has_path(self, a, b):
        """Directed path a ~> b in Q (True for a == b)."""
        return b in self._reach[a]

    def _hom_proj(self, i, j):
        """dim Hom(P_i, P_j): 1 iff there is a path j ~> i."""
        return 1 if self._has_path(j, i) else 0

    # -- realizing presentations ----------------------------------------

    def _realize(self, p):
        plus, minus = _summands(self.cat, p)
        if p.kind == "negative":
            return ProjMap(plus, minus, ((),) * len(minus))
        if p.kind == "positive":
            return ProjMap(plus, minus, ())
        if p.kind == "neutral":
            return ProjMap(plus, minus, ((1,),))
        return self._realize_module(p, plus, minus)

    def _realize_module(self, p, plus, minus):
        # allowed entries: a nontrivial path minus[r] ~> plus[c]
        slots = [(r, c) for r in range(len(minus)) for c in range(len(plus))
                 if minus[r] != plus[c] and self._has_path(minus[r], plus[c])]
        rng = random.Random(0xA17)
        for attempt in range(60):
            if attempt == 0:
                vals = [1] * len(slots)
            elif attempt == 1:
                vals = list(range(1, len(slots) + 1))
            else:
                vals = [rng.randint(1, 9) for _ in slots]
            mat = [[0] * len(plus) for _ in minus]
            for (r, c), v in zip(slots, vals):
                mat[r][c] = v
            pm = ProjMap(plus, minus, tuple(tuple(r) for r in mat))
            if self._check_module_realization(p, pm):
                return pm
        raise RuntimeError("could not realize a minimal presentation of %s"
                           % p.label)

    def _check_module_realization(self, p, pm):
        dims = p.module.dim
        for v in range(1, self.Q.n + 1):
            rows = [r for r, i in enumerate(pm.minus) if self._has_path(i, v)]
            cols = [c for c, j in enumerate(pm.plus) if self._has_path(j, v)]
            sub = [[pm.mat[r][c] for c in cols] for r in rows]
            if rank(sub) != len(cols):
                return False          # not injective at vertex v
            if len(rows) - len(cols) != dims[v - 1]:
                return False
        # the cokernel must be the indecomposable M: its End ring is a brick,
        # so dim Hom(f, f) must equal 1 + dim Hom(P_-, P_+)
        expected = 1 + sum(self._hom_proj(m, q)
                           for m in pm.minus for q in pm.plus)
        basis = self._solve_hom(pm, pm)
        return len(basis) == expected

    # -- Hom spaces ------------------------------------------------------

    def hom_basis(self, f, g):
        key = (f, g)
        if key not in self._hom:
            basis = self._solve_hom(self.real[f], self.real[g])
            self._hom[key] = PathHom(f, g, basis)
        return self._hom[key]

    def _solve_hom(self, F, G):
        """Integer basis of {(phi_+, phi_-) : phi_- F = G phi_+}."""
        pvars = [(r, c) for r in range(len(G.plus)) for c in range(len(F.plus))
                 if self._has_path(G.plus[r], F.plus[c])]
        mvars = [(r, c) for r in range(len(G.minus))
                 for c in range(len(F.minus))
                 if self._has_path(G.minus[r], F.minus[c])]
        nv = len(pvars) + len(mvars)
        if nv == 0:
            return []
        pindex = {rc: k for k, rc in enumerate(pvars)}
        mindex = {rc: k + len(pvars) for k, rc in enumerate(mvars)}
        rows = []
        for R in range(len(G.minus)):
            for C in range(len(F.plus)):
                row = [0] * nv
                for m in range(len(F.minus)):
                    if (R, m) in mindex and F.mat[m][C]:
                        row[mindex[(R, m)]] += F.mat[m][C]
                for m in range(len(G.plus)):
                    if (m, C) in pindex and G.mat[R][m]:
                        row[pindex[(m, C)]] -= G.mat[R][m]
                if any(row):
                    rows.append(row)
        if rows:
            sols = nullspace(rows)
        else:
            sols = [[int(i == k) for i in range(nv)] for k in range(nv)]
        basis = []
        for s in sols:
            phi_p = [[0] * len(F.plus) for _ in range(len(G.plus))]
            phi_m = [[0] * len(F.minus) for _ in range(len(G.minus))]
            for (r, c), k in pindex.items():
                phi_p[r][c] = s[k]
            for (r, c), k in mindex.items():
                phi_m[r][c] = s[k]
            basis.append((tuple(tuple(r) for r in phi_p),
                          tuple(tuple(r) for r in phi_m)))
        return basis

    def _expected_hom_dim(self, f, g):
        Fp, Fm = self.real[f].plus, self.real[f].minus
        Gp, Gm = self.real[g].plus, self.real[g].minus
        if g.kind == "positive":      # Hom(f, O_j^+) = Hom(P_+, P_j)
            return sum(self._hom_proj(c, g.index) for c in Fp)
        if g.kind == "neutral":       # Hom(f, Id_j) = Hom(P_-, P_j)
            return sum(self._hom_proj(m, g.index) for m in Fm)
        if f.kind == "positive":      # target map injective => 0
            return 0
        if f.kind == "neutral":       # Hom(Id_i, g) = Hom(P_i, R_+)
            return sum(self._hom_proj(f.index, q) for q in Gp)
        # both f and g present modules (negative presents P_i); the lifting
        # sequence gives dim Hom(f,g) = dim Hom(M,N) + dim Hom(P_-(f), P_+(g))
        M = self._cokernel(f)
        N = self._cokernel(g)
        corr = sum(self._hom_proj(m, q) for m in Fm for q in Gp)
        return self.cat.hom[M][N] + corr

    def _cokernel(self, p):
        if p.kind == "negative":
            return self.cat.ar.projectives[p.index]
        return p.module

    def _validate_all_hom_dims(self):
        for f in self.cat.objects:
            for g in self.cat.objects:
                got = self.hom_basis(f, g).dim
                want = self._expected_hom_dim(f, g)
                if got != want:
                    raise RuntimeError(
                        "Hom(%s, %s): solved dimension %d, expected %d"
                        % (f.label, g.label, got, want))

    # -- radicals and irreducible morphisms ------------------------------

    def rad_basis(self, f, g):
        """Basis of rad(f, g); equals Hom(f, g) for f != g (bricks)."""
        basis = self.hom_basis(f, g).basis
        if f is not g:
            return basis
        # End(f) is local with End/rad = Q, so rad(f, f) = 0 when End(f) is
        # one-dimensional; it is for every catalog object of A1-A7, D4 (all
        # orientations), D5, D6 and E6
        if len(basis) > 1:
            raise RuntimeError("dim End(%s) = %d > 1: not a brick"
                               % (f.label, len(basis)))
        return []

    def rad2_basis(self, f, g):
        key = (f, g)
        if key not in self._rad2:
            vecs = []
            for h in self.cat.objects:
                left = self.rad_basis(f, h)
                right = self.rad_basis(h, g)
                for a in left:
                    for b in right:
                        vecs.append(_compose(b, a))
            self._rad2[key] = _span_basis([_flatten(v) for v in vecs])
        return self._rad2[key]

    def irreducible_morphisms(self, f, g):
        """A deterministic basis of Irr(f, g) = rad(f, g)/rad^2(f, g),
        returned as representatives (phi_plus, phi_minus) in rad."""
        radb = self.rad_basis(f, g)
        if not radb:
            return []
        stack = list(self.rad2_basis(f, g))
        base_rank = rank(stack) if stack else 0
        reps = []
        for phi in radb:
            cand = stack + [_flatten(phi)]
            r = rank(cand)
            if r > base_rank + len(reps):
                stack = cand
                reps.append(phi)
        return reps

    # -- the modules T_v ---------------------------------------------------

    def build_tv(self, v):
        iq = self.iq
        if v.kind == "negative":
            return self._build_t_negative(v)
        part = 0 if v.kind == "positive" else 1   # top of phi_plus/phi_minus
        i = v.index
        dims = iq.tv_dim(v)
        mats = []
        for (src, dst, _val, typ) in iq.arrows:
            ds, dd = dims[iq.index[src]], dims[iq.index[dst]]
            if ds == 0 or dd == 0:
                mats.append(None)
                continue
            if typ == "C":
                mats.append(tuple((0,) * ds for _ in range(dd)))
                continue
            reps = self.irreducible_morphisms(src, dst)
            if len(reps) != 1:
                raise RuntimeError("Irr(%s,%s) not one-dimensional"
                                   % (src.label, dst.label))
            phi = reps[0][part]
            s_sum = self.real[src].plus if part == 0 else self.real[src].minus
            d_sum = self.real[dst].plus if part == 0 else self.real[dst].minus
            srows = [k for k, q in enumerate(d_sum) if q == i]
            scols = [k for k, q in enumerate(s_sum) if q == i]
            if len(srows) != dd or len(scols) != ds:
                raise RuntimeError("summands at %d do not match T_%s"
                                   % (i, v.label))
            mats.append(tuple(tuple(phi[r][c] for c in scols) for r in srows))
        return RepZ(iq, dims, tuple(mats))

    def _build_t_negative(self, v):
        iq = self.iq
        cat = self.cat
        i_star = cat.star[v.index]
        support = {p for p in iq.vertices
                   if p.kind != "neutral" and cat.orbit[p][0] == i_star}
        dims = iq.tv_dim(v)
        if dims != tuple(int(p in support) for p in iq.vertices):
            raise RuntimeError("T_%s is not the orbit chain" % v.label)
        mats = []
        for (src, dst, _val, _typ) in iq.arrows:
            if src in support and dst in support:
                if cat.orbit[dst][1] != cat.orbit[src][1] + 1:
                    raise RuntimeError("arrow %s -> %s is not one tau step"
                                       % (src.label, dst.label))
                mats.append(((1,),))
            else:
                mats.append(None)
        return RepZ(iq, dims, tuple(mats))


@dataclass
class RepZ:
    """An integer representation of the ice quiver.

    ``dims`` is indexed like iq.vertices; ``mats`` like iq.arrows, with the
    matrix for arrow u -> w of shape dims(w) x dims(u) (None off support).
    """
    iq: object
    dims: tuple
    mats: tuple

    def to_json_dict(self):
        return {
            "dims": {p.label: d for p, d in zip(self.iq.vertices, self.dims)
                     if d},
            "mats": {"%s->%s" % (a[0].label, a[1].label): [list(r) for r in m]
                     for a, m in zip(self.iq.arrows, self.mats)
                     if m is not None},
        }


def reduce_for_counting(rep):
    """Return a RepZ with the same subrepresentation dimension-vector set
    whose matrix entries all lie in {-1, 0, 1}.

    This is not in general an isomorphism of representations: scalars on
    arrows between one-dimensional vertex spaces never affect which subspace
    tuples are closed under the maps, so they are normalized to 1.  At
    two-dimensional vertices the incident image/kernel lines are moved to the
    standard configuration (1,0), (0,1), (1,1) by an honest base change.
    Entries that are nonzero over Q then stay nonzero mod 2 and mod 3, so
    finite-field subrepresentation enumeration sees the true constraints.
    The base change and its inverse are taken in ints, each up to a nonzero
    scalar (the inverse as the 2x2 adjugate); every matrix is divided by
    its leading entry at the end, so the scalars cancel.
    """
    iq = rep.iq
    n = len(iq.vertices)
    dims = rep.dims
    g = [None] * n                   # base change at dim-2 vertices
    ginv = [None] * n
    for k in range(n):
        if dims[k] < 2:
            continue
        if dims[k] > 2:
            raise NotImplementedError("vertex dimension > 2")
        lines = []
        for (s, d, _v, _t), m in zip(iq.arrows, rep.mats):
            if m is None or not any(any(r) for r in m):
                continue
            si, di = iq.index[s], iq.index[d]
            if si == k and dims[di] >= 2 or di == k and dims[si] >= 2:
                raise NotImplementedError("arrow between dim-2 vertices")
            if di == k:
                _add_line(lines, (m[0][0], m[1][0]))
            elif si == k:
                _add_line(lines, (m[0][1], -m[0][0]))
        if len(lines) > 3:
            raise NotImplementedError("more than 3 lines at a dim-2 vertex")
        while len(lines) < 2:
            for cand in ((1, 0), (0, 1)):
                if len(lines) < 2:
                    _add_line(lines, cand)
        # h has the first two lines as its columns; they are distinct
        # primitive lines, so det(h) != 0
        h = [[lines[0][0], lines[1][0]], [lines[0][1], lines[1][1]]]
        if len(lines) == 3:
            # det(h) times the coordinates of the third line in the basis
            # of the first two, read off the adjugate of h
            x, y = lines[2]
            a = h[1][1] * x - h[0][1] * y
            b = h[0][0] * y - h[1][0] * x
            if not a or not b:
                raise RuntimeError("degenerate third line")
            h = [[h[0][0] * a, h[0][1] * b], [h[1][0] * a, h[1][1] * b]]
        ginv[k] = h
        g[k] = [[h[1][1], -h[0][1]], [-h[1][0], h[0][0]]]
    mats = []
    for (s, d, _v, _t), m in zip(iq.arrows, rep.mats):
        if m is None:
            mats.append(None)
            continue
        si, di = iq.index[s], iq.index[d]
        mm = m
        if g[di] is not None:
            mm = [[sum(g[di][i][j] * mm[j][c] for j in range(2))
                   for c in range(len(mm[0]))] for i in range(2)]
        if ginv[si] is not None:
            mm = [[sum(mm[r][j] * ginv[si][j][c] for j in range(2))
                   for c in range(2)] for r in range(len(mm))]
        flat = [x for row in mm for x in row]
        if any(flat):
            if len(flat) == 1:
                mm = [[1]]
            else:
                lead = next(x for x in flat if x)
                if any(x not in (0, lead, -lead) for x in flat):
                    raise RuntimeError("entries not in {-1,0,1} after "
                                       "reduction: %s / %d" % (mm, lead))
                mm = [[x // lead for x in row] for row in mm]
        mats.append(tuple(tuple(row) for row in mm))
    return RepZ(iq, dims, tuple(mats))


def _add_line(lines, vec):
    a, b = vec
    if a == 0 and b == 0:
        return
    d = gcd(abs(a), abs(b))
    a, b = a // d, b // d
    if a < 0 or (a == 0 and b < 0):
        a, b = -a, -b
    if (a, b) not in lines:
        lines.append((a, b))


# -- small helpers ---------------------------------------------------------

def _reachability(Q):
    out = {i: [] for i in range(1, Q.n + 1)}
    for (i, j) in Q.arrows:
        out[i].append(j)
    reach = {}
    for s in range(1, Q.n + 1):
        seen = {s}
        todo = [s]
        while todo:
            u = todo.pop()
            for w in out[u]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        reach[s] = seen
    return reach


def _compose(psi, phi):
    """psi after phi, componentwise on (phi_plus, phi_minus)."""
    return (tuple(tuple(r) for r in mat_mul(psi[0], phi[0])),
            tuple(tuple(r) for r in mat_mul(psi[1], phi[1])))


def _flatten(phi):
    return [x for part in phi for row in part for x in row]


def _span_basis(vecs):
    basis = []
    for v in vecs:
        if any(v) and (not basis or rank(basis + [v]) > len(basis)):
            basis.append(v)
    return basis
