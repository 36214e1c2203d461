"""Explicit linear algebra over the path algebra of Q.

For a trivially valued Dynkin quiver Q (an oriented tree), every Hom space
between indecomposable projectives is spanned by at most one path, so a
morphism between sums of projectives is just a scalar matrix whose support is
constrained by path existence.  This module realizes every presentation in
the catalog as an explicit integer matrix, computes Hom spaces between
presentations by solving the commutativity equations, extracts irreducible
morphisms as a complement of rad^2 inside rad, and assembles the integer
quiver representations T_v attached to the frozen vertices of the ice quiver.

PathAlg solves Hom(f, g) for every ordered pair of catalog objects when it
is built and keeps the bases in the list of lists homs[a][b], addressed by
the objects' positions in cat.objects.  The solver reads the Shape of each
realization, made once per ProjMap: which summands each vertex reaches,
the nonzero entries of each row and column, and reach bit masks that
settle a pair without variables at once.  Each solved dimension is then
compared with the one the catalog predicts, read from per-object tables of
how many plus and minus summands each vertex reaches and, for two modules,
from the catalog's own Hom table; any mismatch raises RuntimeError.  The
irreducible morphisms along an arrow are computed once per arrow and
PathAlg, against an rad^2 span built incrementally in echelon form.
"""

import random
from dataclasses import dataclass
from math import gcd

from .exact import nullspace, rank


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


class Shape:
    """What the Hom solver reads of one realization pm, made once.

    plus_from[v] (minus_from[v]) lists the positions of the plus (minus)
    summands u of pm that vertex v reaches, a path v ~> u; it is indexed by
    the vertices 1..n of Q.  col_nz[c] lists the pairs (r, x) of the nonzero
    entries x = mat[r][c] of column c, row_nz[r] the pairs (c, x) of row r.
    Bit u of plus_mask (minus_mask) is set when u is a plus (minus) summand,
    bit v of plus_seen (minus_seen) when v reaches one.
    """

    def __init__(self, pm, reach):
        self.pm = pm
        self.plus_from = [tuple(c for c, u in enumerate(pm.plus) if u in r)
                          for r in reach]
        self.minus_from = [tuple(m for m, u in enumerate(pm.minus) if u in r)
                           for r in reach]
        self.col_nz = [tuple((r, row[c]) for r, row in enumerate(pm.mat)
                             if row[c])
                       for c in range(len(pm.plus))]
        self.row_nz = [tuple((c, x) for c, x in enumerate(row) if x)
                       for row in pm.mat]
        self.plus_mask = _mask(pm.plus)
        self.minus_mask = _mask(pm.minus)
        self.plus_seen = _mask(v for v, cs in enumerate(self.plus_from) if cs)
        self.minus_seen = _mask(v for v, ms in enumerate(self.minus_from)
                                if ms)


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
        # reach[v]: the vertices u with a path v ~> u; reach[0] is empty
        self.reach = _reachability(Q)
        self.index = {p: a for a, p in enumerate(cat.objects)}
        # the nullspace of each distinct system of Hom equations solved
        self.kernels = {}
        self.shapes = [self._realize(p) for p in cat.objects]
        self.homs = [[self._solve_hom(F, G) for G in self.shapes]
                     for F in self.shapes]
        self._validate_all_hom_dims()
        # irr[k]: the irreducible morphisms along iq.arrows[k], once built
        self.irr = [None] * len(iq.arrows)

    # -- realizing presentations ----------------------------------------

    def _realize(self, p):
        plus, minus = _summands(self.cat, p)
        if p.kind == "negative":
            return Shape(ProjMap(plus, minus, ((),) * len(minus)), self.reach)
        if p.kind == "positive":
            return Shape(ProjMap(plus, minus, ()), self.reach)
        if p.kind == "neutral":
            return Shape(ProjMap(plus, minus, ((1,),)), self.reach)
        return self._realize_module(p, plus, minus)

    def _realize_module(self, p, plus, minus):
        # allowed entries: a nontrivial path minus[r] ~> plus[c]
        reach = self.reach
        slots = [(r, c) for r in range(len(minus)) for c in range(len(plus))
                 if minus[r] != plus[c] and plus[c] in reach[minus[r]]]
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
            S = Shape(ProjMap(plus, minus, tuple(tuple(r) for r in mat)),
                      reach)
            if self._check_module_realization(p, S):
                return S
        raise RuntimeError("could not realize a minimal presentation of %s"
                           % p.label)

    def _check_module_realization(self, p, S):
        pm = S.pm
        reach = self.reach
        dims = p.module.dim
        for v in range(1, self.Q.n + 1):
            # the summands that reach v, the ones P_v maps into
            rows = [r for r, i in enumerate(pm.minus) if v in reach[i]]
            cols = [c for c, j in enumerate(pm.plus) if v in reach[j]]
            sub = [[pm.mat[r][c] for c in cols] for r in rows]
            if rank(sub) != len(cols):
                return False          # not injective at vertex v
            if len(rows) - len(cols) != dims[v - 1]:
                return False
        # the cokernel must be the indecomposable M: its End ring is a brick,
        # so dim Hom(f, f) must equal 1 + dim Hom(P_-, P_+)
        expected = 1 + sum(len(S.minus_from[q]) for q in pm.plus)
        return len(self._solve_hom(S, S)) == expected

    # -- Hom spaces ------------------------------------------------------

    def hom_basis(self, f, g):
        return PathHom(f, g, self.homs[self.index[f]][self.index[g]])

    def _solve_hom(self, F, G):
        """Integer basis of {(phi_+, phi_-) : phi_- F = G phi_+} for the
        shapes F and G of two realizations.

        The variables are the entries of phi_+ (row-major, G's plus summands
        by F's) over a path, then those of phi_-; each equation row is an
        entry (R, C) of phi_- F - G phi_+ that some variable enters.
        """
        if not (G.plus_mask & F.plus_seen or G.minus_mask & F.minus_seen):
            return []
        fp, fm = len(F.pm.plus), len(F.pm.minus)
        gp, gm = len(G.pm.plus), len(G.pm.minus)
        # slots[k]: the flat position of variable k in phi_+ then phi_-;
        # pk and mk map a flat position of phi_+ and phi_- to its variable
        slots = []
        pk = [-1] * (gp * fp)
        for r, u in enumerate(G.pm.plus):
            for c in F.plus_from[u]:
                pk[r * fp + c] = len(slots)
                slots.append(r * fp + c)
        mk = [-1] * (gm * fm)
        for r, u in enumerate(G.pm.minus):
            for c in F.minus_from[u]:
                mk[r * fm + c] = len(slots)
                slots.append(gp * fp + r * fm + c)
        nv = len(slots)
        rows = []
        for R, gnz in enumerate(G.row_nz):
            mrow = mk[R * fm:(R + 1) * fm]
            for C, fnz in enumerate(F.col_nz):
                terms = [(mrow[m], x) for m, x in fnz if mrow[m] >= 0]
                terms += [(pk[m * fp + C], -x) for m, x in gnz
                          if pk[m * fp + C] >= 0]
                if terms:
                    row = [0] * nv
                    for k, x in terms:
                        row[k] = x
                    rows.append(tuple(row))
        dims = (gp, fp, gm, fm)
        if not rows:
            return [_phi((pos,), (1,), dims) for pos in slots]
        rows = tuple(rows)
        sols = self.kernels.get(rows)
        if sols is None:
            sols = self.kernels[rows] = nullspace(rows)
        return [_phi(slots, s, dims) for s in sols]

    def _validate_all_hom_dims(self):
        """Compare every solved dim Hom(f, g) with the catalog's.

        nplus[a][v] (nminus[a][v]) counts the plus (minus) summands of
        object a that vertex v reaches, that is dim Hom(P(summands), P_v).
        """
        cat = self.cat
        objs = cat.objects
        nplus = [[len(cs) for cs in S.plus_from] for S in self.shapes]
        nminus = [[len(ms) for ms in S.minus_from] for S in self.shapes]
        # the module each object presents (None for O_j^+ and Id_j), and
        # its row of the catalog's Hom table
        cokers = [_cokernel(cat, f) for f in objs]
        hom_rows = [cat.hom[M] if M is not None else None for M in cokers]
        for a, f in enumerate(objs):
            row = self.homs[a]
            for b, g in enumerate(objs):
                Gp = self.shapes[b].pm.plus
                if g.kind == "positive":      # Hom(f, O_j^+) = Hom(P_+, P_j)
                    want = nplus[a][g.index]
                elif g.kind == "neutral":     # Hom(f, Id_j) = Hom(P_-, P_j)
                    want = nminus[a][g.index]
                elif f.kind == "positive":    # target map injective => 0
                    want = 0
                elif f.kind == "neutral":     # Hom(Id_i, g) = Hom(P_i, R_+)
                    want = sum(nplus[a][q] for q in Gp)
                else:
                    # both f and g present modules (negative presents P_i);
                    # the lifting sequence gives dim Hom(f, g) =
                    # dim Hom(M, N) + dim Hom(P_-(f), P_+(g))
                    want = (hom_rows[a][cokers[b]] +
                            sum(nminus[a][q] for q in Gp))
                got = len(row[b])
                if got != want:
                    raise RuntimeError(
                        "Hom(%s, %s): solved dimension %d, expected %d"
                        % (f.label, g.label, got, want))

    # -- radicals and irreducible morphisms ------------------------------

    def _rad(self, a, b):
        """Basis of rad(f, g) for the objects at a and b; equals Hom(f, g)
        for f != g (bricks)."""
        basis = self.homs[a][b]
        if a != b:
            return basis
        # End(f) is local with End/rad = Q, so rad(f, f) = 0 when End(f) is
        # one-dimensional; it is for every catalog object of A1-A7, D4 (all
        # orientations), D5, D6 and E6
        if len(basis) > 1:
            raise RuntimeError("dim End(%s) = %d > 1: not a brick"
                               % (self.cat.objects[a].label, len(basis)))
        return []

    def irreducible_morphisms(self, f, g):
        """A deterministic basis of Irr(f, g) = rad(f, g)/rad^2(f, g),
        returned as representatives (phi_plus, phi_minus) in rad: each
        vector of rad(f, g)'s basis, in order, that is not in the span of
        rad^2(f, g) and the ones chosen before it."""
        a, b = self.index[f], self.index[g]
        radb = self._rad(a, b)
        if not radb:
            return []
        F = self.shapes[a].pm
        widths = (len(F.plus), len(F.minus))
        span = []
        for h in range(len(self.shapes)):
            left = self._rad(a, h)
            if left:
                for psi in self._rad(h, b):
                    for phi in left:
                        _span_add(span, _compose_flat(psi, phi, widths))
        return [phi for phi in radb if _span_add(span, _flatten(phi))]

    # -- the modules T_v ---------------------------------------------------

    def build_tv(self, v):
        iq = self.iq
        if v.kind == "negative":
            return self._build_t_negative(v)
        part = 0 if v.kind == "positive" else 1   # top of phi_plus/phi_minus
        i = v.index
        dims = iq.tv_dim(v)
        mats = []
        for k, (src, dst, _val, typ) in enumerate(iq.arrows):
            ds, dd = dims[iq.index[src]], dims[iq.index[dst]]
            if ds == 0 or dd == 0:
                mats.append(None)
                continue
            if typ == "C":
                mats.append(tuple((0,) * ds for _ in range(dd)))
                continue
            reps = self.irr[k]
            if reps is None:
                reps = self.irr[k] = self.irreducible_morphisms(src, dst)
            if len(reps) != 1:
                raise RuntimeError("Irr(%s,%s) not one-dimensional"
                                   % (src.label, dst.label))
            phi = reps[0][part]
            s_pm = self.shapes[self.index[src]].pm
            d_pm = self.shapes[self.index[dst]].pm
            s_sum = s_pm.plus if part == 0 else s_pm.minus
            d_sum = d_pm.plus if part == 0 else d_pm.minus
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
    """reach[v] for v in 0..n: the set of vertices u with a path v ~> u
    (v itself included); reach[0] is empty."""
    out = {i: [] for i in range(1, Q.n + 1)}
    for (i, j) in Q.arrows:
        out[i].append(j)
    reach = [set()]
    for s in range(1, Q.n + 1):
        seen = {s}
        todo = [s]
        while todo:
            u = todo.pop()
            for w in out[u]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        reach.append(seen)
    return reach


def _mask(vertices):
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _cokernel(cat, p):
    """The module p presents: M for a module, P_i for O_i^-, None for
    O_i^+ and Id_i."""
    if p.kind == "negative":
        return cat.ar.projectives[p.index]
    return p.module


def _phi(slots, values, dims):
    """(phi_plus, phi_minus) as tuples of rows, for dims = (gp, fp, gm, fm):
    phi_plus is gp x fp and phi_minus gm x fm, zero but for the values at
    the flat positions slots, which count phi_plus's entries first."""
    gp, fp, gm, fm = dims
    off = gp * fp
    flat = [0] * (off + gm * fm)
    for pos, x in zip(slots, values):
        flat[pos] = x
    return (tuple(tuple(flat[r * fp:(r + 1) * fp]) for r in range(gp)),
            tuple(tuple(flat[off + r * fm:off + (r + 1) * fm])
                  for r in range(gm)))


def _compose_flat(psi, phi, widths):
    """psi after phi, componentwise on (phi_plus, phi_minus), flattened
    like _flatten; widths are the column counts of phi's two parts, which
    a part through no summand (no rows) does not show."""
    out = []
    for p, q, w in zip(psi, phi, widths):
        if q:
            cols = list(zip(*q))
            for row in p:
                out.extend(sum(x * y for x, y in zip(row, col))
                           for col in cols)
        else:
            out.extend([0] * (len(p) * w))
    return out


def _flatten(phi):
    return [x for part in phi for row in part for x in row]


def _span_add(span, v):
    """Reduce the int vector v by span, a list of (pivot, row) pairs in
    echelon form (each row is zero at the pivots before its own), and
    append the primitive remainder when it is nonzero; return whether v
    was outside the span."""
    for p, row in span:
        x = v[p]
        if x:
            y = row[p]
            v = [y * s - x * t for s, t in zip(v, row)]
    p = next((k for k, x in enumerate(v) if x), -1)
    if p < 0:
        return False
    g = gcd(*v)
    span.append((p, [x // g for x in v] if g > 1 else v))
    return True
