"""Polyhedral cones cut out by subrepresentations of the modules T_v.

The cone attached to an ice-quiver variant is described by one linear
inequality g . dim(S) >= 0 per recorded subrepresentation dimension vector S.
Columns are grouped by the kind of the frozen vertex the T_v belongs to:
group "u" for negative, "l" for neutral, "r" for positive vertices.
"""

import itertools
from dataclasses import dataclass, field
from functools import cache

from . import mutation, pathalg
from .exact import lp_min

_GROUP_OF_KIND = {"negative": "u", "neutral": "l", "positive": "r"}
_GROUP_ORDER = {"u": 0, "l": 1, "r": 2}

# largest total dimension of a T_v that the brute force enumerates
DEFAULT_CAP = 24


def subreps_bruteforce(rep, q):
    """All dimension vectors of nonzero subrepresentations of rep over the
    field with q elements (the full module included).

    The matrices are first canonicalized by pathalg.reduce_for_counting so
    that reduction mod q cannot silently drop a constraint.  Raises
    NotImplementedError for inputs the enumeration does not handle: total
    dimension above DEFAULT_CAP, or a shape reduce_for_counting refuses.
    """
    return _subreps_reduced(_reduced(rep), q, {})


def _reduced(rep):
    """rep canonicalized by pathalg.reduce_for_counting, for the
    enumeration over any field; refuses a total dimension above DEFAULT_CAP
    before reducing."""
    if sum(rep.dims) > DEFAULT_CAP:
        raise NotImplementedError(
            "total dimension %d exceeds cap %d; use the F-polynomial route"
            % (sum(rep.dims), DEFAULT_CAP))
    return pathalg.reduce_for_counting(rep)


def _subreps_reduced(rep, q, tables):
    """subreps_bruteforce of a rep that _reduced returned.

    tables maps (matrix, source dim, target dim, q) to the closure table of
    _closure_table; a table missing there is built and stored, so callers
    that pass one dict share each table between their arrows and T_v.
    """
    iq = rep.iq
    dims = rep.dims
    support = [k for k in range(len(iq.vertices)) if dims[k]]
    pos = {k: t for t, k in enumerate(support)}
    # checks[t]: each arrow whose later end in the support order is
    # support[t], as (its other end, for each subspace chosen there the
    # mask of the subspaces at support[t] that the arrow allows)
    checks = [[] for _ in support]
    for (s, d, _v, _t), m in zip(iq.arrows, rep.mats):
        if m is not None and any(any(r) for r in m):
            si, di = iq.index[s], iq.index[d]
            key = (m, dims[si], dims[di], q)
            table = tables.get(key)
            if table is None:
                table = tables[key] = _closure_table(m, dims[si], dims[di], q)
            if pos[di] > pos[si]:
                checks[pos[di]].append((si, table[0]))
            else:
                checks[pos[si]].append((di, table[1]))
    # the dimension of each subspace at support[t]
    sizes = [[sub[0] for sub in _subspaces(dims[k], q)] for k in support]
    found = set()
    sel = [0] * len(iq.vertices)    # the chosen subspace's index
    cur = [0] * len(iq.vertices)    # its dimension

    def dfs(t):
        if t == len(support):
            if any(cur):
                found.add(tuple(cur))
            return
        k = support[t]
        size = sizes[t]
        allowed = (1 << len(size)) - 1
        for other, masks in checks[t]:
            allowed &= masks[sel[other]]
        while allowed:
            low = allowed & -allowed
            a = low.bit_length() - 1
            allowed ^= low
            sel[k] = a
            cur[k] = size[a]
            dfs(t + 1)
        cur[k] = 0

    dfs(0)
    return found


def _closure_table(m, ds, dd, q):
    """The subspace pairs that m maps one into the other mod q, over the
    subspaces of GF(q)^ds and GF(q)^dd as _subspaces lists them, as two
    lists of bit masks: bit b of the first at a, and bit a of the second
    at b, when m maps subspace a of the source into subspace b of the
    target."""
    src, dst = _subspaces(ds, q), _subspaces(dd, q)
    into = [0] * len(src)
    onto = [0] * len(dst)
    for a, (_dim, _members, basis) in enumerate(src):
        imgs = [tuple(sum(x * y for x, y in zip(row, vec)) % q for row in m)
                for vec in basis]
        for b, (_d, members, _b) in enumerate(dst):
            if all(img in members for img in imgs):
                into[a] |= 1 << b
                onto[b] |= 1 << a
    return into, onto


def strict_subreps(rep, q, tables):
    """Nonzero strict subrepresentation dimension vectors over GF(q) of a
    rep that _reduced returned, so that one reduction serves every field;
    tables is passed to _subreps_reduced."""
    full = tuple(rep.dims)
    return {dv for dv in _subreps_reduced(rep, q, tables) if dv != full}


@cache
def _subspaces(d, q):
    """All subspaces of GF(q)^d as (dim, member set, basis), sorted by
    dimension and members; computed once per (d, q)."""
    vecs = [v for v in itertools.product(range(q), repeat=d) if any(v)]
    seen = {}
    for r in range(d + 1):
        for combo in itertools.combinations(vecs, r):
            members = {tuple([0] * d)}
            for b in combo:
                new = set()
                for c in range(q):
                    for x in members:
                        new.add(tuple((xi + c * bi) % q
                                      for xi, bi in zip(x, b)))
                members = new
            key = frozenset(members)
            if key not in seen:
                dim = 0
                size = len(members)
                while q ** dim < size:
                    dim += 1
                seen[key] = (dim, key, combo)
    return tuple(sorted(seen.values(), key=lambda t: (t[0], sorted(t[1]))))


@dataclass
class ConeSpec:
    variant: str
    vertices: list                  # ambient vertex list (variant order)
    columns: list                   # (frozen vertex, dim vector over ambient)
    groups: dict = field(default_factory=dict)   # group -> column indices

    @property
    def dim(self):
        return len(self.vertices)

    def rows(self):
        """The inequalities as rows: g . row >= 0 for each column."""
        return [list(col) for _v, col in self.columns]

    def to_json_dict(self):
        return {
            "variant": self.variant,
            "ambient": [v.label for v in self.vertices],
            "columns": [{"frozen": v.label, "vector": list(c)}
                        for v, c in self.columns],
            "groups": {g: list(ix) for g, ix in self.groups.items()},
        }

    def to_csv(self):
        lines = [",".join(["vertex"] + [v.label for v, _ in self.columns])]
        for i, v in enumerate(self.vertices):
            lines.append(",".join([v.label] +
                                  [str(c[i]) for _, c in self.columns]))
        return "\n".join(lines)


def tv_strict_sets(iq, source="bruteforce"):
    """Strict nonzero subrep dim vectors of every T_v of the full2 quiver,
    as a dict frozen vertex -> set of vectors (full2 coordinates).

    source "bruteforce" enumerates over GF(2) and GF(3) and requires the two
    to agree; "fpoly" runs the mutation algorithm.  The brute force raises
    NotImplementedError where it does not apply (see subreps_bruteforce).
    Any other source raises ValueError.
    """
    if source not in ("bruteforce", "fpoly"):
        raise ValueError("unknown T_v source %r" % (source,))
    out = {}
    if source == "fpoly":
        for i in range(1, iq.n + 1):
            for v, s in mutation.tv_subreps_via_fpoly(iq, i).items():
                out[v] = set(s)
    if source == "bruteforce":
        alg = pathalg.PathAlg(iq)
        # the closure tables of this call, shared by its T_v and arrows
        tables = {}
        for v in iq.vertices:
            if not iq.frozen[v]:
                continue
            rep = _reduced(alg.build_tv(v))
            s2 = strict_subreps(rep, 2, tables)
            s3 = strict_subreps(rep, 3, tables)
            if s2 != s3:
                raise RuntimeError(
                    "subrep sets of T_%s differ between GF(2) and GF(3): "
                    "%s vs %s" % (v.label, sorted(s2 - s3), sorted(s3 - s2)))
            out[v] = s2
    return out


def assemble_cone(amb, *, strict_sets):
    """Build the ConeSpec of the variant of the ice quiver amb from the T_v
    sets of the full2 ice quiver (as returned by tv_strict_sets; full2
    coordinates follow amb.cat.objects).

    The frozen vertices of amb are the T_v the variant keeps.  Every vector
    is restricted to the vertices of amb, and the full dimension vector of
    T_v is added wherever amb lacks its maximal frozen vertex.
    """
    full2 = {p: k for k, p in enumerate(amb.cat.objects)}
    keep = [full2[v] for v in amb.vertices]
    entries = []
    for v in amb.vertices:
        if not amb.frozen[v]:
            continue
        g = _GROUP_OF_KIND[v.kind]
        vecs = {tuple(vec[k] for k in keep) for vec in strict_sets[v]}
        # pi^{-1}(v) is the maximal frozen vertex of T_v, the spot only the
        # full module occupies
        if amb.cat.pi_inv(v) not in amb.index:
            vecs.add(amb.tv_dim(v))
        for r in vecs:
            if any(r):
                entries.append((g, v, r))
    entries.sort(key=lambda e: (_GROUP_ORDER[e[0]], e[1].index, e[2]))
    columns, groups, seen = [], {}, set()
    for g, v, r in entries:
        if (g, r) in seen:
            continue
        seen.add((g, r))
        groups.setdefault(g, []).append(len(columns))
        columns.append((v, r))
    return ConeSpec(amb.variant, list(amb.vertices), columns, groups)


def prune_redundant(spec):
    """Drop every column whose inequality is implied by the others.

    Column h is redundant iff minimizing g . h over the cone cut out by the
    remaining columns (with a box normalization) gives 0; by exact LP
    duality this holds iff h is a nonnegative combination of the remaining
    columns, which is the smaller Farkas feasibility problem solved here.
    The columns are tested in order, each against the ones still kept.
    Columns are dimension vectors, and a nonnegative combination of
    nonnegative vectors uses only those with support inside the sum's.  So
    the LP runs over the kept columns with support inside supp(h), on the
    rows of supp(h) only, and h is kept without one when they do not cover
    supp(h); the decision is that over every column and row.  A zero column
    is redundant whenever another column is kept.  Raises RuntimeError on
    a negative entry.
    """
    cols = [list(c) for _v, c in spec.columns]
    if any(x < 0 for c in cols for x in c):
        raise RuntimeError("prune_redundant needs nonnegative columns")
    # supports as bit masks: bit k is set where the column is nonzero
    supp = [sum(1 << k for k, x in enumerate(c) if x) for c in cols]
    keep = [True] * len(cols)
    for i, s in enumerate(supp):
        if not s:
            keep[i] = not any(k for j, k in enumerate(keep) if j != i)
            continue
        inside = [j for j, t in enumerate(supp)
                  if keep[j] and j != i and not t & ~s]
        cover = 0
        for j in inside:
            cover |= supp[j]
        if cover != s:
            continue
        rows = [k for k, x in enumerate(cols[i]) if x]
        a_eq = [[cols[j][k] for j in inside] for k in rows]
        status, _x, _den = lp_min([0] * len(inside), a_eq=a_eq,
                                  b_eq=[cols[i][k] for k in rows])
        if status == "optimal":
            keep[i] = False
    kept = [j for j in range(len(cols)) if keep[j]]
    renum = {old: new for new, old in enumerate(kept)}
    columns = [spec.columns[j] for j in kept]
    groups = {}
    for g, ix in spec.groups.items():
        new = [renum[i] for i in ix if keep[i]]
        if new:
            groups[g] = new
    return ConeSpec(spec.variant, list(spec.vertices), columns, groups)
