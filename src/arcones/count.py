"""Exact lattice-point counting of weight slices of cones.

A slice is {g : g . h >= 0 for every cone column h, g . sigma = target}.
Counting reduces the affine integer slice to integer coordinates on an
LLL-reduced basis of the left kernel lattice of sigma and enumerates by a
depth-first search that propagates bounds at every node, keeping each
inequality's slack and updating it as the bounds move.  The root slacks and
the check of every leaf read all inequalities at once, packed column by
column into one int per coordinate with a field per inequality, by the one
packing class, PackedForms.
All arithmetic is exact and no floating point is used anywhere.  The 2m
LPs that set up a SliceFamily, one per coordinate bound, are solved by
lp_min's fraction-free integer simplex, which builds the columns of these
wide tableaux (one per inequality, m rows) only as far as Bland's rule
reaches; their int solutions, each over its least denominator, become
integer forms over one common denominator.  Everything that does not
depend on the target is precomputed there, and the rest is linear in the
target: the slice
lattice test, the right-hand sides, the constant rows and the root box
are integer maps of it fixed at set-up (the parametric view of the slice
family, as in Verdoolaege et al. 2007), so SliceFamily.count uses ints
only and no per-target back-substitution.  These maps are packed as the
rows are, so the root reads the target in two big-int
products: one over the target for the particular solution y, and one
over y for every right-hand side, box bound and constant row at once.
SliceFamily.count_lp, which brackets every coordinate by exact LPs and
reads the target through the HNF instead, is the reference the tests
compare it against.
"""

import sys
from array import array
from operator import gt, mul, sub

from .exact import (LPStart, dot, integer_row_solution, lcm,
                    left_kernel_lattice, lp_min, row_hnf, scaled_inverse)


def lp_bound(objective, ineq_rows=None, ineq_rhs=None, sigma=None,
             target=None, sense="min"):
    """Exact optimum of objective . g over the rational polyhedron

        {g : g . row >= rhs for each inequality, g . sigma = target}.

    Returns (status, g, den) with status "optimal", "infeasible" or
    "unbounded": an optimum g / den, with g a list of ints and den > 0 the
    least denominator, re-verified by substitution; g and den are None
    unless status is "optimal".
    """
    d = len(objective)
    ineq_rows = [list(r) for r in (ineq_rows or [])]
    if ineq_rhs is None:
        ineq_rhs = [0] * len(ineq_rows)
    a_ub = [[-r[k] for k in range(d)] for r in ineq_rows]
    b_ub = [-b for b in ineq_rhs]
    a_eq, b_eq = [], []
    if sigma is not None:
        for j in range(len(target)):
            a_eq.append([sigma[k][j] for k in range(d)])
            b_eq.append(target[j])
    c = list(objective) if sense == "min" else [-x for x in objective]
    status, x, den = lp_min(c, a_ub, b_ub, a_eq, b_eq)
    if status != "optimal":
        return status, None, None
    for r, b in zip(ineq_rows, ineq_rhs):
        if dot(x, r) < b * den:
            raise RuntimeError("lp_bound certificate violates inequality")
    for r, b in zip(a_eq, b_eq):
        if dot(r, x) != b * den:
            raise RuntimeError("lp_bound certificate violates equality")
    return "optimal", x, den


def _pack(values, r):
    """The ints values as one int with a field of 64 r bits each, the first
    lowest; a field holds its value modulo 2^(64 r), as two's complement.
    Every value must lie in [-2^(64 r - 1), 2^(64 r - 1))."""
    if r == 1:
        fields = array("q", values)
        if sys.byteorder == "big":
            fields.byteswap()
        data = fields.tobytes()
    else:
        data = b"".join(v.to_bytes(8 * r, "little", signed=True)
                        for v in values)
    return int.from_bytes(data, "little")


def _unpack(x, r, n):
    """The n fields of 64 r bits of the int x >= 0 read as two's complement,
    lowest first: the inverse of _pack."""
    data = x.to_bytes(8 * r * n, "little")
    if r > 1:
        w = 8 * r
        return [int.from_bytes(data[i:i + w], "little", signed=True)
                for i in range(0, len(data), w)]
    fields = array("q", data)
    if sys.byteorder == "big":
        fields.byteswap()
    return fields.tolist()


def _width(bound):
    """The width r, in 64-bit words, of the narrowest fields that hold
    every value v with |v| <= bound as two's complement: the smallest r
    with bound < 2^(64 r - 1).  Every packed table picks its width by this
    one rule, from a bound on all it holds."""
    return bound.bit_length() // 64 + 1


def _bias(fields, r):
    """2^(64 r - 1) in each of fields fields of 64 r bits."""
    return int.from_bytes((bytes(8 * r - 1) + b"\x80") * fields, "little")


class PackedForms:
    """Integer forms f_i of length n packed coordinate by coordinate into
    ints, so that f_i . x for every form i at once takes n big-int
    multiply-adds, not one dot product per form (SIMD within a register:
    Lamport 1975, "Multiple byte processing with full-word instructions").

    The table of width r gives each form a field of W = 64 r bits, the
    first form lowest.  It holds cols[k] = sum_i f_ik 2^(W i) for each
    coordinate k, and bias, 2^(W-1) in every field, so that at x

        bias + sum_k x_k cols[k] = sum_i (2^(W-1) + f_i . x) 2^(W i).

    While every |f_i . x| < 2^(W-1), each term stays in its own field and
    values reads them back.  bound(x) bounds every |f_i . x| and every
    |f_ik|; the table of width 1 is built with the forms when its fields
    hold every |f_ik|, and wider ones on first use, each kept in tables
    under its r.
    """

    def __init__(self, forms, n):
        self.forms = forms
        self.n = n
        # the largest |f_ik|, which bounds |f_i . x| by sum_k |x_k| times it
        self.norm = max((abs(v) for f in forms for v in f), default=0)
        self.tables = {}    # r -> (cols, bias)
        if self.norm < 1 << 63:
            self.table(1)

    def table(self, r):
        """The table of width r, (cols, bias), built on first use; its
        fields must hold every |f_ik|."""
        table = self.tables.get(r)
        if table is None:
            bias = _bias(len(self.forms), r)
            # flipping each field's top bit turns f_ik's two's complement
            # into 2^(W-1) + f_ik, as |f_ik| < 2^(W-1)
            cols = [(_pack([f[k] for f in self.forms], r) ^ bias) - bias
                    for k in range(self.n)]
            table = self.tables[r] = (cols, bias)
        return table

    def bound(self, x):
        """A bound on every |f_i . x| and every |f_ik|: norm times
        1 + sum_k |x_k|."""
        return self.norm * (sum(map(abs, x)) + 1)

    def values(self, x, r):
        """[f_i . x for every form i], in the table of width r, whose
        fields must hold bound(x)."""
        cols, bias = self.table(r)
        return _unpack(sum(map(mul, x, cols), bias) ^ bias, r,
                       len(self.forms))


def slacks(rows, pos, start, lo, hi):
    """For every row a_j of the packed rows (a PackedForms), the max of
    a_j . c over the box lo..hi less b_j, given pos, their positive parts
    packed alike, and start = (r, base) sized for the box, with base =
    bias - sum_j b_j 2^(W j): lo . a_j plus (hi - lo) . max(a_j, 0)."""
    r, base = start
    cols, bias = rows.table(r)
    s = sum(map(mul, map(sub, hi, lo), pos.table(r)[0]),
            sum(map(mul, lo, cols), base))
    # flipping each field's top bit leaves the slack's two's complement
    return _unpack(s ^ bias, r, len(rows.forms))


def certificate(rows, start):
    """A test of points c of the box that start = (r, base) was sized for:
    whether a_j . c >= b_j for every row a_j of the packed rows (a
    PackedForms), computed afresh from them at each call."""
    r, base = start
    cols, bias = rows.table(r)
    top = 64 * r * len(rows.forms)

    def holds(c):
        s = sum(map(mul, c, cols), base)
        # every field's top bit set, and no carry past the last field
        return s & bias == bias and not s >> top
    return holds


class SliceFamily:
    """Shared counting machinery for all weight slices of one cone.

    Precomputes, independently of the target: the row Hermite normal form
    (H, U) of sigma, an LLL-reduced integer basis of the left kernel
    lattice of sigma (so slice lattice points become integer vectors c
    with g = g0 + c . kernel; a short, nearly orthogonal basis gives
    sparse rows and a box close to the slice, where the saturated basis
    read off the HNF transform is skewed and the search meets far more
    dead ends), the inequality vectors in c-coordinates, and
    per-coordinate bounding functionals expressing each +-c_i as a
    nonnegative combination of the inequality vectors, one lp_min each.
    Both are read over their nonzero entries only.  sigma is the list
    of rows of the weight configuration, one per vertex of the cone, and
    must have full column rank.

    Every slice is a polytope: its recession cone is the slice at target
    0, which counts the degree-0 piece of the upper cluster algebra, the
    constants, and so is {0}.  Every +-c_i therefore has a functional, and
    init raises RuntimeError where an LP finds none.

    Everything else is linear in the target t.  With D = y_den and
    Y = D * H_top^-1 (exact.scaled_inverse of the square top of H),
    t is on the slice lattice exactly when D divides t . Y, and then
    y = t . Y / D gives the particular solution g0 = y . U_top.  Each
    cone column's right-hand side is a form q_i over y, so the constant
    rows are sign tests y . q_i <= 0 and the functionals, over one common
    denominator (lower_form and upper_form over box_den), become forms of
    the box bounds' numerators over y.  _root reads all of it in two
    packed products: target_map packs the columns of Y, so one product
    over t gives t . Y; rhs_map packs, one int per coordinate of y, the
    active rows' right-hand sides in the low fields, one per row as packed
    packs the rows, and the box numerators and the constant rows in the
    high fields, so one product over y gives them all.  Both pick their
    field width by one rule (_width), the second from a bound on the root
    box's reach read off the box numerators' bound, so that its width also
    holds every |a_j . c - b_j| over the box, as the leaf certificate needs.
    Everything a count reads is kept as ints, so the per-target path does
    integer arithmetic only.

    count is a depth-first search over the box that narrows the bounds by
    propagation at every node (queue-based AC-3, Mackworth 1977).  Each
    row's slack, the max of a . c over the box less b, is computed once at
    the root for all rows at once (slacks, from packed, packed_pos and the
    packed right-hand sides), and then kept: it reads hi[k] where the row's
    entry at k is positive and lo[k] where it is negative, so the watch lists
    watch_hi[k] and watch_lo[k], the (row, |entry|) pairs of those rows,
    say whose slack a moved bound lowers and by how much.  Propagation
    reads row j through its entry tables, built once: raise_lo[j] holds
    (k, a_jk, watch_lo[k]) for each positive entry, which raises lo[k], and
    lower_hi[j] holds (k, |a_jk|, watch_hi[k]) for each negative one, which
    lowers hi[k].  A negative slack ends the node at once, and a row is
    queued only while its slack is below its threshold amax * wmax (its
    largest |entry| times the widest range of the box, formed where the
    row is read), below which it may still tighten a bound.  A branch
    (_branch) fixes c_k = v on copies of the node, lowers the slacks on the
    watch lists of the bounds it moves and propagates over their row
    indices, lo_rows[k] and hi_rows[k].  Every leaf is
    re-checked against all rows from scratch, from the packed rows and
    the root's packed right-hand sides (certificate): one sum of m
    products tests every row, never reading the kept slacks.
    count_lp, the reference the tests compare count against, brackets each
    coordinate by exact LPs instead, and reads the target through
    _slice_rhs: one back-substitution through the HNF for g0, then
    b = -g0 . h for each column h.  Both routes share the width check
    (_checked).
    """

    def __init__(self, cone, sigma):
        if sigma is None:
            raise ValueError("this cone variant carries no weight grading")
        sigma = [list(r) for r in sigma]
        d = cone.dim
        if len(sigma) != d:
            raise ValueError("sigma has %d rows for a %d-dimensional cone"
                             % (len(sigma), d))
        self.width = len(sigma[0])
        self.hnf = row_hnf(sigma)
        h, u = self.hnf
        rank = sum(1 for row in h if any(row))
        if rank < self.width:
            raise ValueError("sigma has rank %d, less than its width %d"
                             % (rank, self.width))
        self.hcols = [list(c) for _v, c in cone.columns]
        # the linear maps of the target t (see the class docstring):
        # target_map packs the columns of Y = y_den * H_top^-1 as forms over
        # t, for y_den * y in one product, and forms[i] is q_i = -U_top h_i,
        # so that column i's right-hand side -g0 . h_i is y . q_i
        self.y_den, ymat = scaled_inverse(h[:self.width])
        self.target_map = PackedForms([list(col) for col in zip(*ymat)],
                                      self.width)
        # summed over the nonzero entries of h_i and of U_top's columns
        ucols = [[(r, row[k]) for r, row in enumerate(u[:self.width])
                  if row[k]] for k in range(d)]
        forms = []
        for hc in self.hcols:
            q = [0] * self.width
            for k, x in enumerate(hc):
                if x:
                    for r, v in ucols[k]:
                        q[r] -= x * v
            forms.append(q)
        self.kernel = left_kernel_lattice(self.hnf)
        self.m = len(self.kernel)
        # a_i[j] = kernel[j] . h_i, over the nonzero entries only
        kcols = [[(j, k[t]) for j, k in enumerate(self.kernel) if k[t]]
                 for t in range(d)]
        avecs = []
        for hc in self.hcols:
            a = [0] * self.m
            for t, x in enumerate(hc):
                if x:
                    for j, v in kcols[t]:
                        a[j] += x * v
            avecs.append(tuple(a))
        # inequalities whose c-part vanishes reduce to a sign test on the
        # particular solution, y . q_i <= 0; keep them apart
        self.constant = [i for i, a in enumerate(avecs) if not any(a)]
        self.active = [(a, i) for i, a in enumerate(avecs) if any(a)]
        rows = [a for a, _i in self.active]
        # the active rows and their positive parts packed column by column
        # into ints, for the root slacks and the leaf certificate; row_norm,
        # the largest l1 norm of a row, bounds |a_j . c| by the largest |c_k|
        self.packed = PackedForms(rows, self.m)
        self.packed_pos = PackedForms([[max(x, 0) for x in a] for a in rows],
                                      self.m)
        self.row_norm = max([sum(map(abs, a)) for a in rows], default=0)
        # each row's largest |entry|, for the queue filter
        self.amax = [max(map(abs, a)) for a in rows]
        # watch lists: the (row, |entry|) pairs of the rows whose slack
        # reads each bound; a positive entry at k reads hi[k], a negative
        # one lo[k]; lo_rows[k] and hi_rows[k] are their row indices
        self.watch_hi = [[(j, a[k]) for j, a in enumerate(rows) if a[k] > 0]
                         for k in range(self.m)]
        self.watch_lo = [[(j, -a[k]) for j, a in enumerate(rows) if a[k] < 0]
                         for k in range(self.m)]
        self.lo_rows = [[j for j, _x in w] for w in self.watch_lo]
        self.hi_rows = [[j for j, _x in w] for w in self.watch_hi]
        # entry tables: row j's positive entries as (k, a_jk, watch_lo[k]),
        # which raise lo[k] and so lower the slacks on watch_lo[k], and its
        # negative ones as (k, |a_jk|, watch_hi[k]), which lower hi[k]
        self.raise_lo = [tuple((k, x, self.watch_lo[k])
                               for k, x in enumerate(a) if x > 0)
                         for a in rows]
        self.lower_hi = [tuple((k, -x, self.watch_hi[k])
                               for k, x in enumerate(a) if x < 0)
                         for a in rows]
        # most-constrained-first enumeration order
        touch = [sum(1 for a in rows if a[k]) for k in range(self.m)]
        self.order = sorted(range(self.m), key=lambda k: -touch[k])
        # the active rows as the columns of every functional's LP, whose
        # integer starting rows the 2m LPs share
        start = LPStart(a_eq=[list(col) for col in zip(*rows)], nonneg=True)
        lower_mult = [self._bounding_functional(start, i, 1)
                      for i in range(self.m)]
        upper_mult = [self._bounding_functional(start, i, -1)
                      for i in range(self.m)]
        # the functionals as sparse integer forms over one denominator D,
        # the lcm of theirs: D * lower_mult[i] is the (active index,
        # numerator) pairs lower_form[i], so c_i >= ceil(sum n * b / D),
        # likewise c_i <= floor(-sum n * b / D) with upper_form[i]
        self.box_den = 1
        for _lam, den in lower_mult + upper_mult:
            self.box_den = lcm(self.box_den, den)
        self.lower_form = [self._integer_form(*l) for l in lower_mult]
        self.upper_form = [self._integer_form(*l) for l in upper_mult]
        # everything else _root reads off y, as forms over y packed for
        # one product: lowest each active row's slack at c = 0, -q_h . y =
        # -b_h, then the box numerators, c_i >= ceil(lower . y / box_den)
        # and c_i <= floor(upper . y / box_den), with lower = sum n * q_h
        # over the pairs (h, n) of lower_form[i] and upper = -sum n * q_h
        # over those of upper_form[i], and last the constant rows' slacks
        # -q_i . y, each of which must be >= 0
        qs = [forms[i] for _a, i in self.active]

        def over_y(form, sign):
            return [sign * sum(n * qs[h][k] for h, n in form)
                    for k in range(self.width)]
        self.rhs_map = PackedForms(
            [[-x for x in q] for q in qs]
            + [over_y(form, 1) for form in self.lower_form]
            + [over_y(form, -1) for form in self.upper_form]
            + [[-x for x in forms[i]] for i in self.constant], self.width)

    def _integer_form(self, lam, den):
        f = self.box_den // den
        return [(h, x * f) for h, x in enumerate(lam) if x]

    def _bounding_functional(self, start, i, sign):
        """(lam, den): lambda = lam / den, nonnegative with sum_h lambda_h
        a_h = sign * e_i, which bounds sign * c_i on every slice; start
        holds the active rows a_h as the columns of its equality rows.  By
        Farkas' lemma there is none exactly when some rational c != 0 with
        sign * c_i < 0 lies in the slice at target 0, the recession cone of
        every slice (Schrijver 1986, 8.2).  That slice counts the degree-0
        piece, the constants, so it is {0} and every slice is a polytope: a
        missing lambda (also with no active row) is a construction fault,
        and raises."""
        if self.active:
            b_eq = [sign if k == i else 0 for k in range(self.m)]
            status, lam, den = lp_min([0] * len(self.active), b_eq=b_eq,
                                      start=start)
            if status == "optimal":
                return lam, den
        raise RuntimeError("no bounding functional: coordinate %d is "
                           "unbounded %s on the slice at target 0, which "
                           "must be a point"
                           % (i, "below" if sign > 0 else "above"))

    def _checked(self, target):
        """target as a list; raises on a bad width.  The prefix of both
        _root and _slice_rhs."""
        target = list(target)
        if len(target) != self.width:
            raise ValueError("target has width %d, expected %d"
                             % (len(target), self.width))
        return target

    def _slice_rhs(self, target):
        """The right-hand sides b of the active rows a . c >= b of the slice
        at target, or None when the target alone empties the slice (off the
        slice lattice, or a constant row fails), computed from a particular
        solution through the HNF: the reference route, which count_lp and
        the tests read, to _root's linear maps of the target.
        """
        g0 = integer_row_solution(self.hnf, self._checked(target))
        if g0 is None:
            return None
        rhs = [-dot(g0, h) for h in self.hcols]
        if any(rhs[i] > 0 for i in self.constant):
            return None
        return [rhs[i] for _a, i in self.active]

    def count(self, target):
        """Number of integer points of the slice at the given target."""
        root = self._root(target)
        if root is None:
            return 0
        start, lo, hi, slack = root
        # every leaf lies in the root box, which sized start's fields
        holds = certificate(self.packed, start)
        m, order = self.m, self.order
        branch = self._branch

        def rec(lo, hi, slack, depth):
            # lo, hi, slack: a node at its propagation fixpoint
            while depth < m and lo[order[depth]] == hi[order[depth]]:
                depth += 1
            if depth == m:
                if not holds(lo):
                    raise RuntimeError("propagation leaf violates "
                                       "a checked constraint")
                return 1
            k = order[depth]
            total = 0
            for v in range(lo[k], hi[k] + 1):
                child = branch(lo, hi, slack, k, v)
                if child is not None:
                    total += rec(*child, depth + 1)
            return total

        return rec(lo, hi, slack, 0)

    def _branch(self, lo, hi, slack, k, v):
        """The child c_k = v of a node at its propagation fixpoint with
        lo[k] < hi[k]: its (lo, hi, slack) at the fixpoint, on copies, or
        None when propagation empties it.  Each row that reads a moved bound
        loses |a_jk| times the move from its slack and is propagated."""
        dl, dh = v - lo[k], hi[k] - v
        lo, hi, slack = list(lo), list(hi), list(slack)
        lo[k] = hi[k] = v
        if dl:
            for j, x in self.watch_lo[k]:
                slack[j] -= x * dl
        if dh:
            for j, x in self.watch_hi[k]:
                slack[j] -= x * dh
        rows = (self.hi_rows[k] if not dl else self.lo_rows[k] if not dh
                else self.lo_rows[k] + self.hi_rows[k])
        if self._propagate(lo, hi, slack, rows):
            return lo, hi, slack
        return None

    def _root(self, target):
        """The slice at target as the search's root: (start, lo, hi, slack),
        its box and row slacks at the propagation fixpoint and start =
        (r, base) sized for the box before propagation, or None when the
        slice is empty by then.  It reads the target through the packed
        linear maps of __init__, in two products: t . Y for the lattice
        test and y, then at y the packed right-hand sides, base, the box
        bounds' numerators and the constant rows' slacks."""
        target = self._checked(target)
        tmap = self.target_map
        y = tmap.values(target, _width(tmap.bound(target)))
        den = self.y_den
        if den > 1:
            if any(x % den for x in y):
                return None
            y = [x // den for x in y]
        # the fields hold every value read at y, and every |a_j . c - b_j|
        # over the box, whose bounds are at most the largest numerator over
        # box_den, plus one, in absolute value
        rmap, den = self.rhs_map, self.box_den
        mag = rmap.bound(y)
        r = _width(self.row_norm * (mag // den + 1) + mag)
        cols, bias = rmap.table(r)
        s = sum(map(mul, y, cols), bias)
        shift = 64 * r * len(self.active)
        start = r, s & ((1 << shift) - 1)
        m = self.m
        high = _unpack((s ^ bias) >> shift, r, 2 * m + len(self.constant))
        if self.constant and min(high[2 * m:]) < 0:
            return None
        lo, hi = high[:m], high[m:2 * m]
        if den > 1:
            lo = [-(-l // den) for l in lo]
            hi = [u // den for u in hi]
        if any(map(gt, lo, hi)):
            return None
        slack = slacks(self.packed, self.packed_pos, start, lo, hi)
        if not self._propagate(lo, hi, slack, range(len(slack))):
            return None
        return start, lo, hi, slack

    def _propagate(self, lo, hi, slack, rows):
        """Narrow lo and hi in place to the propagation fixpoint of the
        active rows a . c >= b, keeping each slack[j], the max of a_j . c
        over the box less b_j, up to date.  rows are those whose slack may
        have fallen since the last fixpoint.  Returns False as soon as a
        slack is negative, that is when the box holds no solution.
        """
        raise_lo, lower_hi, amax = self.raise_lo, self.lower_hi, self.amax
        # a row with slack s bounds c_k by s // |a_k| from the end of its
        # range that attains the max, which moves the other end only if
        # s < |a_k| * (hi[k] - lo[k]); widths only shrink, so row j is not
        # queued while its slack is at least amax[j] * wmax, computed where
        # it is read, as a branch hands over only a few rows
        wmax = max(map(sub, hi, lo), default=0)
        pending = [False] * len(slack)
        work = []
        for j in rows:
            s = slack[j]
            if s < amax[j] * wmax:
                if s < 0:
                    return False
                pending[j] = True
                work.append(j)
        # a FIFO queue: the for loop reads work by index, so it also visits
        # the rows appended while it runs, in turn
        for j in work:
            pending[j] = False
            s = slack[j]
            for k, x, watch in raise_lo[j]:
                d = hi[k] - s // x - lo[k]
                if d > 0:
                    lo[k] += d
                    for r, y in watch:
                        t = slack[r] = slack[r] - y * d
                        if t < amax[r] * wmax:
                            if t < 0:
                                return False
                            if not pending[r]:
                                pending[r] = True
                                work.append(r)
            for k, x, watch in lower_hi[j]:
                d = hi[k] - lo[k] - s // x
                if d > 0:
                    hi[k] -= d
                    for r, y in watch:
                        t = slack[r] = slack[r] - y * d
                        if t < amax[r] * wmax:
                            if t < 0:
                                return False
                            if not pending[r]:
                                pending[r] = True
                                work.append(r)
        return True

    def count_lp(self, target):
        """count by exact LP brackets of every coordinate, with no box and
        no propagation: the reference the tests compare count against."""
        rhs = self._slice_rhs(target)
        if rhs is None:
            return 0
        m = self.m
        order = self.order
        rows = [list(a) for a, _i in self.active]
        c = [0] * m

        def rec(depth, free, rest):
            # free: each row on the coordinates order[depth:], and rest: its
            # right-hand side less the terms of the coordinates fixed so far
            if depth == m:
                return 1 if all(dot(a, c) >= b
                                for a, b in zip(rows, rhs)) else 0
            obj = [1] + [0] * (m - depth - 1)
            k = order[depth]
            bracket = []
            for sense in ("min", "max"):
                st, g, den = lp_bound(obj, free, rest, sense=sense)
                if st == "infeasible":
                    return 0
                if st != "optimal":
                    raise RuntimeError("count_lp: the %s of coordinate %d "
                                       "is %s, but init certified every "
                                       "slice bounded" % (sense, k, st))
                bracket.append((g[0], den))
            (nmin, dmin), (nmax, dmax) = bracket
            tails = [a[1:] for a in free]
            total = 0
            for v in range(-(-nmin // dmin), nmax // dmax + 1):
                c[k] = v
                total += rec(depth + 1, tails,
                             [b - a[0] * v for a, b in zip(free, rest)])
            return total

        return rec(0, [[a[k] for k in order] for a in rows], rhs)

