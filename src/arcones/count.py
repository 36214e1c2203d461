"""Exact lattice-point counting of weight slices of cones.

A slice is {g : g . h >= 0 for every cone column h, g . sigma = target}.
Counting reduces the affine integer slice to integer coordinates on an
LLL-reduced basis of the left kernel lattice of sigma and enumerates by a
depth-first search that propagates bounds at every node, keeping each
inequality's slack and updating it as the bounds move.  The root slacks and
the check of every leaf read all inequalities at once, packed column by
column into one int per coordinate with a field per inequality (PackedRows).
All arithmetic is exact and no floating point is used anywhere.  The 2m
LPs that set up a SliceFamily, one per coordinate bound, are solved by
lp_min's fraction-free integer simplex, which builds the columns of these
wide tableaux (one per inequality, m rows) only as far as Bland's rule
reaches; their Fraction solutions become integer forms over one
denominator.  Everything that does
not depend on the target is precomputed there, so SliceFamily.count uses
ints only.
SliceFamily.count_lp, which brackets every coordinate by exact LPs, is the
reference the tests compare it against.
"""

import sys
from array import array
from collections import deque
from math import ceil, floor
from operator import mul, sub

from .exact import (dot, integer_row_solution, lcm, left_kernel_lattice,
                    lp_min, row_hnf)


def lp_bound(objective, ineq_rows=None, ineq_rhs=None, sigma=None,
             target=None, sense="min"):
    """Exact optimum of objective . g over the rational polyhedron

        {g : g . row >= rhs for each inequality, g . sigma = target}.

    Returns (status, g, value) with status "optimal", "infeasible" or
    "unbounded"; the reported optimum is re-verified by substitution.
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
    status, x, value = lp_min(c, a_ub, b_ub, a_eq, b_eq)
    if status != "optimal":
        return status, None, None
    for r, b in zip(ineq_rows, ineq_rhs):
        if dot(x, r) < b:
            raise RuntimeError("lp_bound certificate violates inequality")
    for r, b in zip(a_eq, b_eq):
        if dot(r, x) != b:
            raise RuntimeError("lp_bound certificate violates equality")
    got = dot(objective, x)
    if got != (value if sense == "min" else -value):
        raise RuntimeError("lp_bound objective value mismatch")
    return "optimal", x, got


class UnboundedSliceError(ValueError):
    """Raised when a weight slice is an unbounded polyhedron.

    The offending recession ray (in ambient g-coordinates) is stored in the
    .ray attribute.
    """

    def __init__(self, message, ray):
        super().__init__(message)
        self.ray = ray


def _ceil_div(n, d):
    """ceil(n / d) for ints with d > 0."""
    return -((-n) // d)


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


class PackedRows:
    """Integer rows a_j of length m packed column by column into ints, so
    that a_j . c for every row j at once takes m big-int multiply-adds, not
    one dot product per row (SIMD within a register: Lamport 1975,
    "Multiple byte processing with full-word instructions").

    The table of width r gives each row a field of W = 64 r bits, the first
    row lowest.  For each coordinate k it holds column k of the rows as
    three ints: ppos[k] of the positive parts, pneg[k] of the absolute
    values of the negative parts and pa[k] = ppos[k] - pneg[k], which is
    sum_j a_jk 2^(W j); bias holds 2^(W-1) in every field.  For right-hand
    sides b, base = bias - sum_j b_j 2^(W j), and

        base + sum_k c_k pa[k] = sum_j (2^(W-1) + a_j . c - b_j) 2^(W j).

    While every |a_j . c - b_j| < 2^(W-1), each term stays in its own
    field, with no carry out of it, and the field's top bit is set exactly
    when a_j . c >= b_j.  width picks the smallest r for which that holds
    over a whole box; the table of width 1 is built with the rows and wider
    ones on first use, each kept in tables under its r.
    """

    def __init__(self, rows, m):
        self.rows = rows
        self.m = m
        # the largest l1 norm of a row, which bounds |a_j . c| by the
        # largest |c_k|, and every entry
        self.norm = max((sum(map(abs, a)) for a in rows), default=0)
        self.tables = {}    # r -> (ppos, pneg, pa, bias)
        if self.norm < 1 << 63:
            self.table(1)

    def table(self, r):
        """The table of width r, (ppos, pneg, pa, bias), built on first
        use; r must satisfy norm < 2^(64 r - 1)."""
        table = self.tables.get(r)
        if table is None:
            ppos, pneg = [], []
            for k in range(self.m):
                column = [a[k] for a in self.rows]
                ppos.append(_pack([max(x, 0) for x in column], r))
                pneg.append(_pack([max(-x, 0) for x in column], r))
            pa = [p - q for p, q in zip(ppos, pneg)]
            bias = int.from_bytes((bytes(8 * r - 1) + b"\x80")
                                  * len(self.rows), "little")
            table = self.tables[r] = (ppos, pneg, pa, bias)
        return table

    def width(self, b, lo, hi):
        """The smallest r with |a_j . c - b_j| < 2^(64 r - 1) for every row
        j and every c in the box lo..hi, and norm < 2^(64 r - 1)."""
        reach = max(1, max(hi, default=0), -min(lo, default=0))
        bound = self.norm * reach + max(map(abs, b), default=0)
        return bound.bit_length() // 64 + 1

    def _start(self, b, r):
        """The table of width r and base = bias - sum_j b_j 2^(W j)."""
        ppos, pneg, pa, bias = self.table(r)
        # _pack(b) ^ bias flips each field's top bit, which turns b_j's
        # two's complement into 2^(W-1) + b_j, as |b_j| < 2^(W-1)
        base = (bias << 1) - (_pack(b, r) ^ bias)
        return ppos, pneg, pa, bias, base

    def slacks(self, b, lo, hi):
        """For every row j, the max of a_j . c over the box lo..hi less b_j:
        it reads hi[k] where a_jk > 0 and lo[k] where a_jk < 0."""
        r = self.width(b, lo, hi)
        ppos, pneg, _pa, bias, base = self._start(b, r)
        s = sum(map(mul, hi, ppos), base) - sum(map(mul, lo, pneg))
        # flipping each field's top bit again leaves the slack's two's
        # complement
        return _unpack(s ^ bias, r, len(self.rows))

    def certificate(self, b, lo, hi):
        """A test of points c of the box lo..hi: whether a_j . c >= b_j for
        every row j, computed afresh from the packed rows at each call."""
        r = self.width(b, lo, hi)
        _ppos, _pneg, pa, bias, base = self._start(b, r)
        top = 64 * r * len(self.rows)

        def holds(c):
            s = sum(map(mul, c, pa), base)
            # every field's top bit set, and no carry past the last field
            return s & bias == bias and not s >> top
        return holds


class SliceFamily:
    """Shared counting machinery for all weight slices of one cone.

    Precomputes, independently of the target: the row Hermite normal form of
    sigma (so each target's particular solution g0 is one back-substitution),
    an LLL-reduced integer basis of the left kernel lattice of sigma (so
    slice lattice points become integer vectors c with g = g0 + c . kernel;
    a short, nearly orthogonal basis gives sparse rows and a box close to
    the slice, where the saturated basis read off the HNF transform is
    skewed and the search meets far more dead ends), the
    inequality vectors in c-coordinates, and per-coordinate bounding
    functionals expressing each +-c_i as a nonnegative combination of the
    inequality vectors.  The functionals turn into finite enumeration boxes
    for every individual target.  Everything a count reads is kept as ints:
    the functionals as sparse integer forms over one common denominator and
    each active inequality as its nonzero indices and coefficients, so the
    per-target path does integer arithmetic only.  sigma is the list of
    rows of the weight configuration, one per vertex of the cone.

    count is a depth-first search over the box that narrows the bounds by
    propagation at every node (queue-based AC-3, Mackworth 1977).  Each
    row's slack, the max of a . c over the box less b, is computed once at
    the root, for all rows at once from the rows packed column by column
    into ints (packed, a PackedRows), and then kept: it reads hi[k] where
    the row's entry at k is positive and lo[k] where it is negative, so the
    watch lists watch_hi[k] and watch_lo[k], the (row, |entry|) pairs of
    those rows, say whose slack a moved bound lowers and by how much.  A
    negative slack ends the node at once, and a row is queued only while
    its slack is below amax * wmax (its largest |entry| times the widest
    range of the box), below which it may still tighten a bound.  Every
    leaf is re-checked against all rows from scratch, again from the
    packed rows: one sum of m products tests every row, never reading the
    kept slacks.
    count_lp, the reference the tests compare count against, brackets each
    coordinate by exact LPs instead; both read the target through one
    prefix, _slice_rhs.
    """

    def __init__(self, cone, sigma):
        if sigma is None:
            raise ValueError("this cone variant carries no weight grading")
        self.cone = cone
        self.sigma = [list(r) for r in sigma]
        self.d = cone.dim
        if len(self.sigma) != self.d:
            raise ValueError("sigma has %d rows for a %d-dimensional cone"
                             % (len(self.sigma), self.d))
        self.width = len(self.sigma[0])
        self.hnf = row_hnf(self.sigma)
        self.hcols = [list(c) for _v, c in cone.columns]
        # g-coordinate k -> the nonzero (column, entry) pairs of its row of H
        self.hrows = [[(i, c[k]) for i, c in enumerate(self.hcols) if c[k]]
                      for k in range(self.d)]
        self.kernel = left_kernel_lattice(self.hnf)
        self.m = len(self.kernel)
        avecs = [tuple(dot(k, h) for k in self.kernel) for h in self.hcols]
        # inequalities whose c-part vanishes reduce to a sign test on the
        # particular solution; keep them apart
        self.constant = [i for i, a in enumerate(avecs) if not any(a)]
        self.active = [(a, i) for i, a in enumerate(avecs) if any(a)]
        # active inequality a . c >= b as parallel lists of the indices and
        # coefficients of its positive entries, then of the indices and
        # absolute values of its negative entries
        self.rows = [
            (tuple(k for k, x in enumerate(a) if x > 0),
             tuple(x for x in a if x > 0),
             tuple(k for k, x in enumerate(a) if x < 0),
             tuple(-x for x in a if x < 0)) for a, _i in self.active]
        # the same rows packed column by column into ints, for the root
        # slacks and the leaf certificate
        self.packed = PackedRows([a for a, _i in self.active], self.m)
        # each row's largest |entry|, for the queue filter
        self.amax = [max(map(abs, a)) for a, _i in self.active]
        # watch lists: the (row, |entry|) pairs of the rows whose slack
        # reads each bound; a positive entry at k reads hi[k], a negative
        # one lo[k]
        self.watch_hi = [[] for _k in range(self.m)]
        self.watch_lo = [[] for _k in range(self.m)]
        for j, (kp, cp, kn, cn) in enumerate(self.rows):
            for k, x in zip(kp, cp):
                self.watch_hi[k].append((j, x))
            for k, x in zip(kn, cn):
                self.watch_lo[k].append((j, x))
        # most-constrained-first enumeration order
        touch = [sum(1 for a, _i in self.active if a[k])
                 for k in range(self.m)]
        self.order = sorted(range(self.m), key=lambda k: -touch[k])
        self.lower_mult = []        # lambda >= 0 with sum lambda_h a_h = e_i
        self.upper_mult = []        # lambda >= 0 with sum lambda_h a_h = -e_i
        self.unbounded_ray = None   # recession ray in g-coordinates, if any
        # the active rows as the columns of every functional's LP
        a_eq = [list(col) for col in zip(*(a for a, _i in self.active))]
        for i in range(self.m):
            self.lower_mult.append(self._bounding_functional(a_eq, i, 1))
            self.upper_mult.append(self._bounding_functional(a_eq, i, -1))
            if self.unbounded_ray is not None:
                break
        # the functionals as sparse integer forms over one denominator:
        # D * lower_mult[i] is the (active index, numerator) pairs
        # lower_form[i], so c_i >= ceil(sum n * b / D), likewise c_i <=
        # floor(-sum n * b / D) with upper_form[i]
        self.box_den = 1
        self.lower_form = []
        self.upper_form = []
        if self.unbounded_ray is None:
            for lam in self.lower_mult + self.upper_mult:
                for x in lam:
                    self.box_den = lcm(self.box_den, x.denominator)
            self.lower_form = [self._integer_form(l) for l in self.lower_mult]
            self.upper_form = [self._integer_form(l) for l in self.upper_mult]

    def _integer_form(self, lam):
        den = self.box_den
        return [(h, int(x * den)) for h, x in enumerate(lam) if x]

    def _bounding_functional(self, a_eq, i, sign):
        """Nonnegative lambda with sum_h lambda_h a_h = sign * e_i, or None
        (in which case a recession ray with c_i != 0 is recorded).  a_eq
        holds the active rows a_h as its columns."""
        if not self.active:
            self._record_ray(i, sign)
            return None
        b_eq = [sign if k == i else 0 for k in range(self.m)]
        status, lam, _v = lp_min([0] * len(self.active), a_eq=a_eq,
                                 b_eq=b_eq, nonneg=True)
        if status == "optimal":
            return lam
        self._record_ray(i, sign)
        return None

    def _record_ray(self, i, sign):
        """Find the Farkas-dual recession ray certifying that coordinate i
        is unbounded in the direction -sign."""
        a_ub = [[-x for x in a] for a, _i in self.active]
        a_eq = [[1 if k == i else 0 for k in range(self.m)]]
        status, c, _v = lp_min([0] * self.m, a_ub, [0] * len(a_ub), a_eq,
                               [-sign])
        if status != "optimal":
            raise RuntimeError("no bounding functional and no ray for "
                               "coordinate %d" % i)
        ray = [sum(c[k] * self.kernel[k][j] for k in range(self.m))
               for j in range(self.d)]
        self.unbounded_ray = ray

    def _slice_rhs(self, target):
        """The right-hand sides b of the active rows a . c >= b of the slice
        at target, or None when the target alone empties the slice (off the
        slice lattice, or a constant row fails).  Shared by count and
        count_lp; raises on a bad width and on an unbounded nonempty slice.
        """
        target = list(target)
        if len(target) != self.width:
            raise ValueError("target has width %d, expected %d"
                             % (len(target), self.width))
        if self.unbounded_ray is not None:
            status, _g, _v = lp_bound([0] * self.d, self.hcols, None,
                                      self.sigma, target)
            if status == "infeasible":
                return None
            raise UnboundedSliceError(
                "slice is unbounded along the ray %s" % (self.unbounded_ray,),
                self.unbounded_ray)
        g0 = integer_row_solution(self.hnf, target)
        if g0 is None:
            return None
        # rhs[i] = -g0 . h_i, summed over the nonzero entries of g0
        rhs = [0] * len(self.hcols)
        for k, gk in enumerate(g0):
            if gk:
                for i, x in self.hrows[k]:
                    rhs[i] -= gk * x
        for i in self.constant:
            if rhs[i] > 0:
                return None
        return [rhs[i] for _a, i in self.active]

    def count(self, target):
        """Number of integer points of the slice at the given target."""
        root = self._root(target)
        if root is None:
            return 0
        b, lo, hi, slack = root
        # every leaf lies in the root box, so the root box sizes the fields
        holds = self.packed.certificate(b, lo, hi)
        m, order = self.m, self.order
        watch_lo, watch_hi = self.watch_lo, self.watch_hi
        propagate = self._propagate

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
            lk, hk = lo[k], hi[k]
            total = 0
            for v in range(lk, hk + 1):
                # fixing c_k = v raises lo[k] by v - lk and lowers hi[k]
                # by hk - v; each row that reads a moved bound loses
                # |a_k| times the move from its slack
                l2, h2, s2 = list(lo), list(hi), list(slack)
                l2[k] = h2[k] = v
                moved = []
                for watch, d in ((watch_lo[k], v - lk), (watch_hi[k], hk - v)):
                    if d:
                        for j, x in watch:
                            s2[j] -= x * d
                            moved.append(j)
                if propagate(l2, h2, s2, moved):
                    total += rec(l2, h2, s2, depth + 1)
            return total

        return rec(lo, hi, slack, 0)

    def _root(self, target):
        """The slice at target as the search's root: (b, lo, hi, slack),
        its right-hand sides and its box and row slacks at the propagation
        fixpoint, or None when the slice is empty by then."""
        b = self._slice_rhs(target)
        if b is None:
            return None
        den = self.box_den
        lo, hi = [], []
        for lower, upper in zip(self.lower_form, self.upper_form):
            l = _ceil_div(sum(n * b[h] for h, n in lower), den)
            u = (-sum(n * b[h] for h, n in upper)) // den
            if l > u:
                return None
            lo.append(l)
            hi.append(u)
        slack = self.packed.slacks(b, lo, hi)
        if not self._propagate(lo, hi, slack, range(len(slack))):
            return None
        return b, lo, hi, slack

    def _propagate(self, lo, hi, slack, rows):
        """Narrow lo and hi in place to the propagation fixpoint of the
        active rows a . c >= b, keeping each slack[j], the max of a_j . c
        over the box less b_j, up to date.  rows are those whose slack may
        have fallen since the last fixpoint.  Returns False as soon as a
        slack is negative, that is when the box holds no solution.
        """
        sparse, amax = self.rows, self.amax
        watch_lo, watch_hi = self.watch_lo, self.watch_hi
        # a row with slack s bounds c_k by s // |a_k| from the end of its
        # range that attains the max, which moves the other end only if
        # s < |a_k| * (hi[k] - lo[k]); widths only shrink, so a row whose
        # slack is at least amax * wmax cannot tighten and is not queued
        wmax = max(map(sub, hi, lo), default=0)
        pending = [False] * len(slack)
        work = deque()
        for j in rows:
            s = slack[j]
            if s < amax[j] * wmax:
                if s < 0:
                    return False
                pending[j] = True
                work.append(j)
        while work:
            j = work.popleft()
            pending[j] = False
            s = slack[j]
            kp, cp, kn, cn = sparse[j]
            for k, x in zip(kp, cp):
                d = hi[k] - s // x - lo[k]
                if d > 0:
                    lo[k] += d
                    for r, y in watch_lo[k]:
                        t = slack[r] = slack[r] - y * d
                        if t < amax[r] * wmax:
                            if t < 0:
                                return False
                            if not pending[r]:
                                pending[r] = True
                                work.append(r)
            for k, x in zip(kn, cn):
                d = hi[k] - lo[k] - s // x
                if d > 0:
                    hi[k] -= d
                    for r, y in watch_hi[k]:
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
            st, _x, vmin = lp_bound(obj, free, rest, sense="min")
            if st != "optimal":
                return 0
            st, _x, vmax = lp_bound(obj, free, rest, sense="max")
            if st != "optimal":
                return 0
            k = order[depth]
            tails = [a[1:] for a in free]
            total = 0
            for v in range(ceil(vmin), floor(vmax) + 1):
                c[k] = v
                total += rec(depth + 1, tails,
                             [b - a[0] * v for a, b in zip(free, rest)])
            return total

        return rec(0, [[a[k] for k in order] for a in rows], rhs)

