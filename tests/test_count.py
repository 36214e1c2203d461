import functools
import hashlib
import itertools
import operator
import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import arcones
from arcones import cli, cone, count, exact, lieoracle, rootdata
from arcones.exact import vec_mat
from arcones.system import System
from test_rootdata import weyl_group


def test_negative_lambda_slice_is_empty(monkeypatch):
    # lambda = -omega_1 is off the slice lattice, an early return of 0;
    # lambda = -alpha_1 is on it, but no g >= 0 of the cone has that weight,
    # so count_lp's first dual is unbounded, which reads as no point
    fam = System("A", 2).family()
    assert fam.count([0, 0, 0, 0, -1, 0]) == 0
    assert fam.count_lp([0, 0, 0, 0, -1, 0]) == 0
    real, seen = count.lp_min, []

    def spy(*args, **kw):
        got = real(*args, **kw)
        seen.append(got[0])
        return got

    monkeypatch.setattr(count, "lp_min", spy)
    assert fam.count([0, 0, 0, 0, -2, 1]) == 0
    assert fam.count_lp([0, 0, 0, 0, -2, 1]) == 0
    assert seen == ["unbounded"]


def test_count_a2_examples():
    fam = System("A", 2).family()
    assert fam.count((1, 0, 0, 1, 1, 1)) == 1
    assert fam.count((1, 1, 1, 1, 1, 1)) == 2
    assert fam.count((0,) * 6) == 1


def test_count_matches_oracle_a2_grid():
    fam = System("A", 2).family()
    cd = rootdata.cartan_data(rootdata.build_dynkin("A", 2))
    for mu in itertools.product(range(3), repeat=2):
        for nu in itertools.product(range(3), repeat=2):
            for lam, mult in lieoracle.tensor_decomposition(
                    cd, mu, nu).items():
                got = fam.count(list(mu) + list(nu) + list(lam))
                assert got == mult, (mu, nu, lam)


def test_count_cartan_component_is_one():
    fam = System("A", 3).family()
    for mu in itertools.product(range(2), repeat=3):
        for nu in itertools.product(range(2), repeat=3):
            lam = [m + n for m, n in zip(mu, nu)]
            assert fam.count(list(mu) + list(nu) + lam) == 1


def _fundamental(rank):
    """0 and the fundamental weights omega_1..omega_rank."""
    return [tuple(int(j == i) for j in range(rank)) for i in range(-1, rank)]


def _assert_strategies_agree(fam, targets):
    # count_lp brackets each coordinate by exact LPs: an independent
    # reference for the integer box and the propagation
    values = set()
    for t in targets:
        got = fam.count(t)
        assert got == fam.count_lp(t), t
        values.add(got)
    assert 0 in values and len(values) > 1


def test_strategies_agree():
    fam = System("A", 2).family()
    # (1,0,0,0,0,0) is off the slice lattice, an early return of 0
    assert fam.count((1, 0, 0, 0, 0, 0)) == 0
    assert fam.count_lp((1, 0, 0, 0, 0, 0)) == 0
    _assert_strategies_agree(
        fam, [mu + nu + lam for mu, nu, lam in itertools.product(
            itertools.product(range(2), repeat=2), repeat=3)])


def test_strategies_agree_d4():
    s = System("D", 4, [(2, 1), (3, 2), (4, 2)])
    # every lambda of the decompositions of the pairs from {0, omega_i},
    # plus zero-valued lambda on the slice lattice, which the box rejects
    targets = [mu + nu + tuple(lam)
               for mu, nu in itertools.product(_fundamental(4), repeat=2)
               for lam in lieoracle.tensor_decomposition(s.cd, mu, nu)]
    assert len(targets) == 55
    targets += [(1, 0, 0, 0, 1, 0, 0, 0, 0, 2, 0, 0),
                (0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 2, 2),
                (0, 0, 1, 0, 0, 0, 0, 1, 1, 1, 0, 0)]
    _assert_strategies_agree(s.family(), targets)


def test_strategies_agree_d5():
    s = System("D", 5)
    # every lambda of the decompositions of the unordered pairs from
    # {0, omega_i}, plus lambda = omega_1 + omega_5 with each pair, which
    # is off the slice lattice or zero-valued for most of them
    pairs = list(itertools.combinations_with_replacement(_fundamental(5), 2))
    targets = [mu + nu + tuple(lam) for mu, nu in pairs
               for lam in lieoracle.tensor_decomposition(s.cd, mu, nu)]
    targets += [mu + nu + (1, 0, 0, 0, 1) for mu, nu in pairs]
    assert len(targets) == 86
    _assert_strategies_agree(s.family(), targets)


@pytest.mark.parametrize("letter, n, orient, digest", [
    ("D", 4, None,
     "7ea71e09f6face19c3cb9bf24a6e431bcae69b1c41be19312dd4ee971a8cac8a"),
    ("D", 4, [(2, 1), (3, 2), (4, 2)],
     "64fa5761cd769886f8f7ca472f565c19d1bcb3df4b9416701f608c4a090308cd"),
    ("D", 5, None,
     "bf7999f82fcf1d70159fda1d39a97afc789d12f26d393ea9d25b33742b4cac59"),
    ("D", 6, None,
     "593393e49abfbc038cbcf6dc89b13ddd1fd2986a66a81919e841995ff2c339b3"),
], ids=["D4", "D4:2>1,3>2,4>2", "D5", "D6"])
def test_bounding_functionals_pinned(letter, n, orient, digest):
    # the lambda of every coordinate bound, as SliceFamily keeps them: a
    # simplex that pivots differently finds other optimal lambda and other
    # boxes (and so other search trees) with the same counts.  D6's LPs
    # over 625 columns build them on demand, and about 5% of their pivots
    # are not p = D = 1, so D6 reaches the general pivot that D4 and D5
    # barely do
    fam = System(letter, n, orient).family()
    got = repr((fam.lower_form, fam.upper_form, fam.box_den))
    assert hashlib.sha256(got.encode()).hexdigest() == digest


# zero-valued D5 targets on the slice lattice that only the search rejects
_D5_ZEROS = [(0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
             (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 0, 0),
             (0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 2, 0),
             (0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0)]


def test_d5_counts_match_brauer_klimyk():
    s = System("D", 5)
    # every lambda of the decompositions of the pairs from {0, omega_i},
    # plus zero-valued lambda on the slice lattice that only the DFS rejects
    want = {mu + nu + lam: c
            for mu, nu in itertools.product(_fundamental(5), repeat=2)
            for lam, c in lieoracle.tensor_decomposition(s.cd, mu, nu).items()}
    assert len(want) == 104
    want.update((t, 0) for t in _D5_ZEROS)
    fam = s.family()
    assert {t: fam.count(t) for t in want} == want


def test_d5_deep_counts_match_brauer_klimyk():
    # c^lam_{rho rho} on D5 up to lam = rho, 560 lattice points: seconds of
    # DFS in the skewed kernel basis the HNF transform gives, well under one
    # in its LLL-reduced basis
    s = System("D", 5)
    rho = (1,) * 5
    decomposition = lieoracle.tensor_decomposition(s.cd, rho, rho)
    fam = s.family()
    for lam, want in [((0,) * 5, 1), ((6, 0, 0, 4, 0), 3), (rho, 560)]:
        assert decomposition[lam] == want
        assert fam.count(rho + rho + lam) == want, lam


@pytest.mark.parametrize("letter, n, orient", [
    ("A", 3, None), ("D", 4, None), ("D", 4, [(2, 1), (3, 2), (4, 2)]),
], ids=["A3", "D4", "D4:2>1,3>2,4>2"])
def test_watch_lists_match_row_signs(letter, n, orient):
    # row j's slack reads hi[k] where its entry at k is positive and lo[k]
    # where it is negative; the watch lists say exactly that, with |a_jk|
    fam = System(letter, n, orient).family()
    assert fam.m > 0
    for k in range(fam.m):
        assert fam.watch_hi[k] == [(j, a[k]) for j, (a, _i)
                                   in enumerate(fam.active) if a[k] > 0]
        assert fam.watch_lo[k] == [(j, -a[k]) for j, (a, _i)
                                   in enumerate(fam.active) if a[k] < 0]


@pytest.mark.parametrize("letter, n, orient", [
    ("A", 3, None), ("D", 4, None), ("D", 4, [(2, 1), (3, 2), (4, 2)]),
    ("D", 5, None),
], ids=["A3", "D4", "D4:2>1,3>2,4>2", "D5"])
def test_inequality_vectors_match_dense_products(letter, n, orient):
    # init sums each inequality vector over the nonzero entries only; the
    # active rows and constant columns are those of the dense products
    # k . h of every kernel vector k with every cone column h
    fam = System(letter, n, orient).family()
    avecs = [tuple(exact.dot(k, h) for k in fam.kernel) for h in fam.hcols]
    assert fam.active == [(a, i) for i, a in enumerate(avecs) if any(a)]
    assert fam.constant == [i for i, a in enumerate(avecs) if not any(a)]
    assert all(type(x) is int for a, _i in fam.active for x in a)


def _sparse_rows(fam):
    """Each active row of fam as its nonzero (index, entry) pairs."""
    return [[(k, x) for k, x in enumerate(a) if x] for a, _i in fam.active]


def _sweep(rows, b, lo, hi):
    """The box lo..hi narrowed by sweeping every row a . c >= b, given by
    _sparse_rows, until no bound moves, with the row slacks there, on
    copies; None when the box is empty by then.  The reference for the
    worklist propagation."""
    lo, hi = list(lo), list(hi)
    moved = True
    while moved:
        moved, slacks = False, []
        for row, bj in zip(rows, b):
            s = sum([x * (hi[k] if x > 0 else lo[k]) for k, x in row]) - bj
            if s < 0:
                return None
            slacks.append(s)
            for k, x in row:
                if x > 0 and hi[k] - s // x > lo[k]:
                    lo[k], moved = hi[k] - s // x, True
                elif x < 0 and lo[k] + s // -x < hi[k]:
                    hi[k], moved = lo[k] + s // -x, True
    # no bound moved in the last sweep, so its slacks are the fixpoint's
    return lo, hi, slacks


def _swept_root(fam, target):
    """The root box of the slice at target narrowed by _sweep, with the row
    slacks there; None when the slice is empty by then."""
    return _swept_box(fam, _sparse_rows(fam), fam._slice_rhs(target))


def _swept_box(fam, rows, b):
    """_swept_root of the slice whose right-hand sides _slice_rhs gave as
    b, with fam's rows given by _sparse_rows."""
    if b is None:
        return None
    den = fam.box_den
    lo = [-(-sum(n * b[h] for h, n in form) // den)
          for form in fam.lower_form]
    hi = [-sum(n * b[h] for h, n in form) // den for form in fam.upper_form]
    if any(l > u for l, u in zip(lo, hi)):
        return None
    return _sweep(rows, b, lo, hi)


def _spy_propagate(fam):
    """Wrap fam._propagate so that it still runs the real kernel and
    records each call as ((lo, hi) handed to it, (lo, hi, slack) it
    returned True with, or None); returns the list of records."""
    propagate, calls = fam._propagate, []

    def spy(lo, hi, slack, rows):
        box = list(lo), list(hi)
        ok = propagate(lo, hi, slack, rows)
        calls.append((box, (list(lo), list(hi), list(slack)) if ok else None))
        return ok
    fam._propagate = spy
    return calls


@pytest.mark.parametrize("letter, n, orient", [
    ("A", 3, None), ("D", 4, None), ("D", 4, [(2, 1), (3, 2), (4, 2)]),
    ("D", 5, None),
], ids=["A3", "D4", "D4:2>1,3>2,4>2", "D5"])
def test_root_fixpoint_matches_full_sweeps(letter, n, orient):
    # the root that count searches from is the fixpoint of the plain
    # sweep, bound for bound, and its kept slacks are the fresh ones; so is
    # every node of the search, swept from the box handed to propagation
    # (the fixpoint is unique, so this pins each DFS tree), and propagation
    # empties a node exactly when the sweep does.  On A3 and D4 over the
    # targets of `count --grid 1`, on D5 over every lambda of the pairs
    # from {0, omega_i} and the zero-valued targets
    s = System(letter, n, orient)
    if n < 5:
        targets = [mu + nu + lam for mu, nu, lam in cli._grid_targets(
            s.cd, "full2", None, 1, random.Random(0), {})]
    else:
        targets = [mu + nu + lam
                   for mu, nu in itertools.product(_fundamental(n), repeat=2)
                   for lam in lieoracle.tensor_decomposition(s.cd, mu, nu)]
        targets += _D5_ZEROS
    fam = s.family()
    rows = _sparse_rows(fam)
    calls = _spy_propagate(fam)
    empty = children = 0
    for t in targets:
        # the rows are read once per family and the right-hand sides once
        # per target, through the same reference as _swept_root
        b = fam._slice_rhs(t)
        root = fam._root(t)
        assert (None if root is None else root[1:]) == _swept_box(fam, rows,
                                                                  b), t
        empty += root is None
        calls.clear()
        fam.count(t)
        # calls[0] is count's own _root, checked above
        for (lo, hi), got in calls[1:]:
            assert got == _sweep(rows, b, lo, hi), t
        children += len(calls[1:])
    assert 0 < empty < len(targets)
    assert children > 0


def test_branch_keeps_fresh_slacks():
    # every child that _branch returns on D4 c^rho_{rho rho} = 32 keeps
    # the slacks that plain per-row sums compute afresh on its box
    fam = System("D", 4).family()
    target = (1,) * 12
    b = fam._slice_rhs(target)
    branch, children = fam._branch, []

    def spy(lo, hi, slack, k, v):
        child = branch(lo, hi, slack, k, v)
        if child is not None:
            children.append(child)
        return child
    fam._branch = spy
    assert fam.count(target) == 32
    assert len(children) > 32
    for lo, hi, slack in children:
        assert slack == [sum(x * (h if x > 0 else l)
                             for x, l, h in zip(a, lo, hi)) - bj
                         for (a, _i), bj in zip(fam.active, b)]


@functools.lru_cache(maxsize=None)
def _family(letter, n, orient):
    return System(letter, n, orient and list(orient)).family()


@pytest.mark.parametrize("letter, n, orient", [
    ("A", 3, None), ("D", 4, None), ("D", 4, ((2, 1), (3, 2), (4, 2))),
    ("D", 5, None),
], ids=["A3", "D4", "D4:2>1,3>2,4>2", "D5"])
@given(entries=st.lists(st.integers(-1, 3), min_size=15, max_size=15))
@settings(max_examples=60, deadline=None)
def test_linear_prefix_matches_reference(letter, n, orient, entries):
    # _root reads the target through the linear maps fixed at init (the
    # lattice test, y, the constant rows, the box forms and the packed
    # right-hand sides); the reference reads it through the HNF
    # back-substitution of _slice_rhs and a plain sweep.  Random targets,
    # non-dominant and off the slice lattice ones among them, are empty
    # on both routes or have the same box and slacks, and the packed base
    # holds the reference's right-hand sides
    fam = _family(letter, n, orient)
    target = tuple(entries[:3 * n])
    root = fam._root(target)
    assert (None if root is None else root[1:]) == _swept_root(fam, target)
    if root is not None:
        (r, base), b = root[0], fam._slice_rhs(target)
        bias = fam.packed.table(r)[-1]
        assert base == bias - sum(bj << 64 * r * j for j, bj in enumerate(b))


@pytest.mark.parametrize("letter, n, orient", [
    ("A", 3, None), ("D", 4, None), ("D", 4, ((2, 1), (3, 2), (4, 2))),
    ("D", 5, None),
], ids=["A3", "D4", "D4:2>1,3>2,4>2", "D5"])
@given(weights=st.lists(st.integers(0, 1), min_size=10, max_size=10),
       scale=st.sampled_from([2 ** 62, 2 ** 62 + 1, 2 ** 66, 2 ** 70 - 1,
                              2 ** 70]),
       entries=st.one_of(st.just((0,) * 15),
                         st.lists(st.integers(-1, 2), min_size=15,
                                  max_size=15)))
@example(weights=[1] * 10, scale=2 ** 70, entries=(0,) * 15)
@settings(max_examples=40, deadline=None)
def test_linear_prefix_matches_reference_on_wide_targets(letter, n, orient,
                                                         weights, scale,
                                                         entries):
    # targets with entries near 2^62..2^70: scale times a Cartan component
    # (mu, nu, mu + nu), which is nonempty, plus small entries, which move
    # some off the slice lattice or empty them.  Both packed maps need
    # fields of 128 bits, and _root still agrees with the HNF reference
    fam = _family(letter, n, orient)
    mu, nu = weights[:n], weights[n:2 * n]
    mu[0] = 1
    cartan = mu + nu + [a + b for a, b in zip(mu, nu)]
    target = tuple(scale * x + e for x, e in zip(cartan, entries))
    assert count._width(fam.target_map.bound(target)) == 2
    root = fam._root(target)
    assert (None if root is None else root[1:]) == _swept_root(fam, target)
    if not any(entries):
        assert root is not None
    if root is not None:
        (r, base), b = root[0], fam._slice_rhs(target)
        assert r == 2
        bias = fam.packed.table(r)[-1]
        assert base == bias - sum(bj << 64 * r * j for j, bj in enumerate(b))


def test_negative_slack_ends_propagation_at_once():
    # a row handed to propagation with a negative slack empties the box
    # before any bound moves
    fam = System("D", 4).family()
    # c^rho_{rho rho} = 32, whose root box is still wide
    _start, lo, hi, slack = fam._root((1,) * 12)
    assert any(l < h for l, h in zip(lo, hi))
    for j in range(len(slack)):
        l2, h2, s2 = list(lo), list(hi), list(slack)
        s2[j] = -1
        assert not fam._propagate(l2, h2, s2, [j])
        assert (l2, h2) == (lo, hi), j


@st.composite
def _packed_systems(draw):
    """Small integer systems a_j . c >= b_j, with b_j = q_j . y read off
    forms q_j at a point y, and a box lo..hi: mixed signs, some rows and
    some columns zero, and entries, forms, y or box bounds scaled up until
    fields of 64 bits overflow."""
    m = draw(st.integers(0, 4))
    n = draw(st.integers(0, 6))
    p = draw(st.integers(0, 3))
    scale = draw(st.sampled_from([1, 1, 2 ** 40, 2 ** 70]))
    zero_rows = draw(st.sets(st.integers(0, max(n - 1, 0))))
    zero_cols = draw(st.sets(st.integers(0, max(m - 1, 0))))
    rows = [tuple(0 if j in zero_rows or k in zero_cols
                  else scale * draw(st.integers(-4, 4)) for k in range(m))
            for j in range(n)]
    reach = draw(st.sampled_from([1, 1, 2 ** 30, 2 ** 66]))
    lo = [reach * draw(st.integers(-5, 5)) for _k in range(m)]
    hi = [l + draw(st.integers(0, 4)) for l in lo]
    forms = [tuple(draw(st.sampled_from([1, scale])) * draw(st.integers(-3, 3))
                   for _k in range(p)) for _j in range(n)]
    y = [draw(st.sampled_from([1, reach])) * draw(st.integers(-20, 20))
         for _k in range(p)]
    points = [lo, hi] + [[draw(st.integers(l, h)) for l, h in zip(lo, hi)]
                         for _i in range(3)]
    return rows, m, forms, y, lo, hi, points


def _packed_base(forms, y, r):
    """The packed int bias + sum_k y_k cols[k] of forms (a PackedForms) at
    y in its table of width r: for the negated right-hand-side forms, the
    base of start = (r, base), as _root reads it."""
    cols, bias = forms.table(r)
    return sum(map(operator.mul, y, cols), bias)


def _packed_rows(rows, m):
    """rows packed as SliceFamily packs its active rows: (packed, packed_pos,
    row_norm), the rows and their positive parts as PackedForms, and the
    largest l1 norm of a row."""
    return (count.PackedForms(rows, m),
            count.PackedForms([[max(x, 0) for x in a] for a in rows], m),
            max([sum(map(abs, a)) for a in rows], default=0))


@given(_packed_systems())
@settings(max_examples=200, deadline=None)
def test_packed_rows_match_dense(system):
    # the packed rows' columns, right-hand sides, slacks and leaf verdicts
    # are the plain per-row ones, at the width the one width rule gives for
    # a bound on every |a_j . c - b_j| in the box and every value and entry
    # packed; its fields hold the bound, and no narrower ones do
    rows, m, forms, y, lo, hi, points = system
    b = [sum(x * v for x, v in zip(q, y)) for q in forms]
    packed, pos, norm = _packed_rows(rows, m)
    neg = count.PackedForms([[-x for x in q] for q in forms], len(y))
    reach = max([1] + [abs(x) for x in lo + hi])
    bound = norm * reach + neg.bound(y)
    assert all(abs(x) <= neg.bound(y) for x in b)
    assert all(abs(x) <= neg.bound(y) for q in forms for x in q)
    r = count._width(bound)
    assert bound < 2 ** (64 * r - 1)
    assert r == 1 or bound >= 2 ** (64 * r - 65)
    assert neg.values(y, r) == [-bj for bj in b]
    cols, bias = packed.table(r)
    assert cols == [sum(a[k] << 64 * r * j for j, a in enumerate(rows))
                    for k in range(m)]
    base = _packed_base(neg, y, r)
    assert base == bias - sum(bj << 64 * r * j for j, bj in enumerate(b))
    start = r, base
    assert count.slacks(packed, pos, start, lo, hi) == [
        sum(x * (h if x > 0 else l) for x, l, h in zip(a, lo, hi)) - bj
        for a, bj in zip(rows, b)]
    holds = count.certificate(packed, start)
    for c in points:
        assert holds(c) == all(sum(x * z for x, z in zip(a, c)) >= bj
                               for a, bj in zip(rows, b)), c
    for t in packed, pos, neg:
        assert 1 in t.tables or t.norm >= 2 ** 63
        assert r in t.tables


def test_width_rule_is_minimal():
    # the smallest r whose 64 r-bit fields hold the bound
    assert [count._width(v) for v in (0, 1, 2 ** 63 - 1, 2 ** 63,
                                      2 ** 127 - 1, 2 ** 127)] == [
        1, 1, 1, 2, 2, 3]


def test_packed_rows_widen_past_64_bits():
    # one entry of 2^62 on a box reaching 4 needs fields of 128 bits; the
    # wide tables are kept beside the 64-bit ones, which stay as they were;
    # the forms are the identity, so y is b
    packed, pos, norm = _packed_rows([(2 ** 62, -1), (0, 0), (-3, 1)], 2)
    neg = count.PackedForms([(-1, 0, 0), (0, -1, 0), (0, 0, -1)], 3)
    tables = packed, pos, neg
    narrow = [t.tables[1] for t in tables]
    b, lo, hi = [2 ** 64, -1, -20], [-4, 0], [4, 2]
    r = count._width(norm * 4 + neg.bound(b))
    assert r == 2
    start = r, _packed_base(neg, b, r)
    assert count.slacks(packed, pos, start, lo, hi) == [0, 1, 34]
    holds = count.certificate(packed, start)
    assert holds([4, 0]) and not holds([3, 0]) and not holds([4, 2])
    for t, table in zip(tables, narrow):
        assert sorted(t.tables) == [1, 2] and t.tables[1] is table
    r = count._width(norm + neg.bound([0, 0, 0]))
    assert r == 1
    small = r, _packed_base(neg, [0, 0, 0], r)
    assert count.slacks(packed, pos, small, [0, 0], [1, 1]) == [2 ** 62, 0, 1]


def test_packed_rows_without_active_rows():
    # A1's kernel is empty: m = 0, no active row, every field list empty,
    # and all three cone columns are constant rows, tested on y alone
    s = System("A", 1)
    fam = s.family()
    assert fam.m == 0 and fam.active == [] and len(fam.constant) == 3
    start, lo, hi, slack = fam._root([0, 0, 0])
    assert start == (1, 0) and lo == hi == slack == []
    assert count.slacks(fam.packed, fam.packed_pos, start, [], []) == []
    assert count.certificate(fam.packed, start)([])
    for mu, nu in itertools.product(range(3), repeat=2):
        want = lieoracle.tensor_decomposition(s.cd, (mu,), (nu,))
        for lam in range(5):
            assert fam.count((mu, nu, lam)) == want.get((lam,), 0)


def test_huge_targets_count_in_wide_fields():
    # entries near 2^70 need fields of 128 bits in the target map, the
    # right-hand sides and the rows alike; each wide table is kept under its
    # width beside its 64-bit sibling, and a small target still counts in
    # 64-bit fields
    s = System("A", 2)
    fam = s.family()
    tables = fam.target_map, fam.rhs_map, fam.packed
    narrow = [t.tables[1] for t in tables]
    big = 2 ** 70
    for target in [(big, 0, 0, big, 0, 0), (big, 0, 0, big, big, big)]:
        assert fam.count(target) == fam.count_lp(target) == 1
    for t, table in zip(tables, narrow):
        assert sorted(t.tables) == [1, 2] and t.tables[1] is table
    want = lieoracle.tensor_decomposition(s.cd, (1, 1), (1, 1))[(1, 1)]
    assert fam.count((1, 1, 1, 1, 1, 1)) == want == 2
    assert fam._root((1, 1, 1, 1, 1, 1))[0][0] == 1


def test_planted_leaf_violation_raises():
    # D4 c^rho_{rho rho} counted with propagation planted to narrow
    # nothing: the search then reaches leaves of the wide root box that
    # violate rows, and the leaf check must raise
    fam = System("D", 4).family()
    _start, lo, hi, _s = fam._root((1,) * 12)
    assert any(l < h for l, h in zip(lo, hi))
    fam._propagate = lambda lo, hi, slack, rows: True
    with pytest.raises(RuntimeError, match="propagation leaf violates"):
        fam.count((1,) * 12)


def test_planted_leaf_violation_survives_python_O():
    # the leaf certificate is a raise, not an assert
    script = textwrap.dedent("""
        import sys
        from arcones.system import System
        if __debug__:
            sys.exit("not running under -O")
        fam = System("D", 4).family()
        fam._propagate = lambda lo, hi, slack, rows: True
        try:
            fam.count((1,) * 12)
        except RuntimeError as exc:
            print(exc)
        else:
            sys.exit("violating leaf counted")
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(arcones.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "propagation leaf violates" in res.stdout


def _d4_brauer_klimyk(s):
    """Three D4 pairs (mu, nu) with every lambda in {0,1}^4: target ->
    Brauer-Klimyk value."""
    pairs = [((1, 0, 0, 0), (1, 0, 0, 0)), ((0, 1, 0, 0), (0, 1, 0, 0)),
             ((1, 0, 1, 1), (0, 1, 0, 1))]
    return {mu + nu + lam: lieoracle.tensor_decomposition(s.cd, mu, nu)
            .get(lam, 0) for mu, nu in pairs
            for lam in itertools.product(range(2), repeat=4)}


def test_count_path_uses_no_fraction():
    # the per-target path reads int forms over an int denominator; that no
    # module imports fractions is a lint (test_hygiene.py)
    s = System("D", 4)
    fam = s.family()
    want = _d4_brauer_klimyk(s)
    forms = fam.lower_form + fam.upper_form
    assert type(fam.box_den) is int
    assert all(type(n) is int for form in forms for _h, n in form)
    assert {t: fam.count(t) for t in want} == want
    assert any(want.values())


def test_count_path_skips_the_hnf(monkeypatch):
    # count reads the target through the linear maps fixed at init, never
    # through the HNF back-substitution; count_lp, the reference, still
    # reaches it
    s = System("D", 4)
    fam = s.family()
    want = _d4_brauer_klimyk(s)

    def no_hnf(*_args):
        raise AssertionError("HNF back-substitution on the count path")

    monkeypatch.setattr(count, "integer_row_solution", no_hnf)
    assert {t: fam.count(t) for t in want} == want
    assert any(want.values())
    with pytest.raises(AssertionError, match="HNF back-substitution"):
        fam.count_lp(next(iter(want)))


@pytest.mark.parametrize("letter, n, weights", [
    ("A", 2, list(itertools.product(range(3), repeat=2))),
    ("A", 3, list(itertools.product(range(2), repeat=3))),
    ("D", 5, _fundamental(5)),
], ids=["A2", "A3", "D5"])
def test_count_star_symmetry(letter, n, weights):
    # c^lam_{mu nu} = c^lam_{nu mu} = c^{mu*}_{nu lam*}, where w*_i = w_{i*}
    # for the involution i -> i* of -w0, nontrivial on all three types
    s = System(letter, n)
    star = rootdata.star_involution(s.cd)
    assert any(i != j for i, j in star.items())
    dual = lambda w: tuple(w[star[i] - 1] for i in range(1, n + 1))
    fam = s.family()
    values = set()
    for mu, nu, lam in itertools.product(weights, repeat=3):
        got = fam.count(mu + nu + lam)
        assert got == fam.count(nu + mu + lam), (mu, nu, lam)
        assert got == fam.count(nu + dual(lam) + dual(mu)), (mu, nu, lam)
        values.add(got)
    assert 0 in values and len(values) > 1


def _orientations(edges):
    return [[e if keep else e[::-1] for e, keep in zip(edges, flips)]
            for flips in itertools.product((True, False), repeat=len(edges))]


@pytest.mark.parametrize("letter, n, edges, columns", [
    ("A", 3, [(1, 2), (2, 3)], None),
    ("D", 4, [(2, 1), (3, 2), (4, 2)], {44, 64}),
    ("A", 4, [(1, 2), (2, 3), (3, 4)], {30, 35, 40}),
], ids=["A3", "D4", "A4"])
def test_counts_independent_of_orientation(letter, n, edges, columns):
    # every orientation of one Dynkin type gives the same count at every
    # target, with no Lie theory involved: mu, nu in {0, omega_i} and
    # lambda in {0,1}^n
    targets = [mu + nu + lam for mu, nu in
               itertools.product(_fundamental(n), repeat=2)
               for lam in itertools.product(range(2), repeat=n)]
    seen, sizes = None, set()
    for orient in _orientations(edges):
        s = System(letter, n, orient)
        sizes.add(len(s.cone().columns))
        fam = s.family()
        got = [fam.count(t) for t in targets]
        if seen is None:
            seen = got
            assert any(got) and not all(got)
        assert got == seen, orient
    if columns is not None:
        assert sizes == columns


def test_sharp_variant_counts_weight_multiplicities():
    fam = System("A", 2).family("sharp")
    cd = rootdata.cartan_data(rootdata.build_dynkin("A", 2))
    mu = (1, 1)
    for lam, mult in lieoracle.freudenthal(cd, mu).items():
        got = fam.count(list(mu) + list(lam))
        assert got == mult, lam


def test_u_variant_counts_kostant():
    fam = System("A", 2).family("u")
    cd = rootdata.cartan_data(rootdata.build_dynkin("A", 2))
    a1, a2 = cd.cartan
    for c1 in range(4):
        for c2 in range(4):
            gamma = [c1 * a1[k] + c2 * a2[k] for k in range(2)]
            assert fam.count(gamma) == \
                lieoracle.kostant_partition(cd, gamma), (c1, c2)


@pytest.mark.parametrize("letter, n, mus", [
    ("A", 2, _fundamental(2)[1:] + [(1, 1)]),
    ("A", 3, _fundamental(3)[1:] + [(1, 1, 1)]),
    ("D", 4, [(0, 1, 0, 0)]),
], ids=["A2", "A3", "D4"])
def test_sharp_counts_weyl_invariant(letter, n, mus):
    # the weight multiplicities of L(mu) are constant on Weyl orbits: the
    # sharp count at (mu, w . lam) is the same for every w in W and every
    # weight lam of L(mu), with w generated apart from the count
    s = System(letter, n)
    group = weyl_group(s.cd).elements
    fam = s.family("sharp")
    values = set()
    for mu in mus:
        for lam, mult in lieoracle.freudenthal(s.cd, mu).items():
            orbit = {tuple(vec_mat(list(lam), w)) for w in group}
            got = {fam.count(mu + image) for image in orbit}
            assert got == {mult}, (mu, lam)
            values.add(mult)
    assert len(values) > 1


@pytest.mark.parametrize("letter, n", [("A", 2), ("A", 3), ("D", 4)])
def test_u_count_zero_off_root_cone(letter, n):
    # gamma in the root lattice but outside the positive root cone has no
    # Kostant partition: -alpha_i, alpha_i - alpha_j for adjacent i, j, and
    # -(sum of the simple roots)
    s = System(letter, n)
    fam = s.family("u")
    alphas = [list(row) for row in s.cd.cartan]
    add = lambda *vs: tuple(sum(x) for x in zip(*vs))
    neg = lambda v: [-x for x in v]
    gammas = [tuple(neg(a)) for a in alphas]
    gammas += [add(alphas[i], neg(alphas[j]))
               for i, j in itertools.permutations(range(n), 2)
               if s.cd.cartan[i][j]]
    gammas.append(tuple(neg(add(*alphas))))
    for gamma in gammas:
        assert lieoracle.kostant_partition(s.cd, gamma) == 0, gamma
        assert fam.count(gamma) == 0, gamma
    # and the cone's own simple roots count once each
    assert [fam.count(tuple(a)) for a in alphas] == [1] * n


def test_kostant_examples():
    cd = rootdata.cartan_data(rootdata.build_dynkin("A", 2))
    a1, a2 = cd.cartan
    add = lambda *vs: [sum(x) for x in zip(*vs)]
    assert lieoracle.kostant_partition(cd, a1) == 1
    assert lieoracle.kostant_partition(cd, add(a1, a2)) == 2
    assert lieoracle.kostant_partition(cd, add(a1, a1, a2)) == 2
    # outside the root lattice / root cone
    assert lieoracle.kostant_partition(cd, (1, 0)) == 0
    assert lieoracle.kostant_partition(cd, [-x for x in a1]) == 0


@pytest.mark.parametrize("gamma, value", [
    ((3, -5, 5, 5), 128), ((2, 0, 4, 4), 16247), ((1, 1, 3, 5), 22972),
])
def test_kostant_d4_pinned(gamma, value):
    # values in the thousands, which the enumeration of every positive root
    # took seconds to minutes over; the u cone counts them independently
    s = System("D", 4)
    assert lieoracle.kostant_partition(s.cd, gamma) == value
    assert s.family("u").count(gamma) == value


def test_non_integral_slice_is_empty():
    fam = System("A", 2).family("u")
    # gamma = alpha1 shifted off the root lattice
    assert fam.count((1, 0)) == 0


class _V:
    label = "x"


# sigma = [[1], [0]] grades by g_1, so c = g_2: the column (1, 0) leaves
# no active row, and (0, 1) bounds c from one side only
_OPEN_CONES = [[[1, 0]], [[0, 1]]]


@pytest.mark.parametrize("columns", _OPEN_CONES, ids=["no active row",
                                                     "one side"])
def test_missing_bounding_functional_raises(columns):
    # the slice at target 0 is not a point, so no slice is a polytope:
    # init raises, naming the coordinate and its open side
    spec = cone.ConeSpec("full2", [_V(), _V()],
                         [(_V(), h) for h in columns])
    with pytest.raises(RuntimeError, match=r"no bounding functional: "
                       r"coordinate 0 is unbounded (below|above)"):
        count.SliceFamily(spec, [[1], [0]])


def test_missing_bounding_functional_survives_python_O():
    script = textwrap.dedent("""
        import sys
        from arcones import cone, count
        if __debug__:
            sys.exit("not running under -O")
        class V:
            label = "x"
        for columns in %r:
            spec = cone.ConeSpec("full2", [V(), V()],
                                 [(V(), h) for h in columns])
            try:
                count.SliceFamily(spec, [[1], [0]])
            except RuntimeError as exc:
                print(exc)
            else:
                sys.exit("unbounded family built")
    """ % (_OPEN_CONES,))
    src = os.path.dirname(os.path.dirname(os.path.abspath(arcones.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.count("no bounding functional") == 2


def test_count_lp_refuses_unbounded_bracket(monkeypatch):
    # an infeasible dual leaves a bracket unbounded; init certified every
    # slice bounded, so that is a fault in the reference, not an empty slice
    fam = System("A", 2).family()
    assert fam.count_lp((1, 1, 1, 1, 1, 1)) == 2
    monkeypatch.setattr(count, "lp_min",
                        lambda *args, **kw: ("infeasible", None, None))
    with pytest.raises(RuntimeError, match=r"count_lp: the min of "
                       r"coordinate .* is unbounded \(its dual is "
                       r"infeasible\)"):
        fam.count_lp((1, 1, 1, 1, 1, 1))


def test_count_lp_brackets_are_tight(monkeypatch):
    # slices of g = (t, x, y), graded by g_1, with fractional vertices, as
    # cone columns h (each g . h >= 0) and by brute force: on the first
    # every minimum is 0 and the maxima are fractional, on the second
    # (3x + y >= t, x + 3y >= t, x + y <= 3t/2) the minima are too.  A
    # slice's projection on a coordinate is that coordinate's LP bracket,
    # so every integer of [ceil(min), floor(max)] is the value of a
    # rational point of the slice, and no dual of count_lp below the root
    # is unbounded (no point); a bracket rounded outward makes some
    slices = [
        (([0, 1, 0], [0, 0, 1], [1, -2, -3]),
         lambda t, x, y: x >= 0 and y >= 0 and 2 * x + 3 * y <= t),
        (([-1, 3, 1], [-1, 1, 3], [3, -2, -2]),
         lambda t, x, y: 3 * x + y >= t and x + 3 * y >= t
         and 2 * x + 2 * y <= 3 * t),
    ]
    real = count.lp_min
    for columns, inside in slices:
        spec = cone.ConeSpec("full2", [_V(), _V(), _V()],
                             [(_V(), h) for h in columns])
        fam = count.SliceFamily(spec, [[1], [0], [0]])
        seen = []

        def spy(c, b_eq, start):
            got = real(c, b_eq=b_eq, start=start)
            seen.append((len(b_eq), got))
            return got

        monkeypatch.setattr(count, "lp_min", spy)
        for t in range(12):
            want = sum(1 for x in range(-t, 2 * t + 1)
                       for y in range(-t, 2 * t + 1) if inside(t, x, y))
            assert fam.count([t]) == fam.count_lp([t]) == want, (columns, t)
        assert any(den > 1 for _n, (_st, _lam, den) in seen)
        assert all(st == "optimal"
                   for n, (st, _lam, _den) in seen if n < fam.m), columns
        assert any(n < fam.m for n, _got in seen)


_ZERO_SLICE_SYSTEMS = [("A", n, None) for n in range(1, 7)] + [
    ("D", 4, None), ("D", 4, [(2, 1), (3, 2), (4, 2)]), ("D", 5, None),
    ("D", 6, None), ("E", 6, None)]


@pytest.mark.parametrize("letter, n, orient", _ZERO_SLICE_SYSTEMS,
                         ids=["A1", "A2", "A3", "A4", "A5", "A6", "D4",
                              "D4:2>1,3>2,4>2", "D5", "D6", "E6"])
def test_zero_slice_is_a_point(letter, n, orient):
    # the degree-0 piece holds the constants only: c^0_00 = 1, the weight 0
    # of L(0) once, and p(0) = 1; this slice is the recession cone of every
    # slice, so each family's init certified all of them bounded
    s = System(letter, n, orient)
    for variant in ("full2", "sharp", "u"):
        fam = s.family(variant)
        assert fam.count([0] * fam.width) == 1, variant


def test_rank_deficient_sigma_refused():
    # the linear maps of the target need sigma of full column rank
    spec = cone.ConeSpec("full2", [_V(), _V()],
                         [(_V(), [1, 0]), (_V(), [0, 1])])
    with pytest.raises(ValueError, match="sigma has rank 1, less than "
                                         "its width 2"):
        count.SliceFamily(spec, [[1, 2], [2, 4]])

