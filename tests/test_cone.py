import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import arcones
from arcones import cone, exact, lieoracle, pathalg
from arcones.system import System


def support_counts(iq, dv):
    return {v.label: d for v, d in zip(iq.vertices, dv) if d}


def test_bruteforce_chain_tails():
    iq = System("A", 2).ice()
    rep = pathalg.PathAlg(iq).build_tv(iq.cat.by_label["O2-"])
    subs = cone.subreps_bruteforce(rep, 2)
    named = {tuple(sorted(support_counts(iq, dv))) for dv in subs}
    assert named == {("O2-",), ("O2-", "f[1,0]"), ("O1+", "O2-", "f[1,0]")}


def test_bruteforce_two_vertex():
    iq = System("A", 2).ice()
    rep = pathalg.PathAlg(iq).build_tv(iq.cat.by_label["O1+"])
    subs = cone.subreps_bruteforce(rep, 2)
    named = {tuple(sorted(support_counts(iq, dv))) for dv in subs}
    assert named == {("O1+",), ("Id1", "O1+")}


def test_bruteforce_cap():
    # the largest D6 T_v has total dimension 29, above the cap of 24
    iq = System("D", 6).ice()
    v = max((v for v in iq.vertices if iq.frozen[v]),
            key=lambda v: sum(iq.tv_dim(v)))
    rep = pathalg.PathAlg(iq).build_tv(v)
    assert sum(rep.dims) == 29 > cone.DEFAULT_CAP
    with pytest.raises(NotImplementedError):
        cone.subreps_bruteforce(rep, 2)


@pytest.mark.parametrize("source", ["both", "Bruteforce", ""],
                         ids=["both", "misspelt", "empty"])
def test_tv_strict_sets_unknown_source(source):
    # a stale or misspelt route raises instead of returning no T_v sets
    with pytest.raises(ValueError, match="unknown T_v source"):
        cone.tv_strict_sets(System("A", 2).ice(), source)


def test_d4_strict_counts():
    # this orientation reproduces the known D4 strict-subrep counts per index
    s = System("D", 4, [(2, 1), (3, 2), (4, 2)])
    sets = s.tv_bruteforce
    assert sets == cone.tv_strict_sets(s.ice(), "fpoly")
    cat = s.catalog
    assert [len(sets[cat.by_label["O%d-" % i]]) for i in range(1, 5)] == \
        [3, 3, 3, 3]
    assert [len(sets[cat.by_label["O%d+" % i]]) for i in range(1, 5)] == \
        [7, 6, 1, 1]
    assert [len(sets[cat.by_label["Id%d" % i]]) for i in range(1, 5)] == \
        [1, 2, 7, 7]


@pytest.mark.parametrize("letter,n,orient", [
    ("A", 2, None), ("A", 3, None), ("A", 4, None), ("D", 4, None),
    ("D", 4, [(2, 1), (3, 2), (4, 2)])])
def test_pi_inv_is_maximal_vertex(letter, n, orient):
    # only the full module T_v is nonzero at pi^{-1}(v), which is why the
    # restricted cones add dim T_v when pi^{-1}(v) is deleted
    s = System(letter, n, orient)
    iq = s.ice()
    for v, subs in s.tv_sets.items():
        k = iq.index[iq.cat.pi_inv(v)]
        assert iq.tv_dim(v)[k], v.label
        assert all(dv[k] == 0 for dv in subs), v.label


def test_d4_cone_44_and_prune():
    spec = System("D", 4, [(2, 1), (3, 2), (4, 2)]).cone()
    assert len(spec.columns) == 44
    assert all(all(x >= 0 for x in c) and any(c) for _v, c in spec.columns)
    pruned = cone.prune_redundant(spec)
    assert len(pruned.columns) == 44


# D6's dropped columns were read off the prune that solved one LP over every
# kept column and every coordinate (9.8 s)
D6_DROPPED = [152, 153, 154, 164, 165, 167, 168, 176, 179, 181, 207, 208,
              215, 217, 239, 240, 247, 249, 261, 262, 267, 269, 289, 306, 312,
              313, 314, 315, 318, 319, 320, 321, 325, 326, 327, 331, 350, 352,
              353, 359, 361, 362, 365, 390, 401, 409, 425, 426, 429, 448, 459,
              467, 483, 484, 487, 497, 503, 504, 507, 547, 548, 551, 552, 553,
              557]


@pytest.mark.parametrize("letter, n, ncols, dropped", [
    ("D", 4, 64, [46]),
    ("D", 5, 192, [88, 89, 96, 98, 115, 129, 137, 153, 154, 157]),
    ("D", 6, 625, D6_DROPPED),
], ids=["D4", "D5", "D6"])
def test_prune_kept_columns_pinned(letter, n, ncols, dropped):
    # prune tests the columns in order against the ones still kept, so the
    # columns it keeps depend on every earlier LP's status
    spec = System(letter, n).cone()
    assert len(spec.columns) == ncols
    kept = [c for i, c in enumerate(spec.columns) if i not in dropped]
    assert cone.prune_redundant(spec).columns == kept


def _prune_reference(spec):
    """The columns prune_redundant keeps, by one LP over every kept other
    column and every coordinate per column, in the same order."""
    cols = [list(c) for _v, c in spec.columns]
    keep = [True] * len(cols)
    for i in range(len(cols)):
        others = [cols[j] for j in range(len(cols)) if keep[j] and j != i]
        if not others:
            continue
        a_eq = [[c[k] for c in others] for k in range(spec.dim)]
        status, _x, _v = exact.lp_min([0] * len(others), a_eq=a_eq,
                                      b_eq=cols[i])
        if status == "optimal":
            keep[i] = False
    return [c for c, k in zip(spec.columns, keep) if k]


def _spec(cols):
    """A ConeSpec over len(cols[0]) coordinates with the columns cols, the
    first half in group u and the rest in group r."""
    half = len(cols) // 2
    groups = {"u": list(range(half)), "r": list(range(half, len(cols)))}
    return cone.ConeSpec("full2", list(range(len(cols[0]))),
                         [(k, tuple(c)) for k, c in enumerate(cols)],
                         {g: ix for g, ix in groups.items() if ix})


@st.composite
def column_sets(draw):
    """Small nonnegative column sets with duplicates, positive multiples,
    zero columns and sums of other columns among them, in random order."""
    d = draw(st.integers(1, 4))
    vec = st.lists(st.integers(0, 3), min_size=d, max_size=d)
    cols = draw(st.lists(vec, min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["duplicate", "multiple", "zero", "sum"]))
        a = draw(st.sampled_from(cols))
        b = draw(st.sampled_from(cols))
        cols.append({"duplicate": a, "multiple": [2 * x for x in a],
                     "zero": [0] * d,
                     "sum": [x + y for x, y in zip(a, b)]}[kind])
    return draw(st.permutations(cols))


@given(column_sets())
@example([[1, 0], [1, 0]])                        # a duplicate
@example([[0, 0], [1, 1]])                        # a zero column first
@example([[0, 0]])                                # a lone zero column
@example([[1, 1, 0], [1, 0, 0], [0, 1, 1]])       # a cover missing one row
@example([[2, 2], [1, 1], [1, 0], [0, 1]])        # multiple, then a sum
@settings(max_examples=200, deadline=None)
def test_prune_by_support_matches_reference(cols):
    # the support argument and the cover check keep exactly the columns an
    # LP over every kept column and coordinate keeps, and every LP prune
    # solves has only rows in the column's support, each of them covered
    spec = _spec(cols)
    lps = []

    def spy(c, a_eq=None, b_eq=None):
        lps.append((a_eq, b_eq))
        return exact.lp_min(c, a_eq=a_eq, b_eq=b_eq)

    cone.lp_min = spy
    try:
        pruned = cone.prune_redundant(spec)
    finally:
        cone.lp_min = exact.lp_min
    assert pruned.columns == _prune_reference(spec)
    for a_eq, b_eq in lps:
        assert all(b > 0 for b in b_eq)
        assert all(any(row) for row in a_eq)
    kept = {c for c in pruned.columns}
    assert {g: [pruned.columns[i] for i in ix]
            for g, ix in pruned.groups.items()} == \
        {g: [spec.columns[i] for i in ix if spec.columns[i] in kept]
         for g, ix in spec.groups.items()
         if any(spec.columns[i] in kept for i in ix)}


_ALL_VARIANTS = ["full2", "u", "sharp", "l", "r"]


@pytest.mark.parametrize("variant", _ALL_VARIANTS)
@pytest.mark.parametrize("letter,n,orient", [
    ("A", 2, None), ("A", 3, None), ("A", 4, None), ("D", 4, None),
    ("D", 4, [(2, 1), (3, 2), (4, 2)])],
    ids=["A2", "A3", "A4", "D4", "D4:2>1,3>2,4>2"])
def test_prune_variants_match_reference(letter, n, orient, variant):
    spec = System(letter, n, orient).cone(variant)
    assert cone.prune_redundant(spec).columns == _prune_reference(spec)


# LPs prune solves per cone: only where the columns with support inside
# the tested column's cover it
PRUNE_LPS = {"A2": 0, "A3": 0, "A4": 0, "D4:2>1,3>2,4>2": 4, "D5": 110}


@pytest.mark.parametrize("key", list(PRUNE_LPS))
def test_prune_lp_count_pinned(key, monkeypatch):
    letter, n = key[0], int(key[1])
    orient = [(2, 1), (3, 2), (4, 2)] if ":" in key else None
    spec = System(letter, n, orient).cone()
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return exact.lp_min(*args, **kwargs)

    monkeypatch.setattr(cone, "lp_min", counted)
    cone.prune_redundant(spec)
    assert len(calls) == PRUNE_LPS[key]


def test_prune_refuses_negative_column():
    spec = _spec([[1, 0], [1, -1]])
    with pytest.raises(RuntimeError, match="nonnegative columns"):
        cone.prune_redundant(spec)


def test_prune_negative_column_survives_python_O():
    script = textwrap.dedent("""
        import sys
        from arcones import cone
        if __debug__:
            sys.exit("not running under -O")
        spec = cone.ConeSpec("full2", [0, 1], [(0, (1, 0)), (1, (1, -1))],
                             {"u": [0, 1]})
        try:
            cone.prune_redundant(spec)
        except RuntimeError as exc:
            print(exc)
        else:
            sys.exit("negative column pruned")
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(arcones.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "nonnegative columns" in res.stdout


def test_a2_u_variant_columns():
    spec = System("A", 2).cone("u")
    per = {}
    for v, c in spec.columns:
        per.setdefault(v.index, []).append(c)
    assert len(per[1]) == 1
    assert len(per[2]) == 2


@pytest.mark.parametrize("variant", ["u", "sharp", "l", "r"])
@pytest.mark.parametrize("letter,n", [("A", 2), ("A", 3), ("D", 4)])
def test_restricted_columns_are_restrictions(letter, n, variant):
    s = System(letter, n)
    iq, full2, sub = s.ice(), s.cone(), s.cone(variant)
    # the cone is read off the variant's own ice quiver
    assert sub.variant == variant and sub.vertices == s.ice(variant).vertices
    groups = {"u": ("negative",), "sharp": ("negative", "positive"),
              "l": ("neutral",), "r": ("positive",)}[variant]
    expected = set()
    for v, c in full2.columns:
        if v.kind in groups:
            r = tuple(c[iq.index[w]] for w in sub.vertices)
            if any(r):
                expected.add(r)
    assert {c for _v, c in sub.columns} == expected


@pytest.mark.parametrize("letter,n,orient", [
    ("A", 2, None), ("A", 3, None), ("A", 4, None), ("A", 5, None),
    ("A", 6, None), ("D", 4, None), ("D", 4, [(2, 1), (3, 2), (4, 2)])],
    ids=["A2", "A3", "A4", "A5", "A6", "D4", "D4:2>1,3>2,4>2"])
def test_count_builds_no_pathalg(monkeypatch, letter, n, orient):
    # F-polynomials build every T_v: the brute force's path algebra is
    # for the check only
    def refuse(iq):
        raise AssertionError("PathAlg built outside tv_bruteforce")

    monkeypatch.setattr(pathalg, "PathAlg", refuse)
    s = System(letter, n, orient)
    mu = tuple(int(k == 0) for k in range(n))
    lam = tuple(2 * x for x in mu)
    want = lieoracle.tensor_decomposition(s.cd, mu, mu)[lam]
    assert want == 1
    assert s.family().count(mu + mu + lam) == want


def test_prune_drops_redundant():
    spec = System("A", 3).cone()
    # duplicating a column must not change the pruned cone
    v0, c0 = spec.columns[0]
    doubled = cone.ConeSpec(spec.variant, spec.vertices,
                            spec.columns + [(v0, c0)],
                            {g: list(ix) for g, ix in spec.groups.items()})
    pruned = cone.prune_redundant(doubled)
    assert sorted(c for _v, c in pruned.columns) == \
        sorted(c for _v, c in cone.prune_redundant(spec).columns)


def test_exports():
    spec = System("A", 2).cone()
    d = spec.to_json_dict()
    assert set(d) == {"variant", "ambient", "columns", "groups"}
    csv = spec.to_csv()
    assert csv.splitlines()[0].startswith("vertex,")
    assert len(csv.splitlines()) == len(spec.vertices) + 1


def test_field_mismatch_raises(monkeypatch):
    # a subrep set planted to differ between GF(2) and GF(3) is refused
    strict = cone.strict_subreps

    def planted(rep, q):
        found = strict(rep, q)
        return found if q == 2 else set(sorted(found)[1:])

    monkeypatch.setattr(cone, "strict_subreps", planted)
    with pytest.raises(RuntimeError, match="differ between GF"):
        cone.tv_strict_sets(System("A", 3).ice(), "bruteforce")


def test_bruteforce_reduces_each_tv_once(monkeypatch):
    # tv_strict_sets reduces each T_v once for both fields, and the cap
    # refuses an oversized T_v before any reduction
    calls = []
    real = pathalg.reduce_for_counting

    def spy(rep):
        calls.append(rep)
        return real(rep)

    monkeypatch.setattr(pathalg, "reduce_for_counting", spy)
    iq = System("D", 4).ice()
    frozen = [v for v in iq.vertices if iq.frozen[v]]
    sets = cone.tv_strict_sets(iq, "bruteforce")
    assert len(calls) == len(sets) == len(frozen) > 0
    calls.clear()
    iq = System("D", 6).ice()
    v = max((v for v in iq.vertices if iq.frozen[v]),
            key=lambda v: sum(iq.tv_dim(v)))
    with pytest.raises(NotImplementedError, match="exceeds cap"):
        cone.subreps_bruteforce(pathalg.PathAlg(iq).build_tv(v), 2)
    assert calls == []
