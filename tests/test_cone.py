import pytest

from arcones import cone, lieoracle, pathalg
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


@pytest.mark.parametrize("letter, n, ncols, dropped", [
    ("D", 4, 64, [46]),
    ("D", 5, 192, [88, 89, 96, 98, 115, 129, 137, 153, 154, 157]),
], ids=["D4", "D5"])
def test_prune_kept_columns_pinned(letter, n, ncols, dropped):
    # prune tests the columns in order against the ones still kept, so the
    # columns it keeps depend on every earlier LP's status
    spec = System(letter, n).cone()
    assert len(spec.columns) == ncols
    kept = [c for i, c in enumerate(spec.columns) if i not in dropped]
    assert cone.prune_redundant(spec).columns == kept


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
