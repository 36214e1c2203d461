import hashlib
import json
import re

import pytest

from arcones import arpresent, cone, pathalg
from arcones.system import System


def test_hom_dims_a2():
    alg = pathalg.PathAlg(System("A", 2).ice())
    iq = alg.iq
    cat = iq.cat
    fs1 = cat.by_module[cat.ar.simples[1]]
    assert alg.hom_basis(fs1, cat.by_label["O1+"]).dim == 1
    assert alg.hom_basis(cat.by_label["O1-"], fs1).dim == 1
    # the only connection O1+ -> f(S1) is the translation arrow, which is
    # not a morphism in the presentation category
    assert alg.hom_basis(cat.by_label["O1+"], fs1).dim == 0


@pytest.mark.parametrize("letter,n", [("A", 2), ("A", 3), ("D", 4)])
def test_end_is_one_dimensional(letter, n):
    alg = pathalg.PathAlg(System(letter, n).ice())
    iq = alg.iq
    for p in iq.vertices:
        assert alg.hom_basis(p, p).dim == 1


@pytest.mark.parametrize("letter,n", [("A", 2), ("A", 3), ("D", 4)])
def test_irr_along_arrows(letter, n):
    # every morphism arrow of the ice quiver carries a 1-dim Irr space,
    # matching its (1,1) valuation
    alg = pathalg.PathAlg(System(letter, n).ice())
    iq = alg.iq
    for (s, d, val, typ) in iq.arrows:
        if typ == "C":
            continue
        assert len(alg.irreducible_morphisms(s, d)) == 1


def test_mesh_composite_in_rad2():
    # composing the two A2 arrows f(S1) -> O2+ -> O1+ lands in rad^2,
    # so Irr(f(S1), O1+) vanishes although Hom is 1-dimensional
    alg = pathalg.PathAlg(System("A", 2).ice())
    iq = alg.iq
    cat = iq.cat
    fs1 = cat.by_module[cat.ar.simples[1]]
    assert alg.hom_basis(fs1, cat.by_label["O1+"]).dim == 1
    assert alg.irreducible_morphisms(fs1, cat.by_label["O1+"]) == []


def test_tv_a2():
    alg = pathalg.PathAlg(System("A", 2).ice())
    iq = alg.iq
    cat = iq.cat
    fs1 = cat.by_module[cat.ar.simples[1]]
    t = alg.build_tv(cat.by_label["O2-"])
    sup = {v.label for v, d in zip(iq.vertices, t.dims) if d}
    assert sup == {"O1+", "f[1,0]", "O2-"}
    assert set(t.dims) <= {0, 1}
    t = alg.build_tv(cat.by_label["O1+"])
    sup = {v.label for v, d in zip(iq.vertices, t.dims) if d}
    assert sup == {"O1+", "Id1"}


@pytest.mark.parametrize("letter,n", [("A", 3), ("D", 4)])
def test_tv_dims_match_theta(letter, n):
    alg = pathalg.PathAlg(System(letter, n).ice())
    iq = alg.iq
    cat = iq.cat
    for v in iq.vertices:
        if not iq.frozen[v]:
            continue
        t = alg.build_tv(v)
        for p, d in zip(iq.vertices, t.dims):
            if v.kind == "negative":
                want = cat.e_vec[p][cat.star[v.index] - 1]
            elif v.kind == "positive":
                want = cat.f_plus[p][v.index - 1]
            else:
                want = cat.f_minus[p][v.index - 1]
            assert d == want


def test_tv_negative_is_thin_chain():
    alg = pathalg.PathAlg(System("D", 4).ice())
    iq = alg.iq
    cat = iq.cat
    for i in range(1, 5):
        t = alg.build_tv(cat.by_label["O%d-" % i])
        assert sum(t.dims) == len(cat.orbits[i])
        for m in t.mats:
            if m is not None:
                assert m == ((1,),)


@pytest.mark.parametrize("letter,n", [("A", 3), ("D", 4)])
def test_reduce_for_counting_entries(letter, n):
    alg = pathalg.PathAlg(System(letter, n).ice())
    iq = alg.iq
    for v in iq.vertices:
        if not iq.frozen[v]:
            continue
        red = pathalg.reduce_for_counting(alg.build_tv(v))
        for m in red.mats:
            if m is not None:
                assert all(x in (-1, 0, 1) for row in m for x in row)


def test_valued_type_rejected():
    with pytest.raises(ValueError):
        pathalg.PathAlg(System("G", 2).ice())


def test_repz_json_roundtrip_keys():
    alg = pathalg.PathAlg(System("A", 2).ice())
    iq = alg.iq
    t = alg.build_tv(iq.cat.by_label["O1+"])
    d = t.to_json_dict()
    assert set(d) == {"dims", "mats"}
    assert d["dims"] == {"O1+": 1, "Id1": 1}


def _sha(data):
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


def _mat(m):
    return None if m is None else [list(r) for r in m]


D4_MINIMAL = [(2, 1), (3, 2), (4, 2)]

# sha256 digests of the brute-force route's outputs: every Hom basis over
# all ordered pairs of catalog objects, every T_v RepZ, and the
# subreps_bruteforce set of every T_v at q = 2 and at q = 3
BRUTE_FORCE_DIGESTS = {
    ("A", 4, None): (
        "d4d603db50605bf2b6ced462c0cd174ff42e85385394f486180ca7ea4a183d02",
        "073360dc98faaace196e4d393f4ff4f5213e0bb06f0301bfba16d822b6b4ec05",
        "bf0e92dbab739815025fabdae613aa08ddccaab14feb4023f068f79e79c8a602",
        "bf0e92dbab739815025fabdae613aa08ddccaab14feb4023f068f79e79c8a602"),
    ("D", 4, None): (
        "32e3e7c374e95d2512a0214c102abde04e4e60873efabae31421f57d53b7bd2a",
        "fbb355c76e424b55b218272e502cb7552e467fcc5fefb2ce9043d717e0516d49",
        "74854611c7f03e594f5a099d32e28dd3ff05ca94bed711f85d7f00289f43d0e4",
        "74854611c7f03e594f5a099d32e28dd3ff05ca94bed711f85d7f00289f43d0e4"),
    ("D", 4, "2>1,3>2,4>2"): (
        "97b5af3f5a02e64ab88f76f09c47ec1a6623c67c824ae709c399efc14af6620f",
        "591e805d8e2461895039244d32339d3a6891e52583287abb3f7a7addf65016c9",
        "c597c6a1fc64d28c6c29e65a7eacdf1204aa792d38cde1aed46c388b279b7ed6",
        "c597c6a1fc64d28c6c29e65a7eacdf1204aa792d38cde1aed46c388b279b7ed6"),
    ("A", 5, None): (
        "045f6dc80ee8e4e2d28903738c12607b18ef393d8c9f63b31eaeade24b1e28a8",
        "d10e6a700a5b31311872928227a5a00581f8da4a50337334d725e7953e2822ad",
        "e5fb6a0f0b66c88b3effc62c0221cc49457ede12b194095edba4315274409e67",
        "e5fb6a0f0b66c88b3effc62c0221cc49457ede12b194095edba4315274409e67"),
    ("A", 6, None): (
        "a530fb0650f243fdcd2319cbcd1bc66ff375ce2b4db0520d5dfafe3c3b368f3f",
        "aaef60bbf5bd4e8408c4ef6cfddee215a125f02aa898f99047a37f561c6f2ddd",
        "cadbdeb3d0191f8d02746a40926fe4d2f232b082d0f7ab467678c6a1f4d4a471",
        "cadbdeb3d0191f8d02746a40926fe4d2f232b082d0f7ab467678c6a1f4d4a471"),
}


@pytest.mark.parametrize("letter,n,orient", list(BRUTE_FORCE_DIGESTS),
                         ids=["A4", "D4", "D4 2>1,3>2,4>2", "A5", "A6"])
def test_bruteforce_route_pinned(letter, n, orient):
    s = System(letter, n, D4_MINIMAL if orient else None)
    alg = pathalg.PathAlg(s.ice())
    objs = alg.cat.objects
    homs = [[f.label, g.label, [[_mat(part) for part in phi]
                                for phi in alg.hom_basis(f, g).basis]]
            for f in objs for g in objs]
    reps = {v: alg.build_tv(v) for v in alg.iq.vertices if alg.iq.frozen[v]}
    tvs = [[v.label, list(r.dims), [_mat(m) for m in r.mats]]
           for v, r in reps.items()]
    subs = [[[v.label, sorted(map(list, cone.subreps_bruteforce(r, q)))]
             for v, r in reps.items()] for q in (2, 3)]
    got = (_sha(homs), _sha(tvs), _sha(subs[0]), _sha(subs[1]))
    assert got == BRUTE_FORCE_DIGESTS[(letter, n, orient)]


def _all_ints(obj):
    """Whether every leaf of the nested lists and tuples obj is an int."""
    if isinstance(obj, (list, tuple)):
        return all(map(_all_ints, obj))
    return type(obj) is int


def test_construction_makes_no_fraction():
    # the AR knitting, PathAlg's Hom spaces and module realizations,
    # sigma's rank check and reduce_for_counting in the brute-force T_v
    # sets eliminate in ints only, in both D4 orientations, and give ints;
    # that no module imports fractions is a lint (test_hygiene.py)
    for s in (System("D", 4), System("D", 4, D4_MINIMAL)):
        ar = arpresent.knit_rep_ar(s.quiver)
        assert ar == s.ar and _all_ints([m.dim for m in ar.modules])
        iq = s.ice()
        alg = pathalg.PathAlg(iq)
        homs = [alg.hom_basis(p, p) for p in iq.vertices]
        assert all(h.dim == 1 for h in homs)
        assert _all_ints([h.basis for h in homs])
        assert _all_ints(arpresent.weight_configuration(iq))
        tv = cone.tv_strict_sets(iq, "bruteforce")
        assert _all_ints([sorted(vecs) for vecs in tv.values()])


@pytest.mark.parametrize("delta", [1, -1])
def test_wrong_hom_dimension_raises(delta):
    # a planted wrong entry of the catalog's Hom table, too high or too
    # low, is caught by the all-pairs comparison with the solved Hom spaces
    s = System("D", 4)
    cat = s.catalog
    M = next(p.module for p in cat.objects if p.kind == "module")
    cat.hom[M][M] += delta
    with pytest.raises(RuntimeError, match="solved dimension"):
        pathalg.PathAlg(s.ice())


@pytest.mark.parametrize("rows", [True, False],
                         ids=["with equation rows", "without equation rows"])
def test_missing_basis_vector_raises(rows, monkeypatch):
    # one basis vector too few in one solved Hom space is caught by the
    # all-pairs comparison with the catalog's dimensions, both for a pair
    # of modules whose commutativity equations cut the variables down and
    # for a pair into O_j^+, whose equations have no row
    alg = pathalg.PathAlg(System("D", 4).ice())
    objs = alg.cat.objects

    def variables(a, b):
        F, G = alg.shapes[a], alg.shapes[b]
        return (sum(len(F.plus_from[u]) for u in G.pm.plus) +
                sum(len(F.minus_from[u]) for u in G.pm.minus))

    if rows:
        # fewer solutions than variables: some equation row is nonzero
        a, b = next((a, b) for a, f in enumerate(objs)
                    for b, g in enumerate(objs)
                    if a != b and f.kind == g.kind == "module"
                    and 0 < len(alg.homs[a][b]) < variables(a, b))
    else:
        a, b = next((a, b) for a, f in enumerate(objs)
                    for b, g in enumerate(objs)
                    if a != b and g.kind == "positive" and alg.homs[a][b])
        assert not alg.shapes[b].pm.minus
    dim = len(alg.homs[a][b])
    target = (alg.shapes[a].pm, alg.shapes[b].pm)
    real = pathalg.PathAlg._solve_hom

    def planted(self, F, G):
        basis = real(self, F, G)
        return basis[:-1] if (F.pm, G.pm) == target else basis

    monkeypatch.setattr(pathalg.PathAlg, "_solve_hom", planted)
    want = "Hom(%s, %s): solved dimension %d, expected %d" % (
        objs[a].label, objs[b].label, dim - 1, dim)
    with pytest.raises(RuntimeError, match=re.escape(want)):
        pathalg.PathAlg(System("D", 4).ice())
