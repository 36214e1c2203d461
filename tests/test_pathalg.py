import hashlib
import json

import pytest

from arcones import arpresent, cone, exact, pathalg
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
}


@pytest.mark.parametrize("letter,n,orient", list(BRUTE_FORCE_DIGESTS),
                         ids=["A4", "D4", "D4 2>1,3>2,4>2"])
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


def test_construction_makes_no_fraction(monkeypatch):
    # the AR knitting, PathAlg's Hom spaces and module realizations,
    # sigma's rank check and reduce_for_counting in the brute-force T_v
    # sets eliminate in ints only, in both D4 orientations
    systems = [System("D", 4), System("D", 4, D4_MINIMAL)]
    want = [(s.ar, arpresent.weight_configuration(s.ice()),
             cone.tv_strict_sets(s.ice(), "bruteforce")) for s in systems]
    assert not hasattr(pathalg, "Fraction")

    def no_fraction(*_args):
        raise AssertionError("Fraction in the construction")

    monkeypatch.setattr(exact, "Fraction", no_fraction)
    for s, (ar, sigma, tv) in zip(systems, want):
        iq = s.ice()
        assert arpresent.knit_rep_ar(s.quiver) == ar
        alg = pathalg.PathAlg(iq)
        assert all(alg.hom_basis(p, p).dim == 1 for p in iq.vertices)
        assert arpresent.weight_configuration(iq) == sigma
        assert cone.tv_strict_sets(iq, "bruteforce") == tv


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
