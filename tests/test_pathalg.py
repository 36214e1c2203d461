import pytest

from arcones import pathalg
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
