import os
import subprocess
import sys
import textwrap

import pytest

import arcones
from arcones import arpresent
from arcones.exact import rank
from arcones.system import System


def test_knit_a2():
    ar = System("A", 2).ar
    dims = {m.dim for m in ar.modules}
    assert dims == {(1, 1), (0, 1), (1, 0)}
    s1 = arpresent.Module((1, 0))
    assert ar.tau[s1] == arpresent.Module((0, 1))


def test_knit_a1():
    ar = System("A", 1).ar
    assert len(ar.modules) == 1
    assert not ar.tau


def test_knit_d4():
    ar = System("D", 4).ar
    assert len(ar.modules) == 12


def test_knit_g2():
    ar = System("G", 2).ar
    dims = {m.dim for m in ar.modules}
    assert dims == {(1, 1), (0, 1), (3, 2), (2, 1), (3, 1), (1, 0)}


@pytest.mark.parametrize("letter,n", [("A", 3), ("D", 4), ("B", 3), ("G", 2)])
def test_mesh_additivity(letter, n):
    ar = System(letter, n).ar
    for N, L in ar.tau.items():
        total = [-(x + y) for x, y in zip(L.dim, N.dim)]
        for (s, mid), (a, b) in ar.arrows.items():
            if s == L:
                total = [t + b * m for t, m in zip(total, mid.dim)]
        assert all(x == 0 for x in total)


def test_hom_table_a2():
    ar = System("A", 2).ar
    hom = arpresent.hom_dim_table(ar)
    p1, p2 = ar.projectives[1], ar.projectives[2]
    assert hom[p2][p1] == 1
    assert hom[p1][p2] == 0
    for m in ar.modules:
        assert hom[m][m] == 1


def test_hom_table_g2():
    ar = System("G", 2).ar
    hom = arpresent.hom_dim_table(ar)
    p1, p2 = ar.projectives[1], ar.projectives[2]
    assert hom[p2][p1] == 3
    assert hom[p2][p2] == 3
    assert hom[p1][p1] == 1


@pytest.mark.parametrize("letter,n", [("A", 2), ("A", 3), ("D", 4), ("B", 2)])
def test_hom_table_euler_validated(letter, n):
    # the Euler / AR-formula validation runs inside hom_dim_table
    ar = System(letter, n).ar
    arpresent.hom_dim_table(ar)


def test_catalog_a2():
    s = System("A", 2)
    ar, cat = s.ar, s.catalog
    assert len(cat.objects) == 7
    fs1 = cat.by_module[ar.simples[1]]
    assert cat.f_minus[fs1] == (1, 0)
    assert cat.f_plus[fs1] == (0, 1)
    # orbits: O_1^+ -> f(S1) -> O_2^-  and  O_2^+ -> O_1^-
    assert cat.orbit[fs1] == (1, 1)
    assert cat.orbits[1] == [cat.by_label["O1+"], fs1, cat.by_label["O2-"]]
    assert cat.orbits[2] == [cat.by_label["O2+"], cat.by_label["O1-"]]


def test_catalog_triple_weights():
    cat = System("A", 2).catalog
    assert cat.triple_weight(cat.by_label["Id1"]) == ((0, 0), (1, 0), (1, 0))
    assert cat.triple_weight(cat.by_label["O1+"]) == ((1, 0), (0, 0), (1, 0))
    # e(O_i^-) = e_{i*}; for A2 star swaps 1 and 2
    assert cat.e_vec[cat.by_label["O1-"]] == (0, 1)


def test_catalog_d4():
    cat = System("D", 4).catalog
    assert len(cat.objects) == 20
    assert sum(1 for p in cat.objects if p.kind == "module") == 8
    for i in range(1, 5):
        assert len(cat.orbits[i]) == 4  # every tau-orbit has length 4


def test_pi_permutation():
    cat = System("A", 2).catalog
    pi = cat.pi
    assert pi(cat.by_label["O1-"]) == cat.by_label["Id1"]
    assert pi(cat.by_label["Id1"]) == cat.by_label["O1+"]
    assert pi(cat.by_label["O1+"]) == cat.by_label["O2-"]
    # pi_inv really inverts pi
    for p in cat.objects:
        assert cat.pi_inv(pi(p)) == p
        assert pi(cat.pi_inv(p)) == p


def test_ice_quiver_a2():
    iq = System("A", 2).ice()
    assert len(iq.vertices) == 7
    assert len(iq.mutable) == 1
    assert iq.mutable[0].label == "f[1,0]"
    assert len(iq.bmat) == 1 and len(iq.bmat[0]) == 7


def test_ice_quiver_d4_counts():
    iq = System("D", 4).ice()
    assert len(iq.vertices) == 20
    assert len(iq.mutable) == 8
    assert rank(iq.bmat) == 8


@pytest.mark.parametrize("letter,n", [("A", 2), ("A", 3), ("D", 4), ("B", 2), ("G", 2)])
@pytest.mark.parametrize("variant", arpresent.VARIANTS)
def test_weight_configurations(letter, n, variant):
    iq = System(letter, n).ice(variant)
    assert rank(iq.bmat) == len(iq.mutable)
    sigma = arpresent.weight_configuration(iq)
    if variant in ("l", "r"):
        assert sigma is None
    else:
        assert len(sigma) == len(iq.vertices)


def test_sigma_q_row_is_alpha1():
    s = System("A", 2)
    ar, cat, iq = s.ar, s.catalog, s.ice("u")
    sigma = arpresent.weight_configuration(iq)
    fs1 = cat.by_module[ar.simples[1]]
    assert sigma[iq.vertices.index(fs1)] == [2, -1]


def test_sigma2_row_fs1():
    s = System("A", 2)
    ar, cat, iq = s.ar, s.catalog, s.ice()
    sigma = arpresent.weight_configuration(iq)
    fs1 = cat.by_module[ar.simples[1]]
    assert sigma[iq.vertices.index(fs1)] == [1, 0, 1, 0, 0, 1]


@pytest.mark.parametrize("letter,n", [("B", 2), ("G", 2), ("C", 3), ("F", 4)])
def test_skew_symmetrizable_valued(letter, n):
    iq = System(letter, n).ice()
    # a positive symmetrizer with D B skew-symmetric exists
    from fractions import Fraction

    b = iq.bmat_full
    m = len(b)
    d = [None] * m
    d[0] = Fraction(1)
    changed = True
    while changed:
        changed = False
        for i in range(m):
            for j in range(m):
                if b[i][j] and b[j][i] and d[i] is not None and d[j] is None:
                    d[j] = Fraction(d[i] * b[i][j], -b[j][i])
                    changed = True
    assert all(x is not None and x > 0 for x in d)
    for i in range(m):
        for j in range(m):
            assert d[i] * b[i][j] == -d[j] * b[j][i]


def test_euler_mismatch_raises():
    # a planted wrong valuation on one mesh arrow into a non-projective
    # module makes the recursion disagree with the Euler form
    ar = System("D", 4).ar
    key = next(k for k in ar.arrows if not ar.is_projective(k[1]))
    ar.arrows[key] = (1, 2)
    with pytest.raises(RuntimeError, match="Euler form mismatch"):
        arpresent.hom_dim_table(ar)


RANK_DEFICIENT_SIGMA = """
    import sys
    from arcones import arpresent
    from arcones.system import System
    iq = System("D", 4).ice()
    # f_+ planted equal to e: B . sigma stays 0, the rank drops to 2n
    iq.cat.f_plus = dict(iq.cat.e_vec)
    try:
        arpresent.weight_configuration(iq)
    except RuntimeError as exc:
        print(exc)
    else:
        sys.exit("rank-deficient sigma accepted")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "-O"])
def test_rank_deficient_sigma_raises(flags):
    src = os.path.dirname(os.path.dirname(os.path.abspath(arcones.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, *flags, "-c",
                          textwrap.dedent(RANK_DEFICIENT_SIGMA)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "not full rank 3n" in res.stdout


FRACTIONAL_DIMENSION = """
    import sys
    from arcones import arpresent, exact
    from arcones.rootdata import build_dynkin
    # E^-1 planted with denominator 2: the rows of D_Q Y are not divisible
    # by it, so P_i and I_i would have fractional dimensions
    real = exact.scaled_inverse
    arpresent.scaled_inverse = lambda a: (2, real(a)[1])
    try:
        arpresent.knit_rep_ar(build_dynkin("A", 3))
    except RuntimeError as exc:
        print(exc)
    else:
        sys.exit("fractional dimension vector accepted")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "-O"])
def test_fractional_dimension_raises(flags):
    src = os.path.dirname(os.path.dirname(os.path.abspath(arcones.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, *flags, "-c",
                          textwrap.dedent(FRACTIONAL_DIMENSION)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "non-integral dimension" in res.stdout
