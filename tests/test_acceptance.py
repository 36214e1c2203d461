"""End-to-end acceptance checks: structural fixtures, oracle equivalences,
mutation identities, and the documented worked examples, with time budgets."""

import itertools
import random
import time

import pytest

from arcones import cone, lieoracle, mutation
from arcones.system import System

D4_ORIENT = [(2, 1), (3, 2), (4, 2)]


@pytest.fixture(scope="module")
def systems():
    return {"A2": System("A", 2), "A3": System("A", 3),
            "D4": System("D", 4, D4_ORIENT)}


# -- A: D4 structural fixture ------------------------------------------------

def test_a_d4_structural_fixture():
    start = time.time()
    edges = [(1, 2), (3, 2), (4, 2)]
    match = None
    for bits in itertools.product((0, 1), repeat=3):
        arrows = [(j, i) if b else (i, j)
                  for (i, j), b in zip(edges, bits)]
        s = System("D", 4, arrows)
        sets, cat = s.tv_sets, s.catalog
        counts = (
            [len(sets[cat.by_label["O%d-" % i]]) for i in range(1, 5)],
            [len(sets[cat.by_label["O%d+" % i]]) for i in range(1, 5)],
            [len(sets[cat.by_label["Id%d" % i]]) for i in range(1, 5)])
        if counts == ([3, 3, 3, 3], [7, 6, 1, 1], [1, 2, 7, 7]):
            match = s
            break
    assert match is not None
    spec = match.cone()
    assert len(spec.columns) == 44
    assert len(cone.prune_redundant(spec).columns) == 44
    assert time.time() - start < 60


# -- B: tensor multiplicities vs the Brauer-Klimyk oracle --------------------

def _dominant(n, bound):
    return list(itertools.product(range(bound + 1), repeat=n))


def _tensor_cases(s, bound, rng):
    """(mu, nu, lam, oracle) rows: full oracle support plus 10 zeros each."""
    cd = s.cd
    n = s.rank
    for mu in _dominant(n, bound):
        for nu in _dominant(n, bound):
            dec = lieoracle.tensor_decomposition(cd, mu, nu)
            for lam, mult in dec.items():
                yield mu, nu, lam, mult
            zeros = 0
            while zeros < 10:
                lam = tuple(rng.randrange(2 * bound + 3) for _ in range(n))
                if lam in dec:
                    continue
                zeros += 1
                yield mu, nu, lam, 0


B_GRIDS = (("A2", 2), ("A3", 1), ("D4", 1))


def test_b_tensor_multiplicities(systems):
    start = time.time()
    rng = random.Random(7)
    for key, bound in B_GRIDS:
        s = systems[key]
        fam = s.family("full2")
        for mu, nu, lam, mult in _tensor_cases(s, bound, rng):
            got = fam.count(list(mu) + list(nu) + list(lam))
            assert got == mult, (key, mu, nu, lam, got, mult)
    assert time.time() - start < 600


# -- C: Kostant partition function -------------------------------------------

def test_c_kostant(systems):
    start = time.time()
    for key in ("A2", "A3"):
        s = systems[key]
        sig, fam = s.sigma("u"), s.family("u")
        cd = s.cd
        n = s.rank
        seen = set()
        for h in itertools.product(range(3), repeat=len(sig)):
            gamma = tuple(sum(hk * row[j]
                              for hk, row in zip(h, sig))
                          for j in range(n))
            seen.add(gamma)
        for gamma in sorted(seen):
            assert fam.count(gamma) == \
                lieoracle.kostant_partition(cd, gamma), (key, gamma)
    assert time.time() - start < 60


# -- D: weight multiplicities vs Freudenthal ---------------------------------

def test_d_weight_multiplicities(systems):
    start = time.time()
    for key, bound in B_GRIDS:
        s = systems[key]
        fam = s.family("sharp")
        cd = s.cd
        for mu in _dominant(s.rank, bound):
            for lam, mult in lieoracle.freudenthal(cd, mu).items():
                got = fam.count(list(mu) + list(lam))
                assert got == mult, (key, mu, lam, got, mult)
    assert time.time() - start < 300


# -- E: cyclic mutation identities -------------------------------------------

@pytest.mark.parametrize("key", ["A2", "A3", "D4"])
def test_e_mutation_identities(systems, key):
    report = mutation.verify_cyclic(systems[key].ice())
    assert report["all"], report


# -- F: F-polynomial subreps equal brute force -------------------------------

@pytest.mark.parametrize("key", ["A2", "A3", "D4"])
def test_f_fpoly_equals_bruteforce(systems, key):
    iq = systems[key].ice()
    sets = systems[key].tv_bruteforce
    assert sets == cone.tv_strict_sets(iq, "fpoly")
    assert all(sets[v] for v in iq.vertices if iq.frozen[v])


# -- G: the count-one family -------------------------------------------------

@pytest.mark.parametrize("key", ["A3", "D4"])
def test_g_count_one_family(systems, key):
    iq = systems[key].ice()
    fam = systems[key].family("full2")
    for v in iq.vertices:
        e, fm, fp = iq.cat.triple_weight(v)
        assert fam.count(list(e) + list(fm) + list(fp)) == 1, v.label


# -- H: the D4 containment example -------------------------------------------

def _exp_label(cat, v):
    fm, fp = cat.f_minus[v], cat.f_plus[v]
    a = "".join(str(i + 1) * fm[i] for i in range(cat.n)) or "0"
    b = "".join(str(i + 1) * fp[i] for i in range(cat.n)) or "0"
    return a + "," + b


def test_h_d4_containment_example(systems):
    s = systems["D4"]
    iq, spec, sig, fam = s.ice(), s.cone(), s.sigma(), s.family()
    e2 = [0, 1, 0, 0]
    assert fam.count(e2 * 3) == 1
    labels = {_exp_label(iq.cat, v): v for v in iq.vertices}
    g = [0] * len(iq.vertices)
    g[iq.index[labels["34,12"]]] = 1
    g[iq.index[labels["34,1"]]] = -1
    g[iq.index[labels["2,0"]]] = 1
    for h in spec.rows():
        assert sum(gi * hi for gi, hi in zip(g, h)) >= 0
    weight = [sum(g[k] * sig[k][j] for k in range(len(g)))
              for j in range(12)]
    assert weight == e2 * 3


# -- I: LR rule agrees with Brauer-Klimyk ------------------------------------

def test_i_lr_equals_tensor(systems):
    rng = random.Random(7)
    for key, bound in (("A2", 2), ("A3", 1)):
        s = systems[key]
        for mu, nu, lam, mult in _tensor_cases(s, bound, rng):
            assert lieoracle.lr_from_weights(s.rank, mu, nu, lam) == mult, \
                (key, mu, nu, lam)
