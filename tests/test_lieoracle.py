import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcones import lieoracle, rootdata


def cd(letter, rank):
    return rootdata.cartan_data(rootdata.build_dynkin(letter, rank))


A2 = cd("A", 2)
A3 = cd("A", 3)
D4 = cd("D", 4)
G2 = cd("G", 2)


def test_weyl_dimension_a2():
    assert lieoracle.weyl_dimension(A2, (1, 0)) == 3
    assert lieoracle.weyl_dimension(A2, (1, 1)) == 8
    assert lieoracle.weyl_dimension(A2, (0, 0)) == 1


def test_weyl_dimension_misc():
    assert lieoracle.weyl_dimension(D4, (1, 0, 0, 0)) == 8
    assert lieoracle.weyl_dimension(D4, (0, 1, 0, 0)) == 28  # adjoint
    assert lieoracle.weyl_dimension(G2, (1, 0)) == 7
    assert lieoracle.weyl_dimension(G2, (0, 1)) == 14


def test_freudenthal_adjoint_a2():
    m = lieoracle.freudenthal(A2, (1, 1))
    assert m[(0, 0)] == 2
    assert sum(m.values()) == 8
    assert m[(1, 1)] == 1


def test_freudenthal_minuscule():
    m = lieoracle.freudenthal(A2, (1, 0))
    assert sum(m.values()) == 3
    assert set(m.values()) == {1}


def test_freudenthal_trivial():
    assert lieoracle.freudenthal(D4, (0, 0, 0, 0)) == {(0, 0, 0, 0): 1}


def test_freudenthal_g2():
    m = lieoracle.freudenthal(G2, (0, 1))  # adjoint of G2
    assert sum(m.values()) == 14
    assert m[(0, 0)] == 2


def test_tensor_a2_basics():
    assert lieoracle.tensor_multiplicity(A2, (1, 0), (0, 1), (1, 1)) == 1
    assert lieoracle.tensor_multiplicity(A2, (1, 0), (0, 1), (0, 0)) == 1
    assert lieoracle.tensor_multiplicity(A2, (1, 1), (1, 1), (1, 1)) == 2


def test_tensor_decomposition_dimension():
    dec = lieoracle.tensor_decomposition(A2, (1, 1), (1, 1))
    assert dec[(1, 1)] == 2
    assert dec[(2, 2)] == 1
    assert dec[(0, 0)] == 1


@pytest.mark.parametrize("c", [A2, A3, D4])
def test_cartan_component_rule(c):
    n = c.Q.n
    for mu in itertools.product(range(2), repeat=n):
        nu = tuple(reversed(mu))
        lam = tuple(a + b for a, b in zip(mu, nu))
        assert lieoracle.tensor_multiplicity(c, mu, nu, lam) == 1


@given(st.tuples(st.integers(0, 2), st.integers(0, 2)),
       st.tuples(st.integers(0, 2), st.integers(0, 2)))
@settings(max_examples=20, deadline=None)
def test_tensor_symmetry_a2(mu, nu):
    dec1 = lieoracle.tensor_decomposition(A2, mu, nu)
    dec2 = lieoracle.tensor_decomposition(A2, nu, mu)
    assert dec1 == dec2


def test_lr_basics():
    assert lieoracle.lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lieoracle.lr_coefficient((1,), (1,), (2,)) == 1
    assert lieoracle.lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert lieoracle.lr_coefficient((2,), (1,), (1, 1, 1)) == 0  # c not >= a


def test_lr_weight_dictionary():
    assert lieoracle.weight_to_partition(2, (1, 1)) == (2, 1, 0)
    assert lieoracle.lr_from_weights(2, (1, 0), (0, 1), (1, 1)) == 1
    assert lieoracle.lr_from_weights(2, (1, 0), (0, 1), (0, 0)) == 1
    assert lieoracle.lr_from_weights(2, (1, 1), (1, 1), (1, 1)) == 2


@pytest.mark.parametrize("n,c", [(2, A2), (3, A3)])
def test_lr_matches_brauer_klimyk(n, c):
    for mu in itertools.product(range(2), repeat=n):
        for nu in itertools.product(range(2), repeat=n):
            for lam, mult in lieoracle.tensor_decomposition(c, mu, nu).items():
                assert lieoracle.lr_from_weights(n, mu, nu, lam) == mult
