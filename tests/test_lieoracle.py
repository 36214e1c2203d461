import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcones import exact, lieoracle, rootdata


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


def test_non_dominant_weights_rejected():
    # each entry point checks its own arguments before any work
    with pytest.raises(ValueError, match="mu and nu must be dominant"):
        lieoracle.tensor_decomposition(A2, (0, -3), (1, 0))
    with pytest.raises(ValueError, match="mu and nu must be dominant"):
        lieoracle.tensor_decomposition(A2, (1, 0), (0, -3))
    with pytest.raises(ValueError, match="mu must be dominant"):
        lieoracle.weyl_dimension(A2, (-3, 0))
    with pytest.raises(ValueError, match="all three weights must be dominant"):
        lieoracle.tensor_multiplicity(A2, (1, 0), (1, 0), (-1, 2))


def _fundamentals(rank):
    """0 and the fundamental weights."""
    return [tuple(int(j == i) for j in range(rank)) for i in range(-1, rank)]


def _grid(rank, box, even=False):
    """Pairs mu <= nu in {0..box}^rank; with even, of even total weight."""
    doms = itertools.product(range(box + 1), repeat=rank)
    return [(mu, nu) for mu, nu in
            itertools.combinations_with_replacement(doms, 2)
            if not even or (sum(mu) + sum(nu)) % 2 == 0]


def _decomposition_digest(c, pairs):
    """sha256 of every decomposition, its components in dict order."""
    data = [[list(mu), list(nu),
             [[list(lam), m] for lam, m in
              lieoracle.tensor_decomposition(c, mu, nu).items()]]
            for mu, nu in pairs]
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


# digests of the Fraction implementation the integer forms replaced; D4 is
# the 72 pairs of the grid-d4 benchmark workload, and B3, C3, G2 and F4
# cover a symmetrizer d other than (1, ..., 1)
PINNED = {
    "D4": (D4, _grid(4, 1, even=True), 72,
           "8a932e504a78b24e772c30edc282e8f6e9399d84ccade39c085b97b555765505"),
    "B3": (cd("B", 3), _grid(3, 1), 36,
           "18cde4ba798c5c65a325b7849e556b8fc5cfe1375834912ca616c5cf5de2efda"),
    "C3": (cd("C", 3), _grid(3, 1), 36,
           "0e7e777af31f5a96855829a52b0413716f78f3d520c55de4172f8934778e6029"),
    "G2": (G2, _grid(2, 2), 45,
           "3662316daf2b3d521850172b8bb7a9762dbeb3b6d6ac65156f298c25678d3349"),
    "F4": (cd("F", 4),
           list(itertools.combinations_with_replacement(_fundamentals(4), 2)),
           15,
           "fec8beadf82a3a107af0dc8c5fc471c99ef4854cd3dceb9dc81ea178e969c8bc"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_tensor_decomposition_pinned(name):
    c, pairs, size, digest = PINNED[name]
    assert len(pairs) == size
    assert _decomposition_digest(c, pairs) == digest


def test_oracle_uses_no_fraction(monkeypatch):
    # the forms are built once per Cartan datum; after that, Freudenthal,
    # Weyl's formula and Brauer-Klimyk run in ints only
    monkeypatch.setattr(lieoracle, "_memo", {})
    forms = lieoracle._forms(D4)
    assert type(forms.den) is int
    assert all(type(x) is int for row in forms.gram for x in row)
    assert all(type(x) is int for _, r in forms.roots for x in r)
    assert all(type(x) is int for x in forms.height)
    assert not hasattr(lieoracle, "Fraction")

    def no_fraction(*_args):
        raise AssertionError("Fraction on the oracle's per-call path")

    monkeypatch.setattr(exact, "Fraction", no_fraction)
    monkeypatch.setattr(rootdata, "Fraction", no_fraction)
    c, pairs, _, digest = PINNED["D4"]
    assert _decomposition_digest(c, pairs) == digest


def test_oracle_checks_fire(monkeypatch):
    # every RuntimeError of the oracle fires on a planted inconsistency
    real_freudenthal = lieoracle.freudenthal
    real_saturation = lieoracle._weight_saturation
    monkeypatch.setattr(lieoracle, "_memo", {})
    key = ("forms", "A", 2)
    forms = lieoracle._forms(A2)
    # one root form, whose product 5 does not divide by 3 at mu = (1, 0)
    lieoracle._memo[key] = forms._replace(roots=(((1, 1), (2, 1)),))
    with pytest.raises(RuntimeError, match="not an integer"):
        lieoracle.weyl_dimension(A2, (1, 0))
    lieoracle._memo[key] = forms
    # a weight below every other: no term feeds its multiplicity
    monkeypatch.setattr(lieoracle, "_weight_saturation",
                        lambda c, mu: real_saturation(c, mu) | {(-5, -5)})
    with pytest.raises(RuntimeError, match="multiplicity 0/"):
        lieoracle.freudenthal(A2, (1, 0))
    monkeypatch.setattr(lieoracle, "_weight_saturation", real_saturation)
    monkeypatch.setattr(lieoracle, "weyl_dimension", lambda c, mu: 4)
    with pytest.raises(RuntimeError, match="do not add up to its dimension"):
        lieoracle.freudenthal(A2, (1, 0))
    monkeypatch.undo()
    monkeypatch.setattr(lieoracle, "freudenthal", lambda c, nu: {(1, 0): -1})
    with pytest.raises(RuntimeError, match="negative multiplicity"):
        lieoracle.tensor_decomposition(A2, (0, 0), (1, 0))
    monkeypatch.setattr(lieoracle, "freudenthal",
                        lambda c, nu: {**real_freudenthal(c, nu), (1, 0): 2})
    with pytest.raises(RuntimeError, match="do not add up"):
        lieoracle.tensor_decomposition(A2, (0, 0), (1, 0))
