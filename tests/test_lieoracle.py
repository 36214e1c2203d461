import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import textwrap

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
E6 = cd("E", 6)


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


def _reference_freudenthal(c, mu):
    """Freudenthal's recursion over every weight of L(mu), the route the
    dominant-chamber recursion replaced: close mu under lam -> lam - k
    alpha_i for 0 < k <= lam_i, then run the recursion on each weight in
    order of depth below mu, reading m(lam + k alpha) at lam + k alpha
    itself."""
    cart, n = c.cartan, c.Q.n
    seen = {tuple(mu)}
    queue = [tuple(mu)]
    while queue:
        w = queue.pop()
        for i in range(n):
            for k in range(1, w[i] + 1):
                w2 = tuple(w[j] - k * cart[i][j] for j in range(n))
                if w2 not in seen:
                    seen.add(w2)
                    queue.append(w2)
    forms = lieoracle._forms(c)

    def norm(v):
        return exact.dot(exact.vec_mat(v, forms.gram), v)

    mult = {tuple(mu): 1}
    c_mu = norm([m + 1 for m in mu])
    for lam in sorted(seen, key=lambda w: -exact.dot(forms.height, w)):
        if lam == tuple(mu):
            continue
        acc = 0
        for alpha, r in forms.roots:
            up = tuple(l + a for l, a in zip(lam, alpha))
            while up in seen:
                acc += mult[up] * exact.dot(r, up)
                up = tuple(u + a for u, a in zip(up, alpha))
        m, rem = divmod(2 * acc, c_mu - norm([l + 1 for l in lam]))
        assert rem == 0 and m > 0, (lam, mu)
        mult[lam] = m
    assert sum(mult.values()) == lieoracle.weyl_dimension(c, mu)
    return mult


REFERENCE_TYPES = [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 3),
                   ("C", 3), ("G", 2), ("D", 4), ("D", 5), ("F", 4),
                   ("E", 6)]


@pytest.mark.parametrize("letter,rank", REFERENCE_TYPES,
                         ids=["%s%d" % t for t in REFERENCE_TYPES])
def test_freudenthal_matches_reference_fundamentals(letter, rank):
    c = cd(letter, rank)
    for mu in _fundamentals(rank):
        assert lieoracle.freudenthal(c, mu) == _reference_freudenthal(c, mu)


@pytest.mark.parametrize("letter,rank",
                         [t for t in REFERENCE_TYPES if t[1] <= 4],
                         ids=["%s%d" % t for t in REFERENCE_TYPES
                              if t[1] <= 4])
def test_freudenthal_matches_reference_rho(letter, rank):
    c = cd(letter, rank)
    rho = (1,) * rank
    assert lieoracle.freudenthal(c, rho) == _reference_freudenthal(c, rho)


SMALL = {"A2": A2, "A3": A3, "B3": cd("B", 3), "C3": cd("C", 3), "G2": G2,
         "D4": D4}


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_freudenthal_matches_reference_small(data):
    name = data.draw(st.sampled_from(sorted(SMALL)))
    c = SMALL[name]
    rank = c.Q.n
    # entries up to 3 on rank 2 and up to 1 beyond, summing to at most 3:
    # the reference walks every weight, so keep L(mu) small
    top = 3 if rank == 2 else 1
    mu = data.draw(st.tuples(*[st.integers(0, top)] * rank)
                   .filter(lambda w: sum(w) <= 3))
    assert lieoracle.freudenthal(c, mu) == _reference_freudenthal(c, mu)


@pytest.mark.parametrize("name", sorted(SMALL) + ["E6"])
def test_freudenthal_w_invariant(name):
    # every simple reflection maps the weights of L(mu) onto themselves,
    # multiplicities included
    c = SMALL.get(name, E6)
    rank = c.Q.n
    weights = _fundamentals(rank) + ([(1,) * rank] if rank <= 4 else [])
    for mu in weights:
        mult = lieoracle.freudenthal(c, mu)
        for w, m in mult.items():
            for i in range(rank):
                image = tuple(w[j] - w[i] * c.cartan[i][j]
                              for j in range(rank))
                assert mult.get(image) == m, (mu, w, i)


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
    assert list(dec1.items()) == list(dec2.items())


def test_tensor_decomposition_sums_over_smaller_factor(monkeypatch):
    # only the weights of L(omega_1), dimension 8, are listed, never the
    # 4096-dimensional L(rho), whichever factor comes first
    real = lieoracle.freudenthal
    listed = []
    monkeypatch.setattr(lieoracle, "freudenthal",
                        lambda c, mu: listed.append(mu) or real(c, mu))
    rho, w1 = (1, 1, 1, 1), (1, 0, 0, 0)
    assert lieoracle.tensor_decomposition(D4, rho, w1) == \
        lieoracle.tensor_decomposition(D4, w1, rho)
    assert listed == [w1, w1]


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


def _height(c, lam):
    """den times the height of lam, from the simple-root coordinates
    lam . C^-1 (c.Q.d scales the Gram matrix, so divide it back out)."""
    forms = lieoracle._forms(c)
    coords = exact.vec_mat(lam, forms.gram)
    return sum(x // d for x, d in zip(coords, c.Q.d))


def _canonical_key(c):
    return lambda lam: (-_height(c, lam), lam)


# digests of the Fraction implementation the integer forms replaced, with
# each decomposition's components sorted into the canonical order; D4 is
# the 72 pairs of the grid-d4 benchmark workload, B3, C3, G2 and F4 cover
# a symmetrizer d other than (1, ..., 1), and E6 is every ordered pair
# from {0, omega_1, ..., omega_6}
PINNED = {
    "D4": (D4, _grid(4, 1, even=True), 72,
           "435324b3f6034a5c1d6dc0b01f312f8d75593b945906cdec332a0616accaa480"),
    "B3": (cd("B", 3), _grid(3, 1), 36,
           "6e6bfe442d62935ab9efc1a7951c331ee259d65de0acfaf927aedd24b8c76b6c"),
    "C3": (cd("C", 3), _grid(3, 1), 36,
           "3763a71d440713c064fd939079cd9f16db2fb17b97939046a2180c8992497033"),
    "G2": (G2, _grid(2, 2), 45,
           "960a937351a8504fc6577a0a6397457670a2024cf3c51082fdb8bf565fb0f422"),
    "F4": (cd("F", 4),
           list(itertools.combinations_with_replacement(_fundamentals(4), 2)),
           15,
           "136450418e899edd2abde76e6972218d393388f3c28d85a5a40e730e2c83d006"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_tensor_decomposition_pinned(name):
    c, pairs, size, digest = PINNED[name]
    assert len(pairs) == size
    assert _decomposition_digest(c, pairs) == digest
    # the components come in decreasing height, ties broken by lam
    key = _canonical_key(c)
    for mu, nu in pairs:
        lams = list(lieoracle.tensor_decomposition(c, mu, nu))
        assert lams == sorted(lams, key=key), (mu, nu)


def test_tensor_decomposition_pinned_e6():
    # the 49 decompositions of the scale test's pairs, in canonical order
    pairs = list(itertools.product(_fundamentals(6), repeat=2))
    assert len(pairs) == 49
    assert _decomposition_digest(E6, pairs) == \
        "689910ad109933e11999ec52c3b03cebd09b1073f763de40a1202e09b5441a4c"


@pytest.mark.parametrize("c", [A3, cd("B", 3), G2, D4], ids=["A3", "B3",
                                                              "G2", "D4"])
def test_tensor_decomposition_symmetric_in_value_and_order(c):
    # L(mu) (x) L(nu) is summed over the smaller factor, whichever it is,
    # and the components are sorted, so swapping the factors changes nothing
    rank = c.Q.n
    weights = _fundamentals(rank) + [(1,) * rank]
    for mu, nu in itertools.combinations(weights, 2):
        one = lieoracle.tensor_decomposition(c, mu, nu)
        other = lieoracle.tensor_decomposition(c, nu, mu)
        assert list(one.items()) == list(other.items()), (mu, nu)


def test_oracle_uses_no_fraction(monkeypatch):
    # the forms are built once per Cartan datum; after that, Freudenthal,
    # Weyl's formula and Brauer-Klimyk run in ints only; that no module
    # imports fractions is a lint (test_hygiene.py)
    monkeypatch.setattr(lieoracle, "_memo", {})
    forms = lieoracle._forms(D4)
    assert type(forms.den) is int
    assert all(type(x) is int for row in forms.gram for x in row)
    assert all(type(x) is int for _, r in forms.roots for x in r)
    assert all(type(x) is int for x in forms.height)
    c, pairs, _, digest = PINNED["D4"]
    assert _decomposition_digest(c, pairs) == digest


def _plant_weyl_not_integer(patch):
    # one root form, whose product 5 does not divide by 3 at mu = (1, 0)
    forms = lieoracle._forms(A2)
    lieoracle._memo[("forms", "A", 2)] = \
        forms._replace(roots=(((1, 1), (2, 1)),))
    lieoracle.weyl_dimension(A2, (1, 0))


def _plant_zero_multiplicity(patch):
    # a dominant weight that is no weight of L(1, 0), enumerated last: no
    # term feeds its multiplicity
    real = lieoracle._dominant_weights
    patch(lieoracle, "_dominant_weights", lambda c, mu: real(c, mu) + [(0, 0)])
    lieoracle.freudenthal(A2, (1, 0))


def _plant_out_of_order(patch):
    # the dominant weights (3, 0), (1, 1), (0, 0) of L(3, 0) lowest first:
    # (0, 0) + alpha_1 + alpha_2 = (1, 1) is read before it is computed
    real = lieoracle._dominant_weights
    patch(lieoracle, "_dominant_weights", lambda c, mu: real(c, mu)[::-1])
    lieoracle.freudenthal(A2, (3, 0))


def _plant_dimension(patch):
    patch(lieoracle, "weyl_dimension", lambda c, mu: 4)
    lieoracle.freudenthal(A2, (1, 0))


def _plant_negative(patch):
    patch(lieoracle, "freudenthal", lambda c, nu: {(1, 0): -1})
    lieoracle.tensor_decomposition(A2, (0, 0), (1, 0))


def _plant_extra_weight(patch):
    real = lieoracle.freudenthal
    patch(lieoracle, "freudenthal",
          lambda c, nu: {**real(c, nu), (1, 0): 2})
    lieoracle.tensor_decomposition(A2, (0, 0), (1, 0))


# each of the oracle's RuntimeError checks, with the fault that fires it
PLANTED = [
    ("not an integer", _plant_weyl_not_integer),
    ("multiplicity 0/", _plant_zero_multiplicity),
    ("read before it is computed", _plant_out_of_order),
    ("do not add up to its dimension", _plant_dimension),
    ("negative multiplicity", _plant_negative),
    ("dimensions of .* do not add up", _plant_extra_weight),
]


def _fire(plant):
    """Run one planted fault on a fresh memo and undo it; the message of
    the RuntimeError it raised, or None."""
    undo = []

    def patch(obj, name, value):
        undo.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    patch(lieoracle, "_memo", {})
    try:
        plant(patch)
    except RuntimeError as exc:
        return str(exc)
    finally:
        for obj, name, value in reversed(undo):
            setattr(obj, name, value)
    return None


def test_oracle_checks_fire():
    # every RuntimeError of the oracle fires on a planted inconsistency
    for match, plant in PLANTED:
        message = _fire(plant)
        assert message is not None and re.search(match, message), \
            (plant.__name__, message)


def test_oracle_checks_survive_python_O():
    # the checks are raises, not asserts
    script = textwrap.dedent("""
        import re, sys
        if __debug__:
            sys.exit("not running under -O")
        import test_lieoracle as t
        for match, plant in t.PLANTED:
            message = t._fire(plant)
            if message is None or not re.search(match, message):
                sys.exit("%s: %r" % (plant.__name__, message))
            print(plant.__name__)
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        lieoracle.__file__)))
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    res = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.split() == [plant.__name__ for _, plant in PLANTED]
