from dataclasses import dataclass
from math import factorial, gcd

import pytest

from arcones import rootdata
from arcones.exact import mat_mul, vec_mat


ALL_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 5),
    ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("D", 5),
    ("E", 6), ("E", 7), ("F", 4), ("G", 2),
]


def test_g2_anchor():
    Q = rootdata.build_dynkin("G", 2, [(1, 2)])
    assert Q.valuation[(1, 2)] == (3, 1)
    assert Q.d == (1, 3)
    cd = rootdata.cartan_data(Q)
    assert cd.cartan == [[2, -1], [-3, 2]]
    assert cd.E_l == [[1, -1], [0, 1]]
    assert cd.E_r == [[1, -3], [0, 1]]
    assert cd.euler == [[1, -3], [0, 3]]
    assert not Q.trivially_valued


def test_b2_valuation():
    Q = rootdata.build_dynkin("B", 2)
    cd = rootdata.cartan_data(Q)
    assert cd.cartan == [[2, -2], [-1, 2]]
    assert Q.d == (2, 1)


@pytest.mark.parametrize("letter,rank", ALL_TYPES)
def test_cartan_symmetrizable(letter, rank):
    Q = rootdata.build_dynkin(letter, rank)
    cd = rootdata.cartan_data(Q)
    cd_sym = mat_mul(cd.cartan, cd.D)
    assert cd_sym == [list(col) for col in zip(*cd_sym)]
    # the symmetrizer is made of positive ints, and minimal
    assert all(type(x) is int and x > 0 for x in Q.d)
    assert gcd(*Q.d) == 1
    # Euler identity E(Q) = E_l D = D E_r is asserted inside cartan_data.


@pytest.mark.parametrize("letter,rank", ALL_TYPES)
def test_positive_root_counts(letter, rank):
    cd = rootdata.cartan_data(rootdata.build_dynkin(letter, rank))
    pos = rootdata.positive_roots(cd)
    assert len(pos) == rootdata.NUM_POS_ROOTS[letter](rank)
    # fw coords consistent with alpha coords
    for k, fw in pos:
        assert list(fw) == [
            sum(k[j] * cd.cartan[j][i] for j in range(rank)) for i in range(rank)
        ]


def test_d4_highest_root():
    cd = rootdata.cartan_data(rootdata.build_dynkin("D", 4))
    pos = [k for k, _ in rootdata.positive_roots(cd)]
    high = max(pos, key=sum)
    assert high == (1, 2, 1, 1)  # coefficient 2 at the branch vertex 2


# The Weyl group, generated as a check of the group orders and of
# rootdata.star_involution, which does without it

WEYL_ORDERS = {
    "A": lambda n: factorial(n + 1),
    "B": lambda n: 2 ** n * factorial(n),
    "C": lambda n: 2 ** n * factorial(n),
    "D": lambda n: 2 ** (n - 1) * factorial(n),
    "E": lambda n: {6: 51840, 7: 2903040, 8: 696729600}[n],
    "F": lambda n: 1152,
    "G": lambda n: 12,
}

# largest Weyl group weyl_group generates before giving up
WEYL_CAP = 10 ** 6


def alpha_row(cartan, i):
    """Simple root alpha_i as a row vector in fundamental-weight coordinates."""
    return list(cartan[i - 1])


def reflection_matrix(cartan, i):
    """Matrix of s_i acting on weight row vectors by right multiplication."""
    n = len(cartan)
    s = [[1 if k == j else 0 for j in range(n)] for k in range(n)]
    for j in range(n):
        s[i - 1][j] -= cartan[i - 1][j]
    return s


@dataclass
class WeylGroup:
    elements: list          # matrices acting on row vectors from the right
    star: dict              # i -> i*, from the longest element w0


def weyl_group(cd):
    """Generate the full Weyl group by BFS over simple reflections."""
    cart = cd.cartan
    n = len(cart)
    gens = [reflection_matrix(cart, i) for i in range(1, n + 1)]
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    seen = {ident: 0}
    order = [ident]
    frontier = [ident]
    while frontier:
        new = []
        for w in frontier:
            for s in gens:
                m = tuple(tuple(r) for r in mat_mul([list(r) for r in w], s))
                if m not in seen:
                    seen[m] = seen[w] + 1
                    order.append(m)
                    new.append(m)
                    if len(order) > WEYL_CAP:
                        raise ValueError("Weyl group cap exceeded")
        frontier = new
    expected = WEYL_ORDERS[cd.Q.letter](n)
    if len(order) != expected:
        raise RuntimeError("Weyl group order %d != %d" % (len(order), expected))
    maxlen = max(seen.values())
    longest = [w for w, l in seen.items() if l == maxlen]
    if len(longest) != 1:
        raise RuntimeError("longest element is not unique")
    w0mat = [list(r) for r in longest[0]]
    star = {}
    for i in range(1, n + 1):
        img = vec_mat(alpha_row(cart, i), w0mat)
        neg = [-x for x in img]
        for j in range(1, n + 1):
            if neg == alpha_row(cart, j):
                star[i] = j
                break
        else:
            raise RuntimeError("w0 does not permute simple roots up to sign")
    return WeylGroup([[list(r) for r in w] for w in order], star)


@pytest.mark.parametrize("letter,rank,order", [
    ("A", 1, 2), ("A", 2, 6), ("A", 3, 24), ("B", 2, 8),
    ("D", 4, 192), ("G", 2, 12),
])
def test_weyl_group_orders(letter, rank, order):
    cd = rootdata.cartan_data(rootdata.build_dynkin(letter, rank))
    W = weyl_group(cd)
    assert len(W.elements) == order


@pytest.mark.parametrize("letter,rank", [
    ("A", 2), ("A", 3), ("B", 2), ("D", 4), ("D", 5), ("G", 2),
])
def test_star_matches_w0(letter, rank):
    cd = rootdata.cartan_data(rootdata.build_dynkin(letter, rank))
    W = weyl_group(cd)
    assert W.star == rootdata.star_involution(cd)


def test_star_table():
    cd = rootdata.cartan_data(rootdata.build_dynkin("A", 3))
    assert rootdata.star_involution(cd) == {1: 3, 2: 2, 3: 1}
    cd = rootdata.cartan_data(rootdata.build_dynkin("D", 5))
    assert rootdata.star_involution(cd) == {1: 1, 2: 2, 3: 3, 4: 5, 5: 4}
    cd = rootdata.cartan_data(rootdata.build_dynkin("E", 6))
    assert rootdata.star_involution(cd) == {1: 6, 2: 2, 3: 5, 4: 4, 5: 3, 6: 1}


def test_default_orientations():
    Q = rootdata.build_dynkin("A", 3)
    assert Q.arrows == ((1, 2), (2, 3))
    Q = rootdata.build_dynkin("D", 4)
    assert set(Q.arrows) == {(1, 2), (3, 2), (4, 2)}
    Q = rootdata.build_dynkin("D", 5)
    assert set(Q.arrows) == {(1, 2), (2, 3), (4, 3), (5, 3)}
    Q = rootdata.build_dynkin("E", 6)
    assert set(Q.arrows) == {(1, 3), (3, 4), (2, 4), (6, 5), (5, 4)}


def test_bad_orientation_rejected():
    with pytest.raises(ValueError):
        rootdata.build_dynkin("A", 3, [(1, 2)])
    with pytest.raises(ValueError):
        rootdata.build_dynkin("A", 3, [(1, 2), (1, 3)])


def test_topological_order():
    Q = rootdata.build_dynkin("A", 3, [(2, 1), (2, 3)])
    order = Q.topological_order()
    assert order.index(2) < order.index(1)
    assert order.index(2) < order.index(3)
