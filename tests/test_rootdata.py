import pytest

from arcones import rootdata
from arcones.exact import mat_mul


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


@pytest.mark.parametrize("letter,rank,order", [
    ("A", 1, 2), ("A", 2, 6), ("A", 3, 24), ("B", 2, 8),
    ("D", 4, 192), ("G", 2, 12),
])
def test_weyl_group_orders(letter, rank, order):
    cd = rootdata.cartan_data(rootdata.build_dynkin(letter, rank))
    W = rootdata.weyl_group(cd)
    assert len(W.elements) == order


@pytest.mark.parametrize("letter,rank", [
    ("A", 2), ("A", 3), ("B", 2), ("D", 4), ("D", 5), ("G", 2),
])
def test_star_matches_w0(letter, rank):
    cd = rootdata.cartan_data(rootdata.build_dynkin(letter, rank))
    W = rootdata.weyl_group(cd)
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
