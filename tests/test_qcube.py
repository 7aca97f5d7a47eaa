import pytest

from setpack import qcube
from setpack import (
    CubeEdgeSet,
    enumerate_squares,
    inversion_assisted_blocking,
    is_square_blocking,
    recursive_blocking_set,
)
from setpack.qcube import (
    _min_vertex_cover,
    all_edges,
    direction_collection,
    parse_cube_edges,
    serialize_cube_edges,
    square_edges,
)

from oracles import naive_square_count


def test_square_counts():
    assert sum(1 for _ in enumerate_squares(2)) == 1
    assert sum(1 for _ in enumerate_squares(3)) == 6
    assert sum(1 for _ in enumerate_squares(4)) == 24
    for n in range(2, 6):
        formula = n * (n - 1) // 2 * (1 << (n - 2))
        assert sum(1 for _ in enumerate_squares(n)) == formula
        assert naive_square_count(n) == formula


def test_squares_are_squares():
    for base, i, j in enumerate_squares(4):
        edges = square_edges(base, i, j)
        assert len(set(edges)) == 4
        verts = {base, base ^ (1 << i), base ^ (1 << j), base ^ (1 << i) ^ (1 << j)}
        for v, d in edges:
            assert v in verts and (v ^ (1 << d)) in verts


def test_enumerate_squares_limits():
    with pytest.raises(ValueError):
        list(enumerate_squares(1))
    with pytest.raises(ValueError):
        list(enumerate_squares(15))


def test_is_square_blocking_small():
    assert is_square_blocking(CubeEdgeSet(2, frozenset({(0, 0)})))
    assert is_square_blocking(CubeEdgeSet(2, frozenset({(1, 1)})))
    assert not is_square_blocking(CubeEdgeSet(3, frozenset()))


def test_three_edges_can_block_q3():
    # each Q3 edge lies in exactly 2 of the 6 faces; some triple of edges
    # with disjoint face pairs blocks everything
    from itertools import combinations

    edges = list(all_edges(3))
    found = None
    for triple in combinations(edges, 3):
        if is_square_blocking(CubeEdgeSet(3, frozenset(triple))):
            found = triple
            break
    assert found is not None


def test_min_vertex_cover():
    # a single edge needs one endpoint
    cover = _min_vertex_cover(2, [(0, 0)])
    assert len(cover) == 1
    # the full Q2 cycle needs 2 vertices
    cover = _min_vertex_cover(2, list(all_edges(2)))
    assert len(cover) == 2
    # full Q3: bipartite, matching number 4
    cover = _min_vertex_cover(3, list(all_edges(3)))
    assert len(cover) == 4
    for v, d in all_edges(3):
        assert v in cover or (v ^ (1 << d)) in cover


def test_self_checks_raise(monkeypatch):
    # the checks are explicit raises, so they also hold under python -O;
    # only Q_4 fails, so the assisted call gets past its Q_3 base
    monkeypatch.setattr(qcube, "is_square_blocking", lambda m, limit: m.n < 4)
    with pytest.raises(RuntimeError):
        recursive_blocking_set(4)
    with pytest.raises(RuntimeError):
        inversion_assisted_blocking(4)
    monkeypatch.undo()
    # a matching that is not maximum leaves a free vertex reachable
    monkeypatch.setattr(
        qcube, "max_bipartite_matching", lambda adj, n_right: ([-1] * len(adj), [-1] * n_right)
    )
    with pytest.raises(RuntimeError):
        _min_vertex_cover(2, [(0, 0)])


def test_recursive_blocking_sizes_and_validity():
    sizes = {}
    for n in range(2, 8):
        m = recursive_blocking_set(n)
        assert m.n == n
        assert is_square_blocking(m)
        ceiling = (n - 1) * (1 << (n - 2))
        squares = n * (n - 1) // 2 * (1 << (n - 2))
        floor = -(-squares // (n - 1))  # each edge lies in n-1 squares
        assert floor <= len(m) <= ceiling, (n, len(m))
        sizes[n] = len(m)
    assert sizes[2] == 1
    assert 3 <= sizes[3] <= 4


def test_direction_collection_shape():
    m = recursive_blocking_set(4)
    col = direction_collection(m)
    assert col.n == 4
    # sets hold only missing directions, hence at most half the dimension
    assert all(2 * s.cardinality() <= col.n for s in col.sets)


def test_assisted_never_worse_and_blocking():
    for n in range(3, 8):
        assisted, saved = inversion_assisted_blocking(n)
        assert assisted.n == n
        assert is_square_blocking(assisted)
        plain = recursive_blocking_set(n)
        assert len(assisted) <= len(plain)
        assert saved == len(plain) - len(assisted)
        assert saved >= 0


def test_cube_edge_file_roundtrip():
    m = recursive_blocking_set(5)
    text = serialize_cube_edges(m)
    back = parse_cube_edges(text)
    assert back == m
    from setpack.setcore import FormatError

    with pytest.raises(FormatError):
        parse_cube_edges("3\n111 0\n")  # direction bit set in vertex
    with pytest.raises(FormatError):
        parse_cube_edges("3\n00 0\n")  # wrong width
    with pytest.raises(FormatError):
        parse_cube_edges("")


def test_canonical_edge_validation():
    with pytest.raises(ValueError):
        CubeEdgeSet(3, frozenset({(1, 0)}))  # bit 0 set, direction 0
    with pytest.raises(ValueError):
        CubeEdgeSet(3, frozenset({(0, 3)}))  # direction out of range
