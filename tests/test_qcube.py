import random
from itertools import combinations

import pytest

from setpack import qcube
from setpack import (
    CubeEdgeSet,
    inversion_assisted_blocking,
    is_square_blocking,
    recursive_blocking_set,
)
from setpack.kappa import simple_permutations
from setpack.qcube import (
    _min_vertex_cover,
    _permute_directions,
    direction_collection,
    parse_cube_edges,
    serialize_cube_edges,
)
from setpack.setcore import Collection, FormatError, Subset

from oracles import (
    cube_edge_pairs,
    naive_is_square_blocking,
    naive_square_count,
    naive_square_edges,
    naive_squares,
)


def canonical_edges(n):
    return [(v, d) for v in range(1 << n) for d in range(n) if not (v >> d) & 1]


def test_square_counts():
    for n in range(2, 7):
        formula = n * (n - 1) // 2 * (1 << (n - 2))
        assert sum(1 for _ in naive_squares(n)) == formula
        assert naive_square_count(n) == formula


def test_squares_are_squares():
    # the oracle's squares are 4-cycles of Q_4
    for base, i, j in naive_squares(4):
        edges = naive_square_edges(base, i, j)
        assert len(set(edges)) == 4
        verts = {base, base ^ (1 << i), base ^ (1 << j), base ^ (1 << i) ^ (1 << j)}
        for v, d in edges:
            assert v in verts and (v ^ (1 << d)) in verts


def test_square_check_limits(monkeypatch):
    with pytest.raises(ValueError):
        is_square_blocking(CubeEdgeSet(1, (0,)))
    with pytest.raises(ValueError):
        is_square_blocking(CubeEdgeSet(0, ()))
    over = qcube.DEFAULT_SQUARE_LIMIT + 1
    with pytest.raises(ValueError):
        is_square_blocking(CubeEdgeSet(over, (0,) * over))
    with pytest.raises(ValueError):
        is_square_blocking(CubeEdgeSet.of(5, []), limit=4)
    assert not is_square_blocking(CubeEdgeSet(15, (0,) * 15), limit=15)

    # builds skip their check above the limit
    def refuse(m, limit):
        raise AssertionError("square check ran above the limit")

    monkeypatch.setattr(qcube, "is_square_blocking", refuse)
    assert len(recursive_blocking_set(5, limit=4)) == 4 * (1 << 3)
    inversion_assisted_blocking(5, limit=3)


def test_is_square_blocking_small():
    assert is_square_blocking(CubeEdgeSet.of(2, [(0, 0)]))
    assert is_square_blocking(CubeEdgeSet.of(2, [(1, 1)]))
    assert not is_square_blocking(CubeEdgeSet.of(3, []))


def test_three_edges_can_block_q3():
    # each Q3 edge lies in exactly 2 of the 6 faces; some triple of edges
    # with disjoint face pairs blocks everything
    found = None
    for triple in combinations(canonical_edges(3), 3):
        if is_square_blocking(CubeEdgeSet.of(3, triple)):
            found = triple
            break
    assert found is not None


def test_square_check_matches_oracle_random():
    rng = random.Random(5)
    outcomes = {n: set() for n in range(2, 8)}
    for trial in range(2400):
        n = 2 + trial % 6
        density = rng.random() ** 0.25  # mostly dense, so both answers occur
        edges = [e for e in canonical_edges(n) if rng.random() < density]
        got = is_square_blocking(CubeEdgeSet.of(n, edges))
        assert got == naive_is_square_blocking(n, edges), (n, edges)
        outcomes[n].add(got)
    assert all(seen == {True, False} for seen in outcomes.values()), outcomes


def test_square_check_matches_oracle_on_constructions():
    built = [recursive_blocking_set(n) for n in range(2, 10)]
    built += [inversion_assisted_blocking(n)[0] for n in range(3, 10)]
    for m in built:
        edges = cube_edge_pairs(m)
        assert is_square_blocking(m) and naive_is_square_blocking(m.n, edges)
        if m.n > 6:
            continue
        for k in range(len(edges)):
            fewer = edges[:k] + edges[k + 1:]
            got = is_square_blocking(CubeEdgeSet.of(m.n, fewer))
            assert got == naive_is_square_blocking(m.n, fewer), (m.n, edges[k])


def test_min_vertex_cover():
    def residual(n, edges):
        return CubeEdgeSet.of(n, edges).dirs

    # a single edge needs one endpoint
    assert _min_vertex_cover(residual(2, [(0, 0)])).bit_count() == 1
    # the full Q2 cycle needs 2 vertices
    assert _min_vertex_cover(residual(2, canonical_edges(2))).bit_count() == 2
    # random edge sets of Q3 against the smallest cover found by enumeration
    rng = random.Random(2)
    for _ in range(100):
        edges = [e for e in canonical_edges(3) if rng.random() < 0.5]
        cover = _min_vertex_cover(residual(3, edges))
        for v, d in edges:
            assert (cover >> v) & 1 or (cover >> (v ^ (1 << d))) & 1
        smallest = min(
            c.bit_count()
            for c in range(1 << 8)
            if all((c >> v) & 1 or (c >> (v ^ (1 << d))) & 1 for v, d in edges)
        )
        assert cover.bit_count() == smallest


def test_permute_directions_relabels_every_edge():
    for n in range(2, 7):
        m = recursive_blocking_set(n)
        for p in list(simple_permutations(n))[:5]:
            moved = set()
            for v, d in cube_edge_pairs(m):
                w = sum(1 << p.image[b] for b in range(n) if (v >> b) & 1)
                moved.add((w, p.image[d]))
            assert CubeEdgeSet(n, _permute_directions(m, p)) == CubeEdgeSet.of(n, moved)


def test_self_checks_raise(monkeypatch):
    # the checks are explicit raises, so they also hold under python -O;
    # only Q_4 fails, so the assisted call gets past its Q_3 base
    monkeypatch.setattr(qcube, "is_square_blocking", lambda m, limit: m.n < 4)
    with pytest.raises(RuntimeError):
        recursive_blocking_set(4)
    with pytest.raises(RuntimeError):
        inversion_assisted_blocking(4)
    monkeypatch.undo()
    # the edges {0, 1}, {0, 2} and {1, 3}: the greedy matches 0 to 1 and
    # leaves 3 free, so the walk flips 3-1-0-2 and both evens are the cover
    residual = (1, 3)
    assert _min_vertex_cover(residual) == 0b1001
    # a walk that reaches 1 and the free vertex 2 without flipping the path
    monkeypatch.setattr(qcube, "_alternating_walk", lambda ptr, cols, match_l, match_r: [-1, 1, 0, -1])
    with pytest.raises(RuntimeError, match="size differs"):
        _min_vertex_cover(residual)
    # a walk that reaches nothing from the free vertex 3
    monkeypatch.setattr(qcube, "_alternating_walk", lambda ptr, cols, match_l, match_r: [-1] * 4)
    with pytest.raises(RuntimeError, match="misses a residual edge"):
        _min_vertex_cover(residual)


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


def test_plain_sets_have_no_direction_1_edge():
    # the proof of the closed form: the direction-1 edges of Q_n, a perfect
    # matching, all lie in the residual of the plain step from M_n
    for n in range(2, 21):
        m = recursive_blocking_set(n)
        assert m.dirs[1] == 0
        assert (qcube._clear(1, 1 << n) & ~m.dirs[1]).bit_count() == 1 << (n - 1)
        assert len(m) == (n - 1) * (1 << (n - 2))
    # so König's cover of that residual is the whole even side of Q_n
    for n in range(2, 11):
        m = recursive_blocking_set(n)
        residual = [qcube._clear(d, 1 << n) & ~e for d, e in enumerate(m.dirs)]
        assert _min_vertex_cover(residual) == sum(1 << v for v in range(1 << n) if v.bit_count() % 2 == 0)


def test_plain_sets_follow_the_closed_form():
    # (v, 0) iff bit 1 of v is clear, no (v, 1), and (v, d >= 2) iff the
    # low d bits of v have even parity
    def member(v, d):
        return not v >> 1 & 1 if d == 0 else d >= 2 and (v & ((1 << d) - 1)).bit_count() % 2 == 0

    for n in range(2, 11):
        expected = [(v, d) for v, d in canonical_edges(n) if member(v, d)]
        assert recursive_blocking_set(n) == CubeEdgeSet.of(n, expected)


def test_covers_run_once_per_assisted_build(monkeypatch):
    calls, cover = [], qcube._min_vertex_cover
    monkeypatch.setattr(qcube, "_min_vertex_cover", lambda residual: calls.append(len(residual)) or cover(residual))
    for n in range(2, 15):
        recursive_blocking_set(n)
    assert calls == []
    for n in range(3, 15):
        inversion_assisted_blocking(n)
        assert calls == [n - 1]
        calls.clear()


def test_assisted_falls_back_to_the_plain_set(monkeypatch):
    # an unpermuted mirror leaves the plain residual, whose cover is the
    # whole even side, so nothing is saved and the plain set comes back
    monkeypatch.setattr(qcube, "_permute_directions", lambda m, p: m.dirs)
    for n in range(3, 10):
        assert inversion_assisted_blocking(n) == (recursive_blocking_set(n), 0)


def test_direction_collection_shape():
    m = recursive_blocking_set(4)
    col = direction_collection(m)
    assert col.n == 4
    # sets hold only missing directions, hence at most half the dimension
    assert all(2 * s.cardinality() <= col.n for s in col.sets)


def test_direction_collection_matches_edge_scan():
    for n in range(2, 9):
        m = recursive_blocking_set(n)
        edges = set(cube_edge_pairs(m))
        expected = []
        for v in range(1 << n):
            missing = [d for d in range(n) if (v & ~(1 << d), d) not in edges]
            if 2 * (n - len(missing)) >= n:
                expected.append(Subset.of(n, missing))
        col = direction_collection(m)
        assert "sets" not in vars(col)  # made from the record alone
        assert col == Collection(n, tuple(expected)) and col.sets == tuple(expected)


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
    assert text.splitlines()[1:] == [f"{v:05b} {d}" for v, d in sorted(cube_edge_pairs(m))]
    for bad in (
        "3\n111 0\n",  # direction bit set in vertex
        "3\n00 0\n",  # wrong width
        "3\n000 3\n",  # direction out of range
        "3\n000 -1\n",
        "3\n000 x\n",
        "-1\n",  # negative dimension
        "",
    ):
        with pytest.raises(FormatError):
            parse_cube_edges(bad)


def test_canonical_edge_validation():
    with pytest.raises(ValueError):
        CubeEdgeSet.of(3, [(1, 0)])  # bit 0 set, direction 0
    with pytest.raises(ValueError):
        CubeEdgeSet.of(3, [(0, 3)])  # direction out of range
    with pytest.raises(ValueError):
        CubeEdgeSet.of(3, [(-1, 0)])
    with pytest.raises(ValueError):
        CubeEdgeSet.of(3, [(1 << 40, 0)])  # rejected before any bit vector is built
    with pytest.raises(ValueError):
        CubeEdgeSet(3, (0, 0))  # one bit vector per direction
    with pytest.raises(ValueError):
        CubeEdgeSet(3, (1 << 8, 0, 0))  # vertex 8 is outside Q_3
    with pytest.raises(ValueError):
        CubeEdgeSet(3, (-1, 0, 0))
    with pytest.raises(ValueError):
        CubeEdgeSet(-1, ())
    assert len(CubeEdgeSet.of(3, [(0, 0), (0, 0), (2, 0)])) == 2


def test_validation_matches_the_definition():
    # a direction-d vector is valid iff every set bit is a vertex of Q_n with bit d clear
    for n in range(4):
        for d in range(n):
            for bits in range(1 << ((1 << n) + 2)):
                valid = all(v < 1 << n and not (v >> d) & 1 for v in range(bits.bit_length()) if bits >> v & 1)
                dirs = tuple(bits if e == d else 0 for e in range(n))
                if valid:
                    assert CubeEdgeSet(n, dirs).dirs[d] == bits
                else:
                    with pytest.raises(ValueError):
                        CubeEdgeSet(n, dirs)


def test_validation_scales_with_the_bits_present(monkeypatch):
    # A dimension the edges only claim costs no n-bit int and no mask per
    # empty direction: 1 << n is never taken, and only the non-empty vector
    # asks for a canonical mask.
    class Claimed(int):
        def __rlshift__(self, other):
            raise AssertionError("an n-bit int was built from the claimed dimension")

    asked = []
    clear = qcube._clear
    monkeypatch.setattr(qcube, "_clear", lambda d, width: asked.append(d) or clear(d, width))
    n = Claimed(10**5)
    big = CubeEdgeSet(n, (1 << (1 << 20),) + (0,) * (n - 1))
    assert len(big) == 1 and asked == [0]
    assert parse_cube_edges("40\n").n == 40
