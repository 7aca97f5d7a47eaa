import random
import tracemalloc

import numpy as np
import pytest

from setpack import (
    Collection,
    Permutation,
    Subset,
    apply,
    complement,
    inverts,
    parse_collection,
    parse_permutation,
    serialize_collection,
    serialize_permutation,
)
from setpack.setcore import MAX_BITS, FormatError, bit_positions, bits_of

from oracles import identity_permutation


def test_parse_basic():
    c = parse_collection("4\n0 1\n2 3\n")
    assert c.n == 4
    assert [s.elements() for s in c.sets] == [[0, 1], [2, 3]]


def test_parse_empty_collection():
    c = parse_collection("2\n")
    assert c.n == 2 and c.sets == ()


def test_parse_comments_and_blanks():
    c = parse_collection("# header\n\n3\n# set\n0 2\n\n")
    assert c.n == 3
    assert [s.elements() for s in c.sets] == [[0, 2]]


@pytest.mark.parametrize(
    "text",
    [
        "4\n0 0 1\n",        # duplicate element
        "4\n0 4\n",          # element >= n
        "4\n0 x\n",          # non-integer token
        "not_a_number\n",    # malformed header
        "4 5\n",             # header with two tokens
        "",                  # missing header
    ],
)
def test_parse_errors(text):
    with pytest.raises(FormatError):
        parse_collection(text)


def test_roundtrip_is_identity():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 12)
        m = rng.randint(0, 5)
        sets = []
        for _ in range(m):
            bits = rng.getrandbits(n)
            if bits:
                sets.append(Subset(n, bits))
        c = Collection(n, tuple(sets))
        text = serialize_collection(c)
        assert parse_collection(text) == c
        assert serialize_collection(parse_collection(text)) == text


def test_serialize_rejects_empty_set():
    c = Collection(3, (Subset(3, 0),))
    with pytest.raises(ValueError):
        serialize_collection(c)


def test_complement():
    assert complement(Subset.of(4, [0, 1])) == Subset.of(4, [2, 3])
    assert complement(Subset.of(3, [])) == Subset.of(3, [0, 1, 2])
    rng = random.Random(1)
    for _ in range(30):
        n = rng.randint(0, 20)
        s = Subset(n, rng.getrandbits(n) if n else 0)
        assert complement(complement(s)) == s
        assert complement(s).cardinality() == n - s.cardinality()


def test_apply():
    swap = Permutation(2, (1, 0))
    assert apply(swap, Subset.of(2, [0])) == Subset.of(2, [1])
    ident = identity_permutation(5)
    s = Subset.of(5, [1, 3])
    assert apply(ident, s) == s
    p = Permutation(4, (2, 3, 0, 1))
    assert apply(p, Subset.of(4, [0, 1])) == Subset.of(4, [2, 3])


def test_apply_preserves_cardinality():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(1, 10)
        img = list(range(n))
        rng.shuffle(img)
        p = Permutation(n, tuple(img))
        s = Subset(n, rng.getrandbits(n))
        assert apply(p, s).cardinality() == s.cardinality()


def test_apply_size_mismatch():
    with pytest.raises(ValueError):
        apply(identity_permutation(3), Subset.of(4, [0]))


def test_inverts():
    swap = Permutation(2, (1, 0))
    assert inverts(swap, Subset.of(2, [0]))
    assert not inverts(identity_permutation(3), Subset.of(3, [0]))
    p = Permutation(4, (2, 3, 0, 1))
    assert inverts(p, Subset.of(4, [0, 1]))
    assert not inverts(p, Subset.of(4, [0, 2]))


def test_oversized_sets_never_inverted():
    # pigeonhole: a set with more than n/2 elements meets any image of itself
    from itertools import permutations as iperm

    for n in range(1, 7):
        for bits in range(1 << n):
            s = Subset(n, bits)
            if 2 * s.cardinality() <= n:
                continue
            assert all(
                not inverts(Permutation(n, img), s) for img in iperm(range(n))
            )


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation(3, (0, 0, 2))
    with pytest.raises(ValueError):
        Permutation(3, (0, 1, 2), is_simple=True)  # not an involution pairing
    p = Permutation(4, (1, 0, 3, 2), is_simple=True)
    assert p.is_simple
    # odd n: one fixed point allowed
    q = Permutation(3, (1, 0, 2), is_simple=True)
    assert q.is_simple


def test_wide_ground_sets():
    # nothing may assume the ground set fits one machine word
    n = 521
    s = Subset.of(n, range(0, n, 3))
    t = complement(s)
    assert s.cardinality() + t.cardinality() == n
    img = list(range(1, n)) + [0]
    p = Permutation(n, tuple(img))
    assert apply(p, s).cardinality() == s.cardinality()
    assert parse_collection(serialize_collection(Collection(n, (s,)))).sets[0] == s


def test_permutation_file_roundtrip():
    p = Permutation(5, (2, 3, 4, 0, 1))
    assert parse_permutation(serialize_permutation(p)) == p
    with pytest.raises(FormatError):
        parse_permutation("0 0 1\n")
    with pytest.raises(FormatError):
        parse_permutation("0 1\n2 3\n")


def test_bits_of_scatters_positions_in_any_order():
    rng = np.random.default_rng(4)
    positions = rng.integers(0, 5000, 700)  # unsorted, with repeats
    expected = sum(1 << int(p) for p in set(positions.tolist()))
    assert bits_of(positions) == expected
    assert bits_of(positions[::-1].copy()) == expected
    assert bit_positions(expected).tolist() == sorted(set(positions.tolist()))
    assert bits_of(bit_positions(expected)) == expected  # the round trip
    for edge in ([0], [7], [8], [63], [64], [0, 7, 8, 8, 0]):  # byte and word edges
        assert bits_of(np.array(edge)) == sum(1 << p for p in set(edge))
    assert bits_of(np.zeros(0, np.int64)) == 0


def test_bits_of_shares_the_record_rows_scatter():
    c = Collection.of(130, [[129, 3, 64], [], [0, 7, 8, 63]])
    rows = c.incidence.rows
    assert [int.from_bytes(r, "little") for r in rows] == [s.bits for s in c.sets]
    assert [bits_of(c.incidence.elements[a:b]) for a, b in zip(c.incidence.indptr, c.incidence.indptr[1:])] \
        == [s.bits for s in c.sets]


def test_bits_of_sets_a_repeated_position_once():
    # the record rows add their bits (a set's elements are distinct), but
    # bits_of and CubeEdgeSet.of take repeats, so their scatter ORs them
    assert bits_of(np.array([5, 5, 5, 0, 9, 0])) == 1 << 9 | 1 << 5 | 1
    assert bits_of(np.full(300, 7)) == 1 << 7


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 512])
def test_record_rows_equal_the_bits_of_each_set(n):
    rng = random.Random(n)
    lists = [[], *(rng.sample(range(n), rng.randint(0, n)) for _ in range(20)), []]
    for sets in (lists, []):
        rows = Collection.of(n, sets).incidence.rows
        assert rows.shape == (len(sets), 8 * ((n + 63) // 64)) and rows.dtype == np.uint8
        assert [int.from_bytes(r, "little") for r in rows] == [bits_of(np.array(s, np.int64)) for s in sets]


def test_record_rows_of_a_sparse_record_peak_under_twice_their_size():
    # 2,000 sets of 1..4 points of 2^16: the rows are 16 MB, where a dense
    # boolean matrix of the same record would take 131 MB
    rng = np.random.default_rng(3)
    inc = Collection.of(1 << 16, [rng.choice(1 << 16, rng.integers(1, 5), replace=False) for _ in range(2000)]).incidence
    inc.sets  # derived before the trace: only the rows are measured
    tracemalloc.start()
    try:
        rows = inc.rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.nbytes == 2000 * (1 << 13) and peak < 2 * rows.nbytes, peak


def test_bits_of_refuses_a_vector_past_max_bits_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match=f"bit {MAX_BITS} set is longer than {MAX_BITS} bits"):
            bits_of(np.array([5, MAX_BITS, 3]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16, peak
