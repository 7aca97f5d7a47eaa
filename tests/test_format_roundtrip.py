"""parse(serialize(x)) == x for the three file formats, on generated values."""
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setpack import (
    Collection,
    CubeEdgeSet,
    Permutation,
    Subset,
    parse_collection,
    parse_permutation,
    serialize_collection,
    serialize_permutation,
)
from setpack.pack import PackingFamily
from setpack.qcube import parse_cube_edges, serialize_cube_edges
from setpack.setcore import FormatError

from oracles import SubsetIncidence, naive_parse_collection

SETTINGS = settings.get_profile("setpack")


@st.composite
def collections(draw):
    n = draw(st.integers(1, 70))
    sets = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=12))
    return Collection(n, tuple(Subset(n, bits) for bits in sets))


@st.composite
def cube_edge_sets(draw):
    n = draw(st.integers(0, 7))
    edges = [(v, d) for v in range(1 << n) for d in range(n) if not (v >> d) & 1]
    return CubeEdgeSet.of(n, draw(st.sets(st.sampled_from(edges))) if edges else [])


@SETTINGS
@given(collections(), st.lists(st.text(), max_size=3))
def test_collection_roundtrip(c, comments):
    # comments may hold line breaks: each line is written as its own comment;
    # one that the ASCII file grammar cannot hold is refused by the writer,
    # and the collection is then round-tripped without comments
    if any(re.search(r"[^\t -\x7f]", ln) for h in comments for ln in h.splitlines()):
        with pytest.raises(ValueError, match="collection files refuse"):
            serialize_collection(c, comments)
        comments = []
    assert parse_collection(serialize_collection(c, comments)) == c


def same_record(inc, oracle) -> bool:
    """Whether a record equals the oracle's, its derived arrays included."""
    return (inc.elements.dtype == np.int64 and inc.n == oracle.n
            and all(np.array_equal(getattr(inc, k), getattr(oracle, k)) for k in ("indptr", "elements", "sets", "rows")))


@SETTINGS
@given(collections(), st.randoms(use_true_random=False))
def test_parsed_record_matches_the_oracle(c, rng):
    # the sets' tokens in any order, with blanks, comments and CRLF line ends
    lines = [str(c.n)]
    for s in c.sets:
        tokens = [f"{'0' * rng.randrange(3)}{x}" for x in s.elements()]
        rng.shuffle(tokens)
        lines.append(rng.choice(["", " ", "\t"]) + rng.choice([" ", "\t ", "  "]).join(tokens))
        if rng.random() < 0.2:
            lines.append(rng.choice(["# note", "", "#"]))
    text = rng.choice(["\n", "\r\n"]).join(lines) + "\n"
    parsed, oracle = parse_collection(text), naive_parse_collection(text)
    assert "sets" not in vars(parsed)  # the parser makes the record alone
    assert same_record(parsed.incidence, SubsetIncidence(oracle.n, oracle.sets))
    assert parsed.sets == oracle.sets and parsed == oracle == c
    assert same_record(Collection(c.n, c.sets).incidence, SubsetIncidence(c.n, c.sets))


@SETTINGS
@given(st.integers(0, 70).flatmap(lambda n: st.lists(st.lists(st.integers(0, max(n - 1, 0)), max_size=n and 9), max_size=9).map(lambda sets: (n, sets))))
def test_record_of_subsets_with_empty_sets_matches_the_oracle(case):
    # the oracle is built from the raw lists, not from the record under test
    n, sets = case
    c = Collection.of(n, sets)
    assert same_record(c.incidence, SubsetIncidence(n, [Subset.of(n, s) for s in sets]))
    rebuilt = Collection(c.n, c.incidence)  # and back: the Subsets from the record
    assert rebuilt.sets == c.sets and rebuilt == c and repr(rebuilt) == repr(c)


@pytest.mark.parametrize("m", [1 << 16, (1 << 16) + 1])  # the last count whose owners fit 16 bits, and the next
def test_record_of_many_unsorted_sets_with_repeats_matches_the_oracle(m):
    rng = random.Random(m)
    n = 100
    sets = [[rng.randrange(n) for _ in range(rng.randrange(6))] for _ in range(m)]
    c = Collection.of(n, sets)
    assert same_record(c.incidence, SubsetIncidence(n, [Subset.of(n, s) for s in sets]))


@SETTINGS
@given(st.integers(1, 60).flatmap(lambda n: st.permutations(range(n))))
def test_permutation_roundtrip(image):
    p = Permutation(len(image), tuple(image))
    assert parse_permutation(serialize_permutation(p)) == p


def test_empty_permutation_roundtrip():
    p = Permutation(0, ())
    assert parse_permutation(serialize_permutation(p)) == p
    with pytest.raises(FormatError):  # a file without any line holds nothing
        parse_permutation("")


@SETTINGS
@given(cube_edge_sets())
def test_cube_edge_set_roundtrip(m):
    assert parse_cube_edges(serialize_cube_edges(m)) == m


WORD_EDGES = (0, 1, 7, 8, 9, 63, 64, 65, 128)


@SETTINGS
@given(st.sampled_from(WORD_EDGES).flatmap(lambda n: st.lists(st.lists(st.integers(0, max(n - 1, 0)), max_size=n and 12), max_size=9).map(lambda sets: (n, sets))))
def test_record_is_written_at_construction(case):
    # element lists in any order, with repeats and empty sets, at the byte
    # and word edges: every way of making a collection writes the record
    # the Subsets of the same lists give
    n, sets = case
    subsets = [Subset.of(n, s) for s in sets]
    oracle = SubsetIncidence(n, subsets)
    for c in (Collection.of(n, sets), Collection(n, subsets), Collection.of(n, subsets)):
        assert "incidence" in vars(c) and "sets" not in vars(c)
        assert same_record(c.incidence, oracle)
        assert c.sets == tuple(subsets)
    if len({s.cardinality() for s in subsets}) == 1:
        family = PackingFamily.of(n, [s[::-1] * 2 for s in sets], "1/2")  # each reversed and repeated
        assert same_record(family.incidence, oracle)


def test_record_refuses_what_subsets_refuse():
    for sets in ([[1, 7], [-1]], [[1], [5, 0]], [[2**70, 9]], [[0, 1 << 63]]):
        bad = next(x for s in sets for x in s if not 0 <= x < 5)
        with pytest.raises(ValueError, match=re.escape(f"element {bad} outside ground set [0, 5)")):
            Subset.of(5, [x for s in sets for x in s])
        with pytest.raises(ValueError, match=re.escape(f"element {bad} outside ground set [0, 5)")):
            Collection.of(5, sets)
        with pytest.raises(ValueError, match=re.escape(f"element {bad} outside ground set [0, 5)")):
            PackingFamily.of(5, sets, "1/2")
    with pytest.raises(ValueError, match="subset over ground set of size 6 in a collection with n=5"):
        Collection(5, [Subset(5, 1), Subset(6, 1)])
