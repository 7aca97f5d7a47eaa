"""parse(serialize(x)) == x for the three file formats, on generated values."""
import re

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
from setpack.qcube import parse_cube_edges, serialize_cube_edges
from setpack.setcore import FormatError

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
