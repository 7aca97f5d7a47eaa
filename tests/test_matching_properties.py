"""decide_invertible against the brute-force oracle on generated small
collections: the answer, the witness and the Hall certificate."""
from hypothesis import given, settings
from hypothesis import strategies as st

from setpack import (
    Collection,
    Subset,
    conflict_graph,
    decide_invertible,
    inverts,
)

from oracles import brute_force_invertible


@st.composite
def collections(draw):
    n = draw(st.integers(1, 7))
    sets = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=4))
    return Collection(n, tuple(Subset(n, bits) for bits in sets))


@settings.get_profile("setpack")
@given(collections())
def test_decide_invertible_against_brute_force(c):
    r = decide_invertible(c)
    assert r.invertible == (brute_force_invertible(c) is not None)
    if r.invertible:
        assert all(inverts(r.matched, s) for s in c.sets)
    else:
        g = conflict_graph(c)
        nbhd = 0
        for i in r.certificate:
            nbhd |= g.adjacency[i].bits
        assert nbhd.bit_count() < r.certificate.cardinality()
        assert r.neighbourhood.bits == nbhd
