import random
from itertools import combinations

import pytest

from setpack import (
    Collection,
    Subset,
    check_disjoint_criterion,
    check_halfsize_conditions,
    check_triple,
    conflict_graph,
    decide_invertible,
    invert,
    inverts,
    maximum_matching,
)
from setpack.invert import MatchingResult, alternating_reach, max_bipartite_matching

from oracles import (
    brute_force_invertible,
    naive_alternating_reach,
    naive_invertible,
    naive_max_bipartite_matching,
    random_collection,
)


def test_conflict_graph_examples():
    g = conflict_graph(Collection.of(2, [[0]]))
    assert [row.elements() for row in g.adjacency] == [[1], [0, 1]]

    g = conflict_graph(Collection.of(3, []))
    assert all(row.elements() == [0, 1, 2] for row in g.adjacency)

    g = conflict_graph(Collection.of(2, [[0, 1]]))
    assert all(row.elements() == [] for row in g.adjacency)


def test_conflict_graph_symmetric():
    rng = random.Random(3)
    for _ in range(50):
        c = random_collection(rng, rng.randint(1, 9), rng.randint(0, 4))
        g = conflict_graph(c)
        for i in range(c.n):
            for j in range(c.n):
                assert (g.adjacency[i].bits >> j) & 1 == (g.adjacency[j].bits >> i) & 1


def test_matching_two_points():
    r = maximum_matching(conflict_graph(Collection.of(2, [[0]])))
    assert r.invertible
    assert r.matched.image == (1, 0)

    r = maximum_matching(conflict_graph(Collection.of(2, [[0, 1]])))
    assert not r.invertible
    assert r.certificate.cardinality() >= 1
    assert r.neighbourhood.cardinality() == 0
    with pytest.raises(ValueError):
        MatchingResult(None, r.certificate)

    r = maximum_matching(conflict_graph(Collection.of(3, [])))
    assert r.invertible


def test_decide_examples():
    r = decide_invertible(Collection.of(4, [[0, 1], [2, 3]]))
    assert r.invertible

    r = decide_invertible(Collection.of(4, [[0, 1], [0, 2], [0, 3]]))
    assert not r.invertible

    r = decide_invertible(Collection.of(2, [[0, 1]]))
    assert not r.invertible


def test_decide_builds_subsets_only_for_a_certificate(monkeypatch):
    # the conflict rows stay ints from the gather to the matcher: a witness
    # builds no Subset, a certificate exactly two (I and N(I))
    built = []

    class Counted(Subset):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(invert, "Subset", Counted)
    n = 512
    r = decide_invertible(Collection.of(n, [[x, x + 1] for x in range(0, n, 2)]))
    assert r.invertible and built == []
    r = decide_invertible(Collection.of(n, [range(n // 2 + 1), [0, n - 1]]))
    assert not r.invertible and built == [r.certificate, r.neighbourhood]
    assert r.certificate.cardinality() > r.neighbourhood.cardinality()


def test_brute_force_examples():
    assert brute_force_invertible(Collection.of(2, [[0]])).image == (1, 0)
    assert brute_force_invertible(Collection.of(4, [[0, 1], [0, 2], [0, 3]])) is None
    assert brute_force_invertible(Collection.of(1, [])).image == (0,)
    with pytest.raises(ValueError):
        brute_force_invertible(Collection.of(9, []), limit=8)


def test_brute_force_matches_naive_enumeration():
    # the pruned lexicographic search must return exactly what a full
    # scan of n! permutations returns
    rng = random.Random(4)
    for _ in range(150):
        c = random_collection(rng, rng.randint(1, 5), rng.randint(0, 4), allow_empty=True)
        fast = brute_force_invertible(c)
        slow = naive_invertible(c)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert fast.image == slow.image  # both lexicographically first


def test_decide_agrees_with_brute_force_random():
    rng = random.Random(5)
    for _ in range(300):
        c = random_collection(rng, rng.randint(1, 8), rng.randint(0, 5))
        assert decide_invertible(c).invertible == (brute_force_invertible(c) is not None)


def test_certificate_is_hall_violator():
    rng = random.Random(6)
    seen = 0
    while seen < 60:
        c = random_collection(rng, rng.randint(2, 8), rng.randint(1, 5))
        r = decide_invertible(c)
        if r.invertible:
            continue
        seen += 1
        g = conflict_graph(c)
        nbhd = 0
        for i in r.certificate:
            nbhd |= g.adjacency[i].bits
        assert nbhd.bit_count() < r.certificate.cardinality()
        assert r.neighbourhood.bits == nbhd


def test_soundness_returned_permutation_inverts_all():
    rng = random.Random(7)
    for _ in range(200):
        c = random_collection(rng, rng.randint(1, 9), rng.randint(0, 4))
        r = decide_invertible(c)
        if r.invertible:
            assert all(inverts(r.matched, s) for s in c.sets)


def test_matching_on_general_bipartite_graph():
    # pentagon-free graph with known matching number
    adj = [0b011, 0b001, 0b100]  # left 0: {0,1}, left 1: {0}, left 2: {2}
    ml, mr = max_bipartite_matching(adj, 3)
    assert sum(1 for x in ml if x != -1) == 3
    adj = [0b001, 0b001]
    ml, _ = max_bipartite_matching(adj, 3)
    assert sum(1 for x in ml if x != -1) == 1


def random_bipartite(rng):
    """Rows over [0, n_right) at a density drawn from [0, 1], with some rows
    and columns forced empty; either side may have 0 vertices."""
    n_left, n_right = rng.randint(0, 20), rng.randint(0, 20)
    density = rng.choice([0.0, 1.0, rng.random()])
    cols = rng.getrandbits(n_right) if rng.random() < 0.3 else (1 << n_right) - 1
    rows = [sum(1 << j for j in range(n_right) if rng.random() < density) for _ in range(n_left)]
    return [0 if rng.random() < 0.1 else row & cols for row in rows], n_right


def test_matching_and_walk_equal_reference_kernel():
    # the phase walk and the per-layer untried masks admit exactly the
    # edges of the queue BFS and its dist test, in the same order
    rng = random.Random(10)
    for _ in range(2500):
        adj, n_right = random_bipartite(rng)
        match_l, match_r = max_bipartite_matching(adj, n_right)
        assert (match_l, match_r) == naive_max_bipartite_matching(adj, n_right)
        free = [u for u, j in enumerate(match_l) if j == -1]
        starts = [u for u in free if rng.random() < 0.5]
        for s in (free, starts):
            left, layers = alternating_reach(adj, match_r, s)
            assert (left, sum(layers)) == naive_alternating_reach(adj, match_r, s)


def test_long_augmenting_path_needs_no_recursion():
    # the first phase leaves left n-1 free; the second augments along the
    # whole chain, a path far deeper than the interpreter's recursion limit
    n = 3000
    adj = [1 << (n - 1 - i) | (1 << (n - 2 - i) if i < n - 1 else 0) for i in range(n)]
    match_l, match_r = max_bipartite_matching(adj, n)
    assert sorted(match_l) == list(range(n))
    assert all((adj[u] >> j) & 1 and match_r[j] == u for u, j in enumerate(match_l))


def test_disjoint_criterion():
    assert check_disjoint_criterion(Collection.of(4, [[0, 1], [2, 3]]))
    assert not check_disjoint_criterion(Collection.of(4, [[0, 1, 2]]))
    assert check_disjoint_criterion(Collection.of(5, [[0, 1], [2, 3]]))
    with pytest.raises(ValueError):
        check_disjoint_criterion(Collection.of(4, [[0, 1], [1, 2]]))


def test_disjoint_criterion_matches_matching():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randint(1, 10)
        pool = list(range(n))
        rng.shuffle(pool)
        sets, idx = [], 0
        while idx < n and len(sets) < 4:
            size = rng.randint(1, max(1, n - idx))
            if rng.random() < 0.5:
                size = min(size, n // 2 + 1)
            take = pool[idx : idx + size]
            idx += size
            if take:
                sets.append(take)
        c = Collection.of(n, sets)
        assert check_disjoint_criterion(c) == decide_invertible(c).invertible


def test_check_triple_examples():
    assert not check_triple(Collection.of(4, [[0, 1], [0, 2], [0, 3]]))
    assert check_triple(Collection.of(4, [[0, 1], [2, 3], [0, 2]]))
    assert check_triple(Collection.of(6, [[0], [1], [2]]))
    with pytest.raises(ValueError):
        check_triple(Collection.of(4, [[0], [1]]))
    with pytest.raises(ValueError):
        check_triple(Collection.of(4, [[0], [1], [2, 3]]))


def test_check_triple_matches_brute_force():
    rng = random.Random(9)
    for _ in range(400):
        n = rng.choice([4, 6, 8])
        k = rng.randint(1, n // 2)
        sets = [rng.sample(range(n), k) for _ in range(3)]
        c = Collection.of(n, sets)
        assert check_triple(c) == (brute_force_invertible(c) is not None)


def test_halfsize_examples():
    assert check_halfsize_conditions(Collection.of(4, [[0, 1]]))
    assert check_halfsize_conditions(Collection.of(4, [[0, 1], [0, 2]]))
    assert check_halfsize_conditions(Collection.of(4, [[0, 1], [0, 1]]))
    assert not check_halfsize_conditions(Collection.of(4, [[0, 1], [0, 2], [0, 3]]))
    with pytest.raises(ValueError):
        check_halfsize_conditions(Collection.of(5, [[0, 1]]))
    with pytest.raises(ValueError):
        check_halfsize_conditions(Collection.of(4, [[0]]))


def test_halfsize_equals_brute_force_exhaustively():
    # all collections of m <= 3 half-size sets for n in {4, 6}: the
    # atom-symmetry condition is exactly invertibility in both directions
    for n in (4, 6):
        half = [
            sum(1 << x for x in combo) for combo in combinations(range(n), n // 2)
        ]
        for m in (1, 2, 3):
            for combo in combinations(half, m):
                c = Collection(n, tuple(Subset(n, b) for b in combo))
                assert check_halfsize_conditions(c) == (
                    brute_force_invertible(c) is not None
                ), f"n={n} sets={[s.elements() for s in c.sets]}"


def all_pairs_invertible(n: int) -> bool:
    """Exhaustively confirm that any two sets of size <= n/2 are invertible."""
    admissible = []
    for size in range(n // 2 + 1):
        admissible.extend(
            sum(1 << x for x in combo) for combo in combinations(range(n), size)
        )
    for b1, b2 in combinations(admissible, 2):
        c = Collection(n, (Subset(n, b1), Subset(n, b2)))
        if not decide_invertible(c).invertible:
            return False
    return True


def test_any_two_halfsize_sets_invertible():
    # pairs of sets of size <= n/2 are always invertible, checked
    # exhaustively over every size class
    for n in range(2, 9):
        assert all_pairs_invertible(n)
