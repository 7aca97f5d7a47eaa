import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from setpack import (
    Collection,
    PackingFamily,
    check_triple,
    construct_packing,
    decide_invertible,
    greedy_independent_set,
    packing_graph_stats,
    verify_packing,
)
from setpack import pack
from setpack.pack import (
    LevelTrace,
    PackingReport,
    construct_packing_traced,
    no_three_invertible_family,
    parse_family,
    residue_family,
    serialize_family,
    shared_constituent_violations,
)
from setpack.setcore import Subset

from oracles import naive_shared_constituent_violations, naive_verify_packing
from test_acceptance import SWEEP


def brute_force_packing_graph(n, cn_size, alpha):
    """Build the whole graph explicitly; returns (vertex count, degree list)."""
    verts = [sum(1 << x for x in cmb) for cmb in combinations(range(n), cn_size)]
    deg = []
    for v in verts:
        d = sum(
            1
            for w in verts
            if w != v and Fraction((v & w).bit_count()) >= alpha * cn_size
        )
        deg.append(d)
    return len(verts), deg


def test_stats_against_explicit_graph():
    st = packing_graph_stats(8, 2, Fraction(1, 2))
    assert (st.N, st.D) == (28, 12)
    n_verts, degs = brute_force_packing_graph(8, 2, Fraction(1, 2))
    assert n_verts == 28
    assert set(degs) == {12}  # vertex-transitive: one common degree

    for n, s, alpha in [(6, 3, Fraction(1, 3)), (7, 3, Fraction(2, 3)), (6, 2, Fraction(1, 2))]:
        st = packing_graph_stats(n, s, alpha)
        n_verts, degs = brute_force_packing_graph(n, s, alpha)
        assert st.N == n_verts
        assert set(degs) == {st.D}, (n, s, alpha)


def test_stats_edge_cases():
    assert packing_graph_stats(4, 2, Fraction(1)).D == 0
    # threshold above the block size: nothing is adjacent
    assert packing_graph_stats(6, 2, Fraction(1, 1)).D == 0
    with pytest.raises(ValueError):
        packing_graph_stats(4, 0, Fraction(1, 2))
    with pytest.raises(ValueError):
        packing_graph_stats(4, 2, Fraction(3, 2))


def test_degree_summands_decrease_geometrically():
    # for alpha > c the degree-sum terms drop by at least the fixed factor
    # q = alpha(1-2c+alpha*c) / (c(1-alpha)^2) > 1 past the first index
    from math import ceil

    for n in (20, 40, 60):
        for c_num, alpha in [(2, Fraction(1, 2)), (3, Fraction(2, 3)), (1, Fraction(1, 4))]:
            cn = n * c_num // 10
            c = Fraction(cn, n)
            assert alpha > c
            q = alpha * (1 - 2 * c + alpha * c) / (c * (1 - alpha) ** 2)
            assert q > 1
            for i in range(ceil(alpha * cn), cn):
                term = comb(cn, i) * comb(n - cn, cn - i)
                nxt = comb(cn, i + 1) * comb(n - cn, cn - i - 1)
                assert Fraction(term) > q * nxt, (n, cn, alpha, i)


def test_verify_packing():
    fam = PackingFamily.of(6, [[0, 1], [2, 3], [4, 5]], Fraction(1, 2))
    rep = verify_packing(fam)
    assert rep.ok and rep.max_intersection == 0 and rep.pairs_checked == 3

    dup = PackingFamily.of(6, [[0, 1], [0, 1]], Fraction(1, 2))
    rep = verify_packing(dup)
    assert not rep.ok and not rep.distinct

    singletons = PackingFamily.of(5, [[0], [2], [4]], Fraction(1, 10))
    assert verify_packing(singletons).ok

    crossing = PackingFamily.of(6, [[0, 1, 2], [0, 1, 3]], Fraction(1, 3))
    rep = verify_packing(crossing)
    assert not rep.ok and rep.max_intersection == 2


def random_family(rng, n):
    """Equal-size blocks on [0, n), drawn to hit the check's corner cases:
    0, 1 or 2 blocks, duplicates, disjoint blocks and tied maxima."""
    count = rng.choice([0, 1, 2, rng.randint(3, 40)])
    size = rng.randint(0, n)
    if rng.random() < 0.2 and size and count * size <= n:  # pairwise disjoint
        order = rng.sample(range(n), n)
        blocks = [order[i * size:(i + 1) * size] for i in range(count)]
    else:
        blocks = [rng.sample(range(n), size) for _ in range(count)]
    for _ in range(rng.randint(0, 3) if blocks else 0):  # duplicates
        blocks.insert(rng.randrange(len(blocks) + 1), rng.choice(blocks))
    return PackingFamily.of(n, blocks, Fraction(rng.randint(1, 4), rng.randint(1, 6)))


@pytest.fixture(scope="module")
def wide_families():
    """Families whose counts pass 255 and 65,535, with their oracle reports:
    an accumulator too narrow for the block size wraps silently.  Blocks
    0,1 and 0,2 meet in size - 1 points.  The oracle runs once per size,
    as it takes about a second on each 65,536-point family."""
    cases = []
    for size in (255, 256, 257, 65_535, 65_536, 65_537):
        blocks = [range(size), range(1, size + 1), [*range(size - 1), size + 1]]
        fam = PackingFamily.of(size + 2, blocks, Fraction(1, 2))
        cases.append((fam, naive_verify_packing(fam)))
    return cases


@pytest.mark.parametrize("row_cells", [1, 7, 64, pack.ROW_BLOCK_CELLS])
def test_verify_packing_matches_dense_oracle(monkeypatch, wide_families, row_cells):
    # small row budgets split the counts into many row blocks; the
    # whole report, worst pair included, must not depend on the split
    monkeypatch.setattr(pack, "ROW_BLOCK_CELLS", row_cells)
    rng = random.Random(61)
    seen_dup = seen_zero = seen_tie = False
    for _ in range(750):
        fam = random_family(rng, rng.randint(0, 24) if rng.random() < 0.9 else rng.randint(60, 130))
        rep = verify_packing(fam)
        assert rep == naive_verify_packing(fam), fam
        seen_dup |= not rep.distinct
        seen_zero |= rep.pairs_checked > 0 and rep.max_intersection == 0
        if rep.pairs_checked > 1:
            inter = [b1.intersection_size(b2) for b1, b2 in combinations(fam.blocks, 2)]
            seen_tie |= inter.count(rep.max_intersection) > 1
    assert seen_dup and seen_zero and seen_tie
    # the 0-point ground set: every block is empty, so any two coincide
    empty = PackingFamily(0, (Subset(0, 0),) * 3, Fraction(1, 2), Fraction(0))
    assert verify_packing(empty) == naive_verify_packing(empty)
    for fam, oracle in wide_families:
        assert verify_packing(fam) == oracle, fam.block_size


def test_verify_packing_exact_on_huge_ground_set():
    # 2**24 points, where float32 counts would stop being exact
    n = 1 << 24
    top = 1 << (n - 1)
    fam = PackingFamily(n, (Subset(n, 1 | top), Subset(n, 2 | top)), Fraction(1), Fraction(2, n))
    assert verify_packing(fam) == PackingReport(True, 1, 1, Fraction(2), 2, True, (0, 1))


def test_sweep_reports_match_oracles():
    for n, alpha in SWEEP:
        fam, trace = construct_packing_traced(n, alpha)
        assert trace.report == naive_verify_packing(fam), (n, alpha)
        assert shared_constituent_violations(trace) == naive_shared_constituent_violations(trace) == 0
        node = trace.sub
        while node is not None:  # each level's record against its rebuilt family
            sub_fam = construct_packing(node.requested_n, node.alpha)
            assert node.report == naive_verify_packing(sub_fam), (n, alpha, node.requested_n)
            node = node.sub


def test_shared_constituent_violations_match_oracle():
    def level(constituents, sub=None):
        rep = verify_packing(PackingFamily(1, (), Fraction(1), Fraction(0)))
        return LevelTrace(8, 8, Fraction(1, 2), False, False, 4, 3, (2, 3),
                          constituents, len(constituents), 1, rep, sub)

    # blocks 0,1 share coordinates 0 and 1; blocks 2,3 agree everywhere,
    # so each of the 3 coordinate pairs counts them; the sub level adds 1
    top = level(((0, 0, 1), (0, 0, 2), (1, 2, 0), (1, 2, 0)), level(((4, 5), (4, 5), (5, 4))))
    assert shared_constituent_violations(top) == naive_shared_constituent_violations(top) == 1 + 3 + 1
    rng = random.Random(7)
    for _ in range(300):
        width, q = rng.randint(2, 5), rng.randint(1, 9)
        rows = tuple(tuple(rng.randrange(q) for _ in range(width)) for _ in range(rng.randint(1, 40)))
        trace = level(rows, level(rows[: len(rows) // 2]) if rng.random() < 0.5 else None)
        assert shared_constituent_violations(trace) == naive_shared_constituent_violations(trace)


def test_construct_base_case():
    fam = construct_packing(4, Fraction(1, 1))
    assert len(fam.blocks) == 4
    assert all(b.cardinality() == 1 for b in fam.blocks)


def test_construct_49_blocks():
    fam, trace = construct_packing_traced(28, Fraction(1, 2))
    assert fam.n == 28
    assert len(fam.blocks) == 49
    assert fam.block_size == 4
    assert fam.achieved_c == Fraction(1, 7)
    rep = verify_packing(fam)
    assert rep.ok and rep.max_intersection == 1
    assert trace.q == 7 and trace.coefficients == (2, 3)
    assert shared_constituent_violations(trace) == 0
    # exhaustive structural cross-check: no two blocks share 2+ sub-blocks
    for t1, t2 in combinations(trace.constituents, 2):
        assert sum(1 for a, b in zip(t1, t2) if a == b) <= 1


def test_construct_two_levels_squares_size():
    # family size squares per level, up to prime rounding
    fam, trace = construct_packing_traced(56, Fraction(1, 1))
    sub = trace.sub
    assert sub.size == 49
    assert trace.size == 47**2  # largest prime <= 49
    assert trace.size <= sub.size**2
    assert verify_packing(fam).ok
    assert shared_constituent_violations(trace) == 0


def test_construct_truncates_to_feasible_n():
    fam, trace = construct_packing_traced(30, Fraction(1, 2))
    assert fam.n == 28  # 4 parts of 7
    assert verify_packing(fam).ok


def test_construct_fallback_without_usable_prime():
    # parts of size 2 leave no prime above 2k: the sub-family is returned
    fam, trace = construct_packing_traced(10, Fraction(1, 2))
    assert trace.fallback
    assert all(b.cardinality() == 1 for b in fam.blocks)
    assert verify_packing(fam).ok


def test_construct_rejects_bad_alpha():
    with pytest.raises(ValueError):
        construct_packing(10, Fraction(2, 3))
    with pytest.raises(ValueError):
        construct_packing(0, Fraction(1, 2))


def test_greedy_examples():
    fam = greedy_independent_set(8, 2, Fraction(1, 2))
    assert [b.elements() for b in fam.blocks] == [[0, 1], [2, 3], [4, 5], [6, 7]]
    st = packing_graph_stats(8, 2, Fraction(1, 2))
    assert len(fam.blocks) * (st.D + 1) >= st.N

    fam = greedy_independent_set(6, 3, Fraction(1, 3))
    assert len(fam.blocks) == 2  # only disjoint triples qualify

    fam = greedy_independent_set(5, 2, Fraction(3, 2))
    assert len(fam.blocks) == comb(5, 2)  # threshold above size: keep all

    with pytest.raises(ValueError):
        greedy_independent_set(40, 20, Fraction(1, 2), budget=1000)


def test_greedy_result_is_maximal_packing():
    rng = random.Random(15)
    for _ in range(20):
        n = rng.randint(4, 10)
        s = rng.randint(1, n // 2)
        alpha = Fraction(rng.randint(1, s), s)
        fam = greedy_independent_set(n, s, alpha)
        assert verify_packing(fam).ok
        kept = {b.bits for b in fam.blocks}
        # maximality: every rejected subset collides with a kept one
        for cmb in combinations(range(n), s):
            bits = sum(1 << x for x in cmb)
            if bits in kept:
                continue
            assert any(
                Fraction((bits & b).bit_count()) >= alpha * s for b in kept
            )


def test_no_three_family_example():
    rs = PackingFamily.of(12, [[3, 4, 5], [6, 7, 8], [9, 10, 11]], Fraction(1, 3))
    col = no_three_invertible_family(12, 3, rs)
    assert col.m == 3
    assert all(s.cardinality() == 6 for s in col.sets)
    assert col.sets[0].elements() == [0, 1, 2, 3, 4, 5]
    # triple fails both the condition and real invertibility
    assert not check_triple(col)
    assert not decide_invertible(col).invertible
    for i, j in combinations(range(3), 2):
        pair = Collection(12, (col.sets[i], col.sets[j]))
        assert decide_invertible(pair).invertible


def test_no_three_family_validation():
    rs = PackingFamily.of(12, [[3, 4, 5], [5, 6, 7]], Fraction(1, 3))
    with pytest.raises(ValueError):
        no_three_invertible_family(12, 3, rs)  # intersection 1 >= k/3
    rs = PackingFamily.of(12, [[0, 4, 5], [6, 7, 8]], Fraction(1, 3))
    with pytest.raises(ValueError):
        no_three_invertible_family(12, 3, rs)  # intrudes into the core
    rs = PackingFamily.of(12, [[3, 4, 5], [6, 7, 8]], Fraction(1, 3))
    col = no_three_invertible_family(12, 3, rs)  # two sets: vacuous triples
    assert col.m == 2


def test_residue_family_default():
    rs = residue_family(12, 3)
    assert [b.elements() for b in rs.blocks] == [[3, 4, 5], [6, 7, 8], [9, 10, 11]]
    col = no_three_invertible_family(12, 3, rs)
    assert col.m == 3


def test_family_serialization_roundtrip():
    fam = construct_packing(28, Fraction(1, 2))
    text = serialize_family(fam)
    back = parse_family(text)
    assert back.n == fam.n
    assert back.blocks == fam.blocks
    assert back.declared_alpha == fam.declared_alpha
    # explicit alpha overrides the header
    loose = parse_family(text, Fraction(3, 4))
    assert loose.declared_alpha == Fraction(3, 4)


def test_self_checks_raise(monkeypatch, capsys):
    # explicit raises, so they also hold under python -O
    from dataclasses import replace

    from setpack import pack
    from setpack.cli import main

    real = pack.verify_packing

    def failing(when):
        return lambda f: replace(real(f), ok=False) if when(f) else real(f)

    half = Fraction(1, 2)
    for n, when, message in (
        (28, lambda f: True, "singleton base family"),
        (9, lambda f: f.declared_alpha == half, "fallback family"),
        (28, lambda f: len(f.blocks) == 49, "constructed family"),
    ):
        monkeypatch.setattr(pack, "verify_packing", failing(when))
        with pytest.raises(RuntimeError, match=message):
            construct_packing(n, half)
        assert main(["pack", "build", "--n", str(n), "--alpha", "1/2"]) == 4
        assert "internal error" in capsys.readouterr().err
    monkeypatch.undo()

    def low_floor(n, cn_size, alpha):
        stats = packing_graph_stats(n, cn_size, alpha)
        return replace(stats, N=10**9)

    monkeypatch.setattr(pack, "packing_graph_stats", low_floor)
    with pytest.raises(RuntimeError, match="independence floor"):
        greedy_independent_set(8, 2, half)
    monkeypatch.undo()
    monkeypatch.setattr(pack, "comb", lambda a, b: 0)
    with pytest.raises(RuntimeError, match="degree"):
        packing_graph_stats(8, 2, half)
