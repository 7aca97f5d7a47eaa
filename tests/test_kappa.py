import random
from fractions import Fraction
from itertools import combinations
from math import ceil, factorial
from types import SimpleNamespace

import numpy as np
import pytest

from setpack import (
    Collection,
    SizeProfile,
    Subset,
    exhaustive_kappa,
    find_simple_permutation,
    inverts,
    kappa_lower_bound,
    lambda_simple,
    sigma,
)
from setpack import kappa
from setpack.cli import main
from setpack.kappa import oversized_count, simple_permutations
from setpack.qcube import direction_collection, recursive_blocking_set

from oracles import (
    count_table_find_simple_permutation,
    naive_find_simple_permutation,
    naive_simple_permutations,
    random_collection,
)


def test_sigma_small_values():
    assert sigma(2) == 1
    assert sigma(4) == 3
    assert sigma(5) == 15
    assert sigma(6) == 15


def test_sigma_matches_enumeration():
    for n in range(9):
        assert sigma(n) == len(naive_simple_permutations(n))
        assert sigma(n) == sum(1 for _ in simple_permutations(n))


def test_simple_permutation_generator_is_valid_and_duplicate_free():
    for n in range(8):
        perms = list(simple_permutations(n))
        assert len({p.image for p in perms}) == len(perms)
        naive = {p.image for p in naive_simple_permutations(n)}
        assert {p.image for p in perms} == naive


def test_lambda_examples():
    assert lambda_simple(4, 1) == 3 == sigma(4)
    assert lambda_simple(4, 2) == 2
    assert lambda_simple(6, 3) == 6
    assert lambda_simple(6, 4) == 0  # over half


def test_lambda_matches_enumeration_for_every_subset():
    # the count is independent of which i-subset is inverted (symmetry)
    for n in range(1, 9):
        perms = naive_simple_permutations(n)
        for i in range(n + 1):
            expected = lambda_simple(n, i)
            for combo in combinations(range(n), i):
                s = Subset.of(n, combo)
                count = sum(1 for p in perms if inverts(p, s))
                assert count == expected, (n, i, combo)


def test_size_profile():
    c = Collection.of(6, [[0], [1, 2], [3, 4], [0, 1, 2, 3]])
    p = SizeProfile.from_collection(c)
    assert p.counts == (1, 2, 0)  # the 4-set is over half and dropped
    assert oversized_count(c) == 1
    with pytest.raises(ValueError):
        SizeProfile.of(6, {4: 1})
    with pytest.raises(ValueError):
        SizeProfile.of(6, {0: 1})


def test_kappa_lower_bound_examples():
    assert kappa_lower_bound(SizeProfile.of(4, {1: 4, 2: 6})) == 8
    assert kappa_lower_bound(SizeProfile.of(2, {1: 1})) == 1


def test_kappa_lower_bound_closed_form():
    # sum_i m_i lambda/sigma == (h!/n!) sum_i m_i 2^i (n-i)!/(h-i)!
    rng = random.Random(10)
    for _ in range(50):
        n = rng.randint(2, 30)
        h = n // 2
        m = {i: rng.randint(0, 5) for i in range(1, h + 1)}
        p = SizeProfile.of(n, m)
        closed = Fraction(factorial(h), factorial(n)) * sum(
            mi * (2**i) * Fraction(factorial(n - i), factorial(h - i))
            for i, mi in m.items()
        )
        assert kappa_lower_bound(p) == closed


def test_kappa_lower_bound_matches_the_per_size_sum():
    rng = random.Random(29)
    for n in [0, 1, 2, 3, *(rng.randint(4, 400) for _ in range(80))]:
        counts = tuple(rng.choice([0, 0, rng.randint(1, 10**6)]) for _ in range(n // 2))
        expected = Fraction(sum(m * lambda_simple(n, i) for i, m in enumerate(counts, 1)), sigma(n))
        assert kappa_lower_bound(SizeProfile(n, counts)) == expected, (n, counts)


def test_full_profile_identity():
    # m_i = C(n, i) gives exactly 3^floor(n/2) - 1, for every n
    for n in range(2, 41):
        bound = kappa_lower_bound(SizeProfile.full(n))
        assert bound == 3 ** (n // 2) - 1, n


def test_double_counting_identity():
    # sum over simple pi of |{S inverted}| == sum_i m_i lambda(n, i)
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 7)
        c = random_collection(rng, n, rng.randint(0, 5))
        total = sum(
            sum(1 for s in c.sets if inverts(p, s)) for p in simple_permutations(n)
        )
        profile = SizeProfile.from_collection(c)
        expected = sum(
            m * lambda_simple(n, i) for i, m in enumerate(profile.counts, start=1)
        )
        assert total == expected


def test_find_simple_permutation_examples():
    sets = [list(cmb) for size in (1, 2) for cmb in combinations(range(4), size)]
    c = Collection.of(4, sets)
    p, count = find_simple_permutation(c)
    assert p.is_simple
    assert count >= 8
    _, best = exhaustive_kappa(c, simple_only=True)
    assert best == 8 and count == 8

    p, count = find_simple_permutation(Collection.of(2, [[0]]))
    assert p.image == (1, 0) and count == 1

    # a set over half the ground is dead on arrival and never counted
    c = Collection.of(4, [[0, 1, 2]])
    p, count = find_simple_permutation(c)
    assert count == 0


def test_find_simple_guarantee_random():
    rng = random.Random(12)
    for _ in range(150):
        n = rng.randint(1, 14)
        c = random_collection(rng, n, rng.randint(0, 8), allow_empty=True)
        p, count = find_simple_permutation(c)
        assert p.is_simple
        assert count == sum(1 for s in c.sets if inverts(p, s))
        bound = kappa_lower_bound(SizeProfile.from_collection(c))
        assert count >= ceil(bound)


def test_find_simple_never_beats_exhaustive():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 7)
        c = random_collection(rng, n, rng.randint(0, 5))
        _, greedy_count = find_simple_permutation(c)
        _, best = exhaustive_kappa(c, simple_only=True)
        assert greedy_count <= best


def test_exhaustive_kappa():
    sets = [list(cmb) for size in (1, 2) for cmb in combinations(range(4), size)]
    c = Collection.of(4, sets)
    _, simple_best = exhaustive_kappa(c, simple_only=True)
    assert simple_best == 8
    _, overall = exhaustive_kappa(c, simple_only=False)
    assert overall >= simple_best

    _, count = exhaustive_kappa(Collection.of(3, []), simple_only=False)
    assert count == 0
    with pytest.raises(ValueError):
        exhaustive_kappa(Collection.of(9, []), simple_only=True, limit=8)


def test_find_simple_deterministic():
    rng = random.Random(14)
    for _ in range(20):
        n = rng.randint(2, 10)
        c = random_collection(rng, n, rng.randint(1, 6))
        p1, c1 = find_simple_permutation(c)
        p2, c2 = find_simple_permutation(c)
        assert p1.image == p2.image and c1 == c2


def _mixed_collection(rng, n: int, m: int) -> Collection:
    """Random sets of every kind the search meets: empty, small, around
    half the ground set and over half (never invertible)."""
    sets = []
    for _ in range(m):
        kind = rng.random()
        if kind < 0.1 or n == 0:
            size = 0
        elif kind < 0.25:
            size = rng.randint(n // 2, n)
        else:
            size = rng.randint(1, max(1, n // 4))
        sets.append(Subset.of(n, rng.sample(range(n), size)))
    return Collection(n, tuple(sets))


def test_find_simple_matches_reference_random():
    rng = random.Random(15)
    for trial in range(400):
        n = trial % 71  # 0 .. 70, both parities
        c = _mixed_collection(rng, n, rng.randint(0, 24))
        p, count = find_simple_permutation(c)
        q, expected = naive_find_simple_permutation(c)
        assert p.image == q.image and count == expected, (n, c.m)


def test_find_simple_matches_reference_on_cube_directions():
    # the collections the assisted cube doubling hands to the search
    for d in range(3, 13):
        c = direction_collection(recursive_blocking_set(d))
        p, count = find_simple_permutation(c)
        q, expected = naive_find_simple_permutation(c)
        assert p.image == q.image and count == expected, d


def test_ratio_row_is_lambda_over_sigma():
    def check(f, umax):
        row, den = kappa._ratio_row(f, umax)
        assert len(row) == umax + 1, (f, umax)
        for u, r in enumerate(row):
            assert Fraction(r, den) == Fraction(lambda_simple(f, u), sigma(f)), (f, umax, u)

    for f in range(80):
        for umax in sorted({0, 1, 5, 26, f}):  # u past floor(f/2) reads zero
            check(f, umax)
    for f in (199, 200, 201, 1000):
        check(f, 26)
    # the bound reads the same row, up to its largest size present
    rng = random.Random(33)
    for n in [rng.randint(2, 1000) for _ in range(12)] + [999, 1000]:
        top = rng.randint(1, min(n // 2, 40))
        counts = tuple(rng.randint(0, 10**6) if i < top else 0 for i in range(n // 2))
        expected = Fraction(sum(m * lambda_simple(n, i) for i, m in enumerate(counts, 1)), sigma(n))
        assert kappa_lower_bound(SizeProfile(n, counts)) == expected, (n, top)


def test_first_max_top_limb_filter_is_exact():
    # signed weights wider than the limb, top limbs that tie while the low
    # bits decide, empty rows, every score twice: first maximum and value
    rng = random.Random(16)
    branches = set()
    for trial in range(90):
        width = rng.choice([2, 5, 17, 52])
        k = rng.randint(1, 9)
        if trial % 3 == 0:  # one top limb; only the low bits differ
            bits = rng.choice([width, 3 * width + 1, 300])
            sign = rng.choice([-1, 1])
            weights = [sign * ((1 << bits) + rng.getrandbits(bits + 1 - width)) for _ in range(k)]
        else:
            bits = rng.choice([1, width, 3 * width + 1, 300])
            low = 1 if trial % 3 == 1 else -(1 << bits)  # all negative, or signed
            weights = [-rng.randint(low, 1 << bits) for _ in range(k)]
            weights[-1] = -(1 << bits)  # the most negative top limb
        cnt = [[rng.randint(0, 3) for _ in weights] for _ in range(rng.randint(1, 7))]
        cnt.insert(rng.randint(0, len(cnt)), [0] * k)  # a row holding no set
        cnt = np.repeat(np.array(cnt), 2, axis=0)  # every score occurs twice
        exact = [sum(int(c) * w for c, w in zip(row, weights)) for row in cnt]
        assert kappa._first_max(cnt, weights, width) == (exact.index(max(exact)), max(exact))
        branches.add(max(map(abs, weights)).bit_length() > width)
    assert branches == {False, True}


def _sized_collection(seed: int, n: int, m: int, largest: int) -> Collection:
    rng = random.Random(seed)
    return Collection(
        n, tuple(Subset.of(n, rng.sample(range(n), rng.randint(1, largest))) for _ in range(m))
    )


def test_find_simple_matches_count_table_search(monkeypatch):
    first_max, scored = kappa._first_max, set()

    def spy(rows, weights, width):
        scored.add((width, max(map(abs, weights), default=0).bit_length() > width))
        return first_max(rows, weights, width)

    monkeypatch.setattr(kappa, "_first_max", spy)
    cases = [(seed, n, 5 * n, n // 8) for n in (120, 121, 200, 201) for seed in (1, 2)]
    cases += [(3, 250, 600, 125), (4, 40, 1 << 14, 3)]  # wide weights; a narrower limb
    for case in cases:
        c = _sized_collection(*case)
        p, count = find_simple_permutation(c)
        q, expected = count_table_find_simple_permutation(c)
        assert p.image == q.image and count == expected, case
    assert {filtered for _, filtered in scored} == {False, True}
    assert min(width for width, _ in scored) < 62 - (5 * 201).bit_length()


def test_find_simple_matches_count_table_search_on_ties():
    # many candidates tie; with wide sets added, some steps need the top-limb filter
    rng = random.Random(17)
    for n in (40, 41, 120, 121):
        wide = [rng.sample(range(n), rng.randint(n // 8, n // 2)) for _ in range(n // 10)]
        for sets in (
            [[i] for i in range(n)],
            [[i, (i + 1) % n] for i in range(n)],
            [list(range(j, min(j + 10, n))) for j in range(0, n, 10)],
        ):
            for c in (Collection.of(n, sets), Collection.of(n, sets + wide)):
                p, count = find_simple_permutation(c)
                q, expected = count_table_find_simple_permutation(c)
                assert p.image == q.image and count == expected, (n, c.m)


def test_find_simple_refuses_collections_too_large_for_limbs():
    with pytest.raises(ValueError, match="limb width"):
        find_simple_permutation(SimpleNamespace(n=4, m=1 << 60))


def test_find_simple_self_checks_raise(tmp_path, capsys, monkeypatch):
    # the checks are explicit raises, so they also hold under python -O
    c = Collection.of(4, [[0], [1, 2]])
    f = tmp_path / "c.txt"
    f.write_text("4\n0\n1 2\n")
    # numerators inflated only at f = 4 make the first step lose expectation
    real = kappa._ratio_row

    def inflated(f, umax):
        row, den = real(f, umax)
        return [x * 10**6 if f == 4 else x for x in row], den

    monkeypatch.setattr(kappa, "_ratio_row", inflated)
    with pytest.raises(RuntimeError, match="greedy step lost expectation"):
        find_simple_permutation(c)
    assert main(["kappa", "--input", str(f)]) == 4
    assert "internal error: greedy step lost expectation" in capsys.readouterr().err
    monkeypatch.undo()
    # a bound above the number of sets cannot be met
    monkeypatch.setattr(kappa, "kappa_lower_bound", lambda p: Fraction(c.m + 1))
    with pytest.raises(RuntimeError, match="derandomization guarantee violated"):
        find_simple_permutation(c)
    assert main(["kappa", "--input", str(f)]) == 4
    assert "internal error: derandomization guarantee violated" in capsys.readouterr().err


def test_exhaustive_kappa_needs_a_candidate(monkeypatch):
    monkeypatch.setattr(kappa, "simple_permutations", lambda n: iter(()))
    with pytest.raises(RuntimeError):
        kappa.exhaustive_kappa(Collection.of(4, [[0]]), simple_only=True)
