"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.
"""
import random
import time
from fractions import Fraction
from itertools import combinations
from math import ceil, comb

from setpack import (
    Collection,
    SizeProfile,
    Subset,
    check_triple,
    decide_invertible,
    exhaustive_kappa,
    find_simple_permutation,
    inversion_assisted_blocking,
    inverts,
    is_square_blocking,
    kappa_lower_bound,
    lambda_simple,
    lower_bound_T,
    optimal_c,
    packing_graph_stats,
    recursive_blocking_set,
    sigma,
    upper_bound_entropy,
    verify_packing,
)
from setpack.kappa import simple_permutations
from setpack.pack import (
    construct_packing_traced,
    no_three_invertible_family,
    residue_family,
    shared_constituent_violations,
)

from oracles import brute_force_invertible, naive_no_three_checks, naive_simple_permutations, random_collection


def report(criterion: int, ok: bool, detail: str):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_matching_oracle_equivalence():
    t0 = time.time()
    checked = 0
    mismatches = 0
    for n in range(1, 7):
        subsets = list(range(1 << n))
        for m in range(0, 4):
            for combo in combinations(subsets, m):
                c = Collection(n, tuple(Subset(n, b) for b in combo))
                if decide_invertible(c).invertible != (
                    brute_force_invertible(c) is not None
                ):
                    mismatches += 1
                checked += 1
    rng = random.Random(101)
    for _ in range(1000):
        n = rng.randint(1, 8)
        c = random_collection(rng, n, rng.randint(0, 5), allow_empty=True)
        if decide_invertible(c).invertible != (brute_force_invertible(c) is not None):
            mismatches += 1
        checked += 1
    elapsed = time.time() - t0
    report(
        1,
        mismatches == 0 and elapsed < 60,
        f"{checked} collections (exhaustive n<=6 m<=3 + 1000 random), "
        f"{mismatches} discrepancies, {elapsed:.1f}s",
    )


def test_criterion_02_triple_condition():
    t0 = time.time()
    rng = random.Random(102)
    mismatches = 0
    for _ in range(2000):
        n = rng.choice([4, 6, 8])
        k = rng.randint(1, n // 2)
        c = Collection(
            n, tuple(Subset.of(n, rng.sample(range(n), k)) for _ in range(3))
        )
        if check_triple(c) != (brute_force_invertible(c) is not None):
            mismatches += 1
    elapsed = time.time() - t0
    report(
        2,
        mismatches == 0 and elapsed < 60,
        f"2000 random equal-size triples, {mismatches} discrepancies, {elapsed:.1f}s",
    )


def test_criterion_03_counting_formulas():
    bad = []
    for n in range(0, 9):
        perms = naive_simple_permutations(n)
        if sigma(n) != len(perms):
            bad.append(("sigma", n))
        for i in range(0, n + 1):
            expected = lambda_simple(n, i)
            for combo in combinations(range(n), i):
                s = Subset.of(n, combo)
                if sum(1 for p in perms if inverts(p, s)) != expected:
                    bad.append(("lambda", n, i, combo))
    rng = random.Random(103)
    for _ in range(100):
        n = rng.randint(1, 7)
        c = random_collection(rng, n, rng.randint(0, 5))
        total = sum(
            sum(1 for s in c.sets if inverts(p, s)) for p in simple_permutations(n)
        )
        profile = SizeProfile.from_collection(c)
        expected = sum(
            m * lambda_simple(n, i) for i, m in enumerate(profile.counts, start=1)
        )
        if total != expected:
            bad.append(("double-counting", n))
    report(
        3,
        not bad,
        f"sigma/lambda vs enumeration for n<=8 plus 100 double-counting checks; "
        f"failures: {bad[:3]}",
    )


def test_criterion_04_derandomization_guarantee():
    t0 = time.time()
    rng = random.Random(104)
    failures = 0
    for _ in range(500):
        n = rng.randint(1, 20)
        c = random_collection(rng, n, rng.randint(0, 3 * n // 2 + 1), allow_empty=True)
        p, count = find_simple_permutation(c)
        bound = kappa_lower_bound(SizeProfile.from_collection(c))
        if count < ceil(bound) or count != sum(1 for s in c.sets if inverts(p, s)):
            failures += 1
        if n <= 8:
            _, best = exhaustive_kappa(c, simple_only=True)
            if count > best:
                failures += 1
    elapsed = time.time() - t0
    report(
        4,
        failures == 0 and elapsed < 300,
        f"500 random collections n<=20, {failures} guarantee violations, {elapsed:.1f}s",
    )


def test_criterion_05_full_profile_identity():
    bad = [
        n
        for n in range(2, 41)
        if kappa_lower_bound(SizeProfile.full(n)) != 3 ** (n // 2) - 1
    ]
    report(5, not bad, f"bound == 3^floor(n/2)-1 exactly for n=2..40; failures: {bad}")


SWEEP = [
    (4, Fraction(1, 1)),
    (9, Fraction(1, 1)),
    (40, Fraction(1, 1)),
    (56, Fraction(1, 1)),
    (8, Fraction(1, 2)),
    (10, Fraction(1, 2)),
    (20, Fraction(1, 2)),
    (24, Fraction(1, 2)),
    (28, Fraction(1, 2)),
    (30, Fraction(1, 2)),
    (64, Fraction(1, 2)),
    (268, Fraction(1, 2)),
    (100, Fraction(1, 4)),
    (152, Fraction(1, 4)),
    (248, Fraction(1, 4)),
    (1024, Fraction(1, 8)),
    (2000, Fraction(1, 16)),
]


def test_criterion_06_packing_construction():
    t0 = time.time()
    fam, trace = construct_packing_traced(28, Fraction(1, 2))
    rep = verify_packing(fam)
    ok = (
        len(fam.blocks) == 49
        and fam.block_size == 4
        and rep.ok
        and rep.max_intersection == 1
    )
    details = [f"construct(28,1/2): 49 blocks, max intersection {rep.max_intersection}"]
    total_violations = 0
    for n, alpha in SWEEP:
        # constructions self-verify at every level; check block sharing here
        _, tr = construct_packing_traced(n, alpha)
        total_violations += shared_constituent_violations(tr)
    elapsed = time.time() - t0
    details.append(
        f"{len(SWEEP)} constructions up to n=2000, "
        f"{total_violations} shared-constituent violations, {elapsed:.1f}s"
    )
    report(6, ok and total_violations == 0 and elapsed < 30, "; ".join(details))


def test_criterion_07_no_three_family():
    exceptions = 0
    cases = 0
    for n, k in [(12, 3), (8, 1), (8, 2), (10, 2), (12, 2), (14, 3), (16, 3), (16, 5)]:
        col = no_three_invertible_family(n, k, residue_family(n, k))
        cases += comb(col.m, 3) + comb(col.m, 2)
        exceptions += len(naive_no_three_checks(col))
    report(
        7,
        exceptions == 0,
        f"{cases} sub-collections across 8 families (n<=16): "
        f"every triple blocked, every pair invertible, {exceptions} exceptions",
    )


# Root of the optimality equation at alpha = 1/3, from a 40-digit bisection
# (mpmath) of the equation below; the paper prints 0.082508, which does not
# solve it (see README, "Known deviations").
OPTIMAL_C_THIRD = 0.0822194
PRINTED_OPTIMAL_C_THIRD = 0.082508


def _optimality_sides(c: float, alpha: float) -> tuple[float, float]:
    """Both sides of alpha^a (1-a)^(2(1-a)) (1-c)^2 = c^a (1-2c+a*c)^(2-a)."""
    lhs = alpha**alpha * (1 - alpha) ** (2 * (1 - alpha)) * (1 - c) ** 2
    rhs = c**alpha * (1 - 2 * c + alpha * c) ** (2 - alpha)
    return lhs, rhs


def _optimality_gap(c: float, alpha: float) -> float:
    lhs, rhs = _optimality_sides(c, alpha)
    return lhs - rhs


def test_criterion_08_reference_numerics():
    c_star = optimal_c(1 / 3)
    lhs, rhs = _optimality_sides(c_star, 1 / 3)
    log_star, base = lower_bound_T(c_star, 1 / 3)
    sub = []
    sub.append(
        (f"optimal_c(1/3) = {OPTIMAL_C_THIRD} +- 1e-6", abs(c_star - OPTIMAL_C_THIRD) <= 1e-6)
    )
    sub.append(
        ("optimality equation holds at optimal_c(1/3) to 1e-9", abs(lhs - rhs) <= 1e-9 * rhs)
    )
    sub.append(
        (
            "optimality equation changes sign from + to - across optimal_c(1/3) +- 1e-6",
            _optimality_gap(c_star - 1e-6, 1 / 3) > 0 > _optimality_gap(c_star + 1e-6, 1 / 3),
        )
    )
    sub.append(
        (
            f"bound at optimal_c(1/3) >= bound at printed {PRINTED_OPTIMAL_C_THIRD}",
            log_star >= lower_bound_T(PRINTED_OPTIMAL_C_THIRD, 1 / 3)[0],
        )
    )
    sub.append(("base at optimum = 1.0245 +- 5e-4", abs(base - 1.0245) <= 5e-4))
    ub1 = upper_bound_entropy(0.0825, 1 / 3)
    sub.append(("entropy bound base(0.0825) = 1.0655 +- 5e-4", abs(ub1.base - 1.0655) <= 5e-4))
    ub2 = upper_bound_entropy(0.1476, 1 / 3)
    sub.append(("entropy bound base(0.1476) = 1.0766 +- 5e-4", abs(ub2.base - 1.0766) <= 5e-4))
    failed = [name for name, ok in sub if not ok]
    report(
        8,
        not failed,
        f"{len(sub) - len(failed)}/{len(sub)} reference checks hold"
        + (
            f"; failed: {failed} (computed optimal_c = {c_star:.10f}, equation sides "
            f"{lhs:.12g} vs {rhs:.12g}; the root is {OPTIMAL_C_THIRD})"
            if failed
            else ""
        ),
    )


def test_criterion_09_degree_accounting():
    st = packing_graph_stats(8, 2, Fraction(1, 2))
    # explicit graph: all 2-subsets of [0,8), adjacency = intersection >= 1
    verts = [set(c) for c in combinations(range(8), 2)]
    degrees = {sum(1 for w in verts if w is not v and v & w) for v in verts}
    ok = st.N == 28 and st.D == 12 and len(verts) == 28 and degrees == {12}
    report(9, ok, f"N={st.N}, D={st.D}; explicit graph degree set {degrees}")


def test_criterion_10_hypercube_blocking():
    t0 = time.time()
    problems = []
    sizes = {}
    for n in range(2, 8):
        m = recursive_blocking_set(n)
        sizes[n] = len(m)
        if not is_square_blocking(m):
            problems.append(f"n={n} not blocking")
        if len(m) > (n - 1) * (1 << (n - 2)):
            problems.append(f"n={n} over ceiling")
    if sizes[2] != 1:
        problems.append("|M_2| != 1")
    saved_total = 0
    for n in range(3, 8):
        assisted, saved = inversion_assisted_blocking(n)
        saved_total += saved
        if not is_square_blocking(assisted):
            problems.append(f"assisted n={n} not blocking")
        if len(assisted) > len(recursive_blocking_set(n)):
            problems.append(f"assisted n={n} larger than plain")
    elapsed = time.time() - t0
    report(
        10,
        not problems and elapsed < 120,
        f"sizes {sizes}, assisted savings total {saved_total} (reported, not asserted), "
        f"{elapsed:.1f}s; problems: {problems}",
    )


def test_criterion_11_asymptotic_properties():
    # size-squaring per level, with equality when no prime rounding occurred
    squaring_ok = True
    for n, alpha in SWEEP:
        _, trace = construct_packing_traced(n, alpha)
        node = trace
        while node is not None and node.sub is not None:
            if not node.fallback:
                if node.size > node.sub.size**2:
                    squaring_ok = False
                if node.q == node.sub.size and node.size != node.sub.size**2:
                    squaring_ok = False
            node = node.sub
    # bound consistency on the 50-point grid
    violations = 0
    for i in range(50):
        c = 0.01 + i * (0.33 - 0.01) / 49
        log_lower, _ = lower_bound_T(c, 1 / 3)
        if log_lower > upper_bound_entropy(c, 1 / 3).log_per_n + 1e-9:
            violations += 1
    report(
        11,
        squaring_ok and violations == 0,
        f"size-squaring recurrence holds on the sweep; "
        f"lower<=upper on 50-point grid with {violations} violations",
    )
