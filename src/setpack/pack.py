"""Packings with unbounded block sizes: statistics, construction, verification.

A packing with parameters (n, c, alpha) is a family of cn-subsets of
[0, n) in which any two distinct blocks intersect in fewer than alpha*c*n
elements.  Equivalently, it is an independent set in the graph whose
vertices are all cn-subsets, adjacent when they meet in >= alpha*c*n
elements.

The explicit construction splits the ground set into 2k equal parts
(k = 1/alpha), recursively packs each part at parameter alpha/2, then
combines one sub-block per part along the lines over a prime field:
block (l, m) takes sub-block l from part 1, m from part 2 and
(l + (j-1) m) mod q from part j >= 3.  Distinct index pairs agree in at
most one coordinate, so two blocks share at most one full sub-block and
all other parts contribute strictly less than half the allowance each.

This module also derives the "no three invertible" collections: gluing a
common core K onto blocks with small pairwise intersections produces
half-size sets where every pair is invertible but no triple is.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil, comb
import random

import numpy as np

from .invert import check_triple, decide_invertible
from .setcore import Collection, Subset

DEFAULT_GREEDY_BUDGET = 200_000
DEFAULT_CHECK_LIMIT = 2_000
ROW_BLOCK_CELLS = 1 << 18  # cells of one row block of verify_packing's counts


@dataclass(frozen=True)
class PackingFamily:
    """Equal-size blocks plus the parameters they are claimed to satisfy."""

    n: int
    blocks: tuple[Subset, ...]
    declared_alpha: Fraction
    achieved_c: Fraction

    def __post_init__(self):
        sizes = {b.cardinality() for b in self.blocks}
        if len(sizes) > 1:
            raise ValueError("blocks must have equal cardinality")
        for b in self.blocks:
            if b.n != self.n:
                raise ValueError("block ground size differs from family ground size")

    @classmethod
    def of(cls, n: int, blocks, alpha) -> "PackingFamily":
        blocks = tuple(b if isinstance(b, Subset) else Subset.of(n, b) for b in blocks)
        size = blocks[0].cardinality() if blocks else 0
        return cls(n, blocks, Fraction(alpha), Fraction(size, n) if n else Fraction(0))

    @property
    def block_size(self) -> int:
        return self.blocks[0].cardinality() if self.blocks else 0


@dataclass(frozen=True)
class GraphStats:
    """Vertex count and common degree of the packing graph."""

    n: int
    cn_size: int
    alpha: Fraction
    N: int
    D: int


@dataclass(frozen=True)
class PackingReport:
    ok: bool
    pairs_checked: int
    max_intersection: int
    threshold: Fraction
    block_size: int
    distinct: bool
    worst_pair: tuple[int, int] | None = None

    def summary(self) -> str:
        verdict = "pass" if self.ok else "FAIL"
        worst = f" (blocks {self.worst_pair[0]},{self.worst_pair[1]})" if self.worst_pair else ""
        return (
            f"{verdict}: {self.pairs_checked} pairs checked, "
            f"max intersection {self.max_intersection}{worst}, threshold < {self.threshold}"
        )


def packing_graph_stats(n: int, cn_size: int, alpha) -> GraphStats:
    """Exact N = C(n, cn) and the common vertex degree D of the packing graph.

    D sums C(cn, i) C(n-cn, cn-i) over overlap sizes i >= alpha*cn and
    drops the single i = cn term that is the vertex itself.
    """
    alpha = Fraction(alpha)
    if not 0 < cn_size <= n:
        raise ValueError("need 0 < cn_size <= n")
    if not 0 < alpha <= 1:
        raise ValueError("need 0 < alpha <= 1")
    big_n = comb(n, cn_size)
    i_min = ceil(alpha * cn_size)
    total = sum(comb(cn_size, i) * comb(n - cn_size, cn_size - i) for i in range(i_min, cn_size + 1))
    d = total - 1 if i_min <= cn_size else 0
    if not 0 <= d < big_n:
        raise RuntimeError(f"degree {d} outside [0, {big_n})")
    return GraphStats(n, cn_size, alpha, big_n, d)


def verify_packing(f: PackingFamily) -> PackingReport:
    """Exhaustive pairwise check of a family against its declared alpha.

    Passes iff blocks are distinct, equal-sized, and every pairwise
    intersection is strictly below alpha * block_size.  The check counts
    over each block's own points: with by_point[x] the 0/1 row of the
    blocks holding point x, block i meets the later blocks in the sum of
    by_point[x] over the points x of i.  The upper triangle is taken in
    row blocks of about ROW_BLOCK_CELLS cells, so the cost is about
    count**2 * size / 2 byte additions.  Memory peaks at two n x count
    byte arrays while the 0/1 rows are transposed; the loop then holds
    the transpose, each block's point indices and one row block.  The
    counts are integers in the smallest unsigned type that holds
    block_size, so they are exact for every n.
    worst_pair is the lexicographically first pair reaching the maximum.
    """
    size = f.block_size
    threshold = f.declared_alpha * size
    count = len(f.blocks)
    distinct = len({b.bits for b in f.blocks}) == count
    if count < 2:
        return PackingReport(distinct, 0, 0, threshold, size, distinct)

    width = (f.n + 7) // 8
    packed = b"".join(b.bits.to_bytes(width, "little") for b in f.blocks)
    rows = np.frombuffer(packed, np.uint8).reshape(count, width)
    bits = np.unpackbits(rows, axis=1, count=f.n, bitorder="little").view(bool)
    points = (np.flatnonzero(bits) % f.n).reshape(count, size)  # row i: block i's points
    del bits  # freed before the transpose is built: 20 MB less peak RSS on pack-grid
    # by_point[x, j] = 1 iff block j holds point x: the packed bytes are
    # transposed, then each byte's 8 bits go to 8 consecutive rows (5x
    # faster than transposing the unpacked rows)
    by_point = np.unpackbits(np.ascontiguousarray(rows.T), axis=1, bitorder="little")
    by_point = by_point.reshape(width, count, 8).transpose(0, 2, 1).reshape(8 * width, count)[: f.n]
    acc_type = np.min_scalar_type(size)  # no count exceeds size
    max_int, worst = -1, None
    start = 0
    while start < count - 1:
        cols = count - start - 1  # column c is block start + 1 + c
        stop = min(count - 1, start + max(1, ROW_BLOCK_CELLS // cols))
        acc = np.zeros((stop - start, cols), acc_type)
        # a row block below the budget gathers several points at once, so
        # each pass adds about ROW_BLOCK_CELLS cells however few blocks
        # there are: the pass count follows the work, not the block size
        step = max(1, ROW_BLOCK_CELLS // acc.size)
        for t in range(0, size, step):
            gathered = by_point[points[start:stop, t:t + step], start + 1:]
            acc += gathered[:, 0] if step == 1 else gathered.sum(axis=1, dtype=acc_type)
        # j <= i: a 0 there never comes first, as row 0 has no such cell
        acc[:, : stop - start][np.tri(stop - start, k=-1, dtype=bool)] = 0
        flat = int(acc.argmax())
        if acc.flat[flat] > max_int:
            max_int = int(acc.flat[flat])
            worst = (start + flat // cols, start + 1 + flat % cols)
        start = stop
    pairs = count * (count - 1) // 2
    ok = distinct and Fraction(max_int) < threshold
    return PackingReport(ok, pairs, max_int, threshold, size, distinct, worst)


@dataclass(frozen=True)
class LevelTrace:
    """Construction record for one recursion level (sub levels nested)."""

    requested_n: int
    used_n: int
    alpha: Fraction
    base: bool
    fallback: bool
    parts: int
    q: int | None
    coefficients: tuple[int, ...]
    constituents: tuple[tuple[int, ...], ...] | None
    size: int
    block_size: int
    report: PackingReport  # verify_packing of this level's family
    sub: "LevelTrace | None"


def _largest_prime_at_most(x: int) -> int | None:
    for q in range(x, 1, -1):
        if all(q % d for d in range(2, int(q**0.5) + 1)):
            return q
    return None


def _construct(n: int, k: int) -> tuple[PackingFamily, LevelTrace]:
    alpha = Fraction(1, k)
    if n * alpha <= 4:  # base: n singleton blocks
        family = PackingFamily(
            n, tuple(Subset(n, 1 << x) for x in range(n)), alpha, Fraction(1, n)
        )
        report = verify_packing(family)
        if not report.ok:
            raise RuntimeError("singleton base family fails its own check")
        trace = LevelTrace(n, n, alpha, True, False, 0, None, (), None, n, 1, report, None)
        return family, trace

    parts = 2 * k
    sub_family, sub_trace = _construct(n // parts, 2 * k)
    p = sub_family.n
    ordered = sorted(sub_family.blocks, key=lambda b: tuple(b.elements()))
    q = _largest_prime_at_most(len(ordered))
    if q is None or q <= parts:
        # no usable prime: stop the recursion here and hand back the
        # sub-family, which satisfies the stricter alpha/2 and hence alpha
        family = PackingFamily(p, sub_family.blocks, alpha, sub_family.achieved_c)
        report = verify_packing(family)
        if not report.ok:
            raise RuntimeError("fallback family fails its own check")
        trace = LevelTrace(
            n, p, alpha, False, True, parts, None, (), None,
            len(sub_family.blocks), sub_family.block_size, report, sub_trace,
        )
        return family, trace

    coeffs = tuple(j - 1 for j in range(3, parts + 1))
    sub_bits = [b.bits for b in ordered[:q]]
    blocks = []
    constituents = []
    for l in range(q):
        for m in range(q):
            idx = (l, m) + tuple((l + a * m) % q for a in coeffs)
            bits = 0
            for part, i in enumerate(idx):
                bits |= sub_bits[i] << (part * p)
            blocks.append(Subset(parts * p, bits))
            constituents.append(idx)

    used_n = parts * p
    block_size = parts * sub_family.block_size
    family = PackingFamily(used_n, tuple(blocks), alpha, Fraction(block_size, used_n))
    report = verify_packing(family)
    if not report.ok:
        raise RuntimeError(f"constructed family fails its own check: {report.summary()}")
    trace = LevelTrace(
        n, used_n, alpha, False, False, parts, q, coeffs,
        tuple(constituents), len(blocks), block_size, report, sub_trace,
    )
    return family, trace


def construct_packing_traced(n: int, alpha) -> tuple[PackingFamily, LevelTrace]:
    """Recursive product construction, returning the per-level build record.

    The ground size actually used (a divisibility shrink of n) is reported
    as the family's n and in the trace.
    """
    alpha = Fraction(alpha)
    if n < 1:
        raise ValueError("n must be positive")
    if alpha.numerator != 1 or alpha.denominator < 1:
        raise ValueError("1/alpha must be a positive integer")
    return _construct(n, alpha.denominator)


def construct_packing(n: int, alpha) -> PackingFamily:
    family, _ = construct_packing_traced(n, alpha)
    return family


def shared_constituent_violations(trace: LevelTrace) -> int:
    """Pairs of blocks (over all levels) sharing two or more constituent
    sub-blocks.  Zero for every family this module constructs: distinct
    index pairs solve l + a m = l' + a m' for at most one coefficient.
    Each coordinate pair is one bincount of its index pairs."""
    violations = 0
    node: LevelTrace | None = trace
    while node is not None:
        if node.constituents:
            t = np.array(node.constituents)
            q = int(t.max()) + 1
            for c1, c2 in combinations(range(t.shape[1]), 2):
                counts = np.bincount(t[:, c1] * q + t[:, c2])
                violations += int((counts * (counts - 1) // 2).sum())
        node = node.sub
    return violations


def greedy_independent_set(n: int, cn_size: int, alpha, budget: int = DEFAULT_GREEDY_BUDGET) -> PackingFamily:
    """First-fit scan of all cn-subsets in lexicographic order.

    Keeps a subset when it meets every kept block in fewer than
    alpha*cn_size elements.  The result is a maximal independent set of a
    D-regular graph, so its size is at least N/(D+1); that floor is
    asserted whenever alpha <= 1 (above 1 nothing ever collides).
    """
    alpha = Fraction(alpha)
    if not 0 < cn_size <= n:
        raise ValueError("need 0 < cn_size <= n")
    if comb(n, cn_size) > budget:
        raise ValueError(f"C({n},{cn_size}) exceeds enumeration budget {budget}")
    num, den = alpha.numerator, alpha.denominator
    kept: list[int] = []
    for combo in combinations(range(n), cn_size):
        bits = 0
        for x in combo:
            bits |= 1 << x
        if all(den * (bits & kb).bit_count() < num * cn_size for kb in kept):
            kept.append(bits)
    family = PackingFamily(
        n, tuple(Subset(n, b) for b in kept), alpha, Fraction(cn_size, n)
    )
    if alpha <= 1:
        stats = packing_graph_stats(n, cn_size, alpha)
        if len(kept) * (stats.D + 1) < stats.N:
            raise RuntimeError("greedy fell below the independence floor")
    return family


def residue_family(n: int, k: int, budget: int = DEFAULT_GREEDY_BUDGET) -> PackingFamily:
    """Default residue blocks for no_three_invertible_family: k-subsets of
    the last n/2 + k elements with pairwise intersections below k/3."""
    if n % 2 or not 1 <= k < n // 2:
        raise ValueError("need even n and 1 <= k < n/2")
    head = n // 2 - k
    window = greedy_independent_set(n - head, k, Fraction(1, 3), budget)
    blocks = tuple(Subset(n, b.bits << head) for b in window.blocks)
    return PackingFamily(n, blocks, Fraction(1, 3), Fraction(k, n))


def no_three_invertible_family(
    n: int, k: int, rs: PackingFamily, check_limit: int = DEFAULT_CHECK_LIMIT
) -> Collection:
    """Half-size sets S_i = K + R_i with no invertible 3-subcollection.

    K is the first n/2 - k elements; the residue blocks R_i are k-subsets
    of the remaining positions whose pairwise intersections stay below
    k/3.  Every pair of the S_i is invertible (two half-size sets always
    are) while the common core forces |S1^S2^S3| > |~S1^~S2^~S3| for any
    triple, violating a necessary condition for invertibility.  Triples
    (and pairs) are re-verified on construction, exhaustively when their
    number is within check_limit and on a seeded sample otherwise.
    """
    if n % 2:
        raise ValueError("ground size must be even")
    if not 1 <= k < n // 2:
        raise ValueError("need 1 <= k < n/2")
    head = n // 2 - k
    head_bits = (1 << head) - 1
    if rs.n != n:
        raise ValueError("residue family must live on the same ground set")
    for i, b in enumerate(rs.blocks):
        if b.cardinality() != k:
            raise ValueError(f"residue block {i} does not have cardinality {k}")
        if b.bits & head_bits:
            raise ValueError(f"residue block {i} intrudes into the core [0, {head})")
    for (i, b1), (j, b2) in combinations(enumerate(rs.blocks), 2):
        if 3 * (b1.bits & b2.bits).bit_count() >= k:
            raise ValueError(f"residue blocks {i},{j} intersect in >= k/3 elements")

    col = Collection(n, tuple(Subset(n, head_bits | b.bits) for b in rs.blocks))
    m = len(col.sets)

    def chosen(pool: list, limit: int) -> list:
        if len(pool) <= limit:
            return pool
        return random.Random(0).sample(pool, limit)

    for i, j, t in chosen(list(combinations(range(m), 3)), check_limit):
        sub = Collection(n, (col.sets[i], col.sets[j], col.sets[t]))
        if check_triple(sub):
            raise RuntimeError(f"triple ({i},{j},{t}) unexpectedly satisfies the condition")
    for i, j in chosen(list(combinations(range(m), 2)), check_limit):
        sub = Collection(n, (col.sets[i], col.sets[j]))
        if not decide_invertible(sub).invertible:
            raise RuntimeError(f"pair ({i},{j}) unexpectedly fails to invert")
    return col


def serialize_family(f: PackingFamily) -> str:
    from .setcore import serialize_collection

    header = (
        f"packing n={f.n} alpha={f.declared_alpha.numerator}/{f.declared_alpha.denominator} "
        f"c={f.achieved_c.numerator}/{f.achieved_c.denominator}"
    )
    return serialize_collection(Collection(f.n, f.blocks), [header])


def parse_family(text: str, alpha=None) -> PackingFamily:
    """Read a family file; alpha comes from the argument or the header comment."""
    from .setcore import parse_collection

    declared = Fraction(alpha) if alpha is not None else None
    if declared is None:
        for line in text.splitlines():
            if line.startswith("# packing"):
                for token in line.split():
                    if token.startswith("alpha="):
                        declared = Fraction(token[len("alpha="):])
    if declared is None:
        raise ValueError("no alpha given and none found in the file header")
    col = parse_collection(text)
    size = col.sets[0].cardinality() if col.sets else 0
    return PackingFamily(col.n, col.sets, declared, Fraction(size, col.n) if col.n else Fraction(0))
