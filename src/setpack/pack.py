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
A product level is certified by that proof and a check of its q sub-blocks.
So is a family file in the construction's own block order: one gather, by
the construction's table, of the q sub-blocks in part 1 of its (l, 0)
blocks must reproduce every block.  Another product file is certified by
its blocks' structure, and any other family is checked pair by pair.
A family is a Collection of its blocks, held as their incidence record,
with the alpha it claims.  A product level's record is one gather from
the sub-family's point matrix, so no block is ever a Python int; the
level's LevelTrace keeps the construction's choices and derives the rest.

This module also derives the "no three invertible" collections: gluing a
common core K onto blocks with small pairwise intersections produces
half-size sets where every pair is invertible but no triple is.  The
packing check of the blocks proves both claims, for every pair and triple.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import ceil, comb, isqrt
import re

import numpy as np

from .setcore import Collection, FormatError, Incidence, Subset, parse_collection, serialize_collection

DEFAULT_GREEDY_BUDGET = 200_000
ROW_BLOCK_CELLS = 1 << 18  # cells of one row block of _max_pair's counts
_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # where str.splitlines ends a line


class PackingFamily(Collection):
    """Equal-size blocks (the sets, as Subsets or a record) plus the alpha
    they are claimed to satisfy."""

    def __init__(self, n: int, blocks, declared_alpha: Fraction):
        super().__init__(n, blocks)
        self.__dict__["declared_alpha"] = declared_alpha
        if np.unique(np.diff(self.incidence.indptr)).size > 1:
            raise ValueError("blocks must have equal cardinality")

    def _key(self) -> tuple:
        return super()._key() + (self.declared_alpha,)

    def __repr__(self):
        return f"{super().__repr__()[:-1]}, declared_alpha={self.declared_alpha!r})"

    @classmethod
    def of(cls, n: int, blocks, alpha) -> "PackingFamily":
        return cls(n, Collection.of(n, blocks).incidence, Fraction(alpha))

    @property
    def blocks(self) -> tuple[Subset, ...]:
        return self.sets

    @property
    def block_size(self) -> int:
        return int(self.incidence.indptr[1]) if self.m else 0

    @property
    def achieved_c(self) -> Fraction:
        return Fraction(self.block_size, self.n) if self.n else Fraction(0)


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
    """Exact report of a family against its declared alpha.

    Passes iff blocks are distinct, equal-sized, and every pairwise
    intersection is strictly below alpha * block_size; worst_pair is the
    lexicographically first pair reaching the maximum.  A product family
    gets its report from _structure_report in about O(count * size): one
    in the construction's own order from one gather of its first
    sub-blocks and the build's proof, any other by renumbering its
    sub-blocks.  Every other family gets it from _max_pair over the points
    of its incidence record."""
    certified = _structure_report(f)
    if certified is not None:
        return certified
    size = f.block_size
    threshold = f.declared_alpha * size
    count = f.m
    if count < 2:
        return PackingReport(True, 0, 0, threshold, size, True)
    points = f.incidence.elements.reshape(count, size)
    distinct = len(np.unique(points, axis=0)) == count
    max_int, worst = _max_pair(points, f.n)
    pairs = count * (count - 1) // 2
    ok = distinct and Fraction(max_int) < threshold
    return PackingReport(ok, pairs, max_int, threshold, size, distinct, worst)


def _max_pair(points: np.ndarray, n: int) -> tuple[int, tuple[int, int]]:
    """Largest intersection of two of count >= 2 blocks on [0, n), and the
    first pair reaching it; row i of points holds block i's points.  Block
    i meets the later blocks in the sum of the 0/1 rows by_point[x] of its
    points x: count**2 * size / 2 byte additions, exact in the smallest
    unsigned type that holds size, in row blocks of ROW_BLOCK_CELLS cells."""
    count, size = points.shape
    by_point = np.zeros((n, count), np.uint8)
    by_point[points, np.arange(count)[:, None]] = 1
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
    return max_int, worst


def _structure_report(f: PackingFamily) -> PackingReport | None:
    """The report of a product family, read off its record, or None.  Each
    block holds s = size/parts points in each of parts = 2/alpha intervals,
    a sub-block, shifted to 0 and indexed per interval.  A family in the
    construction's own order is its q sub-blocks gathered by the
    construction's table (_construction_report).  Any other: if no two
    blocks' index tuples agree twice, they are distinct and any two meet in
    at most U = s + (parts-1)*sub_max points, sub_max over all intervals'
    sub-blocks."""
    alpha, size, count = f.declared_alpha, f.block_size, f.m
    parts = 2 * alpha.denominator
    if alpha.numerator != 1 or not size or count < 2 or f.n % parts or size % parts:
        return None
    p, s = f.n // parts, size // parts
    points = f.incidence.elements.reshape(count, size)
    starts = np.arange(parts) * p
    # a block's points are sorted: numbers j*s .. (j+1)*s - 1 lie in interval j
    if (points[:, ::s] < starts).any() or (points[:, s - 1::s] >= starts + p).any():
        return None
    report = _construction_report(f, points)
    width = p.bit_length()
    per = (63 - (count * parts).bit_length()) // width  # points per int64 key beside a class
    if report or per < 1:
        return report
    # each sub-block's class, first its interval, refined by one point at a
    # time and renumbered in order by an exact sort before its key overflows
    index = np.arange(count * parts) % parts
    for t in range(s):
        index = index << width | (points[:, t::s] - starts).ravel()
        if t % per == per - 1 or t == s - 1:
            index = np.unique(index, return_inverse=True)[1]
    at = np.empty(int(index.max()) + 1, np.intp)  # one sub-block of each class
    at[index] = np.arange(index.size)
    index = index.reshape(count, parts)
    index -= index.min(axis=0)  # each interval's sub-blocks numbered from 0
    # a product over q sub-blocks per interval has count = q**2 blocks:
    # more make each bincount outgrow the blocks it counts
    if (int(index.max()) + 1) ** 2 > parts * count or _shared_pairs(index):
        return None
    sub_points = np.unique(points.reshape(-1, s)[at] - starts[at % parts, None], axis=0)  # their union
    bound = _product_bound(sub_points, p, parts)
    return _witness_report(f, bound) if bound < alpha * size else None


def _construction_report(f: PackingFamily, points: np.ndarray) -> PackingReport | None:
    """The report of q*q blocks in the construction's own order, or None.
    Its sub-blocks S are part 0 of the (l, 0) blocks, rows l*q: block
    l*q + m must be S[constituent_table(q, coefficients)] shifted into the
    parts, compared in row blocks of ROW_BLOCK_CELLS cells, and S must
    pass the product proof the build checks (_proof_fault)."""
    count, size = points.shape
    parts, q = 2 * f.declared_alpha.denominator, isqrt(count)
    if q * q != count:
        return None
    subs, coeffs = points[::q, : size // parts], _coefficients(parts)
    bound, fault = _proof_fault(f, subs, q, coeffs)
    if fault:
        return None
    starts = np.arange(parts)[:, None] * (f.n // parts)
    step = max(1, ROW_BLOCK_CELLS // size)
    for start in range(0, count, step):
        stop = min(count, start + step)
        gathered = subs[constituent_table(q, coeffs, start, stop)]  # [block][part][point]
        gathered += starts
        if not np.array_equal(gathered.reshape(stop - start, size), points[start:stop]):
            return None
    return _witness_report(f, bound)


def _product_bound(subs: np.ndarray, p: int, parts: int) -> int:
    """U = s + (parts-1)*sub_max over the sub-blocks subs, rows of s points of [0, p)."""
    return subs.shape[1] + (parts - 1) * _max_pair(subs, p)[0]


def _witness_report(f: PackingFamily, bound: int) -> PackingReport | None:
    """The exact report of distinct blocks meeting in at most bound < alpha *
    block_size points, if blocks 0 and 1, the first pair, reach it."""
    size = f.block_size
    first, second = f.incidence.elements[: 2 * size].reshape(2, size)
    if np.intersect1d(first, second, assume_unique=True).size != bound:
        return None
    return PackingReport(True, comb(f.m, 2), bound, f.declared_alpha * size, size, True, (0, 1))


@dataclass(frozen=True)
class LevelTrace:
    """Construction record for one recursion level (sub levels nested):
    the prime q and coefficients of a product level (None and () on base
    and fallback levels), the block count, the level's check (the
    certificate's or verify_packing's report) and the sub-level.  Derived:
    a base level has no sub-level, a fallback level no q; a product level
    has len(coefficients) + 2 parts and constituent_table(q, coefficients);
    the block size is report.block_size."""

    requested_n: int
    used_n: int
    alpha: Fraction
    q: int | None
    coefficients: tuple[int, ...]
    size: int
    report: PackingReport
    sub: "LevelTrace | None"

    @property
    def fallback(self) -> bool:
        return self.sub is not None and self.q is None


def constituent_table(q: int, coeffs, start: int = 0, stop: int | None = None) -> np.ndarray:
    """int64 (q*q, parts) table, or its rows start .. stop - 1: row l*q + m
    holds the sub-block index each part takes for block (l, m), namely l,
    m and (l + a*m) mod q for each coefficient a."""
    l, m = np.divmod(np.arange(start, q * q if stop is None else stop), q)
    return np.stack([l, m] + [(l + a * m) % q for a in coeffs], axis=1)


def _coefficients(parts: int) -> tuple[int, ...]:
    """The construction's coefficients: part j >= 3 takes (l + (j-1) m) mod q."""
    return tuple(range(2, parts))


def _is_prime(q: int) -> bool:
    return q > 1 and all(q % d for d in range(2, isqrt(q) + 1))


def _largest_prime_at_most(x: int) -> int | None:
    return next((q for q in range(x, 1, -1) if _is_prime(q)), None)


def _proof_fault(family: PackingFamily, subs: np.ndarray, q: int, coeffs) -> tuple[int, str | None]:
    """U = _product_bound(subs) for the product of the q sub-blocks subs by
    constituent_table(q, coeffs), and the first condition of its proof that
    fails, or None: blocks from distinct index pairs agree in at most one
    coordinate if q is a prime above parts and the coefficients are
    distinct in [2, q), so they are distinct and meet in at most U points,
    which must be below the threshold."""
    parts = len(coeffs) + 2
    threshold = family.declared_alpha * family.block_size
    bound = _product_bound(subs, family.n // parts, parts)
    for failed, why in (
        (not (_is_prime(q) and q > parts), f"q = {q} is not a prime above {parts}"),
        (len(set(coeffs)) < len(coeffs) or not all(2 <= a < q for a in coeffs),
         f"coefficients {coeffs} are not distinct in [2, {q})"),
        (not bound < threshold, f"U = {bound} is not below the threshold {threshold}"),
    ):
        if failed:
            return bound, why
    return bound, None


def _certified_report(family: PackingFamily, subs: np.ndarray, q: int, coeffs) -> PackingReport:
    """The report verify_packing gives a product level, from its proof
    (_proof_fault), subs the q sub-blocks it takes.  Blocks 0 and 1
    (coordinates all 0, and 0, 1, ..., parts-1) are the witness:
    _witness_report gives the report, or else verify_packing."""
    bound, fault = _proof_fault(family, subs, q, coeffs)
    if fault:
        raise RuntimeError(f"constructed family fails its certificate: {fault}")
    return _witness_report(family, bound) or verify_packing(family)


def _construct(n: int, k: int) -> tuple[PackingFamily, LevelTrace]:
    """One level: the base's singletons, or each product block as one gather
    of sub-blocks from the sub-family's point matrix, shifted into parts."""
    alpha = Fraction(1, k)
    q, coeffs, sub_trace = None, (), None
    if n * alpha <= 4:  # base: n singleton blocks
        kind, family = "singleton base", PackingFamily(n, Incidence(n, np.arange(n + 1), np.arange(n)), alpha)
    else:
        parts = 2 * k
        sub_family, sub_trace = _construct(n // parts, 2 * k)
        p = sub_family.n
        sub = sub_family.incidence.elements.reshape(sub_family.m, -1)
        ordered = sub[np.lexsort(sub.T[::-1])]  # the sub-blocks in lexicographic order
        prime = _largest_prime_at_most(len(ordered))
        if prime is None or prime <= parts:
            # no usable prime: stop the recursion here and hand back the
            # sub-family, which satisfies the stricter alpha/2 and hence alpha
            kind, family = "fallback", PackingFamily(p, sub_family.incidence, alpha)
        else:
            q, coeffs = prime, _coefficients(parts)
            points = ordered[:q][constituent_table(q, coeffs)]  # [block][part][point]
            points += (np.arange(parts) * p)[:, None]
            record = Incidence(parts * p, np.arange(q * q + 1) * points[0].size, points.reshape(-1))
            kind, family = "constructed", PackingFamily(parts * p, record, alpha)
    report = verify_packing(family) if q is None else _certified_report(family, ordered[:q], q, coeffs)
    if not report.ok:
        raise RuntimeError(f"{kind} family fails its own check: {report.summary()}")
    return family, LevelTrace(n, family.n, alpha, q, coeffs, family.m, report, sub_trace)


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
    return construct_packing_traced(n, alpha)[0]


def shared_constituent_violations(trace: LevelTrace) -> int:
    """Pairs of blocks (over all levels) sharing two or more constituent
    sub-blocks, once per pair of shared coordinates.  Zero for every family
    built here: distinct index pairs solve l + a m = l' + a m' for <= 1 a."""
    violations = 0
    node: LevelTrace | None = trace
    while node is not None:
        if node.q is not None:
            violations += _shared_pairs(constituent_table(node.q, node.coefficients))
        node = node.sub
    return violations


def _shared_pairs(table: np.ndarray) -> int:
    """Pairs of rows of a table of ints in [0, width) that agree in two
    columns, summed over the column pairs: one bincount per column pair."""
    width = int(table.max()) + 1
    counts = (np.bincount(a * width + b) for a, b in combinations(table.T.copy(), 2))  # contiguous columns
    return sum(int((c * (c - 1) // 2).sum()) for c in counts)


def greedy_independent_set(n: int, cn_size: int, alpha, budget: int = DEFAULT_GREEDY_BUDGET) -> PackingFamily:
    """First-fit scan of all cn-subsets in lexicographic order.

    Keeps a subset when it meets every kept block in fewer than
    alpha*cn_size elements.  The result is a maximal independent set of a
    D-regular graph, so its size is at least N/(D+1); that floor is
    checked whenever alpha <= 1 (above 1 nothing ever collides), and falling
    below it raises RuntimeError.
    """
    alpha = Fraction(alpha)
    if not 0 < cn_size <= n:
        raise ValueError("need 0 < cn_size <= n")
    if comb(n, cn_size) > budget:
        raise ValueError(f"C({n},{cn_size}) exceeds enumeration budget {budget}")
    num, den = alpha.numerator, alpha.denominator
    kept: list[int] = []
    for combo in combinations(range(n), cn_size):
        bits = sum(1 << x for x in combo)
        if all(den * (bits & kb).bit_count() < num * cn_size for kb in kept):
            kept.append(bits)
    family = PackingFamily(n, tuple(Subset(n, b) for b in kept), alpha)
    if alpha <= 1:
        stats = packing_graph_stats(n, cn_size, alpha)
        if len(kept) * (stats.D + 1) < stats.N:
            raise RuntimeError("greedy fell below the independence floor")
    return family


def residue_family(n: int, k: int) -> PackingFamily:
    """Default residue blocks for no_three_invertible_family: k-subsets of
    the last n/2 + k elements with pairwise intersections below k/3."""
    if n % 2 or not 1 <= k < n // 2:
        raise ValueError("need even n and 1 <= k < n/2")
    head = n // 2 - k
    window = greedy_independent_set(n - head, k, Fraction(1, 3), DEFAULT_GREEDY_BUDGET).incidence
    return PackingFamily(n, Incidence(n, window.indptr, window.elements + head), Fraction(1, 3))


def no_three_invertible_family(n: int, k: int, rs: PackingFamily) -> Collection:
    """Half-size sets S_i = K + R_i with no invertible 3-subcollection.

    K is the first n/2 - k elements; the residue blocks R_i are k-subsets
    of the remaining positions whose pairwise intersections stay below
    k/3, which verify_packing checks past the core, where blocks cut from
    a built packing keep their structure.  That check proves both claims
    for every pair and triple, so none is checked on its own.  Pairs: any
    two half-size sets are invertible.  Triples: check_triple holds for
    half-size sets iff 2|S1^S2^S3| = sum |Si^Sj| - n/2, that is, iff
    2|R1^R2^R3| = sum |Ri^Rj| - k, whose right side is negative once each
    |Ri^Rj| < k/3; so every triple fails that necessary condition.
    The result is its incidence record: the core ahead of each residue.
    """
    if n % 2:
        raise ValueError("ground size must be even")
    if not 1 <= k < n // 2:
        raise ValueError("need 1 <= k < n/2")
    head = n // 2 - k
    if rs.n != n:
        raise ValueError("residue family must live on the same ground set")
    if rs.m:
        # blocks have equal size, so block 0 is the first of the wrong one
        if rs.block_size != k:
            raise ValueError(f"residue block 0 does not have cardinality {k}")
        low = np.flatnonzero(rs.incidence.elements < head)
        if low.size:
            raise ValueError(f"residue block {low[0] // k} intrudes into the core [0, {head})")
    window = Incidence(n - head, rs.incidence.indptr, rs.incidence.elements - head)
    report = verify_packing(PackingFamily(n - head, window, Fraction(1, 3)))
    if not report.ok:
        i, j = report.worst_pair
        raise ValueError(f"residue blocks {i},{j} intersect in >= k/3 elements")
    core = np.broadcast_to(np.arange(head), (rs.m, head))
    sets = np.hstack([core, rs.incidence.elements.reshape(rs.m, k)])
    return Collection(n, Incidence(n, np.arange(rs.m + 1) * (n // 2), sets.reshape(-1)))


def serialize_family(f: PackingFamily) -> str:
    header = (
        f"packing n={f.n} alpha={f.declared_alpha.numerator}/{f.declared_alpha.denominator} "
        f"c={f.achieved_c.numerator}/{f.achieved_c.denominator}"
    )
    return serialize_collection(f, [header])


def parse_family(text: str, alpha=None) -> PackingFamily:
    """Read a family file; alpha comes from the argument or the header
    comment, and must be positive."""
    declared = Fraction(alpha) if alpha is not None else None
    if declared is not None and declared <= 0:
        raise ValueError(f"alpha must be positive, got {declared}")
    if declared is None:
        for line in re.finditer(f"# packing[^{_BREAKS}]*", text):
            if not line.start() or text[line.start() - 1] in _BREAKS:  # the line starts with it
                for token in line.group().split():
                    if token.startswith("alpha="):
                        try:
                            declared = Fraction(token[len("alpha="):])
                        except (ValueError, ZeroDivisionError):
                            raise FormatError(f"malformed {token} in the family header") from None
                        if declared <= 0:
                            raise FormatError(f"nonpositive {token} in the family header")
    if declared is None:
        raise ValueError("no alpha given and none found in the file header")
    col = parse_collection(text)
    return PackingFamily(col.n, col.incidence, declared)
