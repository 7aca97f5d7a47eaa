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
A product level is certified by that proof and a check of its q sub-blocks,
and held as them (ProductFamily): its file is rendered from them in row
blocks, and its record gathered only if a caller reads it.  A family file
is certified by the same proof, and not parsed, when it is that rendering
byte for byte: a file of q*q blocks holds the sub-blocks in part 1 (parts
counted from 0) of its first q blocks (0, m), and every byte of the file
must equal their product's rendering (verify_family_file).  Any other
file is parsed whole.  One in the
construction's block order is certified by one gather, by the
construction's table, of the q sub-blocks in part 0 of its (l, 0) blocks;
another product file by its blocks' structure; any other family is
checked pair by pair.  A family is a Collection of its blocks, held as
their incidence record, with the alpha it claims.  A product level's
record is one gather of its sub-blocks, so no block is ever a Python int;
the level's LevelTrace keeps the construction's choices and derives the
rest.

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
from typing import Iterator

import numpy as np

from . import setcore
from .setcore import Collection, FormatError, Incidence, Subset, ascii_bytes, write_collection

DEFAULT_GREEDY_BUDGET = 200_000
ROW_BLOCK_CELLS = 1 << 18  # cells of one row block of _max_pair's counts
_BREAKS = b"\n\r\v\f\x1c\x1d\x1e"  # where str.splitlines ends a line of ASCII text
_READ_BLOCK = 1 << 20  # bytes verify_family_file counts the lines of at once


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


class ProductFamily(PackingFamily):
    """A product level, given by its q sub-blocks ``subs``, rows of points
    of [0, part): block l*q + m takes, in part j, the sub-block of column j
    of constituent_table(q, coefficients), shifted by j*part.  Its count,
    size and file (family_chunks) come from these alone; its record is
    that gather, made when a caller first reads ``incidence``."""

    def __init__(self, subs: np.ndarray, coefficients: tuple[int, ...], part: int, declared_alpha: Fraction):
        self.__dict__.update(n=(len(coefficients) + 2) * part, subs=subs, coefficients=coefficients,
                             part=part, declared_alpha=declared_alpha)

    @property
    def incidence(self) -> Incidence:
        if "record" not in self.__dict__:
            points = _product_rows(self.subs, self.coefficients, self.part, 0, self.m)
            self.__dict__["record"] = Incidence(self.n, np.arange(self.m + 1) * self.block_size, points.reshape(-1))
        return self.__dict__["record"]

    @property
    def m(self) -> int:
        return len(self.subs) ** 2

    @property
    def block_size(self) -> int:
        return self.subs.shape[1] * (len(self.coefficients) + 2)

    def _key(self) -> tuple:
        return (PackingFamily,) + super()._key()[1:]  # equal to the PackingFamily of its blocks


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
    bound = _product_bound(sub_points, parts)
    return _witness_report(f, bound, points[:2]) if bound < alpha * size else None


def _construction_report(f: PackingFamily, points: np.ndarray) -> PackingReport | None:
    """The report of q*q blocks in the construction's own order, or None.
    Its sub-blocks S are part 0 of the (l, 0) blocks, rows l*q: block
    l*q + m must be block l*q + m of their product (_product_rows),
    compared in row blocks of ROW_BLOCK_CELLS cells, and S must pass the
    product proof the build checks (_proof_fault)."""
    count, size = points.shape
    parts, q = 2 * f.declared_alpha.denominator, isqrt(count)
    if q * q != count:
        return None
    subs, coeffs = points[::q, : size // parts], _coefficients(parts)
    bound, fault = _proof_fault(f, subs, q, coeffs)
    if fault:
        return None
    step = max(1, ROW_BLOCK_CELLS // size)
    for start in range(0, count, step):
        stop = min(count, start + step)
        if not np.array_equal(_product_rows(subs, coeffs, f.n // parts, start, stop), points[start:stop]):
            return None
    return _witness_report(f, bound, points[:2])


def _product_rows(subs: np.ndarray, coeffs, p: int, start: int, stop: int) -> np.ndarray:
    """Blocks start .. stop - 1 of the product of the q sub-blocks subs,
    rows of points of [0, p), by constituent_table(q, coeffs): one gather
    of the sub-blocks each block takes, part j's shifted by j*p, as the
    rows of a (stop - start, size) array."""
    gathered = subs[constituent_table(len(subs), coeffs, start, stop)]  # [block][part][point]
    gathered += np.arange(len(coeffs) + 2)[:, None] * p
    return gathered.reshape(stop - start, -1)


def _product_bound(subs: np.ndarray, parts: int) -> int:
    """U = s + (parts-1)*sub_max over the sub-blocks subs, rows of s points ranked first: free of the part width."""
    points, rank = np.unique(subs, return_inverse=True)
    return subs.shape[1] + (parts - 1) * _max_pair(rank.reshape(subs.shape), points.size)[0]


def _witness_report(f: PackingFamily, bound: int, pair: np.ndarray) -> PackingReport | None:
    """The exact report of distinct blocks meeting in at most bound < alpha *
    block_size points, if blocks 0 and 1, the first pair, whose points are
    the two rows of pair, reach it."""
    if np.intersect1d(pair[0], pair[1], assume_unique=True).size != bound:
        return None
    size = f.block_size
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
    m and (l + a*m) mod q for each coefficient a: m*(0, 1, a...) + l*(1,
    0, 1...) mod q, so rows m < q and q are the (0, m) and (1, 0) blocks."""
    l, m = np.divmod(np.arange(start, q * q if stop is None else stop), q)
    return (np.outer(m, (0, 1, *coeffs)) + np.outer(l, (1, 0) + (1,) * len(coeffs))) % q


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
    bound = _product_bound(subs, parts)
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
    (coordinates all 0, and 0, 1, ..., parts-1), gathered from subs, are
    the witness: _witness_report gives the report, or else verify_packing."""
    bound, fault = _proof_fault(family, subs, q, coeffs)
    if fault:
        raise RuntimeError(f"constructed family fails its certificate: {fault}")
    pair = _product_rows(subs, coeffs, family.n // (len(coeffs) + 2), 0, 2)
    return _witness_report(family, bound, pair) or verify_packing(family)


def _construct(n: int, k: int) -> tuple[PackingFamily, LevelTrace]:
    """One level: the base's singletons, or the ProductFamily of the first
    q sub-blocks of the sub-family in lexicographic order."""
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
            kind, family = "constructed", ProductFamily(ordered[:q], coeffs, p, alpha)
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


def family_chunks(f: PackingFamily) -> Iterator[bytes]:
    """The family file in chunks: the collection file with a '# packing'
    header.  A ProductFamily's is its sub-blocks' digit_cells in each part,
    each part's q rows twice, gathered whole in row blocks of about
    setcore._WRITE_BLOCK points: block (l, m) takes rows first[m] + l*moves,
    below 2q, by constituent_table.  Any other's is written from its record."""
    alpha, c = f.declared_alpha, f.achieved_c
    header = [f"packing n={f.n} alpha={alpha.numerator}/{alpha.denominator} c={c.numerator}/{c.denominator}"]
    if not isinstance(f, ProductFamily):
        yield write_collection(f, header)
        return
    yield setcore.file_head(f.n, header)
    q, parts = len(f.subs), len(f.coefficients) + 2
    cells = setcore.digit_cells(f.subs + np.arange(parts)[:, None, None] * f.part)  # [part][sub-block][point]
    cells[-1, :, -1, -1, 4] = 10  # a block's last point ends its line
    cells = np.concatenate([cells, cells], axis=1).reshape(2 * q * parts, -1)  # each part's q rows twice
    table = constituent_table(q, f.coefficients, 0, q + 1)
    first, moves = table[:q] + np.arange(parts) * 2 * q, table[q]  # blocks (0, m) and (1, 0), per part's rows
    step = max(1, setcore._WRITE_BLOCK // f.block_size)
    for a in range(0, f.m, step):
        l, m = np.divmod(np.arange(a, min(a + step, f.m)), q)
        index = first[m]
        index += l[:, None] * moves  # in place: no third index array is held
        yield np.take(cells, index, axis=0).tobytes().translate(None, b"\0")


def write_family(f: PackingFamily) -> bytes:
    """The family file as bytes (family_chunks)."""
    return b"".join(family_chunks(f))


def serialize_family(f: PackingFamily) -> str:
    return write_family(f).decode("ascii")


def verify_family_file(fh, alpha=None) -> tuple[PackingFamily, PackingReport]:
    """parse_family of the binary file fh, read from its start, and its
    verify_packing report.  A file that is, byte for byte, the file of the
    product its first lines name (_rendered_report) is not parsed.  Any
    other file, and any exception on that path, is parsed whole, so its
    report, or the error it raises, is parse_family's and verify_packing's."""
    try:
        found = _rendered_report(fh, alpha)
    except Exception:  # the whole parse below says what is wrong, if anything is
        found = None
    if found is None:
        fh.seek(0)
        family = parse_family(fh.read(), alpha)
        found = family, verify_packing(family)
    return found


def _rendered_report(fh, alpha) -> tuple[ProductFamily, PackingReport] | None:
    """The product the file fh holds and its report, or None.  Refused
    before any gather: a file of other than q*q lines after its header and
    ground-set lines, q a prime above the part count.  The q sub-blocks S
    are part 1 of blocks (0, m), the first q lines, under the header's
    alpha or the given one: each increasing in [0, p), they must pass the
    build's proof (_proof_fault) and blocks 0 and 1 reach U.  The numbers
    are read by int() and the header by a search, unchecked: the check is
    that every byte of the file is the product's file (family_chunks),
    compared as it is rendered, which parse_family reads as that product."""
    lines = sum(block.count(b"\n") for block in iter(lambda: fh.read(_READ_BLOCK), b""))
    q = isqrt(max(lines - 2, 0))
    if q * q + 2 != lines or q < 3 or not _is_prime(q):  # 2 parts at least
        return None
    fh.seek(0)
    header, n = fh.readline(), int(fh.readline())
    alpha = Fraction(alpha if alpha is not None else re.search(rb" alpha=(\S+)", header)[1].decode())
    blocks = np.array([fh.readline().split() for _ in range(q)], np.int64)  # blocks (0, m)
    parts, size = 2 * alpha.denominator, blocks.shape[1]
    if alpha.numerator != 1 or q <= parts or size % parts or n % parts:
        return None
    s, p, coeffs = size // parts, n // parts, _coefficients(parts)
    subs = blocks[:, s : 2 * s] - p
    if subs[:, 0].min() < 0 or subs[:, -1].max() >= p or (subs[:, 1:] <= subs[:, :-1]).any():
        return None
    family = ProductFamily(subs, coeffs, p, alpha)
    bound, fault = _proof_fault(family, subs, q, coeffs)
    report = None if fault else _witness_report(family, bound, blocks[:2])
    if report is None:
        return None
    fh.seek(0)
    if any(fh.read(len(chunk)) != chunk for chunk in family_chunks(family)) or fh.read(1):
        return None
    return family, report


def parse_family(text: str | bytes, alpha=None) -> PackingFamily:
    """Read a family file, a str or any bytes-like; alpha comes from the
    argument or the header comment, and must be positive."""
    declared = Fraction(alpha) if alpha is not None else None
    if declared is not None and declared <= 0:
        raise ValueError(f"alpha must be positive, got {declared}")
    raw = ascii_bytes(text, "collection")
    if declared is None:
        for line in re.finditer(rb"# packing[^%s]*" % _BREAKS, raw):
            if not line.start() or raw[line.start() - 1] in _BREAKS:  # the line starts with it
                for token in line.group().decode().split():
                    if token.startswith("alpha="):
                        try:
                            declared = Fraction(token[len("alpha="):])
                        except (ValueError, ZeroDivisionError):
                            raise FormatError(f"malformed {token} in the family header") from None
                        if declared <= 0:
                            raise FormatError(f"nonpositive {token} in the family header")
    if declared is None:
        raise ValueError("no alpha given and none found in the file header")
    col = setcore.parse_collection(raw)
    return PackingFamily(col.n, col.incidence, declared)
