"""Deciding invertibility of a set collection by bipartite matching.

A permutation pi inverts a set S when pi(S) and S are disjoint; a
collection is invertible when one permutation inverts every member at
once.  Invertibility is equivalent to a perfect matching in the conflict
graph: two copies of the ground set, with (i, j) an edge iff no member
set contains both i and j.  A perfect matching read as i -> match[i] is
exactly an inverting permutation, and a failed matching yields a Hall
violator certificate (a left set I with |N(I)| < |I|), read off the
alternating-path walk ``alternating_reach``.

That walk is the only breadth-first search here: each of its layers is
one OR of bit-vector adjacency rows, so a dense row costs a few word
operations, not one step per neighbour.  The matching is Hopcroft-Karp:
its first phase is one greedy pass; each later phase takes its layers
from the walk, and the augmenting search keeps one untried right mask per
layer, so a right vertex is tried at most once per phase.  The rows are
ints from the gather to the matcher; only ``conflict_graph`` wraps them
as Subsets.  Bit-vector rows suit the dense conflict graphs; the cube
doubling's sparse residual graphs use index rows (``qcube``).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .setcore import Collection, Permutation, Subset, bit_positions, inverted

GATHER_BYTES = 1 << 18  # packed-row bytes one step of conflict_graph gathers: 4 to 8 steps at n = 512, m = 1000


@dataclass(frozen=True)
class ConflictGraph:
    """Bipartite graph on two copies of [0, n); adjacency[i] = allowed partners."""

    n: int
    adjacency: tuple[Subset, ...]

    def __post_init__(self):
        if len(self.adjacency) != self.n:
            raise ValueError("adjacency must list one row per left vertex")


@dataclass(frozen=True)
class MatchingResult:
    """Either a perfect matching as a Permutation or a Hall violator.

    A certificate I comes with its neighbourhood N(I), |N(I)| < |I|.
    """

    matched: Permutation | None
    certificate: Subset | None
    neighbourhood: Subset | None = None

    def __post_init__(self):
        if (self.matched is None) == (self.certificate is None):
            raise ValueError("exactly one of matched/certificate must be present")
        if (self.certificate is None) != (self.neighbourhood is None):
            raise ValueError("neighbourhood must be present exactly with a certificate")

    @property
    def invertible(self) -> bool:
        return self.matched is not None


def conflict_graph(c: Collection) -> ConflictGraph:
    """adjacency[i] = V minus the union of all member sets containing i."""
    return ConflictGraph(c.n, tuple(Subset(c.n, row) for row in _conflict_rows(c)))


def _conflict_rows(c: Collection) -> list[int]:
    """The rows of ``conflict_graph`` as ints, by a sparse product over the
    collection's incidence (Gustavson 1978): the membership pairs, grouped
    by element, gather their sets' packed rows, about ``GATHER_BYTES`` at a
    time, and one OR-reduction per element gives the row it blocks, which
    is complemented in place and read as one bytes object per row; an
    element in no set blocks nothing."""
    inc = c.incidence
    # a stable radix sort when the elements fit 16 bits
    key = inc.elements.astype(np.uint16) if c.n <= 1 << 16 else inc.elements
    sets = inc.sets[np.argsort(key, kind="stable")]
    counts = np.bincount(inc.elements, minlength=c.n)
    held = np.flatnonzero(counts)
    bounds = np.append(0, np.cumsum(counts[held]))
    words = inc.rows.view(np.uint64)
    full, width = (1 << c.n) - 1, inc.rows.shape[1]
    ones = np.frombuffer(full.to_bytes(width, "little"), np.uint64)
    step = max(1, GATHER_BYTES // max(width, 1))  # pairs per gather
    got, g = [], 0
    while g < held.size:
        h = max(g + 1, int(np.searchsorted(bounds, bounds[g] + step, side="right")) - 1)
        part = np.take(words, sets[bounds[g] : bounds[h]], axis=0)  # a third of the time of words[...]
        blocked = np.bitwise_or.reduceat(part, bounds[g:h] - bounds[g], axis=0)
        blocked ^= ones  # V minus each row
        got += [int.from_bytes(row, "little") for row in blocked.view(np.dtype((np.void, width))).ravel().tolist()]
        g = h
    if held.size == c.n:
        return got
    rows = [full] * c.n
    for x, row in zip(held.tolist(), got):
        rows[x] = row
    return rows


def max_bipartite_matching(adj: Sequence[int], n_right: int) -> tuple[list[int], list[int]]:
    """Maximum matching for bitmask adjacency rows; returns (match_l, match_r).

    Phase one is a greedy pass; each later Hopcroft-Karp phase takes the
    right layers, up to the first free right vertex, from ``alternating_reach``;
    an iterative depth-first search then augments along vertex-disjoint
    shortest paths, a left vertex at depth k taking and clearing the lowest
    bit of ``adj[u] & untried[k]``.  Unmatched entries are -1.
    """
    match_l = [-1] * len(adj)
    match_r = [-1] * n_right
    free_r = (1 << n_right) - 1
    for u, row in enumerate(adj):  # phase one, from the empty matching: one greedy pass
        options = row & free_r
        if options:
            j = (options & -options).bit_length() - 1
            free_r ^= 1 << j
            match_l[u], match_r[j] = j, u
    free_l = [u for u, j in enumerate(match_l) if j == -1]  # a matched left vertex stays matched
    while free_l:
        _, untried = alternating_reach(adj, match_r, free_l, free_r)
        if not untried or not untried[-1] & free_r:
            break
        untried[-1] &= free_r
        last = len(untried) - 1
        for start in free_l:
            path, picks = [start], []  # path[k] is at depth k, picks[k] leaves it
            while path:
                k = len(path) - 1
                options = adj[path[k]] & untried[k]
                if not options:  # dead end: drop it and the pick that led here
                    path.pop()
                    if picks:
                        picks.pop()
                    continue
                j = (options & -options).bit_length() - 1
                untried[k] ^= 1 << j
                picks.append(j)
                if k < last:
                    path.append(match_r[j])
                    continue
                free_r ^= 1 << j
                for u, j in zip(path, picks):
                    match_l[u] = j
                    match_r[j] = u
                break
        free_l = [u for u in free_l if match_l[u] == -1]
    return match_l, match_r


def alternating_reach(
    adj: Sequence[int], match_r: Sequence[int], starts: Iterable[int], stop: int = 0
) -> tuple[int, list[int]]:
    """Left bitmask and per-layer right bitmasks alternating-reachable from
    the left ``starts``.

    The walk leaves a left vertex along any edge and returns along a
    matching edge; each layer is one OR of adjacency rows.  It halts after
    the first layer that meets the free right vertices ``stop``; reaching
    any other free right vertex raises.  Started from free left vertices of
    a maximum matching with no ``stop``, every reached right vertex is
    matched back into ``left``, so the layers partition N(left).
    """
    frontier = list(starts)
    left = 0
    for u in frontier:
        left |= 1 << u
    right = 0
    layers = []
    while frontier:
        reach = 0
        for u in frontier:
            reach |= adj[u]
        reach &= ~right
        if not reach:
            break
        right |= reach
        layers.append(reach)
        frontier = []
        for j in bit_positions(reach & ~stop).tolist():
            w = match_r[j]
            if w == -1:
                raise RuntimeError("free right vertex reachable: the matching is not maximum")
            if not (left >> w) & 1:
                left |= 1 << w
                frontier.append(w)
        if reach & stop:
            break
    return left, layers


def maximum_matching(g: ConflictGraph) -> MatchingResult:
    """Perfect matching as a Permutation, or a deterministic Hall violator."""
    return _match([row.bits for row in g.adjacency], g.n)


def _match(adj: list[int], n: int) -> MatchingResult:
    """``maximum_matching`` on bitmask rows.  The certificate is grown from
    the lowest-index unmatched left vertex; every right neighbour is matched
    back inside it, so it has exactly |I| - 1 neighbours."""
    match_l, match_r = max_bipartite_matching(adj, n)
    if -1 not in match_l:
        return MatchingResult(Permutation(n, tuple(match_l)), None)
    violator, layers = alternating_reach(adj, match_r, [match_l.index(-1)])
    neighbourhood = sum(layers)  # the layers are disjoint
    if neighbourhood.bit_count() >= violator.bit_count():
        raise RuntimeError("certificate postcondition violated: not a Hall violator")
    return MatchingResult(None, Subset(n, violator), Subset(n, neighbourhood))


def decide_invertible(c: Collection) -> MatchingResult:
    """Decide invertibility; a returned permutation is re-verified on every
    set by one gather over the membership pairs."""
    result = _match(_conflict_rows(c), c.n)
    if result.matched is not None:
        failing = np.flatnonzero(~inverted(c, result.matched))
        if failing.size:
            raise RuntimeError(f"matching postcondition violated: permutation fails set {failing[0]}")
    return result


def check_disjoint_criterion(c: Collection) -> bool:
    """For pairwise disjoint sets: invertible iff every |S_i| <= n/2."""
    seen = 0
    for i, s in enumerate(c.sets):
        if seen & s.bits:
            raise ValueError(f"set {i} overlaps an earlier set; criterion needs disjoint sets")
        seen |= s.bits
    return all(2 * s.cardinality() <= c.n for s in c.sets)


def triple_intersection_sizes(c: Collection) -> tuple[int, int]:
    """(|S1^S2^S3|, |~S1^~S2^~S3|) for a three-set collection."""
    if len(c.sets) != 3:
        raise ValueError("exactly three sets required")
    full = (1 << c.n) - 1
    a = (c.sets[0].bits & c.sets[1].bits & c.sets[2].bits).bit_count()
    b = (full & ~c.sets[0].bits & ~c.sets[1].bits & ~c.sets[2].bits).bit_count()
    return a, b


def check_triple(c: Collection) -> bool:
    """Invertibility condition for three equal-size sets: with
    a = |S1^S2^S3| and b = |~S1^~S2^~S3|, require a <= b <= a + (3/2)(n - 2k).

    The right inequality is compared as 2b <= 2a + 3(n - 2k) so odd n - 2k
    never leaves the integers.
    """
    k = c.sets[0].cardinality() if c.sets else 0
    if len(c.sets) != 3:
        raise ValueError("condition applies to exactly three sets")
    if any(s.cardinality() != k for s in c.sets):
        raise ValueError("condition applies to equal-cardinality sets")
    a, b = triple_intersection_sizes(c)
    return a <= b and 2 * b <= 2 * a + 3 * (c.n - 2 * k)


def check_halfsize_conditions(c: Collection) -> bool:
    """For n = 2k and all sets of size exactly k: invertible iff the sizes of
    complementary membership atoms agree (signature s and ~s equal counts)."""
    if c.n % 2:
        raise ValueError("ground set must have even size")
    k = c.n // 2
    if any(s.cardinality() != k for s in c.sets):
        raise ValueError("every set must have cardinality n/2")
    signature = [0] * c.n  # bit i set when the element lies in c.sets[i]
    for i, x in zip(c.incidence.sets.tolist(), c.incidence.elements.tolist()):
        signature[x] |= 1 << i
    counts = Counter(signature)
    full = (1 << len(c.sets)) - 1
    return all(counts[full ^ sig] == cnt for sig, cnt in counts.items())
