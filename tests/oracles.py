"""Deliberately naive reference implementations used to cross-check the
library.  Everything here enumerates and shares no shortcuts with the
implementations under test, except five former library functions kept
verbatim as references: naive_find_simple_permutation, the derandomized
search in its original one-candidate-at-a-time form, which uses only the
library's counting functions lambda_simple and sigma (both checked
against enumeration in test_kappa); naive_verify_packing, the pairwise
check through one dense Gram matrix; naive_shared_constituent_violations,
the dict-counting walk over the construction record; and
naive_max_bipartite_matching with naive_alternating_reach, the layered
matching with its per-neighbour queue BFS and recursive DFS, and the
alternating walk returning (left, right) masks."""
from collections import deque
from fractions import Fraction
from itertools import combinations, permutations
from math import ceil

import numpy as np

from setpack import (
    Collection,
    PackingFamily,
    Permutation,
    SizeProfile,
    Subset,
    inverts,
    kappa_lower_bound,
    lambda_simple,
    sigma,
)
from setpack.pack import LevelTrace, PackingReport
from setpack.setcore import iter_bits


def naive_invertible(c: Collection):
    """Full scan of all n! permutations; returns the first inverting one."""
    for img in permutations(range(c.n)):
        p = Permutation(c.n, img)
        if all(inverts(p, s) for s in c.sets):
            return p
    return None


def naive_simple_permutations(n: int):
    """All involutions with floor(n/2) two-cycles, by filtering S_n."""
    out = []
    for img in permutations(range(n)):
        if any(img[img[j]] != j for j in range(n)):
            continue
        if sum(1 for j in range(n) if img[j] == j) != n % 2:
            continue
        out.append(Permutation(n, img, is_simple=True))
    return out


def naive_square_count(n: int) -> int:
    """4-cycles of the n-cube counted from scratch via ordered walks."""
    verts = range(1 << n)
    adj = {v: [v ^ (1 << d) for d in range(n)] for v in verts}
    ordered = 0
    for v0 in verts:
        for v1 in adj[v0]:
            for v2 in adj[v1]:
                if v2 == v0:
                    continue
                for v3 in adj[v2]:
                    if v3 != v1 and v0 in adj[v3]:
                        ordered += 1
    return ordered // 8  # 4 rotations x 2 directions


def naive_squares(n: int):
    """All 4-cycles of Q_n, once each, as (base, i, j) with bits i < j clear
    in base, by scanning every base for every direction pair."""
    if n < 2:
        raise ValueError("squares need n >= 2")
    for i in range(n):
        for j in range(i + 1, n):
            step = 1 << i | 1 << j
            for v in range(1 << n):
                if v & step:
                    continue
                yield (v, i, j)


def naive_square_edges(base: int, i: int, j: int):
    return (
        (base, i),
        (base, j),
        (base | 1 << j, i),
        (base | 1 << i, j),
    )


def naive_is_square_blocking(n: int, edges) -> bool:
    """setpack.is_square_blocking as first written, on a set of canonical
    (vertex, direction) pairs: every square, edge by edge."""
    edges = frozenset(edges)
    for base, i, j in naive_squares(n):
        if not any(e in edges for e in naive_square_edges(base, i, j)):
            return False
    return True


def cube_edge_pairs(m) -> list:
    """The (vertex, direction) pairs of a CubeEdgeSet, read bit by bit."""
    return [(v, d) for d in range(m.n) for v in range(1 << m.n) if (m.dirs[d] >> v) & 1]


def random_subset_bits(rng, n: int, allow_empty: bool = False) -> int:
    while True:
        bits = rng.getrandbits(n) if n else 0
        if bits or allow_empty:
            return bits


def random_collection(rng, n: int, m: int, allow_empty: bool = False) -> Collection:
    return Collection(
        n, tuple(Subset(n, random_subset_bits(rng, n, allow_empty)) for _ in range(m))
    )


def random_equal_size_collection(rng, n: int, m: int, k: int) -> Collection:
    sets = []
    for _ in range(m):
        combo = rng.sample(range(n), k)
        sets.append(Subset.of(n, combo))
    return Collection(n, tuple(sets))


def subsets_of_size_at_most(n: int, cap: int):
    for size in range(cap + 1):
        for combo in combinations(range(n), size):
            yield sum(1 << x for x in combo)


_FIXED = -1  # virtual partner: anchor stays a fixed point


def naive_find_simple_permutation(c: Collection) -> tuple[Permutation, int]:
    """setpack.find_simple_permutation as first written, kept verbatim as
    its reference: one pure-Python pass over all m sets for every candidate
    partner at every step, O(n^2 m).  The lowest free element a is paired
    with the partner b (or left fixed) whose branch has the largest exact
    conditional-expectation numerator; the first maximum wins."""
    n = c.n
    lam = [[lambda_simple(f, u) for u in range(f + 1)] for f in range(n + 1)]
    sig = [sigma(f) for f in range(n + 1)]

    set_bits = [s.bits for s in c.sets]
    alive = [True] * len(set_bits)
    ucount = [s.cardinality() for s in c.sets]

    free = list(range(n))
    image = list(range(n))

    def branch_numerator(a_in: list[bool], b: int, f2: int) -> int:
        num = 0
        if b == _FIXED:
            for t in range(len(set_bits)):
                if alive[t] and not a_in[t]:
                    num += lam[f2][ucount[t]]
        else:
            for t, bits in enumerate(set_bits):
                if not alive[t]:
                    continue
                b_in = (bits >> b) & 1
                if a_in[t] and b_in:
                    continue  # 2-cycle inside the set: dead
                num += lam[f2][ucount[t] - a_in[t] - b_in]
        return num

    while free:
        f = len(free)
        pre_num = sum(lam[f][u] for t, u in enumerate(ucount) if alive[t])
        a = free[0]
        a_in = [bool((bits >> a) & 1) for bits in set_bits]

        best_b = None
        best_num = -1
        best_f2 = f - 2
        for b in free[1:]:
            num = branch_numerator(a_in, b, f - 2)
            if num > best_num:
                best_b, best_num = b, num
        if f % 2 == 1:
            num = branch_numerator(a_in, _FIXED, f - 1)
            # different denominator: compare num/sig[f-1] with best/sig[f-2]
            if best_b is None or num * sig[f - 2] > best_num * sig[f - 1]:
                best_b, best_num, best_f2 = _FIXED, num, f - 1

        assert best_b is not None
        # conditional expectation may only rise: best/sig[f2] >= pre/sig[f]
        assert best_num * sig[f] >= pre_num * sig[best_f2], "greedy step lost expectation"

        if best_b == _FIXED:
            for t, bits in enumerate(set_bits):
                if alive[t] and a_in[t]:
                    alive[t] = False
            free = free[1:]
        else:
            image[a], image[best_b] = best_b, a
            for t, bits in enumerate(set_bits):
                if not alive[t]:
                    continue
                b_in = (bits >> best_b) & 1
                if a_in[t] and b_in:
                    alive[t] = False
                else:
                    ucount[t] -= a_in[t] + b_in
            free = [x for x in free[1:] if x != best_b]

    perm = Permutation(n, tuple(image), is_simple=True)
    count = sum(1 for s in c.sets if inverts(perm, s))
    bound = kappa_lower_bound(SizeProfile.from_collection(c))
    assert count >= ceil(bound), "derandomization guarantee violated"
    return perm, count


def naive_verify_packing(f: PackingFamily) -> PackingReport:
    """setpack.verify_packing's old kernel, as first written: the full
    count x count float32 Gram matrix of the 0/1 rows (exact below
    n = 2**24), the flat argmax giving the first pair reaching the
    maximum."""
    size = f.block_size
    threshold = f.declared_alpha * size
    count = len(f.blocks)
    distinct = len({b.bits for b in f.blocks}) == count
    if count < 2:
        return PackingReport(distinct, 0, 0, threshold, size, distinct)

    a = np.zeros((count, f.n), dtype=np.float32)
    for i, b in enumerate(f.blocks):
        a[i, b.elements()] = 1.0
    gram = a @ a.T
    np.fill_diagonal(gram, -1.0)
    flat = int(gram.argmax())
    worst = (flat // count, flat % count)
    if worst[0] > worst[1]:
        worst = (worst[1], worst[0])
    max_int = int(gram.max())
    pairs = count * (count - 1) // 2
    ok = distinct and Fraction(max_int) < threshold
    return PackingReport(ok, pairs, max_int, threshold, size, distinct, worst)


def naive_shared_constituent_violations(trace: LevelTrace) -> int:
    """setpack.pack.shared_constituent_violations as first written: one
    dict of index pairs per coordinate pair and level."""
    violations = 0
    node: LevelTrace | None = trace
    while node is not None:
        if node.constituents:
            width = len(node.constituents[0])
            for c1 in range(width):
                for c2 in range(c1 + 1, width):
                    buckets: dict[tuple[int, int], int] = {}
                    for t in node.constituents:
                        key = (t[c1], t[c2])
                        buckets[key] = buckets.get(key, 0) + 1
                    violations += sum(v * (v - 1) // 2 for v in buckets.values() if v > 1)
        node = node.sub
    return violations


def naive_max_bipartite_matching(adj, n_right: int) -> tuple[list[int], list[int]]:
    """Maximum matching for bitmask adjacency rows; returns (match_l, match_r).

    Layered phases: a BFS from the free left vertices fixes the shortest
    augmenting length, then depth-first searches augment along strictly
    layer-increasing edges only.  Unmatched entries are -1.
    """
    n_left = len(adj)
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    INF = n_left + n_right + 1
    dist = [INF] * n_left

    def bfs() -> int | None:
        queue: deque[int] = deque()
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        shortest = INF
        while queue:
            u = queue.popleft()
            if dist[u] >= shortest:
                continue
            for j in iter_bits(adj[u]):
                w = match_r[j]
                if w == -1:
                    shortest = min(shortest, dist[u] + 1)
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return None if shortest == INF else shortest

    def dfs(u: int, shortest: int) -> bool:
        for j in iter_bits(adj[u]):
            w = match_r[j]
            if w == -1:
                if dist[u] + 1 != shortest:
                    continue
            elif dist[w] != dist[u] + 1 or not dfs(w, shortest):
                continue
            match_l[u] = j
            match_r[j] = u
            return True
        dist[u] = INF
        return False

    while True:
        shortest = bfs()
        if shortest is None:
            break
        for u in range(n_left):
            if match_l[u] == -1:
                dfs(u, shortest)
    return match_l, match_r


def naive_alternating_reach(adj, match_r, starts) -> tuple[int, int]:
    """(left, right) bitmasks alternating-reachable from the left ``starts``.

    The walk leaves a left vertex along any edge and returns along a
    matching edge.  Started from free left vertices of a maximum matching,
    every reached right vertex is matched (else an augmenting path
    existed), so ``right`` is exactly N(left): the left side of König's
    cover is everything outside ``left``, the right side is ``right``.
    """
    frontier = list(starts)
    left = 0
    for u in frontier:
        left |= 1 << u
    right = 0
    while frontier:
        reach = 0
        for u in frontier:
            reach |= adj[u]
        reach &= ~right
        right |= reach
        frontier = []
        for j in iter_bits(reach):
            w = match_r[j]
            if w == -1:
                raise RuntimeError("free right vertex reachable: the matching is not maximum")
            if not (left >> w) & 1:
                left |= 1 << w
                frontier.append(w)
    return left, right
