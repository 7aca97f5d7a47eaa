"""Deliberately naive reference implementations used to cross-check the
library.  Everything here enumerates and shares no shortcuts with the
implementations under test, except former library functions kept
verbatim as references: naive_find_simple_permutation, the derandomized
search in its original one-candidate-at-a-time form, which uses only the
library's counting functions lambda_simple and sigma (both checked
against enumeration in test_kappa), and its successor
count_table_find_simple_permutation, which scores every candidate with
one object-dtype big-integer product per step over a full factorial
lambda table; naive_verify_packing, the pairwise
check through one dense Gram matrix; naive_shared_constituent_violations,
the dict-counting walk over the construction record, and
naive_constituent_table, the constituent table with one column per
coefficient;
naive_max_bipartite_matching with naive_alternating_reach, the layered
matching with its per-neighbour queue BFS and recursive DFS, and the
alternating walk returning (left, right) masks; and the cube edge file's
line-by-line parser naive_parse_cube_edge_list, its tuple-sorting writer
naive_serialize_cube_edges and naive_min_vertex_cover, the cube doubling's
König cover as the library first built it: naive_residual_graph, the
comprehension-built bitmask rows, matched by naive_max_bipartite_matching
and walked by naive_alternating_reach; doubling_step,
doubling_blocking_set and doubling_assisted_blocking, the cube doubling
as it ran before its plain cover was known in closed form: one König
cover by the library's _min_vertex_cover per step, the plain steps
included, and two covers per assisted build; and the collection
file's token-by-token parser naive_parse_collection, its line-joining
writer naive_serialize_collection, the permutation file's token-by-token
parser naive_parse_permutation, the per-bit naive_conflict_graph and
naive_elements, Subset.elements() through iter_bits; SubsetIncidence,
the incidence record as it was built from the Subsets' ints, and
subset_construct_packing_traced, the product construction that summed
each block's shifted Subset ints, and eager_construct_packing_traced,
its successor, which gathered every product level's record whole,
before a product level was held as its sub-blocks; and brute_force_invertible, the pruned
lexicographic search that was the library's own testing oracle; and
naive_no_three_checks, no_three_invertible_family's former per-triple
and per-pair re-check, run on every triple and pair instead of a sample.
identity_permutation is a test helper."""
from collections import deque
from fractions import Fraction
from functools import cached_property
from operator import getitem
from itertools import combinations, permutations
from math import ceil

import numpy as np

from setpack import (
    Collection,
    ConflictGraph,
    PackingFamily,
    Permutation,
    SizeProfile,
    Subset,
    inverted,
    inverts,
    kappa_lower_bound,
    lambda_simple,
    sigma,
)
from setpack import decide_invertible, pack, qcube
from setpack.invert import check_triple
from setpack.pack import LevelTrace, PackingReport
from setpack.setcore import FormatError, Incidence


def identity_permutation(n: int) -> Permutation:
    return Permutation(n, tuple(range(n)))


def iter_bits(bits: int):
    """Yield the indices of the set bits of ``bits`` in increasing order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


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


def count_table_find_simple_permutation(c: Collection) -> tuple[Permutation, int]:
    """setpack.find_simple_permutation's count-table search with exact
    object-dtype scoring and a full factorial lambda table, kept verbatim
    as its reference.  Simple permutation inverting at least
    ceil(kappa_lower_bound) sets.

    Derandomizes the averaging argument by conditional expectation.  At
    each step the lowest-index free element a is paired with the partner b
    (or, when the free count is odd, left as the single fixed point)
    maximizing the expected number of sets inverted by a uniformly random
    completion.  With u live elements of a set S among f free points, the
    completion inverts S with probability lambda_simple(f, u) / sigma(f);
    a set dies once a chosen 2-cycle lies inside it, or the fixed point
    lands in it.  Branch expectations share the denominator sigma(f'), so
    candidates compare by integer numerator alone and the choice is exact;
    the first candidate reaching the maximum wins.

    Count tables.  Group the live sets by class (u, [a in S]).  With
    f2 = f - 2, b's numerator is base + sum_class cnt[b, class] * w[class],
    where cnt[b, class] counts the live sets of that class containing b,
    base = sum_class N_class * lambda_simple(f2, u - [a in S]), and
    w = lambda_simple(f2, u-1) - lambda_simple(f2, u) when a is not in S,
    w = -lambda_simple(f2, u-1) when it is (the 2-cycle kills the set).
    One bincount over the (set, element) pairs of live sets and free
    elements fills cnt for every candidate at once, and one exact
    integer product with the weights scores them: a step costs
    O(P + f * k) for P membership pairs and k <= 2 (s + 1) classes, s the
    largest set size, instead of O(f * m) set visits.  The fixed-point
    branch is sum_class N_class * lambda_simple(f - 1, u) over the classes
    with a not in S.  Everything stays in exact integers.

    The chosen branch's expectation never drops below the pre-branch
    expectation (the branches partition the uniform measure); this is
    checked at every step, which makes the returned count >= the ceiling
    of the profile bound unconditionally.  Either check failing raises
    RuntimeError.
    """
    n = c.n
    m = len(c.sets)
    inc = c.incidence
    sizes = np.bincount(inc.sets, minlength=m)
    classes = 2 * (int(sizes.max(initial=0)) + 1)  # class index 2u + [a in S]
    lam = [[lambda_simple(f, u) for u in range(classes // 2)] for f in range(n + 1)]
    sig = [sigma(f) for f in range(n + 1)]

    # (set, element) membership pairs, grouped by element
    order = np.argsort(inc.elements, kind="stable")
    pair_set, pair_elem = inc.sets[order], inc.elements[order]
    starts = np.searchsorted(pair_elem, np.arange(n + 1))

    live = sizes.copy()  # |S & free|, for every set
    alive = np.ones(m, dtype=bool)
    is_free = np.ones(n, dtype=bool)
    free = list(range(n))
    image = list(range(n))

    while free:
        f = len(free)
        a = free[0]
        a_sets = pair_set[starts[a] : starts[a + 1]]
        cls = 2 * live
        cls[a_sets] += 1
        present = np.bincount(cls[alive], minlength=classes)
        groups = [(k >> 1, k & 1, int(present[k])) for k in np.flatnonzero(present).tolist()]
        pre_num = sum(size * lam[f][u] for u, _, size in groups)

        best_b = None
        best_num = -1
        best_f2 = f - 2
        if f >= 2:
            f2 = f - 2
            base = sum(size * lam[f2][u - a_in] for u, a_in, size in groups)
            # b in S turns lam(f2, u - [a in S]) into lam(f2, u - 1), or kills S
            cols = np.array([2 * u + a_in for u, a_in, _ in groups], dtype=np.intp)
            weights = [
                (0 if a_in else lam[f2][u - 1]) - lam[f2][u - a_in] if u else 0
                for u, a_in, _ in groups
            ]
            keep = alive[pair_set] & is_free[pair_elem]
            cnt = np.bincount(
                pair_elem[keep] * classes + cls[pair_set[keep]], minlength=n * classes
            ).reshape(n, classes)
            cand = free[1:]
            nums = cnt[np.ix_(cand, cols)].astype(object) @ np.array(weights, dtype=object)
            i = int(nums.argmax())  # the first maximum
            best_b, best_num = cand[i], base + nums[i]
        if f % 2 == 1:
            num = sum(size * lam[f - 1][u] for u, a_in, size in groups if not a_in)
            # different denominator: compare num/sig[f-1] with best/sig[f-2]
            if best_b is None or num * sig[f - 2] > best_num * sig[f - 1]:
                best_b, best_num, best_f2 = _FIXED, num, f - 1

        # conditional expectation may only rise: best/sig[f2] >= pre/sig[f]
        if best_num * sig[f] < pre_num * sig[best_f2]:
            raise RuntimeError("greedy step lost expectation")

        live[a_sets] -= 1
        is_free[a] = False
        if best_b == _FIXED:
            alive[a_sets] = False
            free = free[1:]
        else:
            image[a], image[best_b] = best_b, a
            b_sets = pair_set[starts[best_b] : starts[best_b + 1]]
            live[b_sets] -= 1
            is_free[best_b] = False
            alive[np.intersect1d(a_sets, b_sets, assume_unique=True)] = False
            free = [x for x in free[1:] if x != best_b]

    perm = Permutation(n, tuple(image), is_simple=True)
    count = int(inverted(c, perm).sum())
    bound = kappa_lower_bound(SizeProfile.from_collection(c))
    if count < ceil(bound):
        raise RuntimeError("derandomization guarantee violated")
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


def naive_no_three_checks(col: Collection) -> list[tuple[int, ...]]:
    """The sub-collections of col that break the "no three invertible"
    claims: each triple satisfying check_triple or invertible, and each
    pair not invertible, with every one of them checked."""
    def sub(combo):
        return Collection(col.n, tuple(col.sets[i] for i in combo))

    bad = [c for c in combinations(range(col.m), 3) if check_triple(sub(c)) or decide_invertible(sub(c)).invertible]
    return bad + [c for c in combinations(range(col.m), 2) if not decide_invertible(sub(c)).invertible]


def naive_shared_constituent_violations(trace: LevelTrace) -> int:
    """setpack.pack.shared_constituent_violations as first written: one
    dict of index pairs per coordinate pair and level, over the rows of
    each product level's constituent table."""
    violations = 0
    node: LevelTrace | None = trace
    while node is not None:
        if node.q is not None:
            constituents = naive_constituent_table(node.q, node.coefficients).tolist()
            width = len(constituents[0])
            for c1 in range(width):
                for c2 in range(c1 + 1, width):
                    buckets: dict[tuple[int, int], int] = {}
                    for t in constituents:
                        key = (t[c1], t[c2])
                        buckets[key] = buckets.get(key, 0) + 1
                    violations += sum(v * (v - 1) // 2 for v in buckets.values() if v > 1)
        node = node.sub
    return violations


def naive_constituent_table(q: int, coeffs, start: int = 0, stop: int | None = None) -> np.ndarray:
    """int64 (q*q, parts) table, or its rows start .. stop - 1: row l*q + m
    holds l, m and (l + a*m) mod q for each coefficient a."""
    l, m = np.divmod(np.arange(start, q * q if stop is None else stop), q)
    return np.stack([l, m] + [(l + a * m) % q for a in coeffs], axis=1)


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


def naive_vertices(bits: int) -> list[int]:
    """Positions of the set bits of ``bits >= 0``, in increasing order."""
    raw = np.frombuffer(bits.to_bytes((bits.bit_length() + 7) // 8, "little"), np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little")).tolist()


def naive_parse_cube_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Header n and (vertex, direction) pairs of a cube edge file, checked
    line by line but with no bit vector built: a caller may refuse n first.
    The first line refused is reported as 'line N: ...'."""
    lines = _data_lines(text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise FormatError("missing header line with the dimension") from None
    try:
        if not header.isdecimal():  # int() would take a sign or '_'
            raise ValueError
        n = int(header, 10)
    except ValueError:
        raise FormatError(f"line {lineno}: bad dimension {header!r}") from None
    edges = []
    for lineno, ln in lines:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: bad edge line {ln!r}")
        vertex_str, d_str = parts
        if len(vertex_str) != n or set(vertex_str) - {"0", "1"}:
            raise FormatError(f"line {lineno}: vertex {vertex_str!r} is not an {n}-bit binary string")
        if not d_str.isdecimal():
            raise FormatError(f"line {lineno}: bad direction {d_str!r}")
        v, d = int(vertex_str, 2), int(d_str, 10)
        if d >= n:
            raise FormatError(f"line {lineno}: direction {d} outside [0, {n})")
        if (v >> d) & 1:
            raise FormatError(f"line {lineno}: edge {ln!r} not canonical: direction bit set in vertex")
        edges.append((v, d))
    return n, edges


def naive_serialize_cube_edges(m) -> str:
    edges = sorted((v, d) for d, bits in enumerate(m.dirs) for v in naive_vertices(bits))
    return "".join([f"{m.n}\n", *(f"{v:0{m.n}b} {d}\n" for v, d in edges)])


def naive_residual_graph(residual) -> tuple[list[int], list[int], list[int]]:
    """(evens, odds, adj) of the cube cover's residual graph, built as the
    library's _min_vertex_cover first built them."""
    edges = [(v, v | 1 << d) for d, bits in enumerate(residual) for v in naive_vertices(bits)]
    pairs = [(v, w) if v.bit_count() % 2 == 0 else (w, v) for v, w in edges]
    evens = sorted({u for u, _ in pairs})
    odds = sorted({w for _, w in pairs})
    even_index = {v: i for i, v in enumerate(evens)}
    odd_index = {v: i for i, v in enumerate(odds)}
    adj = [0] * len(evens)
    for u, w in pairs:
        adj[even_index[u]] |= 1 << odd_index[w]
    return evens, odds, adj


def naive_min_vertex_cover(residual) -> int:
    """König's minimum vertex cover, as a vertex bit mask, of the residual
    Q_n edges: the even vertices the alternating walk from the free ones of
    a maximum matching does not reach, and the odd vertices it reaches."""
    evens, odds, adj = naive_residual_graph(residual)
    match_l, match_r = naive_max_bipartite_matching(adj, len(odds))
    left, right = naive_alternating_reach(adj, match_r, [i for i, j in enumerate(match_l) if j == -1])
    return sum(1 << v for i, v in enumerate(evens) if not left >> i & 1) + sum(
        1 << v for j, v in enumerate(odds) if right >> j & 1
    )


def doubling_step(m, mirror):
    """One doubling step: copies m and ``mirror`` into the two halves of
    Q_{n+1} and adds cross edges at a minimum cover of what neither blocks."""
    size = 1 << m.n
    residual = [qcube._clear(d, size) & ~(e | f) for d, (e, f) in enumerate(zip(m.dirs, mirror))]
    cover = qcube._min_vertex_cover(residual)
    lifted = tuple(e | f << size for e, f in zip(m.dirs, mirror))
    return qcube.CubeEdgeSet(m.n + 1, lifted + (cover,))


def doubling_blocking_set(n: int, limit: int = qcube.DEFAULT_SQUARE_LIMIT):
    """Square-blocking set of Q_n by doubling from the single edge of Q_2.

    Each step mirrors the current set into the second copy, so the
    residual is everything the current set misses; the result is verified
    square-blocking whenever n is within the square-check limit.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    m = qcube.CubeEdgeSet(2, (1, 0))
    for _ in range(n - 2):
        m = doubling_step(m, m.dirs)
    if n <= limit and not qcube.is_square_blocking(m, limit):
        raise RuntimeError(f"doubled set does not block every square of Q_{n}")
    return m


def doubling_assisted_blocking(n: int, limit: int = qcube.DEFAULT_SQUARE_LIMIT):
    """Doubling step for Q_n with a direction-permuted mirror, against the
    plain doubling step; the smaller result and the edges it saves."""
    if n < 3:
        raise ValueError("need n >= 3")
    base = doubling_blocking_set(n - 1, limit)
    plain = doubling_step(base, base.dirs)

    perm, _count = qcube.find_simple_permutation(qcube.direction_collection(base))
    assisted = doubling_step(base, qcube._permute_directions(base, perm))

    result = assisted if len(assisted) < len(plain) else plain
    if n <= limit and not qcube.is_square_blocking(result, limit):
        raise RuntimeError(f"assisted set does not block every square of Q_{n}")
    return result, len(plain) - len(result)


def _data_lines(text: str):
    """Yield (line number, stripped content) skipping comments and blanks."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token, 10)
    except ValueError:
        raise FormatError(f"line {lineno}: non-integer token {token!r}") from None


def naive_parse_collection(text: str) -> Collection:
    """Read the collection file format.

    First non-comment line: the ground-set size n.  Each further
    non-comment line: one set as space-separated 0-based elements.
    Lines starting with '#' are comments; blank lines are ignored
    (an empty set has no line at all).
    """
    lines = _data_lines(text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise FormatError("missing header line with the ground-set size") from None
    tokens = header.split()
    if len(tokens) != 1:
        raise FormatError(f"line {lineno}: header must be a single integer, got {header!r}")
    n = _parse_int(tokens[0], lineno)
    if n < 0:
        raise FormatError(f"line {lineno}: ground-set size must be non-negative")

    sets = []
    for lineno, line in lines:
        bits = 0
        for token in line.split():
            x = _parse_int(token, lineno)
            if not 0 <= x < n:
                raise FormatError(f"line {lineno}: element {x} outside [0, {n})")
            if (bits >> x) & 1:
                raise FormatError(f"line {lineno}: duplicate element {x}")
            bits |= 1 << x
        sets.append(Subset(n, bits))
    return Collection(n, tuple(sets))


class SubsetIncidence:
    """setpack.setcore.Incidence as it was: the membership pairs of a
    collection in CSR order (Gustavson 1978): set ``sets[k]`` holds element
    ``elements[k]``, both int64, sorted by set and then by element, read
    from one buffer of the sets' own bytes.  ``rows`` packs each set into
    whole 64-bit words, little-endian, on first use.  ``indptr`` is the
    running count of each set's pairs."""

    def __init__(self, n: int, members):
        self.n, self._members = n, members
        widths = np.array([(s.bits.bit_length() + 7) // 8 for s in members], np.int64)
        buf = b"".join(s.bits.to_bytes(w, "little") for s, w in zip(members, widths.tolist()))
        raw = np.frombuffer(buf, np.uint8)
        nonzero = np.flatnonzero(raw)  # small sets leave most bytes 0: unpack the others
        bits = np.flatnonzero(np.unpackbits(raw[nonzero], bitorder="little"))
        at = nonzero[bits >> 3]  # updated in place: the pair arrays dominate memory
        at <<= 3
        at |= bits & 7
        del nonzero, bits
        ends = 8 * np.cumsum(widths)
        self.sets = np.searchsorted(ends, at, side="right")
        at -= (ends - 8 * widths)[self.sets]
        self.elements = at
        self.indptr = np.append(0, np.cumsum(np.bincount(self.sets, minlength=len(members))))

    @cached_property
    def rows(self) -> np.ndarray:
        width = 8 * ((self.n + 63) // 64)
        buf = b"".join(s.bits.to_bytes(width, "little") for s in self._members)
        return np.frombuffer(buf, np.uint8).reshape(len(self._members), width)


def subset_construct_packing_traced(n: int, alpha) -> tuple[PackingFamily, LevelTrace]:
    """setpack.construct_packing_traced as it was, one Python int per
    block: the sub-blocks sorted by their element tuples, each shifted into
    its part, and a block the sum of its parts' shifted ints."""
    return _subset_construct(n, Fraction(alpha).denominator)


def _subset_construct(n: int, k: int) -> tuple[PackingFamily, LevelTrace]:
    alpha = Fraction(1, k)
    if n * alpha <= 4:  # base: n singleton blocks
        family = PackingFamily(n, tuple(Subset(n, 1 << x) for x in range(n)), alpha)
        report = pack.verify_packing(family)
        if not report.ok:
            raise RuntimeError("singleton base family fails its own check")
        return family, LevelTrace(n, n, alpha, None, (), n, report, None)

    parts = 2 * k
    sub_family, sub_trace = _subset_construct(n // parts, 2 * k)
    p = sub_family.n
    ordered = sorted(sub_family.blocks, key=lambda b: tuple(b.elements()))
    q = pack._largest_prime_at_most(len(ordered))
    if q is None or q <= parts:
        # no usable prime: stop the recursion here and hand back the
        # sub-family, which satisfies the stricter alpha/2 and hence alpha
        family = PackingFamily(p, sub_family.blocks, alpha)
        report = pack.verify_packing(family)
        if not report.ok:
            raise RuntimeError("fallback family fails its own check")
        return family, LevelTrace(n, p, alpha, None, (), len(sub_family.blocks), report, sub_trace)

    coeffs = tuple(j - 1 for j in range(3, parts + 1))
    used_n = parts * p
    placed = [[b.bits << (part * p) for b in ordered[:q]] for part in range(parts)]  # [part][index]
    table = naive_constituent_table(q, coeffs).tolist()
    blocks = tuple(Subset(used_n, sum(map(getitem, placed, idx))) for idx in table)
    family = PackingFamily(used_n, blocks, alpha)
    report = pack._certified_report(family, np.array([b.elements() for b in ordered[:q]]), q, coeffs)
    if not report.ok:
        raise RuntimeError(f"constructed family fails its own check: {report.summary()}")
    return family, LevelTrace(n, used_n, alpha, q, coeffs, len(blocks), report, sub_trace)


def eager_construct_packing_traced(n: int, alpha) -> tuple[PackingFamily, LevelTrace]:
    """setpack.construct_packing_traced as it was before a product level
    was held as its sub-blocks: every level's record made whole, a product
    level's by one gather from the sub-family's point matrix."""
    return _eager_construct(n, Fraction(alpha).denominator)


def _eager_construct(n: int, k: int) -> tuple[PackingFamily, LevelTrace]:
    alpha = Fraction(1, k)
    q, coeffs, sub_trace = None, (), None
    if n * alpha <= 4:  # base: n singleton blocks
        kind, family = "singleton base", PackingFamily(n, Incidence(n, np.arange(n + 1), np.arange(n)), alpha)
    else:
        parts = 2 * k
        sub_family, sub_trace = _eager_construct(n // parts, 2 * k)
        p = sub_family.n
        sub = sub_family.incidence.elements.reshape(sub_family.m, -1)
        ordered = sub[np.lexsort(sub.T[::-1])]  # the sub-blocks in lexicographic order
        prime = pack._largest_prime_at_most(len(ordered))
        if prime is None or prime <= parts:
            # no usable prime: stop the recursion here and hand back the
            # sub-family, which satisfies the stricter alpha/2 and hence alpha
            kind, family = "fallback", PackingFamily(p, sub_family.incidence, alpha)
        else:
            q, coeffs = prime, pack._coefficients(parts)
            points = ordered[:q][naive_constituent_table(q, coeffs)]  # [block][part][point]
            points += (np.arange(parts) * p)[:, None]
            record = Incidence(parts * p, np.arange(q * q + 1) * points[0].size, points.reshape(-1))
            kind, family = "constructed", PackingFamily(parts * p, record, alpha)
    report = pack.verify_packing(family) if q is None else pack._certified_report(family, ordered[:q], q, coeffs)
    if not report.ok:
        raise RuntimeError(f"{kind} family fails its own check: {report.summary()}")
    return family, LevelTrace(n, family.n, alpha, q, coeffs, family.m, report, sub_trace)


def naive_parse_permutation(text: str) -> Permutation:
    """Read the permutation file format: one line, image[j] at position j.

    The 0-point permutation is one blank line, which is what
    serialize_permutation writes for it.
    """
    lines = list(_data_lines(text))
    if not lines and any(not raw.strip() for raw in text.splitlines()):
        return Permutation(0, ())
    if len(lines) != 1:
        raise FormatError("permutation file must hold exactly one data line")
    lineno, line = lines[0]
    image = tuple(_parse_int(tok, lineno) for tok in line.split())
    try:
        return Permutation(len(image), image)
    except ValueError as e:
        raise FormatError(f"line {lineno}: {e}") from None


def naive_serialize_collection(c: Collection, header_comments=()) -> str:
    """Canonical text form; parse(serialize(c)) == c.

    Empty member sets cannot be represented (the format has no line for
    them), so they are rejected.
    """
    lines = [ln for h in header_comments for ln in h.splitlines() or [h]]  # one comment per line
    out = [ln if ln.startswith("#") else f"# {ln}" for ln in lines]
    out.append(str(c.n))
    for i, s in enumerate(c.sets):
        if not s.bits:
            raise ValueError(f"set {i} is empty and has no file representation")
        out.append(" ".join(map(str, naive_elements(s.bits))))
    return "\n".join(out) + "\n"


def naive_conflict_graph(c: Collection) -> ConflictGraph:
    """adjacency[i] = V minus the union of all member sets containing i."""
    full = (1 << c.n) - 1
    blocked = [0] * c.n
    for s in c.sets:
        for i in iter_bits(s.bits):
            blocked[i] |= s.bits
    rows = tuple(Subset(c.n, full & ~blocked[i]) for i in range(c.n))
    return ConflictGraph(c.n, rows)


def naive_elements(bits: int) -> list[int]:
    """The set bits of ``bits`` in increasing order, one lowest bit at a
    time: Subset.elements() as it was, quadratic in the width."""
    return list(iter_bits(bits))


def brute_force_invertible(c: Collection, limit: int = 8) -> Permutation | None:
    """Lexicographically first permutation inverting every set, or None.

    Enumerates image arrays in lexicographic order, abandoning a prefix as
    soon as some assigned point x has pi(x) in a common set with x (no
    completion can repair that).  Testing oracle; n is capped.
    """
    n = c.n
    if n > limit:
        raise ValueError(f"n={n} exceeds brute-force limit {limit}")
    set_bits = [s.bits for s in c.sets]
    image = [-1] * n

    def extend(x: int, used: int) -> bool:
        if x == n:
            return True
        for y in range(n):
            if (used >> y) & 1:
                continue
            if any((b >> x) & 1 and (b >> y) & 1 for b in set_bits):
                continue
            image[x] = y
            if extend(x + 1, used | (1 << y)):
                return True
        image[x] = -1
        return False

    if extend(0, 0):
        return Permutation(n, tuple(image))
    return None
