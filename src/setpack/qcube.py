"""Square-blocking edge sets in the hypercube.

Q_n has the n-bit labels as vertices and one edge per (vertex, direction)
pair; an edge is stored canonically with the direction bit cleared in its
vertex label.  A square-blocking set meets every 4-cycle.  Q_{n+1} splits
into two copies of Q_n joined by the cross matching W; a union
N' + N'' + W' blocks all squares of Q_{n+1} exactly when N' and N'' block
their copies and the endpoints of W' form a vertex cover of the edges of
Q_n left uncovered by N' and the pullback of N''.

The doubling construction takes N'' to be a mirror (or a direction-
permuted mirror) of N' and picks W' from a minimum vertex cover obtained
via maximum matching on the residual graph.  Permuting directions so that
the scarce non-N' directions at heavily covered vertices move off
themselves is exactly a set-inversion problem, which the assisted variant
hands to the derandomized inverting search.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .invert import alternating_reach, max_bipartite_matching
from .kappa import find_simple_permutation
from .setcore import Collection, FormatError, Permutation, Subset, iter_bits

DEFAULT_SQUARE_LIMIT = 14

Edge = tuple[int, int]  # (vertex label with direction bit clear, direction)


@dataclass(frozen=True)
class CubeEdgeSet:
    """A set of hypercube edges in canonical (vertex, direction) form."""

    n: int
    edges: frozenset[Edge]

    def __post_init__(self):
        for v, d in self.edges:
            if not 0 <= d < self.n:
                raise ValueError(f"direction {d} outside [0, {self.n})")
            if not 0 <= v < (1 << self.n) or (v >> d) & 1:
                raise ValueError(f"edge ({v}, {d}) not in canonical form")

    def __len__(self) -> int:
        return len(self.edges)

    def __contains__(self, edge: Edge) -> bool:
        return edge in self.edges


def canonical_edge(v: int, d: int) -> Edge:
    return (v & ~(1 << d), d)


def all_edges(n: int) -> Iterator[Edge]:
    for v in range(1 << n):
        for d in range(n):
            if not (v >> d) & 1:
                yield (v, d)


def enumerate_squares(n: int, limit: int = DEFAULT_SQUARE_LIMIT) -> Iterator[tuple[int, int, int]]:
    """All 4-cycles of Q_n, once each, as (base, i, j) with bits i < j clear
    in base.  There are C(n,2) * 2^(n-2) of them."""
    if n < 2:
        raise ValueError("squares need n >= 2")
    if n > limit:
        raise ValueError(f"n={n} exceeds enumeration limit {limit}")
    for i in range(n):
        for j in range(i + 1, n):
            step = 1 << i | 1 << j
            for v in range(1 << n):
                if v & step:
                    continue
                yield (v, i, j)


def square_edges(base: int, i: int, j: int) -> tuple[Edge, Edge, Edge, Edge]:
    return (
        (base, i),
        (base, j),
        (base | 1 << j, i),
        (base | 1 << i, j),
    )


def is_square_blocking(m: CubeEdgeSet, limit: int = DEFAULT_SQUARE_LIMIT) -> bool:
    """True iff every square of Q_n contains at least one edge of m."""
    edges = m.edges
    for base, i, j in enumerate_squares(m.n, limit):
        if not any(e in edges for e in square_edges(base, i, j)):
            return False
    return True


def _min_vertex_cover(n: int, residual: Iterable[Edge]) -> set[int]:
    """Minimum vertex cover of a set of Q_n edges, by matching duality.

    Q_n is bipartite by label parity; from a maximum matching, the cover
    is (even side minus the alternating-reachable set) plus (odd side
    intersected with it), and its size equals the matching size.
    """
    residual = list(residual)
    pairs = []
    for v, d in residual:
        w = v ^ (1 << d)
        pairs.append((v, w) if v.bit_count() % 2 == 0 else (w, v))
    evens = sorted({u for u, _ in pairs})
    odds = sorted({w for _, w in pairs})
    even_index = {v: i for i, v in enumerate(evens)}
    odd_index = {v: i for i, v in enumerate(odds)}
    adj = [0] * len(evens)
    for u, w in pairs:
        adj[even_index[u]] |= 1 << odd_index[w]
    match_l, match_r = max_bipartite_matching(adj, len(odds))
    free = [i for i, x in enumerate(match_l) if x == -1]
    reach_l, reach_r = alternating_reach(adj, match_r, free)
    cover = {evens[i] for i in range(len(evens)) if not (reach_l >> i) & 1}
    cover |= {odds[j] for j in iter_bits(reach_r)}
    if len(cover) != len(evens) - len(free):
        raise RuntimeError("cover size differs from the matching size")
    for v, d in residual:
        if v not in cover and v ^ (1 << d) not in cover:
            raise RuntimeError(f"cover misses residual edge ({v}, {d})")
    return cover


def _lift(edges: Iterable[Edge], n: int) -> frozenset[Edge]:
    """Edges of the upper Q_n copy inside Q_{n+1}: set bit n of the vertex."""
    return frozenset((v | 1 << n, d) for v, d in edges)


def _permute_directions(edges: Iterable[Edge], p: Permutation) -> frozenset[Edge]:
    """Coordinate-permutation automorphism: relabel vertex bits and directions."""
    out = set()
    for v, d in edges:
        w = 0
        for b in iter_bits(v):
            w |= 1 << p.image[b]
        out.add(canonical_edge(w, p.image[d]))
    return frozenset(out)


def _double(m: CubeEdgeSet, mirror: frozenset[Edge]) -> CubeEdgeSet:
    """One doubling step: copies m and ``mirror`` into the two halves of
    Q_{n+1} and adds cross edges at a minimum cover of what neither blocks."""
    n = m.n
    residual = [e for e in all_edges(n) if e not in m.edges and e not in mirror]
    cover = _min_vertex_cover(n, residual)
    cross = {(v, n) for v in cover}
    return CubeEdgeSet(n + 1, m.edges | _lift(mirror, n) | frozenset(cross))


def recursive_blocking_set(n: int, limit: int = DEFAULT_SQUARE_LIMIT) -> CubeEdgeSet:
    """Square-blocking set of Q_n by doubling from the single edge of Q_2.

    Each step mirrors the current set into the second copy, so the
    residual is everything the current set misses; the result is verified
    square-blocking whenever n is within the enumeration limit.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    m = CubeEdgeSet(2, frozenset({(0, 0)}))
    for dim in range(2, n):
        m = _double(m, m.edges)
    if n <= limit and not is_square_blocking(m, limit):
        raise RuntimeError(f"doubled set does not block every square of Q_{n}")
    return m


def direction_collection(m: CubeEdgeSet) -> Collection:
    """Non-covered direction sets at the heavily covered vertices of m.

    A vertex qualifies when at least half its incident edges are in m;
    its set holds the directions whose incident edge is missing.  These
    small sets are what the assisted construction asks to invert.
    """
    n = m.n
    degree = [0] * (1 << n)
    for v, d in m.edges:
        degree[v] += 1
        degree[v ^ (1 << d)] += 1
    sets = []
    for v in range(1 << n):
        if 2 * degree[v] >= n:
            missing = [d for d in range(n) if canonical_edge(v, d) not in m.edges]
            sets.append(Subset.of(n, missing))
    return Collection(n, tuple(sets))


def inversion_assisted_blocking(
    n: int, limit: int = DEFAULT_SQUARE_LIMIT
) -> tuple[CubeEdgeSet, int]:
    """Doubling step for Q_n with a direction-permuted mirror.

    The derandomized search picks a direction involution inverting many of
    the non-covered direction sets at heavy vertices of M_{n-1}; mirroring
    through that permutation removes the permuted copy from the residual
    as well, so the cover (hence the result) can only shrink.  Returns the
    blocking set and the edge count saved against the plain doubling;
    falls back to the plain mirror when nothing is saved.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    base = recursive_blocking_set(n - 1, limit)
    plain = _double(base, base.edges)

    perm, _count = find_simple_permutation(direction_collection(base))
    permuted = _permute_directions(base.edges, perm)
    assisted = _double(base, permuted)

    result = assisted if len(assisted) < len(plain) else plain
    if n <= limit and not is_square_blocking(result, limit):
        raise RuntimeError(f"assisted set does not block every square of Q_{n}")
    return result, len(plain) - len(result)


def parse_cube_edges(text: str) -> CubeEdgeSet:
    """File format: first line n, then one edge per line as
    '<vertex-as-binary-string> <direction>'."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError("missing dimension header")
    try:
        n = int(lines[0], 10)
    except ValueError:
        raise FormatError(f"bad dimension {lines[0]!r}") from None
    edges = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"bad edge line {ln!r}")
        vertex_str, d_str = parts
        if len(vertex_str) != n or set(vertex_str) - {"0", "1"}:
            raise FormatError(f"vertex {vertex_str!r} is not an {n}-bit binary string")
        try:
            d = int(d_str, 10)
        except ValueError:
            raise FormatError(f"bad direction {d_str!r}") from None
        v = int(vertex_str, 2)
        if not 0 <= d < n:
            raise FormatError(f"direction {d} outside [0, {n})")
        if (v >> d) & 1:
            raise FormatError(f"edge {ln!r} not canonical: direction bit set in vertex")
        edges.add((v, d))
    return CubeEdgeSet(n, frozenset(edges))


def serialize_cube_edges(m: CubeEdgeSet) -> str:
    out = [str(m.n)]
    for v, d in sorted(m.edges):
        out.append(f"{v:0{m.n}b} {d}")
    return "\n".join(out) + "\n"
