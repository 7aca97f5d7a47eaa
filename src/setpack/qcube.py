"""Square-blocking edge sets in the hypercube.

Q_n has the n-bit labels as vertices and one edge per (vertex, direction)
pair, named by its endpoint with the direction bit clear.  An edge set is
held as one bit vector per direction: bit v of the vector for direction d
is the edge {v, v + 2^d}.  A square-blocking set meets every 4-cycle.
Q_{n+1} splits into two copies of Q_n joined by the cross matching W; a
union N' + N'' + W' blocks all squares of Q_{n+1} exactly when N' and N''
block their copies and the endpoints of W' form a vertex cover of the
edges of Q_n left uncovered by N' and the pullback of N''.

The doubling construction takes N'' to be a mirror (or a direction-
permuted mirror) of N' and picks W' from a minimum vertex cover obtained
via maximum matching on the residual graph.  Permuting directions so that
the scarce non-N' directions at heavily covered vertices move off
themselves is exactly a set-inversion problem, which the assisted variant
hands to the derandomized inverting search.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .invert import alternating_reach, max_bipartite_matching
from .kappa import find_simple_permutation
from .setcore import Collection, FormatError, Permutation, Subset

DEFAULT_SQUARE_LIMIT = 14


def _clear(d: int, width: int) -> int:
    """Mask of the vertices with bit d clear, covering at least [0, width)."""
    mask = (1 << min(1 << d, width)) - 1  # the low half of each block of 2^(d+1)
    span = 2 << d
    while span < width:
        mask |= mask << span
        span *= 2
    return mask


def _bits_of(vertices: Sequence[int]) -> int:
    """Bit vector with the bits at the given non-negative positions set."""
    flags = np.zeros(max(vertices, default=-1) + 1, dtype=bool)
    flags[vertices] = True
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _vertices(bits: int) -> list[int]:
    """Positions of the set bits of ``bits >= 0``, in increasing order."""
    raw = np.frombuffer(bits.to_bytes((bits.bit_length() + 7) // 8, "little"), np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little")).tolist()


@dataclass(frozen=True)
class CubeEdgeSet:
    """A set of hypercube edges: bit v of ``dirs[d]`` is the edge
    {v, v + 2^d}, where v has bit d clear."""

    n: int
    dirs: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0 or len(self.dirs) != self.n:
            raise ValueError(f"Q_{self.n} needs one bit vector per direction, got {len(self.dirs)}")
        for d, bits in enumerate(self.dirs):
            top = bits.bit_length()  # top >= 2^n: past Q_n or at its all-ones vertex
            if bits < 0 or top >> self.n or top >> d and bits & ~_clear(d, top):
                raise ValueError(f"direction {d}: not a set of canonical edges of Q_{self.n}")

    @classmethod
    def of(cls, n: int, edges: Iterable[tuple[int, int]]) -> "CubeEdgeSet":
        """From (vertex, direction) pairs, the direction bit clear in the vertex."""
        vertices: list[list[int]] = [[] for _ in range(n)]
        for v, d in edges:
            if not (0 <= d < n and v >= 0 and not v >> n):
                raise ValueError(f"edge ({v}, {d}) outside Q_{n}")
            vertices[d].append(v)
        return cls(n, tuple(_bits_of(vs) if vs else 0 for vs in vertices))

    def __len__(self) -> int:
        return sum(bits.bit_count() for bits in self.dirs)


def is_square_blocking(m: CubeEdgeSet, limit: int = DEFAULT_SQUARE_LIMIT) -> bool:
    """True iff every square of Q_n contains at least one edge of m.

    Square (b, i, j), i < j, bits i and j clear in b, has the edges (b, i),
    (b, j), (b + 2^j, i) and (b + 2^i, j), so it is blocked iff bit b of
    E_i | E_j | E_i >> 2^j | E_j >> 2^i is set.  n must lie in [2, limit].
    """
    n = m.n
    if n < 2:
        raise ValueError("squares need n >= 2")
    if n > limit:
        raise ValueError(f"n={n} exceeds square-check limit {limit}")
    clear, e = [_clear(d, 1 << n) for d in range(n)], m.dirs
    for i in range(n):
        for j in range(i + 1, n):
            if clear[i] & clear[j] & ~(e[i] | e[j] | e[i] >> (1 << j) | e[j] >> (1 << i)):
                return False
    return True


def _min_vertex_cover(residual: Sequence[int]) -> int:
    """Minimum vertex cover, as a vertex bit mask, of the Q_n edges whose
    per-direction bit vectors are ``residual``, by matching duality.

    Q_n is bipartite by label parity; from a maximum matching, the cover
    is (even side minus the alternating-reachable set) plus (odd side
    intersected with it), and its size equals the matching size.
    """
    edges = [(v, v | 1 << d) for d, bits in enumerate(residual) for v in _vertices(bits)]
    pairs = [(v, w) if v.bit_count() % 2 == 0 else (w, v) for v, w in edges]
    evens = sorted({u for u, _ in pairs})
    odds = sorted({w for _, w in pairs})
    even_index = {v: i for i, v in enumerate(evens)}
    odd_index = {v: i for i, v in enumerate(odds)}
    adj = [0] * len(evens)
    for u, w in pairs:
        adj[even_index[u]] |= 1 << odd_index[w]
    match_l, match_r = max_bipartite_matching(adj, len(odds))
    free = [i for i, x in enumerate(match_l) if x == -1]
    reach_l, layers = alternating_reach(adj, match_r, free)
    reach_r = sum(layers)  # the layers are disjoint
    unreached = _vertices(~reach_l & ((1 << len(evens)) - 1))
    cover = _bits_of([evens[i] for i in unreached] + [odds[j] for j in _vertices(reach_r)])
    if cover.bit_count() != len(evens) - len(free):
        raise RuntimeError("cover size differs from the matching size")
    for d, bits in enumerate(residual):
        if bits & ~(cover | cover >> (1 << d)):
            raise RuntimeError(f"cover misses a residual edge in direction {d}")
    return cover


def _permute_directions(m: CubeEdgeSet, p: Permutation) -> tuple[int, ...]:
    """Coordinate-permutation automorphism: relabel vertex bits and directions."""
    relabel = [0]  # relabel[v] for the vertices below 2^b, doubled per bit b
    for b in range(m.n):
        relabel += [w | 1 << p.image[b] for w in relabel]
    out = [0] * m.n
    for d, bits in enumerate(m.dirs):
        out[p.image[d]] = _bits_of([relabel[v] for v in _vertices(bits)])
    return tuple(out)


def _double(m: CubeEdgeSet, mirror: Sequence[int]) -> CubeEdgeSet:
    """One doubling step: copies m and ``mirror`` into the two halves of
    Q_{n+1} and adds cross edges at a minimum cover of what neither blocks."""
    size = 1 << m.n
    residual = [_clear(d, size) & ~(e | f) for d, (e, f) in enumerate(zip(m.dirs, mirror))]
    cover = _min_vertex_cover(residual)
    lifted = tuple(e | f << size for e, f in zip(m.dirs, mirror))
    return CubeEdgeSet(m.n + 1, lifted + (cover,))


def recursive_blocking_set(n: int, limit: int = DEFAULT_SQUARE_LIMIT) -> CubeEdgeSet:
    """Square-blocking set of Q_n by doubling from the single edge of Q_2.

    Each step mirrors the current set into the second copy, so the
    residual is everything the current set misses; the result is verified
    square-blocking whenever n is within the square-check limit.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    m = CubeEdgeSet(2, (1, 0))
    for _ in range(n - 2):
        m = _double(m, m.dirs)
    if n <= limit and not is_square_blocking(m, limit):
        raise RuntimeError(f"doubled set does not block every square of Q_{n}")
    return m


def direction_collection(m: CubeEdgeSet) -> Collection:
    """Non-covered direction sets at the heavily covered vertices of m.

    A vertex qualifies when at least half its incident edges are in m;
    its set holds the directions whose incident edge is missing.  These
    small sets are what the assisted construction asks to invert.
    """
    n, full = m.n, (1 << m.n) - 1
    present = [0] * (full + 1)
    for d, bits in enumerate(m.dirs):
        for v in _vertices(bits | bits << (1 << d)):
            present[v] |= 1 << d
    return Collection(n, tuple(Subset(n, full - p) for p in present if 2 * p.bit_count() >= n))


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
    plain = _double(base, base.dirs)

    perm, _count = find_simple_permutation(direction_collection(base))
    assisted = _double(base, _permute_directions(base, perm))

    result = assisted if len(assisted) < len(plain) else plain
    if n <= limit and not is_square_blocking(result, limit):
        raise RuntimeError(f"assisted set does not block every square of Q_{n}")
    return result, len(plain) - len(result)


def parse_cube_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Header n and (vertex, direction) pairs of a cube edge file, checked
    line by line but with no bit vector built: a caller may refuse n first."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError("missing dimension header")
    try:
        n = int(lines[0], 10)
    except ValueError:
        raise FormatError(f"bad dimension {lines[0]!r}") from None
    if n < 0:
        raise FormatError(f"dimension {n} must be non-negative")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"bad edge line {ln!r}")
        vertex_str, d_str = parts
        if len(vertex_str) != n or set(vertex_str) - {"0", "1"}:
            raise FormatError(f"vertex {vertex_str!r} is not an {n}-bit binary string")
        if not d_str.isdecimal():
            raise FormatError(f"bad direction {d_str!r}")
        v, d = int(vertex_str, 2), int(d_str, 10)
        if d >= n:
            raise FormatError(f"direction {d} outside [0, {n})")
        if (v >> d) & 1:
            raise FormatError(f"edge {ln!r} not canonical: direction bit set in vertex")
        edges.append((v, d))
    return n, edges


def parse_cube_edges(text: str) -> CubeEdgeSet:
    """File format: first line n, then one edge per line as
    '<vertex-as-binary-string> <direction>'."""
    return CubeEdgeSet.of(*parse_cube_edge_list(text))


def serialize_cube_edges(m: CubeEdgeSet) -> str:
    edges = sorted((v, d) for d, bits in enumerate(m.dirs) for v in _vertices(bits))
    return "".join([f"{m.n}\n", *(f"{v:0{m.n}b} {d}\n" for v, d in edges)])
