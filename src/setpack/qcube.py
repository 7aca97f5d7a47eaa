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
permuted mirror) of N' and picks W' from König's minimum vertex cover of
the residual graph, which is the same for every maximum matching: a
label-order greedy on index rows, completed by alternating walks.
Permuting directions so that the scarce non-N' directions at heavily
covered vertices move off themselves is exactly a set-inversion problem,
which the assisted variant hands to the derandomized inverting search.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .kappa import find_simple_permutation
from .setcore import Collection, Incidence, Lines, Permutation, bit_positions, bits_of, read_decimals, read_lines

# The largest n at which `cube build --assist` plus `cube verify` finish in
# under 10 s and 1 GB: 7.0 s, 569 MB at n = 20; 14.7 s, 1,128 MB at n = 21 (2-core VM).
DEFAULT_SQUARE_LIMIT = 20


def _clear(d: int, width: int) -> int:
    """Mask of the vertices with bit d clear, covering at least [0, width)."""
    mask = (1 << min(1 << d, width)) - 1  # the low half of each block of 2^(d+1)
    span = 2 << d
    while span < width:
        mask |= mask << span
        span *= 2
    return mask


def _parity(v: np.ndarray) -> np.ndarray:
    """True where ``v >= 0`` has an odd number of set bits."""
    v = v.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> shift
    return (v & 1).astype(bool)


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
    def of(cls, n: int, edges: Iterable[tuple[int, int]] | np.ndarray) -> "CubeEdgeSet":
        """From (vertex, direction) pairs, the direction bit clear in the
        vertex: any iterable of pairs, or an int64 array of such rows."""
        try:
            rows = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), np.int64)
        except OverflowError:
            raise ValueError(f"an edge of Q_{n} has a vertex beyond 2^63") from None
        v, d = rows.reshape(-1, 2).T
        outside = (d < 0) | (d >= n) | (v < 0) | (v >> min(n, 63) != 0)
        if outside.any():
            i = int(np.argmax(outside))
            raise ValueError(f"edge ({v[i]}, {d[i]}) outside Q_{n}")
        by_dir = np.split(v[np.argsort(d)], np.cumsum(np.bincount(d, minlength=n)))[:n]
        return cls(n, tuple(map(bits_of, by_dir)))

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


def _index_rows(residual: Sequence[int]) -> tuple[np.ndarray, list[int], list[int]]:
    """The Q_n edges whose per-direction bit vectors are ``residual``, as a
    bipartite graph by label parity: the sorted even endpoints, and the odd
    neighbours of the i-th as the increasing labels ``cols[ptr[i]:ptr[i + 1]]``."""
    n = len(residual)
    lo = np.concatenate([bit_positions(bits) for bits in residual])
    hi = lo | np.repeat(1 << np.arange(n), [bits.bit_count() for bits in residual])
    odd = _parity(lo)  # lo and hi differ in one bit, so exactly one of them is even
    key = np.sort(np.where(odd, hi << n | lo, lo << n | hi))  # (even end, odd end) pairs in order
    count = np.bincount(key >> n, minlength=1 << n)
    evens = np.flatnonzero(count)
    return evens, [0, *np.cumsum(count[evens]).tolist()], (key & (1 << n) - 1).tolist()


def _alternating_walk(ptr: list[int], cols: list[int], match_l: list[int], match_r: list[int]) -> list[int] | None:
    """Breadth-first alternating walk over index rows from the free even
    vertices, out along any edge and back along a matched one.  It flips the
    path to the first free odd vertex it meets and returns None; if none,
    it returns per odd label the even vertex it came from (-1: unreached)."""
    parent, starts = [-1] * len(match_r), [i for i, j in enumerate(match_l) if j < 0]
    while starts:
        reached = []
        for i in starts:
            for j in cols[ptr[i] : ptr[i + 1]]:
                if parent[j] < 0:
                    parent[j] = i
                    if match_r[j] < 0:
                        while j >= 0:  # back to the free start
                            i = parent[j]
                            match_l[i], match_r[j], j = j, i, match_l[i]
                        return None
                    reached.append(match_r[j])
        starts = reached
    return parent


def _min_vertex_cover(residual: Sequence[int]) -> int:
    """Minimum vertex cover, as a vertex bit mask, of the Q_n edges whose
    per-direction bit vectors are ``residual``, by matching duality.

    Each even vertex, in label order, takes its first free odd neighbour;
    walks flip augmenting paths until one meets none.  That walk reaches
    the evens some maximum matching leaves free (Dulmage-Mendelsohn), so
    König's cover, its unreached evens and reached odds, is canonical.
    """
    evens, ptr, cols = _index_rows(residual)
    match_l, match_r = [-1] * len(evens), [-1] * (1 << len(residual))
    for i in range(len(evens)):
        for j in cols[ptr[i] : ptr[i + 1]]:
            if match_r[j] < 0:
                match_l[i], match_r[j] = j, i
                break
    parent = None
    while parent is None:
        parent = _alternating_walk(ptr, cols, match_l, match_r)
    reached, matched = np.array(parent, np.int64) >= 0, np.array(match_l, np.int64)
    cover = bits_of(np.concatenate([evens[(matched >= 0) & ~reached[matched]], np.flatnonzero(reached)]))
    if cover.bit_count() != np.count_nonzero(matched >= 0):
        raise RuntimeError("cover size differs from the matching size")
    for d, bits in enumerate(residual):
        if bits & ~(cover | cover >> (1 << d)):
            raise RuntimeError(f"cover misses a residual edge in direction {d}")
    return cover


def _permute_directions(m: CubeEdgeSet, p: Permutation) -> tuple[int, ...]:
    """Coordinate-permutation automorphism: relabel vertex bits and directions."""
    relabel = np.zeros(1, np.int64)  # relabel[v] for the vertices below 2^b, doubled per bit b
    for b in range(m.n):
        relabel = np.concatenate([relabel, relabel | 1 << p.image[b]])
    out = [0] * m.n
    for d, bits in enumerate(m.dirs):
        out[p.image[d]] = bits_of(relabel[bit_positions(bits)])
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
    present = np.zeros(full + 1, np.int64)
    degree = np.zeros(full + 1, np.int64)
    for d, bits in enumerate(m.dirs):
        ends = bit_positions(bits | bits << (1 << d))
        present[ends] |= 1 << d
        degree[ends] += 1
    missing = full - present[2 * degree >= n]
    member = (missing[:, None] >> np.arange(n)) & 1 == 1  # [heavy vertex][direction]
    indptr = np.append(0, np.cumsum(np.count_nonzero(member, axis=1)))
    return Collection(n, Incidence(n, indptr, np.nonzero(member)[1]))


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


_EDGE_BLOCK = 1 << 18  # bytes of a cube edge file checked at once, up to a line end


def parse_cube_edge_list(text: str) -> tuple[int, np.ndarray]:
    """Header n and the checked edges of a cube edge file, as an int64 array
    of (vertex, direction) rows.  No bit vector is built: a caller may refuse
    n first.  The file is read by ``setcore.read_lines``, about
    ``_EDGE_BLOCK`` bytes at a time.
    """
    rows = [np.zeros((0, 2), np.int64)]
    for lines in read_lines(text, "cube edge", _EDGE_BLOCK, "the dimension"):
        rows.append(_edge_rows(lines))
    return lines.n, np.concatenate(rows)  # the header's Lines always come


def _edge_rows(lines: Lines) -> np.ndarray:
    """The (vertex, direction) rows of ``lines``, adding their first fault:
    each line is a vertex of n binary digits and a decimal direction below
    n whose bit is clear in the vertex."""
    data, n, starts, ends = lines.data, lines.n, lines.starts, lines.ends

    # each line holds two tokens: pair them up, and read the pairs before
    # the first that is not a line's two
    line = lines.line if lines.line.size % 2 == 0 else np.append(lines.line, -1)
    lead, follow = line[0::2], line[1::2]
    split = lead != follow
    split[1:] |= lead[1:] == lead[:-1]
    lines.flag(split, starts[0::2], ends[0::2], lambda t, i: f"unpaired token {t!r}")
    pairs = 2 * int(np.argmax(split)) if split.any() else starts.size
    vs, ve, ds, de = starts[0:pairs:2], ends[0:pairs:2], starts[1:pairs:2], ends[1:pairs:2]

    bad = ve - vs != n
    if not bad.all():  # rows of another width are read at a start in range, and not used
        bits = np.lib.stride_tricks.sliding_window_view(data, n)[np.minimum(vs, data.size - n)] - np.uint8(48)
        bad |= (bits > 1).any(axis=1)
    lines.flag(bad, vs, ve, lambda t, i: f"vertex {t!r} is not {n} binary digits")
    if bad.all():
        return np.zeros((0, 2), np.int64)
    high = ~bad & bits[:, : max(n - 63, 0)].any(axis=1)
    lines.flag(high, vs, ve, lambda t, i: f"vertex {t!r} beyond 2^63")
    bad |= high
    width = min(n, 63)
    packed = np.packbits(bits[:, n - width :], axis=1)
    words = np.zeros((vs.size, 8), np.uint8)
    words[:, 8 - packed.shape[1] :] = packed
    v = words.view(">u8")[:, 0].astype(np.int64) >> (8 * packed.shape[1] - width)

    # a direction is decimal digits; any below n fits in the last len(str(n))
    d, nondigit, big = read_decimals(data, ds, de, len(str(n)))
    lines.flag(nondigit, ds, de, lambda t, i: f"non-integer direction {t!r}")
    outside = ~nondigit & (big | (d >= n))
    lines.flag(outside, ds, de, lambda t, i: f"direction {t.lstrip('0') or '0'} outside [0, {n})")
    d = np.where(nondigit | outside, 0, d).astype(np.int64)
    set_bit = ~bad & (v >> np.minimum(d, 63) & 1 == 1)
    lines.flag(set_bit, vs, ve, lambda t, i: f"vertex {t!r} has direction bit {d[i]} set")
    return np.stack([v, d], axis=1)


def parse_cube_edges(text: str) -> CubeEdgeSet:
    """File format: first line n, then one edge per line as
    '<vertex-as-binary-string> <direction>'."""
    return CubeEdgeSet.of(*parse_cube_edge_list(text))


def serialize_cube_edges(m: CubeEdgeSet) -> str:
    """The file of m: the header n, then one line '<vertex as n binary
    digits> <direction>' per edge in (vertex, direction) order, written
    from the per-direction vertex arrays with one sort and one buffer."""
    n = m.n
    key = np.sort(np.concatenate([np.zeros(0, np.int64), *(n * bit_positions(bits) + d for d, bits in enumerate(m.dirs))]))
    v, d = np.divmod(key, n)
    digits = len(str(n - 1))
    rows = np.zeros((key.size, n + digits + 2), np.uint8)  # 0 bytes are dropped
    rows[:, :n] = 48  # '0'
    width = min(n, 64)
    size = -(-width // 8)
    big_endian = v.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - size :]
    rows[:, n - width : n] |= np.unpackbits(big_endian, axis=1)[:, 8 * size - width :]
    rows[:, n] = 32  # ' '
    for k in range(digits):
        place = 10 ** (digits - 1 - k)
        rows[:, n + 1 + k] = np.where((d >= place) | (place == 1), 48 + d // place % 10, 0)
    rows[:, -1] = 10  # '\n'
    return f"{n}\n" + rows[rows != 0].tobytes().decode("ascii")
