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
label-order greedy on index rows, completed by alternating walks.  The
plain doubling (N'' = N', from the edge (0, 0) of Q_2) adds no direction-1
edge, so the 2^(n-1) direction-1 edges of Q_n are a perfect matching in
every residual and the cover is the whole even side.  So M_n holds no
(v, 1), (v, 0) iff bit 1 of v is clear, and (v, d), d >= 2, iff bit d of
v is clear and its low d bits have even parity: (n-1)·2^(n-2) edges.
Permuting directions so that the scarce non-N' directions at heavily
covered vertices move off themselves is exactly a set-inversion problem,
which the assisted variant hands to the derandomized inverting search.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .kappa import find_simple_permutation
from .setcore import MAX_BITS, Collection, FormatError, Incidence, Lines, Permutation, _scatter, ascii_bytes, bit_positions, bits_of, read_decimals, read_lines

# The largest n at which `cube build --assist` plus `cube verify` finish in
# under 10 s and 1 GB: 4.9-5.8 s, 328 MB at n = 21, and 9.1-11.1 s, 675 MB at n = 22 (2-core VM).
DEFAULT_SQUARE_LIMIT = 21


def _clear(d: int, width: int) -> int:
    """Mask of the vertices with bit d clear, covering at least [0, width)."""
    mask = (1 << min(1 << d, width)) - 1  # the low half of each block of 2^(d+1)
    span = 2 << d
    while span < width:
        mask |= mask << span
        span *= 2
    return mask


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
        v, d = rows.reshape(-1, 2).T.copy()  # contiguous columns: the scatter reads them faster than strided views
        outside = (d < 0) | (d >= n) | (v < 0) | (v >> min(n, 63) != 0)
        if outside.any():
            i = int(np.argmax(outside))
            raise ValueError(f"edge ({v[i]}, {d[i]}) outside Q_{n}")
        top = int(v.max(initial=-1))
        if top >= MAX_BITS:
            raise MemoryError(f"a bit vector with bit {top} set is longer than {MAX_BITS} bits")
        present = np.bincount(d, minlength=n) > 0  # one scattered row per direction with an edge, in order
        rows = iter(_scatter(np.count_nonzero(present), top // 8 + 1, np.cumsum(present)[d] - 1, v))
        return cls(n, tuple(int.from_bytes(next(rows), "little") if p else 0 for p in present.tolist()))

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
    odd = np.zeros(1, bool)  # odd[v] for the labels below 2^b, doubled per bit b
    for _ in range(n):
        odd = np.concatenate([odd, ~odd])  # v + 2^b flips the parity of v
    key = np.sort(np.where(odd[lo], hi << n | lo, lo << n | hi))  # (even end, odd end) pairs; lo, hi differ in one bit
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


def recursive_blocking_set(n: int, limit: int = DEFAULT_SQUARE_LIMIT) -> CubeEdgeSet:
    """Square-blocking set of Q_n by doubling from the single edge of Q_2.

    Each step mirrors the current set into the second copy and puts the
    cross edges at the whole even side, the cover in closed form (module
    docstring); the result is verified whenever n is within the limit.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    dirs, even = (1, 0), 0b1001  # M_2, and the labels of Q_2 with even parity
    for k in range(2, n):  # each direction tiles into both halves, direction k is the evens of Q_k
        dirs = tuple(e | e << (1 << k) for e in dirs) + (even,)
        even |= (even ^ ((1 << (1 << k)) - 1)) << (1 << k)  # v + 2^k flips the parity of v
    m = CubeEdgeSet(n, dirs)
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
    perm, _count = find_simple_permutation(direction_collection(base))
    mirror = _permute_directions(base, perm)

    # one doubling step: base and mirror in the halves of Q_n, cross edges at a cover of the rest
    residual = [_clear(d, 1 << base.n) & ~(e | f) for d, (e, f) in enumerate(zip(base.dirs, mirror))]
    lifted = tuple(e | f << (1 << base.n) for e, f in zip(base.dirs, mirror))
    assisted = CubeEdgeSet(n, lifted + (_min_vertex_cover(residual),))

    saved = ((n - 1) << (n - 2)) - len(assisted)  # the plain M_n has (n-1)·2^(n-2) edges
    if saved <= 0:
        return recursive_blocking_set(n, limit), 0
    if n <= limit and not is_square_blocking(assisted, limit):
        raise RuntimeError(f"assisted set does not block every square of Q_{n}")
    return assisted, saved


_EDGE_BLOCK = 1 << 17  # bytes of a cube edge file checked at once, up to a line end; 1 << 18 is no faster
_EDGE_WRITE = 1 << 15  # edges written at once


def parse_cube_edge_list(text: str | bytes) -> tuple[int, np.ndarray]:
    """Header n and the checked edges of a cube edge file, a str or any
    bytes-like, as an int64 array of (vertex, direction) rows.  No bit
    vector is built: a caller may refuse n first.  The file is read by
    ``setcore.read_lines``, about ``_EDGE_BLOCK`` bytes at a time.
    """
    rows = [np.zeros((0, 2), np.int64)]
    for lines in read_lines(text, "cube edge", _EDGE_BLOCK, "the dimension"):
        n = lines.n
        rows.append(_edge_rows(lines))
        del lines  # let go before the next block is scanned
    return n, np.concatenate(rows)  # the header's Lines always come


def _edge_rows(lines: Lines) -> np.ndarray:
    """The (vertex, direction) rows of ``lines``, adding their first fault:
    each line is a vertex of n binary digits and a decimal direction below
    n whose bit is clear in the vertex."""
    digits, n, starts, ends = lines.data - np.uint8(48), lines.n, lines.starts, lines.ends

    # each line holds two tokens: pair them up, and read the pairs before
    # the first that is not a line's two
    lead = lines.lead if lines.lead.size % 2 == 0 else np.append(lines.lead, True)
    split = ~lead[0::2] | lead[1::2]
    lines.flag(split, starts[0::2], ends[0::2], lambda t, i: f"unpaired token {t!r}")
    pairs = 2 * int(np.argmax(split)) if split.any() else starts.size
    vs, ve, ds, de = starts[0:pairs:2], ends[0:pairs:2], starts[1:pairs:2], ends[1:pairs:2]

    # a vertex is n binary digits, read by Horner's rule in base 2 unless no
    # token is n bytes long; before its last 63 places, only 0 is taken
    bad, v, seen = ve - vs != n, np.zeros(vs.size, np.int64), np.zeros((2, vs.size), np.uint8)
    for k in range(0 if bad.all() else n):
        digit = np.take(digits[k:], vs, mode="clip")
        seen[int(k >= n - 63)] |= digit
        if k >= n - 63:
            v = v << 1 | digit
    bad |= (seen[0] | seen[1]) > 1
    lines.flag(bad, vs, ve, lambda t, i: f"vertex {t!r} is not {n} binary digits")
    high = ~bad & (seen[0] > 0)
    lines.flag(high, vs, ve, lambda t, i: f"vertex {t!r} beyond 2^63")
    bad |= high

    # a direction is decimal digits; any below n fits in the last len(str(n))
    d, nondigit, big = read_decimals(lines, ds, de, len(str(n)))
    lines.flag(nondigit, ds, de, lambda t, i: f"non-integer direction {t!r}")
    outside = ~nondigit & (big | (d >= n))
    lines.flag(outside, ds, de, lambda t, i: f"direction {t.lstrip('0') or '0'} outside [0, {n})")
    d = np.where(nondigit | outside, 0, d).astype(np.int64)
    set_bit = ~bad & (v >> np.minimum(d, 63) & 1 == 1)
    lines.flag(set_bit, vs, ve, lambda t, i: f"vertex {t!r} has direction bit {d[i]} set")
    return np.stack([v, d], axis=1)


def decode_cube_edges(raw: bytes) -> CubeEdgeSet | None:
    """The edge set of ``raw`` if it is in the writer's own lines, repeats
    allowed: the header n, then per edge n binary digits, a space, the
    direction below n in one or two decimal digits and '\n'.  Else None,
    raising nothing, as past n = 32 (vectors past MAX_BITS) or when the n·2^n
    edge flags outgrow both the file and 1 MiB.  Read by blocks of lines."""
    head = raw[:3].partition(b"\n")[0]
    n = int(head) if head.isdigit() else 0
    if not (0 < n and 1 << n <= MAX_BITS and n << n <= max(len(raw), 1 << 20) and raw.startswith(b"%d\n" % n) and raw.endswith(b"\n")):
        return None
    flags, at = np.zeros(n << n, bool), len(head) + 1  # flags[d << n | v]: the edge (v, d)
    while at < len(raw):
        end = raw.find(b"\n", at + _EDGE_BLOCK) + 1 or len(raw)
        data = np.frombuffer(raw, np.uint8, end - at, at)
        ends = np.flatnonzero(data == 10)
        starts = np.append(0, ends[:-1] + 1)
        two = ends - starts - (n + 2)  # 1 where the direction has two digits
        if (two.astype(np.uint64) > 1).any():
            return None
        first, last = data[starts + n + 1] - np.uint8(48), data[ends - 1] - np.uint8(48)
        d = last + 10 * two * first

        # bit i of the words is the low bit of byte i: a vertex is n bits from its line's start
        words = np.packbits(np.append(data & 1, np.zeros(128 - data.size % 64, np.uint8))).view(">u8").astype(np.uint64)
        shift, i = (starts & 63).astype(np.uint64), starts >> 6
        v = ((words[i] << shift | words[i + 1] >> (64 - shift)) >> np.uint64(64 - n)).astype(np.int64)

        # every vertex byte is a binary digit iff the block holds n per line plus the directions' own
        binary = n * ends.size + np.count_nonzero(first <= 1) + np.count_nonzero((last <= 1) & (two == 1))
        if (np.count_nonzero((data | 1) == 49) != binary or (data[starts + n] != 32).any() or max(first.max(), last.max()) > 9
                or ((d >= n) | (v >> d & 1 == 1)).any()):
            return None
        flags[d << n | v] = True
        at = end
    rows = np.packbits(flags.reshape(n, -1), axis=1, bitorder="little")
    return CubeEdgeSet(n, tuple(int.from_bytes(row, "little") for row in rows))


def parse_cube_edges(text: str | bytes, n: int | None = None) -> CubeEdgeSet:
    """File format: first line n, then one edge per line as
    '<vertex-as-binary-string> <direction>'.  A file in the writer's own
    lines is decoded, any other read by tokens; with n, a file for another
    Q_n is refused, and by tokens before its bit vectors are built."""
    raw = ascii_bytes(text, "cube edge")
    m = decode_cube_edges(raw)
    found, edges = (m.n, None) if m is not None else parse_cube_edge_list(raw)
    if n is not None and found != n:
        raise FormatError(f"file is for Q_{found}, not Q_{n}")
    return CubeEdgeSet.of(found, edges) if m is None else m


def cube_edge_chunks(m: CubeEdgeSet) -> Iterator[bytes]:
    """The file of m in chunks: the header n, then one line '<vertex as n
    binary digits> <direction>' per edge in (vertex, direction) order, from
    one sort, _EDGE_WRITE edges per chunk, the NUL bytes dropped."""
    n = m.n
    yield b"%d\n" % n
    key = np.sort(np.concatenate([np.zeros(0, np.int64), *(n * bit_positions(bits) + d for d, bits in enumerate(m.dirs))]))
    digits, width, size = len(str(n - 1)), min(n, 64), -(-min(n, 64) // 8)
    ends = b"".join((b" %d\n" % d).rjust(digits + 2, b"\0") for d in range(n))  # ' ' d '\n', NULs in front
    ends = np.frombuffer(ends, np.uint8).reshape(n, digits + 2)
    for a in range(0, key.size, _EDGE_WRITE):
        v, d = np.divmod(key[a : a + _EDGE_WRITE], n)
        rows = np.full((v.size, n + digits + 2), 48, np.uint8)  # '0'
        big_endian = v.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - size :]
        rows[:, n - width : n] |= np.unpackbits(big_endian, axis=1)[:, 8 * size - width :]
        rows[:, n:] = np.take(ends, d, axis=0)
        yield rows.tobytes().translate(None, b"\0")


def write_cube_edges(m: CubeEdgeSet) -> bytes:
    """The file of m as bytes: the join of its chunks."""
    return b"".join(cube_edge_chunks(m))


def serialize_cube_edges(m: CubeEdgeSet) -> str:
    return write_cube_edges(m).decode("ascii")
