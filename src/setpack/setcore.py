"""Ground-set primitives: bit-vector subsets, collections, permutations.

Elements are 0-based integers in [0, n).  Subsets are stored as Python
integers used as bit vectors (bit x set <=> element x present), so the
ground-set size is bounded only by memory, never by a machine word.
All types are immutable after construction; every operation is a pure
function, safe for concurrent use.  A collection is its membership
record (``Incidence``), which every bulk consumer reads; the parser
writes it directly, and a collection made from Subsets builds it once,
when first asked for.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np


class FormatError(ValueError):
    """Raised when a collection or permutation file is malformed."""


MAX_BITS = 1 << 32  # longest bit vector bits_of builds: 512 MiB packed


def bit_positions(bits: int) -> np.ndarray:
    """Positions of the set bits of ``bits >= 0``, increasing, as int64."""
    raw = np.frombuffer(bits.to_bytes((bits.bit_length() + 7) // 8, "little"), np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little"))


def _scatter(count: int, width: int, row: np.ndarray | int, positions: np.ndarray) -> np.ndarray:
    """``count`` little-endian rows of ``width`` bytes, bit positions[i] of row[i] set by one bitwise_or.at."""
    rows = np.zeros((count, width), np.uint8)
    np.bitwise_or.at(rows.reshape(-1), row * width + (positions >> 3), np.left_shift(1, positions & 7).astype(np.uint8))
    return rows


def bits_of(positions: np.ndarray) -> int:
    """Bit vector with bits ``positions >= 0`` set, any order, repeats allowed; refused unallocated past MAX_BITS."""
    top = int(positions.max(initial=-1))
    if top >= MAX_BITS:
        raise MemoryError(f"a bit vector with bit {top} set is longer than {MAX_BITS} bits")
    return int.from_bytes(_scatter(1, top // 8 + 1, 0, positions), "little")


@dataclass(frozen=True)
class Subset:
    """A subset of the ground set [0, n), stored as a bit vector."""

    n: int
    bits: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("ground-set size must be non-negative")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError("bit vector has bits outside [0, n)")

    @classmethod
    def of(cls, n: int, elements: Iterable[int]) -> "Subset":
        bits = 0
        for x in elements:
            if not 0 <= x < n:
                raise ValueError(f"element {x} outside ground set [0, {n})")
            bits |= 1 << x
        return cls(n, bits)

    def cardinality(self) -> int:
        return self.bits.bit_count()

    def elements(self) -> list[int]:
        return bit_positions(self.bits).tolist()

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements())

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __repr__(self):
        return f"Subset({self.n}, {{{' '.join(map(str, self.elements()))}}})"


class Incidence:
    """A collection's membership record in CSR form (Gustavson 1978): set i
    holds ``elements[indptr[i]:indptr[i + 1]]``, int64 and increasing.
    Derived on first use: ``sets``, the set of each element entry, and
    ``rows``, each set packed into whole 64-bit words, little-endian."""

    def __init__(self, n: int, indptr: np.ndarray, elements: np.ndarray):
        self.n, self.indptr, self.elements = n, indptr, elements

    @classmethod
    def of(cls, n: int, members: Sequence[Subset]) -> "Incidence":
        """The record of ``members``, read from one buffer of their bytes."""
        widths = np.array([(s.bits.bit_length() + 7) // 8 for s in members], np.int64)
        buf = b"".join(s.bits.to_bytes(w, "little") for s, w in zip(members, widths.tolist()))
        raw = np.frombuffer(buf, np.uint8)
        nonzero = np.flatnonzero(raw)  # small sets leave most bytes 0: unpack the others
        bits = np.flatnonzero(np.unpackbits(raw[nonzero], bitorder="little"))
        at = nonzero[bits >> 3]  # updated in place: the element array dominates memory
        at <<= 3
        at |= bits & 7
        del nonzero, bits
        ends = 8 * np.cumsum(widths)
        indptr = np.append(0, np.searchsorted(at, ends))  # at is increasing
        at -= np.repeat(ends - 8 * widths, np.diff(indptr))
        return cls(n, indptr, at)

    @cached_property
    def sets(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr))

    @cached_property
    def rows(self) -> np.ndarray:
        return _scatter(len(self.indptr) - 1, 8 * ((self.n + 63) // 64), self.sets, self.elements)


class Collection:
    """A ground-set size n together with an ordered list of subsets, held
    as their ``Incidence`` record.  ``Collection(n, sets)`` takes Subsets
    or a record; the Subsets are built from the record, or the record from
    the Subsets, when first asked for.  Equality compares n and the sets."""

    def __init__(self, n: int, sets: Iterable[Subset] | Incidence):
        kind, sets = ("record", sets) if isinstance(sets, Incidence) else ("subset", tuple(sets))
        for s in [sets] if kind == "record" else sets:
            if s.n != n:
                raise ValueError(f"{kind} over ground set of size {s.n} in a collection with n={n}")
        self.__dict__.update(n=n, **{"incidence" if kind == "record" else "sets": sets})

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def of(cls, n: int, sets: Iterable[Iterable[int]]) -> "Collection":
        return cls(n, tuple(Subset.of(n, s) for s in sets))

    @cached_property
    def incidence(self) -> Incidence:
        """What every bulk consumer reads; built once, freed with c."""
        return Incidence.of(self.n, self.sets)

    @cached_property
    def sets(self) -> tuple[Subset, ...]:
        """The member Subsets, built from the record when first asked for."""
        e, ends = self.incidence.elements.tolist(), self.incidence.indptr.tolist()
        return tuple(Subset(self.n, sum(1 << x for x in e[a:b])) for a, b in zip(ends, ends[1:]))

    @property
    def m(self) -> int:
        return len(self.incidence.indptr) - 1

    def _key(self) -> tuple:
        """What equality and the hash compare."""
        inc = self.incidence
        return type(self), self.n, inc.indptr.tobytes(), inc.elements.tobytes()

    def __eq__(self, other):
        return isinstance(other, Collection) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n!r}, sets={self.sets!r})"


@dataclass(frozen=True)
class Permutation:
    """A bijection on [0, n) stored as an image array: image[j] = pi(j).

    ``is_simple`` flags a permutation made of floor(n/2) disjoint 2-cycles
    (plus a single fixed point when n is odd); the structure is validated
    when the flag is set.
    """

    n: int
    image: tuple[int, ...]
    is_simple: bool = field(default=False, compare=False)

    def __post_init__(self):
        if len(self.image) != self.n:
            raise ValueError("image length must equal n")
        if sorted(self.image) != list(range(self.n)):
            raise ValueError("image is not a bijection on [0, n)")
        if self.is_simple:
            fixed = sum(1 for j, y in enumerate(self.image) if y == j)
            if any(self.image[y] != j for j, y in enumerate(self.image)):
                raise ValueError("simple permutation must be an involution")
            if fixed != self.n % 2:
                raise ValueError(
                    "simple permutation must have floor(n/2) two-cycles"
                )

    def __repr__(self):
        return f"Permutation({self.n}, {list(self.image)})"


def complement(s: Subset) -> Subset:
    """V - s; an involution with |result| = n - |s|."""
    full = (1 << s.n) - 1
    return Subset(s.n, full & ~s.bits)


def apply(p: Permutation, s: Subset) -> Subset:
    """The image set {p(x) : x in s}; cardinality is preserved."""
    if p.n != s.n:
        raise ValueError(f"permutation on {p.n} points applied to subset of [0, {s.n})")
    return Subset(s.n, sum(1 << p.image[x] for x in s.elements()))


def inverts(p: Permutation, s: Subset) -> bool:
    """True iff p(s) and s are disjoint."""
    if p.n != s.n:
        raise ValueError(f"permutation on {p.n} points applied to subset of [0, {s.n})")
    return not any((s.bits >> p.image[x]) & 1 for x in s.elements())


def inverted(c: Collection, p: Permutation) -> np.ndarray:
    """Flags of the member sets that p inverts, by one gather over the
    membership pairs: set s fails when bit p(x) of its row is set for some
    x in s.  Empty sets are inverted."""
    if p.n != c.n:
        raise ValueError(f"permutation on {p.n} points applied to subsets of [0, {c.n})")
    inc = c.incidence
    image = np.asarray(p.image, np.int64)[inc.elements]
    ok = np.ones(c.m, bool)
    ok[inc.sets[(inc.rows[inc.sets, image >> 3] >> (image & 7)) & 1 == 1]] = False
    return ok


def scan_tokens(data: np.ndarray):
    """Tokens of the whole lines of ASCII text held in ``data``: maximal
    runs of bytes above the blanks (space, tab, CR, LF), less the lines
    whose first token starts with '#'.  Returns the offsets of the '\n'
    bytes; the faults for the caller to refuse, as (offset, what) pairs:
    the first control character but tab, CR and LF, then the first CR
    without LF; and the tokens' starts, ends and lines (the count of '\n'
    before each).  Per byte it holds only bytes and flags, per token a few
    int64 offsets."""
    newlines = np.flatnonzero(data == 10)
    faults = [(int(np.argmax(flags)), what) for flags, what in (
        ((data < 32) & (data != 9) & (data != 10) & (data != 13), "control character"),
        ((data == 13) & (np.append(data[1:], 0) != 10), "carriage return without line feed"),
    ) if flags.any()]

    inside = np.zeros(data.size + 2, bool)
    np.greater(data, 32, out=inside[1:-1])
    bounds = np.flatnonzero(inside[1:] != inside[:-1])
    starts, ends = bounds[0::2], bounds[1::2]
    line = np.searchsorted(newlines, starts)
    lead = np.ones(line.size, bool)  # the first token of its line
    lead[1:] = line[1:] != line[:-1]
    comment = lead & (data[starts] == 35)  # '#'
    keep = ~comment[lead][np.cumsum(lead) - 1]
    return newlines, faults, starts[keep], ends[keep], line[keep]


def read_decimals(data: np.ndarray, starts: np.ndarray, ends: np.ndarray, wide: int):
    """The tokens [starts, ends) of ``data`` read as decimal numbers: their
    values from their last ``wide`` digits, as uint64, then per token
    whether some byte is not a digit and whether some digit before the
    last ``wide`` is not 0.  Per byte it holds only bytes and flags."""
    padded, length = np.append(np.zeros(wide, np.uint8), data), ends - starts
    value, nondigit, big = np.zeros(starts.size, np.uint64), np.zeros(starts.size, bool), np.zeros(starts.size, bool)
    for k in range(wide):  # Horner's rule over the last `wide` places, highest first
        digit, inside = padded[ends + k] - np.uint8(48), length >= wide - k
        value = value * np.uint64(10) + np.where(inside, digit, np.uint8(0))
        nondigit |= inside & (digit > 9)
    if length.max(initial=0) > wide:
        span = np.zeros(data.size + 1, np.int8)  # 1 on the bytes before a token's last `wide`
        span[starts] += 1
        span[np.maximum(starts, ends - wide)] -= 1
        head = np.cumsum(span[:-1], dtype=np.int8).view(bool)
        nondigit |= np.logical_or.reduceat(head & (data - np.uint8(48) > 9), starts)
        big = np.logical_or.reduceat(head & (data != 48), starts)
    return value, nondigit, big


_PARSE_BLOCK = 1 << 15  # bytes read at once, up to a line end; 1 << 18 more than doubles the peak
_WRITE_BLOCK = 1 << 15  # membership pairs written at once


def parse_collection(text: str) -> Collection:
    """Read the collection file format.

    First non-comment line: the ground-set size n.  Each further
    non-comment line: one set as blank-separated 0-based elements.
    The file is ASCII.  Lines whose first token starts with '#' are
    comments; blank lines are ignored (an empty set has no line at all).
    Spaces and tabs are blanks; lines end with '\n' or '\r\n'.  Numbers
    are decimal digits, leading zeros allowed, elements below 2^63.

    It is read as byte arrays of whole lines, about ``_PARSE_BLOCK`` bytes
    at a time, straight into the collection's incidence record; the first
    fault in file order is reported, with its line.
    """
    if not text.isascii():
        raise FormatError("collection files are ASCII")
    n, lineno, at, used = None, 0, 0, 0
    sizes, elements = [np.zeros(0, np.int64)], np.zeros(0, np.int64)
    while at < len(text):
        end = text.find("\n", at + _PARSE_BLOCK) + 1 or len(text)
        raw = text[at:end].encode("ascii")
        n, block = _parse_sets(np.frombuffer(raw, np.uint8), n, lineno, sizes)
        if used + block.size > elements.size:  # realloc to the projected size: no second copy
            elements.resize((used + block.size) * len(text) // end, refcheck=False)
        elements[used : used + block.size] = block
        used, lineno, at = used + block.size, lineno + raw.count(b"\n"), end
    if n is None:
        raise FormatError("missing header line with the ground-set size")
    elements.resize(used, refcheck=False)
    return Collection(n, Incidence(n, np.append(0, np.cumsum(np.concatenate(sizes))), elements))


def _parse_sets(data: np.ndarray, n: int | None, lineno: int, sizes: list) -> tuple[int | None, np.ndarray]:
    """Check whole lines of a collection file that follow ``lineno`` lines,
    reading the header first if ``n`` is None; append their sets' sizes to
    ``sizes`` and return n and their elements, increasing within each set."""
    newlines, faults, starts, ends, line = scan_tokens(data)

    def refuse(at: int | None = None, what: str = "") -> None:
        """Raise the first fault in the block, ``at`` included."""
        if at is not None:
            faults.append((at, what))
        if faults:
            at, what = min(faults)
            raise FormatError(f"line {lineno + int(np.searchsorted(newlines, at)) + 1}: {what}")

    if n is None and starts.size:
        count = int(np.count_nonzero(line == line[0]))
        header = data[starts[0] : ends[count - 1]].tobytes().decode()
        if count > 1:
            refuse(starts[0], f"header must be a single integer, got {header!r}")
        if not header.isdigit():
            refuse(starts[0], f"non-integer token {header!r}")
        try:
            n = int(header.lstrip("0") or "0")
        except ValueError:  # more digits than int() reads (4,300 by default)
            refuse(starts[0], f"non-integer token {header!r}")
        starts, ends, line = starts[1:], ends[1:], line[1:]
    if not starts.size:
        refuse()
        return n, np.zeros(0, np.int64)

    # 19 digits hold every element below 2^63
    value, nondigit, big = read_decimals(data, starts, ends, min(int((ends - starts).max()), 19))
    outside = ~nondigit & (big | (value >= min(n, 1 << 63)))
    bad = nondigit | outside

    # one set per line; a line whose elements do not rise is sorted, and
    # a repeated element is flagged at its later tokens
    first = np.flatnonzero(np.diff(line, prepend=-1))
    x = np.where(bad, 0, value).astype(np.int64)
    rising = x[1:] > x[:-1]
    rising[first[1:] - 1] = True
    if not rising.all():
        order = np.lexsort((np.arange(x.size), x, line))  # a line's equal tokens in file order
        again = (x[order[1:]] == x[order[:-1]]) & (line[order[1:]] == line[order[:-1]])
        bad[order[1:][again]] = True
        x = x[order]
    if bad.any():  # the first faulty token in file order
        i = int(np.argmax(bad))
        token = data[starts[i] : ends[i]].tobytes().decode()
        digits = token.lstrip("0") or "0"
        refuse(starts[i], f"non-integer token {token!r}" if nondigit[i]
               else f"duplicate element {int(value[i])}" if not outside[i]
               else f"element {digits} outside [0, {n})" if n <= 1 << 63
               else f"element {digits} at or above 2^63")
    refuse()
    sizes.append(np.diff(first, append=x.size))
    return n, x


def serialize_collection(c: Collection, header_comments: Iterable[str] = ()) -> str:
    """Canonical text form; parse(serialize(c)) == c.

    Empty member sets cannot be represented (the format has no line for
    them), nor can comments beyond tab and printable ASCII be read back,
    so both are rejected.  The header and the sets are written into one
    byte buffer, the sets from the record _WRITE_BLOCK elements at a time,
    each digit place over the elements that still have one.
    """
    lines = [ln for h in header_comments for ln in h.splitlines() or [h]]  # one comment per line
    out = [ln if ln.startswith("#") else f"# {ln}" for ln in lines]
    for ln in out:
        if re.search(r"[^\t -\x7f]", ln):
            raise ValueError(f"comment {ln!r} holds a character that collection files refuse")
    out.append(str(c.n))
    head = ("\n".join(out) + "\n").encode("ascii")
    inc = c.incidence
    sizes = np.diff(inc.indptr)
    if (sizes == 0).any():
        raise ValueError(f"set {int(np.argmax(sizes == 0))} is empty and has no file representation")
    last = inc.indptr[1:] - 1  # each set's last element, followed by '\n'
    e = inc.elements
    digits = np.ones(e.size, np.uint8)
    for k in range(1, len(str(int(e.max()))) if e.size else 1):
        digits += e >= 10**k
    buf = np.full(len(head) + int(digits.sum(dtype=np.int64)) + e.size, 32, np.uint8)  # ' '
    buf[: len(head)] = np.frombuffer(head, np.uint8)
    at = len(head)
    for a in range(0, e.size, _WRITE_BLOCK):
        end = at + np.cumsum(digits[a : a + _WRITE_BLOCK] + 1, dtype=np.int64)  # past each separator
        lo, hi = np.searchsorted(last, [a, a + end.size])
        buf[end[last[lo:hi] - a] - 1] = 10
        at, pos, rest = int(end[-1]), end - 2, e[a : a + _WRITE_BLOCK]
        while pos.size:  # lowest digit place first
            buf[pos] = 48 + rest % 10
            rest = rest // 10
            pos, rest = pos[rest > 0] - 1, rest[rest > 0]
    return str(buf, "ascii")


def parse_permutation(text: str) -> Permutation:
    """Read the permutation file format: one data line, image[j] at
    position j, in the blanks, comments, line ends and numbers of the
    collection files.  The 0-point permutation is one blank line, which
    is what serialize_permutation writes for it.
    """
    if not text.isascii():
        raise FormatError("permutation files are ASCII")
    data = np.frombuffer(text.encode("ascii"), np.uint8)
    newlines, faults, starts, ends, line = scan_tokens(data)
    if faults:
        at, what = min(faults)
        raise FormatError(f"line {int(np.searchsorted(newlines, at)) + 1}: {what}")
    if not starts.size and any(not raw.strip() for raw in text.splitlines()):
        return Permutation(0, ())
    if not starts.size or line[-1] != line[0]:
        raise FormatError("permutation file must hold exactly one data line")
    lineno = int(line[0]) + 1
    image, nondigit, big = read_decimals(data, starts, ends, min(int((ends - starts).max()), 19))
    if nondigit.any():
        i = int(np.argmax(nondigit))
        raise FormatError(f"line {lineno}: non-integer token {data[starts[i] : ends[i]].tobytes().decode()!r}")
    image[big] = image.size  # past n, so refused as no bijection
    try:
        return Permutation(image.size, tuple(image.tolist()))
    except ValueError as e:
        raise FormatError(f"line {lineno}: {e}") from None


def serialize_permutation(p: Permutation) -> str:
    return " ".join(map(str, p.image)) + "\n"
