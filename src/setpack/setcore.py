"""Ground-set primitives: bit-vector subsets, collections, permutations.

Elements are 0-based integers in [0, n).  Subsets are stored as Python
integers used as bit vectors (bit x set <=> element x present), so the
ground-set size is bounded only by memory, never by a machine word.
All types are immutable after construction; every operation is a pure
function, safe for concurrent use.  A collection is its membership
record (``Incidence``), which every bulk consumer reads, written when the
collection is made.  The collection, permutation and cube edge files are
line files read by one reader, ``read_lines``, with one first-fault rule.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import chain
from typing import Iterable, Iterator

import numpy as np


class FormatError(ValueError):
    """Raised when a collection, permutation or cube edge file is malformed."""


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

    @cached_property
    def sets(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr))

    @cached_property
    def rows(self) -> np.ndarray:
        return _scatter(len(self.indptr) - 1, 8 * ((self.n + 63) // 64), self.sets, self.elements)


def _record(n: int, lists: list[list[int]]) -> Incidence:
    """The record of sets given as element lists, in any order and repeats
    allowed: each set sorted, its repeats dropped, and the first element
    outside [0, n) refused."""
    sizes, top = [len(s) for s in lists], min(n, 1 << 63)  # no record holds an element past 2^63
    try:
        elements = np.fromiter(chain.from_iterable(lists), np.int64, sum(sizes))
        fits = bool(((elements >= 0) & (elements < top)).all())
    except OverflowError:
        fits = False
    if not fits:
        x = next(x for x in chain.from_iterable(lists) if not 0 <= x < top)
        raise ValueError(f"element {x} outside ground set [0, {top})")
    owner = np.repeat(np.arange(len(sizes)), sizes)
    if not ((elements[1:] > elements[:-1]) | (owner[1:] != owner[:-1])).all():
        order = np.argsort(elements)  # unstable: equal (owner, element) pairs are repeats
        # then stably by owner, narrowed so that up to 2^16 sets take a radix sort
        order = order[np.argsort(owner[order].astype(np.min_scalar_type(len(sizes) - 1)), kind="stable")]
        elements, owner = elements[order], owner[order]
        keep = np.append(True, (elements[1:] != elements[:-1]) | (owner[1:] != owner[:-1]))
        elements, sizes = elements[keep], np.bincount(owner[keep], minlength=len(sizes))
    return Incidence(n, np.append(0, np.cumsum(sizes, dtype=np.int64)), elements)


class Collection:
    """A ground-set size n together with an ordered list of subsets, held
    as their ``Incidence`` record.  ``Collection(n, sets)`` takes Subsets
    or a record and ``Collection.of`` element lists; the Subsets are built
    from the record when first asked for.  Equality compares n and the sets."""

    def __init__(self, n: int, sets: Iterable[Subset] | Incidence):
        if not isinstance(sets, Incidence):
            sets = tuple(sets)
            for s in sets:
                if s.n != n:
                    raise ValueError(f"subset over ground set of size {s.n} in a collection with n={n}")
            sets = _record(n, [s.elements() for s in sets])
        elif sets.n != n:
            raise ValueError(f"record over ground set of size {sets.n} in a collection with n={n}")
        self.__dict__.update(n=n, incidence=sets)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def of(cls, n: int, sets: Iterable[Iterable[int]]) -> "Collection":
        return cls(n, _record(n, [list(s) for s in sets]))

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


class Lines:
    """Whole lines of a file as the byte array ``data``, after ``lineno``
    earlier lines and ending at offset ``end`` of the text, scanned once:
    the offsets of its '\n' bytes, and its tokens, maximal runs of bytes
    above the blanks (space, tab, CR, LF), less the lines whose first token
    starts with '#' and less the header, as their ``starts``, ``ends`` and
    ``lead`` (the first of its line).  ``n`` is the header's value.  Only a
    block that is not ``plain`` (all digits, spaces and '\n') is searched
    for comments and faults.  ``faults`` are (offset, what) pairs: the
    first control character but tab, CR and LF and the first CR without
    LF, then those a parser adds in the order it checks them.  Per byte it
    holds only bytes and flags, per token a few int64 offsets."""

    def __init__(self, data: np.ndarray, lineno: int, end: int, n: int | None):
        self.data, self.lineno, self.end, self.n = data, lineno, end, n
        self.newlines = np.flatnonzero(data == 10)
        self.plain = not data.tobytes().translate(None, b"\n 0123456789")
        self.faults = [] if self.plain else [(int(np.argmax(flags)), what) for flags, what in (
            ((data < 32) & (data != 9) & (data != 10) & (data != 13), "control character"),
            ((data == 13) & (np.append(data[1:], 0) != 10), "carriage return without line feed"),
        ) if flags.any()]

        inside = np.zeros(data.size + 2, bool)
        np.greater(data, 32, out=inside[1:-1])
        bounds = np.flatnonzero(inside[1:] != inside[:-1])
        starts, ends = bounds[0::2], bounds[1::2]
        lead = np.bincount(np.searchsorted(starts, self.newlines), minlength=starts.size + 1)[:-1] > 0
        lead[:1] = True  # the first token of the block and those after a '\n'
        if not self.plain:  # drop the comment lines
            comment = lead & (data[starts] == 35)  # '#'
            keep = ~comment[lead][np.cumsum(lead) - 1]
            starts, ends, lead = starts[keep], ends[keep], lead[keep]
        self.starts, self.ends, self.lead = starts, ends, lead

    def text(self, start: int, end: int) -> str:
        return self.data[start:end].tobytes().decode()

    def flag(self, bad: np.ndarray, starts: np.ndarray, ends: np.ndarray, what) -> None:
        """Add a fault at the first flagged token of [starts, ends): its
        message is ``what(token, i)``, i the token's index."""
        if bad.any():
            i = int(np.argmax(bad))
            self.faults.append((int(starts[i]), what(self.text(starts[i], ends[i]), i)))

    def refuse(self) -> None:
        """Raise the first fault in file order as 'line N: what'; of faults
        at one offset, the first added."""
        if self.faults:
            at, what = min(self.faults, key=lambda fault: fault[0])
            raise FormatError(f"line {self.lineno + int(np.searchsorted(self.newlines, at)) + 1}: {what}")

    def read_header(self) -> int:
        """Take the first token line, the header, out of the tokens and
        return its value; refuse it at once unless it is one decimal number."""
        count = int(np.argmax(np.append(self.lead[1:], True))) + 1
        header = self.text(self.starts[0], self.ends[count - 1])
        if count == 1 and header.isdigit():  # int() would take a sign or '_'
            try:
                self.n = int(header.lstrip("0") or "0")
            except ValueError:  # more digits than int() reads (4,300 by default)
                pass
        if self.n is None:
            self.faults.append((int(self.starts[0]), f"header must be a single integer, got {header!r}"
                                if count > 1 else f"non-integer token {header!r}"))
            self.refuse()
        self.starts, self.ends, self.lead = self.starts[1:], self.ends[1:], self.lead[1:]
        return self.n


def ascii_bytes(text: str | bytes, name: str) -> bytes:
    """The ``name`` file ``text``, a str or any bytes-like, as bytes; refused unless ASCII."""
    raw = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else bytes(text)
    if not raw.isascii():
        raise FormatError(f"{name} files are ASCII")
    return raw


def read_lines(text: str | bytes, name: str, block: int, header: str | None = None) -> Iterator[Lines]:
    """The ``name`` file ``text`` as Lines of about ``block`` bytes each,
    views of its bytes ending at line ends.  The file is ASCII.  With
    ``header``, which names what it holds, the first token line is the
    header, and the Lines come from its own on, each with its value as
    ``n``.  Before it reads on, the reader raises the first fault of the
    Lines it gave, so the first fault in file order is the one reported,
    and lets go of them: a caller that does too holds one at a time."""
    raw = ascii_bytes(text, name)
    n, lineno, at = None, 0, 0
    while at < len(raw):
        end = raw.find(b"\n", at + block) + 1 or len(raw)
        lines = Lines(np.frombuffer(raw, np.uint8, end - at, at), lineno, end, n)
        if header and n is None and lines.starts.size:
            n = lines.read_header()
        if n is not None or not header:
            yield lines
        lines.refuse()
        lineno, at = lineno + lines.newlines.size, end
        del lines
    if header and n is None:
        raise FormatError(f"missing header line with {header}")


def read_decimals(lines: Lines, starts: np.ndarray, ends: np.ndarray, wide: int):
    """The tokens [starts, ends) of ``lines`` read as decimal numbers: their
    values from their last ``wide`` digits, as uint64, then per token
    whether some byte is not a digit (only in a block that is not plain)
    and whether some digit before the last ``wide`` is not 0."""
    data, length = lines.data, ends - starts
    nondigit, big = np.zeros(starts.size, bool), np.zeros(starts.size, bool)
    if not lines.plain:  # over each token, then over the blanks after it
        nondigit = np.logical_or.reduceat(np.append(data - np.uint8(48) > 9, False), np.stack([starts, ends], 1).ravel())[::2]
    padded = np.append(np.zeros(wide, np.uint8), data)
    value = np.zeros(starts.size, np.uint16 if wide <= 4 else np.uint32 if wide <= 9 else np.uint64)  # holds `wide` digits
    for k in range(wide):  # Horner's rule over the last `wide` places, highest first
        digit = np.take(padded[k:], ends) - np.uint8(48)
        digit *= length >= wide - k  # 0 before the token
        value *= 10
        value += digit
    if length.max(initial=0) > wide:
        span = np.zeros(data.size + 1, np.int8)  # 1 on the bytes before a token's last `wide`
        span[starts] += 1
        span[np.maximum(starts, ends - wide)] -= 1
        head = np.cumsum(span[:-1], dtype=np.int8).view(bool)
        big = np.logical_or.reduceat(head & (data != 48), starts)
    return value.astype(np.uint64), nondigit, big


_PARSE_BLOCK = 1 << 15  # bytes read at once, up to a line end; 1 << 18 more than doubles the peak
_WRITE_BLOCK = 1 << 15  # membership pairs written at once


def parse_collection(text: str | bytes) -> Collection:
    """Read the collection file format, from a str or any bytes-like.

    First non-comment line: the ground-set size n.  Each further
    non-comment line: one set as blank-separated 0-based elements.
    The file is ASCII.  Lines whose first token starts with '#' are
    comments; blank lines are ignored (an empty set has no line at all).
    Spaces and tabs are blanks; lines end with '\n' or '\r\n'.  Numbers
    are decimal digits, leading zeros allowed, elements below 2^63.

    It is read by ``read_lines``, about ``_PARSE_BLOCK`` bytes at a time,
    straight into the collection's incidence record.
    """
    sizes, elements, used = [np.zeros(0, np.int64)], np.zeros(0, np.int64), 0
    for lines in read_lines(text, "collection", _PARSE_BLOCK, "the ground-set size"):
        n, end, block = lines.n, lines.end, _read_sets(lines, sizes)
        del lines  # let go before the next block is scanned
        if used + block.size > elements.size:  # realloc to the projected size: no second copy
            elements.resize((used + block.size) * max(len(text), end) // end, refcheck=False)
        elements[used : used + block.size] = block
        used += block.size
    elements.resize(used, refcheck=False)
    return Collection(n, Incidence(n, np.append(0, np.cumsum(np.concatenate(sizes))), elements))


def _read_sets(lines: Lines, sizes: list) -> np.ndarray:
    """Check the sets of ``lines``, adding their first fault; append their
    sizes to ``sizes`` and return their elements, increasing within each."""
    starts, ends, lead, n = lines.starts, lines.ends, lines.lead, lines.n

    # 19 digits hold every element below 2^63
    value, nondigit, big = read_decimals(lines, starts, ends, min(int((ends - starts).max(initial=0)), 19))
    outside = ~nondigit & (big | (value >= min(n, 1 << 63)))
    bad = nondigit | outside

    # one set per line; a line whose elements do not rise is sorted, and
    # a repeated element is flagged at its later tokens
    x = (value * ~bad).view(np.int64)
    if not ((x[1:] > x[:-1]) | lead[1:]).all():
        line = np.cumsum(lead)
        order = np.lexsort((np.arange(x.size), x, line))  # a line's equal tokens in file order
        again = (x[order[1:]] == x[order[:-1]]) & (line[order[1:]] == line[order[:-1]])
        bad[order[1:][again]] = True
        x = x[order]

    def what(token: str, i: int) -> str:
        digits = token.lstrip("0") or "0"
        return (f"non-integer token {token!r}" if nondigit[i]
                else f"duplicate element {int(value[i])}" if not outside[i]
                else f"element {digits} outside [0, {n})" if n <= 1 << 63
                else f"element {digits} at or above 2^63")

    lines.flag(bad, starts, ends, what)
    sizes.append(np.diff(np.flatnonzero(lead), append=x.size))
    return x


@cache
def _digit_table() -> np.ndarray:
    """Row g < 10^4: the digits of g right-aligned in four bytes, NUL for
    its leading zeros, then a space.  Built on the first write; read-only."""
    rows = ((b"%4d|" * 10**4) % tuple(range(10**4))).replace(b" ", b"\0").replace(b"|", b" ")
    return np.frombuffer(rows, np.uint8).reshape(10**4, 5)


def digit_cells(e: np.ndarray) -> np.ndarray:
    """Cells of the numbers e >= 0, uint8 of shape e.shape + (groups, 5): a
    ``_digit_table`` row per base-10^4 group, the lowest last, NUL above a
    number's first digit and in all separators but the last."""
    if e.max(initial=0) < 10**4:
        return np.take(_digit_table(), e[..., None], axis=0)
    g = e[..., None] // 10 ** (4 * np.arange((len(str(int(e.max()))) - 1) // 4, -1, -1))
    rows = np.take(_digit_table(), g % 10**4, axis=0)
    rows[..., :-1, 4] = 0  # one separator, after the lowest group
    rows[..., :4] |= (g >= 10**4)[..., None] * np.uint8(48)  # inner groups keep their zeros
    rows[..., :-1, :] *= (g[..., :-1] > 0)[..., None]  # no group above the first digit
    return rows


def write_collection(c: Collection, header_comments: Iterable[str] = ()) -> bytes:
    """Canonical file of c as bytes; parse_collection(write_collection(c)) == c.

    Empty member sets cannot be represented (the format has no line for
    them), nor can comments beyond tab and printable ASCII be read back,
    so both are rejected.  The record is written _WRITE_BLOCK elements at
    a time: their ``digit_cells``, a '\n' after each set's last element,
    and the NUL bytes dropped."""
    chunks, inc = [file_head(c.n, header_comments)], c.incidence
    sizes, last = np.diff(inc.indptr), inc.indptr[1:] - 1  # each set's last element
    if (sizes == 0).any():
        raise ValueError(f"set {int(np.argmax(sizes == 0))} is empty and has no file representation")
    for a in range(0, inc.elements.size, _WRITE_BLOCK):
        rows = digit_cells(inc.elements[a : a + _WRITE_BLOCK])
        lo, hi = np.searchsorted(last, [a, a + len(rows)])
        rows[last[lo:hi] - a, -1, 4] = 10
        chunks.append(rows.tobytes().translate(None, b"\0"))
    return b"".join(chunks)


def file_head(n: int, header_comments: Iterable[str] = ()) -> bytes:
    """The comment lines and the ground-set size n that open a collection file."""
    out = [ln if ln.startswith("#") else f"# {ln}" for h in header_comments for ln in h.splitlines() or [h]]
    for ln in out:
        if re.search(r"[^\t -\x7f]", ln):
            raise ValueError(f"comment {ln!r} holds a character that collection files refuse")
    return ("\n".join(out + [str(n)]) + "\n").encode("ascii")


def serialize_collection(c: Collection, header_comments: Iterable[str] = ()) -> str:
    return write_collection(c, header_comments).decode("ascii")


def parse_permutation(text: str | bytes) -> Permutation:
    """Read the permutation file format, a str or any bytes-like: one data
    line, image[j] at position j, read by ``read_lines`` in the blanks,
    comments, line ends and numbers of the collection files.  The 0-point
    permutation is one blank line, which is what serialize_permutation
    writes for it."""
    raw, kept, count = ascii_bytes(text, "permutation"), None, 0
    for lines in read_lines(raw, "permutation", _PARSE_BLOCK):
        if lines.starts.size:  # the first block with data is kept
            kept, count = lines if kept is None else kept, count + 1
        del lines
    if kept is None and any(not line.strip() for line in raw.splitlines()):
        return Permutation(0, ())
    if count != 1 or kept.lead[1:].any():
        raise FormatError("permutation file must hold exactly one data line")
    lineno = kept.lineno + int(np.searchsorted(kept.newlines, kept.starts[0])) + 1
    starts, ends = kept.starts, kept.ends
    image, nondigit, big = read_decimals(kept, starts, ends, min(int((ends - starts).max()), 19))
    if nondigit.any():
        i = int(np.argmax(nondigit))
        raise FormatError(f"line {lineno}: non-integer token {kept.text(starts[i], ends[i])!r}")
    image[big] = image.size  # past n, so refused as no bijection
    try:
        return Permutation(image.size, tuple(image.tolist()))
    except ValueError as e:
        raise FormatError(f"line {lineno}: {e}") from None


def serialize_permutation(p: Permutation) -> str:
    return " ".join(map(str, p.image)) + "\n"
