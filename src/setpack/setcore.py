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
from functools import cached_property
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
        order = np.lexsort((elements, owner))
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
    ``line`` (the count of '\n' before each).  ``n`` is the header's value.
    ``faults`` are (offset, what) pairs: the scan's first control character
    but tab, CR and LF and its first CR without LF, then those a parser
    adds in the order it checks them.  Per byte it holds only bytes and
    flags, per token a few int64 offsets."""

    def __init__(self, data: np.ndarray, lineno: int, end: int, n: int | None):
        self.data, self.lineno, self.end, self.n = data, lineno, end, n
        self.newlines = np.flatnonzero(data == 10)
        self.faults = [(int(np.argmax(flags)), what) for flags, what in (
            ((data < 32) & (data != 9) & (data != 10) & (data != 13), "control character"),
            ((data == 13) & (np.append(data[1:], 0) != 10), "carriage return without line feed"),
        ) if flags.any()]

        inside = np.zeros(data.size + 2, bool)
        np.greater(data, 32, out=inside[1:-1])
        bounds = np.flatnonzero(inside[1:] != inside[:-1])
        starts, ends = bounds[0::2], bounds[1::2]
        line = np.searchsorted(self.newlines, starts)
        lead = np.ones(line.size, bool)  # the first token of its line
        lead[1:] = line[1:] != line[:-1]
        comment = lead & (data[starts] == 35)  # '#'
        keep = ~comment[lead][np.cumsum(lead) - 1]
        self.starts, self.ends, self.line = starts[keep], ends[keep], line[keep]

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
        count = int(np.count_nonzero(self.line == self.line[0]))
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
        self.starts, self.ends, self.line = self.starts[1:], self.ends[1:], self.line[1:]
        return self.n


def read_lines(text: str, name: str, block: int, header: str | None = None) -> Iterator[Lines]:
    """The ``name`` file ``text`` as Lines of about ``block`` bytes each,
    ending at line ends.  The file is ASCII.  With ``header``, which names
    what it holds, the first token line is the header, and the Lines come
    from its own on, each with its value as ``n``.  Before it reads on, the
    reader raises the first fault of the Lines it gave, so the first fault
    in file order is the one reported."""
    if not text.isascii():
        raise FormatError(f"{name} files are ASCII")
    n, lineno, at = None, 0, 0
    while at < len(text):
        end = text.find("\n", at + block) + 1 or len(text)
        lines = Lines(np.frombuffer(text[at:end].encode("ascii"), np.uint8), lineno, end, n)
        if header and n is None and lines.starts.size:
            n = lines.read_header()
        if n is not None or not header:
            yield lines
        lines.refuse()
        lineno, at = lineno + lines.newlines.size, end
    if header and n is None:
        raise FormatError(f"missing header line with {header}")


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

    It is read by ``read_lines``, about ``_PARSE_BLOCK`` bytes at a time,
    straight into the collection's incidence record.
    """
    sizes, elements, used = [np.zeros(0, np.int64)], np.zeros(0, np.int64), 0
    for lines in read_lines(text, "collection", _PARSE_BLOCK, "the ground-set size"):
        block = _read_sets(lines, sizes)
        if used + block.size > elements.size:  # realloc to the projected size: no second copy
            elements.resize((used + block.size) * len(text) // lines.end, refcheck=False)
        elements[used : used + block.size] = block
        used += block.size
    elements.resize(used, refcheck=False)
    n = lines.n  # the header's Lines always come
    return Collection(n, Incidence(n, np.append(0, np.cumsum(np.concatenate(sizes))), elements))


def _read_sets(lines: Lines, sizes: list) -> np.ndarray:
    """Check the sets of ``lines``, adding their first fault; append their
    sizes to ``sizes`` and return their elements, increasing within each."""
    data, starts, ends, line, n = lines.data, lines.starts, lines.ends, lines.line, lines.n

    # 19 digits hold every element below 2^63
    value, nondigit, big = read_decimals(data, starts, ends, min(int((ends - starts).max(initial=0)), 19))
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

    def what(token: str, i: int) -> str:
        digits = token.lstrip("0") or "0"
        return (f"non-integer token {token!r}" if nondigit[i]
                else f"duplicate element {int(value[i])}" if not outside[i]
                else f"element {digits} outside [0, {n})" if n <= 1 << 63
                else f"element {digits} at or above 2^63")

    lines.flag(bad, starts, ends, what)
    sizes.append(np.diff(first, append=x.size))
    return x


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
    position j, read by ``read_lines`` in the blanks, comments, line ends
    and numbers of the collection files.  The 0-point permutation is one
    blank line, which is what serialize_permutation writes for it.
    """
    data = [lines for lines in read_lines(text, "permutation", _PARSE_BLOCK) if lines.starts.size]
    if not data and any(not raw.strip() for raw in text.splitlines()):
        return Permutation(0, ())
    if len(data) != 1 or data[0].line[-1] != data[0].line[0]:
        raise FormatError("permutation file must hold exactly one data line")
    (lines,) = data
    lineno = lines.lineno + int(lines.line[0]) + 1
    starts, ends = lines.starts, lines.ends
    image, nondigit, big = read_decimals(lines.data, starts, ends, min(int((ends - starts).max()), 19))
    if nondigit.any():
        i = int(np.argmax(nondigit))
        raise FormatError(f"line {lineno}: non-integer token {lines.text(starts[i], ends[i])!r}")
    image[big] = image.size  # past n, so refused as no bijection
    try:
        return Permutation(image.size, tuple(image.tolist()))
    except ValueError as e:
        raise FormatError(f"line {lineno}: {e}") from None


def serialize_permutation(p: Permutation) -> str:
    return " ".join(map(str, p.image)) + "\n"
