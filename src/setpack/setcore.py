"""Ground-set primitives: bit-vector subsets, collections, permutations.

Elements are 0-based integers in [0, n).  Subsets are stored as Python
integers used as bit vectors (bit x set <=> element x present), so the
ground-set size is bounded only by memory, never by a machine word.
All types are immutable after construction; every operation is a pure
function, safe for concurrent use.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator


class FormatError(ValueError):
    """Raised when a collection or permutation file is malformed."""


def iter_bits(bits: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``bits`` in increasing order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def mask_of(elements: Iterable[int], n: int) -> int:
    """Pack ``elements`` into a bit mask, validating the range [0, n)."""
    bits = 0
    for x in elements:
        if not 0 <= x < n:
            raise ValueError(f"element {x} outside ground set [0, {n})")
        bits |= 1 << x
    return bits


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
        return cls(n, mask_of(elements, n))

    def cardinality(self) -> int:
        return self.bits.bit_count()

    def elements(self) -> list[int]:
        return list(iter_bits(self.bits))

    def contains(self, x: int) -> bool:
        return bool((self.bits >> x) & 1)

    def intersection_size(self, other: "Subset") -> int:
        return (self.bits & other.bits).bit_count()

    def isdisjoint(self, other: "Subset") -> bool:
        return not (self.bits & other.bits)

    def __and__(self, other: "Subset") -> "Subset":
        return Subset(self.n, self.bits & other.bits)

    def __or__(self, other: "Subset") -> "Subset":
        return Subset(self.n, self.bits | other.bits)

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __repr__(self):
        return f"Subset({self.n}, {{{' '.join(map(str, self.elements()))}}})"


@dataclass(frozen=True)
class Collection:
    """A ground-set size n together with an ordered list of subsets."""

    n: int
    sets: tuple[Subset, ...]

    def __post_init__(self):
        for s in self.sets:
            if s.n != self.n:
                raise ValueError(
                    f"subset over ground set of size {s.n} in a collection with n={self.n}"
                )

    @classmethod
    def of(cls, n: int, sets: Iterable[Iterable[int]]) -> "Collection":
        return cls(n, tuple(Subset.of(n, s) for s in sets))

    @property
    def m(self) -> int:
        return len(self.sets)


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

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(n, tuple(range(n)))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        image = list(range(n))
        image[i], image[j] = image[j], image[i]
        return cls(n, tuple(image))

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Permutation":
        """Build from disjoint 2-cycles; unmentioned points stay fixed."""
        image = list(range(n))
        for a, b in pairs:
            if image[a] != a or image[b] != b or a == b:
                raise ValueError("pairs must be disjoint 2-cycles")
            image[a], image[b] = b, a
        simple = sum(1 for j, y in enumerate(image) if y == j) == n % 2
        return cls(n, tuple(image), is_simple=simple)

    def __call__(self, x: int) -> int:
        return self.image[x]

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
    bits = 0
    for x in iter_bits(s.bits):
        bits |= 1 << p.image[x]
    return Subset(s.n, bits)


def inverts(p: Permutation, s: Subset) -> bool:
    """True iff p(s) and s are disjoint."""
    if p.n != s.n:
        raise ValueError(f"permutation on {p.n} points applied to subset of [0, {s.n})")
    for x in iter_bits(s.bits):
        if (s.bits >> p.image[x]) & 1:
            return False
    return True


def _data_lines(text: str) -> Iterator[tuple[int, str]]:
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


def parse_collection(text: str) -> Collection:
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


def serialize_collection(c: Collection, header_comments: Iterable[str] = ()) -> str:
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
        out.append(" ".join(map(str, s.elements())))
    return "\n".join(out) + "\n"


def parse_permutation(text: str) -> Permutation:
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


def serialize_permutation(p: Permutation) -> str:
    return " ".join(map(str, p.image)) + "\n"
