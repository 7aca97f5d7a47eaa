"""Exact counting of simple permutations and a derandomized inverting search.

A simple permutation consists of floor(n/2) disjoint 2-cycles (one fixed
point remains when n is odd).  Averaging over that class yields a lower
bound on the maximum number of collection members a single permutation
can invert; the greedy search below fixes one 2-cycle at a time by exact
conditional expectation, so the bound is met constructively on every
input.

Everything here counts in exact integers and rationals: factorials
overflow any fixed width around n = 21, and the greedy's tie-breaking
must never depend on floating-point rounding.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import ceil, comb, factorial, gcd
from typing import Iterator, Mapping

import numpy as np

from .setcore import Collection, Permutation, inverted, inverts

DEFAULT_EXHAUSTIVE_LIMIT = 8
DEFAULT_COUNT_LIMIT = 100_000  # the CLI's cap on n - i: sigma(100,000) has 228,286 digits


def sigma(n: int, limit: int | None = None) -> int:
    """Number of simple permutations of n points: n! / (2^floor(n/2) floor(n/2)!)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return lambda_simple(n, 0, limit)  # every simple permutation inverts the empty set


def lambda_simple(n: int, i: int, limit: int | None = None) -> int:
    """Number of simple permutations of n points inverting a fixed i-subset.

    (n-i)! / (2^(h-i) (h-i)!), h = floor(n/2); zero when i > h (no
    permutation can move that many points off the set), and refused before
    any factorial when n - i > limit.  The same for every i-subset by symmetry.
    """
    if n < 0 or i < 0:
        raise ValueError("n and i must be non-negative")
    h = n // 2
    if i > h:
        return 0
    if limit is not None and n - i > limit:
        raise ValueError(f"n = {n} is too large to count exactly")
    try:
        return factorial(n - i) // ((1 << (h - i)) * factorial(h - i))
    except OverflowError:  # math.factorial takes no argument past a C long
        raise ValueError(f"n = {n} is too large to count exactly") from None


@dataclass(frozen=True)
class SizeProfile:
    """Ground size n plus counts[i-1] = number of sets of cardinality i,
    for i = 1 .. floor(n/2).  Larger sets can never be inverted and must
    be accounted for separately by the caller."""

    n: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.n // 2:
            raise ValueError("counts must cover exactly i = 1 .. floor(n/2)")
        if any(m < 0 for m in self.counts):
            raise ValueError("counts must be non-negative")

    @classmethod
    def of(cls, n: int, m: Mapping[int, int]) -> "SizeProfile":
        h = n // 2
        for i in m:
            if not 1 <= i <= h:
                raise ValueError(f"cardinality {i} outside 1 .. floor(n/2) = {h}")
        return cls(n, tuple(m.get(i, 0) for i in range(1, h + 1)))

    @classmethod
    def from_collection(cls, c: Collection) -> "SizeProfile":
        """Profile of c; empty and over-half-size sets are dropped."""
        sizes = np.diff(c.incidence.indptr)
        return cls(c.n, tuple(np.bincount(sizes, minlength=c.n // 2 + 1)[1 : c.n // 2 + 1].tolist()))

    @classmethod
    def full(cls, n: int) -> "SizeProfile":
        """m_i = C(n, i): one set of every admissible nonempty cardinality."""
        return cls(n, tuple(comb(n, i) for i in range(1, n // 2 + 1)))


def oversized_count(c: Collection) -> int:
    """Sets with more than floor(n/2) elements; never invertible (pigeonhole)."""
    return int(np.count_nonzero(np.diff(c.incidence.indptr) > c.n // 2))


def kappa_lower_bound(p: SizeProfile) -> Fraction:
    """Average number of sets inverted by a uniform simple permutation:
    sum_i m_i * lambda_simple(n, i) / sigma(n), exactly, from one _lambda_row."""
    top = max((i for i, m in enumerate(p.counts, start=1) if m), default=0)
    row = _lambda_row(p.n, top, sigma(p.n))  # row[0] = sigma(n)
    return Fraction(sum(m * lam for m, lam in zip(p.counts, row[1:])), row[0])


def simple_permutations(n: int) -> Iterator[Permutation]:
    """All simple permutations of [0, n), in a fixed deterministic order.

    The lowest free point is paired with each larger free point in turn
    (or left fixed, when the remaining count is odd).
    """
    image = list(range(n))

    def rec(free: list[int]) -> Iterator[Permutation]:
        if not free:
            yield Permutation(n, tuple(image), is_simple=True)
            return
        a = free[0]
        for idx in range(1, len(free)):
            b = free[idx]
            image[a], image[b] = b, a
            yield from rec(free[1:idx] + free[idx + 1 :])
            image[a], image[b] = a, b
        if len(free) % 2 == 1:
            yield from rec(free[1:])

    yield from rec(list(range(n)))


def exhaustive_kappa(
    c: Collection, simple_only: bool, limit: int = DEFAULT_EXHAUSTIVE_LIMIT
) -> tuple[Permutation, int]:
    """Maximize the inverted-set count by enumeration (testing oracle).

    Returns the first maximizer in enumeration order; n is capped.  Its
    count is recounted and at least ceil(kappa_lower_bound), or it raises.
    """
    if c.n > limit:
        raise ValueError(f"n={c.n} exceeds exhaustive limit {limit}")
    if simple_only:
        candidates: Iterator[Permutation] = simple_permutations(c.n)
    else:
        candidates = (Permutation(c.n, img) for img in permutations(range(c.n)))
    best: Permutation | None = None
    best_count = -1
    for p in candidates:
        count = sum(1 for s in c.sets if inverts(p, s))
        if count > best_count:
            best, best_count = p, count
    if best is None:
        raise RuntimeError("no permutation enumerated; at least the identity exists")
    bound = kappa_lower_bound(SizeProfile.from_collection(c))
    if int(inverted(c, best).sum()) != best_count or best_count < ceil(bound):
        raise RuntimeError("exhaustive optimum fails its recount or the averaging bound")
    return best, best_count


_FIXED = -1  # virtual partner: anchor stays a fixed point


def _sigma_row(n: int) -> list[int]:
    """[sigma(f) for f in 0 .. n], built by the recurrence sigma(f) =
    f * sigma(f-1) for odd f and sigma(f-1) for even f: one multiplication
    per odd entry."""
    row = [1]
    for f in range(1, n + 1):
        row.append(row[-1] * f if f % 2 else row[-1])
    return row


def _lambda_row(f: int, umax: int, first: int) -> list[int]:
    """[lambda_simple(f, u) for u in 0 .. umax] from first = lambda_simple(f,
    0) = sigma(f), built by the recurrence lambda(f, u+1) = lambda(f, u) *
    2(h-u) / (f-u), h = floor(f/2): one small multiplication and one exact
    division per entry, zero past h."""
    h = f // 2
    row = [first]
    for u in range(min(umax, h)):
        row.append(row[-1] * (2 * (h - u)) // (f - u))
    return row + [0] * (umax - h)


def _first_max(rows: np.ndarray, weights: list[int], width: int) -> tuple[int, int]:
    """Index and value of the first maximum of rows @ weights, exactly: the
    top-limb filter of find_simple_permutation, then exact rescoring."""
    shift = max(0, max(map(abs, weights), default=0).bit_length() - width)
    top = rows @ np.array([w >> shift for w in weights], dtype=np.int64)
    if shift == 0:
        i = int(top.argmax())
        return i, int(top[i])
    near = np.flatnonzero(top + rows.sum(axis=1) >= top.max())
    exact = (rows[near].astype(object) @ np.array(weights, dtype=object)).tolist()
    j = exact.index(max(exact))
    return int(near[j]), exact[j]


def find_simple_permutation(c: Collection) -> tuple[Permutation, int]:
    """Simple permutation inverting at least ceil(kappa_lower_bound) sets.

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
    elements fills cnt for every candidate at once; pairs of dead sets and
    taken points are dropped after each step, so the bincount shrinks as
    the search goes on.  A step costs O(P + f * k) for P live pairs and
    k <= 2 (s + 1) classes (s the largest set size), plus the rescoring
    below, instead of O(f * m) set visits.  The fixed-point branch is
    sum_class N_class * lambda_simple(f - 1, u) over the classes with a
    not in S.

    Exact scoring by the top limb.  The weights are divided by their gcd g
    (1 when all are zero), which keeps the argmax and its ties.  With
    shift = max(0, bit length of the largest |w| - width), one int64
    matrix product scores b by the top limbs hi = w >> shift: H_b cannot
    wrap, as b is in held_b <= m live sets and m * 2^width < 2^62, and
    b's exact score lies in [2^shift * H_b, 2^shift * (H_b + held_b)).
    `_first_max` rescores the b with H_b + held_b >= max H in Python
    integers and keeps the first exact maximum.  The gcd stays: on
    tie-heavy inputs every tied b passes the filter, and wider weights
    make more steps rescore them.  The numerator is base + g * score.
    Only the lambda rows f, f - 1 and f - 2 a step reads are built
    (`_lambda_row`), up to the largest live u; the denominators are sigma(f).

    The chosen branch's expectation never drops below the pre-branch
    expectation (the branches partition the uniform measure); this is
    checked at every step, which makes the returned count >= the ceiling
    of the profile bound unconditionally.  Either check failing raises
    RuntimeError.  A collection too large for a top limb of two bits
    (m >= 2^60) raises ValueError.
    """
    n = c.n
    m = c.m
    # m * 2^width < 2^62 bounds every top-limb score; m >= 2^60 leaves under two bits
    width = 62 - m.bit_length()
    if width < 2:
        raise ValueError(f"{m} sets leave no int64 limb width for exact scoring")
    inc = c.incidence
    sizes = np.diff(inc.indptr)
    classes = 2 * (int(sizes.max(initial=0)) + 1)  # class index 2u + [a in S]
    sig = _sigma_row(n)

    # (set, element) pairs of live sets and free elements, grouped by element
    order = np.argsort(inc.elements, kind="stable")
    ps, pe = inc.sets[order], inc.elements[order]
    del order

    live = sizes.copy()  # |S & free|, for every set
    alive = np.ones(m, dtype=bool)
    is_free = np.ones(n, dtype=bool)
    free = list(range(n))
    image = list(range(n))
    col_of = np.zeros(classes, dtype=np.intp)

    while free:
        f = len(free)
        a = free[0]
        a_sets = ps[: np.searchsorted(pe, a, side="right")]  # a is the lowest free point
        cls = 2 * live
        cls[a_sets] += 1
        present = np.bincount(cls[alive], minlength=classes)
        keys = np.flatnonzero(present)
        groups = [(k >> 1, k & 1, int(present[k])) for k in keys.tolist()]
        umax = groups[-1][0] if groups else 0
        lam = _lambda_row(f, umax, sig[f])
        pre_num = sum(size * lam[u] for u, _, size in groups)

        best_b = None
        best_num = -1
        best_f2 = f - 2
        if f >= 2:
            lam = _lambda_row(f - 2, umax, sig[f - 2])
            base = sum(size * lam[u - a_in] for u, a_in, size in groups)
            # b in S turns lam(f2, u - [a in S]) into lam(f2, u - 1), or kills S
            weights = [
                (0 if a_in else lam[u - 1]) - lam[u - a_in] if u else 0
                for u, a_in, _ in groups
            ]
            g = gcd(*weights) or 1
            col_of[keys] = np.arange(len(keys))
            at = col_of[cls[ps]]  # in place: the pair arrays dominate memory
            at += pe * len(keys)
            cnt = np.bincount(at, minlength=n * len(keys)).reshape(n, len(keys))
            cand = free[1:]
            i, score = _first_max(cnt[cand], [w // g for w in weights], width)
            best_b, best_num = cand[i], base + g * score
        if f % 2 == 1:
            lam = _lambda_row(f - 1, umax, sig[f - 1])
            num = sum(size * lam[u] for u, a_in, size in groups if not a_in)
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
            b_sets = ps[slice(*np.searchsorted(pe, [best_b, best_b + 1]))]
            live[b_sets] -= 1
            is_free[best_b] = False
            alive[np.intersect1d(a_sets, b_sets, assume_unique=True)] = False
            free = [x for x in free[1:] if x != best_b]
        keep = alive[ps] & is_free[pe]
        ps, pe = ps[keep], pe[keep]

    perm = Permutation(n, tuple(image), is_simple=True)
    count = int(inverted(c, perm).sum())
    bound = kappa_lower_bound(SizeProfile.from_collection(c))
    if count < ceil(bound):
        raise RuntimeError("derandomization guarantee violated")
    return perm, count
