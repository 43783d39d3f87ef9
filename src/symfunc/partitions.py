"""Partition and composition combinatorics.

Partitions are weakly decreasing tuples of positive integers; the empty
partition renders as ``[]``.  They index every symmetric-function basis in
this package, so the helpers here are small and total: operations that can
fail combinatorially (removing absent parts, adding a column to a partition
with too many rows) return ``None`` instead of raising.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional, Sequence

Composition = tuple[int, ...]


class Partition(tuple):
    """A weakly decreasing tuple of positive integers."""

    __slots__ = ()

    def __new__(cls, parts: Sequence[int] = ()) -> "Partition":
        if type(parts) is Partition:  # valid by construction
            return parts
        t = tuple(parts)
        prev = None
        for p in t:
            if type(p) is not int or p < 1:
                raise ValueError(f"parts must be positive integers, got {t!r}")
            if prev is not None and prev < p:
                raise ValueError(f"parts must be weakly decreasing, got {t!r}")
            prev = p
        return tuple.__new__(cls, t)

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self)) + "]"

    __repr__ = __str__


def _wrap(parts: tuple[int, ...]) -> Partition:
    """The trusted constructor: wraps ``parts`` as they are, checking none,
    for callers that built them weakly decreasing and positive
    (``_wrap((1, 3))`` is the Partition [1,3]).  Partition(...) is the
    checked constructor."""
    return tuple.__new__(Partition, parts)


EMPTY = _wrap(())


def need_int(value: int, least: int, name: str) -> None:
    """The one check of an integer count or parameter: a TypeError unless
    ``value`` is an int (a bool is not), a ValueError below ``least``."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, not {type(value).__name__}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram: column lengths of ``lam``.

    Built from the run lengths of ``lam``, bottom row first: the columns
    past lam_{i+1} up to lam_i have length i, so row i contributes
    lam_i - lam_{i+1} parts equal to i.  Trusts ``lam`` to be a partition
    its caller built and checks no part; Partition(...) is the checked
    constructor."""
    out: list[int] = []
    below = 0
    for i in range(len(lam), 0, -1):
        part = lam[i - 1]
        out += [i] * (part - below)
        below = part
    return _wrap(tuple(out))


def mult_count(lam: Partition, i: int) -> int:
    """Number of parts of ``lam`` equal to ``i`` (``i`` >= 1)."""
    need_int(i, 1, "part size")
    return lam.count(i)


def z_value(lam: Partition) -> int:
    """The centralizer order prod_i i^{n_i} * n_i! for the parts of ``lam``."""
    out = 1
    i = 0
    run = 0
    for p in lam:
        if p == i:
            run += 1
        else:
            i, run = p, 1
        out *= i * run
    return out


def add_columns(lam: Partition, a: int, k: int) -> Optional[Partition]:
    """Add ``a`` to the first ``k`` entries of ``lam`` padded with zeros.

    Returns None when ``lam`` has more than ``k`` parts (the result would not
    be a partition made of the first k rows).  Zero entries produced by the
    padding (when a == 0) are dropped from the result.  ``a`` and ``k`` are
    checked, but ``lam`` is trusted to be a partition its caller built and
    no part is checked (``add_columns((3, 1.5), 1, 2)`` is [4,2.5]);
    Partition(...) is the checked constructor.
    """
    need_int(a, 0, "a")
    need_int(k, 0, "k")
    return _add_columns(lam, a, k)


def _add_columns(lam: Partition, a: int, k: int) -> Optional[Partition]:
    """add_columns for callers that have checked ``a`` and ``k`` themselves."""
    if len(lam) > k:
        return None
    parts = tuple((lam[i] if i < len(lam) else 0) + a for i in range(k))
    return _wrap(tuple(p for p in parts if p > 0))


def remove_parts(lam: Partition, mu: Partition) -> Optional[Partition]:
    """Delete one copy of each part of ``mu`` from ``lam`` (as multisets).

    Returns None when some part of ``mu`` is missing (with multiplicity).
    Both are trusted to be partitions their caller built, and no part is
    checked; Partition(...) is the checked constructor.
    """
    remaining = list(lam)
    for p in mu:
        try:
            remaining.remove(p)
        except ValueError:
            return None
    return _wrap(tuple(remaining))


def insert_parts(lam: Partition, mu: Partition) -> Partition:
    """Multiset union of the parts of ``lam`` and ``mu``.  Both are trusted
    to be partitions their caller built, and no part is checked
    (``insert_parts((2.0,), (1,))`` is [2.0,1]); Partition(...) is the
    checked constructor."""
    return _wrap(tuple(sorted(lam + tuple(mu), reverse=True)))


class StraightenResult(NamedTuple):
    """Outcome of straightening a Jacobi-Trudi index sequence.

    ``sign`` is +1 or -1 with ``shape`` the straightened partition, or 0 with
    ``shape`` None when the determinant vanishes.
    """

    sign: int
    shape: Optional[Partition]

    @property
    def is_zero(self) -> bool:
        return self.sign == 0


STRAIGHTEN_ZERO = StraightenResult(0, None)


def straighten(seq: Sequence[int]) -> StraightenResult:
    """Normalize an integer sequence ``s`` interpreted as det|h_{s_j - j + i}|.

    Shift to u_j = s_j - j; a repeated value means two equal columns (zero).
    Otherwise sort u strictly decreasing, record the sorting permutation's
    sign, and shift back.  A negative entry in the shifted-back sequence also
    kills the determinant.  Entries of ``seq`` may be negative.
    """
    u = [s - (j + 1) for j, s in enumerate(seq)]
    if len(set(u)) != len(u):
        return STRAIGHTEN_ZERO
    order = sorted(range(len(u)), key=u.__getitem__, reverse=True)
    inversions = sum(
        1 for x in range(len(order)) for y in range(x + 1, len(order)) if order[x] > order[y]
    )
    lam = tuple(u[idx] + (j + 1) for j, idx in enumerate(order))
    if lam and lam[-1] < 0:
        return STRAIGHTEN_ZERO
    while lam and lam[-1] == 0:
        lam = lam[:-1]
    return StraightenResult(-1 if inversions % 2 else 1, _wrap(lam))


def partitions_of(n: int, max_length: Optional[int] = None) -> Iterator[Partition]:
    """All partitions of ``n`` with at most ``max_length`` parts, in
    decreasing lexicographic order.  Without a bound this walks one tuple per
    degree, built once."""
    need_int(n, 0, "n")
    if max_length is None:
        return iter(_all_partitions(n))
    need_int(max_length, 0, "max_length")
    return _walk(n, n, max_length, [])


@lru_cache(maxsize=None)
def _all_partitions(n: int) -> tuple[Partition, ...]:
    return tuple(_walk(n, n, n, []))


def _walk(rest: int, cap: int, room: int, prefix: list[int]) -> Iterator[Partition]:
    """Partitions of ``rest`` with parts at most ``cap`` and at most ``room``
    of them, each after ``prefix``."""
    if rest == 0:
        yield _wrap(tuple(prefix))
        return
    for first in range(min(cap, rest), 0, -1):
        if rest - first > first * (room - 1):
            continue
        prefix.append(first)
        yield from _walk(rest - first, first, room - 1, prefix)
        prefix.pop()


def partitions_upto(n: int, max_length: Optional[int] = None) -> Iterator[Partition]:
    """All partitions of size at most ``n``, by increasing size, each size in
    the order of ``partitions_of``."""
    for d in range(n + 1):
        yield from partitions_of(d, max_length=max_length)


def compositions_of(n: int, k: int) -> Iterator[Composition]:
    """All length-``k`` sequences of non-negative integers summing to ``n``.

    Ordered with the first entry decreasing, then recursively likewise.
    """
    need_int(n, 0, "n")
    need_int(k, 1, "k")

    def rec(rest: int, slots: int) -> Iterator[tuple[int, ...]]:
        if slots == 1:
            yield (rest,)
            return
        for first in range(rest, -1, -1):
            for tail in rec(rest - first, slots - 1):
                yield (first,) + tail

    return rec(n, k)


def count_partitions(n: int) -> int:
    """Partition numbers by the Euler pentagonal recurrence (independent of
    the generator above; used as a cross-check)."""
    table = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        j = 1
        while True:
            g1 = j * (3 * j - 1) // 2
            g2 = j * (3 * j + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if j % 2 == 0 else 1
            if g1 <= m:
                total += sign * table[m - g1]
            if g2 <= m:
                total += sign * table[m - g2]
            j += 1
        table[m] = total
    return table[n]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient with the combinatorial convention: 0 outside 0 <= k <= n."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)
