"""Exact integer combinatorics underlying every expansion coefficient.

Stirling numbers of both kinds, Bell numbers, set partitions, falling
factorials and compositions.  Everything here is arbitrary-precision
integer arithmetic; nothing may round or overflow.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from .errors import CapExceeded, InvalidParameter

# Largest first argument accepted by the memoized Stirling recurrences.  Every
# use in this package is tiny; the cap bounds the shared memo tables.
STIRLING_CAP = 64


def _check_cap(p: int) -> None:
    if p > STIRLING_CAP:
        raise CapExceeded(
            f"Stirling argument {p} exceeds table cap {STIRLING_CAP}",
            predicted=p, cap=STIRLING_CAP)


@lru_cache(maxsize=None)
def stirling_first(p: int, k: int) -> int:
    """Signed Stirling number of the first kind.

    Defined by the polynomial identity
    ``falling_factorial(N, p) == sum(stirling_first(p, k) * N**k for k in 1..p)``.
    Returns 0 outside the triangle (k > p, or k == 0 with p > 0).
    """
    if p < 0 or k < 0:
        raise InvalidParameter("stirling_first needs nonnegative arguments")
    _check_cap(p)
    if p == 0:
        return 1 if k == 0 else 0
    if k == 0 or k > p:
        return 0
    return stirling_first(p - 1, k - 1) - (p - 1) * stirling_first(p - 1, k)


@lru_cache(maxsize=None)
def stirling_second(q: int, p: int) -> int:
    """Stirling number of the second kind: partitions of a q-set into p blocks."""
    if q < 0 or p < 0:
        raise InvalidParameter("stirling_second needs nonnegative arguments")
    _check_cap(q)
    if q == 0:
        return 1 if p == 0 else 0
    if p == 0 or p > q:
        return 0
    return p * stirling_second(q - 1, p) + stirling_second(q - 1, p - 1)


def bell_number(q: int) -> int:
    """Number of set partitions of a q-set."""
    return sum(stirling_second(q, p) for p in range(q + 1))


def set_partitions(q: int) -> Iterable[tuple]:
    """Every set partition of 0..q-1 once, as its restricted growth string:
    entry i is the 0-based block of i, blocks numbered in order of first
    appearance.  Deterministic lexicographic order; bell_number(q) of them.
    """
    if q < 0:
        raise InvalidParameter("set_partitions needs q >= 0")

    def grow(prefix: tuple, blocks: int) -> Iterable[tuple]:
        if len(prefix) == q:
            yield prefix
            return
        for v in range(blocks + 1):
            yield from grow(prefix + (v,), max(blocks, v + 1))

    yield from grow((), 0)


def falling_factorial(n: int, m: int) -> int:
    """Product n (n-1) ... (n-m+1); equals 0 iff 0 <= n < m for integer n >= 0."""
    if m < 0:
        raise InvalidParameter("falling_factorial needs m >= 0")
    out = 1
    for i in range(m):
        out *= n - i
    return out


def compositions(total: int, length: int, bounds: Sequence[int] | None = None) -> Iterable[tuple]:
    """All tuples of the given length of nonnegative integers summing to total.

    ``bounds`` optionally caps each entry componentwise.  Deterministic
    lexicographic order.
    """
    if length == 0:
        if total == 0:
            yield ()
        return
    hi = total if bounds is None else min(total, bounds[0])
    for first in range(hi + 1):
        rest_bounds = None if bounds is None else bounds[1:]
        for rest in compositions(total - first, length - 1, rest_bounds):
            yield (first,) + rest
