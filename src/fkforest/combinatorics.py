"""Exact integer combinatorics underlying every expansion coefficient.

Stirling numbers of both kinds, set partitions, falling factorials and
compositions.  Everything here is arbitrary-precision integer arithmetic;
nothing may round or overflow.  Stirling numbers are read from triangle
rows built afresh by each call: no table is kept.  No engine lists set
partitions: `set_partitions` is the reference the tests list.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from .errors import CapExceeded, InvalidParameter

# Largest first argument of a Stirling number.  Every use in this package
# is tiny.  The cap refuses a huge block at once: `expand --n 0 --q 100000`
# asks for the Stirling row of its 100,000 live coordinates before any
# table, which would otherwise build a 100,000-row triangle.
STIRLING_CAP = 64


def _stirling_rows(p: int, first: bool) -> List[List[int]]:
    """Rows 0..p of a Stirling triangle, each padded with zeros to length
    p + 1: the signed first kind, s(m, k) = s(m-1, k-1) - (m-1) s(m-1, k),
    or the second kind, S(m, k) = S(m-1, k-1) + k S(m-1, k)."""
    if p > STIRLING_CAP:
        raise CapExceeded(
            f"Stirling argument {p} exceeds table cap {STIRLING_CAP}",
            predicted=p, cap=STIRLING_CAP)
    rows = [[1] + [0] * p]
    for m in range(1, p + 1):
        prev = rows[-1]
        rows.append([0] + [prev[k - 1] + (1 - m if first else k) * prev[k]
                           for k in range(1, p + 1)])
    return rows


def stirling_first(p: int, k: int) -> int:
    """Signed Stirling number of the first kind.

    Defined by the polynomial identity
    ``falling_factorial(N, p) == sum(stirling_first(p, k) * N**k for k in 1..p)``.
    Returns 0 outside the triangle (k > p, or k == 0 with p > 0).
    """
    if p < 0 or k < 0:
        raise InvalidParameter("stirling_first needs nonnegative arguments")
    row = _stirling_rows(p, True)[p]
    return row[k] if k <= p else 0


def stirling_second(q: int, p: int) -> int:
    """Stirling number of the second kind: partitions of a q-set into p blocks."""
    if q < 0 or p < 0:
        raise InvalidParameter("stirling_second needs nonnegative arguments")
    row = _stirling_rows(q, False)[q]
    return row[p] if p <= q else 0


def set_partitions(q: int) -> Iterable[tuple]:
    """Every set partition of 0..q-1 once, as its restricted growth string:
    entry i is the 0-based block of i, blocks numbered in order of first
    appearance.  Deterministic lexicographic order; Bell(q) of them.
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
