"""Integer combinatorics against brute-force enumeration.

The table-driven values (Stirling triangles, falling factorials) are
recomputed here by exhaustive enumeration of set partitions and
permutation cycles, so the recurrences never certify themselves.  The
multi-index algebra (`MultiIndex`, `mi_*`) lives here; only these tests
use it.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkforest.combinatorics import (compositions, falling_factorial,
                                    stirling_first, stirling_second)
from fkforest.combinatorics import set_partitions as growth_strings
from fkforest.errors import CapExceeded, InvalidParameter


# ---------------------------------------------------------------------------
# multi-index algebra over finite sequences of nonnegative integers


IndexLike = Union["MultiIndex", Sequence[int]]


def _as_tuple(p: IndexLike) -> tuple:
    if isinstance(p, MultiIndex):
        return p.entries
    return tuple(p)


def _pad_pair(a: tuple, b: tuple) -> tuple:
    n = max(len(a), len(b))
    return a + (0,) * (n - len(a)), b + (0,) * (n - len(b))


@dataclass(frozen=True)
class MultiIndex:
    """A finite sequence of nonnegative integers with componentwise algebra.

    Comparison, addition and subtraction pad the shorter operand with zeros.
    The paired products (factorial, falling factorial, Stirling product)
    require both sequences to have the same explicit length.
    """

    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))
        if any(e < 0 for e in self.entries):
            raise InvalidParameter("MultiIndex entries must be nonnegative")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    @property
    def norm(self) -> int:
        return sum(self.entries)

    def factorial(self) -> int:
        return mi_factorial(self.entries)

    def __add__(self, other: IndexLike) -> "MultiIndex":
        a, b = _pad_pair(self.entries, _as_tuple(other))
        return MultiIndex(tuple(x + y for x, y in zip(a, b)))

    def __sub__(self, other: IndexLike) -> "MultiIndex":
        a, b = _pad_pair(self.entries, _as_tuple(other))
        if any(x < y for x, y in zip(a, b)):
            raise InvalidParameter("MultiIndex subtraction requires other <= self")
        return MultiIndex(tuple(x - y for x, y in zip(a, b)))

    def __le__(self, other: IndexLike) -> bool:
        a, b = _pad_pair(self.entries, _as_tuple(other))
        return all(x <= y for x, y in zip(a, b))

    def falling(self, p: IndexLike) -> int:
        return mi_falling(self.entries, p)

    def stirling_first(self, p: IndexLike) -> int:
        return mi_stirling_first(self.entries, p)


def mi_norm(p: IndexLike) -> int:
    return sum(_as_tuple(p))


def mi_factorial(p: IndexLike) -> int:
    out = 1
    for e in _as_tuple(p):
        out *= math.factorial(e)
    return out


def mi_falling(l: IndexLike, p: IndexLike) -> int:
    """Componentwise product of falling factorials; lengths must agree."""
    lt, pt = _as_tuple(l), _as_tuple(p)
    if len(lt) != len(pt):
        raise InvalidParameter("mi_falling requires sequences of equal length")
    out = 1
    for a, b in zip(lt, pt):
        out *= falling_factorial(a, b)
    return out


def mi_stirling_first(l: IndexLike, p: IndexLike) -> int:
    """Componentwise product of signed first-kind Stirling numbers."""
    lt, pt = _as_tuple(l), _as_tuple(p)
    if len(lt) != len(pt):
        raise InvalidParameter("mi_stirling_first requires sequences of equal length")
    out = 1
    for a, b in zip(lt, pt):
        out *= stirling_first(a, b)
        if out == 0:
            return 0
    return out


def mi_leq(p: IndexLike, l: IndexLike) -> bool:
    a, b = _pad_pair(_as_tuple(p), _as_tuple(l))
    return all(x <= y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# brute-force references


def set_partitions(items):
    """Every partition of a list into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def cycle_count(perm):
    seen = [False] * len(perm)
    cycles = 0
    for i in range(len(perm)):
        if seen[i]:
            continue
        cycles += 1
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return cycles


@pytest.mark.parametrize("q", range(0, 8))
def test_second_kind_counts_set_partitions(q):
    by_blocks = {}
    for part in set_partitions(list(range(q))):
        by_blocks[len(part)] = by_blocks.get(len(part), 0) + 1
    for p in range(0, q + 2):
        assert stirling_second(q, p) == by_blocks.get(p, 0)


@pytest.mark.parametrize("q", range(0, 7))
def test_growth_strings_list_each_set_partition_once(q):
    strings = list(growth_strings(q))
    assert strings == sorted(strings)
    as_blocks = set()
    for rgs in strings:
        # blocks are numbered in order of first appearance
        assert [v for i, v in enumerate(rgs) if v not in rgs[:i]] \
            == list(range(len(set(rgs))))
        as_blocks.add(frozenset(
            frozenset(i for i in range(q) if rgs[i] == v) for v in set(rgs)))
    want = {frozenset(frozenset(b) for b in part)
            for part in set_partitions(list(range(q)))}
    assert as_blocks == want
    # the Bell number of q, summed off the Stirling row
    assert len(strings) == sum(stirling_second(q, p) for p in range(q + 1))


@pytest.mark.parametrize("p", range(0, 8))
def test_first_kind_counts_permutation_cycles(p):
    by_cycles = {}
    for perm in itertools.permutations(range(p)):
        c = cycle_count(perm)
        by_cycles[c] = by_cycles.get(c, 0) + 1
    for k in range(0, p + 2):
        want = by_cycles.get(k, 0) * (-1) ** (p - k)
        assert stirling_first(p, k) == want


@pytest.mark.parametrize("p", range(0, 9))
def test_first_kind_expands_falling_factorial(p):
    for N in range(-3, 9):
        poly = sum(stirling_first(p, k) * N ** k for k in range(0, p + 1))
        assert poly == falling_factorial(N, p)


def test_second_kind_expands_powers_in_falling_factorials():
    for q in range(0, 9):
        for N in range(0, 9):
            total = sum(stirling_second(q, p) * falling_factorial(N, p)
                        for p in range(0, q + 1))
            assert total == N ** q


def test_stirling_matrices_are_mutually_inverse():
    top = 8
    for l in range(top + 1):
        for m in range(top + 1):
            one_way = sum(stirling_second(l, p) * stirling_first(p, m)
                          for p in range(top + 1))
            other_way = sum(stirling_first(l, p) * stirling_second(p, m)
                            for p in range(top + 1))
            want = 1 if l == m else 0
            assert one_way == want
            assert other_way == want


def test_falling_factorial_edge_cases():
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(0, 0) == 1
    assert falling_factorial(5, 5) == 120
    assert falling_factorial(4, 5) == 0
    assert falling_factorial(0, 1) == 0
    # negative first argument stays a plain signed product
    assert falling_factorial(-2, 3) == (-2) * (-3) * (-4)
    with pytest.raises(InvalidParameter):
        falling_factorial(3, -1)


def test_stirling_argument_validation_and_cap():
    with pytest.raises(InvalidParameter):
        stirling_first(-1, 0)
    with pytest.raises(InvalidParameter):
        stirling_second(0, -2)
    with pytest.raises(CapExceeded):
        stirling_first(65, 1)
    with pytest.raises(CapExceeded):
        stirling_second(65, 1)


def test_multiindex_algebra():
    a = MultiIndex((2, 0, 3))
    b = MultiIndex((1, 1))
    s = a + b
    assert s.entries == (3, 1, 3)
    assert (s - b).entries == (2, 0, 3)
    assert a.norm == 5 and mi_norm(b) == 2
    assert a.factorial() == 2 * 1 * 6
    assert mi_factorial((3, 2)) == 12
    assert b <= a + b
    assert mi_leq((1, 0), (1, 2, 5))
    assert not mi_leq((2,), (1, 2))
    with pytest.raises(InvalidParameter):
        b - a
    with pytest.raises(InvalidParameter):
        MultiIndex((1, -1))


def test_componentwise_products_match_scalar_factors():
    l, p = (4, 3, 5), (2, 3, 0)
    assert mi_falling(l, p) == (falling_factorial(4, 2)
                                * falling_factorial(3, 3)
                                * falling_factorial(5, 0))
    assert mi_stirling_first(l, p) == (stirling_first(4, 2)
                                       * stirling_first(3, 3)
                                       * stirling_first(5, 0))
    assert MultiIndex(l).falling(p) == mi_falling(l, p)
    assert MultiIndex(l).stirling_first(p) == mi_stirling_first(l, p)
    with pytest.raises(InvalidParameter):
        mi_falling((1, 2), (1,))
    with pytest.raises(InvalidParameter):
        mi_stirling_first((1,), (1, 2))


def test_compositions_count_and_order():
    for total in range(0, 7):
        for length in range(0, 4):
            out = list(compositions(total, length))
            if length == 0:
                assert out == ([()] if total == 0 else [])
                continue
            assert len(out) == math.comb(total + length - 1, length - 1)
            assert all(sum(c) == total for c in out)
            assert out == sorted(out)
            assert len(set(out)) == len(out)


@given(total=st.integers(0, 6),
       bounds=st.lists(st.integers(0, 4), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_bounded_compositions_are_the_filtered_unbounded_ones(total, bounds):
    length = len(bounds)
    bounded = list(compositions(total, length, bounds))
    filtered = [c for c in compositions(total, length)
                if all(e <= b for e, b in zip(c, bounds))]
    assert bounded == filtered


@given(st.lists(st.integers(0, 5), min_size=1, max_size=4),
       st.lists(st.integers(0, 5), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_multiindex_addition_pads_with_zeros(a, b):
    s = MultiIndex(a) + MultiIndex(b)
    n = max(len(a), len(b))
    pa = a + [0] * (n - len(a))
    pb = b + [0] * (n - len(b))
    assert s.entries == tuple(x + y for x, y in zip(pa, pb))
    back = s - b
    assert back.entries == tuple(pa)
