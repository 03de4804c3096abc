"""Integer combinatorics against brute-force enumeration.

The table-driven values (Stirling triangles, falling factorials) are
recomputed here by exhaustive enumeration of set partitions and
permutation cycles, so the recurrences never certify themselves.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkforest.combinatorics import (MultiIndex, bell_number, compositions,
                                    falling_factorial, mi_factorial,
                                    mi_falling, mi_leq, mi_norm,
                                    mi_stirling_first, stirling_first,
                                    stirling_second)
from fkforest.combinatorics import set_partitions as growth_strings
from fkforest.errors import CapExceeded, InvalidParameter


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
    assert len(strings) == bell_number(q)


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
