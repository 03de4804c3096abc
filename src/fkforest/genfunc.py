"""Censuses of the genealogy classes: counts with no class built.

A pair profile ``((w_0, b_0), ..., (w_h, b_h))`` lists the white and black
vertices of each level, root level first; the classes are the orbits of
the per-level, per-color relabelings on the parent maps (see
:mod:`fkforest.colored_forest`).  :func:`class_census` counts them, per
merge degree if asked, by Burnside's lemma over cycle types, and
:func:`jungle_census` counts the labeled parent maps per merge degree.  A
plain level profile ``p = (p_0, ..., p_h)`` of positive entries is the
white-topped pair profile of :func:`flat_pairs`; :func:`count_forests`
counts its forests.

The truncated series census, an independent route to the same counts,
is :mod:`fkforest.series`; it loads on first use.

All coefficients are exact Python integers.
"""

from __future__ import annotations

from math import factorial
from typing import Dict, List, Optional, Sequence, Tuple

from .config import Caps, DEFAULT_CAPS
from .errors import CapExceeded, InvalidParameter

PairProfile = Tuple[Tuple[int, int], ...]
# a cycle type: (length, multiplicity) pairs, longest first
CycleType = Tuple[Tuple[int, int], ...]


def flat_pairs(profile: Sequence[int]) -> PairProfile:
    """Colored level profile of the plain forests with per-level vertex
    counts profile: blacks below the top level, whites on it."""
    p = tuple(int(v) for v in profile)
    if not p or any(v <= 0 for v in p):
        raise InvalidParameter(
            "profile entries must be positive, got %r" % (p,))
    return tuple((0, v) for v in p[:-1]) + ((p[-1], 0),)


def count_forests(profile: Sequence[int]) -> int:
    """Number of distinct forests with the given per-level vertex counts:
    the classes of the white-topped pair profile.  The empty profile
    names the empty forest, counted once."""
    p = tuple(profile)
    return class_census(flat_pairs(p))[0] if p else 1


def _check_pairs(pairs: Sequence[Tuple[int, int]]) -> PairProfile:
    pp = tuple((int(w), int(b)) for (w, b) in pairs)
    if any(w < 0 or b < 0 or (w + b) == 0 for w, b in pp):
        raise InvalidParameter("levels need nonnegative counts, not empty")
    if any(b == 0 for _, b in pp[:-1]):
        raise InvalidParameter("levels below the top need black vertices")
    return pp


def census_terms(pairs: PairProfile) -> int:
    """sum_k p(b_(k-1)) (p(b_k) + w_k), the work of :func:`class_census`:
    each black cycle type of a level meets those of the next level and the
    w_k terms of its white series.  p(n) counts the partitions of n, by
    Euler's pentagonal recurrence."""
    top = max((b for _, b in pairs), default=0)
    p = [1] + [0] * top
    for i in range(1, top + 1):
        k = 1
        while k * (3 * k - 1) // 2 <= i:
            sign = 1 if k % 2 else -1
            p[i] += sign * p[i - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= i:
                p[i] += sign * p[i - k * (3 * k + 1) // 2]
            k += 1
    return sum(p[a] * (p[b] + w) for (_, a), (w, b) in zip(pairs, pairs[1:]))


def _cycle_types(n: int) -> List[Tuple[CycleType, int]]:
    """Each cycle type of S_n with the number of permutations of that type,
    n! / prod_d d^(m_d) m_d!."""
    out: List[Tuple[CycleType, int]] = []
    order = factorial(n)

    def grow(rest: int, longest: int, kind: CycleType, z: int) -> None:
        if not rest:
            out.append((kind, order // z))
        for d in range(min(rest, longest), 0, -1):
            zd = 1
            for m in range(1, rest // d + 1):
                zd *= d * m
                grow(rest - d * m, d - 1, kind + ((d, m),), z * zd)

    grow(n, n, (), 1)
    return out


def _black_maps(kind: CycleType, sources: CycleType,
                graded: bool) -> Dict[Tuple[int, ...], int]:
    """The maps of the source cycles onto the target cycles of type kind
    that a pair of permutations of these types keeps fixed: a source cycle
    lands on a target cycle whose length d divides its own, in d ways.
    Graded, they are keyed by the target cycles hit, per length."""
    if not graded:
        ways = 1
        for length, count in sources:
            ways *= sum(d * m for d, m in kind if length % d == 0) ** count
        return {(): ways}
    states = {(0,) * len(kind): 1}
    for length in [length for length, count in sources
                   for _ in range(count)]:
        nxt: Dict[Tuple[int, ...], int] = {}
        for hit, ways in states.items():
            for i, (d, m) in enumerate(kind):
                if length % d == 0:
                    more = hit[:i] + (hit[i] + 1,) + hit[i + 1:]
                    for key, n in ((hit, hit[i]), (more, m - hit[i])):
                        if n:
                            nxt[key] = nxt.get(key, 0) + ways * n * d
        states = nxt
    return states


def _white_maps(kind: CycleType, hit: Tuple[int, ...], z: int,
                w: int) -> int:
    """The fixed maps of w whites onto the target cycles of type kind,
    averaged over S_w, with z^d for each target d-cycle hit, hit[i] of
    the i-th length by the blacks already: [x^w] of the product over the
    target cycles of 1 / (1 - x^d), or (1 + (z^d - 1) x^d) / (1 - x^d)
    for one the blacks left unhit."""
    a = [1] + [0] * w
    weight = 1
    for (d, m), h in zip(kind, hit or (0,) * len(kind)):
        step = z ** d - 1
        weight *= z ** (d * h)
        for _ in range(m - h if step else 0):
            for i in range(w, d - 1, -1):
                a[i] += step * a[i - d]
        for _ in range(m):
            for i in range(d, w + 1):
                a[i] += a[i - d]
    return weight * a[w]


def _burnside(pp: PairProfile, z: int) -> int:
    """(1/|G|) sum_g sum_(a fixed by g) z^(vertices with children in a):
    the class count for z = 1, and for z past it the classes packed by
    that number in base z."""
    vec = dict(_cycle_types(pp[0][1]))
    scale = factorial(pp[0][1])
    for w, b in pp[1:]:
        scale *= factorial(b)
        targets = _cycle_types(b)
        nxt: Dict[CycleType, int] = {}
        for kind, value in vec.items():
            whites: Dict[Tuple[int, ...], int] = {}
            for target, size in targets:
                for hit, ways in _black_maps(kind, target, z > 1).items():
                    if hit not in whites:
                        whites[hit] = _white_maps(kind, hit, z, w)
                    nxt[target] = (nxt.get(target, 0)
                                   + value * size * ways * whites[hit])
        vec = nxt
    return sum(vec.values()) // scale


def _by_degree(packed: int, z: int, points: int,
               max_coal: int) -> List[int]:
    """The base-z digits of packed, by image r, as a list by merge degree
    points - r from 0 to max_coal."""
    out = [0] * (min(max_coal, points) + 1)
    for image in range(points + 1):
        packed, digit = divmod(packed, z)
        if points - image <= max_coal:
            out[points - image] = digit
    return out


def class_census(pairs: Sequence[Tuple[int, int]],
                 max_coal: Optional[int] = None,
                 caps: Caps = DEFAULT_CAPS,
                 total: Optional[int] = None) -> List[int]:
    """Classes of a pair profile ((w_0, b_0)..(w_h, b_h)) per merge degree
    0..max_coal, or with max_coal None their total as a one-entry list.

    The classes are the orbits of G = prod_k S_(w_k) x S_(b_k) on the
    parent maps [w_k + b_k] -> [b_(k-1)], so by Burnside's lemma they
    number (1/|G|) sum_g |Fix(g)|, and |Fix(g)| depends on g only through
    its cycle types.  One vector over the black cycle types of a level,
    weighted by class size, is carried level to level; the blacks below
    are taken type by type (:func:`_black_maps`) and the whites summed
    through the cycle index (:func:`_white_maps`).  No tree is built.

    The merge degree of a level is its vertex count less its image, the
    union of the target cycles hit.  Graded, an image of r vertices
    weighs z^r for a z past the class total, and the counts are read back
    as base-z digits; otherwise nothing is tracked.  The graded pass needs
    the total, which a caller that has it passes as `total`.  The work,
    :func:`census_terms`, is refused past ``caps.series`` first.
    """
    if max_coal is not None and max_coal < 0:
        raise InvalidParameter("max_coal must be >= 0")
    pp = _check_pairs(pairs)
    terms = census_terms(pp)
    if terms > caps.series:
        raise CapExceeded("class census would pair too many cycle types",
                          predicted=terms, cap=caps.series)
    if len(pp) < 2:
        return [1]
    if total is None:
        total = _burnside(pp, 1)
    if max_coal is None:
        return [total]
    z = 1 << total.bit_length()
    return _by_degree(_burnside(pp, z), z, sum(w + b for w, b in pp[1:]),
                      max_coal)


def jungle_total(pairs: PairProfile) -> int:
    """Labeled parent-map sequences of a pair profile: each vertex below
    the top picks one of the blacks above it, prod_k b_(k-1)^(w_k + b_k)."""
    total = 1
    for (_, n), (w, b) in zip(pairs, pairs[1:]):
        total *= n ** (w + b)
    return total


def jungle_census(pairs: Sequence[Tuple[int, int]],
                  max_coal: int) -> List[int]:
    """Labeled parent-map sequences (jungles) of a pair profile per merge
    degree 0..max_coal, packed like :func:`class_census`.  A level maps
    w_k + b_k points into n = b_(k-1) blacks; adding one point at a time,
    the maps onto r of them follow cnt'[r] = r cnt[r] + (n - r + 1)
    cnt[r - 1].  They number :func:`jungle_total` in all."""
    pp = _check_pairs(pairs)
    z, packed = 1 << jungle_total(pp).bit_length(), 1
    for (_, n), (w, b) in zip(pp, pp[1:]):
        cnt = [1]
        for _ in range(w + b):
            cnt = [(r * cnt[r] if r < len(cnt) else 0)
                   + ((n - r + 1) * cnt[r - 1] if r else 0)
                   for r in range(min(len(cnt), n) + 1)]
        packed *= sum(c * z ** r for r, c in enumerate(cnt))
    return _by_degree(packed, z, sum(w + b for w, b in pp[1:]), max_coal)
