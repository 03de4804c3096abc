"""Generating-function side of the forest census.

Counts live on level profiles: a profile ``p = (p_0, ..., p_h)`` lists how
many vertices a forest has on each level, root level first, and every entry
is positive (the empty profile is the empty forest).  A forest splits into a
multiset of trees; a tree with children profile ``q`` occupies the profile
``(1,) + q``.  Counting forests by profile therefore reduces to a multiset
knapsack over candidate tree shapes, and the full census is the fixed point
of a product of geometric factors, one per tree shape.  Both views are
implemented here, independently, so they can be tested against each other
and against explicit enumeration.

All coefficients are exact Python integers.
"""

from __future__ import annotations

import itertools
from math import comb
from operator import sub
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .config import Caps, DEFAULT_CAPS
from .errors import CapExceeded, InvalidParameter

Monomial = Tuple[int, ...]


def _check_profile(profile: Sequence[int]) -> Tuple[int, ...]:
    p = tuple(int(v) for v in profile)
    if any(v <= 0 for v in p):
        raise InvalidParameter(
            "profile entries must be positive, got %r" % (profile,))
    return p


class SparseSeries:
    """Multivariate power series truncated to a box, sparse integer terms.

    ``bounds`` gives, per variable, the largest retained exponent.  Every
    operation drops terms outside the box, so arithmetic restricted to the
    box is exact: multiplying by a geometric factor only ever adds monomials
    at or above the factor's base monomial.
    """

    __slots__ = ("nvars", "bounds", "terms")

    def __init__(self, nvars: int, bounds: Sequence[int],
                 terms: Optional[Dict[Monomial, int]] = None):
        if nvars < 0:
            raise InvalidParameter("nvars must be >= 0")
        bounds = tuple(int(b) for b in bounds)
        if len(bounds) != nvars or any(b < 0 for b in bounds):
            raise InvalidParameter(
                "bounds must list one nonnegative limit per variable")
        self.nvars = nvars
        self.bounds = bounds
        self.terms = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff == 0:
                    continue
                if len(mono) != nvars:
                    raise InvalidParameter("monomial arity mismatch")
                if self._inside(mono):
                    self.terms[tuple(mono)] = int(coeff)

    @classmethod
    def unit(cls, nvars: int, bounds: Sequence[int]) -> "SparseSeries":
        return cls(nvars, bounds, {(0,) * nvars: 1})

    def _inside(self, mono: Monomial) -> bool:
        return all(0 <= e <= b for e, b in zip(mono, self.bounds))

    def coefficient(self, mono: Sequence[int]) -> int:
        key = tuple(int(e) for e in mono)
        if len(key) != self.nvars:
            raise InvalidParameter("monomial arity mismatch")
        if not self._inside(key):
            raise InvalidParameter(
                "monomial %r outside truncation box %r" % (key, self.bounds))
        return self.terms.get(key, 0)

    def items(self) -> Iterator[Tuple[Monomial, int]]:
        return iter(sorted(self.terms.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseSeries):
            return NotImplemented
        return (self.nvars == other.nvars and self.bounds == other.bounds
                and self.terms == other.terms)

    def __repr__(self) -> str:
        head = ", ".join("x%d^%r:%d" % (0, m, c)
                         for m, c in list(self.items())[:4])
        return "SparseSeries(nvars=%d, %d terms%s)" % (
            self.nvars, len(self.terms), (", " + head) if head else "")

    def multiply_geometric(self, mono: Sequence[int], exponent: int,
                           caps: Caps = DEFAULT_CAPS) -> "SparseSeries":
        """Multiply by (1 - x^mono)^(-exponent) inside the box.

        The expansion coefficient of x^(k*mono) is C(exponent-1+k, k), the
        number of multisets of size k from ``exponent`` kinds.
        """
        mono = tuple(int(e) for e in mono)
        if len(mono) != self.nvars or any(e < 0 for e in mono):
            raise InvalidParameter("bad factor monomial %r" % (mono,))
        if exponent < 0:
            raise InvalidParameter("factor exponent must be >= 0")
        if exponent == 0:
            return self
        if all(e == 0 for e in mono):
            raise InvalidParameter("factor monomial must not be constant")
        if not self._inside(mono):
            return self
        out: Dict[Monomial, int] = dict(self.terms)
        k = 1
        while True:
            shift = tuple(k * e for e in mono)
            if not self._inside(shift):
                break
            weight = comb(exponent - 1 + k, k)
            for m, c in self.terms.items():
                key = tuple(a + b for a, b in zip(m, shift))
                if self._inside(key):
                    out[key] = out.get(key, 0) + weight * c
            k += 1
        if len(out) > caps.series:
            raise CapExceeded(
                "series exceeds term cap",
                predicted=len(out), cap=caps.series)
        return SparseSeries(self.nvars, self.bounds, out)

    def marginalize(self, keep: Sequence[int]) -> "SparseSeries":
        """Sum out all variables except ``keep`` (sets them to 1)."""
        keep = tuple(int(i) for i in keep)
        if any(i < 0 or i >= self.nvars for i in keep):
            raise InvalidParameter("keep indices out of range")
        if len(set(keep)) != len(keep):
            raise InvalidParameter("keep indices must be distinct")
        bounds = tuple(self.bounds[i] for i in keep)
        out: Dict[Monomial, int] = {}
        for m, c in self.terms.items():
            key = tuple(m[i] for i in keep)
            out[key] = out.get(key, 0) + c
        return SparseSeries(len(keep), bounds, out)


def count_forests(profile: Sequence[int]) -> int:
    """Number of distinct forests with the given per-level vertex counts.

    Recursive multiset knapsack: pick, for every candidate tree shape, how
    many copies appear, matching the root count and every deeper level
    exactly.  A tree is a root over a forest of a shorter profile, so the
    number of trees of one shape is a census of that profile, memoized in
    a dict local to this call; repetitions of one shape contribute a
    multichoose factor.

    Stepping past a candidate is a loop, not a call: the recursion goes one
    level deeper only to place what is left after taking at least one copy
    of a candidate, so its depth is bounded by the root count p_0, not by
    the number of candidates (1,365 for (4,4,4,4,4,4)).

    Pruning: candidates come longest first, so once the search passes the
    last candidate reaching a level, a branch with vertices left on that
    level is cut at once.  A candidate with no room for even one copy never
    gets room further down a branch, so each call hands the calls below it
    only the list of candidates with room.
    """
    return _count_forests(_check_profile(profile), {})


def _count_forests(p: Tuple[int, ...], census: Dict[tuple, int]) -> int:
    # count_forests of a checked profile; census is the per-call memo.
    # The pruning earns its code: a plain memo over (candidate, roots,
    # remainder) was 2-7x slower, (4,4,4,4,4,4) 2.18 s against 12.6 s (one
    # 2-vCPU machine, Python 3.11).
    if len(p) <= 1:
        return 1
    if p in census:
        return census[p]
    tail = p[1:]
    # candidate children profiles, longest first: any length h..0, entry i
    # limited by tail[i]
    candidates = [shape for length in range(len(tail), -1, -1)
                  for shape in itertools.product(
                      *(range(1, v + 1) for v in tail[:length]))]
    # (index, length, number of trees of the shape, body, nonzero entries)
    plan = []
    for j, shape in enumerate(candidates):
        body = shape + (0,) * (len(tail) - len(shape))
        plan.append((j, len(shape), _count_forests(shape, census), body,
                     tuple(enumerate(shape))))
    memo: Dict[Tuple[int, int, Tuple[int, ...]], int] = {}

    def rec(cands: List[tuple], start: int, roots: int,
            rem: Tuple[int, ...]) -> int:
        # roots > 0 trees from cands[start:] fill rem exactly.  First the
        # candidates with room for a copy, and how many copies fit: rem and
        # the roots only shrink further down, so the others never get room
        # again and the calls below scan this list only.
        live = []
        limits = []
        for entry in itertools.islice(cands, start, None):
            limit = roots
            for i, v in entry[4]:
                if rem[i] // v < limit:
                    limit = rem[i] // v
            if limit:
                live.append(entry)
                limits.append(limit)
        # Then forward to the first cut, leaf or memo hit, and fold back to
        # front: the value from candidate j on is the value from the next
        # candidate with room on plus the branches taking copies of j.
        top = len(rem)
        while top and not rem[top - 1]:
            top -= 1
        takers = []
        total = 0
        for pos, entry in enumerate(live):
            if entry[1] < top:
                # neither this candidate nor any later one reaches the
                # deepest level that still holds vertices
                break
            if not entry[4]:
                # only leaves are left, and every level below is used up
                total = 1
                break
            key = (entry[0], roots, rem)
            if key in memo:
                total = memo[key]
                break
            takers.append((key, pos, entry, limits[pos]))
        for key, pos, (_, _, kinds, body, _), limit in reversed(takers):
            nxt = rem
            for k in range(1, limit + 1):
                nxt = tuple(map(sub, nxt, body))
                if k < roots:
                    total += comb(kinds - 1 + k, k) * rec(live, pos + 1,
                                                          roots - k, nxt)
                elif not any(nxt):
                    total += comb(kinds - 1 + k, k)
            memo[key] = total
        return total

    census[p] = total = rec(plan, 0, p[0], tail)
    return total


def _as_bounds(truncation, length: int) -> Tuple[int, ...]:
    if isinstance(truncation, int):
        if truncation < 0:
            raise InvalidParameter("truncation must be >= 0")
        return (truncation,) * length
    bounds = tuple(int(b) for b in truncation)
    if len(bounds) != length or any(b < 0 for b in bounds):
        raise InvalidParameter(
            "truncation must give one nonnegative bound per level")
    return bounds


def _envelope(bounds: Tuple[int, ...]) -> Tuple[int, ...]:
    # The recursion reads tree-shape counts back out of the series being
    # built, but a shape exponent at position i ends up, shifted below a
    # root, at position i+1 of the final profile.  Working inside a box
    # that dips and then rises again would therefore lose shapes that the
    # requested box still admits.  Build over the nonincreasing envelope
    # (exact for any monotone box) and restrict afterwards.
    out = list(bounds)
    for i in range(len(out) - 2, -1, -1):
        out[i] = max(out[i], out[i + 1])
    return tuple(out)


def _restrict(series: SparseSeries,
              bounds: Tuple[int, ...]) -> SparseSeries:
    if bounds == series.bounds:
        return series
    kept = {m: c for m, c in series.terms.items()
            if all(e <= b for e, b in zip(m, bounds))}
    return SparseSeries(series.nvars, bounds, kept)


def hilbert_series(n: int, truncation, caps: Caps = DEFAULT_CAPS
                   ) -> SparseSeries:
    """Census of forests by profile, all tree heights <= n.

    Variables x_0..x_n mark vertices per level.  Built iteratively: at step
    h every already-counted profile of height h-1 names a tree shape of
    height h, contributing one geometric factor whose exponent is the count
    read from the series built so far.  Height-0 trees seed the recursion.
    """
    # Not the marginal of coalescence_series, which gives the same terms:
    # that was 10-60x slower, n=5 at truncation 3 92 s against 1.46 s (one
    # 2-vCPU machine, Python 3.11).
    if n < 0:
        raise InvalidParameter("n must be >= 0")
    bounds = _as_bounds(truncation, n + 1)
    work = _envelope(bounds)
    series = SparseSeries.unit(n + 1, work)
    for h in range(n + 1):
        # every factor so far is a tree of height below h, so every term is
        # 0 past position h-1; those of height h-1 are positive up to it
        step = [(m, c) for m, c in series.items()
                if all(m[i] >= 1 for i in range(h))]
        for mono, coeff in step:
            factor = (1,) + mono[:h] + (0,) * (n - h)
            series = series.multiply_geometric(factor, coeff, caps)
    return _restrict(series, bounds)


def coalescence_series(n: int, truncation, caps: Caps = DEFAULT_CAPS
                       ) -> SparseSeries:
    """Census of forests by profile and per-level merge counts.

    Variables x_0..x_n as in :func:`hilbert_series`, then y_0..y_{n-1}
    marking merges between levels k and k+1 (excess of level-(k+1) vertices
    over level-k parents).  A tree of height h with children profile p and
    children-forest merge vector c carries y-monomial (p_0 - 1,) + c: its
    root absorbs p_0 children, the rest happens lower down.  Exponents are
    again read from the series built so far, which refines the plain census
    and marginalizes back onto it.
    """
    if n < 0:
        raise InvalidParameter("n must be >= 0")
    xb = _as_bounds(truncation, n + 1)
    yb = tuple(max(xb[k + 1] - 1, 0) for k in range(n))
    wx = _envelope(xb)
    wy = tuple(max(wx[k + 1] - 1, 0) for k in range(n))
    bounds = wx + wy
    nx = n + 1
    series = SparseSeries.unit(nx + n, bounds)
    for h in range(n + 1):
        # as in hilbert_series, every term is 0 past x_(h-1), and past
        # y_(h-2) too, so the profiles of height h-1 are positive up to x_(h-1)
        step = [(m[:h], m[nx:nx + max(h - 1, 0)], coeff)
                for m, coeff in series.items()
                if all(m[i] >= 1 for i in range(h))]
        for p, c, coeff in step:
            xpart = (1,) + p + (0,) * (nx - 1 - h)
            if h == 0:
                ypart = (0,) * n
            else:
                ypart = (p[0] - 1,) + c + (0,) * (n - h)
            if any(e > b for e, b in zip(xpart + ypart, bounds)):
                continue
            series = series.multiply_geometric(xpart + ypart, coeff, caps)
    return _restrict(series, xb + yb)


def marginalize_coalescence(series: SparseSeries, n: int) -> SparseSeries:
    """Forget the merge grading: send every y variable to 1."""
    return series.marginalize(tuple(range(n + 1)))
