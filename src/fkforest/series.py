"""Truncated series censuses of the plain forests, with no class built.

The series side is independent of the census of :mod:`fkforest.genfunc`:
a forest splits into a multiset of trees, a tree with children profile
``q`` occupies the profile ``(1,) + q``, and the census of all profiles in
a box is the fixed point of a product of geometric factors, one per tree
shape (:func:`hilbert_series`, refined by merges in
:func:`coalescence_series`).  The series grows in one dict of terms,
multiplied in place by one factor after another, and becomes a
:class:`SparseSeries` once, at the end.  The two are tested against each
other and against explicit enumeration.  No `count`, `expand` or `oracle`
request runs this module, so it loads on first use.

All coefficients are exact Python integers.
"""

from __future__ import annotations

from math import comb
from operator import add
from typing import Dict, Iterator, Optional, Sequence, Tuple

from .config import Caps, DEFAULT_CAPS
from .errors import CapExceeded, InvalidParameter

Monomial = Tuple[int, ...]


class SparseSeries:
    """Multivariate power series truncated to a box, sparse integer terms.

    ``bounds`` gives, per variable, the largest retained exponent; terms
    outside the box, and zero terms, are dropped.
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


def _multiply_geometric(terms: Dict[Monomial, int], box: Monomial,
                        mono: Monomial, exponent: int, caps: Caps) -> None:
    """Multiply terms, in place and inside box, by (1 - x^mono)^(-exponent)
    for a nonconstant mono and exponent >= 1: x^(k*mono) gets C(exponent -
    1 + k, k), the multisets of size k from exponent kinds.  A series past
    ``caps.series`` terms is refused."""
    shifts = []
    shift = mono
    while all(e <= b for e, b in zip(shift, box)):
        shifts.append((shift, comb(exponent + len(shifts), len(shifts) + 1)))
        shift = tuple(map(add, shift, mono))
    if not shifts:
        return
    for m, c in list(terms.items()):
        for shift, weight in shifts:
            key = tuple(map(add, m, shift))
            if any(e > b for e, b in zip(key, box)):
                break
            terms[key] = terms.get(key, 0) + weight * c
    if len(terms) > caps.series:
        raise CapExceeded("series exceeds term cap",
                          predicted=len(terms), cap=caps.series)


def _forest_series(n: int, truncation, merges: bool,
                   caps: Caps) -> SparseSeries:
    """The forest census over x_0..x_n, then, with merges, y_0..y_{n-1}.

    Built iteratively: at step h every already-counted profile of height
    h-1 names a tree shape of height h, contributing one geometric factor
    whose exponent is the count read from the series built so far.
    Height-0 trees seed the recursion.  A tree of height h with children
    profile p and children-forest merge vector c carries y-monomial
    (p_0 - 1,) + c: its root absorbs p_0 children, the rest lower down.
    """
    if n < 0:
        raise InvalidParameter("n must be >= 0")
    nx, ny = n + 1, n if merges else 0
    xb = _as_bounds(truncation, nx)
    yb = tuple(max(xb[k + 1] - 1, 0) for k in range(ny))
    wx = _envelope(xb)
    wy = tuple(max(wx[k + 1] - 1, 0) for k in range(ny))
    box = wx + wy
    terms = {(0,) * len(box): 1}
    for h in range(nx):
        # every factor so far is a tree of height below h, so every term is
        # 0 past x_(h-1), and past y_(h-2) too; those of height h-1 are
        # positive up to x_(h-1)
        step = [(m[:h], m[nx:nx + max(h - 1, 0)], coeff)
                for m, coeff in sorted(terms.items())
                if all(m[i] >= 1 for i in range(h))]
        for p, c, coeff in step:
            factor = (1,) + p + (0,) * (n - h)
            if merges:
                factor += ((p[0] - 1,) + c + (0,) * (n - h) if h
                           else (0,) * n)
            _multiply_geometric(terms, box, factor, coeff, caps)
    return SparseSeries(nx + ny, xb + yb, terms)


def hilbert_series(n: int, truncation, caps: Caps = DEFAULT_CAPS
                   ) -> SparseSeries:
    """Census of forests by profile, all tree heights <= n: variables
    x_0..x_n mark vertices per level."""
    # Not the marginal of coalescence_series, which gives the same terms:
    # that was 10-60x slower, n=5 at truncation 3 92 s against 1.46 s (one
    # 2-vCPU machine, Python 3.11).
    return _forest_series(n, truncation, False, caps)


def coalescence_series(n: int, truncation, caps: Caps = DEFAULT_CAPS
                       ) -> SparseSeries:
    """Census of forests by profile and per-level merge counts.

    Variables x_0..x_n as in :func:`hilbert_series`, then y_0..y_{n-1}
    marking merges between levels k and k+1 (excess of level-(k+1) vertices
    over level-k parents).  Exponents are again read from the series built
    so far, which refines the plain census and marginalizes back onto it.
    """
    return _forest_series(n, truncation, True, caps)


def marginalize_coalescence(series: SparseSeries, n: int) -> SparseSeries:
    """Forget the merge grading: send every y variable to 1."""
    return series.marginalize(tuple(range(n + 1)))
