"""The genealogy classes one by one, and the class-sum route over them.

An enumeration builds its classes level by level, from the top level down
to the roots, and each tree once; nothing is kept between calls.  Each
class comes with its orbit count under the per-color relabelings and its
canonical labeled form; a brute-force count over the relabelings checks
the orbit counts.

The block moments of :mod:`fkforest.expansion` are one operator product.
The genealogy class sum is the same product expanded over map sequences
and grouped by orbit.  A class with per-level image sizes (m_0..m_n)
under per-level source sizes (b_0..b_n) receives, at order k,

    sum over r >= 0 with ||r|| = k of  prod_j stirling_first(m_j, b_j - r_j)
    divided by                         prod_j falling_factorial(b_j, m_j)

times the class count #(f) and its measure `delta_colored`.  That sum is
kept as a tier-1 cross-check (tests/test_operator_route.py) and as the
per-class explanation behind the named shapes below, which the low-order
closed forms here, the Wick pairing and the first-order block law of
:mod:`fkforest.fluctuation` sum over.  No `count`, moment `expand` or
`oracle` request runs this module, so it loads on first use.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from math import factorial
from operator import sub
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .colored_forest import (WHITE, ColoredForest, ColoredMapSeq, ColoredTree,
                             black, black_chain, colored_forest,
                             white_topped_chain)
from .config import Caps, DEFAULT_CAPS
from .errors import CapExceeded, IdentityMismatch, InvalidParameter
from .expansion import _check_profile, _moment_polynomial, _zero_measure
from .fk_core import (FKModel, SignedMeasure, _tensor_power, format_scalar,
                      gamma_tensor)
from .genfunc import (PairProfile, _check_pairs, check_class_count,
                      flat_blocks, normalize_path_profile, path_profile_bar)


# ---------------------------------------------------------------------------
# orbit counts and labeled forms


def colored_forest_of(a: ColoredMapSeq) -> ColoredForest:
    top = len(a.white_sizes) - 1
    whites = [WHITE] * a.white_sizes[top]
    blacks = [black(())] * a.black_sizes[top]
    for k in range(top - 1, -1, -1):
        wmap, bmap = a.maps[k]
        kids: List[List[ColoredTree]] = [[] for _ in range(a.black_sizes[k])]
        for idx, parent in enumerate(wmap):
            kids[parent - 1].append(whites[idx])
        for idx, parent in enumerate(bmap):
            kids[parent - 1].append(blacks[idx])
        whites = [WHITE] * a.white_sizes[k]
        blacks = [black(ch) for ch in kids]
    return colored_forest(whites + blacks)


def colored_planar_mapseq(f: ColoredForest) -> ColoredMapSeq:
    """Canonical labeling: encoding order, whites before blacks per level."""
    if f.n_trees == 0:
        raise InvalidParameter("the empty forest has no labeled form")
    height = f.height
    wrows: List[List[ColoredTree]] = []
    brows: List[List[ColoredTree]] = []
    row = list(f.trees())
    maps: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
    for k in range(height + 1):
        wrows.append([t for t in row if t.is_white])
        brows.append([t for t in row if not t.is_white])
        if k == height:
            break
        nxt: List[ColoredTree] = []
        wparents: List[int] = []
        bparents: List[int] = []
        for idx, node in enumerate(brows[k], start=1):
            for c in node.children:
                nxt.append(c)
                if c.is_white:
                    wparents.append(idx)
                else:
                    bparents.append(idx)
        # planar layout lists whites first, so split the row by color but
        # keep each color in visit order
        row = [c for c in nxt if c.is_white] + [c for c in nxt
                                                if not c.is_white]
        maps.append((tuple(wparents), tuple(bparents)))
    ws = tuple(len(r) for r in wrows)
    bs = tuple(len(r) for r in brows)
    if ws != f.wprofile or bs != f.bprofile:
        raise AssertionError("planar layout does not match profile")
    return ColoredMapSeq(ws, bs, maps)


def count_colored_jungles(f: ColoredForest) -> int:
    """Orbit size of the colored forest under per-color relabelings.

    The group is the product of w_k! * b_k! over the levels, and the
    stabilizer is the automorphism group of the forest's root: holding m
    copies of tree t, for each distinct t, it has prod_(t,m) m! * aut(t)^m
    elements (see :class:`ColoredTree`).
    """
    if f.n_trees == 0:
        raise InvalidParameter("empty forest has no labelings")
    group = _group_order(f.pair_profile)
    if group % f.root.aut:
        raise AssertionError(
            "stabilizer size does not divide the group order for %s"
            % f.encoding)
    return group // f.root.aut


def _group_order(pairs: Iterable[Tuple[int, int]]) -> int:
    group = 1
    for w, b in pairs:
        group *= factorial(w) * factorial(b)
    return group


def brute_force_colored_orbit_count(a: ColoredMapSeq,
                                    caps: Caps = DEFAULT_CAPS) -> int:
    group = _group_order(zip(a.white_sizes, a.black_sizes))
    if group > caps.group:
        raise CapExceeded("relabeling group too large",
                          predicted=group, cap=caps.group)
    wperms = [list(itertools.permutations(range(1, v + 1)))
              for v in a.white_sizes]
    bperms = [list(itertools.permutations(range(1, v + 1)))
              for v in a.black_sizes]
    levels = len(a.white_sizes)
    hits = 0
    for combo in itertools.product(*(wperms + bperms)):
        wperm = combo[:levels]
        bperm = combo[levels:]
        ok = True
        for k, (wm, bm) in enumerate(a.maps):
            up = bperm[k]
            inv_w = _invert(wperm[k + 1])
            inv_b = _invert(bperm[k + 1])
            moved_w = tuple(up[wm[inv_w[j]] - 1] for j in range(len(wm)))
            moved_b = tuple(up[bm[inv_b[j]] - 1] for j in range(len(bm)))
            if moved_w != wm or moved_b != bm:
                ok = False
                break
        if ok:
            hits += 1
    if group % hits:
        raise AssertionError("stabilizer does not divide group order")
    return group // hits


def _invert(perm: Tuple[int, ...]) -> Tuple[int, ...]:
    inv = [0] * len(perm)
    for i, x in enumerate(perm):
        inv[x - 1] = i
    return tuple(inv)

# ---------------------------------------------------------------------------
# enumeration


def enumerate_colored_forests(pairs: PairProfile,
                              max_coal: Optional[int] = None,
                              caps: Caps = DEFAULT_CAPS
                              ) -> List[ColoredForest]:
    """All colored forests with the given per-level color counts, and
    with max_coal given only those with at most max_coal merges, sorted by
    encoding.

    Before any tree is built, :func:`fkforest.genfunc.class_census`
    counts the classes asked for, and a count over ``caps.forests`` is
    refused with the exact number.  The classes are then built level by
    level (:func:`_colored_classes`); no level holds more forests than
    that count, and no tree has more merges than max_coal, so the work
    follows the classes returned, not the profile's full class list.
    """
    pp = _check_pairs(pairs)
    check_class_count(pp, max_coal, caps)
    results = [colored_forest(trees)
               for trees in _colored_classes(pp, max_coal)]
    results.sort(key=lambda g: g.encoding)
    return results


def _colored_classes(pairs: PairProfile, max_coal: Optional[int]
                     ) -> List[Tuple[ColoredTree, ...]]:
    """The classes of a checked pair profile with at most max_coal merges,
    each as the tuple of its trees sorted by encoding.

    One loop walks from the top level h down to the roots.  It keeps the
    forests of levels k+1..h with the merges each has made, and hangs the
    roots of each from the b_k blacks of level k: a multiset partition of
    the roots into at most b_k nonempty parts (:func:`_splits`), each part
    the children of one black; the blacks left over are leaves, and the
    w_k whites join.  Distinct forests or partitions give distinct
    forests, so no class comes twice.

    A step merges its roots less its parts.  The steps below level k make
    at least need[k] = sum_(j<=k) max(0, w_j + b_j - b_(j-1)) merges, and
    a forest whose merges pass max_coal - need[k] is never built.  Every
    forest kept thus extends to a class, so no level holds more forests
    than the census counted.  Per level, the split patterns are shared by
    root multiplicities and spare merges, and the black trees by part.
    """
    # no forest merges more often than it has vertices below the roots
    budget = sum(w + b for w, b in pairs[1:]) if max_coal is None \
        else max_coal
    need = [0]
    for (_, up), (w, b) in zip(pairs, pairs[1:]):
        need.append(need[-1] + max(0, w + b - up))
    if budget < need[-1]:
        return []
    leaf = black(())
    w, b = pairs[-1]
    forests = [((leaf,) * b + (WHITE,) * w, 0)]
    for k in range(len(pairs) - 2, -1, -1):
        w, b = pairs[k]
        patterns: Dict[tuple, List[tuple]] = {}
        blacks: Dict[Tuple[ColoredTree, ...], ColoredTree] = {}
        grown = []
        for trees, merges in forests:
            kinds, counts = zip(*((t, len(tuple(run)))
                                  for t, run in itertools.groupby(trees)))
            spare = min(budget - merges - need[k], len(trees) - 1)
            got = patterns.get((counts, spare))
            if got is None:
                got = patterns[counts, spare] = _splits(counts, b, spare)
            for parts in got:
                tops = [WHITE] * w + [leaf] * (b - len(parts))
                for part in parts:
                    kids = tuple(t for t, m in zip(kinds, part)
                                 for _ in range(m))
                    tree = blacks.get(kids)
                    if tree is None:
                        tree = blacks[kids] = black(kids)
                    tops.append(tree)
                grown.append((tuple(sorted(tops, key=lambda t: t.encoding)),
                              merges + len(trees) - len(parts)))
        forests = grown
    return [trees for trees, _ in forests]


def _splits(counts: Tuple[int, ...], blocks: int, spare: int
            ) -> List[Tuple[Tuple[int, ...], ...]]:
    """The partitions of a multiset with multiplicities counts into at most
    blocks nonempty parts, with at most spare merges (a part of s members
    merges s - 1 times).  A part is a tuple of multiplicities; the parts
    of a partition come in non-increasing lex order, so each holds the
    first kind that the earlier ones left."""
    out: List[Tuple[Tuple[int, ...], ...]] = []

    def rec(rest, bound, blocks, spare, chosen):
        left = sum(rest)
        if not left:
            out.append(chosen)
            return
        if not blocks or left - blocks > spare:
            return
        first = next(i for i, v in enumerate(rest) if v)
        found = []

        def parts(head, room, tight):
            # the parts of rest of at most room members that start with
            # head, in descending lex order and, while tight, up to bound
            i = len(head)
            if i == len(rest) or not room:
                found.append(head + (0,) * (len(rest) - i))
                return
            hi = min(rest[i], room, bound[i] if tight else room)
            for v in range(hi, 0 if i == first else -1, -1):
                parts(head + (v,), room - v, tight and v == bound[i])

        parts((), spare + 1, True)
        for part in found:
            rec(tuple(map(sub, rest, part)), part, blocks - 1,
                spare - sum(part) + 1, chosen + (part,))

    rec(counts, counts, blocks, spare, ())
    return out


def enumerate_colored_orbits(q: Sequence[int],
                             max_coal: Optional[int] = None,
                             caps: Caps = DEFAULT_CAPS
                             ) -> List[Tuple[ColoredForest, int]]:
    """Colored classes for per-time block sizes q, with orbit sizes."""
    pairs = path_profile_bar(q)
    return [(f, count_colored_jungles(f))
            for f in enumerate_colored_forests(pairs, max_coal, caps)]

# ---------------------------------------------------------------------------
# named colored shapes


def _merge(kids: Iterable[ColoredTree], k: int) -> ColoredTree:
    """A black at level k with the given children, under a bare chain."""
    t = black(kids)
    for _ in range(k):
        t = black((t,))
    return t


def wick_colored_tree(k: int, l: int, m: int) -> ColoredTree:
    """Single merge at level k, white tips frozen at levels l+1 and m+1."""
    if not 0 <= k <= l <= m:
        raise InvalidParameter("need 0 <= k <= l <= m")
    return _merge((white_topped_chain(l - k), white_topped_chain(m - k)), k)


def build_wick_forest(t: Dict[Tuple[int, int, int], int]) -> ColoredForest:
    """Pairing shape for the path-level census: one merge tree per entry
    (k,l,m) with multiplicity, plus one black stub per merge at its level."""
    out: List[ColoredTree] = []
    stubs: Dict[int, int] = {}
    for (k, l, m), mult in sorted(t.items()):
        if mult < 0:
            raise InvalidParameter("multiplicities must be >= 0")
        if mult == 0:
            continue
        out.extend([wick_colored_tree(k, l, m)] * mult)
        stubs[k] = stubs.get(k, 0) + mult
    for k, mult in stubs.items():
        out.extend([black_chain(k)] * mult)
    if not out:
        raise InvalidParameter("empty pairing")
    return colored_forest(out)


def first_order_path_forest(n: int, q: int, k: int, m: int) -> ColoredForest:
    """Colored class driving the first-order block-distribution term: one
    merge at level k feeding a white frozen at level m+1, q whites on top,
    and the matching black stub."""
    if not 0 <= k <= m <= n:
        raise InvalidParameter("need 0 <= k <= m <= n")
    if q < 1:
        raise InvalidParameter("needs q >= 1")
    return colored_forest([black_chain(k), wick_colored_tree(k, m, n)]
                          + [white_topped_chain(n + 1)] * (q - 1))


# The plain q-block shapes below live in the classes of flat_blocks(n, q).
# Lines that reach the top level end in a white; a line that stops below
# it (the stub left by a merge) is a bare black chain.


def _check_merges(n: int, q: int, levels: Sequence[int]) -> None:
    flat_blocks(n, q)
    if (levels[0] < 0 or levels[-1] > n
            or list(levels) != sorted(set(levels))):
        raise InvalidParameter("merge levels %r must increase strictly "
                               "within 0..%d" % (tuple(levels), n))


def _flat_shape(n: int, q: int,
                parts: Sequence[ColoredTree]) -> ColoredForest:
    """The parts, padded up to q top whites with untouched full chains."""
    lines = sum(sum(t.wprofile) for t in parts)
    if q < lines:
        raise InvalidParameter("needs q >= %d" % lines)
    return colored_forest(list(parts)
                          + [white_topped_chain(n + 1)] * (q - lines))


def pair_merge_forest(n: int, q: int, k: int) -> ColoredForest:
    """One binary merge at level k, everything else untouched."""
    _check_merges(n, q, (k,))
    return _flat_shape(n, q, (wick_colored_tree(k, n, n), black_chain(k)))


def triple_merge_forest(n: int, q: int, k: int) -> ColoredForest:
    """One ternary merge at level k."""
    _check_merges(n, q, (k,))
    split = _merge((white_topped_chain(n - k),) * 3, k)
    return _flat_shape(n, q, (split,) + (black_chain(k),) * 2)


def double_pair_forest(n: int, q: int, k: int) -> ColoredForest:
    """Two disjoint binary merges at the same level k."""
    _check_merges(n, q, (k,))
    return _flat_shape(n, q,
                       (wick_colored_tree(k, n, n), black_chain(k)) * 2)


def nested_merge_forest(n: int, q: int, k: int, l: int) -> ColoredForest:
    """Merge at level k whose offspring merges again at level l > k."""
    _check_merges(n, q, (k, l))
    inner = _merge((white_topped_chain(n - l),) * 2, l - k - 1)
    split = _merge((inner, white_topped_chain(n - k)), k)
    return _flat_shape(n, q, (split, black_chain(k), black_chain(l)))


def cut_branch_forest(n: int, q: int, k: int, l: int) -> ColoredForest:
    """Merge at level k; the sibling line stops at level l, forcing a
    second merge there inside the same tree."""
    _check_merges(n, q, (k, l))
    inner = _merge((white_topped_chain(n - l),) * 2, l - k - 1)
    split = _merge((inner, black_chain(l - k - 1)), k)
    return _flat_shape(n, q, (split, black_chain(k)))


def two_tree_merge_forest(n: int, q: int, k: int, l: int) -> ColoredForest:
    """Independent binary merges at levels k and l in different trees."""
    _check_merges(n, q, (k, l))
    return _flat_shape(n, q, (
        wick_colored_tree(k, n, n), wick_colored_tree(l, n, n),
        black_chain(k), black_chain(l)))


def staggered_merge_forest(n: int, q: int, k: int, l: int) -> ColoredForest:
    """Merge at level k with one line stopping at level l, plus an
    independent binary merge at level l in another tree."""
    _check_merges(n, q, (k, l))
    stop_at_l = _merge((black_chain(l - k - 1), white_topped_chain(n - k)),
                       k)
    return _flat_shape(n, q, (
        stop_at_l, wick_colored_tree(l, n, n), black_chain(k)))

# ---------------------------------------------------------------------------
# class measures and the low-order closed forms


def delta_colored(model: FKModel,
                  f: Union[ColoredForest, ColoredMapSeq],
                  q: Sequence[int]) -> SignedMeasure:
    """Path-space measure of a colored genealogy class: white coordinates
    freeze at their level in time order, black ones keep moving."""
    qq = normalize_path_profile(q)
    pairs = path_profile_bar(qq)
    n = len(qq) - 1
    if n > model.horizon:
        raise InvalidParameter("model horizon too short")
    a = colored_planar_mapseq(f) if isinstance(f, ColoredForest) else f
    if not isinstance(a, ColoredMapSeq):
        raise InvalidParameter("expected a ColoredForest or a ColoredMapSeq")
    got = tuple(zip(a.white_sizes, a.black_sizes))
    if got != pairs:
        raise InvalidParameter("colored profile %r does not match %r"
                               % (got, pairs))
    mu = _tensor_power(model, 0, model.eta0, pairs[0][1])
    frozen = 0
    for k in range(n + 1):
        wmap, bmap = a.maps[k]
        combined = wmap + bmap
        index_map = list(range(frozen)) + [frozen + v - 1 for v in combined]
        mu = mu.pushforward(index_map)
        frozen += len(wmap)
        if k + 1 <= n:
            mu = mu.transport_block(frozen, k + 1)
    return mu


def closed_form_low_orders(model: FKModel, n: int, q: int,
                           caps: Caps = DEFAULT_CAPS
                           ) -> Tuple[SignedMeasure, SignedMeasure,
                                      SignedMeasure]:
    """First three coefficient measures from the named-shape catalogue.

    Only meaningful for q >= 4: below that some catalogued shapes do not
    exist (a two-tree shape needs four distinct lineages) and the display
    degenerates.  The generic engine remains the ground truth: each order
    is compared against the generic coefficient and any disagreement
    raises IdentityMismatch carrying both measures, rather than silently
    returning a transcribed formula.
    """
    if q < 4:
        raise InvalidParameter(
            "closed forms need q >= 4; at q=%d some catalogued shapes "
            "degenerate, use path_derivative_Q whose generic sum handles "
            "small q automatically" % q)
    prof = _check_profile(model, flat_blocks(n, q))
    # the generic product refuses oversized profiles before the class sum
    generic = _moment_polynomial(model, prof, 2, caps)

    def dlt(f: ColoredForest) -> SignedMeasure:
        return delta_colored(model, f, prof)

    g = gamma_tensor(model, n, q)
    zero = _zero_measure(model, (n,) * q)
    half = Fraction(q * (q - 1), 2)

    d0 = g

    acc1 = zero
    for k in range(n + 1):
        acc1 = acc1 + (dlt(pair_merge_forest(n, q, k)) - g)
    d1 = acc1.scale(half).symmetrize_blocks()

    lead = Fraction(math.factorial(q), math.factorial(q - 3) * 6)
    same = zero
    for k in range(n + 1):
        same = same + (
            dlt(triple_merge_forest(n, q, k))
            + dlt(double_pair_forest(n, q, k)).scale(Fraction(3 * (q - 3), 4))
            - dlt(pair_merge_forest(n, q, k)).scale(Fraction(3 * (q - 1), 2))
            + g.scale(Fraction(3 * q - 1, 4)))
    cross_a = zero
    cross_b = zero
    for k in range(n + 1):
        for l in range(k + 1, n + 1):
            cross_a = cross_a + (
                g - dlt(pair_merge_forest(n, q, l))
                - dlt(pair_merge_forest(n, q, k)))
            cross_b = cross_b + (
                dlt(cut_branch_forest(n, q, k, l))
                + (dlt(nested_merge_forest(n, q, k, l))
                   + dlt(staggered_merge_forest(n, q, k, l))).scale(q - 2)
                + dlt(two_tree_merge_forest(n, q, k, l)).scale(
                    Fraction((q - 2) * (q - 3), 2)))
    d2 = (same.scale(lead) + cross_a.scale(half * half)
          + cross_b.scale(half)).symmetrize_blocks()

    for k, cand in ((0, d0), (1, d1), (2, d2)):
        gen = generic[k]
        if cand != gen:
            raise IdentityMismatch(
                "closed-form order %d differs from the generic coefficient "
                "(tv gap %s); the generic engine is the ground truth"
                % (k, format_scalar((cand - gen).tv_norm())),
                lhs=cand, rhs=gen)
    return d0, d1, d2
