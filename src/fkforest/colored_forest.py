"""Two-colored trees and forests: the one genealogy stack of the package.

White vertices are frozen sample points: they never have children.  Black
vertices carry the genealogy forward, so every parent is black.  A colored
map sequence records, per level, two 1-based parent maps (one for the white
vertices of the level below, one for the black ones), both into the black
vertices above.  Products of per-color symmetric groups act by relabeling;
colored forests are the orbits.

A forest is the children of one black root above level 0: its profiles
and merges are the root's with the root's level dropped, and its
stabilizer under the relabelings is the root's automorphism group.

Plain leveled forests are the colored forests whose whites all sit on the
top level: a plain profile (p_0..p_h) becomes the colored profile
((0,p_0)..(0,p_{h-1}),(p_h,0)), see :func:`fkforest.genfunc.flat_pairs`,
and the orbits and orbit sizes are the same on both sides.  In particular
the q-block classes of height n+1 are the colored classes of the block
profile ``flat_blocks(n, q) == (0,)*n + (q,)``.

Trees and forests are values: a tree sorts its children by encoding, so
two trees of one shape built apart have the same encoding, and they
compare and hash by it.  An enumeration builds its classes level by
level, from the top level down to the roots, and each tree once; nothing
is kept between calls.
"""

from __future__ import annotations

import itertools
from math import factorial
from operator import sub
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .config import Caps, DEFAULT_CAPS
from .errors import CapExceeded, InvalidParameter
# flat_pairs is re-exported: plain profiles enter the colored stack here
from .genfunc import PairProfile, _check_pairs, class_census, flat_pairs


class ColoredTree:
    """Immutable colored tree; its children are kept sorted by encoding.

    ``aut`` is the number of automorphisms (relabelings of each level that
    fix the tree): with children grouped into distinct shapes c of
    multiplicity m, aut = prod_c m! * aut(c)^m, and a leaf has aut = 1.
    """

    __slots__ = ("children", "is_white", "encoding", "wprofile", "bprofile",
                 "internal", "coal", "coal_degree", "aut")

    def __init__(self, is_white: bool, children: Iterable["ColoredTree"]):
        children = tuple(sorted(children, key=lambda t: t.encoding))
        if is_white and children:
            raise InvalidParameter("white vertices are always leaves")
        self.is_white = is_white
        self.children = children
        inner = "".join(c.encoding for c in children)
        self.encoding = ("w()" if is_white else "b(" + inner + ")")
        depth = 1 + max((len(c.wprofile) for c in children), default=0)
        wp = [0] * depth
        bp = [0] * depth
        inter = [0] * depth
        if is_white:
            wp[0] = 1
        else:
            bp[0] = 1
            inter[0] = 1 if children else 0
        for c in children:
            for lvl in range(len(c.wprofile)):
                wp[lvl + 1] += c.wprofile[lvl]
                bp[lvl + 1] += c.bprofile[lvl]
                inter[lvl + 1] += c.internal[lvl]
        self.wprofile = tuple(wp)
        self.bprofile = tuple(bp)
        self.internal = tuple(inter)
        self.coal = tuple(wp[k + 1] + bp[k + 1] - inter[k]
                          for k in range(depth - 1))
        self.coal_degree = sum(self.coal)
        # sorted children put equal shapes side by side
        aut, run = 1, 0
        for i, c in enumerate(children):
            run = run + 1 if i and c == children[i - 1] else 1
            aut *= run * c.aut
        self.aut = aut

    @property
    def height(self) -> int:
        return len(self.wprofile) - 1

    def __repr__(self) -> str:
        return "ColoredTree(%s)" % self.encoding

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColoredTree):
            return NotImplemented
        return self.encoding == other.encoding

    def __hash__(self):
        return hash(self.encoding)


def black(children: Iterable[ColoredTree]) -> ColoredTree:
    return ColoredTree(False, children)


def white() -> ColoredTree:
    return ColoredTree(True, ())


WHITE = white()


def black_chain(height: int) -> ColoredTree:
    """All-black bare chain; its top vertex is a black leaf."""
    if height < 0:
        raise InvalidParameter("height must be >= 0")
    t = black(())
    for _ in range(height):
        t = black((t,))
    return t


def white_topped_chain(height: int) -> ColoredTree:
    """Chain of height blacks carrying one white leaf on top."""
    if height < 0:
        raise InvalidParameter("height must be >= 0")
    t = WHITE
    for _ in range(height):
        t = black((t,))
    return t


class ColoredForest:
    """A forest as the children of one black root above level 0."""

    __slots__ = ("root", "encoding", "wprofile", "bprofile", "internal",
                 "coal")

    def __init__(self, trees: Iterable[ColoredTree]):
        root = self.root = ColoredTree(False, trees)
        self.encoding = root.encoding[2:-1]
        self.wprofile = root.wprofile[1:]
        self.bprofile = root.bprofile[1:]
        self.internal = root.internal[1:]
        self.coal = root.coal[1:]

    @property
    def items(self) -> Tuple[Tuple[ColoredTree, int], ...]:
        """The distinct trees with their multiplicities."""
        return tuple((t, len(tuple(run)))
                     for t, run in itertools.groupby(self.root.children))

    @property
    def pair_profile(self) -> PairProfile:
        return tuple(zip(self.wprofile, self.bprofile))

    @property
    def height(self) -> int:
        return len(self.wprofile) - 1

    @property
    def coal_degree(self) -> int:
        return sum(self.coal)

    @property
    def n_trees(self) -> int:
        return len(self.root.children)

    def trees(self) -> Iterable[ColoredTree]:
        return iter(self.root.children)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColoredForest):
            return NotImplemented
        return self.root.children == other.root.children

    def __hash__(self):
        return hash(self.root.children)

    def __repr__(self) -> str:
        return "ColoredForest(%s)" % (self.encoding or "empty")


def colored_forest(trees_in: Iterable[ColoredTree]) -> ColoredForest:
    trees = tuple(trees_in)
    if not all(isinstance(t, ColoredTree) for t in trees):
        raise InvalidParameter("members must be ColoredTree instances")
    return ColoredForest(trees)


class ColoredMapSeq:
    """Level sizes by color plus parent maps into the black vertices.

    ``maps[k] = (white_part, black_part)``: 1-based parents (black index at
    level k) for the whites, then the blacks, of level k+1.
    """

    __slots__ = ("white_sizes", "black_sizes", "maps")

    def __init__(self, white_sizes: Sequence[int],
                 black_sizes: Sequence[int],
                 maps: Sequence[Tuple[Sequence[int], Sequence[int]]]):
        ws = tuple(int(v) for v in white_sizes)
        bs = tuple(int(v) for v in black_sizes)
        if len(ws) != len(bs) or not ws:
            raise InvalidParameter("need matching per-level color counts")
        if any(v < 0 for v in ws + bs):
            raise InvalidParameter("level sizes must be >= 0")
        if any(ws[k] + bs[k] == 0 for k in range(len(ws))):
            raise InvalidParameter("every level must hold a vertex")
        if any(bs[k] == 0 for k in range(len(ws) - 1)):
            raise InvalidParameter("levels below the top need black vertices")
        mm = tuple((tuple(int(x) for x in w), tuple(int(x) for x in b))
                   for (w, b) in maps)
        if len(mm) != len(ws) - 1:
            raise InvalidParameter("need one map pair per non-root level")
        for k, (w, b) in enumerate(mm):
            if len(w) != ws[k + 1] or len(b) != bs[k + 1]:
                raise InvalidParameter("map %d arity mismatch" % k)
            if any(x < 1 or x > bs[k] for x in w + b):
                raise InvalidParameter(
                    "map %d has parents outside 1..%d" % (k, bs[k]))
        self.white_sizes = ws
        self.black_sizes = bs
        self.maps = mm

    def combined(self, k: int) -> Tuple[int, ...]:
        w, b = self.maps[k]
        return w + b

    @property
    def coal(self) -> Tuple[int, ...]:
        return tuple(self.white_sizes[k + 1] + self.black_sizes[k + 1]
                     - len(set(self.combined(k)))
                     for k in range(len(self.maps)))

    @property
    def coal_degree(self) -> int:
        return sum(self.coal)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColoredMapSeq):
            return NotImplemented
        return (self.white_sizes == other.white_sizes
                and self.black_sizes == other.black_sizes
                and self.maps == other.maps)

    def __hash__(self):
        return hash((self.white_sizes, self.black_sizes, self.maps))

    def __repr__(self) -> str:
        return ("ColoredMapSeq(white=%r, black=%r, maps=%r)"
                % (self.white_sizes, self.black_sizes, self.maps))


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
# profiles derived from per-time block sizes


def normalize_path_profile(q: Sequence[int]) -> Tuple[int, ...]:
    qq = tuple(int(v) for v in q)
    if any(v < 0 for v in qq):
        raise InvalidParameter("block sizes must be >= 0")
    while qq and qq[-1] == 0:
        qq = qq[:-1]
    if not qq:
        raise InvalidParameter("at least one positive block size required")
    return qq


def path_profile_bar(q: Sequence[int]) -> PairProfile:
    """Colored level profile of the classes entering a per-time tensor
    product with block sizes q = (q_0..q_n): level j holds q_{j-1} whites
    (frozen at time j-1) and sum(q_j..q_n) blacks still moving."""
    qq = normalize_path_profile(q)
    n = len(qq) - 1
    pairs = []
    for j in range(n + 2):
        wj = qq[j - 1] if j >= 1 else 0
        bj = sum(qq[j:])
        pairs.append((wj, bj))
    return tuple(pairs)


def flat_blocks(n: int, q: int) -> Tuple[int, ...]:
    """Block profile of the plain q-block classes of height n+1: all q
    coordinates freeze at time n."""
    if n < 0 or q < 1:
        raise InvalidParameter("need n >= 0 and q >= 1")
    return (0,) * n + (q,)


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


def check_class_count(pairs: PairProfile, max_coal: Optional[int],
                      caps: Caps, total: Optional[int] = None) -> List[int]:
    """The census of :func:`fkforest.genfunc.class_census`, refused when
    the classes it counts number more than ``caps.forests``."""
    classes = class_census(pairs, max_coal, caps, total)
    if sum(classes) > caps.forests:
        raise CapExceeded("enumeration would produce too many forests",
                          predicted=sum(classes), cap=caps.forests)
    return classes


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
