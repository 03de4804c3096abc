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
compare and hash by it.  Listing the classes one by one, their orbit
counts and the named shapes live in :mod:`fkforest.classsum`.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Optional, Sequence, Tuple

from .config import Caps
from .errors import CapExceeded, InvalidParameter
from .genfunc import PairProfile, class_census


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


def check_class_count(pairs: PairProfile, max_coal: Optional[int],
                      caps: Caps, total: Optional[int] = None) -> List[int]:
    """The census of :func:`fkforest.genfunc.class_census`, refused when
    the classes it counts number more than ``caps.forests``."""
    classes = class_census(pairs, max_coal, caps, total)
    if sum(classes) > caps.forests:
        raise CapExceeded("enumeration would produce too many forests",
                          predicted=sum(classes), cap=caps.forests)
    return classes
