"""Exact engine for finite-state Feynman-Kac models.

A model is a finite state list per level, an initial distribution, row
stochastic transitions and strictly positive potentials.  It holds each
row of eta0, M and G as integer numerators over one denominator, as a
table does, read once from its inputs: a plain "n/d" or "n" string, an
int or a Fraction by str and int operations, anything else through
Fraction.  Rational rows are validated on the integers; the eta0, M and
G attributes are read-only views in the model's field.  Measures and
functions on products of level spaces are dense tables, flat and row-major
over coordinates left to right, so serialized values are reproducible byte
for byte.  A table holds Python-int numerators over one denominator and
makes a Fraction, or in float mode a float, only for an entry a caller
reads.  Float mode, which exists for Monte Carlo work, computes on the
exact values of its floats, as a rational model with those entries
would, and rounds each value once, where it is read: an entry (`data`,
`value`), `total_mass`, `tv_norm`, `pair`, or the writer.

The partition selection and every linear map of single coordinates run
on one integer kernel: each matrix enters as integer rows over the lcm
of its entries, and a step multiplies the denominator once instead of
paying a gcd per entry.  `_Table.map_coords` carries every coordinate map
(transport, weights, contractions, integrals, pulls, centering); a
composite operator Q_{k,n} is a chain of one-step moves on it
(`transport_block` forward, `pull_coord` back), never a product of
matrices.  Only pushforward (an index map) and symmetrize_blocks (orbit
sums) walk the points of a table.  `flow` runs on the same integer rows
and returns Fractions in either field; `q_operator` gives the one-step
operator in the model's field for the float oracle.

Domains are tuples of level indices.  A q-fold tensor at level n has
domain (n,)*q; a path-space block structure lists each level once per
coordinate, in time order.  A table checks its levels and length only;
each route checks the size caps on its domains before it builds a table.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from collections import Counter
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .combinatorics import (bell_number, falling_factorial, set_partitions,
                            stirling_second)
from .config import Caps, DEFAULT_CAPS
from .errors import CapExceeded, InvalidParameter, ValidationError
from .jsontext import canonical_json

Scalar = Union[Fraction, float]

_FLOAT_ROW_TOL = 1e-12


def format_scalar(v: Scalar) -> Union[str, float]:
    if isinstance(v, Fraction):
        return "%d/%d" % (v.numerator, v.denominator)
    return float(v)


def _ratio(v: object) -> Tuple[int, int]:
    """Numerator and positive denominator, not reduced, of the value
    Fraction(v) reads.  A plain "n/d" or "n" string of ASCII digits, with
    an optional sign on n, an int or a Fraction is read by str and int
    operations; every other form, a zero denominator included, goes to
    Fraction(v), which gives the same value or raises the same error."""
    kind = type(v)
    if kind is int:
        return v, 1  # type: ignore[return-value]
    if kind is Fraction:
        return v.numerator, v.denominator  # type: ignore[union-attr]
    if kind is str:
        num, slash, den = v.partition("/")  # type: ignore[union-attr]
        body = num[1:] if num[:1] in ("+", "-") else num
        if body.isascii() and body.isdigit() and (
                not slash or den.isascii() and den.isdigit()):
            n = int(body)
            d = int(den) if slash else 1
            if d:
                return (-n if num[0] == "-" else n), d
    f = Fraction(v)  # type: ignore[arg-type]
    return f.numerator, f.denominator


def _entry(field: str) -> Callable[[object], object]:
    """The parser of one input entry: a (numerator, denominator) pair in
    rational mode, which refuses floats, and a finite float in float mode,
    where a string is read exactly and rounded once."""
    if field == "rational":
        def parse(v: object) -> object:
            if isinstance(v, float):
                raise ValidationError(
                    "rational mode rejects floats; pass 'num/den' strings")
            return _ratio(v)
        return parse
    if field == "float":
        def parse(v: object) -> object:
            if isinstance(v, str):
                n, d = _ratio(v)
                x = n / d
            else:
                x = float(v)  # type: ignore[arg-type]
            if not math.isfinite(x):
                raise ValidationError("float mode needs finite entries")
            return x
        return parse
    raise ValidationError("field must be 'rational' or 'float'")


def _row(entries: Sequence[object], field: str) -> Tuple[List[int], int]:
    """Parsed entries as integer numerators over one denominator: the lcm
    of the rational denominators, not reduced, or the exact values of the
    floats over the lcm of theirs."""
    if field == "float":
        return _over_lcm(entries)
    den = math.lcm(*[d for _, d in entries])  # type: ignore[misc]
    return [n * (den // d) for n, d in entries], den  # type: ignore[misc]


def parse_values(values: Iterable[object],
                 field: str) -> Tuple[List[int], int]:
    """Integer numerators over one denominator of input values given as
    "num/den" strings, ints or Fractions, or in float mode also floats."""
    return _row(list(map(_entry(field), values)), field)


Row = Tuple[Tuple[int, ...], int]


class FKModel:
    """Finite-state model: states per level, eta0, transitions M, potentials G.

    M[k-1] maps level k-1 to level k (1 <= k <= horizon); G[k] lives on
    level k and must be strictly positive.

    Each row of eta0, M and G is held as integer numerators over one
    denominator, gcd(den, *nums) == 1, in `eta0_row`, `M_rows[k]` (one row
    per state of level k) and `G_rows[k]`; a float model holds the exact
    values of its floats.  Rational rows are validated on the integers.
    `eta0`, `M` and `G` are read-only views in the model's field, built
    each time they are read.
    """

    __slots__ = ("states", "eta0_row", "M_rows", "G_rows", "field")

    def __init__(self, states: Sequence[Sequence[str]],
                 eta0: Sequence[object],
                 M: Sequence[Sequence[Sequence[object]]],
                 G: Sequence[Sequence[object]],
                 field: str = "rational"):
        parse = _entry(field)
        st = tuple(tuple(str(s) for s in lvl) for lvl in states)
        if not st or any(not lvl for lvl in st):
            raise ValidationError("every level needs at least one state")
        for lvl in st:
            if len(set(lvl)) != len(lvl):
                raise ValidationError("duplicate state labels on one level")
        e0 = [parse(v) for v in eta0]
        mm = [[[parse(v) for v in row] for row in mk] for mk in M]
        gg = [[parse(v) for v in gk] for gk in G]
        if len(mm) != len(st) - 1:
            raise ValidationError("need one transition table per step")
        if len(gg) != len(st):
            raise ValidationError("need one potential table per level")
        if len(e0) != len(st[0]):
            raise ValidationError("eta0 length must match level 0")

        def row(entries: List[object]) -> Row:
            nums, den = _row(entries, field)
            g = math.gcd(den, *nums)
            return tuple(v // g for v in nums), den // g

        def stochastic(entries: List[object], r: Row) -> bool:
            # exact in rational mode, within rounding in float mode
            if field == "rational":
                return sum(r[0]) == r[1]
            return abs(_sum(entries) - 1) <= _FLOAT_ROW_TOL

        e0_row = row(e0)
        if any(v < 0 for v in e0_row[0]):
            raise ValidationError("eta0 entries must be >= 0")
        if not stochastic(e0, e0_row):
            raise ValidationError("eta0 must sum to 1")
        m_rows = []
        for k, mk in enumerate(mm, start=1):
            if len(mk) != len(st[k - 1]):
                raise ValidationError("transition %d row count mismatch" % k)
            rows = []
            for entries in mk:
                if len(entries) != len(st[k]):
                    raise ValidationError(
                        "transition %d column count mismatch" % k)
                r = row(entries)
                if any(v < 0 for v in r[0]):
                    raise ValidationError(
                        "transition %d has negative entries" % k)
                if not stochastic(entries, r):
                    raise ValidationError(
                        "transition %d has a non-stochastic row" % k)
                rows.append(r)
            m_rows.append(tuple(rows))
        g_rows = []
        for k, gk in enumerate(gg):
            if len(gk) != len(st[k]):
                raise ValidationError("potential %d length mismatch" % k)
            r = row(gk)
            if any(v <= 0 for v in r[0]):
                raise ValidationError("potentials must be > 0")
            g_rows.append(r)
        self.states = st
        self.eta0_row = e0_row
        self.M_rows = tuple(m_rows)
        self.G_rows = tuple(g_rows)
        self.field = field

    def _view(self, row: Row) -> Tuple[Scalar, ...]:
        nums, den = row
        return tuple(self.scalar(v, den) for v in nums)

    @property
    def eta0(self) -> Tuple[Scalar, ...]:
        return self._view(self.eta0_row)

    @property
    def M(self) -> Tuple[Tuple[Tuple[Scalar, ...], ...], ...]:
        return tuple(tuple(map(self._view, mk)) for mk in self.M_rows)

    @property
    def G(self) -> Tuple[Tuple[Scalar, ...], ...]:
        return tuple(map(self._view, self.G_rows))

    @property
    def horizon(self) -> int:
        return len(self.states) - 1

    def size(self, k: int) -> int:
        if not 0 <= k <= self.horizon:
            raise InvalidParameter("level %d outside 0..%d"
                                   % (k, self.horizon))
        return len(self.states[k])

    @property
    def zero(self) -> Scalar:
        return Fraction(0) if self.field == "rational" else 0.0

    @property
    def one(self) -> Scalar:
        return Fraction(1) if self.field == "rational" else 1.0

    def scalar(self, num: int, den: int = 1) -> Scalar:
        if self.field == "rational":
            return Fraction(num, den)
        return num / den

    def exact_q(self, k: int) -> Tuple[List[List[int]], int]:
        """Q_k = G_{k-1} M_{k-1} as integer rows over one denominator, from
        the exact entries in either field."""
        if not 1 <= k <= self.horizon:
            raise InvalidParameter("operator index %d outside 1..%d"
                                   % (k, self.horizon))
        g, gden = self.G_rows[k - 1]
        rows = self.M_rows[k - 1]
        den = math.lcm(*[d for _, d in rows])
        return [[gx * v * (den // d) for v in row]
                for gx, (row, d) in zip(g, rows)], gden * den

    def _texts(self, row: Row) -> List[Union[str, float]]:
        # format_scalar of each entry, straight from the integers
        nums, den = row
        if self.field == "float":
            return [v / den for v in nums]
        return ["%d/%d" % (v // g, den // g)
                for v in nums for g in [math.gcd(v, den)]]

    def to_json(self) -> str:
        doc = {
            "states": [list(lvl) for lvl in self.states],
            "eta0": self._texts(self.eta0_row),
            "M": [list(map(self._texts, mk)) for mk in self.M_rows],
            "G": list(map(self._texts, self.G_rows)),
            "field": self.field,
        }
        return canonical_json(doc)

    @classmethod
    def from_json(cls, text: Union[str, dict]) -> "FKModel":
        doc = json.loads(text) if isinstance(text, str) else text
        try:
            return cls(doc["states"], doc["eta0"], doc["M"], doc["G"],
                       doc.get("field", "rational"))
        except KeyError as exc:
            raise ValidationError("model file missing field %s" % exc)

    def _key(self) -> tuple:
        return (self.states, self.eta0_row, self.M_rows, self.G_rows,
                self.field)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FKModel):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def _sum(vals: Iterable[Scalar]) -> Scalar:
    # left to right on every Python: builtin sum compensates float sums
    # from 3.12 on, which would make float results depend on the version
    total = None
    for v in vals:
        total = v if total is None else total + v
    return 0 if total is None else total


# ---------------------------------------------------------------------------
# flows and operators


class Flow:
    """Unnormalized measures, their normalizations and total masses."""

    __slots__ = ("gamma_vec", "eta_vec", "gnorm")

    def __init__(self, gamma_vec, eta_vec, gnorm):
        self.gamma_vec = gamma_vec
        self.eta_vec = eta_vec
        self.gnorm = gnorm


def q_operator(model: FKModel, k: int) -> Tuple[Tuple[Scalar, ...], ...]:
    """Table of the one-step weighted transition from level k-1 to k: the
    entries of FKModel.exact_q in the model's field, each the exact
    product rounded once in float mode."""
    rows, den = model.exact_q(k)
    return tuple(tuple(model.scalar(v, den) for v in row) for row in rows)


def flow(model: FKModel) -> Flow:
    """gamma_k, eta_k and gamma_k(1) for every level, as Fractions in
    either field: eta0 moved level by level through the integer rows of
    FKModel.exact_q."""
    nums, den = model.eta0_row
    gam = [(nums, den)]
    for k in range(1, model.horizon + 1):
        rows, qden = model.exact_q(k)
        nums = transport_numerators(nums, 1, rows)
        den *= qden
        gam.append((nums, den))
    return Flow(tuple(tuple(Fraction(v, d) for v in n) for n, d in gam),
                tuple(tuple(Fraction(v, sum(n)) for v in n) for n, _ in gam),
                tuple(Fraction(sum(n), d) for n, d in gam))


# ---------------------------------------------------------------------------
# integer kernel


def _over_lcm(vals: Iterable[object]) -> Tuple[List[int], int]:
    """Exact integer numerators over the lcm of the denominators of ints,
    Fractions or floats; a float enters exactly."""
    ratios = [v.as_integer_ratio() for v in vals]
    den = math.lcm(*[d for _, d in ratios])
    return [n * (den // d) for n, d in ratios], den


def _check_partitions(b: int, caps: Caps) -> None:
    """Refuse the Bell(b) set partitions of b positions past caps.forests."""
    bell = bell_number(b)
    if bell > caps.forests:
        raise CapExceeded("selection would enumerate too many set partitions",
                          predicted=bell, cap=caps.forests)


def _partition_targets(b: int,
                       s: int) -> Dict[int, List[List[Tuple[int, int]]]]:
    """For p = 1..b-1 and every point z of s**p (row-major index), the live
    points y that the canonical maps of the set partitions of b positions
    into p blocks send z to, with multiplicities.  The one partition into
    b blocks maps every point to itself, so it gets no table:
    `select_partitions` adds its piece as it is."""
    width = s ** b
    places = [s ** (b - 1 - i) for i in range(b)]
    # z and y in one key z * width + y, counted at C speed one partition
    # at a time, so only one partition's keys are ever listed
    counts: Dict[int, Counter] = {p: Counter() for p in range(1, b)}
    for rgs in set_partitions(b):
        p = max(rgs) + 1
        if p == b:
            continue
        weights = [0] * p
        for v, w in zip(rgs, places):
            weights[v] += w
        # block v adds z_v * (its places in y + its place in z)
        ks = [0]
        for v, w in enumerate(weights):
            w += width * s ** (p - 1 - v)
            ks = [k + x * w for k in ks for x in range(s)]
        counts[p].update(ks)
    out = {}
    for p, cp in counts.items():
        hits: List[List[Tuple[int, int]]] = [[] for _ in range(s ** p)]
        for key, c in cp.items():
            hits[key // width].append((key % width, c))
        out[p] = hits
    return out


def select_partitions(stage: List[int], prefix: int, b: int, s: int,
                      weights: Sequence[Dict[Tuple[int, int], int]],
                      targets: Dict[int, List[List[Tuple[int, int]]]]
                      ) -> List[int]:
    """Selection on the live block of a stage of integer tables.

    The stage stacks its tables one after another, each laid out as prefix
    frozen points times s**b live points.  Piece (d, p) of table d sums,
    over the set partitions of the b live positions into p blocks, the
    pushforward under the partition's canonical map; output e is sum of
    weights[e][d, p] * piece (d, p), and the outputs come back stacked the
    same way.  Piece (d, b), the identity partition, is table d itself and
    is added as it is, by a vector sum.  Every other p scatters through
    `targets`, `_partition_targets(b, s)`, which the caller builds once for
    as many stages as share (b, s); each output folds its weights into the
    marginals before one scatter per p.  The stage denominator is
    unchanged.
    """
    # margs[p]: every table on its frozen prefix and its first p live
    # points, stacked like the stage
    margs = {b: stage}
    for p in range(b, 1, -1):
        src = margs[p]
        margs[p - 1] = list(map(sum, zip(*[src[i::s] for i in range(s)])))
    width = s ** b
    out: List[int] = []
    for combo in weights:
        by_p: Dict[int, List[int]] = {}
        for (d, p), c in combo.items():
            if not c:
                continue
            size = prefix * s ** p
            src = margs[p][d * size:(d + 1) * size]
            acc = by_p.get(p)
            if acc is None:
                by_p[p] = src if c == 1 else [c * v for v in src]
            else:
                by_p[p] = [a + c * v for a, v in zip(acc, src)]
        data = by_p.pop(b, None) or [0] * (prefix * width)
        for p, src in by_p.items():
            tp = targets[p]
            step = len(tp)
            for pre in range(prefix):
                base = pre * width
                for hit, w in zip(tp, src[pre * step:(pre + 1) * step]):
                    if w:
                        for y, c in hit:
                            data[base + y] += c * w
        out += data
    return out


def transport_numerators(nums: Sequence[int], inner: int,
                         rows: Sequence[Sequence[int]]) -> List[int]:
    """Move one coordinate through integer operator rows by index strides.

    The table is laid out as (outer, x, inner) with x the moved coordinate;
    the result is (outer, y, inner) with entries sum_x num * rows[x][y].
    The entries with a given x are gathered by strided slices, one per
    inner index, so every product runs over all of them at once wherever
    the moved coordinate sits.  The caller multiplies the denominator by
    the rows' denominator.
    """
    s_in, s_out = len(rows), len(rows[0])
    block = s_in * inner
    outer = len(nums) // block
    subs = []
    for x in range(s_in):
        sub: List[int] = []
        for i in range(x * inner, (x + 1) * inner):
            sub += nums[i::block]
        subs.append(sub)
    step = s_out * inner
    out = [0] * (outer * step)
    for y in range(s_out):
        acc = None
        for x, sub in enumerate(subs):
            r = rows[x][y]
            if r:
                acc = ([r * v for v in sub] if acc is None else
                       [a + r * v for a, v in zip(acc, sub)])
        if acc is None:
            acc = [0] * (outer * inner)
        for i in range(inner):
            out[y * inner + i::step] = acc[i * outer:(i + 1) * outer]
    return out


# ---------------------------------------------------------------------------
# dense tables


class _Table:
    """Integer numerators `nums` over one positive denominator `den`, with
    gcd(den, *nums) == 1, built from the entries data or, with den given,
    from the numerators data over den.  Float entries enter exactly, and
    every operation is exact in either field; float mode rounds an entry
    only where it is read."""

    __slots__ = ("model", "levels", "nums", "den")

    def __init__(self, model: FKModel, levels: Sequence[int],
                 data: Sequence[object], den: Optional[int] = None):
        nums, den = _over_lcm(data) if den is None else (data, den)
        lv = tuple(int(k) for k in levels)
        size = _domain_size(model, lv)
        if len(nums) != size:
            raise InvalidParameter("table length %d, domain wants %d"
                                   % (len(nums), size))
        g = math.gcd(den, *nums)
        if g > 1:
            nums, den = [v // g for v in nums], den // g
        self.model = model
        self.levels = lv
        self.nums = tuple(nums)
        self.den = den

    def _like(self, nums: Sequence[int], den: int):
        return type(self)(self.model, self.levels, nums, den)

    @property
    def data(self) -> Tuple[Scalar, ...]:
        """Every entry, as a Fraction or, in float mode, the float nearest
        the exact entry."""
        return tuple(self.model.scalar(v, self.den) for v in self.nums)

    @property
    def sizes(self) -> Tuple[int, ...]:
        return tuple(self.model.size(k) for k in self.levels)

    @property
    def arity(self) -> int:
        return len(self.levels)

    def value(self, point: Sequence[int]) -> Scalar:
        return self.model.scalar(self.nums[_encode(point, self.sizes)],
                                 self.den)

    def _same_domain(self, other: "_Table"):
        if self.model is not other.model and self.model != other.model:
            raise InvalidParameter("tables built over different models")
        if self.levels != other.levels:
            raise InvalidParameter("domain mismatch %r vs %r"
                                   % (self.levels, other.levels))

    def tensor(self, other: "_Table"):
        if self.model != other.model:
            raise InvalidParameter("tables built over different models")
        return type(self)(self.model, self.levels + other.levels,
                          [a * b for a in self.nums for b in other.nums],
                          self.den * other.den)

    def __add__(self, other: "_Table"):
        self._same_domain(other)
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        return self._like([a * fa + b * fb
                           for a, b in zip(self.nums, other.nums)], den)

    def __sub__(self, other: "_Table"):
        return self + other.scale(-1)

    def scale(self, c: Scalar):
        (num,), den = _over_lcm([c])
        return self._like([num * v for v in self.nums], self.den * den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self.levels == other.levels and self.model == other.model
                and self.den == other.den and self.nums == other.nums)

    def map_coords(self, moves: Iterable[tuple]):
        """Apply matrices to single coordinates, one move after another.

        A move (pos, rows, level) replaces the table t by the table
        sum_x t(.., x, ..) * rows[x][y] at (.., y, ..): the coordinate at
        position pos of the current table moves to `level`, or is
        integrated out when `level` is None (rows of one column each).
        Rows of exact values go over the lcm of their entries; a move
        (pos, rows, level, den) carries integer rows over den, as
        FKModel.exact_q gives them.  All moves run on the table's
        numerators.
        """
        nums, den = self.nums, self.den
        levels = list(self.levels)
        sizes = list(self.sizes)
        for pos, rows, level, *rest in moves:
            if not 0 <= pos < len(levels):
                raise InvalidParameter("coordinate %d out of range" % pos)
            width = 1 if level is None else self.model.size(level)
            if len(rows) != sizes[pos] or any(len(r) != width for r in rows):
                raise InvalidParameter(
                    "coordinate %d needs %d rows of %d entries"
                    % (pos, sizes[pos], width))
            if rest:
                (rden,) = rest
            else:
                flat, rden = _over_lcm(v for row in rows for v in row)
                rows = [flat[i:i + width] for i in range(0, len(flat), width)]
            nums = transport_numerators(nums, math.prod(sizes[pos + 1:]),
                                        rows)
            den *= rden
            if level is None:
                del levels[pos], sizes[pos]
            else:
                levels[pos], sizes[pos] = level, width
        return type(self)(self.model, levels, nums, den)

    def symmetrize_blocks(self):
        """Average over coordinate permutations within same-level groups.

        The average at a point is the mean of the table over the point's
        orbit, since every orbit point is hit by as many permutations as the
        point's stabilizer holds.  An orbit is named by an integer
        occupation code: in a group of m positions on s states, each
        position in state x adds shift * (m+1)**x, where shift is the
        product of (m+1)**s over the earlier groups, so two points share a
        code exactly when they share an orbit.  The codes are built in
        row-major order by list extension, and one pass sums each orbit.
        """
        counts = Counter(self.levels)
        shifts: Dict[int, int] = {}
        shift = 1
        for k, m in counts.items():
            shifts[k] = shift
            shift *= (m + 1) ** self.model.size(k)
        keys = [0]
        for k, s in zip(self.levels, self.sizes):
            steps = [shifts[k] * (counts[k] + 1) ** x for x in range(s)]
            keys = [key + c for key in keys for c in steps]
        sums: Dict[int, int] = {}
        for key, w in zip(keys, self.nums):
            sums[key] = sums.get(key, 0) + w
        sizes = Counter(keys)
        lcm = math.lcm(*sizes.values())
        return self._like([sums[key] * (lcm // sizes[key]) for key in keys],
                          self.den * lcm)

    def contract(self, positions: Sequence[int],
                 vectors: Sequence[Sequence[Scalar]]):
        """Integrate out the given coordinates against per-coordinate value
        tables; remaining coordinates keep their order."""
        pos = tuple(positions)
        if len(set(pos)) != len(pos):
            raise InvalidParameter("duplicate contraction positions")
        vecs = dict(zip(pos, vectors))
        return self.map_coords((p, [[v] for v in vecs[p]], None)
                               for p in sorted(vecs, reverse=True))


def _domain_size(model: FKModel, levels: Iterable[int]) -> int:
    """Number of points of the product of the given levels of the model."""
    size = 1
    for k in levels:
        if not 0 <= k <= model.horizon:
            raise InvalidParameter("domain level %d out of range" % k)
        size *= model.size(k)
    return size


def _block_levels(profile: Sequence[int]) -> Tuple[int, ...]:
    """The domain of a block profile (q_0..q_n): level k once per block
    coordinate, in time order."""
    return tuple(k for k, cnt in enumerate(profile) for _ in range(cnt))


def _encode(point: Sequence[int], sizes: Sequence[int]) -> int:
    idx = 0
    for x, s in zip(point, sizes):
        idx = idx * s + x
    return idx


class SignedMeasure(_Table):
    """Signed measure as a dense weight table over a product domain."""

    def total_mass(self) -> Scalar:
        return self.model.scalar(sum(self.nums), self.den)

    def tv_norm(self) -> Scalar:
        return self.model.scalar(sum(map(abs, self.nums)), self.den)

    def pair(self, f: "TensorFunction") -> Scalar:
        """The sum of the entrywise products: one integer sum, read once in
        the model's field."""
        self._same_domain(f)
        return self.model.scalar(sum(map(operator.mul, self.nums, f.nums)),
                                 self.den * f.den)

    def pushforward(self, index_map: Sequence[int]) -> "SignedMeasure":
        """Image under point -> (point[i] for i in index_map); duplicate
        indices land on diagonals, dropped indices marginalize."""
        im = tuple(int(i) for i in index_map)
        for i in im:
            if not 0 <= i < self.arity:
                raise InvalidParameter("coordinate %d out of range" % i)
        new_levels = tuple(self.levels[i] for i in im)
        new_sizes = tuple(self.model.size(k) for k in new_levels)
        out = [0] * math.prod(new_sizes)
        for point, w in zip(itertools.product(*map(range, self.sizes)),
                            self.nums):
            if w:
                out[_encode([point[i] for i in im], new_sizes)] += w
        return SignedMeasure(self.model, new_levels, out, self.den)

    def transport_block(self, start: int, k: int) -> "SignedMeasure":
        """Move coordinates start.. from level k-1 to level k through the
        one-step operator, in one map_coords call."""
        for pos in range(start, self.arity):
            if self.levels[pos] != k - 1:
                raise InvalidParameter(
                    "coordinate %d sits at level %d, expected %d"
                    % (pos, self.levels[pos], k - 1))
        rows, den = self.model.exact_q(k)
        return self.map_coords((pos, rows, k, den)
                               for pos in range(start, self.arity))

    def weight_coord(self, pos: int,
                     vec: Sequence[Scalar]) -> "SignedMeasure":
        """Multiply by a one-coordinate density; the coordinate stays."""
        if not 0 <= pos < self.arity:
            raise InvalidParameter("coordinate %d out of range" % pos)
        diag = [[v if x == y else 0 for y in range(len(vec))]
                for x, v in enumerate(vec)]
        return self.map_coords([(pos, diag, self.levels[pos])])


class TensorFunction(_Table):
    """Bounded function as a dense value table over a product domain."""

    def is_symmetric(self) -> bool:
        return self.symmetrize_blocks() == self

    def pull_coord(self, pos: int, k: int) -> "TensorFunction":
        """Compose coordinate pos (level k) with the one-step operator; the
        coordinate moves down to level k-1, through the transposed integer
        rows of FKModel.exact_q."""
        if self.levels[pos] != k:
            raise InvalidParameter(
                "coordinate %d sits at level %d, expected %d"
                % (pos, self.levels[pos], k))
        rows, den = self.model.exact_q(k)
        return self.map_coords([(pos, list(zip(*rows)), k - 1, den)])


def constant_function(model: FKModel, levels: Sequence[int],
                      value: Scalar) -> TensorFunction:
    size = math.prod(model.size(k) for k in levels)
    return TensorFunction(model, levels, [value] * size)


def function_from_vector(model: FKModel, k: int,
                         vec: Sequence[object]) -> TensorFunction:
    nums, den = parse_values(vec, model.field)
    return TensorFunction(model, (k,), nums, den)


def measure_from_vector(model: FKModel, k: int,
                        vec: Sequence[Scalar]) -> SignedMeasure:
    return SignedMeasure(model, (k,), list(vec))


def _tensor_power(model: FKModel, k: int, vec: Sequence[Scalar],
                  q: int) -> SignedMeasure:
    """q-fold tensor power of the measure vec at level k."""
    mu = measure_from_vector(model, k, vec)
    out = SignedMeasure(model, (), [model.one])
    for _ in range(q):
        out = out.tensor(mu)
    return out


def gamma_tensor(model: FKModel, n: int, q: int) -> SignedMeasure:
    return _tensor_power(model, n, flow(model).gamma_vec[n], q)


def eta_tensor(model: FKModel, n: int, q: int) -> SignedMeasure:
    return _tensor_power(model, n, flow(model).eta_vec[n], q)


# ---------------------------------------------------------------------------
# selection operators


def partition_sums(mu: SignedMeasure, frozen: int,
                   caps: Caps = DEFAULT_CAPS) -> Dict[int, SignedMeasure]:
    """Selection on the live block of mu, one piece per number of blocks.

    The coordinates from `frozen` on are the live block: b coordinates at
    one level, in which mu must be exchangeable; the frozen prefix stays as
    it is.  Piece p sums, over the set partitions of the b live positions
    into p blocks, the pushforward of mu under the partition's canonical
    map (position i reads live coordinate "block of i").  Every map with
    the same kernel pushes an exchangeable mu to the same table, so the
    selection operators over all b**b maps are combinations of the pieces:
    the plain empirical q-block at ensemble size N weighs piece p by
    (N)_p / N**b, and its coefficient of x**j, x = 1/N, by s(p, b - j).

    This is a thin wrapper over `select_partitions`: the integer kernel
    builds every piece from the numerators of mu, over its denominator.
    The Bell(b) partitions are refused up front beyond caps.forests.
    """
    levels = mu.levels
    live = levels[frozen:]
    if not live or any(k != live[0] for k in live):
        raise InvalidParameter("the live block must sit on one level")
    b = len(live)
    _check_partitions(b, caps)
    s = mu.model.size(live[0])
    stage = select_partitions(list(mu.nums), math.prod(mu.sizes[:frozen]),
                              b, s, [{(0, p): 1} for p in range(1, b + 1)],
                              _partition_targets(b, s))
    size = len(mu.nums)
    return {p: SignedMeasure(mu.model, levels,
                             stage[(p - 1) * size:p * size], mu.den)
            for p in range(1, b + 1)}


def fiber_count(q: int, N: int, image_size: int) -> int:
    """Number of factorizations b = a o s of a map b from 1..q into 1..N,
    with s any self-map of 1..q and a an injection of 1..q into 1..N,
    given |b| = image_size."""
    if not 1 <= image_size <= min(q, N):
        raise InvalidParameter("image size out of range")
    return (falling_factorial(N - image_size, q - image_size)
            * falling_factorial(q, image_size))


def tensor_minus_dot_tv(q: int, N: int) -> Fraction:
    """Exact TV distance between the plain and injective q-fold empirical
    tensors of N distinct atoms."""
    if not 1 <= q <= N:
        raise InvalidParameter("needs 1 <= q <= N")
    total = Fraction(0)
    for p in range(1, q + 1):
        u = Fraction(1, N ** q)
        if p == q:
            u -= Fraction(1, falling_factorial(N, q))
        total += abs(u) * falling_factorial(N, p) * stirling_second(q, p)
    return total


# ---------------------------------------------------------------------------
# centering


def center_function(model: FKModel, f: TensorFunction) -> TensorFunction:
    """Symmetrize within same-level blocks, then remove every per-coordinate
    conditional mean against the normalized flow: one projection move per
    coordinate, rows delta_xy - eta_k(x), all in one map_coords call.  The
    result integrates to zero in each coordinate separately; commuting
    projections make one pass enough, and the claim is re-checked before
    returning."""
    proj = [[[(x == y) - e for y in range(len(eta))] for x, e in enumerate(eta)]
            for eta in flow(model).eta_vec]
    out = f.symmetrize_blocks().map_coords(
        (pos, proj[k], k) for pos, k in enumerate(f.levels))
    if not is_centered(model, out):
        raise AssertionError("centering left a nonzero mean")
    return out


def is_centered(model: FKModel, f: TensorFunction) -> bool:
    etas = flow(model).eta_vec
    return f.is_symmetric() and not any(
        any(f.contract([pos], [etas[k]]).nums)
        for pos, k in enumerate(f.levels))
