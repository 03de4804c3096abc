"""Exact engine for finite-state Feynman-Kac models.

A model is a finite state list per level, an initial distribution, row
stochastic transitions and strictly positive potentials.  Measures and
functions on products of level spaces are dense tables, flat and row-major
over coordinates left to right, so serialized values are reproducible byte
for byte.  Rational mode keeps every entry a Fraction; float mode exists
for Monte Carlo work only.

Domains are tuples of level indices.  A q-fold tensor at level n has
domain (n,)*q; a path-space block structure lists each level once per
coordinate, in time order.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .colored_forest import (ColoredForest, ColoredMapSeq,
                             colored_planar_mapseq, normalize_path_profile,
                             path_profile_bar)
from .combinatorics import (bell_number, falling_factorial, set_partitions,
                            stirling_first, stirling_second)
from .config import Caps, DEFAULT_CAPS
from .errors import CapExceeded, InvalidParameter, ValidationError

Scalar = Union[Fraction, float]

_FLOAT_ROW_TOL = 1e-12


def format_scalar(v: Scalar) -> Union[str, float]:
    if isinstance(v, Fraction):
        return "%d/%d" % (v.numerator, v.denominator)
    return float(v)


def _converter(field: str) -> Callable[[object], Scalar]:
    if field == "rational":
        def conv(v: object) -> Scalar:
            if isinstance(v, float):
                raise ValidationError(
                    "rational mode rejects floats; pass 'num/den' strings")
            return Fraction(v)  # type: ignore[arg-type]
        return conv
    if field == "float":
        def conv(v: object) -> Scalar:
            if isinstance(v, str):
                return float(Fraction(v))
            return float(v)  # type: ignore[arg-type]
        return conv
    raise ValidationError("field must be 'rational' or 'float'")


class FKModel:
    """Finite-state model: states per level, eta0, transitions M, potentials G.

    M[k-1] maps level k-1 to level k (1 <= k <= horizon); G[k] lives on
    level k and must be strictly positive.
    """

    __slots__ = ("states", "eta0", "M", "G", "field")

    def __init__(self, states: Sequence[Sequence[str]],
                 eta0: Sequence[object],
                 M: Sequence[Sequence[Sequence[object]]],
                 G: Sequence[Sequence[object]],
                 field: str = "rational"):
        conv = _converter(field)
        st = tuple(tuple(str(s) for s in lvl) for lvl in states)
        if not st or any(not lvl for lvl in st):
            raise ValidationError("every level needs at least one state")
        for lvl in st:
            if len(set(lvl)) != len(lvl):
                raise ValidationError("duplicate state labels on one level")
        e0 = tuple(conv(v) for v in eta0)
        mm = tuple(tuple(tuple(conv(v) for v in row) for row in mk)
                   for mk in M)
        gg = tuple(tuple(conv(v) for v in gk) for gk in G)
        if len(mm) != len(st) - 1:
            raise ValidationError("need one transition table per step")
        if len(gg) != len(st):
            raise ValidationError("need one potential table per level")
        if len(e0) != len(st[0]):
            raise ValidationError("eta0 length must match level 0")
        if any(v < 0 for v in e0):
            raise ValidationError("eta0 entries must be >= 0")
        if _sum(e0) != 1 and field == "rational":
            raise ValidationError("eta0 must sum to 1")
        if field == "float" and abs(_sum(e0) - 1.0) > _FLOAT_ROW_TOL:
            raise ValidationError("eta0 must sum to 1")
        for k, mk in enumerate(mm, start=1):
            if len(mk) != len(st[k - 1]):
                raise ValidationError("transition %d row count mismatch" % k)
            for row in mk:
                if len(row) != len(st[k]):
                    raise ValidationError(
                        "transition %d column count mismatch" % k)
                if any(v < 0 for v in row):
                    raise ValidationError(
                        "transition %d has negative entries" % k)
                s = _sum(row)
                if field == "rational" and s != 1:
                    raise ValidationError(
                        "transition %d has a non-stochastic row" % k)
                if field == "float" and abs(s - 1.0) > _FLOAT_ROW_TOL:
                    raise ValidationError(
                        "transition %d has a non-stochastic row" % k)
        for k, gk in enumerate(gg):
            if len(gk) != len(st[k]):
                raise ValidationError("potential %d length mismatch" % k)
            if any(v <= 0 for v in gk):
                raise ValidationError("potentials must be > 0")
        self.states = st
        self.eta0 = e0
        self.M = mm
        self.G = gg
        self.field = field

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

    def to_json(self) -> str:
        doc = {
            "states": [list(lvl) for lvl in self.states],
            "eta0": [format_scalar(v) for v in self.eta0],
            "M": [[[format_scalar(v) for v in row] for row in mk]
                  for mk in self.M],
            "G": [[format_scalar(v) for v in gk] for gk in self.G],
            "field": self.field,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: Union[str, dict]) -> "FKModel":
        doc = json.loads(text) if isinstance(text, str) else text
        try:
            return cls(doc["states"], doc["eta0"], doc["M"], doc["G"],
                       doc.get("field", "rational"))
        except KeyError as exc:
            raise ValidationError("model file missing field %s" % exc)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FKModel):
            return NotImplemented
        return (self.states == other.states and self.eta0 == other.eta0
                and self.M == other.M and self.G == other.G
                and self.field == other.field)

    def __hash__(self):
        return hash((self.states, self.eta0, self.M, self.G, self.field))


def _sum(vals: Iterable[Scalar]) -> Scalar:
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
    """Table of the one-step weighted transition from level k-1 to k."""
    if not 1 <= k <= model.horizon:
        raise InvalidParameter("operator index %d outside 1..%d"
                               % (k, model.horizon))
    gk = model.G[k - 1]
    return tuple(tuple(gk[x] * p for p in row)
                 for x, row in enumerate(model.M[k - 1]))


def semigroup(model: FKModel, k: int, n: int) -> Tuple[Tuple[Scalar, ...], ...]:
    """Composite operator table from level k to level n; identity at k = n."""
    if not 0 <= k <= n <= model.horizon:
        raise InvalidParameter("need 0 <= k <= n <= horizon")
    rows: Tuple[Tuple[Scalar, ...], ...] = tuple(
        tuple(model.one if i == j else model.zero
              for j in range(model.size(k)))
        for i in range(model.size(k)))
    for p in range(k + 1, n + 1):
        step = q_operator(model, p)
        rows = tuple(
            tuple(_sum(row[x] * step[x][y] for x in range(len(step)))
                  for y in range(model.size(p)))
            for row in rows)
    return rows


def flow(model: FKModel) -> Flow:
    gam: List[Tuple[Scalar, ...]] = [model.eta0]
    for k in range(1, model.horizon + 1):
        qk = q_operator(model, k)
        prev = gam[-1]
        gam.append(tuple(
            _sum(prev[x] * qk[x][y] for x in range(len(prev)))
            for y in range(model.size(k))))
    gnorm = tuple(_sum(v) for v in gam)
    eta = tuple(tuple(w / gnorm[k] for w in vec)
                for k, vec in enumerate(gam))
    return Flow(tuple(gam), eta, gnorm)


# ---------------------------------------------------------------------------
# dense tables


class _Table:
    __slots__ = ("model", "levels", "data")

    def __init__(self, model: FKModel, levels: Sequence[int],
                 data: Sequence[Scalar], caps: Caps = DEFAULT_CAPS):
        lv = tuple(int(k) for k in levels)
        for k in lv:
            if not 0 <= k <= model.horizon:
                raise InvalidParameter("domain level %d out of range" % k)
        size = 1
        for k in lv:
            size *= model.size(k)
        if size > caps.tensor:
            raise CapExceeded("dense table too large",
                              predicted=size, cap=caps.tensor)
        dd = tuple(data)
        if len(dd) != size:
            raise InvalidParameter("table length %d, domain wants %d"
                                   % (len(dd), size))
        self.model = model
        self.levels = lv
        self.data = dd

    @property
    def sizes(self) -> Tuple[int, ...]:
        return tuple(self.model.size(k) for k in self.levels)

    @property
    def arity(self) -> int:
        return len(self.levels)

    def _ranges(self):
        return [range(s) for s in self.sizes]

    def value(self, point: Sequence[int]) -> Scalar:
        idx = 0
        for x, s in zip(point, self.sizes):
            idx = idx * s + x
        return self.data[idx]

    def _same_domain(self, other: "_Table"):
        if self.model is not other.model and self.model != other.model:
            raise InvalidParameter("tables built over different models")
        if self.levels != other.levels:
            raise InvalidParameter("domain mismatch %r vs %r"
                                   % (self.levels, other.levels))

    def symmetrize_blocks(self):
        """Average over coordinate permutations within same-level groups.

        The average at a point is the mean of the table over the point's
        orbit, since every orbit point is hit by as many permutations as the
        point's stabilizer holds.  Sorting the coordinates of each group
        names the orbit, so one pass sums each orbit once.
        """
        groups: Dict[int, List[int]] = {}
        for pos, k in enumerate(self.levels):
            groups.setdefault(k, []).append(pos)
        keys = [tuple(tuple(sorted(point[i] for i in g))
                      for g in groups.values())
                for point in itertools.product(*self._ranges())]
        sums: Dict[tuple, Scalar] = {}
        sizes: Dict[tuple, int] = {}
        for key, w in zip(keys, self.data):
            sums[key] = sums.get(key, self.model.zero) + w
            sizes[key] = sizes.get(key, 0) + 1
        mean = {key: total / sizes[key] for key, total in sums.items()}
        return type(self)(self.model, self.levels, [mean[key] for key in keys])


def _encode(point: Sequence[int], sizes: Sequence[int]) -> int:
    idx = 0
    for x, s in zip(point, sizes):
        idx = idx * s + x
    return idx


class SignedMeasure(_Table):
    """Signed measure as a dense weight table over a product domain."""

    def tv_norm(self) -> Scalar:
        return _sum(abs(w) for w in self.data)

    def total_mass(self) -> Scalar:
        return _sum(self.data)

    def pair(self, f: "TensorFunction") -> Scalar:
        self._same_domain(f)
        return _sum(w * v for w, v in zip(self.data, f.data))

    def tensor(self, other: "SignedMeasure") -> "SignedMeasure":
        if self.model != other.model:
            raise InvalidParameter("tables built over different models")
        data = [a * b for a in self.data for b in other.data]
        return SignedMeasure(self.model, self.levels + other.levels, data)

    def __add__(self, other: "SignedMeasure") -> "SignedMeasure":
        self._same_domain(other)
        return SignedMeasure(self.model, self.levels,
                             [a + b for a, b in zip(self.data, other.data)])

    def __sub__(self, other: "SignedMeasure") -> "SignedMeasure":
        self._same_domain(other)
        return SignedMeasure(self.model, self.levels,
                             [a - b for a, b in zip(self.data, other.data)])

    def scale(self, c: Scalar) -> "SignedMeasure":
        return SignedMeasure(self.model, self.levels,
                             [c * w for w in self.data])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignedMeasure):
            return NotImplemented
        return (self.levels == other.levels and self.model == other.model
                and list(self.data) == list(other.data))

    def __hash__(self):
        return object.__hash__(self)

    def pushforward(self, index_map: Sequence[int]) -> "SignedMeasure":
        """Image under point -> (point[i] for i in index_map); duplicate
        indices land on diagonals, dropped indices marginalize."""
        im = tuple(int(i) for i in index_map)
        for i in im:
            if not 0 <= i < self.arity:
                raise InvalidParameter("coordinate %d out of range" % i)
        new_levels = tuple(self.levels[i] for i in im)
        new_sizes = tuple(self.model.size(k) for k in new_levels)
        out = [self.model.zero] * _prod(new_sizes)
        for point, w in zip(itertools.product(*self._ranges()), self.data):
            if w:
                out[_encode([point[i] for i in im], new_sizes)] += w
        return SignedMeasure(self.model, new_levels, out)

    def transport_block(self, start: int, k: int) -> "SignedMeasure":
        """Move coordinates start.. from level k-1 to level k through the
        one-step operator, one coordinate at a time."""
        rows = q_operator(self.model, k)
        cur = self
        for pos in range(start, self.arity):
            cur = cur._transport_coord(pos, k, rows)
        return cur

    def _transport_coord(self, pos: int, k: int, rows) -> "SignedMeasure":
        if self.levels[pos] != k - 1:
            raise InvalidParameter(
                "coordinate %d sits at level %d, expected %d"
                % (pos, self.levels[pos], k - 1))
        new_levels = self.levels[:pos] + (k,) + self.levels[pos + 1:]
        new_sizes = tuple(self.model.size(j) for j in new_levels)
        out = [self.model.zero] * _prod(new_sizes)
        for point, w in zip(itertools.product(*self._ranges()), self.data):
            if not w:
                continue
            pre = list(point)
            for y, qv in enumerate(rows[point[pos]]):
                if qv:
                    pre[pos] = y
                    out[_encode(pre, new_sizes)] += w * qv
        return SignedMeasure(self.model, new_levels, out)

    def weight_coord(self, pos: int,
                     vec: Sequence[Scalar]) -> "SignedMeasure":
        """Multiply by a one-coordinate density; the coordinate stays."""
        if not 0 <= pos < self.arity:
            raise InvalidParameter("coordinate %d out of range" % pos)
        v = tuple(vec)
        if len(v) != self.sizes[pos]:
            raise InvalidParameter("vector length mismatch at %d" % pos)
        out = [w * v[point[pos]] if w else w
               for point, w in zip(itertools.product(*self._ranges()),
                                   self.data)]
        return SignedMeasure(self.model, self.levels, out)

    def contract(self, positions: Sequence[int],
                 vectors: Sequence[Sequence[Scalar]]) -> "SignedMeasure":
        """Integrate out the given coordinates against per-coordinate value
        tables; remaining coordinates keep their order."""
        pos = tuple(positions)
        if len(set(pos)) != len(pos):
            raise InvalidParameter("duplicate contraction positions")
        vecs = {p: tuple(v) for p, v in zip(pos, vectors)}
        for p, v in vecs.items():
            if len(v) != self.sizes[p]:
                raise InvalidParameter("vector length mismatch at %d" % p)
        keep = [i for i in range(self.arity) if i not in vecs]
        new_levels = tuple(self.levels[i] for i in keep)
        new_sizes = tuple(self.model.size(k) for k in new_levels)
        out = [self.model.zero] * _prod(new_sizes)
        for point, w in zip(itertools.product(*self._ranges()), self.data):
            if not w:
                continue
            for p, v in vecs.items():
                w = w * v[point[p]]
                if not w:
                    break
            if w:
                out[_encode([point[i] for i in keep], new_sizes)] += w
        return SignedMeasure(self.model, new_levels, out)


def _prod(vals: Iterable[int]) -> int:
    out = 1
    for v in vals:
        out *= v
    return out


class TensorFunction(_Table):
    """Bounded function as a dense value table over a product domain."""

    def sup_norm(self) -> Scalar:
        return max(abs(v) for v in self.data) if self.data else 0

    def tensor(self, other: "TensorFunction") -> "TensorFunction":
        if self.model != other.model:
            raise InvalidParameter("tables built over different models")
        data = [a * b for a in self.data for b in other.data]
        return TensorFunction(self.model, self.levels + other.levels, data)

    def __add__(self, other: "TensorFunction") -> "TensorFunction":
        self._same_domain(other)
        return TensorFunction(self.model, self.levels,
                              [a + b for a, b in zip(self.data, other.data)])

    def __sub__(self, other: "TensorFunction") -> "TensorFunction":
        self._same_domain(other)
        return TensorFunction(self.model, self.levels,
                              [a - b for a, b in zip(self.data, other.data)])

    def scale(self, c: Scalar) -> "TensorFunction":
        return TensorFunction(self.model, self.levels,
                              [c * v for v in self.data])

    def shift(self, c: Scalar) -> "TensorFunction":
        return TensorFunction(self.model, self.levels,
                              [v + c for v in self.data])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorFunction):
            return NotImplemented
        return (self.levels == other.levels and self.model == other.model
                and list(self.data) == list(other.data))

    def __hash__(self):
        return object.__hash__(self)

    def is_symmetric(self) -> bool:
        if self.model.field == "rational":
            return self.symmetrize_blocks() == self
        diff = self.symmetrize_blocks() - self
        return diff.sup_norm() <= 1e-9 * (1 + self.sup_norm())

    def pull_coord(self, pos: int, k: int) -> "TensorFunction":
        """Compose coordinate pos (level k) with the one-step operator; the
        coordinate moves down to level k-1."""
        rows = q_operator(self.model, k)
        if self.levels[pos] != k:
            raise InvalidParameter(
                "coordinate %d sits at level %d, expected %d"
                % (pos, self.levels[pos], k))
        new_levels = self.levels[:pos] + (k - 1,) + self.levels[pos + 1:]
        new_sizes = tuple(self.model.size(j) for j in new_levels)
        out = [self.model.zero] * _prod(new_sizes)
        for point in itertools.product(*[range(s) for s in new_sizes]):
            acc = self.model.zero
            src = list(point)
            for y, qv in enumerate(rows[point[pos]]):
                if qv:
                    src[pos] = y
                    acc = acc + qv * self.value(src)
            out[_encode(point, new_sizes)] = acc
        return TensorFunction(self.model, new_levels, out)

    def pull_all(self, k: int) -> "TensorFunction":
        cur = self
        for pos in range(self.arity):
            cur = cur.pull_coord(pos, k)
        return cur

    def integrate_coord(self, pos: int,
                        vec: Sequence[Scalar]) -> "TensorFunction":
        """Integral over coordinate pos against a weight vector."""
        if len(vec) != self.sizes[pos]:
            raise InvalidParameter("vector length mismatch")
        keep = [i for i in range(self.arity) if i != pos]
        new_levels = tuple(self.levels[i] for i in keep)
        new_sizes = tuple(self.model.size(k) for k in new_levels)
        out = [self.model.zero] * _prod(new_sizes)
        for point in itertools.product(*self._ranges()):
            v = self.data[_encode(point, self.sizes)]
            if v:
                out[_encode([point[i] for i in keep], new_sizes)] += (
                    v * vec[point[pos]])
        return TensorFunction(self.model, new_levels, out)

    def expand_coord(self, pos: int, k: int) -> "TensorFunction":
        """Insert a dummy coordinate at position pos living at level k."""
        new_levels = self.levels[:pos] + (k,) + self.levels[pos:]
        new_sizes = tuple(self.model.size(j) for j in new_levels)
        out = [self.model.zero] * _prod(new_sizes)
        for point in itertools.product(*[range(s) for s in new_sizes]):
            reduced = point[:pos] + point[pos + 1:]
            out[_encode(point, new_sizes)] = self.value(reduced)
        return TensorFunction(self.model, new_levels, out)


def constant_function(model: FKModel, levels: Sequence[int],
                      value: Scalar) -> TensorFunction:
    size = _prod(model.size(k) for k in levels)
    return TensorFunction(model, levels, [value] * size)


def function_from_vector(model: FKModel, k: int,
                         vec: Sequence[object]) -> TensorFunction:
    conv = _converter(model.field)
    return TensorFunction(model, (k,), [conv(v) for v in vec])


def measure_from_vector(model: FKModel, k: int,
                        vec: Sequence[Scalar]) -> SignedMeasure:
    return SignedMeasure(model, (k,), list(vec))


def gamma_measure(model: FKModel, k: int,
                  fl: Optional[Flow] = None) -> SignedMeasure:
    fl = fl or flow(model)
    return measure_from_vector(model, k, fl.gamma_vec[k])


def eta_measure(model: FKModel, k: int,
                fl: Optional[Flow] = None) -> SignedMeasure:
    fl = fl or flow(model)
    return measure_from_vector(model, k, fl.eta_vec[k])


def gamma_tensor(model: FKModel, n: int, q: int,
                 fl: Optional[Flow] = None) -> SignedMeasure:
    fl = fl or flow(model)
    out = SignedMeasure(model, (), [model.one])
    g = gamma_measure(model, n, fl)
    for _ in range(q):
        out = out.tensor(g)
    return out


def eta_tensor(model: FKModel, n: int, q: int,
               fl: Optional[Flow] = None) -> SignedMeasure:
    fl = fl or flow(model)
    out = SignedMeasure(model, (), [model.one])
    e = eta_measure(model, n, fl)
    for _ in range(q):
        out = out.tensor(e)
    return out


# ---------------------------------------------------------------------------
# selection operators


MapCombo = Dict[Tuple[int, ...], Scalar]


class DMap:
    """Coordinate-selection operator, possibly a weighted combination.

    A single map b of length r with values in 1..q sends functions of r
    arguments to functions of q arguments by index substitution, and acts
    on measures of q coordinates by the adjoint pushforward.
    """

    __slots__ = ("weights", "source_arity", "target_arity")

    def __init__(self, mapping: Union[Tuple[int, ...], MapCombo],
                 target_arity: Optional[int] = None):
        if isinstance(mapping, tuple):
            weights: MapCombo = {mapping: 1}
        elif isinstance(mapping, dict):
            weights = dict(mapping)
        else:
            raise InvalidParameter("mapping must be a tuple or a dict")
        if not weights:
            raise InvalidParameter("empty map combination")
        arities = {len(b) for b in weights}
        if len(arities) != 1:
            raise InvalidParameter("maps in a combination share one arity")
        r = arities.pop()
        peak = max((max(b) if b else 1) for b in weights)
        q = target_arity if target_arity is not None else peak
        for b in weights:
            if any(not 1 <= v <= q for v in b):
                raise InvalidParameter("map values must lie in 1..%d" % q)
        self.weights = weights
        self.source_arity = r
        self.target_arity = q

    def on_function(self, f: TensorFunction) -> TensorFunction:
        if f.arity != self.source_arity:
            raise InvalidParameter("function arity %d, operator wants %d"
                                   % (f.arity, self.source_arity))
        lv = set(f.levels)
        if len(lv) > 1:
            raise InvalidParameter("selection acts within a single level")
        k = f.levels[0] if f.levels else 0
        new_levels = (k,) * self.target_arity
        new_sizes = tuple(f.model.size(k) for _ in new_levels)
        out = [f.model.zero] * _prod(new_sizes)
        for point in itertools.product(*[range(s) for s in new_sizes]):
            acc = f.model.zero
            for b, w in self.weights.items():
                if w:
                    acc = acc + w * f.value([point[v - 1] for v in b])
            out[_encode(point, new_sizes)] = acc
        return TensorFunction(f.model, new_levels, out)

    def on_measure(self, mu: SignedMeasure) -> SignedMeasure:
        if mu.arity != self.target_arity:
            raise InvalidParameter("measure arity %d, operator wants %d"
                                   % (mu.arity, self.target_arity))
        total = None
        for b, w in self.weights.items():
            if not w:
                continue
            term = mu.pushforward([v - 1 for v in b]).scale(w)
            total = term if total is None else total + term
        if total is None:
            new_levels = (mu.levels[0] if mu.levels else 0,) * self.source_arity
            size = _prod(mu.model.size(k) for k in new_levels)
            return SignedMeasure(mu.model, new_levels, [mu.model.zero] * size)
        return total

    def compose(self, other: "DMap") -> "DMap":
        """Operator product: on functions self applies after other, on
        measures the pushforwards chain the opposite way; for single maps
        a and b the result carries the map i -> a(b(i))."""
        if self.source_arity != other.target_arity:
            raise InvalidParameter("arity mismatch in composition")
        combo: MapCombo = {}
        for a, wa in self.weights.items():
            for b, wb in other.weights.items():
                ab = tuple(a[v - 1] for v in b)
                combo[ab] = combo.get(ab, 0) + wa * wb
        combo = {c: w for c, w in combo.items() if w}
        return DMap(combo, target_arity=self.target_arity)


def all_maps(q: int) -> List[Tuple[int, ...]]:
    return [tuple(b) for b in itertools.product(range(1, q + 1), repeat=q)]


def lq_operator(q: int, N: int) -> DMap:
    """Exact map combination linking plain and injective empirical tensors."""
    if not 1 <= q <= N:
        raise InvalidParameter("needs 1 <= q <= N")
    combo: MapCombo = {}
    for b in all_maps(q):
        p = len(set(b))
        combo[b] = Fraction(falling_factorial(N, p),
                            N ** q * falling_factorial(q, p))
    return DMap(combo, target_arity=q)


def lq_derivative(q: int, k: int) -> DMap:
    """k-th Laurent coefficient of the map combination above."""
    if not 0 <= k < q:
        raise InvalidParameter("needs 0 <= k < q")
    combo: MapCombo = {}
    for b in all_maps(q):
        p = len(set(b))
        s = stirling_first(p, q - k)
        if s:
            w = Fraction(s, falling_factorial(q, p))
            combo[b] = combo.get(b, 0) + w
    return DMap(combo, target_arity=q)


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

        lq_operator(b, N)    ->  sum_p (N)_p / N**b    * piece_p
        lq_derivative(b, j)  ->  sum_p s(p, b - j)     * piece_p

    The Bell(b) partitions are refused up front beyond caps.forests.
    """
    levels = mu.levels
    live = levels[frozen:]
    if not live or any(k != live[0] for k in live):
        raise InvalidParameter("the live block must sit on one level")
    b = len(live)
    bell = bell_number(b)
    if bell > caps.forests:
        raise CapExceeded("selection would enumerate too many set partitions",
                          predicted=bell, cap=caps.forests)
    s = mu.model.size(live[0])
    prefix = _prod(mu.sizes[:frozen])
    zero = mu.model.zero
    # margs[p]: mu on the frozen prefix and its first p live coordinates
    margs = {b: mu.data}
    for p in range(b, 1, -1):
        src = margs[p]
        margs[p - 1] = [_sum(src[i:i + s]) for i in range(0, len(src), s)]
    places = [s ** (b - 1 - i) for i in range(b)]
    targets: Dict[int, List[Dict[int, int]]] = {
        p: [{} for _ in range(s ** p)] for p in margs}
    for rgs in set_partitions(b):
        p = max(rgs) + 1
        for zi, z in enumerate(itertools.product(range(s), repeat=p)):
            y = sum(z[v] * w for v, w in zip(rgs, places))
            hits = targets[p][zi]
            hits[y] = hits.get(y, 0) + 1
    out: Dict[int, SignedMeasure] = {}
    width = s ** b
    for p, src in margs.items():
        data = [zero] * (prefix * width)
        step = s ** p
        for pre in range(prefix):
            base = pre * width
            for zi, hits in enumerate(targets[p]):
                w = src[pre * step + zi]
                if w:
                    for y, c in hits.items():
                        data[base + y] += c * w if c > 1 else w
        out[p] = SignedMeasure(mu.model, levels, data, caps=caps)
    return out


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


def dot_partial_tv(q: int, k: int) -> int:
    """TV mass of the k-th Laurent coefficient applied to an injective
    empirical tensor of distinct atoms; independent of N."""
    if not 0 <= k < q:
        raise InvalidParameter("needs 0 <= k < q")
    return sum(abs(stirling_first(p, q - k)) * stirling_second(q, p)
               for p in range(q - k, q + 1))


# ---------------------------------------------------------------------------
# path-space and genealogy measures


def path_gamma(model: FKModel, q: Sequence[int], p: int,
               fl: Optional[Flow] = None,
               caps: Caps = DEFAULT_CAPS) -> SignedMeasure:
    """Intermediate path-space measure: frozen unnormalized blocks for times
    before p, and the still-moving block (all remaining coordinates) at p."""
    qq = normalize_path_profile(q)
    n = len(qq) - 1
    if n > model.horizon:
        raise InvalidParameter("model horizon too short")
    if not 0 <= p <= n:
        raise InvalidParameter("p outside 0..%d" % n)
    fl = fl or flow(model)
    out = SignedMeasure(model, (), [model.one], caps=caps)
    for j in range(p):
        g = gamma_measure(model, j, fl)
        for _ in range(qq[j]):
            out = out.tensor(g)
    live = sum(qq[p:])
    g = gamma_measure(model, p, fl)
    for _ in range(live):
        out = out.tensor(g)
    return out


class PathOperator:
    """Composite path-space transport from intermediate time p1 to p2:
    earlier blocks are untouched, the moving block is transported one step
    at a time, freezing each block as its time is reached."""

    __slots__ = ("model", "q", "p1", "p2")

    def __init__(self, model: FKModel, q: Sequence[int], p1: int, p2: int):
        qq = normalize_path_profile(q)
        n = len(qq) - 1
        if not 0 <= p1 <= p2 <= n:
            raise InvalidParameter("need 0 <= p1 <= p2 <= %d" % n)
        if n > model.horizon:
            raise InvalidParameter("model horizon too short")
        self.model = model
        self.q = qq
        self.p1 = p1
        self.p2 = p2

    def _domain(self, p: int) -> Tuple[int, ...]:
        lv: Tuple[int, ...] = ()
        for j in range(p):
            lv += (j,) * self.q[j]
        lv += (p,) * sum(self.q[p:])
        return lv

    def on_measure(self, mu: SignedMeasure) -> SignedMeasure:
        if mu.levels != self._domain(self.p1):
            raise InvalidParameter("measure domain is not the p1 layout")
        cur = mu
        for p in range(self.p1 + 1, self.p2 + 1):
            frozen = sum(self.q[:p])
            cur = cur.transport_block(frozen, p)
        return cur

    def on_function(self, f: TensorFunction) -> TensorFunction:
        if f.levels != self._domain(self.p2):
            raise InvalidParameter("function domain is not the p2 layout")
        cur = f
        for p in range(self.p2, self.p1, -1):
            frozen = sum(self.q[:p])
            for pos in range(frozen, cur.arity):
                cur = cur.pull_coord(pos, p)
        return cur


def path_semigroup(model: FKModel, q: Sequence[int], p1: int,
                   p2: int) -> PathOperator:
    return PathOperator(model, q, p1, p2)


def delta_colored(model: FKModel,
                  f: Union[ColoredForest, ColoredMapSeq],
                  q: Sequence[int],
                  caps: Caps = DEFAULT_CAPS) -> SignedMeasure:
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
    mu = SignedMeasure(model, (), [model.one], caps=caps)
    e0 = measure_from_vector(model, 0, model.eta0)
    for _ in range(pairs[0][1]):
        mu = mu.tensor(e0)
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


# ---------------------------------------------------------------------------
# centering


def center_function(model: FKModel, f: TensorFunction,
                    q: Optional[Union[int, Sequence[int]]] = None,
                    fl: Optional[Flow] = None) -> TensorFunction:
    """Symmetrize within same-level blocks, then remove every per-coordinate
    conditional mean against the normalized flow.  The result integrates to
    zero in each coordinate separately; commuting projections make one pass
    enough, and the claim is re-checked exactly before returning."""
    if q is not None:
        if isinstance(q, int):
            want: Tuple[int, ...] = (f.levels[0] if f.levels else 0,) * q
            if f.levels != want:
                raise InvalidParameter("function domain does not match q")
        else:
            counts: Dict[int, int] = {}
            for k in f.levels:
                counts[k] = counts.get(k, 0) + 1
            want_counts = {lvl: c for lvl, c in enumerate(q) if c}
            if counts != want_counts:
                raise InvalidParameter(
                    "function domain does not match the block sizes")
    fl = fl or flow(model)
    out = f.symmetrize_blocks()
    for pos in range(out.arity):
        eta = fl.eta_vec[out.levels[pos]]
        mean = out.integrate_coord(pos, eta)
        out = out - mean.expand_coord(pos, out.levels[pos])
    for pos in range(out.arity):
        eta = fl.eta_vec[out.levels[pos]]
        resid = out.integrate_coord(pos, eta)
        bad = max((abs(v) for v in resid.data), default=0)
        if model.field == "rational":
            if bad != 0:
                raise AssertionError("centering left a nonzero mean")
        elif bad > 1e-9:
            raise AssertionError("centering left a mean of size %r" % bad)
    return out


def is_centered(model: FKModel, f: TensorFunction,
                fl: Optional[Flow] = None) -> bool:
    # float mode gets the same slack center_function grants itself
    tol = 0 if model.field == "rational" else 1e-9
    fl = fl or flow(model)
    if not f.is_symmetric():
        return False
    for pos in range(f.arity):
        eta = fl.eta_vec[f.levels[pos]]
        resid = f.integrate_coord(pos, eta)
        if any(abs(v) > tol for v in resid.data):
            return False
    return True
