"""Exact linear algebra over finite weighted models.

Everything here is checked against small hand-rolled computations: path
sums for the flow, the composite operators Q_{k,n} as explicit products
of one-step tables (`reference_semigroup`, which the one-step coordinate
moves replaced), and direct enumeration for the coordinate-selection
operators.  The
intermediate path-space measures and their composite transport
(`path_gamma`, `PathOperator`) are kept here as references.  The b**b map
combinations (`DMap`, `lq_operator`, `lq_derivative`) and the Fraction
bodies of the partition selection and the one-coordinate transport live
here as references for the integer kernel, and the closed-form TV mass
`dot_partial_tv` as a reference for the constructed measures.
"""

import itertools
import json
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

import pytest

from fkforest import (
    CapExceeded,
    Caps,
    FKModel,
    InvalidParameter,
    SignedMeasure,
    TensorFunction,
    ValidationError,
    bundled_model,
    bundled_names,
    center_function,
    constant_function,
    count_colored_jungles,
    delta_colored,
    eta_tensor,
    fiber_count,
    flow,
    colored_forest_of,
    flat_blocks,
    function_from_vector,
    gamma_tensor,
    gaussian_covariance,
    is_centered,
    measure_from_vector,
    partition_sums,
    q_operator,
    tensor_minus_dot_tv,
    white_topped_chain,
)
from fkforest.classsum import pair_merge_forest
from fkforest.colored_forest import ColoredMapSeq, colored_forest
from fkforest.combinatorics import (falling_factorial, set_partitions,
                                    stirling_first, stirling_second)
from fkforest.expansion import (ExpansionReport, exact_QN,
                                expansion_report_Q, expansion_report_path_Q)
from fkforest.fluctuation import (_block_law_orders, expansion_report_P,
                                  gaussian_product_moment, gbar_vector,
                                  path_wick_Q)
from fkforest.fk_core import _encode, _partition_targets, _sum, parse_values
from fkforest.genfunc import normalize_path_profile
from fkforest.models import random_rational_model


# ---------------------------------------------------------------------------
# model validation


def test_model_rejects_malformed_input():
    ok = dict(states=[["a", "b"], ["c"]], eta0=["1/2", "1/2"],
              M=[[[1], [1]]], G=[[1, 2], [3]])
    FKModel(**ok)
    bad = dict(ok, eta0=["1/2", "1/3"])
    with pytest.raises(ValidationError):
        FKModel(**bad)
    bad = dict(ok, eta0=["-1/2", "3/2"])
    with pytest.raises(ValidationError):
        FKModel(**bad)
    bad = dict(ok, M=[[[1], ["1/2"]]])
    with pytest.raises(ValidationError):
        FKModel(**bad)
    bad = dict(ok, M=[[[1]]])
    with pytest.raises(ValidationError):
        FKModel(**bad)
    bad = dict(ok, G=[[1, 2], [0]])
    with pytest.raises(ValidationError):
        FKModel(**bad)
    bad = dict(ok, G=[[1, 2]])
    with pytest.raises(ValidationError):
        FKModel(**bad)
    bad = dict(ok, states=[["a", "a"], ["c"]])
    with pytest.raises(ValidationError):
        FKModel(**bad)
    with pytest.raises(ValidationError):
        FKModel(states=[[], ["c"]], eta0=[], M=[[[1]]], G=[[], [1]])


def test_model_json_roundtrip_and_equality():
    for name in bundled_names():
        m = bundled_model(name)
        again = FKModel.from_json(m.to_json())
        assert again == m
        assert hash(again) == hash(m)
    a = bundled_model("drift2")
    b = bundled_model("flat2")
    assert a != b


def test_equal_tables_are_equal_and_unhashable(drift2):
    """Tables compare by value, so an identity hash would give two equal
    tables two hashes; they have none."""
    mu = measure_from_vector(drift2, 1, [Fraction(1, 3), Fraction(2, 3)])
    assert mu == measure_from_vector(drift2, 1, [Fraction(1, 3),
                                                 Fraction(2, 3)])
    with pytest.raises(TypeError):
        hash(mu)


def test_model_accessors(drift2):
    assert drift2.horizon == 3
    assert drift2.size(0) == 2
    with pytest.raises(InvalidParameter):
        drift2.size(4)
    assert drift2.scalar(3, 6) == Fraction(1, 2)
    assert drift2.one - drift2.zero == 1


# ---------------------------------------------------------------------------
# flow against a literal path sum


def path_sum_gamma(model, n, y):
    """Weight of all length-n trajectories ending at y."""
    total = Fraction(0)
    ranges = [range(model.size(k)) for k in range(n + 1)]
    for path in itertools.product(*ranges):
        if path[n] != y:
            continue
        w = model.eta0[path[0]]
        for k in range(1, n + 1):
            w *= model.G[k - 1][path[k - 1]] * model.M[k - 1][path[k - 1]][path[k]]
        total += w
    return total


@pytest.mark.parametrize("name", ["drift2", "flat2", "skew2", "cycle3",
                                  "blend3"])
def test_flow_matches_path_sum(name):
    m = bundled_model(name)
    fl = flow(m)
    for n in range(m.horizon + 1):
        vec = tuple(path_sum_gamma(m, n, y) for y in range(m.size(n)))
        assert fl.gamma_vec[n] == vec
        mass = sum(vec)
        assert fl.gnorm[n] == mass
        assert fl.eta_vec[n] == tuple(v / mass for v in vec)
        assert sum(fl.eta_vec[n]) == 1


def reference_semigroup(model: FKModel, k: int,
                        n: int) -> Tuple[Tuple[object, ...], ...]:
    """Q_{k,n} as a product of one-step tables in the model's field,
    identity at k = n: the composite operator that one-step coordinate
    moves replaced."""
    if not 0 <= k <= n <= model.horizon:
        raise InvalidParameter("need 0 <= k <= n <= horizon")
    rows = tuple(
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


def route_models(field):
    models = [bundled_model("drift2"), bundled_model("cycle3"),
              random_rational_model(7, sizes=(2, 3, 2))]
    if field == "float":
        models = [FKModel.from_json(dict(json.loads(m.to_json()),
                                         field="float")) for m in models]
    return models


def apply_rows(rows, phi):
    return [_sum(r * v for r, v in zip(row, phi)) for row in rows]


@pytest.mark.parametrize("field", ["rational", "float"])
def test_pulls_and_covariance_follow_the_matrix_product(field):
    """A chain of pull_coord calls is Q_{k,n}, and gaussian_covariance is
    its formula over the reference products: exactly in rational mode,
    within 1e-12 relative in float mode.  The observables are positive, so
    no sum cancels."""
    def close(got, want):
        if field == "rational":
            return got == want
        return abs(got - want) <= 1e-12 * abs(want)

    rng = random.Random(11)
    for m in route_models(field):
        for k in range(m.horizon + 1):
            rows = reference_semigroup(m, k, k)
            assert all(row[i] == 1 and sum(row) == 1
                       for i, row in enumerate(rows))
        for n in range(m.horizon + 1):
            for y in range(m.size(n)):
                f = function_from_vector(
                    m, n, [int(x == y) for x in range(m.size(n))])
                for k in range(n, -1, -1):
                    want = [row[y] for row in reference_semigroup(m, k, n)]
                    assert f.levels == (k,)
                    assert all(map(close, f.data, want))
                    if k:
                        f = f.pull_coord(0, k)
        fl = flow(m)
        for m1, m2 in itertools.product(range(m.horizon + 1), repeat=2):
            phi1, phi2 = ([m.scalar(rng.randint(1, 9), rng.randint(1, 9))
                           for _ in range(m.size(t))] for t in (m1, m2))
            want = m.zero
            for k in range(min(m1, m2) + 1):
                a = apply_rows(reference_semigroup(m, k, m1), phi1)
                b = apply_rows(reference_semigroup(m, k, m2), phi2)
                want = want + fl.gnorm[k] * _sum(
                    g * x * y for g, x, y in zip(fl.gamma_vec[k], a, b))
            assert close(gaussian_covariance(m, m1, phi1, m2, phi2), want)
    with pytest.raises(InvalidParameter):
        reference_semigroup(m, 2, 1)
    with pytest.raises(InvalidParameter):
        q_operator(m, 0)


# ---------------------------------------------------------------------------
# measures and functions


def random_function(model, levels, rng):
    size = 1
    for k in levels:
        size *= model.size(k)
    return TensorFunction(model, levels,
                          [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                           for _ in range(size)])


def random_measure(model, levels, rng):
    size = 1
    for k in levels:
        size *= model.size(k)
    return SignedMeasure(model, levels,
                         [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                          for _ in range(size)])


def test_pair_tensor_and_arithmetic(drift2):
    rng = random.Random(3)
    mu = random_measure(drift2, (1, 2), rng)
    f = random_function(drift2, (1, 2), rng)
    manual = sum(mu.value(p) * f.value(p)
                 for p in itertools.product(*[range(s) for s in mu.sizes]))
    assert mu.pair(f) == manual
    nu = random_measure(drift2, (0,), rng)
    g = random_function(drift2, (0,), rng)
    assert mu.tensor(nu).pair(f.tensor(g)) == mu.pair(f) * nu.pair(g)
    assert (mu + mu - mu) == mu
    assert mu.scale(Fraction(2)).pair(f) == 2 * mu.pair(f)
    assert max(abs(v) for v in (f + f.scale(-1)).data) == 0
    one = constant_function(drift2, f.levels, Fraction(1))
    assert (f + one).value((0, 0)) == f.value((0, 0)) + 1
    with pytest.raises(InvalidParameter):
        mu.pair(g)


def test_pushforward_diagonal_and_marginal(drift2):
    rng = random.Random(4)
    mu = random_measure(drift2, (1,), rng)
    diag = mu.pushforward([0, 0])
    for x, y in itertools.product(range(2), repeat=2):
        want = mu.value((x,)) if x == y else 0
        assert diag.value((x, y)) == want
    pair = random_measure(drift2, (1, 2), rng)
    marg = pair.pushforward([0])
    for x in range(2):
        assert marg.value((x,)) == sum(pair.value((x, y)) for y in range(2))
    swapped = pair.pushforward([1, 0])
    assert swapped.levels == (2, 1)
    assert swapped.value((1, 0)) == pair.value((0, 1))
    with pytest.raises(InvalidParameter):
        pair.pushforward([0, 5])


def test_transport_is_vector_matrix_product(drift2):
    rng = random.Random(5)
    mu = random_measure(drift2, (0, 0), rng)
    rows = q_operator(drift2, 1)
    out = mu.transport_block(1, 1)
    assert out.levels == (0, 1)
    for x, y in itertools.product(range(2), repeat=2):
        want = sum(mu.value((x, z)) * rows[z][y] for z in range(2))
        assert out.value((x, y)) == want
    with pytest.raises(InvalidParameter):
        out.transport_block(0, 1)


def test_transport_and_pull_are_adjoint(cycle3):
    # on the (2, 3, 2) model the moved coordinate changes size
    rng = random.Random(6)
    for m in (cycle3, random_rational_model(7, sizes=(2, 3, 2))):
        mu = random_measure(m, (0, 0), rng)
        f = random_function(m, (0, 1), rng)
        lhs = mu.transport_block(1, 1).pair(f)
        rhs = mu.pair(f.pull_coord(1, 1))
        assert lhs == rhs
        g = random_function(m, (1, 1), rng)
        assert mu.transport_block(0, 1).pair(g) == \
            mu.pair(g.pull_coord(0, 1).pull_coord(1, 1))
        with pytest.raises(InvalidParameter):
            f.pull_coord(0, 1)


def test_symmetrization_projects(drift2):
    rng = random.Random(7)
    f = random_function(drift2, (1, 1, 2), rng)
    s = f.symmetrize_blocks()
    assert s.is_symmetric()
    assert s.symmetrize_blocks() == s
    # blocks at distinct levels never mix
    assert s.value((0, 1, 1)) == s.value((1, 0, 1))
    mu = random_measure(drift2, (1, 1), rng)
    sym = mu.symmetrize_blocks()
    assert sym.total_mass() == mu.total_mass()
    assert sym.symmetrize_blocks() == sym
    assert sym.value((0, 1)) == sym.value((1, 0))


def permutation_average(t):
    """Reference symmetrizer: the mean of t over every coordinate
    permutation that keeps each coordinate on its level."""
    groups = {}
    for pos, k in enumerate(t.levels):
        groups.setdefault(k, []).append(pos)
    perms = []
    for combo in itertools.product(
            *[itertools.permutations(g) for g in groups.values()]):
        index_map = list(range(t.arity))
        for g, perm in zip(groups.values(), combo):
            for src, dst in zip(g, perm):
                index_map[dst] = src
        perms.append(index_map)
    out = [sum(t.value([point[i] for i in im]) for im in perms) / len(perms)
           for point in itertools.product(*[range(s) for s in t.sizes])]
    return type(t)(t.model, t.levels, out)


@pytest.mark.parametrize("name,levels", [
    ("drift2", (1, 0, 1, 1, 2, 0)),
    ("cycle3", (0, 1, 0, 1, 1)),
    ("blend3", (2, 2, 1, 2)),
])
def test_orbit_sum_is_the_permutation_average(name, levels):
    m = bundled_model(name)
    rng = random.Random(len(levels))
    for t in (random_measure(m, levels, rng), random_function(m, levels, rng)):
        sym = t.symmetrize_blocks()
        assert type(sym) is type(t)
        assert sym == permutation_average(t)
        assert sym.symmetrize_blocks() == sym


def sorted_coordinate_symmetrize(t):
    """Reference orbit sum: a point's orbit is named by the sorted
    coordinates of each same-level group."""
    groups = {}
    for pos, k in enumerate(t.levels):
        groups.setdefault(k, []).append(pos)
    keys = [tuple(tuple(sorted(point[i] for i in g))
                  for g in groups.values())
            for point in itertools.product(*map(range, t.sizes))]
    sums, sizes = {}, Counter(keys)
    for key, w in zip(keys, t.nums):
        sums[key] = sums.get(key, 0) + w
    lcm = math.lcm(*sizes.values())
    return type(t)(t.model, t.levels,
                   [sums[key] * (lcm // sizes[key]) for key in keys],
                   t.den * lcm)


def test_occupation_codes_name_the_orbits():
    """The integer occupation code sums the same orbits as the sorted
    coordinate tuples, on random state counts and level lists, arity 0
    included."""
    rng = random.Random(29)
    arities = set()
    for case in range(150):
        horizon = rng.randint(1, 3)
        sizes = tuple(rng.randint(1, 4) for _ in range(horizon + 1))
        m = random_rational_model(case, sizes=sizes, horizon=horizon)
        levels = []
        for _ in range(rng.randint(0, 6)):
            k = rng.randint(0, horizon)
            if math.prod(sizes[j] for j in levels) * sizes[k] > 2000:
                break
            levels.append(k)
        arities.add(len(levels))
        make = random_measure if case % 2 else random_function
        t = make(m, tuple(levels), rng)
        assert t.symmetrize_blocks() == sorted_coordinate_symmetrize(t)
    assert 0 in arities and max(arities) >= 5


def test_contract_is_weight_then_marginalize(blend3):
    # pushforward stays a Fraction walk, so it is the reference; on the
    # (2, 3, 2) model every coordinate has its own stride
    rng = random.Random(8)
    for m in (blend3, random_rational_model(7, sizes=(2, 3, 2))):
        mu = random_measure(m, (0, 1, 1), rng)
        v0 = [Fraction(i - 1) for i in range(mu.sizes[0])]
        v2 = [Fraction(2 * i + 1, 3) for i in range(mu.sizes[2])]
        via_contract = mu.contract([0, 2], [v0, v2])
        via_weight = mu.weight_coord(0, v0).weight_coord(2, v2).pushforward(
            [1])
        assert via_contract == via_weight
        assert mu.contract([2, 0], [v2, v0]) == via_contract
        with pytest.raises(InvalidParameter):
            mu.contract([0, 0], [v0, v0])
        with pytest.raises(InvalidParameter):
            mu.weight_coord(2, v2 + v2)


def test_map_coords_refuses_malformed_moves(drift2):
    mu = random_measure(drift2, (0, 1), random.Random(12))
    with pytest.raises(InvalidParameter):
        mu.map_coords([(2, [[1], [1]], None)])
    with pytest.raises(InvalidParameter):
        mu.map_coords([(0, [[1, 0], [0, 1]], None)])
    with pytest.raises(InvalidParameter):
        mu.map_coords([(1, [[1], [1], [1]], None)])
    # the second move reads positions of the table the first one left
    with pytest.raises(InvalidParameter):
        mu.map_coords([(0, [[1], [1]], None), (1, [[1], [1]], None)])
    assert mu.map_coords([]) == mu


def test_integrate_expand_and_tv(drift2):
    rng = random.Random(9)
    f = random_function(drift2, (1, 2), rng)
    eta = flow(drift2).eta_vec[2]
    reduced = f.contract([1], [eta])
    assert reduced.levels == (1,)
    for x in range(2):
        assert reduced.value((x,)) == sum(f.value((x, y)) * eta[y]
                                          for y in range(2))
    mu = random_measure(drift2, (1,), rng)
    assert mu.tv_norm() == sum(abs(v) for v in mu.data)
    assert mu.total_mass() == sum(mu.data)


# ---------------------------------------------------------------------------
# coordinate-selection operators


MapCombo = Dict[Tuple[int, ...], Fraction]


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
        out = [f.model.zero] * math.prod(new_sizes)
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
            size = math.prod(mu.model.size(k) for k in new_levels)
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


def dot_partial_tv(q: int, k: int) -> int:
    """TV mass of the k-th Laurent coefficient applied to an injective
    empirical tensor of distinct atoms; independent of N."""
    if not 0 <= k < q:
        raise InvalidParameter("needs 0 <= k < q")
    return sum(abs(stirling_first(p, q - k)) * stirling_second(q, p)
               for p in range(q - k, q + 1))


def reference_partition_sums(mu, frozen):
    """The Fraction partition selection the integer kernel replaced: per
    set partition and per point, one Fraction addition per target."""
    levels = mu.levels
    live = levels[frozen:]
    b = len(live)
    s = mu.model.size(live[0])
    prefix = math.prod(mu.sizes[:frozen])
    zero = mu.model.zero
    margs = {b: mu.data}
    for p in range(b, 1, -1):
        src = margs[p]
        margs[p - 1] = [sum(src[i:i + s], zero)
                        for i in range(0, len(src), s)]
    places = [s ** (b - 1 - i) for i in range(b)]
    targets = {p: [{} for _ in range(s ** p)] for p in margs}
    for rgs in set_partitions(b):
        p = max(rgs) + 1
        for zi, z in enumerate(itertools.product(range(s), repeat=p)):
            y = sum(z[v] * w for v, w in zip(rgs, places))
            hits = targets[p][zi]
            hits[y] = hits.get(y, 0) + 1
    out = {}
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
                        data[base + y] += c * w
        out[p] = SignedMeasure(mu.model, levels, data)
    return out


def reference_transport_block(mu, start, k):
    """The Fraction transport the integer kernel replaced: every point of
    the table walked with itertools.product, one coordinate at a time."""
    rows = q_operator(mu.model, k)
    cur = mu
    for pos in range(start, mu.arity):
        assert cur.levels[pos] == k - 1
        new_levels = cur.levels[:pos] + (k,) + cur.levels[pos + 1:]
        new_sizes = tuple(cur.model.size(j) for j in new_levels)
        out = [cur.model.zero] * math.prod(new_sizes)
        for point, w in zip(itertools.product(*map(range, cur.sizes)),
                            cur.data):
            if not w:
                continue
            pre = list(point)
            for y, qv in enumerate(rows[point[pos]]):
                if qv:
                    pre[pos] = y
                    out[_encode(pre, new_sizes)] += w * qv
        cur = SignedMeasure(cur.model, new_levels, out)
    return cur


KERNEL_MODELS = {
    "drift2": lambda: bundled_model("drift2"),
    "cycle3": lambda: bundled_model("cycle3"),
    "sizes232": lambda: random_rational_model(7, sizes=(2, 3, 2)),
}


@pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
@pytest.mark.parametrize("frozen", [0, 1, 2])
def test_kernel_equals_the_fraction_references(name, frozen):
    """Frozen prefixes of 0-2 coordinates on earlier levels, in front of a
    live block; on the (2, 3, 2) model the levels have unequal sizes, so
    the strides of the transport and the selection differ per level."""
    m = KERNEL_MODELS[name]()
    rng = random.Random(100 + frozen)
    prefix = tuple(range(frozen))
    for b in (1, 2, 3):
        k = frozen
        mu = random_measure(m, prefix + (k,) * b, rng).symmetrize_blocks()
        got = partition_sums(mu, frozen)
        want = reference_partition_sums(mu, frozen)
        assert sorted(got) == sorted(want) == list(range(1, b + 1))
        for p in got:
            assert got[p] == want[p]
        if k + 1 <= m.horizon:
            for start in range(frozen, frozen + b + 1):
                assert mu.transport_block(start, k + 1) == \
                    reference_transport_block(mu, start, k + 1)


def exact_twin(m):
    """The rational model with the exact values of a float model's entries;
    its rows need not sum to 1 exactly, so it bypasses the validation."""
    twin = object.__new__(FKModel)
    # a float model's rows already hold the exact values of its floats
    twin.states = m.states
    twin.eta0_row, twin.M_rows, twin.G_rows = m.eta0_row, m.M_rows, m.G_rows
    twin.field = "rational"
    return twin


def test_float_kernel_rounds_the_exact_result_once():
    m = bundled_model("cycle3", "float")
    rng = random.Random(21)
    data = [rng.uniform(-1, 1) for _ in range(27)]
    # symmetrized: partition_sums needs an exchangeable live block
    mu = SignedMeasure(m, (0, 1, 1), data).symmetrize_blocks()
    twin = exact_twin(m)
    ref = SignedMeasure(twin, (0, 1, 1), mu.nums, mu.den)
    for start in (1, 2):
        got = mu.transport_block(start, 2)
        want = reference_transport_block(ref, start, 2)
        assert got.data == tuple(float(v) for v in want.data)
    got = partition_sums(mu, 1)
    for p, piece in reference_partition_sums(ref, 1).items():
        assert got[p].data == tuple(float(v) for v in piece.data)
    # a contraction, a weight and a centering move: the float rows enter
    # exactly, so each float entry is the rounded rational entry
    vec = [rng.uniform(-1, 1) for _ in range(3)]
    eta = flow(m).eta_vec[1]
    center = [[(x == y) - e for y in range(3)] for x, e in enumerate(eta)]
    for op in (lambda t, v: t.contract([0, 2], [v(vec), v(vec)]),
               lambda t, v: t.weight_coord(1, v(vec)),
               lambda t, v: t.map_coords([(pos, [v(row) for row in center], 1)
                                          for pos in (1, 2)])):
        got = op(mu, list)
        want = op(ref, lambda row: [Fraction(x) for x in row])
        assert got.levels == want.levels
        assert got.data == tuple(float(v) for v in want.data)


def assert_rounds_twin(got, want):
    """got, from a float model, is float() of want, the same quantity on
    the model's exact twin, entry by entry."""
    if isinstance(got, ExpansionReport):
        got, want = ([r.base, r.orders, r.evaluations] for r in (got, want))
    if isinstance(got, dict):
        assert sorted(got) == sorted(want)
        for k in got:
            assert_rounds_twin(got[k], want[k])
    elif isinstance(got, (tuple, list)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_rounds_twin(a, b)
    elif isinstance(got, (SignedMeasure, TensorFunction)):
        assert got.levels == want.levels
        assert got.data == tuple(map(float, want.data))
        if isinstance(got, SignedMeasure):
            assert got.total_mass() == float(want.total_mass())
            assert got.tv_norm() == float(want.tv_norm())
    else:
        assert type(got) is float and got == float(want)


def twin_requests(case, model, F):
    """The float requests pinned in test_golden, and a few more routes, as
    library calls on model and on F, a function over it in the -F
    cases."""
    if case == "drift2":
        return [expansion_report_Q(model, 1, 2, Ns=(3,))]
    if case == "cycle3":
        return [expansion_report_path_Q(model, (2, 1, 1), Ns=(5,)),
                _block_law_orders(model, 2, 2, 2, Caps()),
                gaussian_product_moment(model, [(1, gbar_vector(model, 1)),
                                                (2, gbar_vector(model, 2))])]
    if case == "drift2-F":
        return [expansion_report_Q(model, 1, 2, Ns=(3,), F=F)]
    if case == "cycle3-F01":
        return [expansion_report_path_Q(model, (1, 1), Ns=(4,), F=F)]
    # the block law's evaluations come from the float oracle
    law = expansion_report_P(model, 1, 2, F, top=1)
    Fc = center_function(model, F)
    return [law.base, law.orders, Fc,
            expansion_report_Q(model, 1, 2, Ns=(4,), F=Fc),
            path_wick_Q(model, flat_blocks(1, 2), Fc)]


# the functions of the float pins in test_golden
F3 = ["1", "-2", "1/3", "0", "5/2", "-1", "2", "1/4", "-3"]
FLOAT_REQUESTS = {"drift2": ("drift2", None), "cycle3": ("cycle3", None),
                  "drift2-F": ("drift2", ((1, 1), ["1", "2", "3", "-1/2"])),
                  "cycle3-F01": ("cycle3", ((0, 1), F3)),
                  "cycle3-F11": ("cycle3", ((1, 1), F3))}


@pytest.mark.parametrize("case", sorted(FLOAT_REQUESTS))
def test_float_requests_round_their_exact_twin_once(case):
    """Float mode runs the exact engine on the exact values of its floats
    and rounds each value once where it is read: every entry of the base,
    the orders and the operator-route evaluations, and the Wick value,
    equals float() of the same entry on the exact twin.  The twin's
    function holds the float function's exact values, so "1/3" enters both
    as the float nearest 1/3."""
    name, function = FLOAT_REQUESTS[case]
    m = bundled_model(name, "float")
    twin = exact_twin(m)
    F = Ft = None
    if function is not None:
        levels, values = function
        nums, den = parse_values(values, "float")
        F = TensorFunction(m, levels, nums, den)
        Ft = TensorFunction(twin, levels, nums, den)
    assert_rounds_twin(twin_requests(case, m, F),
                       twin_requests(case, twin, Ft))


def single_level_model(size):
    return FKModel(states=[["s%d" % i for i in range(size)]],
                   eta0=[Fraction(1, size)] * size, M=[], G=[[1] * size])


def test_dmap_matches_direct_substitution():
    one = single_level_model(3)
    rng = random.Random(10)
    # b : positions of the 3-argument source inside a 2-point target
    b = (2, 1, 2)
    f = random_function(one, (0, 0, 0), rng)
    out = DMap(b).on_function(f)
    assert out.arity == 2
    for p in itertools.product(range(3), repeat=2):
        assert out.value(p) == f.value((p[1], p[0], p[1]))
    mu = random_measure(one, (0, 0), rng)
    pushed = DMap(b).on_measure(mu)
    assert pushed.arity == 3
    for p in itertools.product(range(3), repeat=3):
        want = mu.value((p[1], p[0])) if p[0] == p[2] else 0
        assert pushed.value(p) == want


def test_dmap_composition_is_map_composition():
    one = single_level_model(2)
    rng = random.Random(16)
    maps3 = [b for b in itertools.product(range(1, 4), repeat=3)]
    f = random_function(one, (0, 0, 0), rng)
    pairs = [(rng.choice(maps3), rng.choice(maps3)) for _ in range(120)]
    for a, b in pairs:
        A = DMap(a, target_arity=3)
        B = DMap(b, target_arity=3)
        comp = A.compose(B)
        want = tuple(a[v - 1] for v in b)
        assert comp.weights == {want: 1}
        assert comp.on_function(f) == A.on_function(B.on_function(f))
    with pytest.raises(InvalidParameter):
        DMap((1, 2)).compose(DMap((1, 1, 1), target_arity=3))


def test_dmap_function_and_measure_actions_are_adjoint():
    one = single_level_model(3)
    rng = random.Random(11)
    combo = DMap({(1, 2, 2): Fraction(1, 3), (3, 1, 1): Fraction(-2)},
                 target_arity=3)
    f = random_function(one, (0, 0, 0), rng)
    mu = random_measure(one, (0, 0, 0), rng)
    assert mu.pair(combo.on_function(f)) == combo.on_measure(mu).pair(f)
    with pytest.raises(InvalidParameter):
        DMap({})
    with pytest.raises(InvalidParameter):
        DMap({(1, 2): 1, (1, 2, 3): 1})
    with pytest.raises(InvalidParameter):
        DMap((1, 5), target_arity=3)


def empirical_tensors(model, xs, q):
    """Plain and injective q-fold empirical tensors of the sample xs."""
    N = len(xs)
    size = model.size(0)
    lv = (0,) * q
    plain = [Fraction(0)] * size ** q
    for tup in itertools.product(range(N), repeat=q):
        idx = 0
        for i in tup:
            idx = idx * size + xs[i]
        plain[idx] += Fraction(1, N ** q)
    dot = [Fraction(0)] * size ** q
    for tup in itertools.permutations(range(N), q):
        idx = 0
        for i in tup:
            idx = idx * size + xs[i]
        dot[idx] += Fraction(1, falling_factorial(N, q))
    return (SignedMeasure(model, lv, plain), SignedMeasure(model, lv, dot))


def test_lq_carries_injective_to_plain_per_sample():
    one = single_level_model(5)
    for xs in ([0, 1, 2, 3, 4], [0, 0, 1, 2, 3], [2, 2, 2, 2, 2]):
        for q in (2, 3):
            plain, dot = empirical_tensors(one, xs, q)
            assert lq_operator(q, len(xs)).on_measure(dot) == plain
    with pytest.raises(InvalidParameter):
        lq_operator(4, 3)


def test_lq_laurent_coefficients_sum_back():
    for q in range(1, 5):
        for N in (q, q + 1, q + 3, 17):
            combo = {}
            for k in range(q):
                for b, w in lq_derivative(q, k).weights.items():
                    combo[b] = combo.get(b, 0) + Fraction(w, N ** k)
            assert combo == lq_operator(q, N).weights
    with pytest.raises(InvalidParameter):
        lq_derivative(3, 3)


def test_partition_pieces_are_the_selection_operators(drift2):
    rng = random.Random(4)
    b = 3
    # no frozen prefix: compare with the map combinations themselves
    live = random_measure(drift2, (1,) * b, rng).symmetrize_blocks()
    pieces = partition_sums(live, 0)
    assert sorted(pieces) == [1, 2, 3]
    for N in (3, 4, 9):
        got = None
        for p, piece in pieces.items():
            term = piece.scale(Fraction(falling_factorial(N, p), N ** b))
            got = term if got is None else got + term
        assert got == lq_operator(b, N).on_measure(live)
    # a frozen coordinate in front stays where it is
    mu = random_measure(drift2, (0,) + (1,) * b, rng).symmetrize_blocks()
    pieces = partition_sums(mu, 1)
    for j in range(b):
        want = None
        for a, w in lq_derivative(b, j).weights.items():
            term = mu.pushforward([0] + list(a)).scale(w)
            want = term if want is None else want + term
        got = None
        for p, piece in pieces.items():
            term = piece.scale(stirling_first(p, b - j))
            got = term if got is None else got + term
        assert got == want


def test_partition_pieces_refuse_beyond_the_cap(drift2):
    """The pieces list no set partition, so no enumeration cap bounds them:
    a live block of 10 coordinates, Bell(10) = 115,975 set partitions,
    answers.  Piece p of a product measure holds S(b, p) pushforwards of
    it, each of its total mass.  The tensor cap bounds the product that
    runs the pieces, before its first table."""
    mu = gamma_tensor(drift2, 1, 10)
    mass = mu.total_mass()
    pieces = partition_sums(mu, 0)
    assert sorted(pieces) == list(range(1, 11))
    for p, piece in pieces.items():
        assert piece.total_mass() == stirling_second(10, p) * mass
    with pytest.raises(CapExceeded) as err:
        exact_QN(drift2, 1, 4, 5, caps=Caps(tensor=15))
    assert (err.value.predicted, err.value.cap) == (16, 15)
    exact_QN(drift2, 1, 4, 5, caps=Caps(tensor=16))
    with pytest.raises(InvalidParameter):
        partition_sums(path_gamma(drift2, (1, 1), 0).transport_block(1, 1), 0)


def test_partition_pieces_refuse_a_live_block_that_is_not_exchangeable():
    """The tables count each merge on the sorted point of its occupation
    only, so an asymmetric live block would give wrong pieces: it is
    refused, and its symmetrization answers.  The frozen prefix need not
    be symmetric."""
    m = random_rational_model(5, sizes=(2, 3))
    rng = random.Random(8)
    mu = random_measure(m, (0, 0, 1, 1), rng)
    with pytest.raises(InvalidParameter,
                       match="the live block must be exchangeable"):
        partition_sums(mu, 2)
    nums = list(mu.nums)
    for i in range(0, len(nums), 9):
        live = [nums[i + 3 * x + y] + nums[i + 3 * y + x]
                for x in range(3) for y in range(3)]
        nums[i:i + 9] = live
    sym = SignedMeasure(m, mu.levels, nums, mu.den)
    assert sym.symmetrize_blocks() != sym
    assert partition_sums(sym, 2) == reference_partition_sums(sym, 2)


@pytest.mark.parametrize("b", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_partition_tables_equal_the_listed_construction(b, s):
    """The tables, built from occupation counts, put each merge on the
    sorted point of its occupation only, so they are compared where they
    are read: the pieces of symmetrized random stages, behind frozen
    prefixes of 0-2 coordinates on earlier levels, equal the listed
    construction over every set partition."""
    m = random_rational_model(40 + s, sizes=(2, 3, s))
    rng = random.Random(10 * b + s)
    for prefix in ((), (0,), (0, 1)):
        mu = random_measure(m, prefix + (2,) * b, rng).symmetrize_blocks()
        assert partition_sums(mu, len(prefix)) == \
            reference_partition_sums(mu, len(prefix))


def test_partition_tables_count_one_partition_at_a_time():
    """(8, 3) is built per occupation of its 6,561 live points, 45 of them,
    from Stirling numbers, where the listed construction walked its 4,140
    set partitions and 675,309 keys.  The build peaked at 5.9 MB under
    tracemalloc, against 21 MB when the keys were counted one partition at
    a time."""
    tracemalloc.start()
    try:
        _partition_targets(8, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30 * 10 ** 6


def test_fiber_count_by_brute_force():
    for q in (1, 2, 3):
        selfmaps = list(itertools.product(range(1, q + 1), repeat=q))
        for N in range(q, 5):
            injections = [a for a in itertools.product(range(1, N + 1),
                                                       repeat=q)
                          if len(set(a)) == q]
            hits = {}
            for s in selfmaps:
                for a in injections:
                    b = tuple(a[s[i] - 1] for i in range(q))
                    hits[b] = hits.get(b, 0) + 1
            for b, c in hits.items():
                assert c == fiber_count(q, N, len(set(b)))
    with pytest.raises(InvalidParameter):
        fiber_count(3, 5, 4)


def test_tv_formulas_against_constructed_measures():
    one = single_level_model(6)
    xs = [0, 1, 2, 3, 4]
    for q in (2, 3):
        plain, dot = empirical_tensors(one, xs, q)
        assert (plain - dot).tv_norm() == tensor_minus_dot_tv(q, len(xs))
        for k in range(q):
            pushed = lq_derivative(q, k).on_measure(dot)
            assert pushed.tv_norm() == dot_partial_tv(q, k)
    # k = 0 term is the symmetrizer: mass 1, no signed cancellation
    assert dot_partial_tv(4, 0) == 1


# ---------------------------------------------------------------------------
# genealogy measures


def path_gamma(model: FKModel, q: Sequence[int], p: int) -> SignedMeasure:
    """Intermediate path-space measure: frozen unnormalized blocks for times
    before p, and the still-moving block (all remaining coordinates) at p."""
    qq = normalize_path_profile(q)
    n = len(qq) - 1
    if n > model.horizon:
        raise InvalidParameter("model horizon too short")
    if not 0 <= p <= n:
        raise InvalidParameter("p outside 0..%d" % n)
    gamma = flow(model).gamma_vec
    out = SignedMeasure(model, (), [model.one])
    for j in range(p):
        g = measure_from_vector(model, j, gamma[j])
        for _ in range(qq[j]):
            out = out.tensor(g)
    live = sum(qq[p:])
    g = measure_from_vector(model, p, gamma[p])
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


def test_trivial_genealogy_is_the_gamma_tensor(drift2, blend3):
    for m, n, q in ((drift2, 2, 3), (blend3, 2, 2), (drift2, 0, 2)):
        # q white-topped chains over every level: the no-interaction class
        trivial = colored_forest([white_topped_chain(n + 1)] * q)
        mu = delta_colored(m, trivial, flat_blocks(n, q))
        assert mu == gamma_tensor(m, n, q)


def test_delta_colored_is_class_invariant(drift2):
    f = pair_merge_forest(1, 3, 1)
    blocks = flat_blocks(1, 3)
    base = delta_colored(drift2, f, blocks).symmetrize_blocks()
    ws, bs = f.wprofile, f.bprofile
    reps = 0
    for maps in itertools.product(
            *[itertools.product(
                itertools.product(range(1, bs[k] + 1), repeat=ws[k + 1]),
                itertools.product(range(1, bs[k] + 1), repeat=bs[k + 1]))
              for k in range(len(ws) - 1)]):
        a = ColoredMapSeq(ws, bs, maps)
        if colored_forest_of(a) == f:
            reps += 1
            assert delta_colored(drift2, a, blocks).symmetrize_blocks() \
                == base
    assert reps == count_colored_jungles(f)


def test_delta_forest_rejects_mismatched_shape(drift2):
    """A plain class measured under another (n, q) block profile."""
    f = colored_forest([white_topped_chain(2)] * 2)
    with pytest.raises(InvalidParameter):
        delta_colored(drift2, f, flat_blocks(2, 2))
    with pytest.raises(InvalidParameter):
        delta_colored(drift2, f, flat_blocks(1, 3))
    with pytest.raises(InvalidParameter):
        delta_colored(drift2, colored_forest([white_topped_chain(5)]),
                      flat_blocks(4, 1))


def test_path_gamma_layout_and_mass(drift2):
    q = (1, 2, 1)
    fl = flow(drift2)
    for p in range(3):
        mu = path_gamma(drift2, q, p)
        want_levels = ()
        for j in range(p):
            want_levels += (j,) * q[j]
        want_levels += (p,) * sum(q[p:])
        assert mu.levels == want_levels
        mass = Fraction(1)
        for k in want_levels:
            mass *= fl.gnorm[k]
        assert mu.total_mass() == mass
    with pytest.raises(InvalidParameter):
        path_gamma(drift2, q, 5)


def test_path_transport_moves_the_flow_forward(drift2):
    q = (1, 2, 1)
    for p1 in range(3):
        for p2 in range(p1, 3):
            op = path_semigroup(drift2, q, p1, p2)
            assert op.on_measure(path_gamma(drift2, q, p1)) == \
                path_gamma(drift2, q, p2)


def test_path_transport_adjoint_and_composition(drift2):
    rng = random.Random(13)
    q = (1, 1, 1)
    op = path_semigroup(drift2, q, 0, 2)
    mu = random_measure(drift2, (0, 0, 0), rng)
    f = random_function(drift2, (0, 1, 2), rng)
    assert op.on_measure(mu).pair(f) == mu.pair(op.on_function(f))
    mid = path_semigroup(drift2, q, 0, 1)
    top = path_semigroup(drift2, q, 1, 2)
    assert top.on_measure(mid.on_measure(mu)) == op.on_measure(mu)
    with pytest.raises(InvalidParameter):
        path_semigroup(drift2, q, 2, 1)
    with pytest.raises(InvalidParameter):
        op.on_measure(mu.pushforward([0]))


def test_trivial_colored_class_is_the_frozen_path_tensor(drift2):
    q = (1, 2, 1)
    trees = []
    for j, qj in enumerate(q):
        trees.extend([white_topped_chain(j + 1)] * qj)
    mu = delta_colored(drift2, colored_forest(trees), q)
    assert mu == path_gamma(drift2, q, len(q) - 1)


def test_delta_colored_rejects_profile_mismatch(drift2):
    f = colored_forest([white_topped_chain(1), white_topped_chain(1)])
    with pytest.raises(InvalidParameter):
        delta_colored(drift2, f, (1, 1))
    with pytest.raises(InvalidParameter):
        delta_colored(drift2, "nope", (2,))


# ---------------------------------------------------------------------------
# centering


def test_center_function_kills_every_marginal(drift2):
    rng = random.Random(14)
    fl = flow(drift2)
    f = random_function(drift2, (2, 2, 1), rng)
    c = center_function(drift2, f)
    assert is_centered(drift2, c)
    assert center_function(drift2, c) == c
    for pos in range(3):
        resid = c.contract([pos], [fl.eta_vec[c.levels[pos]]])
        assert all(v == 0 for v in resid.data)
    assert not is_centered(drift2, f) or f == c


def test_is_centered_requires_symmetry(cycle3):
    # f = a(x)b - b(x)a with a, b of zero mean: antisymmetric, every
    # marginal vanishes, still not a symmetric statistic
    fl = flow(cycle3)
    e = fl.eta_vec[1]
    a = function_from_vector(cycle3, 1, [e[1], -e[0], 0])
    b = function_from_vector(cycle3, 1, [e[2], 0, -e[0]])
    f = a.tensor(b) - b.tensor(a)
    assert max(abs(v) for v in f.data) > 0
    for pos in range(2):
        resid = f.contract([pos], [e])
        assert all(v == 0 for v in resid.data)
    assert not f.is_symmetric()
    assert not is_centered(cycle3, f)


def test_centering_in_float_mode():
    m = bundled_model("drift2")
    data = FKModel.from_json(m.to_json())
    fm = FKModel(states=[list(lvl) for lvl in m.states],
                 eta0=[float(v) for v in m.eta0],
                 M=[[[float(v) for v in row] for row in mk] for mk in m.M],
                 G=[[float(v) for v in gk] for gk in m.G],
                 field="float")
    f = constant_function(fm, (1, 1), 1.0) + TensorFunction(
        fm, (1, 1), [0.3, -0.2, -0.2, 0.1])
    c = center_function(fm, f)
    assert is_centered(fm, c)
    assert data == m


def test_constant_function_centers_to_zero(skew2):
    f = constant_function(skew2, (1, 1), Fraction(7))
    c = center_function(skew2, f)
    assert max(abs(v) for v in c.data) == 0
    assert is_centered(skew2, c)


def test_measure_and_function_vectors(drift2):
    fl = flow(drift2)
    g = measure_from_vector(drift2, 1, fl.gamma_vec[1])
    assert g.levels == (1,) and g.data == fl.gamma_vec[1]
    assert g.total_mass() == fl.gnorm[1]
    f = function_from_vector(drift2, 1, ["1/2", 2])
    assert f.value((0,)) == Fraction(1, 2)
    assert eta_tensor(drift2, 1, 2).total_mass() == 1
