"""Expansion engines: caps, the report's exactness check, the Wick
leading order, and the block-law pass against its per-order reference.

A plain q-block moment is the block profile flat_blocks(n, q) =
(0,..,0,q) of the per-time-profile engines, which
tests/test_operator_route.py checks against the genealogy class sum.  The
other cross-checks of the engines on the bundled models (oracle, closed
forms, block law) are the `verify` checks, which tests/test_cli.py runs.
"""

import itertools
import math
from fractions import Fraction

import pytest

from fkforest import (Caps, CapExceeded, ExpansionReport, FKModel,
                      IdentityMismatch, InvalidParameter, SignedMeasure,
                      TensorFunction, bundled_model, bundled_names,
                      center_function,
                      centered_moment_expansion, derivative_P,
                      enumerate_colored_orbits, exact_QN, exact_QN_oracle,
                      expansion_report_P,
                      expansion_report_Q, expansion_report_path_Q,
                      first_order_P, flat_blocks, function_from_vector,
                      gamma_tensor, gaussian_covariance,
                      gaussian_product_moment, gbar_vector, pair_partitions,
                      path_derivative_Q, path_exact_QN, path_max_order,
                      path_wick_Q, random_rational_model)
from fkforest import expansion, fluctuation
from fkforest.combinatorics import compositions
from fkforest.expansion import _zero_measure
from fkforest.fluctuation import (_block_law_orders, _center_image,
                                  _contract_and_move)
from fkforest.fk_core import eta_tensor, flow

SMALL = Caps(forests=10)


def observable(m, k):
    return function_from_vector(
        m, k, [m.scalar(2 + i) for i in range(m.size(k))])


def test_caps_hold_whatever_the_caches_hold(drift2):
    prof = flat_blocks(2, 3)
    # first calls with default caps fill whatever caches there are
    path_derivative_Q(drift2, prof, 3)
    exact_QN(drift2, 2, 3, 5)
    enumerate_colored_orbits(prof, 3)
    enumerate_colored_orbits(prof)
    # the moment engines list no set partition: the tensor cap bounds their
    # largest stacked stage, four coefficient tables of 2**3 entries for
    # the polynomial up to order 3, one table for the exact route
    for call, largest in (
            (lambda c: path_derivative_Q(drift2, prof, 3, caps=c), 32),
            (lambda c: exact_QN(drift2, 2, 3, 5, caps=c), 8)):
        with pytest.raises(CapExceeded) as err:
            call(Caps(tensor=largest - 1))
        assert (err.value.predicted, err.value.cap) == (largest, largest - 1)
        call(Caps(tensor=largest))
    path_derivative_Q(drift2, prof, 3, caps=Caps(forests=0))
    # the classes with at most 3 merges, counted by the census up front
    with pytest.raises(CapExceeded) as err:
        enumerate_colored_orbits(prof, 3, SMALL)
    assert err.value.predicted == len(enumerate_colored_orbits(prof, 3)) \
        == 34
    with pytest.raises(CapExceeded) as err:
        enumerate_colored_orbits(prof, None, SMALL)
    assert err.value.predicted == 54


def test_a_raised_tensor_cap_holds_on_the_domains_it_admitted():
    """A table is a plain value: the routes check the tensor cap before
    they build, so a table over the default cap, as a raised cap admits
    it, is built without caps and answers +, scale, partial_sum and a
    one-coordinate map_coords."""
    s = 1001
    model = FKModel([[str(i) for i in range(s)]], ["1/%d" % s] * s, [],
                    [["1"] * s])
    thirds = [Fraction(v, 3) for v in range(-2, 3)]
    data = [thirds[i % 5] for i in range(s * s)]
    base = SignedMeasure(model, (0, 0), data)
    assert len(base.nums) == 1_002_001 > Caps().tensor

    def head(t, count):
        # the first entries, read one at a time
        return tuple(t.value((0, i)[2 - t.arity:]) for i in range(count))

    assert head(base + base, 5) == head(base.scale(2), 5) \
        == tuple(2 * v for v in data[:5])
    report = ExpansionReport("block-moment", {"field": "rational"}, base,
                             {1: base}, {})
    total = report.partial_sum(3)
    assert total.levels == (0, 0)
    assert head(total, 5) == tuple(v * Fraction(4, 3) for v in data[:5])
    rows = base.map_coords([(1, [[1]] * s, None)])
    assert rows.levels == (0,)
    assert head(rows, 2) == (sum(data[:s]), sum(data[s:2 * s]))


def test_moment_engines_refuse_before_building_tables(drift2, monkeypatch):
    builds = []
    monkeypatch.setattr(expansion, "_partition_targets",
                        lambda *a: builds.append(a))
    with pytest.raises(CapExceeded) as err:
        path_derivative_Q(drift2, flat_blocks(2, 3), 3, caps=Caps(tensor=7))
    assert (err.value.predicted, err.value.cap) == (8, 7)
    # each table fits, the stage of four stacked coefficient tables not
    with pytest.raises(CapExceeded) as err:
        path_derivative_Q(drift2, flat_blocks(2, 3), 3, caps=Caps(tensor=31))
    assert (err.value.predicted, err.value.cap) == (32, 31)
    # the 2**25-entry start table is refused, not built
    with pytest.raises(CapExceeded) as err:
        exact_QN(drift2, 0, 25, 30, caps=Caps(forests=10 ** 30))
    assert err.value.predicted == 2 ** 25
    with pytest.raises(CapExceeded) as err:
        exact_QN(drift2, 0, 25, 30)
    assert (err.value.predicted, err.value.cap) == (2 ** 25, 10 ** 6)
    assert builds == []


def test_report_is_the_exact_polynomial_in_one_over_n(drift2):
    rep = expansion_report_Q(drift2, 1, 2, Ns=(2, 3, 17))
    assert rep.check()
    assert rep.base == gamma_tensor(drift2, 1, 2)
    assert sorted(rep.orders) == [1, 2]
    rep.orders[2] = rep.orders[2].scale(2)
    with pytest.raises(IdentityMismatch):
        rep.check()


@pytest.mark.parametrize("name,prof", [("drift2", (0, 5)),
                                       ("cycle3", (1, 3))])
def test_operator_route_tables_are_block_symmetric(name, prof):
    """eta0 on every coordinate is exchangeable, each partition piece of an
    exchangeable block is too, and freezing and transport never mix
    same-level groups: no table of the route needs a symmetrization."""
    m = bundled_model(name)
    for k in range(path_max_order(prof) + 1):
        nu = path_derivative_Q(m, prof, k)
        assert nu.symmetrize_blocks() == nu
    mu = path_exact_QN(m, prof, sum(prof) + 2)
    assert mu.symmetrize_blocks() == mu


def test_wick_leading_order_is_the_gaussian_moment(drift2):
    q = 4
    f = center_function(drift2, observable(drift2, 1))
    F = f.tensor(f).tensor(f).tensor(f)
    vanish, half = path_wick_Q(drift2, flat_blocks(1, q), F)
    assert vanish == {0: 0, 1: 0}
    assert half == gaussian_product_moment(drift2, [(1, tuple(f.data))] * q)


def test_wick_moment_pulls_each_factor_once(drift2, monkeypatch):
    """gaussian_product_moment pulls each factor down once and computes
    each pair's covariance once: 8 gbar factors alternating between levels
    1 and 2 take 4 * 1 + 4 * 2 one-step pulls, where one covariance call
    per pair of each of the 105 pair partitions took over a thousand.  The
    moment is still the pair-partition sum of gaussian_covariance."""
    factors = [(k, gbar_vector(drift2, k)) for k in (1, 2) * 4]
    want = sum(math.prod(gaussian_covariance(drift2, *factors[i],
                                             *factors[j])
                         for i, j in pairing)
               for pairing in pair_partitions(range(8)))
    pulls = []
    pull = TensorFunction.pull_coord

    def counted(self, pos, k):
        pulls.append(k)
        return pull(self, pos, k)

    monkeypatch.setattr(TensorFunction, "pull_coord", counted)
    assert gaussian_product_moment(drift2, factors) == want
    assert sorted(pulls) == [1] * 8 + [2] * 4


@pytest.mark.parametrize("field", ["rational", "float"])
def test_integral_and_contraction_routes_check_themselves(field):
    """first_order_P compares its integral route, which moves measures
    forward by transport_block and pulls the fluctuation observable by
    pull_coord, with the generic coefficient; centered_moment_expansion
    contracts each coefficient against gbar in one map_coords call and
    compares the sum with the ensemble oracle.  Each raises on a gap."""
    drift2 = bundled_model("drift2", field)
    cycle3 = bundled_model("cycle3", field)
    assert first_order_P(cycle3, 2, 3).levels == (2,) * 3
    assert first_order_P(drift2, 3, 4).levels == (3,) * 4
    for m, n in ((drift2, 2), (cycle3, 1)):
        report = centered_moment_expansion(m, n, 4, Ns=(3, 5))
        assert sorted(report.evaluations) == [3, 5]


def reference_derivative_P(model, np1, q, k):
    """Order k of the block law alone: the per-order walk the block-law
    pass replaced, one path_derivative_Q per profile and order."""
    fl = flow(model)
    if k == 0:
        return eta_tensor(model, np1, q)
    n = np1 - 1
    gb = [gbar_vector(model, j) for j in range(n + 1)]
    rows, den = model.exact_q(np1)
    total = None
    for l in range(2 * k):
        for p in compositions(l, n + 1):
            prof = p[:-1] + (p[-1] + q,)
            if k > path_max_order(prof):
                continue
            nu = path_derivative_Q(model, prof, k)
            vecs = [gb[j] for j, pj in enumerate(p) for _ in range(pj)]
            sigma = _contract_and_move(nu, dict(enumerate(vecs)),
                                       (rows, np1, den))
            pfact = math.prod(math.factorial(pj) for pj in p)
            coeff = Fraction(math.factorial(q - 1 + l),
                             math.factorial(q - 1) * pfact)
            term = sigma.scale(coeff)
            total = term if total is None else total + term
    if total is None:
        return _zero_measure(model, (np1,) * q)
    return _center_image(total, eta_tensor(model, np1, q),
                         fl.gnorm[np1] ** q)


BLOCK_LAW_CASES = [("drift2", np1, q, 2 if np1 * q == 9 else 3)
                   for np1 in (1, 2, 3) for q in (1, 2, 3)] + [
    ("cycle3", 2, 2, 3), ("sizes232", 2, 2, 3), ("sizes232", 2, 1, 3),
    ("drift2-float", 2, 2, 3)]


@pytest.mark.parametrize("name,np1,q,top", BLOCK_LAW_CASES)
def test_block_law_pass_equals_the_per_order_walk(name, np1, q, top):
    """Every order of the one pass equals the per-order reference; in
    float mode bit for bit, because both add the same terms in the same
    order."""
    if name == "sizes232":
        m = random_rational_model(7, sizes=(2, 3, 2))
    elif name.endswith("-float"):
        m = bundled_model(name[:-len("-float")], field="float")
    else:
        m = bundled_model(name)
    law = _block_law_orders(m, np1, q, top, Caps())
    assert len(law) == top + 1
    for k, got in enumerate(law):
        want = reference_derivative_P(m, np1, q, k)
        assert got.levels == want.levels
        assert got.data == want.data
    assert derivative_P(m, np1, q, top).data == law[top].data


@pytest.mark.parametrize("prof", [(2, 1, 1), flat_blocks(2, 3)])
def test_moment_report_builds_each_table_once(prof, monkeypatch):
    """The coefficient polynomial and every evaluation of one moment report
    share one set of partition tables: each (b, s) is built once."""
    builds = []
    build = expansion._partition_targets

    def counted_build(b, s):
        builds.append((b, s))
        return build(b, s)

    monkeypatch.setattr(expansion, "_partition_targets", counted_build)
    expansion_report_path_Q(bundled_model("blend3"), prof, Ns=(5, 6, 7))
    assert sorted(builds) == sorted({(b, 3) for b in expansion._blacks(prof)})


@pytest.mark.parametrize("field", ["rational", "float"])
@pytest.mark.parametrize("name", ["drift2", "cycle3", "blend3"])
@pytest.mark.parametrize("prof", [(0, 0, 3), (2, 1, 1), (1, 2)])
@pytest.mark.parametrize("sizes", [(5,), (5, 6, 9)])
def test_stacked_routes_equal_solo_routes(name, field, prof, sizes):
    """One report stacks the coefficient polynomial and every exact size
    in one pass; each route reads only its own tables, so every
    coefficient and every evaluation equals its route run alone."""
    m = bundled_model(name, field)
    rep = expansion_report_path_Q(m, prof, Ns=sizes)
    solo = expansion._moment_polynomial(m, prof, path_max_order(prof),
                                        Caps())
    assert [rep.base] + [rep.orders[k] for k in sorted(rep.orders)] == solo
    assert list(rep.evaluations) == list(sizes)
    for N in sizes:
        assert rep.evaluations[N] == path_exact_QN(m, prof, N)


@pytest.mark.parametrize("prof,calls", [((0, 0, 3), 6), ((2, 1, 1), 3),
                                        ((1, 2), 2)])
@pytest.mark.parametrize("sizes", [(5,), (5, 6, 9)])
def test_a_report_moves_each_coordinate_once_per_level(prof, calls, sizes,
                                                       monkeypatch):
    """The whole stage moves as one stacked table: one transport call per
    moved coordinate per level, whatever the number of tables and sizes."""
    moves = []
    transport = expansion.transport_numerators

    def counted(*a):
        moves.append(a)
        return transport(*a)

    monkeypatch.setattr(expansion, "transport_numerators", counted)
    expansion_report_path_Q(bundled_model("cycle3"), prof, Ns=sizes)
    blacks = expansion._blacks(prof)
    assert len(moves) == calls == sum(b - q for b, q in
                                      zip(blacks[:-1], prof[:-1]))


def test_duplicate_sizes_run_one_exact_route(monkeypatch):
    routes = []
    route = expansion._exact_route
    monkeypatch.setattr(expansion, "_exact_route",
                        lambda N: routes.append(N) or route(N))
    m = bundled_model("cycle3")
    rep = expansion_report_path_Q(m, (2, 1, 1), Ns=(6, 5, 6, 5))
    assert routes == [6, 5]
    assert list(rep.evaluations) == [6, 5]
    assert rep.evaluations[5] == path_exact_QN(m, (2, 1, 1), 5)


def test_a_size_below_the_block_refuses_before_any_table(monkeypatch):
    builds = []
    monkeypatch.setattr(expansion, "_partition_targets",
                        lambda *a: builds.append(a))
    with pytest.raises(InvalidParameter,
                       match="ensemble size N=3 below the total block size 4"):
        expansion_report_path_Q(bundled_model("drift2"), (2, 2), Ns=(5, 3))
    assert builds == []


@pytest.mark.parametrize("b", [10, 12])
def test_deep_blocks_past_the_partition_listing_equal_the_oracle(b):
    """drift2 (0,0,10) and (0,0,12) have Bell(10) = 115,975 and Bell(12) =
    4,213,597 set partitions at each level, past the 100,000 the moment
    engines were once allowed to list.  Built from occupation counts, the
    coefficients sum to the configuration oracle at every size."""
    m = bundled_model("drift2")
    F = TensorFunction(m, (2,) * b, [Fraction((-1) ** i * (i % 5 + 1),
                                              i % 3 + 2)
                                     for i in range(2 ** b)])
    sizes = range(b, 14)
    rep = expansion_report_path_Q(m, (0, 0, b), Ns=sizes, F=F)
    for N in sizes:
        assert rep.evaluations[N] == rep.partial_sum(N) == \
            exact_QN_oracle(m, N, (0, 0, b), F)


@pytest.fixture
def live_blocks(monkeypatch):
    """Every stage the selection sees, checked to be exchangeable in its
    live block: each table of the stack holds at every live point the
    value of the sorted point.  The selection tables count each merge on
    the sorted point of its occupation only, so they are right only under
    this symmetry.  Yields the (b, s) of the stages checked."""
    seen = []
    select = expansion.select_partitions

    def checked(stage, prefix, b, s, weights, targets):
        rep = [sum(x * s ** (b - 1 - i) for i, x in enumerate(sorted(y)))
               for y in itertools.product(range(s), repeat=b)]
        for i in range(0, len(stage), s ** b):
            table = stage[i:i + s ** b]
            assert all(table[y] == table[r] for y, r in enumerate(rep))
        seen.append((b, s))
        return select(stage, prefix, b, s, weights, targets)

    monkeypatch.setattr(expansion, "select_partitions", checked)
    return seen


@pytest.mark.parametrize("field", ["rational", "float"])
@pytest.mark.parametrize("name", bundled_names())
def test_every_stage_is_exchangeable_in_its_live_block(name, field,
                                                       live_blocks):
    m = bundled_model(name, field)
    f = [center_function(m, observable(m, k)) for k in range(3)]
    for prof in [(4,), (2, 1, 1), (0, 2, 2), (1, 0, 3), (0, 3)]:
        expansion_report_path_Q(m, prof, Ns=(sum(prof) + 1,))
    for prof, F in [((1, 1), f[0].tensor(f[1])),
                    ((0, 2, 2), f[1].tensor(f[1]).tensor(f[2]).tensor(f[2]))]:
        path_wick_Q(m, prof, F)
    centered_moment_expansion(m, 1, 3)
    centered_moment_expansion(m, 2, 2)
    F = observable(m, 2)
    expansion_report_P(m, 2, 2, F.tensor(F), top=2)
    assert {b for b, _ in live_blocks} == set(range(1, 6))


def test_block_law_report_builds_each_table_once(drift2, monkeypatch):
    """One report runs one moment polynomial per profile, and each of them
    builds each (b, s) selection table of its levels once."""
    passes, profiles = [], []
    build = expansion._partition_targets
    moments = expansion._moment_polynomial

    def counted_build(b, s):
        passes[-1].append((b, s))
        return build(b, s)

    def counted_moments(model, prof, top, caps):
        profiles.append(prof)
        passes.append([])
        return moments(model, prof, top, caps)

    monkeypatch.setattr(expansion, "_partition_targets", counted_build)
    monkeypatch.setattr(fluctuation, "_moment_polynomial", counted_moments)
    F = function_from_vector(drift2, 3, [1, Fraction(-2)])
    F = F.tensor(F).tensor(function_from_vector(drift2, 3, [3, 1]))
    expansion_report_P(drift2, 3, 3, F, top=3)
    for prof, builds in zip(profiles, passes):
        assert sorted(builds) == sorted(
            {(b, 2) for b in expansion._blacks(prof)})
    assert sorted({b for builds in passes for b in builds}) == \
        [(b, 2) for b in range(3, 9)]
    # every composition p of l < 6 into 3 parts feeds some order <= 3
    assert len(profiles) == len(set(profiles)) == sum(
        math.comb(l + 2, 2) for l in range(6))
