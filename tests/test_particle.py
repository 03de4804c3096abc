"""Configuration dynamic program and simulator.

Two references check the forward pass.  The first is an independent
oracle that tracks the ordered particle vectors directly from the sampling
description, with no occupation-count shortcut; at N = 2 on two- and
three-state models the labeled path space is small enough to enumerate
outright.  The second walks every configuration path and weighs it whole,
which is exact at any N but costs the product of the per-level
configuration counts.  A third route, exact interpolation in 1/N, checks
the forward pass against the coefficients of the expansion engines.
"""

import itertools
import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest

from fkforest import (
    CapExceeded,
    Caps,
    FKModel,
    InvalidParameter,
    bundled_model,
    config_count,
    estimators,
    exact_config_distribution,
    exact_EN_oracle,
    exact_eta_tensor_oracle,
    exact_PN_oracle,
    exact_QN_dot_oracle,
    exact_QN_oracle,
    flat_blocks,
    flow,
    function_from_vector,
    measure_from_vector,
    mc_gamma_mean,
    simulate,
)
from fkforest.combinatorics import falling_factorial
from fkforest.expansion import (exact_QN, expansion_report_path_Q,
                                expansion_report_Q)
from fkforest.fk_core import TensorFunction
from fkforest.montecarlo import dot_moment, tensor_moment, trajectory_config
from fkforest.particle import _configs


# ---------------------------------------------------------------------------
# labeled-vector oracle


def labeled_paths(model, N, horizon):
    """Joint law of the ordered particle vectors, straight from the
    sampling rules: iid start, then independent draws from the empirical
    selection-mutation mixture."""
    out = {}
    for x0 in itertools.product(range(model.size(0)), repeat=N):
        w = Fraction(1)
        for i in x0:
            w *= model.eta0[i]
        if w:
            out[(x0,)] = w
    for k in range(1, horizon + 1):
        gk = model.G[k - 1]
        mk = model.M[k - 1]
        nxt = {}
        for path, w in out.items():
            x = path[-1]
            tot = sum(gk[i] for i in x)
            mix = [sum(gk[i] * mk[i][y] for i in x) / tot
                   for y in range(model.size(k))]
            for x2 in itertools.product(range(model.size(k)), repeat=N):
                w2 = w
                for y in x2:
                    w2 *= mix[y]
                if w2:
                    key = path + (x2,)
                    nxt[key] = nxt.get(key, Fraction(0)) + w2
        out = nxt
    return out


def labeled_mass(model, path, upto):
    """Product of empirical potential means strictly before level upto."""
    N = len(path[0])
    m = Fraction(1)
    for k in range(upto):
        m *= Fraction(sum(model.G[k][i] for i in path[k]), N)
    return m


def labeled_block_moment(path, F):
    """Average of F over all coordinate assignments, one level each."""
    N = len(path[0])
    total = Fraction(0)
    for picks in itertools.product(range(N), repeat=F.arity):
        point = tuple(path[F.levels[pos]][i] for pos, i in enumerate(picks))
        total += F.value(point)
    return total / Fraction(N ** F.arity)


def labeled_dot_moment(x, F):
    N = len(x)
    q = F.arity
    total = Fraction(0)
    for picks in itertools.permutations(range(N), q):
        total += F.value(tuple(x[i] for i in picks))
    return total / Fraction(falling_factorial(N, q))


@pytest.mark.parametrize("name,n", [("drift2", 2), ("cycle3", 1),
                                    ("skew2", 2)])
def test_config_distribution_matches_labeled_law(name, n):
    m = bundled_model(name)
    N = 2
    law = labeled_paths(m, N, n)
    dp = exact_config_distribution(m, N, n)
    for k in range(n + 1):
        proj = {}
        for path, w in law.items():
            cfg = tuple(sum(1 for i in path[k] if i == y)
                        for y in range(m.size(k)))
            proj[cfg] = proj.get(cfg, Fraction(0)) + w
        assert proj == dp[k]
        assert sum(dp[k].values()) == 1
        assert len(dp[k]) <= config_count(m.size(k), N)


@pytest.mark.parametrize("name,n,q", [("drift2", 1, 2), ("drift2", 2, 2),
                                      ("cycle3", 1, 2), ("skew2", 1, 1)])
def test_scalar_oracles_match_labeled_law(name, n, q):
    m = bundled_model(name)
    N = 2
    law = labeled_paths(m, N, n)
    size = m.size(n)
    data = [Fraction(3 * i - 2, i + 1) for i in range(size ** q)]
    F = TensorFunction(m, (n,) * q, data)

    want_Q = sum(w * labeled_mass(m, path, n) ** q
                 * labeled_block_moment(path, F)
                 for path, w in law.items())
    assert exact_QN_oracle(m, N, flat_blocks(n, q), F) == want_Q

    want_eta = sum(w * labeled_block_moment(path, F)
                   for path, w in law.items())
    assert exact_eta_tensor_oracle(m, N, n, q, F) == want_eta

    if q <= N:
        want_P = sum(w * labeled_dot_moment(path[n], F)
                     for path, w in law.items())
        assert exact_PN_oracle(m, N, n, q, F) == want_P
        want_dot = sum(w * labeled_mass(m, path, n) ** q
                       * labeled_dot_moment(path[n], F)
                       for path, w in law.items())
        assert exact_QN_dot_oracle(m, N, n, q, F) == want_dot


def test_mass_defect_moments_match_labeled_law(drift2):
    N, n = 2, 2
    law = labeled_paths(drift2, N, n)
    fl = flow(drift2)
    gG = sum(g * v for g, v in zip(fl.gamma_vec[n], drift2.G[n]))
    for q in range(4):
        want = Fraction(0)
        for path, w in law.items():
            emp = Fraction(sum(drift2.G[n][i] for i in path[n]), N)
            v = 1 - labeled_mass(drift2, path, n) * emp / gG
            want += w * v ** q
        assert exact_EN_oracle(drift2, N, n, q) == want
    assert exact_EN_oracle(drift2, N, n, 0) == 1
    assert exact_EN_oracle(drift2, N, n, 1) == 0


def test_path_block_oracle_matches_labeled_law(drift2):
    N = 2
    qvec = (1, 1)
    law = labeled_paths(drift2, N, 1)
    data = [Fraction(i + 1, 2) for i in range(4)]
    F = TensorFunction(drift2, (0, 1), data)
    want = Fraction(0)
    for path, w in law.items():
        mass = Fraction(sum(drift2.G[0][i] for i in path[0]), N)
        want += w * mass * labeled_block_moment(path, F)
    assert exact_QN_oracle(drift2, N, qvec, F) == want


def test_level_zero_distribution_is_multinomial(cycle3):
    for N in (1, 2, 3):
        dist = exact_config_distribution(cycle3, N, 0)[0]
        for cfg, w in dist.items():
            coeff = math.factorial(N)
            for c in cfg:
                coeff //= math.factorial(c)
            want = Fraction(coeff)
            for c, p in zip(cfg, cycle3.eta0):
                want *= p ** c
            assert w == want


def test_unnormalized_single_estimator_is_unbiased(drift2, cycle3):
    for m in (drift2, cycle3):
        for n in range(3):
            f = function_from_vector(m, n, list(range(1, m.size(n) + 1)))
            gamma = measure_from_vector(m, n, flow(m).gamma_vec[n])
            truth = gamma.pair(f)
            for N in (1, 2, 3):
                assert exact_QN_oracle(m, N, flat_blocks(n, 1), f) == truth


def test_trailing_zero_blocks_leave_the_oracle_unchanged(drift2, cycle3):
    """A profile and the same profile with zero blocks appended name the
    same moment, as they do for the expansion engines."""
    for m in (drift2, cycle3):
        F = function_from_vector(m, 0, [Fraction(1, 3), 2, 5][:m.size(0)])
        G = TensorFunction(m, (0, 1), [Fraction(i + 1, 4) for i in
                                       range(m.size(0) * m.size(1))])
        for N in (1, 2, 3):
            short = exact_QN_oracle(m, N, (1,), F)
            assert isinstance(short, Fraction)
            assert exact_QN_oracle(m, N, (1, 0), F) == short
            assert exact_QN_oracle(m, N, (1, 1, 0), G) \
                == exact_QN_oracle(m, N, (1, 1), G)


def test_normalized_estimator_is_biased_for_skew2(skew2):
    fl = flow(skew2)
    f = function_from_vector(skew2, 1, [1, 0])
    gap = exact_eta_tensor_oracle(skew2, 2, 1, 1, f) - fl.eta_vec[1][0]
    assert gap < 0


# ---------------------------------------------------------------------------
# path-walk reference: every configuration path, weighed whole


def multinomial_weight(cfg, probs):
    w = Fraction(math.factorial(sum(cfg)))
    for c, p in zip(cfg, probs):
        w = w / math.factorial(c) * p ** c
    return w


def mixture(model, k, cfg):
    """Selection-mutation distribution on level k given the level k-1
    configuration."""
    gk = model.G[k - 1]
    mk = model.M[k - 1]
    weights = [cfg[x] * gk[x] for x in range(len(cfg))]
    total = sum(weights)
    return tuple(
        sum(weights[x] * mk[x][y] for x in range(len(cfg))) / total
        for y in range(model.size(k)))


def config_paths(model, N, horizon):
    """All configuration paths up to level horizon with their exact
    probabilities."""
    def rec(prefix, w):
        k = len(prefix)
        if k > horizon:
            yield prefix, w
            return
        probs = model.eta0 if k == 0 else mixture(model, k, prefix[-1])
        for cfg in _configs(model.size(k), N):
            w2 = w * multinomial_weight(cfg, probs)
            if w2:
                yield from rec(prefix + (cfg,), w2)

    yield from rec((), Fraction(1))


def path_masses(model, path, N):
    """Entry k: product of the empirical potential means before level k."""
    out = [Fraction(1)]
    for k in range(1, len(path)):
        out.append(out[-1] * Fraction(
            sum(c * g for c, g in zip(path[k - 1], model.G[k - 1])), N))
    return out


def block_tensor_moment(path, F, N):
    """Product-across-levels empirical tensor: coordinate i of F reads the
    configuration at its own level."""
    total = Fraction(0)
    for point in itertools.product(*[range(s) for s in F.sizes]):
        w = 1
        for pos, x in enumerate(point):
            w *= path[F.levels[pos]][x]
        if w:
            total += F.value(point) * w
    return total / N ** F.arity


def walk_QN(model, N, qvec, F):
    total = Fraction(0)
    for path, w in config_paths(model, N, len(qvec) - 1):
        norms = path_masses(model, path, N)
        factor = math.prod(norms[lvl] ** c for lvl, c in enumerate(qvec))
        total += w * factor * block_tensor_moment(path, F, N)
    return total


def walk_QN_dot(model, N, n, F):
    return sum(w * path_masses(model, path, N)[n] ** F.arity
               * dot_moment(path[n], F, N)
               for path, w in config_paths(model, N, n))


def walk_EN(model, N, n, q):
    fl = flow(model)
    gG = sum(g * v for g, v in zip(fl.gamma_vec[n], model.G[n]))
    total = Fraction(0)
    for path, w in config_paths(model, N, n):
        emp = Fraction(sum(c * g for c, g in zip(path[n], model.G[n])), N)
        total += w * (1 - path_masses(model, path, N)[n] * emp / gG) ** q
    return total


def sample_function(model, levels):
    size = math.prod(model.size(k) for k in levels)
    return TensorFunction(model, levels, [Fraction((-1) ** i * (i % 5 + 1),
                                                   i % 3 + 2)
                                          for i in range(size)])


def profile_levels(qvec):
    return tuple(lvl for lvl, c in enumerate(qvec) for _ in range(c))


@pytest.mark.parametrize("name,qvec,Ns", [
    ("drift2", (0, 0, 0, 2), (1, 2, 4)),
    ("drift2", (1, 0, 1, 1), (2, 3)),
    ("drift2", (0, 2, 1), (2, 5)),
    ("skew2", (0, 0, 3), (1, 3, 5)),
    ("skew2", (1, 1, 1), (2, 5)),
    ("cycle3", (0, 0, 2), (1, 3)),
    ("cycle3", (1, 0, 1), (2, 3)),
    ("blend3", (0, 1, 2), (2, 3)),
    ("blend3", (2, 0, 1), (1, 3)),
])
def test_forward_pass_equals_the_path_walk(name, qvec, Ns):
    m = bundled_model(name)
    n = len(qvec) - 1
    q = qvec[-1]
    F = sample_function(m, profile_levels(qvec))
    Fn = sample_function(m, (n,) * q)
    for N in Ns:
        assert exact_QN_oracle(m, N, qvec, F) == walk_QN(m, N, qvec, F)
        assert exact_QN_oracle(m, N, flat_blocks(n, q), Fn) \
            == walk_QN(m, N, (0,) * n + (q,), Fn)
        if q <= N:
            assert exact_QN_dot_oracle(m, N, n, q, Fn) \
                == walk_QN_dot(m, N, n, Fn)
        for p in (2, 3):
            assert exact_EN_oracle(m, N, n, p) == walk_EN(m, N, n, p)


def test_float_forward_pass_tracks_the_rational_walk():
    """Float mode adds in another order than the path walk did, so it is
    held to the rational value within a relative 1e-12, far wider than
    double rounding over a few hundred terms."""
    for name, qvec, N in [("cycle3", (1, 0, 1), 3), ("drift2", (0, 2, 1), 4)]:
        m, mf = bundled_model(name), bundled_model(name, field="float")
        n = len(qvec) - 1
        F = sample_function(m, profile_levels(qvec))
        Ff = TensorFunction(mf, F.levels, [float(v) for v in F.data])
        assert exact_QN_oracle(mf, N, qvec, Ff) \
            == pytest.approx(float(walk_QN(m, N, qvec, F)), rel=1e-12)
        assert exact_EN_oracle(mf, N, n, 3) == pytest.approx(
            float(walk_EN(m, N, n, 3)), rel=1e-12, abs=1e-12)
    # a high centered moment is small against the binomial terms of
    # (1 - X)^q, which would lose about 4e-13 of it here
    m, mf = bundled_model("drift2"), bundled_model("drift2", field="float")
    assert exact_EN_oracle(mf, 12, 2, 8) == pytest.approx(
        float(exact_EN_oracle(m, 12, 2, 8)), rel=1e-13, abs=0)


def test_forward_pass_runs_past_the_path_count(cycle3):
    """At N = 9 there are 55**3 = 166,375 configuration paths but only 55
    configurations per level; at N = 14, 120**3 paths and 120
    configurations."""
    F = sample_function(cycle3, (2, 2))
    assert config_count(3, 9) ** 3 > Caps().configs
    for N in (9, 14):
        assert exact_QN_oracle(cycle3, N, flat_blocks(2, 2), F) \
            == exact_QN(cycle3, 2, 2, N, F)


@pytest.mark.parametrize("name", ["drift2", "skew2", "cycle3", "blend3"])
def test_config_distribution_is_a_law_at_every_level(name):
    m = bundled_model(name)
    for N in range(1, 13):
        for k, dist in enumerate(exact_config_distribution(m, N,
                                                           m.horizon)):
            assert sum(dist.values()) == 1
            assert all(w > 0 for w in dist.values())
            assert set(dist) <= set(_configs(m.size(k), N))


def float_model_pair(seed):
    """A float model and the rational model on the exact values of its
    floats.  Stochastic rows are multiples of 2**-20 that sum to 1 exactly
    in both fields; potentials and the function are arbitrary doubles."""
    rng = random.Random(seed)
    unit = 2 ** 20

    def simplex(k):
        cuts = sorted(rng.sample(range(1, unit), k - 1))
        return [(b - a) / unit for a, b in zip([0] + cuts, cuts + [unit])]

    sizes = (3, 3, 2)
    states = [["s%d" % i for i in range(s)] for s in sizes]
    eta0 = simplex(sizes[0])
    M = [[simplex(sizes[k + 1]) for _ in range(sizes[k])]
         for k in range(len(sizes) - 1)]
    G = [[rng.uniform(0.2, 3.0) for _ in range(s)] for s in sizes]
    exact = [[[Fraction(v) for v in row] for row in mk] for mk in M]
    return (FKModel(states, eta0, M, G, field="float"),
            FKModel(states, [Fraction(v) for v in eta0], exact,
                    [[Fraction(v) for v in g] for g in G]))


@pytest.mark.parametrize("seed", [3, 17])
def test_float_pass_tracks_the_rational_pass_on_the_same_floats(seed):
    mf, m = float_model_pair(seed)
    rng = random.Random(seed)
    for qvec, N in [((0, 0, 2), 5), ((1, 0, 1), 6), ((0, 1, 2), 7)]:
        levels = profile_levels(qvec)
        Ff = TensorFunction(mf, levels, [
            rng.uniform(-2.0, 2.0)
            for _ in range(math.prod(mf.size(k) for k in levels))])
        F = TensorFunction(m, levels, [Fraction(v) for v in Ff.data])
        assert exact_QN_oracle(mf, N, qvec, Ff) == pytest.approx(
            float(exact_QN_oracle(m, N, qvec, F)), rel=1e-12)
        for q in (2, 3):
            assert exact_EN_oracle(mf, N, 2, q) == pytest.approx(
                float(exact_EN_oracle(m, N, 2, q)), rel=1e-12)


def reference_spread(model, N, n_states, sources):
    """The spread step as one loop step per (source, target) pair: each
    source adds its rescaled vector times its weight into every reachable
    target, and the multinomial coefficient comes last.  `_spread` forms
    each target entry as one dot product over the sources instead."""
    targets = list(_configs(n_states, N))
    exact = model.field == "rational"
    totals = [sum(a) for a, _ in sources]
    L = math.lcm(*totals) if exact else 1
    acc = [None] * len(targets)
    for (row, vec), total in zip(sources, totals):
        if exact:
            vec = [v * (L // total) ** N for v in vec]
        else:
            row = [a / total for a in row]
        pows = [list(itertools.accumulate([a] * N, operator.mul, initial=1))
                for a in row]
        for j, cfg in enumerate(targets):
            w = math.prod(map(operator.getitem, pows, cfg))
            if not w:
                continue
            if acc[j] is None:
                acc[j] = [v * w for v in vec]
            else:
                for i, v in enumerate(vec):
                    acc[j][i] += v * w
    out = {}
    for cfg, cur in zip(targets, acc):
        if cur is not None:
            coeff = math.factorial(N)
            for c in cfg:
                coeff //= math.factorial(c)
            out[cfg] = [v * coeff for v in cur] if coeff != 1 else cur
    return out, L ** N


def zero_entry_model(field):
    """eta0 and one transition row put no mass on state c, so some weights
    are 0 and every configuration with a particle on c is unreachable."""
    return FKModel([["a", "b", "c"]] * 3, ["1/2", "1/2", "0"],
                   [[["1/2", "1/2", "0"], ["0", "1", "0"],
                     ["1/3", "1/3", "1/3"]],
                    [["1/4", "0", "3/4"], ["1/2", "1/4", "1/4"],
                     ["0", "0", "1"]]],
                   [["1", "2", "1/2"], ["3", "1", "1"], ["1", "1", "2"]],
                   field)


@pytest.mark.parametrize("field", ["rational", "float"])
@pytest.mark.parametrize("name", ["drift2", "cycle3", "zero-entry"])
def test_spread_matches_the_per_pair_loop(monkeypatch, name, field):
    """Every spread of a plain law, a block moment and a mass-defect pass
    (signed vectors) gives the law and denominator of the per-pair loop:
    equal ints in rational mode, the same float bits in float mode."""
    from fkforest import particle
    model = (zero_entry_model(field) if name == "zero-entry"
             else bundled_model(name, field))
    spread = particle._spread
    calls = []

    def bits(vec):
        return [(type(v), v.hex() if isinstance(v, float) else v)
                for v in vec]

    def checked(*args):
        got, want = spread(*args), reference_spread(*args)
        assert got[1] == want[1]
        assert {c: bits(v) for c, v in got[0].items()} == \
            {c: bits(v) for c, v in want[0].items()}
        calls.append(len(got[0]) < config_count(args[2], args[1]))
        return got

    monkeypatch.setattr(particle, "_spread", checked)
    n = model.horizon
    F = TensorFunction(model, profile_levels((1,) + (0,) * (n - 1) + (1,)),
                       [(-1) ** i * (i + 1) for i in range(
                           model.size(0) * model.size(n))])
    for N in range(1, 7):
        exact_config_distribution(model, N, n)
        exact_QN_oracle(model, N, (1,) + (0,) * (n - 1) + (1,), F)
        exact_EN_oracle(model, N, n, 3)
    # the zero-entry model leaves targets unreachable, the others do not
    assert any(calls) == (name == "zero-entry")


# ---------------------------------------------------------------------------
# interpolation in 1/N


def interpolate_in_inverse_N(values):
    """Coefficients c_0..c_D of the polynomial in x = 1/N through
    (1/N, values[N]) for N = 1..D+1, by exact Lagrange interpolation."""
    xs = [Fraction(1, N) for N in sorted(values)]
    ys = [values[N] for N in sorted(values)]
    coeffs = [Fraction(0)] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = [Fraction(1)]
        scale = yi
        for j, xj in enumerate(xs):
            if j == i:
                continue
            # basis *= (x - xj)
            basis = [b - xj * a for a, b in zip(basis + [0], [0] + basis)]
            scale /= xi - xj
        for d, b in enumerate(basis):
            coeffs[d] += scale * b
    return coeffs


@pytest.mark.parametrize("name,qvec", [
    ("drift2", (0, 2)), ("drift2", (0, 0, 2)), ("drift2", (0, 3)),
    ("drift2", (1, 1)), ("drift2", (2, 1, 1)),
    ("cycle3", (0, 2)), ("cycle3", (1, 1, 1)),
])
def test_interpolated_oracle_gives_every_coefficient(name, qvec):
    m = bundled_model(name)
    F = sample_function(m, profile_levels(qvec))
    # live block size at level k: the coordinates not frozen before k
    live = [sum(qvec[k:]) for k in range(len(qvec))]
    D = sum(b - 1 for b in live)
    got = interpolate_in_inverse_N(
        {N: exact_QN_oracle(m, N, qvec, F) for N in range(1, D + 2)})
    n, q = len(qvec) - 1, qvec[-1]
    if qvec == (0,) * n + (q,):
        assert D == (n + 1) * (q - 1)
        report = expansion_report_Q(m, n, q, F=F)
    else:
        report = expansion_report_path_Q(m, qvec, F=F)
    assert got == [report.base] + [report.orders.get(j, 0)
                                   for j in range(1, D + 1)]
    assert sorted(report.orders) == list(range(1, D + 1))


# ---------------------------------------------------------------------------
# per-configuration values


def test_tensor_moment_factorizes_on_product_functions(drift2):
    f = function_from_vector(drift2, 1, ["1/2", 3])
    q = 3
    F = f
    for _ in range(q - 1):
        F = F.tensor(f)
    for cfg in ((0, 4), (2, 2), (3, 1)):
        N = sum(cfg)
        assert tensor_moment(cfg, F, N) == tensor_moment(cfg, f, N) ** q


def test_dot_moment_matches_permutation_sum(drift2):
    data = [Fraction(2 - i) for i in range(4)]
    F = TensorFunction(drift2, (1, 1), data)
    for cfg in ((1, 3), (2, 2), (0, 2)):
        N = sum(cfg)
        atoms = [x for x, c in enumerate(cfg) for _ in range(c)]
        want = sum(F.value((atoms[i], atoms[j]))
                   for i in range(N) for j in range(N) if i != j)
        assert dot_moment(cfg, F, N) == Fraction(want, N * (N - 1))
    with pytest.raises(InvalidParameter):
        dot_moment((1, 0), F, 1)


def test_block_moment_is_a_product_across_levels(drift2):
    f0 = function_from_vector(drift2, 0, [1, 2])
    f1 = function_from_vector(drift2, 1, [3, "1/5"])
    F = f0.tensor(f1)
    path = ((2, 0), (1, 1))
    N = 2
    assert block_tensor_moment(path, F, N) == \
        tensor_moment(path[0], f0, N) * tensor_moment(path[1], f1, N)


# ---------------------------------------------------------------------------
# caps and argument checking


def test_oracle_caps_report_predicted_sizes(blend3):
    """caps.configs bounds the configurations of one level, caps.tensor the
    table over frozen coordinates; both refuse before any transition."""
    small = Caps(configs=5)
    with pytest.raises(CapExceeded) as err:
        exact_config_distribution(blend3, 4, 1, caps=small)
    assert err.value.predicted == config_count(3, 4)
    F = sample_function(blend3, (2, 2))
    for N in (2, 3):
        for run in (lambda: exact_QN_oracle(blend3, N, flat_blocks(2, 2), F,
                                            caps=small),
                    lambda: exact_QN_dot_oracle(blend3, N, 2, 2, F, small),
                    lambda: exact_EN_oracle(blend3, N, 2, 2, small)):
            with pytest.raises(CapExceeded) as err:
                run()
            assert (err.value.predicted, err.value.cap) \
                == (config_count(3, N), 5)
    Fp = sample_function(blend3, (0, 1, 2))
    with pytest.raises(CapExceeded) as err:
        exact_QN_oracle(blend3, 2, (1, 1, 1), Fp, caps=Caps(tensor=8))
    assert (err.value.predicted, err.value.cap) == (9, 8)
    assert exact_QN_oracle(blend3, 2, (1, 1, 1), Fp, caps=Caps(tensor=9)) \
        == walk_QN(blend3, 2, (1, 1, 1), Fp)


def test_oracle_work_counts_the_vectors_each_transition_carries(blend3,
                                                                drift2):
    """caps.series bounds N sum_k |C_(k-1)||C_k| v_k before the pass: on
    blend3 at N = 2 (6 configurations a level) the block profile (1, 1, 1)
    carries vectors of 1, 3 and 9 entries into levels 0, 1 and 2, and
    the mass-defect pass of order q carries q + 1 entries everywhere."""
    Fp = sample_function(blend3, (0, 1, 2))
    work = 2 * (6 * 1 + 36 * 3 + 36 * 9)
    with pytest.raises(CapExceeded) as err:
        exact_QN_oracle(blend3, 2, (1, 1, 1), Fp, caps=Caps(series=work - 1))
    assert (err.value.predicted, err.value.cap) == (work, work - 1)
    assert exact_QN_oracle(blend3, 2, (1, 1, 1), Fp, caps=Caps(series=work)) \
        == walk_QN(blend3, 2, (1, 1, 1), Fp)
    work = 3 * 4 * (4 + 2 * 16)
    with pytest.raises(CapExceeded) as err:
        exact_EN_oracle(drift2, 3, 2, 3, Caps(series=work - 1))
    assert err.value.predicted == work
    assert exact_EN_oracle(drift2, 3, 2, 3, Caps(series=work)) \
        == walk_EN(drift2, 3, 2, 3)


def test_oracle_argument_validation(drift2):
    f = function_from_vector(drift2, 1, [1, 0])
    with pytest.raises(InvalidParameter):
        exact_config_distribution(drift2, 0, 1)
    with pytest.raises(InvalidParameter):
        exact_config_distribution(drift2, 2, 9)
    with pytest.raises(InvalidParameter):
        exact_PN_oracle(drift2, 1, 1, 2, f.tensor(f))
    with pytest.raises(InvalidParameter):
        exact_eta_tensor_oracle(drift2, 2, 2, 1, f)
    with pytest.raises(InvalidParameter):
        exact_QN_oracle(drift2, 2, flat_blocks(2, 2), f.tensor(f))
    with pytest.raises(InvalidParameter):
        exact_QN_oracle(drift2, 2, flat_blocks(2, 1), f.tensor(
            function_from_vector(drift2, 2, [1, 1])))


# ---------------------------------------------------------------------------
# simulator


def test_simulation_is_seed_and_replica_keyed(drift2):
    a = simulate(drift2, 30, seed=5, replica=0)
    b = simulate(drift2, 30, seed=5, replica=0)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = simulate(drift2, 30, seed=5, replica=1)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))
    d = simulate(drift2, 30, seed=6, replica=0)
    assert any(not np.array_equal(x, y) for x, y in zip(a, d))
    short = simulate(drift2, 30, seed=5, horizon=1)
    assert len(short) == 2
    assert np.array_equal(short[0], a[0])


def test_single_state_chain_is_deterministic():
    m = FKModel(states=[["a"], ["b"]], eta0=[1], M=[[[1]]], G=[[2], [1]])
    traj = simulate(m, 10, seed=0)
    assert all((lvl == 0).all() for lvl in traj)
    est = estimators(m, traj, 1, f=function_from_vector(m, 1, [5]))
    assert est["gamma_norm"] == 2
    assert est["gamma"] == 10


def test_estimators_report_exact_rationals(drift2):
    traj = simulate(drift2, 7, seed=9, horizon=2)
    f = function_from_vector(drift2, 2, [1, 0])
    F = f.tensor(f)
    est = estimators(drift2, traj, 2, f=f, F=F)
    cfg = trajectory_config(traj, drift2, 2)
    assert est["eta"] == Fraction(cfg[0], 7)
    assert est["gamma"] == est["gamma_norm"] * est["eta"]
    assert est["eta_tensor"] == est["eta"] ** 2
    assert est["gamma_tensor"] == est["gamma_norm"] ** 2 * est["eta_tensor"]
    assert est["eta_dot"] == dot_moment(cfg, F, 7)
    big = estimators(drift2, traj, 2, F=F, q=2)
    assert "eta" not in big
    with pytest.raises(InvalidParameter):
        estimators(drift2, traj, 2, f=function_from_vector(drift2, 1, [1, 0]))


def test_mc_mean_is_exact_when_potentials_are_flat(flat2):
    f = function_from_vector(flat2, 2, [1, 1])
    mean, se = mc_gamma_mean(flat2, 20, seed=3, replicas=50, n=2, f=f)
    assert mean == 1.0
    assert se == 0.0


def test_mc_mean_tracks_the_flow(drift2):
    f = function_from_vector(drift2, 1, [1, 1])
    truth = float(flow(drift2).gnorm[1])
    mean, se = mc_gamma_mean(drift2, 50, seed=11, replicas=400, n=1, f=f)
    assert se > 0
    assert abs(mean - truth) < 6 * se
