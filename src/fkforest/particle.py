"""Two realizations of the N-particle mean-field model.

The oracle side evolves the exact law of the unordered particle system:
configurations are occupation-count tuples, transitions are multinomial
draws from the selection-mutation mixture, and every expectation is a
finite sum.  Exchangeability makes configurations sufficient for all the
symmetric functionals handled here.  Every oracle is one forward pass over
the configurations of each level: the unnormalized ones carry, per
configuration, the path probability times the mass factor (and, for a
per-time block profile, a table over the coordinates already frozen), so
the work is sum_k |C_k||C_{k+1}| transitions, never one walk per path.

The Monte Carlo side samples the same dynamics with a counter-based
generator; replica r of seed s uses the key (s, r), so replica sets are
order-independent.  Simulation is always float; the oracles respect the
model's scalar field.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, fsum
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from .combinatorics import falling_factorial
from .config import Caps, DEFAULT_CAPS
from .errors import CapExceeded, InvalidParameter
from .fk_core import FKModel, Scalar, TensorFunction, flow

Config = Tuple[int, ...]
ConfigDistribution = Dict[Config, Scalar]


def _configs(n_states: int, N: int) -> Iterator[Config]:
    if n_states == 1:
        yield (N,)
        return
    for head in range(N + 1):
        for rest in _configs(n_states - 1, N - head):
            yield (head,) + rest


def config_count(n_states: int, N: int) -> int:
    return comb(N + n_states - 1, N)


def _check_configs(model: FKModel, N: int, horizon: int, caps: Caps) -> None:
    if N < 1:
        raise InvalidParameter("N must be >= 1")
    if not 0 <= horizon <= model.horizon:
        raise InvalidParameter("horizon outside the model range")
    for k in range(horizon + 1):
        cnt = config_count(model.size(k), N)
        if cnt > caps.configs:
            raise CapExceeded("configuration space too large at level %d" % k,
                              predicted=cnt, cap=caps.configs)


def _multinomial_weights(targets: Sequence[Config], probs: Sequence[Scalar],
                         N: int, one: Scalar) -> List[Scalar]:
    """Multinomial probability of every target configuration."""
    pows = [[p ** c for c in range(N + 1)] for p in probs]
    out = []
    for cfg in targets:
        coeff = 1
        rem = N
        for c in cfg:
            coeff *= comb(rem, c)
            rem -= c
        w = one * coeff
        for c, pw in zip(cfg, pows):
            if c:
                w = w * pw[c]
        out.append(w)
    return out


def _mixture(model: FKModel, k: int, cfg: Config) -> Tuple[Scalar, ...]:
    """Selection-mutation distribution on level k given the level k-1
    configuration."""
    gk = model.G[k - 1]
    mk = model.M[k - 1]
    weights = [cfg[x] * gk[x] for x in range(len(cfg))]
    total = sum(weights)
    return tuple(
        sum(weights[x] * mk[x][y] for x in range(len(cfg))) / total
        for y in range(model.size(k)))


# ---------------------------------------------------------------------------
# forward pass over configurations
#
# A law here maps each level-k configuration to a vector: the sum, over
# the configuration paths that reach it, of the path probability times a
# per-path vector built level by level.  Carrying the vectors forward one
# transition at a time costs sum_k |C_k||C_{k+1}| instead of the
# prod_k |C_k| of walking every path.

Law = Dict[Config, List[Scalar]]
Weigh = Callable[[int, Config, List[Scalar]], List[Scalar]]


def _start(model: FKModel, N: int, vec: Sequence[Scalar]) -> Law:
    """Level-0 law: iid draws from eta0, each carrying vec."""
    targets = list(_configs(model.size(0), N))
    return {cfg: [w * v for v in vec]
            for cfg, w in zip(targets, _multinomial_weights(
                targets, model.eta0, N, model.one)) if w}


def _transport(model: FKModel, k: int, N: int, law: Law) -> Law:
    """Level-k law from the level k-1 law: every vector moves to each
    level-k configuration, scaled by the transition probability."""
    targets = list(_configs(model.size(k), N))
    out: Law = {}
    for cfg, vec in law.items():
        row = _multinomial_weights(targets, _mixture(model, k, cfg), N,
                                   model.one)
        for cfg2, w2 in zip(targets, row):
            if not w2:
                continue
            acc = out.get(cfg2)
            if acc is None:
                out[cfg2] = [v * w2 for v in vec]
            else:
                for i, v in enumerate(vec):
                    acc[i] = acc[i] + v * w2
    return out


def _forward(model: FKModel, N: int, n: int, start: Sequence[Scalar],
             weigh: Weigh, caps: Caps) -> Law:
    """Level-n law whose per-path vector starts at `start` and is replaced
    by weigh(k, cfg_k, vec) on leaving each level k < n."""
    _check_configs(model, N, n, caps)
    law = _start(model, N, start)
    for k in range(1, n + 1):
        law = _transport(model, k, N, {cfg: weigh(k - 1, cfg, vec)
                                       for cfg, vec in law.items()})
    return law


def exact_config_distribution(model: FKModel, N: int, horizon: int,
                              caps: Caps = DEFAULT_CAPS
                              ) -> List[ConfigDistribution]:
    """Exact law of the occupation counts at levels 0..horizon."""
    _check_configs(model, N, horizon, caps)
    laws = [_start(model, N, [model.one])]
    for k in range(1, horizon + 1):
        laws.append(_transport(model, k, N, laws[-1]))
    return [{cfg: vec[0] for cfg, vec in law.items()} for law in laws]


# ---------------------------------------------------------------------------
# per-configuration estimator values


def _level_mass(model: FKModel, k: int, cfg: Config, N: int) -> Scalar:
    """Empirical mean of the level-k potential, eta^N_k(G_k)."""
    gmean = sum(c * g for c, g in zip(cfg, model.G[k]))
    return gmean / N if model.field == "float" else gmean * Fraction(1, N)


def _gamma_norms(model: FKModel, path: Sequence[Config],
                 N: int) -> List[Scalar]:
    """Running unnormalized masses along a configuration path: entry k is
    the product of empirical potential means before level k."""
    out = [model.one]
    for k in range(1, len(path)):
        cfg = path[k - 1]
        gmean = sum(c * g for c, g in zip(cfg, model.G[k - 1]))
        out.append(out[-1] * gmean / (N if model.field == "float"
                                      else Fraction(N)))
    return out


def _count_products(cfg: Config, q: int) -> List[int]:
    """prod_i cfg[x_i] at every point x of the q-fold level domain, in
    table order."""
    out = []
    for point in itertools.product(range(len(cfg)), repeat=q):
        w = 1
        for x in point:
            w *= cfg[x]
        out.append(w)
    return out


def tensor_moment(cfg: Config, F: TensorFunction, N: int) -> Scalar:
    """Plain q-fold empirical tensor of one configuration against F."""
    q = F.arity
    total = sum((f * w for f, w in zip(F.data, _count_products(cfg, q)) if w),
                F.model.zero)
    return total / N ** q if F.model.field == "float" \
        else total * Fraction(1, N ** q)


def dot_moment(cfg: Config, F: TensorFunction, N: int) -> Scalar:
    """Injective q-fold empirical tensor of one configuration against F."""
    q = F.arity
    if q > N:
        raise InvalidParameter("injective tensor needs q <= N")
    total = F.model.zero
    for point in itertools.product(*[range(s) for s in F.sizes]):
        mult: Dict[int, int] = {}
        for x in point:
            mult[x] = mult.get(x, 0) + 1
        w = 1
        for x, m in mult.items():
            w *= falling_factorial(cfg[x], m)
        if w:
            total = total + F.value(point) * w
    return total / falling_factorial(N, q) if F.model.field == "float" \
        else total * Fraction(1, falling_factorial(N, q))


# ---------------------------------------------------------------------------
# oracles
#
# The mass factor of a path multiplies level by level:
# prod_lvl gamma^N_lvl(1)^{q_lvl} = prod_k eta^N_k(G_k)^{r_k} with
# r_k = sum_{lvl > k} q_lvl, so a block moment scales the carried vector
# by the mass power of each level k < n before the transition.


def _block_weigh(model: FKModel, N: int, qvec: Sequence[int]) -> Weigh:
    """Per-level step of a block moment: the vector is a table over the
    coordinates frozen so far; leaving level k multiplies it by
    eta^N_k(G_k)^{r_k} and extends it by the q_k-fold count products of
    the level-k configuration."""
    rest = [sum(qvec[k + 1:]) for k in range(len(qvec))]

    def weigh(k: int, cfg: Config, vec: List[Scalar]) -> List[Scalar]:
        m = _level_mass(model, k, cfg, N) ** rest[k]
        return [v * m * c for v in vec for c in _count_products(cfg, qvec[k])]

    return weigh


def exact_QN_oracle(model: FKModel, N: int,
                    q: Union[int, Sequence[int]],
                    F: TensorFunction,
                    n: Optional[int] = None,
                    caps: Caps = DEFAULT_CAPS) -> Scalar:
    """Exact expectation of the unnormalized empirical tensor moment.

    With integer q the moment is the q-fold tensor at level n; with a
    block-size sequence q the coordinates of F read one level per block in
    time order and the weight multiplies the per-level masses.

    caps.configs bounds the configurations of each level and caps.tensor
    the table over the coordinates frozen before level n."""
    if isinstance(q, int):
        if n is None:
            if len(set(F.levels)) != 1:
                raise InvalidParameter("n needed for a multi-level F")
            n = F.levels[0]
        qvec = (0,) * n + (q,)
    else:
        qvec = tuple(int(v) for v in q)
        n = len(qvec) - 1
    want: Tuple[int, ...] = ()
    for lvl, cnt in enumerate(qvec):
        want += (lvl,) * cnt
    if F.levels != want:
        raise InvalidParameter("F domain %r does not match blocks %r"
                               % (F.levels, want))
    frozen = 1
    for k in range(n):
        frozen *= model.size(k) ** qvec[k]
    if frozen > caps.tensor:
        raise CapExceeded("frozen-coordinate table too large",
                          predicted=frozen, cap=caps.tensor)
    weigh = _block_weigh(model, N, qvec)
    law = _forward(model, N, n, [model.one], weigh, caps)
    # the last step completes the expected weighted count tensor, which is
    # paired with F once
    moment = [model.zero] * len(F.data)
    for cfg, vec in law.items():
        for i, t in enumerate(weigh(n, cfg, vec)):
            moment[i] = moment[i] + t
    total = sum((f * t for f, t in zip(F.data, moment) if t), model.zero)
    return total / N ** F.arity if model.field == "float" \
        else total * Fraction(1, N ** F.arity)


def exact_QN_dot_oracle(model: FKModel, N: int, n: int, q: int,
                        F: TensorFunction,
                        caps: Caps = DEFAULT_CAPS) -> Scalar:
    """Exact expectation of the injective unnormalized moment at level n."""
    if F.levels != (n,) * q:
        raise InvalidParameter("F must live on the q-fold level-n space")
    if q > N:
        raise InvalidParameter("injective tensor needs q <= N")
    law = _forward(model, N, n, [model.one],
                   _block_weigh(model, N, (0,) * n + (q,)), caps)
    total = model.zero
    for cfg, vec in law.items():
        total = total + vec[0] * dot_moment(cfg, F, N)
    return total


def exact_PN_oracle(model: FKModel, N: int, n: int, q: int,
                    F: TensorFunction,
                    caps: Caps = DEFAULT_CAPS) -> Scalar:
    """Exact law of a q-particle block: expectation of the injective
    normalized moment, which equals the joint law of q distinct particles."""
    if F.levels != (n,) * q:
        raise InvalidParameter("F must live on the q-fold level-n space")
    if q > N:
        raise InvalidParameter("needs q <= N")
    dist = exact_config_distribution(model, N, n, caps)[n]
    total = model.zero
    for cfg, w in dist.items():
        total = total + w * dot_moment(cfg, F, N)
    return total


def exact_eta_tensor_oracle(model: FKModel, N: int, n: int, q: int,
                            F: TensorFunction,
                            caps: Caps = DEFAULT_CAPS) -> Scalar:
    """Exact expectation of the plain normalized moment at level n."""
    if F.levels != (n,) * q:
        raise InvalidParameter("F must live on the q-fold level-n space")
    dist = exact_config_distribution(model, N, n, caps)[n]
    total = model.zero
    for cfg, w in dist.items():
        total = total + w * tensor_moment(cfg, F, N)
    return total


def exact_EN_oracle(model: FKModel, N: int, n: int, q: int,
                    caps: Caps = DEFAULT_CAPS) -> Scalar:
    """Exact q-th centered moment of the relative mass defect at level n.

    With d_k = eta^N_k(G_k)/eta_k(G_k) - 1, the defect after level k obeys
    Z_k = Z_{k-1}(1 + d_k) - d_k from Z_{-1} = 0, and Z_n = 1 - X with
    X = gamma^N_n(G_n)/gamma_n(G_n).  The pass carries the powers
    Z^0..Z^q per configuration; these stay small, where a binomial
    expansion of (1 - X)^q would cancel terms of order one in float mode."""
    if q < 0:
        raise InvalidParameter("q must be >= 0")
    fl = flow(model)
    means = [sum(e * g for e, g in zip(fl.eta_vec[k], model.G[k]))
             for k in range(n + 1)]

    def step(k: int, cfg: Config, vec: List[Scalar]) -> List[Scalar]:
        d = _level_mass(model, k, cfg, N) / means[k] - 1
        return [sum(comb(j, i) * (1 + d) ** i * (-d) ** (j - i) * vec[i]
                    for i in range(j + 1))
                for j in range(q + 1)]

    law = _forward(model, N, n, [model.one] + [model.zero] * q, step, caps)
    return sum((step(n, cfg, vec)[q] for cfg, vec in law.items()),
               model.zero)


# ---------------------------------------------------------------------------
# Monte Carlo simulator


def simulate(model: FKModel, N: int, seed: int,
             horizon: Optional[int] = None,
             replica: int = 0) -> List[np.ndarray]:
    """One replica of the particle system; returns per-level index arrays.

    Streams are keyed by (seed, replica): replicas can run in any order or
    in parallel and still reproduce byte for byte.
    """
    if N < 1:
        raise InvalidParameter("N must be >= 1")
    hz = model.horizon if horizon is None else horizon
    if not 0 <= hz <= model.horizon:
        raise InvalidParameter("horizon outside the model range")
    rng = np.random.Generator(np.random.Philox(
        key=np.array([seed % 2 ** 64, replica % 2 ** 64], dtype=np.uint64)))
    p0 = np.array([float(v) for v in model.eta0], dtype=np.float64)
    p0 = p0 / p0.sum()
    levels = [rng.choice(model.size(0), size=N, p=p0)]
    for k in range(1, hz + 1):
        counts = np.bincount(levels[-1], minlength=model.size(k - 1))
        g = np.array([float(v) for v in model.G[k - 1]])
        mk = np.array([[float(v) for v in row] for row in model.M[k - 1]])
        weights = counts * g
        mix = weights @ mk
        mix = mix / mix.sum()
        levels.append(rng.choice(model.size(k), size=N, p=mix))
    return levels


def trajectory_config(traj: Sequence[np.ndarray], model: FKModel,
                      k: int) -> Config:
    return tuple(int(v) for v in
                 np.bincount(traj[k], minlength=model.size(k)))


def estimators(model: FKModel, traj: Sequence[np.ndarray], n: int,
               f: Optional[TensorFunction] = None,
               F: Optional[TensorFunction] = None,
               q: Optional[int] = None) -> Dict[str, Scalar]:
    """Empirical estimators of one trajectory at level n.

    Occupation counts are integers, so every estimator value is exact in
    rational mode even though the trajectory itself was sampled in floats.
    """
    N = len(traj[0])
    path = tuple(trajectory_config(traj, model, k) for k in range(n + 1))
    norms = _gamma_norms(model, path, N)
    out: Dict[str, Scalar] = {"gamma_norm": norms[n]}
    if f is not None:
        if f.levels != (n,):
            raise InvalidParameter("f must be a single-coordinate function")
        eta_f = tensor_moment(path[n], f, N)
        out["eta"] = eta_f
        out["gamma"] = norms[n] * eta_f
    if F is not None:
        if q is None:
            q = F.arity
        if F.levels != (n,) * q:
            raise InvalidParameter("F must live on the q-fold level-n space")
        out["eta_tensor"] = tensor_moment(path[n], F, N)
        out["gamma_tensor"] = norms[n] ** q * out["eta_tensor"]
        if q <= N:
            out["eta_dot"] = dot_moment(path[n], F, N)
            out["gamma_dot"] = norms[n] ** q * out["eta_dot"]
    return out


def mc_gamma_mean(model: FKModel, N: int, seed: int, replicas: int,
                  n: int, f: TensorFunction) -> Tuple[float, float]:
    """Replica mean and standard error of the unnormalized estimator."""
    vals: List[float] = []
    for r in range(replicas):
        traj = simulate(model, N, seed, horizon=n, replica=r)
        est = estimators(model, traj, n, f=f)
        vals.append(float(est["gamma"]))
    mean = fsum(vals) / replicas
    var = fsum((v - mean) ** 2 for v in vals) / (replicas - 1)
    return mean, (var / replicas) ** 0.5
