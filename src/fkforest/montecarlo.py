"""The Monte Carlo realization of the N-particle mean-field model.

It samples the dynamics of :mod:`fkforest.particle` with a counter-based
generator; replica r of seed s uses the key (s, r), so replica sets are
order-independent.  Simulation is always float; the estimators of one
trajectory read its occupation counts, so they are exact in rational
mode.  numpy is loaded only here (`simulate`, `trajectory_config`), on
first use: the exact oracles never import it, and no `count`, `expand`
or `oracle` request loads this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import fsum
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .combinatorics import falling_factorial
from .errors import InvalidParameter
from .fk_core import FKModel, Scalar, TensorFunction, _sum
from .particle import Config, _count_products, _dot_counts, _pair

if TYPE_CHECKING:
    import numpy as np


# ---------------------------------------------------------------------------
# per-configuration estimator values


def _gamma_norms(model: FKModel, path: Sequence[Config],
                 N: int) -> List[Scalar]:
    """Running unnormalized masses along a configuration path: entry k is
    the product of empirical potential means before level k."""
    out = [model.one]
    G = model.G
    for k in range(1, len(path)):
        cfg = path[k - 1]
        gmean = _sum(c * g for c, g in zip(cfg, G[k - 1]))
        out.append(out[-1] * gmean / (N if model.field == "float"
                                      else Fraction(N)))
    return out


def tensor_moment(cfg: Config, F: TensorFunction, N: int) -> Scalar:
    """Plain q-fold empirical tensor of one configuration against F."""
    return F.model.scalar(
        _pair(F.model, F.data, _count_products(cfg, F.arity)), N ** F.arity)


def dot_moment(cfg: Config, F: TensorFunction, N: int) -> Scalar:
    """Injective q-fold empirical tensor of one configuration against F."""
    q = F.arity
    if q > N:
        raise InvalidParameter("injective tensor needs q <= N")
    return F.model.scalar(_pair(F.model, F.data, _dot_counts(cfg, q)),
                          falling_factorial(N, q))

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
    import numpy as np
    rng = np.random.Generator(np.random.Philox(
        key=np.array([seed % 2 ** 64, replica % 2 ** 64], dtype=np.uint64)))

    def floats(row: Tuple[Sequence[int], int]) -> List[float]:
        # float(v) of each entry, straight from the integer row
        nums, den = row
        return [v / den for v in nums]

    p0 = np.array(floats(model.eta0_row), dtype=np.float64)
    p0 = p0 / p0.sum()
    levels = [rng.choice(model.size(0), size=N, p=p0)]
    for k in range(1, hz + 1):
        counts = np.bincount(levels[-1], minlength=model.size(k - 1))
        g = np.array(floats(model.G_rows[k - 1]))
        mk = np.array([floats(row) for row in model.M_rows[k - 1]])
        weights = counts * g
        mix = weights @ mk
        mix = mix / mix.sum()
        levels.append(rng.choice(model.size(k), size=N, p=mix))
    return levels


def trajectory_config(traj: Sequence[np.ndarray], model: FKModel,
                      k: int) -> Config:
    import numpy as np
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
    if not 0 <= n < len(traj):
        raise InvalidParameter("level %d outside the trajectory" % n)
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
