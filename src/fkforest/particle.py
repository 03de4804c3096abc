"""The exact configuration oracle of the N-particle mean-field model.

The oracle evolves the exact law of the unordered particle system:
configurations are occupation-count tuples, transitions are multinomial
draws from the selection-mutation mixture, and every expectation is a
finite sum.  Exchangeability makes configurations sufficient for all the
symmetric functionals handled here.  Every oracle is one forward pass over
the configurations of each level: the unnormalized ones carry, per
configuration, the path probability times the mass factor (and, for a
per-time block profile, a table over the coordinates already frozen), so
the work is sum_k |C_k||C_{k+1}| transitions, never one walk per path.

In rational mode the pass runs on Python ints.  From a level k-1
configuration cfg the mixture is a_y / D with integer a_y = sum_x cfg[x]
Q_k[x, y] (Q_k = G_{k-1} M_{k-1} over the lcm of its entries, which
cancels) and D = sum_y a_y, so a transition row is the integer
multinomial(c) prod_y a_y^{c_y} over D^N.  A law holds integer numerators
over one denominator per level: a transition rescales each source to the
lcm of the sources' D^N, and a weigh step folds its constant factors
(the potential denominators and N) into that denominator.  Each target
configuration takes the weights of all sources at once, and each of its
entries is one dot product of those weights with the sources' entries.
Each oracle builds one Fraction at the end.  Float mode runs the same
loops on floats with every row divided by its total on the spot, so its
denominators stay 1, and adds the sources left to right.

The oracles respect the model's scalar field.  The Monte Carlo side,
which samples the same dynamics, is :mod:`fkforest.montecarlo`; it loads
on first use, and the exact oracles never import it or numpy.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce
from math import comb
from operator import add, mul
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from .combinatorics import falling_factorial
from .config import Caps, DEFAULT_CAPS
from .errors import CapExceeded, InvalidParameter
from .fk_core import (FKModel, Scalar, TensorFunction, _block_levels, _sum,
                      flow, q_operator)
from .genfunc import normalize_path_profile

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


def _check_configs(model: FKModel, N: int, horizon: int, caps: Caps,
                   widths: Sequence[int]) -> None:
    """Refuse a pass over levels 0..horizon before it starts: past
    caps.configs configurations on one level, or past caps.series work.
    The work is N sum_k T_k w_k, with T_0 = |C_0| and T_k = |C_(k-1)||C_k|
    the transitions into level k and w_k the length of the vectors they
    carry; N stands for the size of the numerators, which grows with it."""
    if N < 1:
        raise InvalidParameter("N must be >= 1")
    if not 0 <= horizon <= model.horizon:
        raise InvalidParameter("horizon outside the model range")
    counts = []
    for k in range(horizon + 1):
        cnt = config_count(model.size(k), N)
        if cnt > caps.configs:
            raise CapExceeded("configuration space too large at level %d" % k,
                              predicted=cnt, cap=caps.configs)
        counts.append(cnt)
    work = N * sum(a * b * w for a, b, w in zip([1] + counts, counts, widths))
    if work > caps.series:
        raise CapExceeded("configuration pass too large", predicted=work,
                          cap=caps.series)


def _adder(model: FKModel) -> Callable[[Iterable[Scalar]], Scalar]:
    # builtin sum on the ints of rational mode, fk_core._sum on floats
    return sum if model.field == "rational" else _sum


def _terms(F: TensorFunction) -> Tuple[Sequence[Scalar], int]:
    # F's entries over a denominator: its numerators in rational mode, its
    # rounded entries over 1 in float mode, where the oracle adds floats
    if F.model.field == "rational":
        return F.nums, F.den
    return F.data, 1


def _potential(model: FKModel, k: int, N: int) -> Tuple[List[Scalar], int]:
    """G_k over one denominator that includes N, so that the empirical
    mean eta^N_k(G_k) of cfg is sum_x cfg[x] g[x] / den."""
    nums, den = model.G_rows[k]
    if model.field == "float":
        return [g / den / N for g in nums], 1
    return list(nums), den * N


# ---------------------------------------------------------------------------
# forward pass over configurations
#
# A law here maps each level-k configuration to a vector: the sum, over
# the configuration paths that reach it, of the path probability times a
# per-path vector built level by level, as numerators over a denominator
# shared by the whole level.  Carrying the vectors forward one transition
# at a time costs sum_k |C_k||C_{k+1}| instead of the prod_k |C_k| of
# walking every path.

Law = Dict[Config, List[Scalar]]
# a weigh step, built once per level k: the map cfg, vec -> new vec and the
# factor it puts on the level denominator
Step = Callable[[Config, List[Scalar]], List[Scalar]]
Weigh = Callable[[int], Tuple[Step, int]]


def _spread(model: FKModel, N: int, n_states: int,
            sources: Sequence[Tuple[Sequence[Scalar], List[Scalar]]]
            ) -> Tuple[Law, int]:
    """Move each source vector to every configuration of N draws from the
    law a / sum(a) of its own row a, scaled by the multinomial weight.

    Rational rows are ints: the weight of c is multinomial(c) prod_y
    a_y^{c_y} over D^N with D = sum(a).  Each vector is first rescaled by
    (L // D)^N, L the lcm of the row totals, so that all sources share the
    denominator L^N, which is returned.  Float rows are divided by their
    totals here and the returned denominator is 1.

    Each target takes the weights of all sources at once, and each of its
    entries is one dot product of those weights with the sources' entries.
    Float mode adds the sources of nonzero weight left to right, so that
    it rounds after each term whatever sum() does."""
    exact = model.field == "rational"
    totals = [sum(a) if exact else _sum(a) for a, _ in sources]
    L = math.lcm(*totals) if exact else 1
    rows, vecs = [], []
    for (row, vec), total in zip(sources, totals):
        if exact:
            scale = (L // total) ** N
            if scale != 1:
                vec = [v * scale for v in vec]
        else:
            # float rows stay floats: an exact-integer pass in float mode
            # took the blend3 oracle at N = 12 from 0.066 s to 13.0 s
            # (one 2-vCPU machine, Python 3.11)
            row = [a / total for a in row]
        rows.append(row)
        vecs.append(vec)
    # pows[y][c]: a_y^c of every source, in source order
    pows = [list(zip(*[itertools.accumulate([a] * N, mul, initial=1)
                       for a in col]))
            for col in zip(*rows)]
    cols = list(zip(*vecs))
    fact = list(itertools.accumulate(range(1, N + 1), mul, initial=1))
    out: Law = {}
    for cfg in _configs(n_states, N):
        weights = pows[0][cfg[0]]
        for p, c in zip(pows[1:], cfg[1:]):
            weights = list(map(mul, weights, p[c]))
        if not any(weights):
            continue
        if exact:
            cur = [sum(map(mul, weights, col)) for col in cols]
        else:
            ws, vs = zip(*[(w, v) for w, v in zip(weights, vecs) if w])
            cur = [reduce(add, map(mul, ws, col)) for col in zip(*vs)]
        coeff = fact[N]
        for c in cfg:
            coeff //= fact[c]
        out[cfg] = [v * coeff for v in cur] if coeff != 1 else cur
    return out, L ** N


def _start(model: FKModel, N: int, vec: List[Scalar]) -> Tuple[Law, int]:
    """Level-0 law: iid draws from eta0, each carrying vec."""
    row = (model.eta0 if model.field == "float"
           else model.eta0_row[0])
    return _spread(model, N, model.size(0), [(row, vec)])


def _transport(model: FKModel, k: int, N: int, law: Law) -> Tuple[Law, int]:
    """Level-k law from the level k-1 law: every vector moves to each
    level-k configuration, scaled by the transition probability from the
    selection-mutation mixture of its configuration."""
    rows = (model.exact_q(k)[0] if model.field == "rational"
            else q_operator(model, k))
    cols = list(zip(*rows))
    add_up = _adder(model)
    return _spread(model, N, model.size(k), [
        ([add_up(map(mul, cfg, col)) for col in cols], vec)
        for cfg, vec in law.items()])


def _forward(model: FKModel, N: int, n: int, start: List[Scalar],
             weigh: Weigh, caps: Caps,
             widths: Optional[Sequence[int]] = None) -> Tuple[Law, int]:
    """Level-n law and its denominator; the per-path vector starts at
    `start` and is replaced by the level-k step of weigh on leaving each
    level k < n.  widths[k] is the length of the vectors that reach level
    k, len(start) everywhere by default."""
    _check_configs(model, N, n, caps, widths or [len(start)] * (n + 1))
    law, den = _start(model, N, start)
    for k in range(1, n + 1):
        step, scale = weigh(k - 1)
        law, spread = _transport(model, k, N, {cfg: step(cfg, vec)
                                               for cfg, vec in law.items()})
        den *= scale * spread
    return law, den


def _keep(k: int) -> Tuple[Step, int]:
    """The weigh of a plain law: vectors pass unchanged."""
    return (lambda cfg, vec: vec), 1


def exact_config_distribution(model: FKModel, N: int, horizon: int,
                              caps: Caps = DEFAULT_CAPS
                              ) -> List[ConfigDistribution]:
    """Exact law of the occupation counts at levels 0..horizon."""
    _check_configs(model, N, horizon, caps, [1] * (horizon + 1))
    laws = [_start(model, N, [1])]
    for k in range(1, horizon + 1):
        law, den = _transport(model, k, N, laws[-1][0])
        laws.append((law, laws[-1][1] * den))
    return [{cfg: model.scalar(vec[0], den) for cfg, vec in law.items()}
            for law, den in laws]


# ---------------------------------------------------------------------------
# per-configuration counts


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


def _dot_counts(cfg: Config, q: int) -> List[int]:
    """Number of injective picks of q particles of cfg landing on each
    point x of the q-fold level domain, prod_y (cfg[y])_{m_y} with m_y the
    multiplicity of y in x, in table order."""
    out = []
    for point in itertools.product(range(len(cfg)), repeat=q):
        w = 1
        for x in set(point):
            w *= falling_factorial(cfg[x], point.count(x))
        out.append(w)
    return out


def _pair(model: FKModel, values: Sequence[Scalar],
          counts: Sequence[Scalar]) -> Scalar:
    return _adder(model)(f * w for f, w in zip(values, counts) if w)


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
    add_up = _adder(model)

    def weigh(k: int) -> Tuple[Step, int]:
        g, gden = _potential(model, k, N)
        r, q = rest[k], qvec[k]

        def step(cfg: Config, vec: List[Scalar]) -> List[Scalar]:
            m = add_up(c * x for c, x in zip(cfg, g)) ** r
            mc = [m * c for c in _count_products(cfg, q)]
            return [v * w for v in vec for w in mc]

        return step, gden ** r

    return weigh


def exact_QN_oracle(model: FKModel, N: int, q: Sequence[int],
                    F: TensorFunction,
                    caps: Caps = DEFAULT_CAPS) -> Scalar:
    """Exact expectation of the unnormalized empirical block moment over
    the block profile q = (q_0..q_n), checked and stripped of trailing
    zero blocks as in the expansion (`normalize_path_profile`).

    The coordinates of F read one level per block in time order, and the
    weight multiplies the per-level masses.  The plain q-fold tensor at
    level n is the profile flat_blocks(n, q).

    caps.configs bounds the configurations of each level and caps.tensor
    the table over the coordinates frozen before level n; caps.series
    bounds the work of the pass (`_check_configs`)."""
    qvec = normalize_path_profile(q)
    n = len(qvec) - 1
    want = _block_levels(qvec)
    if F.levels != want:
        raise InvalidParameter("F domain %r does not match blocks %r"
                               % (F.levels, want))
    # the vector that reaches level k is the table over the coordinates
    # frozen before it
    widths = [1]
    for k in range(n):
        widths.append(widths[-1] * model.size(k) ** qvec[k])
    if widths[-1] > caps.tensor:
        raise CapExceeded("frozen-coordinate table too large",
                          predicted=widths[-1], cap=caps.tensor)
    weigh = _block_weigh(model, N, qvec)
    law, den = _forward(model, N, n, [1], weigh, caps, widths)
    # the last step completes the expected weighted count tensor, which is
    # paired with F once
    step, scale = weigh(n)
    moment: List[Scalar] = [0] * len(F.nums)
    for cfg, vec in law.items():
        for i, t in enumerate(step(cfg, vec)):
            moment[i] += t
    fnum, fden = _terms(F)
    return model.scalar(_pair(model, fnum, moment),
                        fden * den * scale * N ** F.arity)


def _pair_law(model: FKModel, law: Law, den: int, F: TensorFunction,
              counts: Callable[[Config, int], List[int]],
              norm: int) -> Scalar:
    """Sum over a law of the carried weight times the empirical moment
    pairing F with the per-point counts of each configuration over norm."""
    fnum, fden = _terms(F)
    total = _adder(model)(vec[0] * _pair(model, fnum, counts(cfg, F.arity))
                          for cfg, vec in law.items())
    return model.scalar(total, den * fden * norm)


def exact_QN_dot_oracle(model: FKModel, N: int, n: int, q: int,
                        F: TensorFunction,
                        caps: Caps = DEFAULT_CAPS) -> Scalar:
    """Exact expectation of the injective unnormalized moment at level n."""
    if F.levels != (n,) * q:
        raise InvalidParameter("F must live on the q-fold level-n space")
    if q > N:
        raise InvalidParameter("injective tensor needs q <= N")
    law, den = _forward(model, N, n, [1],
                        _block_weigh(model, N, (0,) * n + (q,)), caps)
    return _pair_law(model, law, den, F, _dot_counts,
                     falling_factorial(N, q))


def exact_PN_oracle(model: FKModel, N: int, n: int, q: int,
                    F: TensorFunction,
                    caps: Caps = DEFAULT_CAPS) -> Scalar:
    """Exact law of a q-particle block: expectation of the injective
    normalized moment, which equals the joint law of q distinct particles."""
    if F.levels != (n,) * q:
        raise InvalidParameter("F must live on the q-fold level-n space")
    if q > N:
        raise InvalidParameter("needs q <= N")
    law, den = _forward(model, N, n, [1], _keep, caps)
    return _pair_law(model, law, den, F, _dot_counts,
                     falling_factorial(N, q))


def exact_eta_tensor_oracle(model: FKModel, N: int, n: int, q: int,
                            F: TensorFunction,
                            caps: Caps = DEFAULT_CAPS) -> Scalar:
    """Exact expectation of the plain normalized moment at level n."""
    if F.levels != (n,) * q:
        raise InvalidParameter("F must live on the q-fold level-n space")
    law, den = _forward(model, N, n, [1], _keep, caps)
    return _pair_law(model, law, den, F, _count_products, N ** q)


def exact_EN_oracle(model: FKModel, N: int, n: int, q: int,
                    caps: Caps = DEFAULT_CAPS) -> Scalar:
    """Exact q-th centered moment of the relative mass defect at level n.

    With d_k = eta^N_k(G_k)/eta_k(G_k) - 1, the defect after level k obeys
    Z_k = Z_{k-1}(1 + d_k) - d_k from Z_{-1} = 0, and Z_n = 1 - X with
    X = gamma^N_n(G_n)/gamma_n(G_n).  The pass carries the powers
    Z^0..Z^q per configuration; these stay small, where a binomial
    expansion of (1 - X)^q would cancel terms of order one in float mode.

    In rational mode 1 + d_k = u/B and -d_k = (B - u)/B with u = S mu_den
    and B = gden mu_num, for S/gden the empirical mean and mu the exact
    one; entry j of the new vector then has denominator B^j, so it is
    multiplied by B^{q-j} and the level denominator by B^q."""
    if q < 0:
        raise InvalidParameter("q must be >= 0")
    # eta_k(G_k) from the exact flow, read as a float in float mode
    means = [sum(map(mul, eta, g)) / gden for eta, (g, gden)
             in zip(flow(model).eta_vec[:n + 1], model.G_rows)]
    binom = [[comb(j, i) for i in range(j + 1)] for j in range(q + 1)]
    exact = model.field == "rational"
    add_up = _adder(model)

    def weigh(k: int) -> Tuple[Step, int]:
        g, gden = _potential(model, k, N)
        mean = means[k] if exact else float(means[k])
        B = gden * mean.numerator if exact else 1
        lift = [B ** (q - j) for j in range(q + 1)]

        def step(cfg: Config, vec: List[Scalar]) -> List[Scalar]:
            S = add_up(c * x for c, x in zip(cfg, g))
            u = S * mean.denominator if exact else S / mean
            up = list(itertools.accumulate([u] * q, mul, initial=1))
            wp = list(itertools.accumulate([B - u] * q, mul, initial=1))
            return [add_up(b[i] * up[i] * wp[j - i] * vec[i]
                        for i in range(j + 1)) * lift[j]
                    for j, b in enumerate(binom)]

        return step, B ** q

    law, den = _forward(model, N, n, [1] + [0] * q, weigh, caps)
    step, scale = weigh(n)
    return model.scalar(add_up(step(cfg, vec)[q] for cfg, vec in law.items()),
                        den * scale)
