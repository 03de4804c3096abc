"""Fluctuation routes on the moment product: the Wick pairing with its
Gaussian oracle, the centered potential moments and the normalized
q-particle block laws.

* the pair-partition (Wick) formula for a centered block function,
  cross-checked against the generic coefficient, and the joint moments of
  the limiting Gaussian field;
* the centered potential-moment expansion driven by the telescoping
  decomposition of the normalizing constant;
* normalized q-particle block laws: derivative measures, the first-order
  coefficient assembled by three independent routes, and a truncated
  report with its residuals against the ensemble oracle.

The block law up to order top is one pass (`_block_law_orders`).  It walks
every multi-index p of total size l < 2*top once, runs one moment
polynomial for the profile (p, last block widened by q) up to the highest
order that profile feeds, and adds its coefficient k, for every k > l/2,
to order k.  Each term contracts its leading coordinates against the
potential-fluctuation vectors and moves the rest to the target time in one
`_Table.map_coords` call.  All products of the pass share one dict of
set-partition tables, so each (b, s) table is built once.

Every other move through Q_{k,n} chains one-step moves on the same
kernel: the Gaussian covariance and the integral route of the first-order
block law pull observables down (`pull_coord`) and move measures forward
(`transport_block`) one level at a time, and a centered potential moment
contracts each coefficient against gbar in one `map_coords` call.

No `count`, moment `expand` or `oracle` request runs this module, so it
loads on first use: `expand --block`, `expand --wick` and `verify`.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .classsum import (build_wick_forest, delta_colored,
                       first_order_path_forest, pair_merge_forest)
from .combinatorics import compositions
from .config import Caps, DEFAULT_CAPS
from .errors import IdentityMismatch, InvalidParameter
from .expansion import (ExpansionReport, Scalar, Targets, _check_product_caps,
                        _check_profile, _moment_polynomial, _zero_measure,
                        path_max_order)
from .fk_core import (FKModel, Flow, SignedMeasure, TensorFunction,
                      _block_levels, _over_lcm, _tensor_power, flow,
                      format_scalar, is_centered)
from .genfunc import flat_blocks, normalize_path_profile, path_profile_bar
from .particle import exact_EN_oracle, exact_PN_oracle


def _read(model: FKModel, v: Union[int, Fraction]) -> Scalar:
    # an exact value in the model's field, rounded once in float mode
    return model.scalar(v.numerator, v.denominator)

# ---------------------------------------------------------------------------
# Wick formula and its Gaussian oracle


def pair_partitions(items: Sequence) -> Iterable[List[Tuple]]:
    """All splittings of an even-length sequence of slots into unordered
    pairs; 1*3*5*...*(len-1) of them."""
    pool = list(items)
    if len(pool) % 2:
        raise InvalidParameter("pair partitions need an even number of slots")
    if not pool:
        yield []
        return
    first = pool[0]
    for i in range(1, len(pool)):
        rest = pool[1:i] + pool[i + 1:]
        for tail in pair_partitions(rest):
            yield [(first, pool[i])] + tail


def gaussian_covariance(model: FKModel, m1: int, phi1: Sequence[Scalar],
                        m2: int, phi2: Sequence[Scalar]) -> Scalar:
    """Covariance of the limiting centered field between an observable at
    time m1 and one at time m2: shared noise enters at every common step.
    Exact on the observables' exact values, rounded once in float mode."""
    return _read(model, _covariance(
        flow(model), _pull_chain(model, m1, phi1),
        _pull_chain(model, m2, phi2)))


def _covariance(fl: Flow, a: List[Tuple[Fraction, ...]],
                b: List[Tuple[Fraction, ...]]) -> Fraction:
    # sum over the common steps k of gamma_k(1) gamma_k(Q_{k,m1} phi1
    # Q_{k,m2} phi2), from the two pull chains
    return sum(fl.gnorm[k] * sum(g * x * y for g, x, y in
                                 zip(fl.gamma_vec[k], a[k], b[k]))
               for k in range(min(len(a), len(b))))


def _pull_chain(model: FKModel, m: int,
                phi: Sequence[Scalar]) -> List[Tuple[Fraction, ...]]:
    """Q_{k,m} phi for k = 0..m, exactly: phi pulled down one level at a
    time."""
    chain = [TensorFunction(model, (m,), list(phi))]
    for j in range(m, 0, -1):
        chain.insert(0, chain[0].pull_coord(0, j))
    return [tuple(Fraction(v, f.den) for v in f.nums) for f in chain]


def gaussian_product_moment(model: FKModel,
                            factors: Sequence[Tuple[int, Sequence[Scalar]]]
                            ) -> Scalar:
    """Joint moment of the limiting field over per-coordinate observables,
    summed over pair partitions of pairwise covariances.

    Each factor is (time, value table) and must integrate to zero exactly
    against the unnormalized flow at its time.  Each factor is pulled down
    once and each pair's covariance computed once; the moment is exact and
    rounded once in float mode.
    """
    fl = flow(model)
    chains = []
    for m, v in factors:
        chain = _pull_chain(model, int(m), v)
        if sum(map(operator.mul, fl.gamma_vec[int(m)], chain[-1])):
            raise InvalidParameter(
                "factor at time %d does not integrate to zero against "
                "the unnormalized flow" % m)
        chains.append(chain)
    if len(chains) % 2:
        return model.zero
    slots = range(len(chains))
    cov = {(i, j): _covariance(fl, chains[i], chains[j])
           for i, j in itertools.combinations(slots, 2)}
    return _read(model, sum(math.prod(map(cov.get, pairing))
                            for pairing in pair_partitions(slots)))

# ---------------------------------------------------------------------------
# per-time block profiles (colored genealogies)


def path_derivative_Q(model: FKModel, q: Sequence[int], k: int,
                      caps: Caps = DEFAULT_CAPS) -> SignedMeasure:
    """Order-k coefficient measure for a per-time block profile."""
    prof = _check_profile(model, q)
    top = path_max_order(prof)
    if not 0 <= k <= top:
        raise InvalidParameter("order %d outside 0..%d" % (k, top))
    return _moment_polynomial(model, prof, k, caps, {})[k]


def _wick_assignments(prof: Tuple[int, ...],
                      half: int) -> Iterable[Dict[Tuple[int, int, int], int]]:
    # multisets of merge triples (k, l, m), k <= l <= m, whose white
    # placements reproduce the profile exactly
    n = len(prof) - 1
    triples = [(a, b, c)
               for a in range(n + 1)
               for b in range(a, n + 1)
               for c in range(b, n + 1)]
    for combo in itertools.combinations_with_replacement(triples, half):
        whites = [0] * (n + 1)
        t: Dict[Tuple[int, int, int], int] = {}
        for tri in combo:
            t[tri] = t.get(tri, 0) + 1
            whites[tri[1]] += 1
            whites[tri[2]] += 1
        if tuple(whites) == prof:
            yield t


def path_wick_Q(model: FKModel, q: Sequence[int], F: TensorFunction,
                caps: Caps = DEFAULT_CAPS
                ) -> Tuple[Dict[int, Scalar], Optional[Scalar]]:
    """Low-order pairings for a certified centered block-symmetric F.

    With t the total block size, returns ({order: exact pairing for every
    order below ceil(t/2)}, order-t/2 value).  The second part is None for
    odd t.  For even t it is the merge-assignment sum over Wick forests,
    cross-checked against the generic coefficient before returning; a
    disagreement raises IdentityMismatch.
    """
    prof = _check_profile(model, q)
    if F.levels != _block_levels(prof):
        raise InvalidParameter("F does not match the block layout %r"
                               % (prof,))
    if not is_centered(model, F):
        raise InvalidParameter(
            "Wick evaluation needs block-symmetric zero conditional means; "
            "run center_function first")
    tot = sum(prof)
    lowest = (tot + 1) // 2
    half = tot // 2
    coeffs = [t.pair(F)
              for t in _moment_polynomial(model, prof, half, caps, {})]
    vanishing = dict(enumerate(coeffs[:lowest]))
    if tot % 2:
        return vanishing, None
    qfact = 1
    for qj in prof:
        qfact *= math.factorial(qj)
    pairs = path_profile_bar(prof)
    total = _zero_measure(model, F.levels)
    for t in _wick_assignments(prof, half):
        diag = sum(c for (kk, l, m), c in t.items() if l == m)
        tfact = 1
        for c in t.values():
            tfact *= math.factorial(c)
        coeff = Fraction(qfact, (2 ** diag) * tfact)
        f = build_wick_forest(t)
        assert f.pair_profile == pairs
        total = total + delta_colored(model, f, prof).scale(coeff)
    value, generic = total.pair(F), coeffs[half]
    if value != generic:
        raise IdentityMismatch(
            "merge-assignment sum disagrees with the generic order-%d "
            "coefficient" % half, lhs=value, rhs=generic)
    return vanishing, value

# ---------------------------------------------------------------------------
# centered potential moments


def gbar_vector(model: FKModel, k: int) -> Tuple[Fraction, ...]:
    """Potential fluctuation observable at time k, normalized so the
    telescoped mass defect is the running sum of its block integrals;
    integrates to zero against the unnormalized flow.  Exact values, as
    Fractions in either field, from the integer row of G_k."""
    fl = flow(model)
    g, gden = model.G_rows[k]
    mean = sum(map(operator.mul, fl.eta_vec[k], g)) / gden
    gmass = mean * fl.gnorm[k]
    return tuple((mean - Fraction(v, gden)) / gmass for v in g)


def centered_moment_expansion(model: FKModel, n: int, q: int,
                              Ns: Sequence[int] = (),
                              caps: Caps = DEFAULT_CAPS) -> "ExpansionReport":
    """Exact expansion of the q-th moment of the relative mass defect.

    Orders below ceil(q/2) vanish and are omitted; the top order is
    (n+1)(q-1).  When ensemble sizes are supplied, the report is checked
    against the ensemble oracle exactly before being returned: this
    expansion is a genuine polynomial in 1/N.
    """
    if q < 2:
        raise InvalidParameter("needs q >= 2")
    if n < 0 or n > model.horizon:
        raise InvalidParameter("n outside 0..%d" % model.horizon)
    # per level j, the move tail that integrates against gbar_j on integers
    tails = [([[v] for v in nums], None, den) for nums, den in
             (_over_lcm(gbar_vector(model, j)) for j in range(n + 1))]
    lowest = (q + 1) // 2
    top = (n + 1) * (q - 1)
    orders = dict.fromkeys(range(lowest, top + 1), Fraction(0))
    qfact = math.factorial(q)
    targets: Targets = {}
    for p in compositions(q, n + 1):
        prof = normalize_path_profile(p)
        # pmax >= q - 1 >= lowest: the first level holds all q blacks
        pmax = path_max_order(prof)
        coeff = Fraction(qfact, math.prod(map(math.factorial, p)))
        coeffs = _moment_polynomial(model, prof, pmax, caps, targets)
        moves = [(pos,) + tails[j] for pos, j in
                 reversed(list(enumerate(_block_levels(prof))))]
        for k in range(lowest, pmax + 1):
            val = coeffs[k].map_coords(moves)
            orders[k] += coeff * Fraction(val.nums[0], val.den)
    report = ExpansionReport(
        kind="mass-defect-moment",
        params={"n": n, "q": q, "field": model.field},
        base=model.zero,
        orders={k: _read(model, v) for k, v in orders.items()},
        evaluations={N: exact_EN_oracle(model, N, n, q, caps) for N in Ns},
    )
    report.check()
    return report

# ---------------------------------------------------------------------------
# normalized q-particle block laws


def _contract_and_move(mu: SignedMeasure, vecs: Dict[int, Sequence[Scalar]],
                       step: tuple) -> SignedMeasure:
    """One map_coords call: integrate out the coordinates vecs names against
    their vectors, then move every other one by step, the (rows, level)
    or (rows, level, den) tail of a move."""
    moves = [(pos, [[v] for v in vecs[pos]], None)
             for pos in sorted(vecs, reverse=True)]
    moves += [(pos,) + step for pos in range(mu.arity - len(vecs))]
    return mu.map_coords(moves)


def _center_image(sigma: SignedMeasure, eta: SignedMeasure,
                  mass: Fraction) -> SignedMeasure:
    """Materialize pairing-against-centered-argument: subtract the exact
    total mass times the limiting product law eta, divide by mass, the
    q-th power of the unnormalized mass at the target time."""
    total = Fraction(sum(sigma.nums), sigma.den)
    return (sigma - eta.scale(total)).scale(1 / mass)


def _block_law_orders(model: FKModel, n_plus_1: int, q: int, top: int,
                      caps: Caps) -> List[SignedMeasure]:
    """Coefficients 0..top of the q-particle block law at time n_plus_1.

    Order zero is the limiting product law itself.  Order k >= 1 sums, over
    every multi-index p of total size l < 2k, the order-k per-time
    coefficient of the profile (p, last block widened by q), contracted
    with potential-fluctuation observables on the p coordinates, moved one
    step forward on the rest, and centered.  One walk over the p serves
    every order: each profile runs one moment polynomial up to the highest
    order it feeds, and all of them share one dict of partition tables.
    Every cap is checked on the planned profiles before the first product.
    """
    np1 = n_plus_1
    if top < 0:
        raise InvalidParameter("truncation order top=%d is negative" % top)
    if np1 < 1:
        raise InvalidParameter("needs a target time >= 1")
    if np1 > model.horizon:
        raise InvalidParameter("model horizon %d too short" % model.horizon)
    if q < 1:
        raise InvalidParameter("need q >= 1 and k >= 0")
    caps.check_tensor(model.size(np1) ** q)
    n = np1 - 1
    plan = []
    for l in range(2 * top):
        for p in compositions(l, n + 1):
            prof = p[:-1] + (p[-1] + q,)
            ks = range(l // 2 + 1, min(top, path_max_order(prof)) + 1)
            if ks:
                _check_product_caps(model, prof, caps)
                plan.append((l, p, prof, ks))
    fl = flow(model)
    gb = [gbar_vector(model, j) for j in range(n + 1)]
    rows, den = model.exact_q(np1)
    qstep = (rows, np1, den)
    targets: Targets = {}
    sums = [_zero_measure(model, (np1,) * q)] * (top + 1)
    for l, p, prof, ks in plan:
        coeffs = _moment_polynomial(model, prof, ks[-1], caps, targets)
        vecs = dict(enumerate(
            gb[j] for j, pj in enumerate(p) for _ in range(pj)))
        pfact = math.prod(math.factorial(pj) for pj in p)
        coeff = Fraction(math.factorial(q - 1 + l),
                         math.factorial(q - 1) * pfact)
        for k in ks:
            term = _contract_and_move(coeffs[k], vecs, qstep).scale(coeff)
            sums[k] = sums[k] + term
    eta = _tensor_power(model, np1, fl.eta_vec[np1], q)
    mass = fl.gnorm[np1] ** q
    return [eta] + [_center_image(total, eta, mass) for total in sums[1:]]


def derivative_P(model: FKModel, n_plus_1: int, q: int, k: int,
                 caps: Caps = DEFAULT_CAPS) -> SignedMeasure:
    """Order-k coefficient of the q-particle block law at time n_plus_1:
    the last entry of the block-law pass up to k."""
    return _block_law_orders(model, n_plus_1, q, k, caps)[k]


def first_order_P(model: FKModel, n_plus_1: int, q: int,
                  caps: Caps = DEFAULT_CAPS) -> SignedMeasure:
    """First-order coefficient of the block law, computed three ways.

    Route one is the generic coefficient from the block-law pass up to
    order one, which also checks the arguments; the pass's order zero is
    the limiting product law that every route centers against.  Route two
    rebuilds the two closed-form pieces from named genealogy classes: the
    same-time pair-merge shapes moved one step forward, and the per-time
    classes tying one potential-fluctuation coordinate to the block.  Route
    three builds the same two pieces directly as integrals, without
    touching the class enumeration at all.  Any disagreement raises
    IdentityMismatch.

    The pair-merge display carries no counterweight term; that is only
    sound because the centered image of the limiting product flow
    vanishes, which is checked here explicitly instead of assumed.
    """
    eta, generic = _block_law_orders(model, n_plus_1, q, 1, caps)
    np1 = n_plus_1
    n = np1 - 1
    fl = flow(model)
    mass = fl.gnorm[np1] ** q
    gb = [gbar_vector(model, j) for j in range(n + 1)]
    half = Fraction(q * (q - 1), 2)
    zero = _zero_measure(model, (np1,) * q)
    rows, den = model.exact_q(np1)
    qstep = (rows, np1, den)

    counter = _center_image(
        _tensor_power(model, np1, fl.gamma_vec[np1], q), eta, mass)
    if counter != zero:
        raise IdentityMismatch(
            "centered image of the limiting product flow is not zero",
            lhs=counter, rhs=zero)

    piece1 = zero
    if q >= 2:
        for kk in range(n + 1):
            d = delta_colored(model, pair_merge_forest(n, q, kk),
                              flat_blocks(n, q))
            piece1 = piece1 + d.transport_block(0, np1)
        piece1 = piece1.scale(half)
    piece2 = zero
    for m in range(n + 1):
        qm = [0] * (n + 1)
        qm[m] += 1
        qm[n] += q
        for kk in range(m + 1):
            fbar = first_order_path_forest(n, q, kk, m)
            nu = delta_colored(model, fbar, qm)
            # the fluctuation observable must hit the merge-tied output
            # slot; summing over every block-m slot finds it without
            # depending on coordinate order, because contractions against
            # plain-chain slots vanish (the observable integrates to zero
            # against the flow) and at m = n the two merge slots agree
            rho: Optional[SignedMeasure] = None
            for pos in range(qm[m]):
                term = _contract_and_move(nu, {pos: gb[m]}, qstep)
                rho = term if rho is None else rho + term
            assert rho is not None
            if m == n:
                rho = rho.scale(Fraction(1, 2))
            piece2 = piece2 + rho
    piece2 = piece2.scale(q * q)
    shapes = _center_image(piece1 + piece2, eta, mass).symmetrize_blocks()

    def moved(mu: SignedMeasure, kk: int, c: Scalar) -> SignedMeasure:
        # c * gnorm_kk * mu, every coordinate moved from level kk to np1
        mu = mu.scale(c * fl.gnorm[kk])
        for j in range(kk + 1, np1 + 1):
            mu = mu.transport_block(0, j)
        return mu

    ipieces = zero
    if q >= 2:
        dup = [0] + list(range(q - 1))
        for kk in range(n + 1):
            gk = _tensor_power(model, kk, fl.gamma_vec[kk], q - 1)
            ipieces = ipieces + moved(gk.pushforward(dup), kk, half)
    for m in range(n + 1):
        pulled = _pull_chain(model, m, gb[m])
        for kk in range(m + 1):
            gk = _tensor_power(model, kk, fl.gamma_vec[kk], q)
            ipieces = ipieces + moved(gk.weight_coord(0, pulled[kk]), kk,
                                      q * q)
    integrals = _center_image(ipieces, eta, mass).symmetrize_blocks()

    if shapes != generic:
        raise IdentityMismatch(
            "named-class route disagrees with the generic first-order "
            "coefficient (tv gap %s)"
            % format_scalar((shapes - generic).tv_norm()),
            lhs=shapes, rhs=generic)
    if integrals != generic:
        raise IdentityMismatch(
            "integral route disagrees with the generic first-order "
            "coefficient (tv gap %s)"
            % format_scalar((integrals - generic).tv_norm()),
            lhs=integrals, rhs=generic)
    return generic


def expansion_report_P(model: FKModel, n_plus_1: int, q: int,
                       F: TensorFunction,
                       Ns: Sequence[int] = (),
                       top: Optional[int] = None,
                       caps: Caps = DEFAULT_CAPS) -> ExpansionReport:
    """Truncated expansion of the q-particle block law paired with F.

    This family has a non-polynomial tail, so instead of an exactness
    check the report carries the residuals against the ensemble oracle and
    their scaled versions at one order past the truncation.
    """
    np1 = n_plus_1
    if top is None:
        top = 2
    law = _block_law_orders(model, np1, q, top, caps)
    Fs = F.symmetrize_blocks()
    base, *rest = [c.pair(Fs) for c in law]
    orders: Dict[int, object] = dict(enumerate(rest, start=1))
    report = ExpansionReport(
        kind="block-law",
        params={"n_plus_1": np1, "q": q, "top": top, "field": model.field},
        base=base,
        orders=orders,
        evaluations={N: exact_PN_oracle(model, N, np1, q, Fs, caps)
                     for N in Ns},
    )
    resid = {N: report.evaluations[N] - report.partial_sum(N)
             for N in report.evaluations}
    report.diagnostics = {
        "residuals": resid,
        "scaled_residuals": {N: (N ** (top + 1)) * r
                             for N, r in resid.items()},
    }
    return report
