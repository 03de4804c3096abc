"""Laurent-coefficient engines for the exact particle-block measures.

Everything here turns the genealogy of a mean-field particle system into
concrete signed measures on small product spaces, plus scalar identities a
test can check to the last digit.  Four families are covered:

* unnormalized q-block moments: the exact value at finite ensemble size N,
  every coefficient of the expansion in 1/N, the low-order closed forms
  over named shapes, and the pair-partition (Wick) formula together with
  its Gaussian-moment oracle;
* the same machinery over per-time block profiles (colored genealogies);
* the centered potential-moment expansion driven by the telescoping
  decomposition of the normalizing constant;
* normalized q-particle block laws: derivative measures, the first-order
  coefficient assembled by three independent routes, and a truncated
  report with its residuals against the ensemble oracle.

Block moments are computed as one operator product.  For a profile
(q_0..q_n), level k holds b_k = q_k + .. + q_n live coordinates.  Start
from eta0 on all b_0 of them.  At each level, select among the live
coordinates, freeze the first q_k, and move the rest one step with the
weighted transition.  On the exchangeable live block the selection only
depends on the set partition of a map (`fk_core.partition_sums`): a
partition with p blocks weighs (N)_p / N**b_k at ensemble size N, and
s(p, b_k - j) in the coefficient of x**j, x = 1/N.  The exact value
applies the first weights, the coefficients carry the product as a
polynomial in x, and the two stay independent routes.

A moment report runs the coefficient polynomial and one exact route per
distinct ensemble size in one pass over the levels (see
`_select_and_transport`).  The product runs on integer stages
(`fk_core.select_partitions`, `fk_core.transport_numerators`): a stage
stacks the Python-int numerator tables of every route, each route keeps
its own denominator, and no output of a selection reads another route's
table.  One transport call moves a coordinate of the whole stack, and
the final tables become measures as they are.

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

Every route is exact in either field: a float model runs on the exact
values of its floats and rounds each value once, where it is read, so
the self-checks compare exactly in both fields.

The genealogy class sum is the same product expanded over map sequences
and grouped by orbit.  A class with per-level image sizes (m_0..m_n)
under per-level source sizes (b_0..b_n) receives, at order k,

    sum over r >= 0 with ||r|| = k of  prod_j stirling_first(m_j, b_j - r_j)
    divided by                         prod_j falling_factorial(b_j, m_j)

times the class count #(f) and its measure `delta_colored`.  That sum is
kept as a tier-1 cross-check (tests/test_operator_route.py) and as the
per-class explanation behind the named shapes used here.  Plain q-block
moments are the block profile flat_blocks(n, q) = (0,..,0,q), and callers
pass that profile to the per-time-profile engines.  Of the moment entry
points only exact_QN and expansion_report_Q keep an (n, q) signature, each
one call on that profile.

Every table of the operator product is symmetric within each same-level
group of coordinates by construction, so no symmetrization pass runs on
it: eta0 on all b_0 coordinates is exchangeable; each partition piece of
an exchangeable live block is exchangeable, because permuting positions
permutes the set partitions; and freezing and transport act alike on
every coordinate of a group and never mix groups.  Pairing a coefficient
against any function therefore equals pairing it against the function's
block symmetrization.  Only the class-based routes (the named-shape
closed forms and the first-order block law) symmetrize their sums.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .colored_forest import (
    ColoredForest,
    build_wick_forest,
    cut_branch_forest,
    double_pair_forest,
    first_order_path_forest,
    flat_blocks,
    nested_merge_forest,
    normalize_path_profile,
    pair_merge_forest,
    path_profile_bar,
    staggered_merge_forest,
    triple_merge_forest,
    two_tree_merge_forest,
)
from .combinatorics import (_stirling_rows, bell_number, compositions,
                            falling_factorial)
from .config import Caps, DEFAULT_CAPS
from .errors import CapExceeded, IdentityMismatch, InvalidParameter
from .fk_core import (
    FKModel,
    Flow,
    SignedMeasure,
    TensorFunction,
    delta_colored,
    flow,
    format_scalar,
    gamma_tensor,
    is_centered,
    select_partitions,
    transport_numerators,
    _block_levels,
    _domain_size,
    _over_lcm,
    _partition_targets,
    _tensor_power,
)

__all__ = [
    "ExpansionReport",
    "exact_QN",
    "closed_form_low_orders",
    "pair_partitions",
    "gaussian_covariance",
    "gaussian_product_moment",
    "path_exact_QN",
    "path_derivative_Q",
    "path_max_order",
    "path_wick_Q",
    "gbar_vector",
    "centered_moment_expansion",
    "derivative_P",
    "first_order_P",
    "expansion_report_Q",
    "expansion_report_path_Q",
    "expansion_report_P",
]

Scalar = Union[Fraction, float]
# (b, s) -> set-partition table, as fk_core._partition_targets builds it
Targets = Dict[Tuple[int, int], Dict]


# ---------------------------------------------------------------------------
# shared plumbing

def _blacks(profile: Sequence[int]) -> Tuple[int, ...]:
    # per-level count of still-moving lineages: suffix sums of the profile
    return tuple(sum(profile[k:]) for k in range(len(profile)))


def _zero_measure(model: FKModel, levels: Sequence[int]) -> SignedMeasure:
    return SignedMeasure(model, levels, [0] * _domain_size(model, levels), 1)


def _read(model: FKModel, v: Union[int, Fraction]) -> Scalar:
    # an exact value in the model's field, rounded once in float mode
    return model.scalar(v.numerator, v.denominator)


# ---------------------------------------------------------------------------
# flat q-block ensemble moments


def exact_QN(model: FKModel, n: int, q: int, N: int,
             F: Optional[TensorFunction] = None,
             caps: Caps = DEFAULT_CAPS) -> Union[Scalar, SignedMeasure]:
    """Exact q-block tensor moment of the unnormalized ensemble at size N.

    Runs the selection-and-transport product with the exact weights of
    size N; no sampling anywhere.  Returns the pairing against F, or the
    full block-symmetric measure when F is omitted.
    """
    return path_exact_QN(model, flat_blocks(n, q), N, F, caps)


def closed_form_low_orders(model: FKModel, n: int, q: int,
                           caps: Caps = DEFAULT_CAPS
                           ) -> Tuple[SignedMeasure, SignedMeasure,
                                      SignedMeasure]:
    """First three coefficient measures from the named-shape catalogue.

    Only meaningful for q >= 4: below that some catalogued shapes do not
    exist (a two-tree shape needs four distinct lineages) and the display
    degenerates.  The generic engine remains the ground truth: each order
    is compared against the generic coefficient and any disagreement
    raises IdentityMismatch carrying both measures, rather than silently
    returning a transcribed formula.
    """
    if q < 4:
        raise InvalidParameter(
            "closed forms need q >= 4; at q=%d some catalogued shapes "
            "degenerate, use path_derivative_Q whose generic sum handles "
            "small q automatically" % q)
    prof = _check_profile(model, flat_blocks(n, q))
    # the generic product refuses oversized profiles before the class sum
    generic = _moment_polynomial(model, prof, 2, caps, {})

    def dlt(f: ColoredForest) -> SignedMeasure:
        return delta_colored(model, f, prof)

    g = gamma_tensor(model, n, q)
    zero = _zero_measure(model, (n,) * q)
    half = Fraction(q * (q - 1), 2)

    d0 = g

    acc1 = zero
    for k in range(n + 1):
        acc1 = acc1 + (dlt(pair_merge_forest(n, q, k)) - g)
    d1 = acc1.scale(half).symmetrize_blocks()

    lead = Fraction(math.factorial(q), math.factorial(q - 3) * 6)
    same = zero
    for k in range(n + 1):
        same = same + (
            dlt(triple_merge_forest(n, q, k))
            + dlt(double_pair_forest(n, q, k)).scale(Fraction(3 * (q - 3), 4))
            - dlt(pair_merge_forest(n, q, k)).scale(Fraction(3 * (q - 1), 2))
            + g.scale(Fraction(3 * q - 1, 4)))
    cross_a = zero
    cross_b = zero
    for k in range(n + 1):
        for l in range(k + 1, n + 1):
            cross_a = cross_a + (
                g - dlt(pair_merge_forest(n, q, l))
                - dlt(pair_merge_forest(n, q, k)))
            cross_b = cross_b + (
                dlt(cut_branch_forest(n, q, k, l))
                + (dlt(nested_merge_forest(n, q, k, l))
                   + dlt(staggered_merge_forest(n, q, k, l))).scale(q - 2)
                + dlt(two_tree_merge_forest(n, q, k, l)).scale(
                    Fraction((q - 2) * (q - 3), 2)))
    d2 = (same.scale(lead) + cross_a.scale(half * half)
          + cross_b.scale(half)).symmetrize_blocks()

    for k, cand in ((0, d0), (1, d1), (2, d2)):
        gen = generic[k]
        if cand != gen:
            raise IdentityMismatch(
                "closed-form order %d differs from the generic coefficient "
                "(tv gap %s); the generic engine is the ground truth"
                % (k, format_scalar((cand - gen).tv_norm())),
                lhs=cand, rhs=gen)
    return d0, d1, d2


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


def path_max_order(q: Sequence[int]) -> int:
    """Largest nonzero order for a block profile: sum of (blacks-1)."""
    return sum(b - 1 for b in _blacks(normalize_path_profile(q)))


def _check_profile(model: FKModel, q: Sequence[int]) -> Tuple[int, ...]:
    prof = normalize_path_profile(q)
    if len(prof) - 1 > model.horizon:
        raise InvalidParameter(
            "model horizon %d too short for a profile over levels 0..%d"
            % (model.horizon, len(prof) - 1))
    return prof


def _check_product_caps(model: FKModel, prof: Tuple[int, ...],
                        caps: Caps) -> None:
    """Refuse before any table is built.  Level 0 has the most set
    partitions; every table of the product, transport steps included, is
    no larger than the table right after some level's selection."""
    blacks = _blacks(prof)
    bell = bell_number(blacks[0])
    if bell > caps.forests:
        raise CapExceeded("selection would enumerate too many set partitions",
                          predicted=bell, cap=caps.forests)
    prefix = 1
    for k, b in enumerate(blacks):
        caps.check_tensor(prefix * model.size(k) ** b)
        prefix *= model.size(k) ** prof[k]


def _select_and_transport(model: FKModel, prof: Tuple[int, ...],
                          routes: Sequence, caps: Caps,
                          targets: Targets) -> List[List[SignedMeasure]]:
    """The operator product behind every block moment, for several
    selections (routes) in one pass over the levels.

    Runs on integer stages: a stage stacks the numerator tables of every
    route, one after another, and each route keeps its own denominator.
    Every route starts from the one table of eta0 on all b_0 coordinates.
    At level k the live block of b_k coordinates goes through the
    selection: route r's `select(b_k, count)` gives, for its `count`
    current tables, the integer weights of each of its next tables on the
    partition pieces of its own tables (see `fk_core.select_partitions`)
    and the factor of its denominator.  No output reads another route's
    table, so the routes stay as independent as separate products.  Then
    the first q_k live coordinates freeze and the rest move one step: one
    `transport_numerators` call per moved coordinate moves the whole
    stage, tables as the outer axis, and multiplies every denominator by
    that of the operator rows.  Returns, per route, its final tables as
    measures on their numerators, with no entry read.

    `targets` maps (b, s) to its set-partition table
    (`fk_core._partition_targets`) and is filled as stages need them: a
    caller running several products hands all of them one dict, so each
    table is built once.
    """
    blacks = _blacks(prof)
    _check_product_caps(model, prof, caps)
    e0, den = model.eta0_row
    stage = [1]
    for _ in range(blacks[0]):
        stage = [a * x for a in stage for x in e0]
    # per route: (index of its first table in the stage, its table count)
    spans = [(0, 1)] * len(routes)
    dens = [den ** blacks[0]] * len(routes)
    prefix = 1
    for k, b in enumerate(blacks):
        s = model.size(k)
        table = targets.get((b, s))
        if table is None:
            table = targets[b, s] = _partition_targets(b, s)
        combos: List[Dict[Tuple[int, int], int]] = []
        for r, select in enumerate(routes):
            first, count = spans[r]
            weights, scale = select(b, count)
            spans[r] = (len(combos), len(weights))
            combos += [{(first + d, p): c for (d, p), c in w.items()}
                       for w in weights]
            dens[r] *= scale
        stage = select_partitions(stage, prefix, b, s, combos, table)
        prefix *= s ** prof[k]
        if k + 1 < len(prof):
            rows, qden = model.exact_q(k + 1)
            moved = b - prof[k]
            for j in range(moved):
                stage = transport_numerators(stage, s ** (moved - 1 - j),
                                             rows)
            dens = [d * qden ** moved for d in dens]
    levels = _block_levels(prof)
    size = len(stage) // sum(count for _, count in spans)
    return [[SignedMeasure(model, levels, stage[i * size:(i + 1) * size], d)
             for i in range(first, first + count)]
            for (first, count), d in zip(spans, dens)]


def _polynomial_route(top: int):
    """Selection of the coefficients 0..top of the moment in x = 1/N.

    The selection at a level with b live coordinates is the polynomial
    sum_j x**j sum_p s(p, b - j) piece_p; the product over the levels is
    carried degree by degree and cut above `top`.  The Stirling weights are
    integers, so the denominator never changes in the selection.
    """
    def select(b: int, count: int):
        first = _stirling_rows(b, True)
        weights = []
        for e in range(min(count + b - 1, top + 1)):
            weights.append({
                (d, p): first[p][b - (e - d)]
                for d in range(max(0, e - b + 1), min(e, count - 1) + 1)
                for p in range(1, b + 1)})
        return weights, 1

    return select


def _exact_route(N: int):
    """Selection of the exact moment at ensemble size N.

    The selection at a level with b live coordinates weighs each set
    partition with p blocks by (N)_p / N**b: piece p is multiplied by
    (N)_p and the denominator by N**b.
    """
    def select(b: int, count: int):
        return [{(0, p): falling_factorial(N, p)
                 for p in range(1, b + 1)}], N ** b

    return select


def _moment_polynomial(model: FKModel, prof: Tuple[int, ...], top: int,
                       caps: Caps, targets: Targets) -> List[SignedMeasure]:
    """Coefficients 0..top of the moment in x = 1/N: the operator product
    with the one polynomial route."""
    (coeffs,) = _select_and_transport(model, prof, [_polynomial_route(top)],
                                      caps, targets)
    return coeffs


def _check_size(prof: Tuple[int, ...], N: int) -> None:
    if N < sum(prof):
        raise InvalidParameter(
            "ensemble size N=%d below the total block size %d"
            % (N, sum(prof)))


def path_exact_QN(model: FKModel, q: Sequence[int], N: int,
                  F: Optional[TensorFunction] = None,
                  caps: Caps = DEFAULT_CAPS
                  ) -> Union[Scalar, SignedMeasure]:
    """Exact joint per-time block moment of the unnormalized ensemble: the
    operator product with the one exact route of size N.  The coefficient
    polynomial is never evaluated, so the two stay independent routes."""
    prof = _check_profile(model, q)
    _check_size(prof, N)
    ((total,),) = _select_and_transport(model, prof, [_exact_route(N)],
                                        caps, {})
    return total if F is None else total.pair(F)


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
    from .particle import exact_EN_oracle

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


# ---------------------------------------------------------------------------
# reports


class ExpansionReport:
    """One expansion in a box: order-0 term, higher coefficients, exact
    evaluations at requested ensemble sizes, and whatever residual
    diagnostics the builder chose to attach.

    `orders` maps k >= 1 to the coefficient (scalar or measure); the
    order-0 term lives in `base`.  partial_sum(N) is exact in rational
    mode.
    """

    def __init__(self, kind: str, params: Dict[str, object], base: object,
                 orders: Dict[int, object], evaluations: Dict[int, object]):
        self.kind = kind
        self.params = params
        self.base = base
        self.orders = orders
        self.evaluations = evaluations
        self.diagnostics: Dict[str, object] = {}

    def partial_sum(self, N: int) -> object:
        """Coefficient sum at N on integer numerators: term k, a measure's
        numerators or one exact scalar over den_k, goes over the lcm of
        the den_k N^k; exact in either field and rounded once in float
        mode."""
        terms = [(0, self.base)] + [
            (k, c) for k, c in sorted(self.orders.items()) if k != 0]
        over = []
        for k, c in terms:
            nums, d = ((c.nums, c.den) if isinstance(c, SignedMeasure)
                       else _over_lcm([c]))
            over.append((d * N ** k, nums))
        den = math.lcm(*[d for d, _ in over])
        nums = [sum(col) for col in zip(*[[v * (den // d) for v in vs]
                                          for d, vs in over])]
        if isinstance(self.base, SignedMeasure):
            return SignedMeasure(self.base.model, self.base.levels, nums,
                                 den)
        if self.params.get("field", "rational") == "rational":
            return Fraction(nums[0], den)
        return nums[0] / den

    def check(self) -> bool:
        """Exactness of every recorded evaluation against the full sum.  A
        measure agrees exactly in either field; a float scalar, rounded
        once or taken from the float oracle, within 1e-9 relative to its
        size."""
        tol = 1e-9 if self.params.get("field") == "float" else 0
        for N, got in self.evaluations.items():
            want = self.partial_sum(N)
            if (want != got if isinstance(want, SignedMeasure) else
                    abs(want - got) > tol * (1 + abs(want) + abs(got))):
                raise IdentityMismatch(
                    "%s report: evaluation at N=%d does not match the "
                    "coefficient sum" % (self.kind, N),
                    lhs=want, rhs=got)
        return True

    def to_jsonable(self) -> Dict[str, object]:
        """The report as one dict whose members stay raw (int keys,
        Fractions, measures): the CLI writer renders them straight to text
        in one pass, through the leaf hook of `jsontext.write_json`."""
        return {
            "kind": self.kind,
            "params": self.params,
            "base": self.base,
            "orders": self.orders,
            "evaluations": self.evaluations,
            "diagnostics": self.diagnostics,
        }


def _moment_report(model: FKModel, prof: Tuple[int, ...], kind: str,
                   params: Dict[str, object], Ns: Sequence[int],
                   F: Optional[TensorFunction],
                   caps: Caps) -> ExpansionReport:
    # the polynomial and one exact route per distinct size run in one pass
    sizes = list(dict.fromkeys(Ns))
    for N in sizes:
        _check_size(prof, N)
    routes = [_polynomial_route(path_max_order(prof))]
    routes += [_exact_route(N) for N in sizes]
    outs: List[List] = _select_and_transport(model, prof, routes, caps, {})
    if F is not None:
        outs = [[t.pair(F) for t in out] for out in outs]
    coeffs, *values = outs
    base, orders = coeffs[0], dict(enumerate(coeffs[1:], start=1))
    report = ExpansionReport(
        kind=kind,
        params=params,
        base=base,
        orders=orders,
        evaluations={N: v for N, (v,) in zip(sizes, values)},
    )
    report.check()
    return report


def expansion_report_Q(model: FKModel, n: int, q: int,
                       Ns: Sequence[int] = (),
                       F: Optional[TensorFunction] = None,
                       caps: Caps = DEFAULT_CAPS) -> ExpansionReport:
    """Full coefficient family of the flat q-block moment, checked against
    the exact finite-size values when sizes are supplied."""
    return _moment_report(model, _check_profile(model, flat_blocks(n, q)),
                          "block-moment",
                          {"n": n, "q": q, "field": model.field}, Ns, F, caps)


def expansion_report_path_Q(model: FKModel, q: Sequence[int],
                            Ns: Sequence[int] = (),
                            F: Optional[TensorFunction] = None,
                            caps: Caps = DEFAULT_CAPS) -> ExpansionReport:
    """Per-time profile version of expansion_report_Q."""
    prof = _check_profile(model, q)
    return _moment_report(model, prof, "path-block-moment",
                          {"profile": list(prof), "field": model.field},
                          Ns, F, caps)


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
    from .particle import exact_PN_oracle

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
