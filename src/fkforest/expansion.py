"""Laurent-coefficient engines for the exact particle-block measures.

Everything here turns the genealogy of a mean-field particle system into
concrete signed measures on small product spaces, plus scalar identities a
test can check to the last digit: the unnormalized q-block moments, flat
or over per-time block profiles (colored genealogies), as the exact value
at finite ensemble size N and every coefficient of the expansion in 1/N.
These are the engines of a moment `expand` request.  The routes built on
them load on first use: the Wick pairing, the centered potential moments
and the normalized block laws in :mod:`fkforest.fluctuation`, and the
genealogy class sum with its named-shape closed forms in
:mod:`fkforest.classsum`.

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

Every route is exact in either field: a float model runs on the exact
values of its floats and rounds each value once, where it is read, so
the self-checks compare exactly in both fields.

Plain q-block moments are the block profile flat_blocks(n, q) =
(0,..,0,q), and callers pass that profile to the per-time-profile
engines.  Of the moment entry points only exact_QN and expansion_report_Q
keep an (n, q) signature, each one call on that profile.

Every table of the operator product is symmetric within each same-level
group of coordinates by construction, as the selection tables need, and
no symmetrization pass runs on it: eta0 on all b_0 coordinates is
exchangeable; each partition piece of an exchangeable live block is
exchangeable, because permuting positions permutes the set partitions;
and freezing and transport act alike on every coordinate of a group and
never mix groups.  Pairing a coefficient against any function therefore
equals pairing it against the function's block symmetrization.  Only the
class-based routes (the named-shape closed forms and the first-order
block law) symmetrize their sums.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .combinatorics import _stirling_rows, falling_factorial
from .config import Caps, DEFAULT_CAPS
from .errors import IdentityMismatch, InvalidParameter
from .fk_core import (FKModel, SignedMeasure, TensorFunction, _block_levels,
                      _domain_size, _over_lcm, _partition_targets,
                      select_partitions, transport_numerators)
from .genfunc import flat_blocks, normalize_path_profile

__all__ = [
    "ExpansionReport",
    "exact_QN",
    "path_exact_QN",
    "path_max_order",
    "expansion_report_Q",
    "expansion_report_path_Q",
]

Scalar = Union[Fraction, float]


# ---------------------------------------------------------------------------
# shared plumbing

def _blacks(profile: Sequence[int]) -> Tuple[int, ...]:
    # per-level count of still-moving lineages: suffix sums of the profile
    return tuple(sum(profile[k:]) for k in range(len(profile)))


def _zero_measure(model: FKModel, levels: Sequence[int]) -> SignedMeasure:
    return SignedMeasure(model, levels, [0] * _domain_size(model, levels), 1)


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
    """Refuse before any table is built.  Every table of the product,
    transport steps included, is no larger than the table right after
    some level's selection."""
    blacks = _blacks(prof)
    _stirling_rows(blacks[0], False)  # past STIRLING_CAP: refused at once
    prefix = 1
    for k, b in enumerate(blacks):
        caps.check_tensor(prefix * model.size(k) ** b)
        prefix *= model.size(k) ** prof[k]


def _select_and_transport(model: FKModel, prof: Tuple[int, ...],
                          routes: Sequence, caps: Caps
                          ) -> List[List[SignedMeasure]]:
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

    The weights of every level come first, then the largest stacked
    stage, after some level's selection, is refused past caps.tensor.
    Each (b, s) table (`fk_core._partition_targets`) is built once.
    """
    blacks = _blacks(prof)
    _check_product_caps(model, prof, caps)
    # per level, per route: its weights and the factor of its denominator
    plan, counts, prefix, largest = [], [1] * len(routes), 1, 0
    for k, b in enumerate(blacks):
        plan.append([select(b, c) for select, c in zip(routes, counts)])
        counts = [len(weights) for weights, _ in plan[-1]]
        largest = max(largest, sum(counts) * prefix * model.size(k) ** b)
        prefix *= model.size(k) ** prof[k]
    caps.check_tensor(largest)
    e0, den = model.eta0_row
    stage = [1]
    for _ in range(blacks[0]):
        stage = [a * x for a in stage for x in e0]
    # per route: (index of its first table in the stage, its table count)
    spans = [(0, 1)] * len(routes)
    dens = [den ** blacks[0]] * len(routes)
    tables: Dict[Tuple[int, int], Dict] = {}
    prefix = 1
    for k, (b, level) in enumerate(zip(blacks, plan)):
        s = model.size(k)
        if (b, s) not in tables:
            tables[b, s] = _partition_targets(b, s)
        combos: List[Dict[Tuple[int, int], int]] = []
        for r, (weights, scale) in enumerate(level):
            first = spans[r][0]
            spans[r] = (len(combos), len(weights))
            combos += [{(first + d, p): c for (d, p), c in w.items()}
                       for w in weights]
            dens[r] *= scale
        stage = select_partitions(stage, prefix, b, s, combos, tables[b, s])
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
                       caps: Caps) -> List[SignedMeasure]:
    """Coefficients 0..top of the moment in x = 1/N: the operator product
    with the one polynomial route."""
    (coeffs,) = _select_and_transport(model, prof, [_polynomial_route(top)],
                                      caps)
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
                                        caps)
    return total if F is None else total.pair(F)


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
    outs: List[List] = _select_and_transport(model, prof, routes, caps)
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
