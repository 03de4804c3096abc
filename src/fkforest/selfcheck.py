"""The bundled self-check suite behind `fkforest verify`.

Each check returns (expected, actual) from two independent routes, and
passes when both are equal as written.  It loads the first time `verify`
runs, with every cross-check route it calls: no `count`, `expand` or
`oracle` request loads it.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace
from typing import Callable, Dict, List, Tuple

from . import __version__
from .classsum import (brute_force_colored_orbit_count, closed_form_low_orders,
                       colored_planar_mapseq, enumerate_colored_forests,
                       enumerate_colored_orbits)
from .cli import _degree_census, _emit_json, _json_text, _manifest
from .colored_forest import flat_blocks, path_profile_bar
from .combinatorics import stirling_first, stirling_second
from .config import DEFAULT_CAPS
from .errors import InvalidParameter, ToolkitError
from .expansion import exact_QN, expansion_report_Q, path_exact_QN
from .fk_core import (FKModel, TensorFunction, center_function, eta_tensor,
                      fiber_count, flow, format_scalar, function_from_vector,
                      tensor_minus_dot_tv)
from .fluctuation import (centered_moment_expansion, derivative_P,
                          first_order_P, gaussian_covariance, path_wick_Q)
from .genfunc import count_forests, flat_pairs, jungle_total
from .models import (DOCUMENTED_FLOW, bundled_model, bundled_names,
                     check_documented_flow)
from .montecarlo import simulate
from .particle import exact_EN_oracle, exact_QN_oracle
from .series import coalescence_series, hilbert_series, marginalize_coalescence


def _check_stirling():
    bad = []
    for p in range(1, 11):
        for k in range(p + 1):
            first = (stirling_first(p - 1, k - 1) if k else 0) \
                - (p - 1) * stirling_first(p - 1, k)
            if stirling_first(p, k) != first:
                bad.append(("first", p, k))
            second = (stirling_second(p - 1, k - 1) if k else 0) \
                + k * stirling_second(p - 1, k)
            if stirling_second(p, k) != second:
                bad.append(("second", p, k))
    for p in range(9):
        for m in range(9):
            dot = sum(stirling_first(p, j) * stirling_second(j, m)
                      for j in range(max(p, m) + 1))
            if dot != (1 if p == m else 0):
                bad.append(("orthogonality", p, m))
    return [], bad


def _check_model_flow():
    derived = {}
    for name in bundled_names():
        check_documented_flow(name)
        fl = flow(bundled_model(name))
        derived[name] = {
            "gamma_mass": [format_scalar(v) for v in fl.gnorm],
            "eta": [[format_scalar(v) for v in vec] for vec in fl.eta_vec],
        }
    return DOCUMENTED_FLOW, derived


def _check_orbit_counts():
    want, got = [], []
    for n, q in [(0, 2), (0, 3), (1, 2)]:
        for f, cnt in enumerate_colored_orbits(flat_blocks(n, q)):
            want.append(brute_force_colored_orbit_count(
                colored_planar_mapseq(f)))
            got.append(cnt)
    return want, got


def _check_partition_sums():
    want, got = [], []
    for q in (1, 2, 3):
        for n in (0, 1, 2):
            got.append(sum(c for _, c in
                           enumerate_colored_orbits(flat_blocks(n, q))))
            want.append(q ** (q * (n + 1)))
    for prof in [(1, 1), (2, 1), (1, 1, 1)]:
        got.append(sum(c for _, c in enumerate_colored_orbits(prof)))
        want.append(jungle_total(path_profile_bar(prof)))
    return want, got


def _check_series_census():
    n, bounds = 1, (2, 4)
    series = hilbert_series(n, bounds)
    want, got = [], []
    for mono, coeff in series.items():
        if not any(mono):
            continue
        prof = mono[:max(i + 1 for i, v in enumerate(mono) if v)]
        listed = len(enumerate_colored_forests(flat_pairs(prof)))
        want.append([listed, listed])
        got.append([coeff, count_forests(prof)])
    marg = marginalize_coalescence(coalescence_series(n, bounds), n)
    want.append(sorted(series.terms.items()))
    got.append(sorted(marg.terms.items()))
    return want, got


def _check_census():
    want, got = [], []
    for q in (flat_blocks(2, 3), flat_blocks(3, 3), (2, 1, 1), (1, 2, 2)):
        for max_coal in (None, 1):
            listed: Dict[int, Tuple[int, int]] = {}
            for f, cnt in enumerate_colored_orbits(q, max_coal):
                c, j = listed.get(f.coal_degree, (0, 0))
                listed[f.coal_degree] = (c + 1, j + cnt)
            want.append(sorted(listed.items()))
            got.append(sorted(_degree_census(path_profile_bar(q), max_coal,
                                             DEFAULT_CAPS).items()))
    return want, got


def _check_master_polynomial():
    m = bundled_model("drift2")
    rep = expansion_report_Q(m, 1, 2, Ns=(2, 3, 17))
    return ({N: rep.partial_sum(N) for N in (2, 3, 17)}, rep.evaluations)


def _observable(m: FKModel, k: int) -> TensorFunction:
    return function_from_vector(
        m, k, [m.scalar(2 + i) for i in range(m.size(k))])


def _check_ensemble_oracle():
    want, got = [], []
    for name in ("flat2", "drift2"):
        m = bundled_model(name)
        f = _observable(m, 1)
        F = f.tensor(f)
        for N in (2, 3):
            want.append(exact_QN_oracle(m, N, flat_blocks(1, 2), F))
            got.append(exact_QN(m, 1, 2, N, F))
    m = bundled_model("drift2")
    Fp = _observable(m, 0).tensor(_observable(m, 1))
    want.append(exact_QN_oracle(m, 3, (1, 1), Fp))
    got.append(path_exact_QN(m, (1, 1), 3, Fp))
    return want, got


def _check_closed_forms():
    # the library call cross-checks each order internally and raises on gap
    m = bundled_model("drift2")
    out = closed_form_low_orders(m, 1, 4)
    return len(out), 3


def _check_wick():
    m = bundled_model("drift2")
    f = center_function(m, _observable(m, 1))
    vec = tuple(f.data)
    vanish, half = path_wick_Q(m, flat_blocks(1, 2), f.tensor(f))
    return ([m.zero, gaussian_covariance(m, 1, vec, 1, vec)],
            [vanish[0], half])


def _check_block_law():
    m = bundled_model("drift2")
    base = derivative_P(m, 1, 2, 0)
    first_order_P(m, 1, 2)
    return list(eta_tensor(m, 1, 2).data), list(base.data)


def _check_moment_expansion():
    m = bundled_model("drift2")
    rep = centered_moment_expansion(m, 1, 2, Ns=(3,))
    return {3: exact_EN_oracle(m, 3, 1, 2)}, rep.evaluations


def _check_tv_formulas():
    want, got = [], []
    for q, N in [(2, 3), (3, 4)]:
        counted: Dict[int, int] = {}
        maps_q = list(itertools.product(range(1, q + 1), repeat=q))
        injections = [a for a in itertools.permutations(range(1, N + 1), q)]
        for a in injections:
            for s in maps_q:
                b = tuple(a[s[i] - 1] for i in range(q))
                counted[b] = counted.get(b, 0) + 1
        for b, c in counted.items():
            want.append(fiber_count(q, N, len(set(b))))
            got.append(c)
    devs = [abs(N * tensor_minus_dot_tv(3, N) - 6) for N in (100, 1000, 10000)]
    want.append(True)
    got.append(devs[0] >= devs[1] >= devs[2])
    return want, got


def _check_simulate_determinism():
    import numpy as np
    m = bundled_model("flat2")
    a = simulate(m, 16, 5)
    b = simulate(m, 16, 5)
    c = simulate(m, 16, 5, replica=1)
    same = all(np.array_equal(x, y) for x, y in zip(a, b))
    fresh = any(not np.array_equal(x, y) for x, y in zip(a, c))
    return [True, True], [same, fresh]


_CHECKS: List[Tuple[str, Callable]] = [
    ("stirling", _check_stirling),
    ("model-flow", _check_model_flow),
    ("orbit-count", _check_orbit_counts),
    ("partition-sum", _check_partition_sums),
    ("series-census", _check_series_census),
    ("census", _check_census),
    ("master-polynomial", _check_master_polynomial),
    ("ensemble-oracle", _check_ensemble_oracle),
    ("closed-forms", _check_closed_forms),
    ("wick-pairing", _check_wick),
    ("block-law", _check_block_law),
    ("moment-expansion", _check_moment_expansion),
    ("tv-formulas", _check_tv_formulas),
    ("simulate-determinism", _check_simulate_determinism),
]


def run_checks(args: SimpleNamespace) -> int:
    """The body of `fkforest verify`: run the checks --only selects and
    write one record per check; exit 1 if any failed."""
    selected = [(name, fn) for name, fn in _CHECKS
                if args.only is None or args.only in name]
    if not selected:
        raise InvalidParameter(
            "--only %r matches no check; available: %s"
            % (args.only, ", ".join(n for n, _ in _CHECKS)))
    records = []
    failed = 0
    for name, fn in selected:
        try:
            expected, actual = fn()
            # equal as written
            ok = _json_text(expected) == _json_text(actual)
            record = {"check": name,
                      "status": "pass" if ok else "fail",
                      "expected": expected, "actual": actual}
        except ToolkitError as exc:
            ok = False
            record = {"check": name, "status": "fail",
                      "expected": "no structured failure",
                      "actual": "%s: %s" % (type(exc).__name__, exc)}
        if not ok:
            failed += 1
            # smallest command that reruns exactly this failure
            record["reproducer"] = {
                "command": "verify",
                "parameters": {"only": name},
                "seed": args.seed,
                "version": __version__,
                "field": args.field,
            }
        records.append(record)
    manifest = _manifest(args, {"only": args.only,
                                "checks": [n for n, _ in selected]})
    _emit_json(args, manifest, {
        "checks": records,
        "passed": len(records) - failed,
        "failed": failed,
    })
    return 1 if failed else 0
