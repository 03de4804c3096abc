"""Command-line driver for enumeration, counting, series censuses,
expansions, the exact ensemble oracle, Monte Carlo runs and self-checks.

Every output file embeds a manifest: command, semantic parameters, model
hash, seed, field mode, caps and toolkit version.  In rational mode two
runs with equal manifests produce byte-identical files; there are no
timestamps, no absolute paths and no hash randomization anywhere in the
output path.  Structured results are JSON with rationals as "num/den"
strings; listings can also be CSV.

Exit codes: 0 success, 1 failed verification, 2 structured refusal
(validation, caps, bad parameters).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .colored_forest import (brute_force_colored_orbit_count,
                             colored_planar_mapseq, enumerate_colored_forests,
                             enumerate_colored_orbits, flat_blocks, flat_pairs,
                             path_profile_bar)
from .combinatorics import stirling_first, stirling_second
from .config import Caps, DEFAULT_CAPS
from .errors import (CapExceeded, IdentityMismatch, InvalidParameter,
                     ToolkitError, ValidationError)
from .expansion import (centered_moment_expansion, closed_form_low_orders,
                        derivative_P, exact_QN, expansion_report_P,
                        expansion_report_Q, expansion_report_path_Q,
                        first_order_P, gaussian_covariance, measure_table,
                        path_exact_QN, path_wick_Q, wick_Q)
from .fk_core import (FKModel, SignedMeasure, TensorFunction,
                      center_function, constant_function, eta_tensor,
                      fiber_count, flow, format_scalar,
                      function_from_vector, tensor_minus_dot_tv)
from .genfunc import (coalescence_series, hilbert_series,
                      marginalize_coalescence)
from .models import (DOCUMENTED_FLOW, bundled_model, bundled_names,
                     check_documented_flow, load_model, model_sha256)
from .particle import (exact_EN_oracle, exact_eta_tensor_oracle,
                       exact_PN_oracle, exact_QN_oracle, estimators,
                       simulate)

__all__ = ["RunManifest", "build_parser", "main"]


# ---------------------------------------------------------------------------
# manifest and output plumbing


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility header embedded in every output file."""

    command: str
    parameters: Dict[str, object]
    model_hash: Optional[str]
    seed: int
    version: str
    field: str
    caps: Dict[str, int]

    def to_dict(self) -> Dict[str, object]:
        return {
            "command": self.command,
            "parameters": _plain(self.parameters),
            "model_hash": self.model_hash,
            "seed": self.seed,
            "version": self.version,
            "field": self.field,
            "caps": dict(self.caps),
        }


def _plain(v: object) -> object:
    """Recursively turn scalars and tables into JSON-stable primitives."""
    if isinstance(v, Fraction):
        return format_scalar(v)
    if isinstance(v, SignedMeasure):
        return measure_table(v)
    if isinstance(v, TensorFunction):
        return {"levels": list(v.levels),
                "values": [_plain(x) for x in v.data]}
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    return v


def _caps_from_args(args: argparse.Namespace) -> Caps:
    caps = DEFAULT_CAPS
    if args.cap_forests is not None:
        caps = replace(caps, forests=args.cap_forests,
                       group=args.cap_forests)
    if args.cap_tensor is not None:
        caps = replace(caps, tensor=args.cap_tensor,
                       configs=args.cap_tensor, series=args.cap_tensor)
    return caps


def _manifest(args: argparse.Namespace, params: Dict[str, object],
              model: Optional[FKModel] = None) -> RunManifest:
    caps = _caps_from_args(args)
    return RunManifest(
        command=args.command,
        parameters=params,
        model_hash=model_sha256(model) if model is not None else None,
        seed=args.seed,
        version=__version__,
        field=args.field,
        caps={"forests": caps.forests, "group": caps.group,
              "tensor": caps.tensor, "configs": caps.configs,
              "series": caps.series},
    )


def _write_text(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args: argparse.Namespace, manifest: RunManifest,
               result: object) -> None:
    doc = {"manifest": manifest.to_dict(), "result": _plain(result)}
    _write_text(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _emit_csv(args: argparse.Namespace, manifest: RunManifest,
              header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    buf = io.StringIO()
    compact = json.dumps(manifest.to_dict(), sort_keys=True,
                         separators=(",", ":"))
    buf.write("# manifest: %s\n" % compact)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_plain(v) for v in row])
    _write_text(args, buf.getvalue())


def _require_json(args: argparse.Namespace) -> None:
    if args.fmt != "json":
        raise InvalidParameter(
            "the %s command emits structured JSON only" % args.command)


def _parse_ints(text: Optional[str]) -> Tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise InvalidParameter("expected a comma-separated integer list, "
                               "got %r" % text)


def _load_function(model: FKModel, path: str,
                   caps: Caps) -> TensorFunction:
    """Tensor function file: {"levels": [...], "values": [...]} with the
    values flat and row-major over coordinates left to right."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidParameter("cannot read function file %s: %s"
                               % (path, exc))
    except ValueError as exc:
        raise ValidationError("function file %s is not JSON: %s"
                              % (path, exc))
    try:
        levels = [int(k) for k in doc["levels"]]
        raw = doc["values"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidParameter("bad function file %s: %s" % (path, exc))
    try:
        if model.field == "rational":
            vals = [Fraction(v) if not isinstance(v, float) else _reject(v)
                    for v in raw]
        else:
            vals = [float(Fraction(v)) if isinstance(v, str) else float(v)
                    for v in raw]
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError("bad value in function file %s: %s"
                              % (path, exc))
    return TensorFunction(model, levels, vals, caps)


def _reject(v: float):
    raise InvalidParameter(
        "rational mode rejects float literals; use 'num/den' strings")


# ---------------------------------------------------------------------------
# enumerate / count


def _add_selection_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=None,
                   help="tree height (levels 0..n)")
    p.add_argument("--q", type=int, default=None,
                   help="number of roots / block size")
    p.add_argument("--q-seq", default=None,
                   help="per-level block profile, e.g. 1,1 (colored classes)")
    p.add_argument("--max-coal", type=int, default=None,
                   help="retain classes with at most this many merges")


def _selection(args: argparse.Namespace, caps: Caps):
    """Resolve the flat/colored choice shared by enumerate and count: the
    kind, the selection as the manifest records it, the block profile and
    the classes with their orbit sizes."""
    if args.q_seq:
        prof = _parse_ints(args.q_seq)
        if args.n is not None or args.q is not None:
            raise InvalidParameter("--q-seq replaces --n/--q")
        kind, sel = "colored", list(prof)
    elif args.n is None or args.q is None:
        raise InvalidParameter("need --n and --q, or --q-seq")
    else:
        prof = flat_blocks(args.n, args.q)
        kind, sel = "flat", {"n": args.n, "q": args.q}
    return kind, sel, prof, enumerate_colored_orbits(prof, args.max_coal,
                                                     caps)


def cmd_enumerate(args: argparse.Namespace) -> int:
    caps = _caps_from_args(args)
    kind, sel, _, terms = _selection(args, caps)
    manifest = _manifest(args, {
        "kind": kind, "selection": sel,
        "max_coal": args.max_coal, "format": args.fmt})
    rows = [(f.encoding, " ".join(map(str, f.wprofile)),
             " ".join(map(str, f.bprofile)),
             " ".join(map(str, f.coal)), cnt) for f, cnt in terms]
    header = ("encoding", "whites", "blacks", "coal", "count")
    if args.fmt == "csv":
        _emit_csv(args, manifest, header, rows)
    else:
        _emit_json(args, manifest, {
            "kind": kind,
            "classes": len(rows),
            "total_jungles": sum(r[-1] for r in rows),
            "rows": [dict(zip(header, r)) for r in rows],
        })
    return 0


def _identity_total(prof: Sequence[int]) -> int:
    """Number of labeled ancestries: each vertex below the top level picks
    one of the blacks above it."""
    pairs = path_profile_bar(prof)
    total = 1
    for k in range(1, len(pairs)):
        total *= pairs[k - 1][1] ** (pairs[k][0] + pairs[k][1])
    return total


def cmd_count(args: argparse.Namespace) -> int:
    caps = _caps_from_args(args)
    kind, sel, prof, terms = _selection(args, caps)
    manifest = _manifest(args, {
        "kind": kind, "selection": sel,
        "max_coal": args.max_coal, "format": args.fmt})
    by_coal: Dict[int, List[int]] = {}
    for f, cnt in terms:
        slot = by_coal.setdefault(f.coal_degree, [0, 0])
        slot[0] += 1
        slot[1] += cnt
    total = sum(cnt for _, cnt in terms)
    identity = _identity_total(prof)
    # the labeled-ancestry identity only covers the full class list
    complete = args.max_coal is None
    result = {
        "kind": kind,
        "classes": len(terms),
        "total_jungles": total,
        "identity_total": identity if complete else None,
        "identity_holds": (total == identity) if complete else None,
        "by_coalescence": {str(d): {"classes": c, "jungles": j}
                           for d, (c, j) in sorted(by_coal.items())},
    }
    if args.fmt == "csv":
        rows = [(d, c, j) for d, (c, j) in sorted(by_coal.items())]
        rows.append(("all", len(terms), total))
        _emit_csv(args, manifest, ("coal_degree", "classes", "jungles"),
                  rows)
    else:
        _emit_json(args, manifest, result)
    return 0


# ---------------------------------------------------------------------------
# hilbert


def cmd_hilbert(args: argparse.Namespace) -> int:
    caps = _caps_from_args(args)
    if args.n is None:
        raise InvalidParameter("need --n")
    trunc_list = _parse_ints(args.truncation)
    if not trunc_list:
        raise InvalidParameter("--truncation needs at least one bound")
    trunc = trunc_list if len(trunc_list) > 1 else trunc_list[0]
    manifest = _manifest(args, {
        "n": args.n, "truncation": list(trunc_list),
        "coalescence": bool(args.coalescence), "format": args.fmt})
    if args.coalescence:
        series = coalescence_series(args.n, trunc, caps)
        plain = hilbert_series(args.n, trunc, caps)
        marg = marginalize_coalescence(series, args.n)
        extra = {"marginal_matches_plain": marg == plain}
        var_names = ["x%d" % i for i in range(args.n + 1)] + \
                    ["y%d" % i for i in range(args.n)]
    else:
        series = hilbert_series(args.n, trunc, caps)
        extra = {}
        var_names = ["x%d" % i for i in range(args.n + 1)]
    terms = [(list(mono), coeff) for mono, coeff in series.items()]
    if args.fmt == "csv":
        rows = [tuple(mono) + (coeff,) for mono, coeff in terms]
        _emit_csv(args, manifest, tuple(var_names) + ("count",), rows)
    else:
        _emit_json(args, manifest, dict({
            "nvars": series.nvars,
            "bounds": list(series.bounds),
            "terms": [{"monomial": mono, "count": coeff}
                      for mono, coeff in terms],
        }, **extra))
    return 0


# ---------------------------------------------------------------------------
# expand


def cmd_expand(args: argparse.Namespace) -> int:
    _require_json(args)
    caps = _caps_from_args(args)
    model = load_model(args.model, args.field)
    oracle_ns = _parse_ints(args.oracle)
    # every oracle size is evaluated too, so it has a value to compare with
    eval_ns = _parse_ints(args.evaluate)
    eval_ns += tuple(N for N in oracle_ns if N not in eval_ns)
    F: Optional[TensorFunction] = None
    if args.function:
        F = _load_function(model, args.function, caps)
        if args.center:
            F = center_function(model, F)
    prof: Tuple[int, ...] = ()
    if args.q_seq:
        prof = _parse_ints(args.q_seq)
        kind = "path"
    elif args.block:
        kind = "block"
    else:
        kind = "tensor"
    if kind != "path" and (args.n is None or args.q is None):
        raise InvalidParameter("need --n and --q (or --q-seq)")
    if (oracle_ns or args.wick) and F is None and kind != "block":
        raise InvalidParameter(
            "--oracle/--wick need --function to pair against")

    if kind == "path":
        report = expansion_report_path_Q(model, prof, Ns=eval_ns, F=F,
                                         caps=caps)
    elif kind == "block":
        if F is None:
            raise InvalidParameter("block-law expansion needs --function")
        report = expansion_report_P(model, args.n, args.q, F, Ns=eval_ns,
                                    top=args.top, caps=caps)
    else:
        report = expansion_report_Q(model, args.n, args.q, Ns=eval_ns,
                                    F=F, caps=caps)
    result = report.to_jsonable()

    if args.wick:
        if kind == "path":
            vanish, half = path_wick_Q(model, prof, F, caps)
        elif kind == "tensor":
            vanish, half = wick_Q(model, args.n, args.q, F, caps)
        else:
            raise InvalidParameter("--wick applies to moment expansions")
        result["wick"] = {
            "vanishing_orders": {str(k): v for k, v in sorted(vanish.items())},
            "leading_order_value": half,
        }
    if oracle_ns and kind in ("tensor", "path"):
        deltas = {}
        for N in oracle_ns:
            if kind == "path":
                got = exact_QN_oracle(model, N, prof, F, caps=caps)
            else:
                got = exact_QN_oracle(model, N, args.q, F, n=args.n,
                                      caps=caps)
            deltas[str(N)] = report.evaluations[N] - got
        result["oracle_deltas"] = deltas

    manifest = _manifest(args, {
        "model": args.model, "kind": kind, "n": args.n, "q": args.q,
        "q_seq": list(prof) if prof else None, "top": args.top,
        "function": bool(args.function), "center": bool(args.center),
        "evaluate": list(eval_ns), "oracle": list(oracle_ns),
        "wick": bool(args.wick)}, model)
    _emit_json(args, manifest, result)
    return 0


# ---------------------------------------------------------------------------
# oracle


def cmd_oracle(args: argparse.Namespace) -> int:
    _require_json(args)
    caps = _caps_from_args(args)
    model = load_model(args.model, args.field)
    if args.function is None:
        raise InvalidParameter("oracle needs --function")
    F = _load_function(model, args.function, caps)
    if args.q_seq:
        prof = _parse_ints(args.q_seq)
        value = exact_QN_oracle(model, args.N, prof, F, caps=caps)
        params = {"kind": "gamma-tensor-path", "q_seq": list(prof)}
    else:
        if args.n is None or args.q is None:
            raise InvalidParameter("need --n and --q, or --q-seq")
        if args.kind == "gamma":
            value = exact_QN_oracle(model, args.N, args.q, F, n=args.n,
                                    caps=caps)
        elif args.kind == "eta":
            value = exact_eta_tensor_oracle(model, args.N, args.n, args.q,
                                            F, caps)
        else:
            value = exact_PN_oracle(model, args.N, args.n, args.q, F, caps)
        params = {"kind": args.kind, "n": args.n, "q": args.q}
    params.update({"model": args.model, "N": args.N})
    manifest = _manifest(args, params, model)
    _emit_json(args, manifest, {"value": value})
    return 0


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args: argparse.Namespace) -> int:
    caps = _caps_from_args(args)
    model = load_model(args.model, args.field)
    horizon = model.horizon if args.horizon is None else args.horizon
    level = horizon if args.n is None else args.n
    est = args.estimator
    q = args.q
    f = F = None
    if est in ("gamma", "eta"):
        if args.function:
            f = _load_function(model, args.function, caps)
        else:
            f = constant_function(model, (level,), model.one)
    else:
        if q is None:
            raise InvalidParameter("%s needs --q" % est)
        if args.function:
            F = _load_function(model, args.function, caps)
        else:
            F = constant_function(model, (level,) * q, model.one)
    key = {"gamma": "gamma", "eta": "eta",
           "tensor-q": "eta_tensor", "dot-q": "eta_dot"}[est]
    rows = []
    for r in range(args.replicas):
        traj = simulate(model, args.N, args.seed, horizon=horizon,
                        replica=r)
        out = estimators(model, traj, level, f=f, F=F, q=q)
        if key not in out:
            raise InvalidParameter(
                "estimator %s unavailable (is q <= N?)" % est)
        rows.append((r, out[key], out["gamma_norm"]))
    manifest = _manifest(args, {
        "model": args.model, "N": args.N, "horizon": horizon, "n": level,
        "replicas": args.replicas, "estimator": est, "q": q,
        "function": bool(args.function), "format": args.fmt}, model)
    if args.fmt == "csv":
        _emit_csv(args, manifest, ("replica", "value", "mass"), rows)
    else:
        _emit_json(args, manifest, {
            "rows": [{"replica": r, "value": v, "mass": m}
                     for r, v, m in rows]})
    return 0


# ---------------------------------------------------------------------------
# verify


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
        want.append(_identity_total(prof))
    return want, got


def _check_series_census():
    n, bounds = 1, (2, 4)
    series = hilbert_series(n, bounds)
    want, got = [], []
    for mono, coeff in series.items():
        if not any(mono):
            continue
        prof = mono[:max(i + 1 for i, v in enumerate(mono) if v)]
        got.append(coeff)
        want.append(len(enumerate_colored_forests(flat_pairs(prof))))
    marg = marginalize_coalescence(coalescence_series(n, bounds), n)
    want.append(sorted(series.terms.items()))
    got.append(sorted(marg.terms.items()))
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
            want.append(exact_QN_oracle(m, N, 2, F, n=1))
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
    vanish, half = wick_Q(m, 1, 2, f.tensor(f))
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
    import itertools
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
    ("master-polynomial", _check_master_polynomial),
    ("ensemble-oracle", _check_ensemble_oracle),
    ("closed-forms", _check_closed_forms),
    ("wick-pairing", _check_wick),
    ("block-law", _check_block_law),
    ("moment-expansion", _check_moment_expansion),
    ("tv-formulas", _check_tv_formulas),
    ("simulate-determinism", _check_simulate_determinism),
]


def cmd_verify(args: argparse.Namespace) -> int:
    _require_json(args)
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
            ok = _plain(expected) == _plain(actual)
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


# ---------------------------------------------------------------------------
# parser and dispatch


def _common_flags() -> argparse.ArgumentParser:
    c = argparse.ArgumentParser(add_help=False)
    c.add_argument("--field", choices=("rational", "float"),
                   default="rational", help="arithmetic mode")
    c.add_argument("--cap-forests", type=int, default=None,
                   help="override the enumeration size cap: genealogy "
                        "classes listed, and set partitions of one live "
                        "block in the moment expansions")
    c.add_argument("--cap-tensor", type=int, default=None,
                   help="override the dense table size cap; the same value "
                        "also caps the configurations of one oracle level "
                        "and the retained terms of a truncated series")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", default=None, help="output file (default stdout)")
    c.add_argument("--format", dest="fmt", choices=("json", "csv"),
                   default="json")
    return c


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fkforest",
        description="Exact genealogy combinatorics and finite ensemble-size "
                    "expansions for weighted particle systems.")
    parser.add_argument("--version", action="version", version=__version__)
    common = _common_flags()
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", parents=[common],
                       help="list genealogy classes with their sizes")
    _add_selection_flags(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("count", parents=[common],
                       help="class and labeled-ancestry totals")
    _add_selection_flags(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("hilbert", parents=[common],
                       help="generating-function census by profile")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--truncation", required=True,
                   help="exponent bound, single int or per-level list")
    p.add_argument("--coalescence", action="store_true",
                   help="refine by per-level merge counts")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("expand", parents=[common],
                       help="coefficient report for a moment family")
    p.add_argument("--model", required=True,
                   help="bundled model name or JSON file")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--q-seq", default=None)
    p.add_argument("--block", action="store_true",
                   help="q-particle block law instead of tensor moments")
    p.add_argument("--top", type=int, default=None,
                   help="truncation order for the block law")
    p.add_argument("--function", default=None,
                   help="tensor function JSON file to pair against")
    p.add_argument("--center", action="store_true",
                   help="center the function before use")
    p.add_argument("--evaluate", default=None,
                   help="ensemble sizes for exact finite-size values")
    p.add_argument("--oracle", default=None,
                   help="ensemble sizes to cross-check against the "
                        "configuration oracle (oracle_deltas); with --block "
                        "these sizes are evaluated by the block-law oracle "
                        "and feed the residuals in diagnostics, and no "
                        "oracle_deltas are written")
    p.add_argument("--wick", action="store_true",
                   help="report vanishing orders for a centered function")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("oracle", parents=[common],
                       help="exact finite-ensemble expectation by dynamic "
                            "programming")
    p.add_argument("--model", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--q-seq", default=None)
    p.add_argument("--kind", choices=("gamma", "eta", "block"),
                   default="gamma")
    p.add_argument("--function", default=None, required=False)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("simulate", parents=[common],
                       help="seeded Monte Carlo replicas with estimators")
    p.add_argument("--model", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--n", type=int, default=None,
                   help="estimator level (default: horizon)")
    p.add_argument("--replicas", type=int, default=1)
    p.add_argument("--estimator",
                   choices=("gamma", "eta", "tensor-q", "dot-q"),
                   default="gamma")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--function", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", parents=[common],
                       help="run the bundled self-check suite")
    p.add_argument("--only", default=None,
                   help="substring filter over check names")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        doc = {"error": "CapExceeded", "message": str(exc),
               "predicted": exc.predicted, "cap": exc.cap}
        sys.stderr.write(json.dumps(doc, sort_keys=True) + "\n")
        return 2
    except IdentityMismatch as exc:
        doc = {"error": "IdentityMismatch", "message": str(exc)}
        sys.stderr.write(json.dumps(doc, sort_keys=True) + "\n")
        return 1
    except ToolkitError as exc:
        doc = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(doc, sort_keys=True) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
