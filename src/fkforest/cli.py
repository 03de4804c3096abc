"""Command-line driver for enumeration, counting, series censuses,
expansions, the exact ensemble oracle, Monte Carlo runs and self-checks.

Every output file embeds a manifest: command, semantic parameters, model
hash, seed, field mode, caps and toolkit version.  In rational mode two
runs with equal manifests produce byte-identical files; there are no
timestamps, no absolute paths and no hash randomization anywhere in the
output path.  Structured results are JSON with rationals as "num/den"
strings; listings can also be CSV.

Exit codes: 0 success, 1 failed verification, 2 structured refusal
(validation, caps, bad parameters).  A refusal writes one JSON line to
stderr and no output file; that includes argv errors (an unknown command
or flag, a missing value or required flag, a bad integer or choice),
which are InvalidParameter refusals like any other.

Commands and their flags are one table, `_COMMANDS`; the argv parser and
the help text both read it.  Flags take `--flag value` or `--flag=value`,
a value may be empty or start with '-', and a flag may be abbreviated to
any unambiguous prefix.

`import fkforest.cli` loads only what `count`, moment `expand` and
`oracle` run: `combinatorics`, `config`, `errors`, `expansion`,
`fk_core`, `genfunc` (censuses and block profiles), `jsontext`, `models`
and `particle`, and no tree type.  Every other route loads in the body
of its handler, the first time it runs: `verify` loads the checks of
`selfcheck`, `simulate` `montecarlo`, `enumerate` `classsum`, `hilbert`
`series`, and `expand --block` or `--wick` `fluctuation`; `csv` and
`textwrap` load with the first CSV listing or help text.  No other
module imports this one.
"""

from __future__ import annotations

import io
import itertools
import json
import sys
from fractions import Fraction
from math import gcd
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import __version__
from .config import Caps, DEFAULT_CAPS
from .errors import (CapExceeded, IdentityMismatch, InvalidParameter,
                     ToolkitError, ValidationError)
from .expansion import expansion_report_Q, expansion_report_path_Q
from .fk_core import (FKModel, SignedMeasure, TensorFunction, _domain_size,
                      center_function, constant_function, format_scalar,
                      parse_values)
from .genfunc import (_degree_census, flat_blocks, jungle_total,
                      path_profile_bar)
from .jsontext import canonical_json, json_float, write_json
from .models import load_model, model_sha256
from .particle import (exact_eta_tensor_oracle, exact_PN_oracle,
                       exact_QN_oracle)

__all__ = ["main", "parse_args"]


# ---------------------------------------------------------------------------
# manifest and output plumbing


def _scalar_text(w: object) -> str:
    """JSON text of format_scalar(w): "num/den" for a Fraction, else the
    float."""
    if isinstance(w, Fraction):
        return '"%d/%d"' % (w.numerator, w.denominator)
    return json_float(float(w))


def _json_text(doc: object) -> str:
    """json.dumps(doc, indent=2, sort_keys=True) of doc with every leaf made
    plain: a Fraction as "num/den", a measure as its levels, nonzero
    {"point", "value"} entries, total mass and TV norm, a function as its
    levels and values, a numpy scalar as a Python number.  Written in one
    pass from the raw values, a measure's entries straight from its
    numerators; the text of an entry up to its value is built once per
    call for each (sizes, indentation)."""
    heads: Dict[Tuple[Tuple[int, ...], str], List[str]] = {}

    def leaf(v: object, pad: str, append: Callable[[str], None]) -> None:
        if isinstance(v, Fraction):
            append(_scalar_text(v))
        elif isinstance(v, SignedMeasure):
            inner, item, key = pad + "  ", pad + "    ", pad + "      "
            head = heads.get((v.sizes, pad))
            if head is None:
                coord = ",\n" + key + "  "
                head = heads[v.sizes, pad] = [
                    '{\n%s"point": %s,\n%s"value": ' % (
                        key, "[\n%s  %s\n%s]" % (key, coord.join(map(str, p)),
                                                 key) if p else "[]", key)
                    for p in itertools.product(*map(range, v.sizes))]
            close = "\n" + item + "}"
            den, exact = v.den, v.model.field == "rational"
            rows = [h + ('"%d/%d"' % (n // g, den // g) if exact
                         else json_float(n / den)) + close
                    for h, n in zip(head, v.nums) if n
                    for g in [gcd(n, den)]]
            append('{\n%s"entries": %s,\n%s"levels": ' % (
                inner, "[\n%s%s\n%s]" % (item, (",\n" + item).join(rows),
                                         inner) if rows else "[]", inner))
            write_json(v.levels, inner, append)
            append(',\n%s"total_mass": %s,\n%s"tv_norm": %s\n%s}' % (
                inner, _scalar_text(v.total_mass()), inner,
                _scalar_text(v.tv_norm()), pad))
        elif isinstance(v, TensorFunction):
            write_json({"levels": v.levels, "values": v.data}, pad, append,
                       leaf)
        else:
            # a numpy scalar can only come from the Monte Carlo side; item()
            # gives the Python number, and anything else is refused below
            write_json(v.item() if type(v).__module__ == "numpy" else v,
                       pad, append)

    return canonical_json(doc, leaf)


def _caps_from_args(args: SimpleNamespace) -> Caps:
    caps = DEFAULT_CAPS
    if args.cap_forests is not None:
        caps = caps._replace(forests=args.cap_forests,
                             group=args.cap_forests)
    if args.cap_tensor is not None:
        caps = caps._replace(tensor=args.cap_tensor,
                             configs=args.cap_tensor, series=args.cap_tensor)
    return caps


def _manifest(args: SimpleNamespace, params: Dict[str, object],
              model: Optional[FKModel] = None) -> Dict[str, object]:
    """Reproducibility header embedded in every output file."""
    return {
        "command": args.command,
        "parameters": params,
        "model_hash": model_sha256(model) if model is not None else None,
        "seed": args.seed,
        "version": __version__,
        "field": args.field,
        "caps": _caps_from_args(args)._asdict(),
    }


def _write_text(args: SimpleNamespace, text: str) -> None:
    # an empty --out names a path, which open refuses
    if args.out is not None:
        try:
            with open(args.out, "wb") as fh:
                fh.write(text.encode("utf-8"))
        except OSError as exc:
            raise InvalidParameter("cannot write output file %s: %s"
                                   % (args.out, exc))
    else:
        sys.stdout.write(text)


def _emit_json(args: SimpleNamespace, manifest: Dict[str, object],
               result: object) -> None:
    doc = {"manifest": manifest, "result": result}
    try:
        text = _json_text(doc)
    except ValueError:
        # the writer's one ValueError: an int too long for decimal text
        raise InvalidParameter("the result holds an integer of more than "
                               "%d digits" % sys.get_int_max_str_digits())
    _write_text(args, text + "\n")


def _emit_csv(args: SimpleNamespace, manifest: Dict[str, object],
              header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    import csv
    buf = io.StringIO()
    compact = json.dumps(manifest, sort_keys=True,
                         separators=(",", ":"))
    buf.write("# manifest: %s\n" % compact)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_scalar(v) if isinstance(v, Fraction) else v
                         for v in row])
    _write_text(args, buf.getvalue())


def _require_json(args: SimpleNamespace) -> None:
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
    values flat and row-major over coordinates left to right.  The table
    is built straight from the values' integer numerators over their
    lcm."""
    try:
        with open(path, "rb") as fh:
            doc = json.loads(fh.read().decode("utf-8"))
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
        nums, den = parse_values(raw, model.field)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError("bad value in function file %s: %s"
                              % (path, exc))
    caps.check_tensor(_domain_size(model, levels))
    return TensorFunction(model, levels, nums, den)


def _profile(args: SimpleNamespace) -> Tuple[int, ...]:
    """The block profile a request names: --q-seq as given, or --n/--q as
    the flat profile flat_blocks(n, q).  Naming both is refused."""
    if args.q_seq:
        prof = _parse_ints(args.q_seq)
        if args.n is not None or args.q is not None:
            raise InvalidParameter("--q-seq replaces --n/--q")
        return prof
    if args.n is None or args.q is None:
        raise InvalidParameter("need --n and --q, or --q-seq")
    return flat_blocks(args.n, args.q)


# ---------------------------------------------------------------------------
# enumerate / count


def _class_manifest(args: SimpleNamespace, prof: Sequence[int]
                    ) -> Tuple[str, Dict[str, object]]:
    """The kind (flat or colored) of an enumerate or count request and its
    manifest, which records the selection as given on the command line."""
    if args.q_seq:
        kind, sel = "colored", list(prof)
    else:
        kind, sel = "flat", {"n": args.n, "q": args.q}
    return kind, _manifest(args, {
        "kind": kind, "selection": sel,
        "max_coal": args.max_coal, "format": args.fmt})


def cmd_enumerate(args: SimpleNamespace) -> int:
    from .classsum import enumerate_colored_orbits
    caps = _caps_from_args(args)
    prof = _profile(args)
    kind, manifest = _class_manifest(args, prof)
    rows = [(f.encoding, " ".join(map(str, f.wprofile)),
             " ".join(map(str, f.bprofile)),
             " ".join(map(str, f.coal)), cnt)
            for f, cnt in enumerate_colored_orbits(prof, args.max_coal, caps)]
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


def cmd_count(args: SimpleNamespace) -> int:
    caps = _caps_from_args(args)
    prof = _profile(args)
    kind, manifest = _class_manifest(args, prof)
    pairs = path_profile_bar(prof)
    by_coal = _degree_census(pairs, args.max_coal, caps)
    classes = sum(c for c, _ in by_coal.values())
    total = sum(j for _, j in by_coal.values())
    identity = jungle_total(pairs)
    # the jungle census summed against prod_k b_(k-1)^(w_k + b_k); the
    # identity only covers the full class list
    complete = args.max_coal is None
    result = {
        "kind": kind,
        "classes": classes,
        "total_jungles": total,
        "identity_total": identity if complete else None,
        "identity_holds": (total == identity) if complete else None,
        "by_coalescence": {str(d): {"classes": c, "jungles": j}
                           for d, (c, j) in sorted(by_coal.items())},
    }
    if args.fmt == "csv":
        rows = [(d, c, j) for d, (c, j) in sorted(by_coal.items())]
        rows.append(("all", classes, total))
        _emit_csv(args, manifest, ("coal_degree", "classes", "jungles"),
                  rows)
    else:
        _emit_json(args, manifest, result)
    return 0


# ---------------------------------------------------------------------------
# hilbert


def cmd_hilbert(args: SimpleNamespace) -> int:
    from .series import (coalescence_series, hilbert_series,
                         marginalize_coalescence)
    caps = _caps_from_args(args)
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


def cmd_expand(args: SimpleNamespace) -> int:
    _require_json(args)
    # refused rather than recorded in the manifest as applied
    if args.center and not args.function:
        raise InvalidParameter("--center needs --function")
    if args.top is not None and not args.block:
        raise InvalidParameter("--top applies to --block only")
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
    if args.block:
        # the block law lives at the one time n+1 = --n: it has no profile
        if args.q_seq:
            raise InvalidParameter("--q-seq replaces --n/--q and --block")
        if args.n is None or args.q is None:
            raise InvalidParameter("--block needs --n and --q")
        if F is None:
            raise InvalidParameter("block-law expansion needs --function")
        if args.wick:
            raise InvalidParameter("--wick applies to moment expansions")
        from .fluctuation import expansion_report_P
        kind = "block"
        report = expansion_report_P(model, args.n, args.q, F, Ns=eval_ns,
                                    top=args.top, caps=caps)
    else:
        prof = _profile(args)
        if (oracle_ns or args.wick) and F is None:
            raise InvalidParameter(
                "--oracle/--wick need --function to pair against")
        if args.q_seq:
            kind = "path"
            report = expansion_report_path_Q(model, prof, Ns=eval_ns, F=F,
                                             caps=caps)
        else:
            kind = "tensor"
            report = expansion_report_Q(model, args.n, args.q, Ns=eval_ns,
                                        F=F, caps=caps)
    result = report.to_jsonable()

    if args.wick:
        from .fluctuation import path_wick_Q
        vanish, half = path_wick_Q(model, prof, F, caps)
        result["wick"] = {
            "vanishing_orders": vanish,
            "leading_order_value": half,
        }
    if oracle_ns and not args.block:
        result["oracle_deltas"] = {
            N: report.evaluations[N]
            - exact_QN_oracle(model, N, prof, F, caps=caps)
            for N in dict.fromkeys(oracle_ns)}

    manifest = _manifest(args, {
        "model": args.model, "kind": kind, "n": args.n, "q": args.q,
        "q_seq": list(prof) if args.q_seq else None, "top": args.top,
        "function": bool(args.function), "center": bool(args.center),
        "evaluate": list(eval_ns), "oracle": list(oracle_ns),
        "wick": bool(args.wick)}, model)
    _emit_json(args, manifest, result)
    return 0


# ---------------------------------------------------------------------------
# oracle


def cmd_oracle(args: SimpleNamespace) -> int:
    _require_json(args)
    caps = _caps_from_args(args)
    model = load_model(args.model, args.field)
    if args.function is None:
        raise InvalidParameter("oracle needs --function")
    F = _load_function(model, args.function, caps)
    if args.kind == "gamma":
        prof = _profile(args)
        value = exact_QN_oracle(model, args.N, prof, F, caps=caps)
    elif args.q_seq:
        raise InvalidParameter("--q-seq needs --kind gamma, not --kind %s"
                               % args.kind)
    elif args.n is None or args.q is None:
        raise InvalidParameter("need --n and --q, or --q-seq")
    elif args.kind == "eta":
        value = exact_eta_tensor_oracle(model, args.N, args.n, args.q, F,
                                        caps)
    else:
        value = exact_PN_oracle(model, args.N, args.n, args.q, F, caps)
    if args.q_seq:
        params = {"kind": "gamma-tensor-path", "q_seq": list(prof)}
    else:
        params = {"kind": args.kind, "n": args.n, "q": args.q}
    params.update({"model": args.model, "N": args.N})
    manifest = _manifest(args, params, model)
    _emit_json(args, manifest, {"value": value})
    return 0


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args: SimpleNamespace) -> int:
    if args.replicas < 1:
        raise InvalidParameter("--replicas must be >= 1")
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
        if q < 1:
            raise InvalidParameter("%s needs --q >= 1" % est)
        if args.function:
            F = _load_function(model, args.function, caps)
        else:
            caps.check_tensor(model.size(level) ** q)
            F = constant_function(model, (level,) * q, model.one)
    key = {"gamma": "gamma", "eta": "eta",
           "tensor-q": "eta_tensor", "dot-q": "eta_dot"}[est]
    draws = args.N * (horizon + 1) * args.replicas
    if draws > caps.tensor:
        raise CapExceeded("simulation too large", predicted=draws,
                          cap=caps.tensor)
    from .montecarlo import estimators, simulate
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


def cmd_verify(args: SimpleNamespace) -> int:
    _require_json(args)
    from .selfcheck import _CHECKS
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


# ---------------------------------------------------------------------------
# command table, argv parser and dispatch

_DESCRIPTION = ("Exact genealogy combinatorics and finite ensemble-size\n"
                "expansions for weighted particle systems.")

# A flag row is (flag, dest, kind, default, required, help).  kind is int or
# str for a flag that takes a value, bool for a switch (default False), or
# the tuple of the values a choice flag accepts.
_COMMON_FLAGS = (
    ("--field", "field", ("rational", "float"), "rational", False,
     "arithmetic mode: float runs the exact engine on the exact values "
     "of the floats read and rounds each value once, where it is read; "
     "the oracle and simulate compute in floats"),
    ("--cap-forests", "cap_forests", int, None, False,
     "override the enumeration size cap: genealogy classes listed or "
     "counted, and set partitions of one live block in the moment "
     "expansions"),
    ("--cap-tensor", "cap_tensor", int, None, False,
     "override the dense table size cap; the same value also caps the "
     "configurations of one oracle level, the retained terms of a "
     "truncated series, the census terms of a class count, "
     "sum_k p(b_(k-1)) (p(b_k) + w_k) for p(n) the cycle types of "
     "n blacks, the work of an oracle pass, N sum_k |C_(k-1)||C_k| v_k "
     "over its transitions and the lengths v_k of the vectors they "
     "carry, and the draws of a simulation, N (horizon + 1) replicas"),
    ("--seed", "seed", int, 0, False, ""),
    ("--out", "out", str, None, False, "output file (default stdout)"),
    ("--format", "fmt", ("json", "csv"), "json", False, ""),
)

_SELECTION_FLAGS = (
    ("--n", "n", int, None, False, "tree height (levels 0..n)"),
    ("--q", "q", int, None, False, "number of roots / block size"),
    ("--q-seq", "q_seq", str, None, False,
     "per-level block profile, e.g. 1,1 (colored classes)"),
    ("--max-coal", "max_coal", int, None, False,
     "retain classes with at most this many merges"),
)

# command -> (handler, help, flags); every command also takes _COMMON_FLAGS
_COMMANDS: Dict[str, Tuple[Callable[[SimpleNamespace], int], str,
                           Tuple[tuple, ...]]] = {
    "enumerate": (cmd_enumerate, "list genealogy classes with their sizes",
                  _SELECTION_FLAGS),
    "count": (cmd_count, "class and labeled-ancestry totals",
              _SELECTION_FLAGS),
    "hilbert": (cmd_hilbert, "generating-function census by profile", (
        ("--n", "n", int, None, True, ""),
        ("--truncation", "truncation", str, None, True,
         "exponent bound, single int or per-level list"),
        ("--coalescence", "coalescence", bool, False, False,
         "refine by per-level merge counts"),
    )),
    "expand": (cmd_expand, "coefficient report for a moment family", (
        ("--model", "model", str, None, True,
         "bundled model name or JSON file"),
        ("--n", "n", int, None, False, ""),
        ("--q", "q", int, None, False, ""),
        ("--q-seq", "q_seq", str, None, False, ""),
        ("--block", "block", bool, False, False,
         "q-particle block law instead of tensor moments"),
        ("--top", "top", int, None, False,
         "truncation order for the block law"),
        ("--function", "function", str, None, False,
         "tensor function JSON file to pair against"),
        ("--center", "center", bool, False, False,
         "center the function before use"),
        ("--evaluate", "evaluate", str, None, False,
         "ensemble sizes for exact finite-size values"),
        ("--oracle", "oracle", str, None, False,
         "ensemble sizes to cross-check against the configuration oracle "
         "(oracle_deltas); with --block these sizes are evaluated by the "
         "block-law oracle and feed the residuals in diagnostics, and no "
         "oracle_deltas are written"),
        ("--wick", "wick", bool, False, False,
         "report vanishing orders for a centered function"),
    )),
    "oracle": (cmd_oracle,
               "exact finite-ensemble expectation by dynamic programming", (
                   ("--model", "model", str, None, True, ""),
                   ("--N", "N", int, None, True, ""),
                   ("--n", "n", int, None, False, ""),
                   ("--q", "q", int, None, False, ""),
                   ("--q-seq", "q_seq", str, None, False, ""),
                   ("--kind", "kind", ("gamma", "eta", "block"), "gamma",
                    False, ""),
                   ("--function", "function", str, None, False, ""),
               )),
    "simulate": (cmd_simulate,
                 "seeded Monte Carlo replicas with estimators", (
                     ("--model", "model", str, None, True, ""),
                     ("--N", "N", int, None, True, ""),
                     ("--horizon", "horizon", int, None, False, ""),
                     ("--n", "n", int, None, False,
                      "estimator level (default: horizon)"),
                     ("--replicas", "replicas", int, 1, False, ""),
                     ("--estimator", "estimator",
                      ("gamma", "eta", "tensor-q", "dot-q"), "gamma", False,
                      ""),
                     ("--q", "q", int, None, False, ""),
                     ("--function", "function", str, None, False, ""),
                 )),
    "verify": (cmd_verify, "run the bundled self-check suite", (
        ("--only", "only", str, None, False,
         "substring filter over check names"),
    )),
}


def _match(token: str, names: Sequence[str]) -> str:
    """The flag token names: itself, or the one flag it is a prefix of."""
    if token in names:
        return token
    hits = [n for n in names if n.startswith(token)] if len(token) > 2 else []
    if len(hits) == 1:
        return hits[0]
    if hits:
        raise InvalidParameter("ambiguous flag %s: could be %s"
                               % (token, ", ".join(hits)))
    raise InvalidParameter("unknown flag %r" % token)


def _show(args: SimpleNamespace) -> int:
    sys.stdout.write(args.text)
    return 0


def _help_text(command: Optional[str]) -> str:
    import textwrap
    helps = [("-h, --help", "show this help")]
    if command is None:
        head = ["usage: fkforest [-h] [--version] <command> [flags]", "",
                _DESCRIPTION, ""]
        sections = [("commands (fkforest <command> --help lists the flags "
                     "of one):", [(name, entry[1])
                                  for name, entry in _COMMANDS.items()]),
                    ("flags:", helps + [("--version", "print the version")])]
    else:
        _, about, flags = _COMMANDS[command]
        head = ["usage: fkforest %s [flags]" % command, "", about, ""]
        for flag, dest, kind, default, required, text in flags + _COMMON_FLAGS:
            if kind is bool:
                usage = flag
            elif isinstance(kind, tuple):
                usage = "%s {%s}" % (flag, ",".join(kind))
            else:
                usage = "%s %s" % (flag, dest.upper())
            if required:
                text = (text + " (required)").strip()
            elif default is not None and kind is not bool:
                text = (text + " (default: %s)" % default).strip()
            helps.append((usage, text))
        sections = [("flags:", helps)]
    width = min(max(len(u) for _, rows in sections for u, _ in rows), 24) + 4
    lines = head
    for title, rows in sections:
        lines.append(title)
        for usage, text in rows:
            lead = "  " + usage
            if len(lead) + 2 > width:
                lines.append(lead)
                lead = ""
            lines.append(textwrap.fill(text, 79,
                                       initial_indent=lead.ljust(width),
                                       subsequent_indent=" " * width)
                         if text else lead)
        lines.append("")
    return "\n".join(lines)


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """Read argv against the command table into a namespace that holds the
    command name, its handler as `func`, and one attribute per flag of the
    command.  A help or version request gets a handler that prints it.
    Raises InvalidParameter on anything the table does not accept."""
    if not argv:
        raise InvalidParameter("missing command; choose from %s"
                               % ", ".join(_COMMANDS))
    head = argv[0]
    if head.startswith("-"):
        top = _match("--help" if head == "-h" else head,
                     ("--help", "--version"))
        text = _help_text(None) if top == "--help" else __version__ + "\n"
        return SimpleNamespace(command=None, func=_show, text=text)
    entry = _COMMANDS.get(head)
    if entry is None:
        raise InvalidParameter("unknown command %r; choose from %s"
                               % (head, ", ".join(_COMMANDS)))
    func, _, flags = entry
    rows = {row[0]: row for row in flags + _COMMON_FLAGS}
    names = tuple(rows) + ("--help",)
    args = SimpleNamespace(command=head, func=func)
    for _, dest, _, default, _, _ in rows.values():
        setattr(args, dest, default)
    i = 1
    while i < len(argv):
        token = argv[i]
        i += 1
        if token == "-h":
            token = "--help"
        if not token.startswith("--"):
            raise InvalidParameter("unrecognized argument %r" % token)
        name, eq, value = token.partition("=")
        flag = _match(name, names)
        if flag == "--help":
            return SimpleNamespace(command=head, func=_show,
                                   text=_help_text(head))
        _, dest, kind, _, _, _ = rows[flag]
        if kind is bool:
            if eq:
                raise InvalidParameter("flag %s takes no value" % flag)
            setattr(args, dest, True)
            continue
        if not eq:
            if i == len(argv):
                raise InvalidParameter("flag %s needs a value" % flag)
            value = argv[i]
            i += 1
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise InvalidParameter("flag %s needs an integer, got %r"
                                       % (flag, value))
        elif kind is not str and value not in kind:
            raise InvalidParameter("flag %s must be one of %s, got %r"
                                   % (flag, ", ".join(kind), value))
        setattr(args, dest, value)
    # a required flag has no default, and a given value is never None
    missing = [row[0] for row in rows.values()
               if row[4] and getattr(args, row[1]) is None]
    if missing:
        raise InvalidParameter("%s needs %s" % (head, ", ".join(missing)))
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except ToolkitError as exc:
        doc = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, CapExceeded):
            doc.update(predicted=exc.predicted, cap=exc.cap)
            try:
                str(exc.predicted)
            except ValueError:  # too many digits to write: say its size
                doc["predicted"] = "at least 2**%d" % (
                    exc.predicted.bit_length() - 1)
        sys.stderr.write(json.dumps(doc, sort_keys=True) + "\n")
        return 1 if isinstance(exc, IdentityMismatch) else 2


if __name__ == "__main__":
    sys.exit(main())
