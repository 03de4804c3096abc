"""Bundled finite-state models and seeded random model generation.

Five rational models ship with the package: three on two states and two on
three states.  ``drift2`` (horizon 3, mild selection) is the workhorse;
``flat2`` has unit potentials, so its particles stay independent Markov
chains; ``cycle3`` cycles mass around its states and ``blend3`` has
well-mixed rows.  Each carries frozen exact flow values (per-level total
mass and normalized distribution) that were cross-checked against a
brute-force path enumeration before being recorded here;
``check_documented_flow`` re-verifies them on demand.  ``skew2`` (strong
selection) doubles as the standard witness that the normalized particle
estimator is biased at finite N.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

try:
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython before 3.12
    except ImportError:
        from hashlib import sha256

from .errors import IdentityMismatch, InvalidParameter, ValidationError
from .fk_core import FKModel, flow, format_scalar

__all__ = [
    "bundled_model",
    "bundled_names",
    "check_documented_flow",
    "DOCUMENTED_FLOW",
    "load_model",
    "model_sha256",
    "random_rational_model",
]


_DEFS: Dict[str, dict] = {
    "drift2": dict(
        states=[["a", "b"]] * 4,
        eta0=["1/3", "2/3"],
        M=[[["1/2", "1/2"], ["1/4", "3/4"]],
           [["2/3", "1/3"], ["1/5", "4/5"]],
           [["3/7", "4/7"], ["1/2", "1/2"]]],
        G=[["2", "1/2"], ["1", "3"], ["1/2", "5/2"], ["1", "2"]],
    ),
    "flat2": dict(
        states=[["a", "b"]] * 3,
        eta0=["1/2", "1/2"],
        M=[[["1/3", "2/3"], ["3/5", "2/5"]],
           [["1/4", "3/4"], ["1/2", "1/2"]]],
        G=[["1", "1"], ["1", "1"], ["1", "1"]],
    ),
    "skew2": dict(
        states=[["a", "b"]] * 3,
        eta0=["1/4", "3/4"],
        M=[[["4/5", "1/5"], ["1/10", "9/10"]],
           [["1/2", "1/2"], ["2/7", "5/7"]]],
        G=[["3", "1/3"], ["1/5", "5"], ["2", "1"]],
    ),
    "cycle3": dict(
        states=[["a", "b", "c"]] * 3,
        eta0=["1/2", "1/3", "1/6"],
        M=[[["1/6", "2/3", "1/6"], ["1/6", "1/6", "2/3"],
            ["2/3", "1/6", "1/6"]],
           [["1/10", "4/5", "1/10"], ["1/10", "1/10", "4/5"],
            ["4/5", "1/10", "1/10"]]],
        G=[["1", "2", "1/2"], ["3/2", "1", "2"], ["2", "1/2", "1"]],
    ),
    "blend3": dict(
        states=[["a", "b", "c"]] * 3,
        eta0=["2/5", "2/5", "1/5"],
        M=[[["1/3", "1/3", "1/3"], ["1/2", "1/4", "1/4"],
            ["1/5", "2/5", "2/5"]],
           [["1/4", "1/4", "1/2"], ["1/3", "1/2", "1/6"],
            ["3/8", "3/8", "1/4"]]],
        G=[["1", "3/2", "1/2"], ["2", "1", "1"], ["1/2", "1", "3"]],
    ),
}

# Exact flow values per model: total masses by level, then the normalized
# distribution at each level.  Frozen after agreeing with an independent
# path-sum enumeration; never edit by hand.
DOCUMENTED_FLOW: Dict[str, Dict[str, tuple]] = {
    "drift2": {
        "gamma_mass": ("1/1", "1/1", "13/6", "749/180"),
        "eta": (
            ("1/3", "2/3"),
            ("5/12", "7/12"),
            ("113/390", "277/390"),
            ("10373/20972", "10599/20972"),
        ),
    },
    "flat2": {
        "gamma_mass": ("1/1", "1/1", "1/1"),
        "eta": (
            ("1/2", "1/2"),
            ("7/15", "8/15"),
            ("23/60", "37/60"),
        ),
    },
    "skew2": {
        "gamma_mass": ("1/1", "1/1", "2/1"),
        "eta": (
            ("1/4", "3/4"),
            ("5/8", "3/8"),
            ("67/224", "157/224"),
        ),
    },
    "cycle3": {
        "gamma_mass": ("1/1", "5/4", "23/12"),
        "eta": (
            ("1/2", "1/3", "1/6"),
            ("1/5", "11/30", "13/30"),
            ("57/115", "109/460", "123/460"),
        ),
    },
    "blend3": {
        "gamma_mass": ("1/1", "11/10", "233/150"),
        "eta": (
            ("2/5", "2/5", "1/5"),
            ("68/165", "97/330", "97/330"),
            ("3281/11184", "1223/3728", "2117/5592"),
        ),
    },
}


def bundled_names() -> Tuple[str, ...]:
    return tuple(_DEFS)


def bundled_model(name: str, field: str = "rational") -> FKModel:
    """Fresh instance of a bundled model, rational unless asked otherwise."""
    if name not in _DEFS:
        raise InvalidParameter(
            "unknown bundled model %r; known: %s"
            % (name, ", ".join(sorted(_DEFS))))
    d = _DEFS[name]
    return FKModel(d["states"], d["eta0"], d["M"], d["G"], field)


def check_documented_flow(name: str) -> None:
    """Re-derive the frozen flow values; mismatch means corrupted data."""
    doc = DOCUMENTED_FLOW[name]
    fl = flow(bundled_model(name))
    got_mass = tuple(format_scalar(v) for v in fl.gnorm)
    got_eta = tuple(tuple(format_scalar(v) for v in vec)
                    for vec in fl.eta_vec)
    if got_mass != doc["gamma_mass"] or got_eta != doc["eta"]:
        raise IdentityMismatch(
            "bundled model %r no longer reproduces its documented flow"
            % name,
            lhs={"gamma_mass": got_mass, "eta": got_eta},
            rhs=doc)


def load_model(source: str, field: Optional[str] = None) -> FKModel:
    """Resolve a model reference: bundled name first, then a JSON file."""
    if source in _DEFS:
        return bundled_model(source, field or "rational")
    if os.path.exists(source):
        try:
            with open(source, "rb") as fh:
                model = FKModel.from_json(fh.read().decode("utf-8"))
        except OSError as exc:
            raise InvalidParameter("cannot read model file %s: %s"
                                   % (source, exc))
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            # not UTF-8, not JSON, or an entry that is no number
            raise ValidationError("bad model file %s: %s" % (source, exc))
        if field is not None and field != model.field:
            # re-enter through the constructor so the target field's
            # validation applies to the converted entries
            return FKModel(model.states,
                           [format_scalar(v) for v in model.eta0],
                           [[[format_scalar(v) for v in row] for row in mk]
                            for mk in model.M],
                           [[format_scalar(v) for v in gk]
                            for gk in model.G], field)
        return model
    raise InvalidParameter(
        "model %r is neither a bundled name (%s) nor an existing file"
        % (source, ", ".join(sorted(_DEFS))))


def model_sha256(model: FKModel) -> str:
    """Hash of the canonical JSON serialization; keys sorted, so stable.

    The constructor is CPython's built-in SHA-256 where the interpreter
    has one, the same algorithm and digest as ``hashlib.sha256``.  Going
    through ``hashlib`` would load OpenSSL at import and initialize it
    again in every forked request; the standard library's ``random``
    module takes its own hash the same way, for the same reason."""
    return sha256(model.to_json().encode("utf-8")).hexdigest()


def _simplex(rng: random.Random, k: int) -> Tuple[Fraction, ...]:
    # positive integer weights normalized exactly; sums to 1 by construction
    w = [rng.randint(1, 9) for _ in range(k)]
    s = sum(w)
    return tuple(Fraction(v, s) for v in w)


def random_rational_model(seed: int, sizes: Optional[Sequence[int]] = None,
                          horizon: int = 2) -> FKModel:
    """Deterministic small random model keyed by seed.

    ``sizes`` fixes the per-level state counts; by default each level gets
    2 or 3 states, drawn from the same stream, over ``horizon`` steps.
    """
    import random
    import string
    rng = random.Random(seed)
    if sizes is None:
        sizes = [rng.randint(2, 3) for _ in range(horizon + 1)]
    sizes = [int(s) for s in sizes]
    if not sizes or any(s < 1 for s in sizes):
        raise InvalidParameter("sizes must be positive")
    if any(s > len(string.ascii_lowercase) for s in sizes):
        raise InvalidParameter("at most 26 states per level")
    states = [list(string.ascii_lowercase[:s]) for s in sizes]
    eta0 = _simplex(rng, sizes[0])
    M = [[_simplex(rng, sizes[k + 1]) for _ in range(sizes[k])]
         for k in range(len(sizes) - 1)]
    G = [[Fraction(rng.randint(1, 8), rng.randint(1, 4))
          for _ in range(s)] for s in sizes]
    return FKModel(states, eta0, M, G)
