"""Canonical JSON text in one pass.

`canonical_json(doc)` returns exactly what ``json.dumps(doc, indent=2,
sort_keys=True)`` returns, without the standard library's pure-Python
indenting encoder.  Result files and model hashes are both built on it.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import Callable, Dict, List

__all__ = ["canonical_json"]

_INF = float("inf")


def _json_float(v: float) -> str:
    if v != v:
        return "NaN"
    if v == _INF:
        return "Infinity"
    if v == -_INF:
        return "-Infinity"
    return float.__repr__(v)


# exact scalar type -> its JSON text; subclasses go through _write_json
_JSON_SCALARS: Dict[type, Callable[[object], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _json_float,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}


def _write_json(v: object, pad: str, append: Callable[[str], None]) -> None:
    """Append the text of v as json.dumps(v, indent=2, sort_keys=True)
    renders it at indentation pad.  Dict keys must be strings; scalar
    members are written without a recursive call."""
    if isinstance(v, dict):
        if not v:
            append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for k in sorted(v):
            x = v[k]
            append(sep)
            append(encode_basestring_ascii(k))
            append(": ")
            scalar = _JSON_SCALARS.get(type(x))
            if scalar is None:
                _write_json(x, inner, append)
            else:
                append(scalar(x))
            sep = ",\n" + inner
        append("\n" + pad + "}")
    elif isinstance(v, (list, tuple)):
        if not v:
            append("[]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        for x in v:
            append(sep)
            scalar = _JSON_SCALARS.get(type(x))
            if scalar is None:
                _write_json(x, inner, append)
            else:
                append(scalar(x))
            sep = ",\n" + inner
        append("\n" + pad + "]")
    elif type(v) in _JSON_SCALARS:
        append(_JSON_SCALARS[type(v)](v))
    elif isinstance(v, str):
        append(encode_basestring_ascii(v))
    elif isinstance(v, int):
        append(int.__repr__(v))
    elif isinstance(v, float):
        append(_json_float(v))
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % type(v).__name__)


def canonical_json(doc: object) -> str:
    """json.dumps(doc, indent=2, sort_keys=True), in one pass."""
    chunks: List[str] = []
    _write_json(doc, "", chunks.append)
    return "".join(chunks)
