"""Canonical JSON text in one pass.

`canonical_json(doc)` returns exactly what ``json.dumps(doc, indent=2,
sort_keys=True)`` returns, without the standard library's pure-Python
indenting encoder.  Result files and model hashes are both built on it.

A caller whose documents hold values that are not JSON (exact rationals,
tables) passes one hook, `leaf(v, pad, append)`, which appends the text of
such a value at indentation `pad`, calling `write_json` again for any JSON
it holds.  Values are then written raw, with no plain copy of the document
built first; dict keys that are not strings sort and render as their
`str`.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import Callable, Dict, List, Optional

__all__ = ["canonical_json", "json_float", "write_json"]

_INF = float("inf")

Append = Callable[[str], None]
Leaf = Callable[[object, str, Append], None]


def json_float(v: float) -> str:
    """The text json.dumps gives a float."""
    if v != v:
        return "NaN"
    if v == _INF:
        return "Infinity"
    if v == -_INF:
        return "-Infinity"
    return float.__repr__(v)


# exact scalar type -> its JSON text; subclasses go through write_json
_JSON_SCALARS: Dict[type, Callable[[object], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: json_float,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}


def write_json(v: object, pad: str, append: Append,
               leaf: Optional[Leaf] = None) -> None:
    """Append the text of v as json.dumps(v, indent=2, sort_keys=True)
    renders it at indentation pad.  Scalar members are written without a
    recursive call; a value that is not JSON goes to leaf."""
    if isinstance(v, dict):
        keys = sorted(v, key=str)
        members, ends = [v[k] for k in keys], "{}"
    elif isinstance(v, (list, tuple)):
        keys, members, ends = None, v, "[]"
    else:
        scalar = _JSON_SCALARS.get(type(v))
        if scalar is not None:
            append(scalar(v))
        elif isinstance(v, str):
            append(encode_basestring_ascii(v))
        elif isinstance(v, int):
            append(int.__repr__(v))
        elif isinstance(v, float):
            append(json_float(v))
        elif leaf is not None:
            leaf(v, pad, append)
        else:
            raise TypeError("Object of type %s is not JSON serializable"
                            % type(v).__name__)
        return
    if not members:
        append(ends)
        return
    inner = pad + "  "
    sep = ends[0] + "\n" + inner
    for i, x in enumerate(members):
        append(sep)
        if keys is not None:
            k = keys[i]
            append(encode_basestring_ascii(k if type(k) is str else str(k))
                   + ": ")
        scalar = _JSON_SCALARS.get(type(x))
        if scalar is None:
            write_json(x, inner, append, leaf)
        else:
            append(scalar(x))
        sep = ",\n" + inner
    append("\n" + pad + ends[1])


def canonical_json(doc: object, leaf: Optional[Leaf] = None) -> str:
    """json.dumps(doc, indent=2, sort_keys=True), in one pass."""
    chunks: List[str] = []
    write_json(doc, "", chunks.append, leaf)
    return "".join(chunks)
