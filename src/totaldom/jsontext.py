"""Indented JSON text for reports and traces.

``dumps(x)`` is ``json.dumps(x, indent=2)`` for the value shapes the package
writes: dicts with string keys, lists, tuples, strings, ints, bools and None.
With an indent the standard library falls back to its pure-Python encoder,
whose closures leave reference cycles behind on every call; here strings go
through the C string encoder and each level is joined with ",\\n" plus the
indentation, which gives the same bytes.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string


def dumps(value) -> str:
    """The text of ``json.dumps(value, indent=2)``.

    Only the exact types dict (with str keys), list, tuple, str, int, bool and
    None are accepted; any other type, subclasses included, raises TypeError.
    """
    return _encode(value, "\n")


def _encode(x, newline: str) -> str:
    t = type(x)
    if t is str:
        return _string(x)
    if t is list or t is tuple:
        if not x:
            return "[]"
        inner = newline + "  "
        items = [_string(v) if type(v) is str else _encode(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if t is dict:
        if not x:
            return "{}"
        inner = newline + "  "
        items = []
        for k, v in x.items():
            if type(k) is not str:
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            items.append(_string(k) + ": " + (_string(v) if type(v) is str else _encode(v, inner)))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if t is int:
        return int.__repr__(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
