"""Indented JSON text for reports and traces.

``dumps(x)`` is ``json.dumps(x, indent=2)`` for the value shapes the package
writes: dicts with string keys, lists, tuples, strings, ints, bools and None.
With an indent the standard library falls back to its pure-Python encoder,
whose closures leave reference cycles behind on every call; here strings go
through the C string encoder, ints, bools and None are written in the loop
that meets them, and each level is joined with ",\\n" plus the indentation,
which gives the same bytes.

Reports hold label data as indices. ``Labels`` escapes each label of a
ground once, and its ``Fragment``s, lists of labels or of label lists or a
dict keyed by label, are written from those strings with no decode.
``dump`` writes a dict one top-level item at a time.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string

# the writer of each scalar type, called in the loop that meets the value
_SCALARS = {
    str: _string,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


class Labels:
    """The labels of one ground, ``escaped[i]`` the JSON string of
    ``labels[i]``, and the fragments over them."""

    __slots__ = ("labels", "escaped")

    def __init__(self, labels):
        self.labels = labels
        self.escaped = list(map(_string, labels))

    def items(self, indices) -> Fragment:
        """The list of the labels at ``indices``."""
        return Fragment(self, 1, list(indices))

    def rows(self, rows) -> Fragment:
        """The list of label lists at the index tuples ``rows``."""
        return Fragment(self, 2, rows)

    def mapping(self, values) -> Fragment:
        """The dict from each label to its value, ``values`` by index."""
        return Fragment(self, 0, values)


class Fragment:
    """Label data held as indices over ``codec``: at ``depth`` 1 a list of
    labels, at 2 a list of label lists, at 0 a dict from label to value. It
    iterates as, compares equal to and has the length of that plain value,
    which ``decode`` builds; ``dumps`` writes it from the escaped labels."""

    __slots__ = ("codec", "depth", "data")

    def __init__(self, codec: Labels, depth: int, data):
        self.codec = codec
        self.depth = depth
        self.data = data

    def decode(self):
        labels, data = self.codec.labels, self.data
        if self.depth == 0:
            return dict(zip(labels, data))
        if self.depth == 1:
            return [labels[i] for i in data]
        return [[labels[i] for i in row] for row in data]

    def __iter__(self):
        return iter(self.decode())

    def __len__(self):
        return len(self.data)

    def __eq__(self, other):
        return self.decode() == other

    __hash__ = None

    def __repr__(self):
        return repr(self.decode())

    def _json(self, newline: str) -> str:
        data, depth = self.data, self.depth
        if not data:
            return "[]" if depth else "{}"
        escaped = self.codec.escaped
        inner = newline + "  "
        if depth == 0:
            get = _SCALARS.get
            items = [e + ": " + (f(v) if (f := get(type(v))) else _encode(v, inner))
                     for e, v in zip(escaped, data)]
            return "{" + inner + ("," + inner).join(items) + newline + "}"
        label = escaped.__getitem__
        if depth == 1:
            items = map(label, data)
        else:
            deeper = inner + "  "
            sep = "," + deeper
            items = ["[" + deeper + sep.join(map(label, row)) + inner + "]" if row else "[]"
                     for row in data]
        return "[" + inner + ("," + inner).join(items) + newline + "]"


def dumps(value) -> str:
    """The text of ``json.dumps(value, indent=2)``, a Fragment written as
    its plain value.

    Only the exact types dict (with string keys), list, tuple, str, int,
    bool, None and Fragment are accepted; any other type, subclasses
    included, raises TypeError.
    """
    return _encode(value, "\n")


def dump(value, write) -> None:
    """``write(dumps(value))``, a nonempty dict in one call per item."""
    if type(value) is not dict or not value:
        write(_encode(value, "\n"))
        return
    sep = "{\n  "
    get = _SCALARS.get
    for k, v in value.items():
        write(sep + _string(k) + ": " + (f(v) if (f := get(type(v))) else _encode(v, "\n  ")))
        sep = ",\n  "
    write("\n}")


def _encode(x, newline: str) -> str:
    t = type(x)
    get = _SCALARS.get
    if t is dict:
        if not x:
            return "{}"
        inner = newline + "  "
        # _string raises TypeError on a key that is not a str
        items = [_string(k) + ": " + (f(v) if (f := get(type(v))) else _encode(v, inner))
                 for k, v in x.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if t is list or t is tuple:
        if not x:
            return "[]"
        inner = newline + "  "
        items = [f(v) if (f := get(type(v))) else _encode(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if t is Fragment:
        return x._json(newline)
    f = get(t)
    if f is None:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
    return f(x)
