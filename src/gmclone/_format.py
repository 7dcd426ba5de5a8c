"""Deterministic text serialization helpers.

Floats are printed with 17 significant digits everywhere a file format is
involved: 17 digits round-trip IEEE-754 doubles exactly, so every stage
file, export document and report is lossless and byte-stable on rewrite.

The JSON renderer takes a float64 array as one leaf: its text, the nested
lists of ``arr.tolist()``, comes from a single ``str.format`` call on a
template of ``{:.17g}`` fields built from the array's shape and depth.  The
renderer yields the document as text pieces, one per array or scalar and
the punctuation between them, so a writer that streams the pieces holds at
most one array's text at a time.
"""

from __future__ import annotations

import numpy as np

_INDENT = 2  # spaces per nesting level of the JSON text


def float17(x: float) -> str:
    x = float(x)
    if x == 0.0:
        return "0"  # collapse -0.0 so rewrites stay byte-identical
    return format(x, ".17g")


def dumps_17g(obj) -> str:
    """JSON text with floats rendered via :func:`float17`.

    Supports the subset of JSON this package emits: dict (insertion order
    preserved), list/tuple, str, bool, int, float, None, and float64
    ``np.ndarray`` of any shape, rendered as its ``tolist()``.
    """
    return "".join(_pieces(obj))


def _pieces(obj):
    """The text of :func:`dumps_17g` as an iterator of pieces."""
    yield from _render(obj, 0)
    yield "\n"


def _render(value, depth):
    """Pieces of ``value``: each leaf with the punctuation before it."""
    if not isinstance(value, (dict, list, tuple)):
        yield _leaf(value, depth)
        return
    if not value:
        yield "{}" if isinstance(value, dict) else "[]"
        return
    inner = " " * (_INDENT * (depth + 1))
    if isinstance(value, dict):
        opener, closer = "{\n", "}"
        items = [(f'{inner}"{_key(key)}": ', item) for key, item in value.items()]
    else:
        opener, closer = "[\n", "]"
        items = [(inner, item) for item in value]
    for head, item in items:
        if isinstance(item, (dict, list, tuple)):
            yield opener + head
            yield from _render(item, depth + 1)
        else:
            yield opener + head + _leaf(item, depth + 1)
        opener = ",\n"
    yield "\n" + " " * (_INDENT * depth) + closer


def _template(shape, depth):
    """Format template of an array of ``shape`` rendered at ``depth``."""
    if not shape:
        return "{:.17g}"
    if not shape[0]:
        return "[]"
    row = " " * (_INDENT * (depth + 1)) + _template(shape[1:], depth + 1)
    return "[\n" + ",\n".join([row] * shape[0]) + "\n" + " " * (_INDENT * depth) + "]"


def _leaf(value, depth) -> str:
    if isinstance(value, np.ndarray):
        if value.dtype != np.float64:
            raise TypeError(f"cannot serialize a {value.dtype} array")
        # + 0.0 turns -0.0 into 0.0, which prints "0" as in float17.
        values = (value.reshape(-1) + 0.0).tolist()
        return _template(value.shape, depth).format(*values)
    if isinstance(value, str):
        return f'"{_escape(value)}"'
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return float17(value)
    raise TypeError(f"cannot serialize {type(value)}")


def _key(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"JSON keys must be str, got {type(key)}")
    return _escape(key)


_ESCAPES = {ord('"'): '\\"', ord("\\"): "\\\\", **{c: f"\\u{c:04x}" for c in range(0x20)}}


def _escape(text: str) -> str:
    return text.translate(_ESCAPES)
