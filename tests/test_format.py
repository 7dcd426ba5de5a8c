"""Tests for the deterministic JSON renderer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmclone._format import dumps_17g


def _float17(x):
    """A frozen copy of the float rendering the recursive renderer used."""
    x = float(x)
    if x == 0.0:
        return "0"
    return format(x, ".17g")


def _escape(text):
    """A frozen copy of the JSON string escape the recursive renderer used."""
    out = []
    for ch in text:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


def recursive_dumps(obj, indent=2):
    """A frozen copy of the recursive renderer that pins the output format."""

    def render(value, depth):
        pad = " " * (indent * depth)
        inner = " " * (indent * (depth + 1))
        if isinstance(value, dict):
            if not value:
                return "{}"
            rows = [
                f'{inner}"{_escape(key)}": {render(item, depth + 1)}'
                for key, item in value.items()
            ]
            return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
        if isinstance(value, (list, tuple)):
            if not len(value):
                return "[]"
            rows = [f"{inner}{render(item, depth + 1)}" for item in value]
            return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
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
            return _float17(value)
        raise TypeError(f"cannot serialize {type(value)}")

    return render(obj, 0) + "\n"


def as_lists(obj):
    """``obj`` with each array replaced by its ``tolist()``."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: as_lists(item) for key, item in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_lists(item) for item in obj]
    return obj


# Edge values of the .17g rendering: signed zeros, the subnormal and normal
# extremes, and both sides of its switches from fixed to exponent notation
# (below 1e-4, at 1e17 and above).
EDGES = [
    x
    for v in (0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
              1e-5, 1e-4, 1e16, 1e17)
    for x in (v, -v, math.nextafter(v, 0.0), math.nextafter(v, math.inf))
    if math.isfinite(x)
]
ELEMENTS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGES)


@st.composite
def float_arrays(draw):
    n = draw(st.integers(1, 4))
    shape = draw(
        st.sampled_from(
            [(), (0,), (n,), (n, 0), (0, n), (n, 2), (n, draw(st.integers(1, 3))),
             (2, n, draw(st.integers(1, 3)))]
        )
    )
    values = draw(st.lists(ELEMENTS, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(values, dtype=np.float64).reshape(shape)


@st.composite
def nested_arrays(draw):
    """A float array wrapped 0-4 times in a list or a dict, beside siblings."""
    obj = draw(float_arrays())
    siblings = st.none() | st.integers() | ELEMENTS | st.text(max_size=2) | float_arrays()
    for _ in range(draw(st.integers(0, 4))):
        others = draw(st.lists(siblings, max_size=2))
        at = draw(st.integers(0, len(others)))
        if draw(st.booleans()):
            obj = others[:at] + [obj] + others[at:]
        else:
            keys = [f"k{i}" for i in range(len(others) + 1)]
            obj = dict(zip(keys, others[:at] + [obj] + others[at:]))
    return obj


CASES = [
    [],
    {},
    [[]],
    [-0.0],
    [0.0, -0.0, 5e-324, 1 / 3, -1e308],
    [1.0, 2, 3.5],
    [True, 0.5, False],
    [1, 2, 3],
    (0.25, -0.125),
    [np.float64(0.1), 0.2],
    [0.1, None, "x\"\\\n"],
    {"a": [0.5, -0.0], "b": {"c": [], "d": [[1.5, 2.5], [3, 4.0]], "e": {}}},
    {"tolerance": 1e-12, "cuts": [{"singular_values": [1.0, 1e-17], "retained": 1}]},
    {"k\x01\"\\\x1f": "\t\x7f\u00e9"},
]


class TestDumps17g:
    @pytest.mark.parametrize("obj", CASES, ids=range(len(CASES)))
    def test_matches_recursive_renderer(self, obj):
        assert dumps_17g(obj) == recursive_dumps(obj)

    def test_negative_zero_collapses(self):
        assert dumps_17g([-0.0, 0.0]) == "[\n  0,\n  0\n]\n"

    def test_bool_and_int_lists_are_not_floats(self):
        assert dumps_17g([True, 1]) == "[\n  true,\n  1\n]\n"

    @settings(max_examples=200, deadline=None)
    @given(
        obj=st.recursive(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(),
                st.floats(allow_nan=False, allow_infinity=False),
                st.text(max_size=4),
            ),
            lambda children: st.one_of(
                st.lists(children, max_size=4),
                st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4),
                st.dictionaries(st.text(max_size=3), children, max_size=3),
            ),
            max_leaves=20,
        )
    )
    def test_random_documents_match_recursive_renderer(self, obj):
        assert dumps_17g(obj) == recursive_dumps(obj)

    @settings(max_examples=300, deadline=None)
    @given(obj=nested_arrays())
    def test_arrays_render_as_their_lists(self, obj):
        assert dumps_17g(obj) == recursive_dumps(as_lists(obj))

    @pytest.mark.parametrize("values", [EDGES, [-0.0], [[-0.0, 1e-5], [1e16, -5e-324]]])
    def test_edge_values_render_as_their_lists(self, values):
        array = np.array(values, dtype=np.float64)
        doc = {"a": [array, {"b": array.reshape(-1, 1)}], "c": array[:0]}
        assert dumps_17g(doc) == recursive_dumps(as_lists(doc))

    def test_negative_zero_array_collapses(self):
        assert dumps_17g(np.array([-0.0, 0.0])) == "[\n  0,\n  0\n]\n"

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.complex128, bool])
    def test_other_arrays_refused(self, dtype):
        with pytest.raises(TypeError, match="array"):
            dumps_17g({"a": np.zeros(2, dtype=dtype)})

    def test_float_lists_round_trip(self):
        values = [math.pi, -math.e, 2.0**-1074, 1.7976931348623157e308]
        text = dumps_17g(values)
        assert [float(line.rstrip(",")) for line in text.splitlines()[1:-1]] == values
