"""Tests for the deterministic JSON renderer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmclone._format import _escape, dumps_17g, float17


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
            return float17(value)
        raise TypeError(f"cannot serialize {type(value)}")

    return render(obj, 0) + "\n"


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

    def test_float_lists_round_trip(self):
        values = [math.pi, -math.e, 2.0**-1074, 1.7976931348623157e308]
        text = dumps_17g(values)
        assert [float(line.rstrip(",")) for line in text.splitlines()[1:-1]] == values
