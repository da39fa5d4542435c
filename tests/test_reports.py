from __future__ import annotations

import json
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from mclab.reports import stable_json_dumps, to_json

scalars = st.one_of(
    st.fractions(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(),
    st.text(max_size=5),
    st.booleans(),
    st.none(),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=5), inner, max_size=4),
    ),
    max_leaves=20,
)


@given(values)
def test_to_json_is_idempotent(value):
    once = to_json(value)
    assert to_json(once) == once


@given(values)
def test_stable_json_dumps_writes_to_json(value):
    assert json.loads(stable_json_dumps(value)) == to_json(value)


def test_scalar_forms():
    assert to_json(Fraction(6, 3)) == 2 and type(to_json(Fraction(6, 3))) is int
    assert to_json(Fraction(-1, 3)) == "-1/3"
    assert to_json(0.1 + 0.2) == 0.3
    assert to_json((1, (Fraction(1, 2), True, None))) == [1, ["1/2", True, None]]
    assert stable_json_dumps({"b": 1, "a": 2.0}) == '{\n  "a": 2.0,\n  "b": 1\n}\n'
