from __future__ import annotations

import json
import math
import os
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mclab.cli import main
from mclab.reports import stable_json_dumps, write_reports


def to_json(value):
    """The converted copy a report is the `json` text of: tuples become
    lists, integral rationals ints and other rationals 'num/den' strings,
    floats are rounded to 12 significant digits."""
    if isinstance(value, dict):
        return {k: to_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return float(f"{value:.12g}")
    return value


def reference_dumps(value) -> str:
    """The bytes a report has always had: `json` over the `to_json` copy."""
    return json.dumps(to_json(value), sort_keys=True, indent=2) + "\n"


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


# every float spelling json knows, text with non-ASCII and control
# characters, and empty containers at any depth
edge_scalars = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 5e-324, 1e16, 1.5e300]),
    st.fractions(),
    st.integers(),
    st.text(),
    st.sampled_from(["", "α≤β", "\x00\x1f\x7f", 'q"\\/', "\u2028\ud83d", "😀"]),
    st.booleans(),
    st.none(),
)
edge_values = st.recursive(
    edge_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
    ),
    max_leaves=30,
)


@given(edge_values)
@example({"": [], "b": {}, "α": ((), {"x": [{}]}), "\n": -0.0})
def test_stable_json_dumps_gives_the_bytes_of_json(value):
    assert stable_json_dumps(value) == reference_dumps(value)


@pytest.mark.parametrize(
    "value",
    [
        {1: "int key", 2: [0.1 + 0.2]},
        {"nested": {True: Fraction(1, 3), False: None}},
        [{"x": 1}, {2.5: "float key"}],
    ],
)
def test_dicts_with_keys_that_are_not_str_are_rejected(value):
    with pytest.raises(TypeError):
        stable_json_dumps(value)


def test_values_json_cannot_encode_are_rejected_as_json_rejects_them():
    with pytest.raises(TypeError):
        reference_dumps({"a": [object()]})
    with pytest.raises(TypeError):
        stable_json_dumps({"a": [object()]})


def test_scalar_forms():
    assert stable_json_dumps(Fraction(6, 3)) == "2\n"
    assert stable_json_dumps(Fraction(-1, 3)) == '"-1/3"\n'
    assert stable_json_dumps(0.1 + 0.2) == "0.3\n"
    assert stable_json_dumps((1, (Fraction(1, 2), True, None))) == (
        '[\n  1,\n  [\n    "1/2",\n    true,\n    null\n  ]\n]\n'
    )
    assert stable_json_dumps({"b": 1, "a": 2.0}) == '{\n  "a": 2.0,\n  "b": 1\n}\n'


class TestWriteReports:
    """Reports are rewritten in place and cut to length: the bytes on disk
    are those of a fresh `Path.write_text(text, encoding="utf-8")`."""

    LONG = ({"points": list(range(200))}, "# Long\n\n" + "- line\n" * 200)
    SHORT = ({"point": 1}, "# Short\n")

    def assert_reports(self, out, payload, markdown):
        assert (out / "r.json").read_bytes() == stable_json_dumps(payload).encode()
        assert (out / "r.md").read_bytes() == markdown.encode()

    def test_a_shorter_rewrite_leaves_no_stale_tail(self, tmp_path):
        write_reports(tmp_path, "r", *self.LONG)
        write_reports(tmp_path, "r", *self.SHORT)
        self.assert_reports(tmp_path, *self.SHORT)

    def test_a_longer_rewrite_leaves_the_new_bytes(self, tmp_path):
        write_reports(tmp_path, "r", *self.SHORT)
        write_reports(tmp_path, "r", *self.LONG)
        self.assert_reports(tmp_path, *self.LONG)

    def test_text_is_encoded_as_write_text_encodes_it(self, tmp_path):
        markdown = "# Différence\r\n\n- d(x, y) ≤ 1\n"
        write_reports(tmp_path, "r", {"name": "α"}, markdown)
        (tmp_path / "ref.md").write_text(markdown, encoding="utf-8")
        assert (tmp_path / "r.md").read_bytes() == (tmp_path / "ref.md").read_bytes()

    def test_a_missing_out_directory_is_created(self, tmp_path):
        family = tmp_path / "family.json"
        family.write_text(json.dumps([[{"center": [0, 0], "radius": 1}]]), encoding="utf-8")
        out = tmp_path / "new" / "reports"
        assert main(["nested", str(family), "--out", str(out)]) == 0
        assert json.loads((out / "nested.json").read_text(encoding="utf-8"))["result"]
        assert (out / "nested.md").is_file()

    def test_a_new_file_gets_the_mode_of_write_text(self, tmp_path):
        old = os.umask(0o027)
        try:
            write_reports(tmp_path, "r", *self.SHORT)
            (tmp_path / "ref.json").write_text("{}", encoding="utf-8")
        finally:
            os.umask(old)
        want = (tmp_path / "ref.json").stat().st_mode
        assert (tmp_path / "r.json").stat().st_mode == want
        assert (tmp_path / "r.md").stat().st_mode == want
