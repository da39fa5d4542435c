"""Deterministic report emission: stable JSON bytes plus a Markdown summary."""
from __future__ import annotations

import math
import os
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path


def stable_json_dumps(obj) -> str:
    """The bytes of a JSON report: keys sorted, two-space indentation, a
    trailing newline; floats at 12 significant digits, rationals as ints or
    'num/den' strings, tuples as lists.  This is the package's one encoder.

    A value with no JSON form, or a dict key that is not a str, raises
    TypeError."""
    out = []
    _encode(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _encode(value, newline: str, out: list) -> None:
    """Append the JSON text of `value` to `out`; `newline` is a line break
    followed by the indentation of the line `value` starts on."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, float):
        out.append(_float_text(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"a report key must be a str, not {key!r}")
        inner = newline + "  "
        opener = "{"
        for key in sorted(value):
            out.append(f"{opener}{inner}{_quote(key)}: ")
            _encode(value[key], inner, out)
            opener = ","
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        opener = "["
        for item in value:
            out.append(opener + inner)
            _encode(item, inner, out)
            opener = ","
        out.append(newline + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, Fraction):
        if value.denominator == 1:
            out.append(int.__repr__(value.numerator))
        else:
            out.append(f'"{value.numerator}/{value.denominator}"')
    else:
        raise TypeError(f"{type(value).__name__} has no JSON form: {value!r}")


def _float_text(value: float) -> str:
    """A float rounded to 12 significant digits, written as `json` writes
    it: `float.__repr__`, or its names for NaN and the infinities."""
    if math.isfinite(value):
        return float.__repr__(float(f"{value:.12g}"))
    if value != value:
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


def write_reports(out_dir: str, stem: str, payload: dict, markdown: str) -> Path:
    """Write `<stem>.json` and `<stem>.md` under out_dir, creating it, and
    return the JSON path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / f"{stem}.json"
    _rewrite(json_path, stable_json_dumps(payload))
    _rewrite(out / f"{stem}.md", markdown)
    return json_path


def _rewrite(path: Path, text: str) -> None:
    """`path.write_text(text, encoding="utf-8")` without truncating the file
    first: the UTF-8 bytes are written over the old ones and the file is cut
    at their end.  Rewriting the same report on every run then costs a
    fraction of what truncating to zero does on file systems that discard
    freed blocks."""
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def fmt_value(v) -> str:
    """Markdown form of a value: rationals as 'a/b', tuples as '(a, b)'."""
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, (list, tuple)):
        return "(" + ", ".join(fmt_value(x) for x in v) + ")"
    return str(v)
