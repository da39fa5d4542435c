"""Deterministic report emission: stable JSON bytes plus a Markdown summary."""
from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path


def to_json(value):
    """JSON form of a report value: tuples become lists, integral rationals
    ints and other rationals 'num/den' strings, floats are rounded to 12
    significant digits; anything else is returned unchanged."""
    if isinstance(value, dict):
        return {k: to_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    if isinstance(value, Fraction):
        return _rational_json(value)
    if isinstance(value, float):
        return _round12(value)
    return value


def _rational_json(value: Fraction):
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def _round12(value: float) -> float:
    return float(f"{value:.12g}")


class _NotEncoded(Exception):
    """A value the one-pass encoder leaves to `json`."""


def stable_json_dumps(obj) -> str:
    """`json.dumps(to_json(obj), sort_keys=True, indent=2) + "\n"`, byte for
    byte, built in one recursive pass over `obj` without the copy that
    `to_json` makes or the pure-Python path that `json` takes for `indent`.

    Values other than dicts with str keys, lists, tuples, str, bool, None,
    int, Fraction and float are left to `json`, which encodes or rejects
    them as that expression does."""
    out = []
    try:
        _encode(obj, "\n", out)
    except _NotEncoded:
        return json.dumps(to_json(obj), sort_keys=True, indent=2) + "\n"
    out.append("\n")
    return "".join(out)


def _encode(value, newline: str, out: list) -> None:
    """Append the JSON text of `value` to `out`; `newline` is a line break
    followed by the indentation of the line `value` starts on."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, float):
        out.append(_float_text(_round12(value)))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        if not all(isinstance(key, str) for key in value):
            raise _NotEncoded
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
        _encode(_rational_json(value), newline, out)
    else:
        raise _NotEncoded


def _float_text(value: float) -> str:
    """How `json` writes a float: `float.__repr__`, or its names for NaN and
    the infinities."""
    if math.isfinite(value):
        return float.__repr__(value)
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
