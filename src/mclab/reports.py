"""Deterministic report emission: stable JSON bytes plus a Markdown summary."""
from __future__ import annotations

import json
import os
from fractions import Fraction
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
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return float(f"{value:.12g}")
    return value


def stable_json_dumps(obj) -> str:
    """Deterministic serialisation of `to_json(obj)` with sorted keys."""
    return json.dumps(to_json(obj), sort_keys=True, indent=2) + "\n"


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
    first: the text is written over the old bytes and the file is cut at its
    end.  Rewriting the same report on every run then costs a fraction of
    what truncating to zero does on file systems that discard freed blocks."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.truncate()


def fmt_value(v) -> str:
    """Markdown form of a value: rationals as 'a/b', tuples as '(a, b)'."""
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, (list, tuple)):
        return "(" + ", ".join(fmt_value(x) for x in v) + ")"
    return str(v)
