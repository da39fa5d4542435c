"""Scalar helpers shared by the exact (Fraction) and float arithmetic paths."""
from __future__ import annotations

from fractions import Fraction
from math import inf, isfinite, isqrt, lcm
from typing import Union

from .errors import MclabError

Scalar = Union[int, float, Fraction]


def is_rational(v: Scalar) -> bool:
    return isinstance(v, (int, Fraction))


def common_denominator(values) -> int:
    """Least common denominator of rationals (ints have denominator 1)."""
    return lcm(*(v.denominator for v in values))


def scaled(values, den: int) -> list:
    """The rationals `values` times `den`, a multiple of their denominators,
    as ints: exact arithmetic on them needs no Fraction until the end."""
    return [v.numerator * (den // v.denominator) for v in values]


def rational_sqrt(v: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if v < 0:
        raise ValueError("negative radicand")
    num, den = v.numerator, v.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def parse_scalar(value) -> Scalar:
    """Accept ints, finite floats, Fractions, or 'num/den' strings; a bool
    (JSON true or false) is no number."""
    if isinstance(value, bool):
        raise MclabError(f"cannot interpret {value!r} as a scalar")
    if isinstance(value, float):
        return parse_float(value)
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise MclabError(f"cannot interpret {value!r} as a scalar") from exc
    raise MclabError(f"cannot interpret {value!r} as a scalar")


def parse_float(value) -> float:
    """float(value), with MclabError for a value that is not a finite
    number; a bool (JSON true or false) is none."""
    if isinstance(value, bool):
        raise MclabError(f"cannot interpret {value!r} as a number")
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise MclabError(f"cannot interpret {value!r} as a number") from exc
    except OverflowError:  # an int beyond the float range
        out = inf
    if not isfinite(out):
        raise MclabError(f"{value!r} is not a finite number")
    return out


def in_float_range(value: Scalar, what: str) -> Scalar:
    """`value`, with MclabError naming `what` unless its float is finite."""
    try:
        if isfinite(float(value)):
            return value
    except OverflowError:
        pass
    raise MclabError(f"{what} lies beyond the float range")


def parse_vector(value, what: str, convert=parse_scalar) -> tuple:
    """The entries of a JSON list through `convert`; MclabError naming
    `what` for any other JSON value."""
    if not isinstance(value, (list, tuple)):
        raise MclabError(f"{what} must be a list, not {value!r}")
    return tuple(convert(c) for c in value)
