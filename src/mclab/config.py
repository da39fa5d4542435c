"""Run configuration: seed, tolerances, sample plans, convention, output path.

Resolution order: built-in defaults, then a JSON config file, then MCLAB_*
environment variables, then explicit command-line flags.  The seed is
mandatory in the sense that every run has one and every report embeds the
fully resolved configuration.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields, replace

from .convexsets import MidConvention
from .errors import ConfigError

ENV_PREFIX = "MCLAB_"


@dataclass(frozen=True)
class RunConfig:
    seed: int = 20240601
    tol: float = 1e-9
    diam_tol: float = 1e-6
    sample_count: int = 1000
    coord_denominator: int = 16
    t_denominator: int = 16
    convention: str = "fromy"
    fp_tol: float = 1e-6
    out_dir: str = "reports"

    def resolved(self) -> dict:
        out = dict(vars(self))
        # the output directory is environment, not run semantics; keeping it
        # out of the embedded config makes report bytes location-independent
        out.pop("out_dir")
        return out


# every field's default fixes its type, so a key is coerced by that type
_KEY_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}


# least allowed value of each bounded key: a run draws at least one sample,
# tolerances are distances, exact coordinates k/coord_denominator need a
# positive denominator, and exact parameters k/t_denominator need some k
# with 0 < k/t_denominator < 1
_MINIMUMS = {
    "sample_count": 1,
    "tol": 0,
    "diam_tol": 0,
    "coord_denominator": 1,
    "t_denominator": 2,
    "fp_tol": 0,
}

# the values `convention` accepts: the midpoint conventions
_CONVENTIONS = sorted(c.value for c in MidConvention)


def _coerce(key: str, value):
    if key not in _KEY_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    kind = _KEY_TYPES[key]
    try:
        out = kind(value)
        # refused: a string key's other JSON value, whose str() would name
        # a directory or convention the user did not write; a bool; a number
        # int() would round; a float not finite
        if (
            (kind is str and not isinstance(value, str))
            or (kind is not str and isinstance(value, bool))
            or (kind is int and isinstance(value, float) and out != value)
            or (kind is float and not math.isfinite(out))
        ):
            raise ValueError
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value for {key}: {value!r}") from exc
    return out


def read_json(path: str, what: str):
    """The JSON value in the file at `path`; a file that cannot be opened or
    decoded, or that holds no JSON, raises ConfigError naming `what`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        # ValueError: bad JSON, bytes that are not UTF-8, or an integer with
        # more digits than int() converts
        raise ConfigError(f"cannot read {what}: {exc}") from exc


def load_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    cfg = RunConfig()
    if path is not None:
        data = read_json(path, f"config {path}")
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        cfg = replace(cfg, **{k: _coerce(k, v) for k, v in data.items()})
    env = {}
    for key in _KEY_TYPES:
        raw = os.environ.get(ENV_PREFIX + key.upper())
        if raw is not None:
            env[key] = _coerce(key, raw)
    if env:
        cfg = replace(cfg, **env)
    if overrides:
        cfg = replace(
            cfg, **{k: _coerce(k, v) for k, v in overrides.items() if v is not None}
        )
    for key, least in _MINIMUMS.items():
        value = getattr(cfg, key)
        if not value >= least:
            raise ConfigError(f"{key} must be at least {least}, not {value!r}")
    if cfg.convention not in _CONVENTIONS:
        raise ConfigError(
            f"convention must be one of {_CONVENTIONS}, not {cfg.convention!r}"
        )
    return cfg
