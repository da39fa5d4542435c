from __future__ import annotations

import json
from dataclasses import fields

import pytest

from mclab.cli import main
from mclab.config import RunConfig, load_config
from mclab.errors import ConfigError

FIELDS = [f.name for f in fields(RunConfig)]


def _other_value(name):
    """A valid value of the field's type that differs from its default."""
    default = getattr(RunConfig(), name)
    if name == "convention":
        return "fromx"  # the other midpoint convention
    if isinstance(default, str):
        return default + "-set"
    return default * 2 + 1


@pytest.mark.parametrize("name", FIELDS)
def test_every_key_is_settable_from_a_config_file(name, tmp_path):
    value = _other_value(name)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({name: value}), encoding="utf-8")
    got = getattr(load_config(str(path)), name)
    assert got == value
    assert type(got) is type(getattr(RunConfig(), name))


@pytest.mark.parametrize("name", FIELDS)
def test_every_key_is_settable_from_the_environment(name, monkeypatch):
    value = _other_value(name)
    monkeypatch.setenv("MCLAB_" + name.upper(), str(value))
    got = getattr(load_config(), name)
    assert got == value
    assert type(got) is type(getattr(RunConfig(), name))


def test_exact_flag_is_gone(tmp_path):
    argv = ["check", "--space", "vec3-p2", "--props", "A", "--out", str(tmp_path)]
    assert main(argv + ["--exact"]) == 2
    assert main(argv + ["--float"]) == 2


def test_exact_config_key_is_gone(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"exact": True}), encoding="utf-8")
    argv = ["check", "--space", "vec3-p2", "--props", "A", "--config", str(path)]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "unknown config key 'exact'" in capsys.readouterr().out


@pytest.mark.parametrize("key", ["fp_orbit_n", "fp_window", "fp_budget", "fp_rmax"])
def test_solver_setting_keys_are_gone(key, tmp_path, capsys):
    # the solver's orbit length, tail window, budget and orbit bound are
    # constants of `fixedpoint`, which no report claims as its config
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: 1}), encoding="utf-8")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "rotation", "parameters": {"turns": "1/4"}}))
    argv = ["fixedpoint", str(spec), "--config", str(path)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().out
    assert not (tmp_path / "out").exists()


def test_bad_value_names_the_key(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"sample_count": "many"}), encoding="utf-8")
    with pytest.raises(ConfigError, match="bad value for sample_count"):
        load_config(str(path))


@pytest.mark.parametrize(
    "space, values",
    [
        ("vec3-pinf", {"tol": -1.0}),
        ("vec3-pinf", {"diam_tol": -1.0}),
        ("vec3-pinf", {"sample_count": -5}),
        ("vec3-pinf", {"sample_count": 0}),
        ("vec3-pinf-exact", {"coord_denominator": 0}),
        ("vec3-pinf-exact", {"t_denominator": 1}),
        ("vec3-pinf", {"fp_tol": -1.0}),
    ],
    ids=lambda v: v if isinstance(v, str) else "-".join(f"{k}={x}" for k, x in v.items()),
)
def test_out_of_range_value_exits_two(space, values, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(values), encoding="utf-8")
    argv = ["check", "--space", space, "--props", "A,Bprime", "--config", str(path)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    (key,) = values
    assert f"{key} must be at least" in capsys.readouterr().out
    assert not (tmp_path / "out").exists()


def test_out_of_range_value_from_the_environment_exits_two(tmp_path, monkeypatch):
    monkeypatch.setenv("MCLAB_SAMPLE_COUNT", "0")
    with pytest.raises(ConfigError, match="sample_count must be at least 1"):
        load_config()


@pytest.mark.parametrize(
    "values",
    [
        {"seed": 1.5},
        {"sample_count": 20.9},
        {"seed": True},
        {"tol": True},
        {"tol": "inf"},
        {"fp_tol": "1e400"},
        {"diam_tol": float("inf")},
        {"out_dir": False},
        {"out_dir": ["a"]},
        {"convention": ["fromx"]},
    ],
    ids=lambda v: "-".join(f"{k}={x}" for k, x in v.items()),
)
def test_a_value_that_does_not_mean_what_it_says_exits_two(values, tmp_path, capsys):
    # an int key rounded 1.5 to 1 and read true as 1, a float key read true
    # as 1.0, an infinite tol let every check pass, and a string key took
    # the str() of any JSON value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(values), encoding="utf-8")
    argv = ["check", "--space", "vec3-pinf", "--props", "C", "--config", str(path)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    (key,) = values
    assert f"bad value for {key}" in capsys.readouterr().out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("raw", ["1e400", "inf"])
def test_an_infinite_tol_from_the_environment_exits_two(raw, tmp_path, monkeypatch, capsys):
    # MCLAB_TOL=1e400 made `check --props C` print PASS where the default
    # tol prints FAIL, and wrote "tol": Infinity into the report
    monkeypatch.setenv("MCLAB_TOL", raw)
    argv = ["check", "--space", "vec3-pinf", "--props", "C", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "bad value for tol" in capsys.readouterr().out
    assert not (tmp_path / "out").exists()


def test_a_whole_float_is_an_int(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"sample_count": 20.0}), encoding="utf-8")
    got = load_config(str(path)).sample_count
    assert got == 20 and type(got) is int


def test_a_non_string_out_dir_writes_no_directory(tmp_path, monkeypatch, capsys):
    # str(False) named a directory ./False that the run then wrote into
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"out_dir": False}), encoding="utf-8")
    argv = ["check", "--space", "vec3-p2", "--props", "A", "--config", "cfg.json"]
    assert main(argv) == 2
    assert "bad value for out_dir" in capsys.readouterr().out
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
