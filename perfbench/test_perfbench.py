"""Self-tests of the benchmark: deterministic inputs, tracing that changes
no report byte and leaves no wrapper behind, and printed metric names that
match BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q perfbench
"""
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

_write_bytecode = sys.dont_write_bytecode
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

sys.dont_write_bytecode = _write_bytecode


def _mclab_modules():
    return {k: v for k, v in sys.modules.items() if k == "mclab" or k.startswith("mclab.")}


@pytest.fixture(autouse=True)
def _restore_mclab_modules():
    """The benchmark re-imports mclab; put back the modules other tests in
    this process already hold."""
    saved = _mclab_modules()
    yield
    for name in _mclab_modules():
        del sys.modules[name]
    sys.modules.update(saved)


@pytest.fixture
def tmpdirs():
    made = []

    def make():
        made.append(tempfile.mkdtemp(prefix="selftest-", dir=_out_dir()))
        return made[-1]

    yield make
    for path in made:
        shutil.rmtree(path, ignore_errors=True)


def _out_dir():
    os.makedirs(run.OUT, exist_ok=True)
    return run.OUT


def _snapshot(wl: Workload, r: int):
    """Round r's argv lists with the temp dir masked, and its input files."""
    ops = wl.round_ops(r)
    argv = [[a.replace(wl.tmp, "<tmp>") for a in op.argv] for op in ops]
    files = {}
    for name in sorted(os.listdir(wl.inputs)):
        with open(os.path.join(wl.inputs, name), "rb") as fh:
            files[name] = fh.read()
    return argv, files


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_for_a_seed(name, tmpdirs):
    for r in (0, 3):
        first = _snapshot(Workload(name, 7, tmpdirs()), r)
        again = _snapshot(Workload(name, 7, tmpdirs()), r)
        assert first == again
        other = _snapshot(Workload(name, 8, tmpdirs()), r)
        assert other != first


def _sample_ops(tmp):
    """A cheap slice of every workload that still enters each layer."""
    taxicab = Workload("taxicab", 11, os.path.join(tmp, "t"))
    box = Workload("box-hausdorff", 11, os.path.join(tmp, "b"))
    solvers = Workload("solvers", 11, os.path.join(tmp, "s"))
    cheap = ("vec6-p1", "vec3-p2", "vec3-pinf-exact")
    picks = [(taxicab, op) for op in taxicab.round_ops(0)
             if op.kind == "reproduce" or op.argv[2] in cheap]
    picks += [(box, op) for op in box.round_ops(0)
              if op.argv[2] in cheap and "Bdoubleprime" not in op.argv]
    picks += [(solvers, op) for op in solvers.round_ops(0)[::9]]
    return picks


def _run(cli, picks, tracer=None):
    result = run.Pass()
    for wl, op in picks:
        run.run_op(cli, wl, op, result, tracer)
    return result


def test_traced_run_writes_the_same_report_bytes_and_restores_every_name(tmpdirs):
    cli = run.import_mclab()
    picks = _sample_ops(tmpdirs())
    untraced = _run(cli, picks)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _run(cli, picks, tracer)
    finally:
        tracer.restore()

    assert None not in untraced.digests
    assert traced.digests == untraced.digests
    assert untraced.wrong == 0 and traced.wrong == 0
    metrics = tracer.layer_metrics()
    for name in ("spaces.distance.calls", "convexsets.midpoint_set.calls",
                 "hausdorff.hausdorff.calls", "nested.common_point.calls",
                 "reports.bytes"):
        assert metrics[name][0] > 0, name
    assert {span[2] for span in tracer.spans} >= {"cli.main", "reports.write_reports"}

    patched = tracer.originals()
    assert len(patched) > len(picks)
    for namespace, key, original in patched:
        assert namespace[key] is original, key
    for mod in _mclab_modules().values():
        for key, value in vars(mod).items():
            assert not hasattr(value, "__wrapped__"), f"{mod.__name__}.{key}"


def _printed_result(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_benchmark_json(trace):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    lines, result = _printed_result(
        ["--workload", "solvers", "--seed", "5", "--seconds", "0.01", "--trace", trace])
    declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    details = json.loads(lines[-2])
    if trace == "1":
        assert details["traced_digests_equal_untraced"] is True
        assert details["tracing_overhead"]["traced"]["ops"] > 0
    else:
        assert details["op_fail_ratio"]["attempted"] == result["attempted"]
