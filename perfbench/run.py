"""mclab benchmark: one process per workload, a closed loop with one caller.

    python3 perfbench/run.py --workload taxicab --seed 1 --seconds 30 --trace 0

Every operation is one in-process call of ``mclab.cli.main(argv)``, so
argument parsing, config resolution, the checker or solver and report
writing are all inside each timed operation.  Reports go to a temporary
directory under ``perfbench/out`` made during set-up and removed at exit.
Each operation is judged against a known answer that does not come from
mclab (see ``workloads.py``).

A run does a fixed number of rounds sized by ``--seconds`` (see
``rounds_for``).  ``--trace 0`` prints the end-to-end metrics.
``--trace 1`` runs the rounds of half of ``--seconds`` twice, first
untraced and then traced,
prints the per-layer metrics and the tracing overhead, checks that both
passes wrote byte-identical reports, and writes the spans to
``perfbench/out/trace-<workload>-seed<n>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details that are not metrics: failed operations, report digests,
the tail percentile and its sample count, set-up samples and, when traced,
the overhead with both bases.  Per-operation report digests are written to
``perfbench/out/<workload>-seed<n>-trace<t>.json``.
"""
import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)
# No bytecode caches are written into the checkout, so every set-up repeat
# compiles mclab from source, whatever the environment asks for.
sys.dont_write_bytecode = True

from workloads import ROUND_SECONDS, WORKLOADS, Workload, judge  # noqa: E402

# Set-up is repeated this many times per run and the median reported.
SETUPS = 11
# The tail latency is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10

# Host-speed reference.  A shared host changes speed by up to 2.7 times
# between runs and in bursts within a run; CPU time tracks wall time, so it
# is the processor, not scheduling.  A fixed piece of pure-Python work is
# timed after every REFERENCE_EVERY_S of operation time (and around each
# set-up repeat), and the times of each round (each set-up repeat) are
# scaled by REFERENCE_NOMINAL_S over the geometric mean of the reference's
# durations in that round, which a burst moves less than the mean: the
# metrics are the times on a host where the reference takes exactly
# REFERENCE_NOMINAL_S.  Unscaled values are printed in the details line.
REFERENCE_EVERY_S = 0.03
REFERENCE_NOMINAL_S = 0.0015

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


_REFERENCE_PAYLOAD = {
    "config": {f"key{i}": i * 0.5 for i in range(20)},
    "points": [[i / 7, i / 11, i / 13] for i in range(20)],
}


def reference_work():
    """Pure-Python work of the kind an mclab command spends its time on,
    without calling mclab: argparse set-up and parsing, Fraction and float
    arithmetic and a sorted, indented JSON dump.  It touches no file: on a
    shared host, file-system calls slow down by other factors than the
    processor, and a reference that wrote a file tracked the costly
    Fraction-bound operations with a slope of only 0.5."""
    parser = argparse.ArgumentParser(prog="reference")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("a", "b"):
        p = sub.add_parser(name)
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.add_argument("path")
    parser.parse_args(["b", "--seed", "3", "--out", "reports", "input.json"])
    acc = Fraction(0)
    table = {}
    for i in range(1, 40):
        q = Fraction(i % 17 - 8, 16)
        acc += abs(q) - Fraction(i % 5, 4)
        key = (float(q), i * 0.5)
        table[key] = max(key) ** 1.5
    text = json.dumps(_REFERENCE_PAYLOAD, sort_keys=True, indent=2)
    return acc, len(table), len(text)


def time_reference():
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def import_mclab():
    """Fresh import of mclab from this checkout's ``src``; returns mclab.cli."""
    if not os.path.isfile(os.path.join(SRC, "mclab", "__init__.py")):
        raise SystemExit(f"error: no mclab sources under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "mclab" or m.startswith("mclab.")]:
        del sys.modules[name]
    import mclab
    import mclab.cli

    if not os.path.abspath(mclab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported mclab from {mclab.__file__}, not {SRC}")
    return mclab.cli


def setup(workload: str, seed: int):
    """Repeats set-up SETUPS times: import mclab, make the temp directory and
    write the config.  The first repeat is timed from process start.
    Returns the state of the last repeat and (raw, scaled) durations.

    Round inputs, the first round's too, are written between rounds: they
    are the benchmark's own work, and writing the solvers' 106 files made
    set-up bimodal on a shared disk."""
    raw, scaled = [], []
    tmp = None
    for i in range(SETUPS):
        refs = [time_reference() for _ in range(3)] if i else []
        if tmp is not None:
            shutil.rmtree(tmp)
        start = _PROCESS_START if i == 0 else time.perf_counter()
        cli = import_mclab()
        os.makedirs(OUT, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix=f"run-{workload}-", dir=OUT)
        wl = Workload(workload, seed, tmp)
        raw.append(time.perf_counter() - start)
        refs += [time_reference() for _ in range(3)]
        scaled.append(raw[-1] * REFERENCE_NOMINAL_S / statistics.geometric_mean(refs))
    return cli, wl, tmp, raw, scaled


class Pass:
    """Results of one sequence of rounds; `scaled_*` are host-scaled."""

    def __init__(self):
        self.latencies = []
        self.scaled_latencies = []
        self.labels = []
        self.digests = []  # per operation, in order
        self.round_sizes = []
        self.failures = []
        self.wrong = 0  # failures where the program claimed a wrong answer
        self.seconds = 0.0  # loop time without the reference timings
        self.scaled_seconds = 0.0
        self.references = []
        self.reference_before = []  # per operation: references timed before it

    @property
    def ops(self):
        return len(self.latencies)

    @property
    def scaled_ops_per_s(self):
        return self.ops / self.scaled_seconds


def run_op(cli, wl, op, result: Pass, tracer=None) -> float:
    path = os.path.join(wl.out, op.report)
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)
    if tracer is not None:
        tracer.op = result.ops
    sink = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            rc = cli.main(op.argv)
    except Exception as exc:  # a crash is a failed operation, not the end of the run
        rc, error = None, f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    result.latencies.append(latency)
    result.labels.append(op.label)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        data = None
    result.digests.append(hashlib.sha256(data).hexdigest() if data is not None else None)
    reason, answered = error, True
    if error is None:
        try:
            reason, answered = judge(op, rc, json.loads(data) if data is not None else None)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            reason = f"report not understood: {type(exc).__name__}: {exc}"
    if reason is not None:
        result.wrong += answered
        result.failures.append({"op": result.ops - 1, "label": op.label,
                                "reason": reason, "answer_claimed": answered})
    return latency


def rounds_for(workload: str, seconds: float) -> int:
    """The fixed number of rounds a run of `seconds` measures (at least one).

    A run does a fixed amount of work rather than stopping on the clock, so
    a seed always gives the same operations, the same failures and the same
    rank for op_tail_ms, however fast the host is at the moment."""
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def run_rounds(cli, wl, rounds: int, tracer=None) -> Pass:
    """Runs `rounds` whole rounds.  Each round's input files are written
    before the round, outside the timed loop."""
    result = Pass()
    due = REFERENCE_EVERY_S  # op time left until the next reference timing
    for r in range(rounds):
        ops = wl.round_ops(r)
        first_op, first_ref = result.ops, len(result.references)
        start = time.perf_counter()
        for op in ops:
            result.reference_before.append(len(result.references))
            due -= run_op(cli, wl, op, result, tracer)
            while due <= 0:
                due += REFERENCE_EVERY_S
                result.references.append(time_reference())
        if len(result.references) == first_ref:
            result.references.append(time_reference())
        refs = result.references[first_ref:]
        loop = time.perf_counter() - start - sum(refs)
        factor = REFERENCE_NOMINAL_S / statistics.geometric_mean(refs)
        result.seconds += loop
        result.scaled_seconds += loop * factor
        result.scaled_latencies += [t * factor for t in result.latencies[first_op:]]
        result.round_sizes.append(len(ops))
    return result


def round_digests(result: Pass):
    out, i = [], 0
    for size in result.round_sizes:
        h = hashlib.sha256()
        for d in result.digests[i:i + size]:
            h.update((d or "missing").encode())
        out.append(h.hexdigest())
        i += size
    return out


def workload_digest(result: Pass):
    h = hashlib.sha256()
    for d in round_digests(result):
        h.update(d.encode())
    return h.hexdigest()


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile of the
    latencies with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def end_to_end(result: Pass, setup_raw, setup_scaled):
    scaled_tail, pct, beyond = tail(result.scaled_latencies)
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "ops_per_s": result.scaled_ops_per_s,
        "op_p50_ms": statistics.median(result.scaled_latencies) * 1000,
        "op_tail_ms": scaled_tail * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "op_tail": {"percentile": round(pct, 3), "samples": result.ops, "beyond": beyond},
        "op_fail_ratio": {"value": len(result.failures) / result.ops,
                          "failed": len(result.failures), "attempted": result.ops},
        "unscaled": {
            "setup_s": statistics.median(setup_raw),
            "ops_per_s": result.ops / result.seconds,
            "op_p50_ms": statistics.median(result.latencies) * 1000,
            "op_tail_ms": tail(result.latencies)[0] * 1000,
        },
        "host_reference": {"nominal_s": REFERENCE_NOMINAL_S, "samples": len(result.references),
                           "mean_s": statistics.fmean(result.references)},
        "setup_repeats_s": {"unscaled": setup_raw, "scaled": setup_scaled},
    }
    return metrics, details


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="mclab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    cli, wl, tmp, setup_raw, setup_scaled = setup(args.workload, args.seed)
    try:
        if args.trace:
            return traced_run(args, cli, wl)
        result = run_rounds(cli, wl, rounds_for(args.workload, args.seconds))
        metrics, details = end_to_end(result, setup_raw, setup_scaled)
        finish(args, [result], {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
               details, result.wrong == 0)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def traced_run(args, cli, wl):
    """Untraced rounds for half the time, then the same rounds traced."""
    from tracer import Tracer

    untraced = run_rounds(cli, wl, rounds_for(args.workload, args.seconds / 2))
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_rounds(cli, wl, len(untraced.round_sizes), tracer=tracer)
    finally:
        tracer.restore()
    trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    tracer.dump(trace_path)
    same = untraced.digests == traced.digests
    details = {
        "tracing_overhead": {
            "traced_over_untraced_ops_per_s":
                traced.scaled_ops_per_s / untraced.scaled_ops_per_s,
            "traced": {"ops": traced.ops, "scaled_seconds": traced.scaled_seconds,
                       "seconds": traced.seconds},
            "untraced": {"ops": untraced.ops, "scaled_seconds": untraced.scaled_seconds,
                         "seconds": untraced.seconds},
        },
        "traced_digests_equal_untraced": same,
        "ratio_bases": tracer.bases(),
        "trace_file": os.path.relpath(trace_path, ROOT),
    }
    finish(args, [untraced, traced], tracer.layer_metrics(), details,
           same and untraced.wrong == 0 and traced.wrong == 0)
    return 0


def finish(args, passes, metrics, details, correct):
    last = passes[-1]
    attempted = sum(p.ops for p in passes)
    failed = sum(len(p.failures) for p in passes)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(last.round_sizes),
        "ops": last.ops,
        "loop_seconds": last.seconds,
        **details,
        "failures": [{"pass": i, **f} for i, p in enumerate(passes) for f in p.failures],
        "workload_digest": workload_digest(last),
        "round_digests": round_digests(last),
    }
    os.makedirs(OUT, exist_ok=True)
    digest_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(digest_path, "w", encoding="utf-8") as fh:
        json.dump({**details, "report_digests": last.digests,
                   "latencies_s": last.latencies, "labels": last.labels,
                   "reference_s": last.references,
                   "reference_before": last.reference_before}, fh, indent=1)
    details["report_digests_file"] = os.path.relpath(digest_path, ROOT)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {last.ops} operations "
          f"in {len(last.round_sizes)} rounds, {last.seconds:.2f} s of loop time, "
          f"{failed} of {attempted} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps(details, sort_keys=False))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
