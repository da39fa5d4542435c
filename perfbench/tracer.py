"""Outside-in tracing of mclab's layers.

The tracer replaces public module-level names of each layer with timing
wrappers in every ``mclab`` module that holds them (``distance`` is bound
in ``convexsets``, ``hausdorff``, ``properties``, ``fixedpoint``, ``nested``
and more), plus the ``sample_points`` method of each set representation and
the entries of the ``FIXTURES`` table.  Nothing under ``src/`` changes and
``restore`` puts every original back.

Three kinds of wrapper:

- span: an operation (``cli.main``) or a checker, solver, fixture or report
  call.  Each call is kept as a span with its parent span and operation.
- aggregate: hotter calls (midpoint sets, Hausdorff distances, sampling).
  Calls and self time are summed, no span is kept.
- leaf: ``distance``, far too hot for spans; folded into a call count and
  summed time that is charged to the enclosing wrapper as child time.

Self time of a wrapper is its duration minus the time of the wrapped calls
made inside it.  Layers are the mclab module names; ``config`` is folded
into ``cli``.
"""
from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

SPAN, AGGREGATE = "span", "aggregate"

# (module, attribute, label, kind); labels start with the layer name
FUNCTION_TARGETS = (
    ("cli", "main", "cli.main", SPAN),
    ("cli", "cmd_reproduce", "cli.cmd_reproduce", SPAN),
    ("cli", "cmd_check", "cli.cmd_check", SPAN),
    ("cli", "cmd_fixedpoint", "cli.cmd_fixedpoint", SPAN),
    ("cli", "cmd_nested", "cli.cmd_nested", SPAN),
    ("config", "load_config", "cli.load_config", AGGREGATE),
    ("reports", "write_reports", "reports.write_reports", SPAN),
    ("properties", "check_menger_convex", "properties.menger", SPAN),
    ("properties", "check_property", None, SPAN),  # labelled by property
    ("fixedpoint", "verify_hybrid", "fixedpoint.verify_hybrid", SPAN),
    ("fixedpoint", "find_fixed_point", "fixedpoint.find_fixed_point", SPAN),
    ("fixedpoint", "mapping_from_json", "fixedpoint.mapping_from_json", AGGREGATE),
    ("nested", "common_point", "nested.common_point", SPAN),
    ("nested", "cantor_point", "nested.cantor_point", SPAN),
    ("nested", "family_from_json", "nested.family_from_json", AGGREGATE),
    ("nested", "max_violation", "nested.max_violation", AGGREGATE),
    ("hausdorff", "hausdorff", "hausdorff.hausdorff", AGGREGATE),
    ("hausdorff", "directed_hausdorff", "hausdorff.directed_hausdorff", AGGREGATE),
    ("convexsets", "midpoint_set", "convexsets.midpoint_set", AGGREGATE),
    ("convexsets", "segment", "convexsets.segment", AGGREGATE),
    ("convexsets", "lifted_union", "convexsets.lifted_union", AGGREGATE),
    ("convexsets", "diameter_with_witness", "convexsets.diameter", AGGREGATE),
    ("convexsets", "diameter", "convexsets.diameter", AGGREGATE),
    ("convexsets", "sphere_equivalence_check", "convexsets.sphere_equivalence_check", AGGREGATE),
    ("sampling", "sample_point", "sampling.sample_point", AGGREGATE),
    ("sampling", "sample_distinct_pair", "sampling.sample_distinct_pair", AGGREGATE),
    ("sampling", "sample_t", "sampling.sample_t", AGGREGATE),
    ("sampling", "sample_finite_points", "sampling.sample_finite_points", AGGREGATE),
)

METHOD_TARGETS = (
    ("Box", "convexsets.sample_points.box"),
    ("SampledOracle", "convexsets.sample_points.oracle"),
    ("Singleton", "convexsets.sample_points.finite"),
    ("FiniteSet", "convexsets.sample_points.finite"),
)


def _mclab_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "mclab" or name.startswith("mclab.")]


class Tracer:
    """Wraps mclab's layer names while installed and accumulates per-label
    calls and self time, counters and spans."""

    def __init__(self):
        self.stats = {}  # label -> [calls, self seconds]
        self.counts = dict.fromkeys((
            "distance.exact", "distance.in_hausdorff", "distance.in_nested",
            "sample_points.points", "oracle.grid_tested", "oracle.grid_found",
            "oracle.grid_skipped", "hausdorff.exact", "fixedpoint.evaluations",
            "fixedpoint.converged", "nested.solved", "reports.bytes",
        ), 0)
        self.distance = [0, 0.0]  # calls, seconds
        self.spans = []  # [id, parent id, label, op, start, end]
        self.op = None
        self._frames = []  # per open wrapper: [child seconds]
        self._open_spans = []
        self._depth = [0, 0]  # open hausdorff, open common_point calls
        self._patched = []  # (namespace dict, key, original)
        self._t0 = perf_counter()

    # ------------------------------------------------------------------
    # install and restore

    def install(self):
        import mclab.convexsets as convexsets
        import mclab.fixtures as fixtures
        import mclab.spaces as spaces

        modules = _mclab_modules()
        for mod_name, attr, label, kind in FUNCTION_TARGETS:
            original = getattr(sys.modules[f"mclab.{mod_name}"], attr)
            self._patch_everywhere(modules, original, self._wrap(original, label, kind))
        self._patch_everywhere(modules, spaces.distance, self._leaf(spaces.distance))
        for cls_name, label in METHOD_TARGETS:
            cls = getattr(convexsets, cls_name)
            original = cls.__dict__["sample_points"]
            self._patch(cls.__dict__, "sample_points", original,
                        self._wrap(original, label, AGGREGATE), setter=cls)
        for name, original in list(fixtures.FIXTURES.items()):
            self._patch(fixtures.FIXTURES, name, original,
                        self._wrap(original, f"fixtures.{name}", SPAN))

    def _patch_everywhere(self, modules, original, wrapper):
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(vars(mod), key, original, wrapper, setter=mod)

    def _patch(self, namespace, key, original, wrapper, setter=None):
        self._patched.append((namespace, key, original, setter))
        if setter is None:
            namespace[key] = wrapper
        else:
            setattr(setter, key, wrapper)

    def restore(self):
        for namespace, key, original, setter in reversed(self._patched):
            if setter is None:
                namespace[key] = original
            else:
                setattr(setter, key, original)

    def originals(self):
        """(namespace, key, original) for every name install patched, kept
        after restore so that a caller can check each one is back."""
        return [(ns, key, orig) for ns, key, orig, _ in self._patched]

    # ------------------------------------------------------------------
    # wrappers

    def _wrap(self, fn, label, kind):
        frames, stats, spans, open_spans = self._frames, self.stats, self.spans, self._open_spans
        after = self._AFTER.get(label)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = label or _property_label(args, kwargs)
            frame = [0.0]
            frames.append(frame)
            if kind is SPAN:
                sid = len(spans)
                spans.append([sid, open_spans[-1] if open_spans else None, name, tracer.op,
                              None, None])
                open_spans.append(sid)
            if label == "hausdorff.hausdorff":
                tracer._depth[0] += 1
            elif label == "nested.common_point":
                tracer._depth[1] += 1
            result, ok = None, False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                elapsed = t1 - t0
                frames.pop()
                st = stats.get(name)
                if st is None:
                    st = stats[name] = [0, 0.0]
                st[0] += 1
                st[1] += elapsed - frame[0]
                if frames:
                    frames[-1][0] += elapsed
                if kind is SPAN:
                    span = spans[open_spans.pop()]
                    span[4], span[5] = t0 - tracer._t0, t1 - tracer._t0
                if label == "hausdorff.hausdorff":
                    tracer._depth[0] -= 1
                elif label == "nested.common_point":
                    tracer._depth[1] -= 1
                if after is not None and ok:
                    after(tracer, result, args, kwargs)

        return wrapper

    def _leaf(self, fn):
        frames, totals, counts, depth = self._frames, self.distance, self.counts, self._depth

        @functools.wraps(fn)
        def distance(space, a, b):
            t0 = perf_counter()
            result = fn(space, a, b)
            elapsed = perf_counter() - t0
            totals[0] += 1
            totals[1] += elapsed
            if space.exact:
                counts["distance.exact"] += 1
            if depth[0]:
                counts["distance.in_hausdorff"] += 1
            if depth[1]:
                counts["distance.in_nested"] += 1
            if frames:
                frames[-1][0] += elapsed
            return result

        return distance

    # counters read from a wrapped call's result

    def _after_points(self, result, args, kwargs):
        self.counts["sample_points.points"] += len(result)

    def _after_oracle(self, result, args, kwargs):
        from mclab.convexsets import GRID_ENUM_LIMIT

        oracle = args[0]
        self.counts["sample_points.points"] += len(result)
        limit = args[1] if len(args) > 1 else kwargs.get("grid_limit", GRID_ENUM_LIMIT)
        size = 1
        for lo, hi in zip(oracle.lower, oracle.upper):
            size *= 1 if lo == hi else oracle.resolution
        if size <= limit:
            seeds = len(dict.fromkeys(tuple(s) for s in oracle.seeds))
            self.counts["oracle.grid_tested"] += size
            self.counts["oracle.grid_found"] += len(result) - seeds
        else:
            self.counts["oracle.grid_skipped"] += 1

    def _after_hausdorff(self, result, args, kwargs):
        if result.exact:
            self.counts["hausdorff.exact"] += 1

    def _after_find_fixed_point(self, result, args, kwargs):
        self.counts["fixedpoint.evaluations"] += result.evaluations
        self.counts["fixedpoint.converged"] += bool(result.converged)

    def _after_common_point(self, result, args, kwargs):
        self.counts["nested.solved"] += 1

    def _after_write_reports(self, result, args, kwargs):
        self.counts["reports.bytes"] += (
            result.stat().st_size + result.with_suffix(".md").stat().st_size
        )

    _AFTER = {
        "convexsets.sample_points.box": _after_points,
        "convexsets.sample_points.finite": _after_points,
        "convexsets.sample_points.oracle": _after_oracle,
        "hausdorff.hausdorff": _after_hausdorff,
        "fixedpoint.find_fixed_point": _after_find_fixed_point,
        "nested.common_point": _after_common_point,
        "reports.write_reports": _after_write_reports,
    }

    # ------------------------------------------------------------------
    # results

    def calls(self, label):
        return self.stats.get(label, (0, 0.0))[0]

    def self_s(self, prefix):
        """Self seconds of one label, or of every label under a prefix such
        as a layer name."""
        return sum(st[1] for name, st in self.stats.items()
                   if name == prefix or name.startswith(prefix + "."))

    def layer_metrics(self) -> dict:
        c = self.counts
        dist_calls, dist_s = self.distance
        h_calls = self.calls("hausdorff.hausdorff")
        fp_calls = self.calls("fixedpoint.find_fixed_point")
        cp_calls = self.calls("nested.common_point")
        values = {
            "spaces.distance.calls": (dist_calls, "count"),
            "spaces.distance.self_s": (dist_s, "s"),
            "spaces.distance.exact_share": (_ratio(c["distance.exact"], dist_calls), "ratio"),
            "convexsets.midpoint_set.calls": (self.calls("convexsets.midpoint_set"), "count"),
            "convexsets.midpoint_set.self_s": (self.self_s("convexsets.midpoint_set"), "s"),
            "convexsets.sample_points.box.self_s": (self.self_s("convexsets.sample_points.box"), "s"),
            "convexsets.sample_points.oracle.self_s": (
                self.self_s("convexsets.sample_points.oracle"), "s"),
            "convexsets.sample_points.points": (c["sample_points.points"], "count"),
            "convexsets.oracle.grid_tested": (c["oracle.grid_tested"], "count"),
            "convexsets.oracle.accept_ratio": (
                _ratio(c["oracle.grid_found"], c["oracle.grid_tested"]), "ratio"),
            "convexsets.oracle.grid_skipped": (c["oracle.grid_skipped"], "count"),
            "convexsets.segment.self_s": (self.self_s("convexsets.segment"), "s"),
            "convexsets.lifted_union.self_s": (self.self_s("convexsets.lifted_union"), "s"),
            "convexsets.diameter.self_s": (self.self_s("convexsets.diameter"), "s"),
            "hausdorff.hausdorff.calls": (h_calls, "count"),
            "hausdorff.hausdorff.self_s": (self.self_s("hausdorff.hausdorff"), "s"),
            "hausdorff.distance_calls": (c["distance.in_hausdorff"], "count"),
            "hausdorff.exact_share": (_ratio(c["hausdorff.exact"], h_calls), "ratio"),
            "sampling.self_s": (self.self_s("sampling"), "s"),
        }
        for prop in ("menger", "A", "B", "Bprime", "Bdoubleprime", "C"):
            values[f"properties.{prop}.self_s"] = (self.self_s(f"properties.{prop}"), "s")
        values.update({
            "fixedpoint.verify_hybrid.self_s": (self.self_s("fixedpoint.verify_hybrid"), "s"),
            "fixedpoint.find_fixed_point.self_s": (
                self.self_s("fixedpoint.find_fixed_point"), "s"),
            "fixedpoint.evaluations": (c["fixedpoint.evaluations"], "count"),
            "fixedpoint.converged_ratio": (_ratio(c["fixedpoint.converged"], fp_calls), "ratio"),
            "nested.common_point.calls": (cp_calls, "count"),
            "nested.common_point.self_s": (self.self_s("nested.common_point"), "s"),
            "nested.distance_calls": (c["distance.in_nested"], "count"),
            "nested.solved_ratio": (_ratio(c["nested.solved"], cp_calls), "ratio"),
            "fixtures.self_s": (self.self_s("fixtures"), "s"),
            "reports.write_reports.self_s": (self.self_s("reports.write_reports"), "s"),
            "reports.bytes": (c["reports.bytes"], "bytes"),
            "cli.self_s": (self.self_s("cli"), "s"),
        })
        return values

    def bases(self) -> dict:
        """Numerators and denominators behind each ratio metric."""
        c = self.counts
        return {
            "spaces.distance.exact_share": [c["distance.exact"], self.distance[0]],
            "convexsets.oracle.accept_ratio": [c["oracle.grid_found"], c["oracle.grid_tested"]],
            "hausdorff.exact_share": [c["hausdorff.exact"], self.calls("hausdorff.hausdorff")],
            "fixedpoint.converged_ratio": [
                c["fixedpoint.converged"], self.calls("fixedpoint.find_fixed_point")],
            "nested.solved_ratio": [c["nested.solved"], self.calls("nested.common_point")],
        }

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "span_fields": ["id", "parent", "name", "op", "start_s", "end_s"],
                "spans": self.spans,
                "stats": {k: {"calls": v[0], "self_s": v[1]} for k, v in sorted(self.stats.items())},
                "distance": {"calls": self.distance[0], "seconds": self.distance[1]},
                "counts": self.counts,
            }, fh)


def _property_label(args, kwargs):
    which = args[1] if len(args) > 1 else kwargs.get("which")
    return f"properties.{which}"


def _ratio(num, den):
    return num / den if den else 0.0
