"""Spans around the calls into each monorev layer, for the traced run.

The tracer replaces public functions at the module attributes their callers
look up (``right_complement`` as ``monorev.reversing`` sees it, ``certify``
as the benchmark sees it in ``monorev.completeness``) with wrappers that
record a span: name, start, end and the span that was open when it began.
A layer's self time is the time its spans cover minus the time covered by
their direct children.  Hooks whose name no longer exists are skipped, and
the metrics that depend only on them are reported as absent.

Counting the result of a call (steps of a reversal trace, triples of a
certificate) happens after the span ends, inside a span of the pseudo-layer
``tracing``, so that this bookkeeping is not charged to the caller's layer.
"""

from __future__ import annotations

import importlib
import time
from array import array

LAYERS = ("words", "presentation", "catalog", "reversing", "completeness",
          "oracle", "derivation")

# (module, attribute, layer).  The cli layer is not hooked: no workload goes
# through it, and its import cost is part of setup_s.
HOOKS = (
    ("monorev.catalog", "load", "catalog"),
    ("monorev.words", "parse_word", "words"),
    ("monorev.presentation", "parse_word", "words"),
    ("monorev.presentation", "instantiate_window", "presentation"),
    ("monorev.completeness", "check_complemented", "presentation"),
    ("monorev.oracle", "materialize_relations", "presentation"),
    ("monorev.reversing", "right_complement", "presentation"),
    ("monorev.reversing", "left_complement", "presentation"),
    ("monorev.reversing", "reverse_quotient", "reversing"),
    ("monorev.reversing", "right_reverse", "reversing"),
    ("monorev.reversing", "left_reverse", "reversing"),
    ("monorev.completeness", "right_reverse", "reversing"),
    ("monorev.completeness", "left_reverse", "reversing"),
    ("monorev.completeness", "certify", "completeness"),
    ("monorev.completeness", "cube_condition", "completeness"),
    ("monorev.oracle", "cancellation_scan", "oracle"),
    ("monorev.oracle", "monoid_equal", "oracle"),
    ("monorev.oracle", "equivalence_class", "oracle"),
    ("monorev.derivation", "parse_script", "derivation"),
    ("monorev.derivation", "verify_script", "derivation"),
)

# Every per-layer metric with its unit, in report order.
UNITS = {
    "reversing.calls": "count", "reversing.steps": "count",
    "reversing.steps_per_s": "1/s", "reversing.fuel_out_calls": "count",
    "reversing.fuel_out_step_share": "ratio", "reversing.terminal_us_per_call": "us",
    "reversing.fuel_out_ms_per_call": "ms", "reversing.peak_word_len": "letters",
    "reversing.self_s": "s",
    "presentation.complement_calls": "count", "presentation.complement_cold": "count",
    "presentation.complement_cold_us": "us", "presentation.complement_warm_us": "us",
    "presentation.check_complemented_ms": "ms", "presentation.instantiate_window_ms": "ms",
    "presentation.self_s": "s",
    "completeness.triples": "count", "completeness.cube_checks": "count",
    "completeness.cube_us": "us", "completeness.cube_inconclusive": "count",
    "completeness.self_s": "s",
    "oracle.scan_s": "s", "oracle.words_checked": "count", "oracle.equal_ms": "ms",
    "oracle.class_states": "count", "oracle.states_per_s": "1/s", "oracle.self_s": "s",
    "derivation.verify_ms": "ms", "derivation.self_s": "s",
    "words.parse_us": "us", "words.parse_calls": "count", "words.self_s": "s",
    "catalog.build_ms": "ms", "catalog.self_s": "s",
    "tracing.overhead_ratio": "ratio", "tracing.wall_s": "s",
    "tracing.self_s": "s", "tracing.uncovered_s": "s",
}

REVERSALS = ("right_reverse", "left_reverse")
COMPLEMENTS = ("right_complement", "left_complement")

# The hooks behind each metric, first matching prefix wins.
NEEDS = (
    ("reversing.self_s", REVERSALS + ("reverse_quotient",)),
    ("reversing.", REVERSALS),
    ("presentation.complement_", COMPLEMENTS),
    ("presentation.check_complemented_ms", ("check_complemented",)),
    ("presentation.instantiate_window_ms", ("instantiate_window",)),
    ("completeness.triples", ("certify",)),
    ("completeness.cube_", ("cube_condition",)),
    ("oracle.scan_s", ("cancellation_scan",)),
    ("oracle.words_checked", ("cancellation_scan",)),
    ("oracle.equal_ms", ("monoid_equal",)),
    ("oracle.class_", ("equivalence_class",)),
    ("oracle.states_per_s", ("equivalence_class",)),
    ("derivation.verify_ms", ("verify_script",)),
    ("words.", ("parse_word",)),
    ("catalog.", ("load",)),
)
# Told apart by the growth of the presentation's private complement cache.
COLD_METRICS = ("presentation.complement_cold", "presentation.complement_cold_us",
                "presentation.complement_warm_us")


def _peak_length(trace) -> int:
    """Longest intermediate word of a reversal trace, from its step records."""
    n = peak = len(trace.start)
    for step in trace.steps:
        rule = step.rule
        n += -2 if rule is None else len(rule.lhs) + len(rule.rhs) - 4
        if n > peak:
            peak = n
    return peak


class Tracer:
    """Records spans in flat arrays while installed; computes layer metrics after."""

    def __init__(self) -> None:
        self.span_names: list[str] = []
        self.span_layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.hooked: set[str] = set()
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self.count = {
            "reversing.steps": 0, "reversing.fuel_out_calls": 0,
            "reversing.fuel_out_steps": 0, "reversing.fuel_out_s": 0.0,
            "reversing.terminal_calls": 0, "reversing.terminal_s": 0.0,
            "reversing.peak_word_len": 0,
            "presentation.complement_cold": 0, "presentation.complement_cold_s": 0.0,
            "presentation.complement_warm": 0, "presentation.complement_warm_s": 0.0,
            "completeness.triples": 0, "completeness.cube_inconclusive": 0,
            "oracle.words_checked": 0, "oracle.class_states": 0,
        }
        self.cold_known = True
        self._after = {
            "right_reverse": self._after_reversal,
            "left_reverse": self._after_reversal,
            "certify": self._after_certify,
            "cube_condition": self._after_cube,
            "cancellation_scan": self._after_scan,
            "equivalence_class": self._after_class,
        }
        self._tracing_id = self._id("tracing:count", "tracing")

    def _id(self, span: str, layer: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.span_names)
            self.span_names.append(span)
            self.span_layers.append(layer)
        return self._ids[span]

    # -- installation --------------------------------------------------

    def install(self) -> None:
        for module_name, attr, layer in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if attr in COMPLEMENTS:
                wrapper = self._wrap_complement(original, self._id(f"{layer}:{attr}", layer))
            else:
                wrapper = self._wrap(original, self._id(f"{layer}:{attr}", layer),
                                     self._after.get(attr))
            if hasattr(original, "cache_clear"):  # fresh() clears catalog.load's cache
                wrapper.cache_clear = original.cache_clear
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapper)
            self.hooked.add(attr)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans -----------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _wrap(self, fn, name_id: int, after=None):
        clock = time.perf_counter
        stack, start, end = self._stack, self.start, self.end
        tracing_id = self._tracing_id

        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                idx = self._open(tracing_id)
                start[idx] = clock()
                after(result, t1 - t0)
                stack.pop()
                end[idx] = clock()
            return result

        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _wrap_complement(self, fn, name_id: int):
        """Lean wrapper for the hottest call; a growing cache marks a cold lookup."""
        clock = time.perf_counter
        stack, start, end, count = self._stack, self.start, self.end, self.count

        def wrapper(p, x, y):
            cache = getattr(p, "_complements", None)
            before = -1 if cache is None else len(cache)
            idx = self._open(name_id)
            t0 = clock()
            try:
                return fn(p, x, y)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                if cache is None:
                    self.cold_known = False
                elif len(cache) != before:
                    count["presentation.complement_cold"] += 1
                    count["presentation.complement_cold_s"] += t1 - t0
                else:
                    count["presentation.complement_warm"] += 1
                    count["presentation.complement_warm_s"] += t1 - t0

        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def op(self, fn):
        """Wrap one benchmark operation as a root span, the request's identifier."""
        return self._wrap(fn, self._id("bench:op", "bench"))

    # -- counting results ------------------------------------------------

    def _after_reversal(self, trace, seconds: float) -> None:
        c = self.count
        steps = trace.step_count
        c["reversing.steps"] += steps
        if type(trace.outcome).__name__ == "Diverged":
            c["reversing.fuel_out_calls"] += 1
            c["reversing.fuel_out_steps"] += steps
            c["reversing.fuel_out_s"] += seconds
        else:
            c["reversing.terminal_calls"] += 1
            c["reversing.terminal_s"] += seconds
        c["reversing.peak_word_len"] = max(c["reversing.peak_word_len"], _peak_length(trace))

    def _after_certify(self, cert, seconds: float) -> None:
        self.count["completeness.triples"] += cert.triples_checked

    def _after_cube(self, result, seconds: float) -> None:
        if result.status == "inconclusive":
            self.count["completeness.cube_inconclusive"] += 1

    def _after_scan(self, report, seconds: float) -> None:
        self.count["oracle.words_checked"] += report.words_checked

    def _after_class(self, words, seconds: float) -> None:
        self.count["oracle.class_states"] += len(words)

    # -- analysis ----------------------------------------------------------

    def span_stats(self) -> tuple[dict[str, list], dict[str, float]]:
        """Per span name [calls, total seconds, self seconds]; self seconds per layer."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        start, end, parent, name = self.start, self.end, self.parent, self.name
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        stats = [[0, 0.0, 0.0] for _ in self.span_names]
        for i in range(n):
            d = end[i] - start[i]
            s = stats[name[i]]
            s[0] += 1
            s[1] += d
            s[2] += d - child[i]
        by_name = dict(zip(self.span_names, stats))
        layer_self: dict[str, float] = {}
        for span, layer in zip(self.span_names, self.span_layers):
            layer_self[layer] = layer_self.get(layer, 0.0) + by_name[span][2]
        return by_name, layer_self

    def metrics(self, wall_s: float, untraced_wall_s: float) -> tuple[dict, list[str]]:
        """Per-layer metrics of the traced pass, and the names reported absent."""
        by_name, layer_self = self.span_stats()
        c = self.count

        def calls(*spans):
            return sum(by_name.get(s, (0, 0.0, 0.0))[0] for s in spans)

        def total(*spans):
            return sum(by_name.get(s, (0, 0.0, 0.0))[1] for s in spans)

        def per(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        def mean(span, scale):
            return per(total(span), calls(span), scale)

        rev = [f"reversing:{a}" for a in REVERSALS]
        m = {
            "reversing.calls": calls(*rev),
            "reversing.steps": c["reversing.steps"],
            "reversing.steps_per_s": per(c["reversing.steps"], total(*rev)),
            "reversing.fuel_out_calls": c["reversing.fuel_out_calls"],
            "reversing.fuel_out_step_share": per(c["reversing.fuel_out_steps"], c["reversing.steps"]),
            "reversing.terminal_us_per_call": per(c["reversing.terminal_s"], c["reversing.terminal_calls"], 1e6),
            "reversing.fuel_out_ms_per_call": per(c["reversing.fuel_out_s"], c["reversing.fuel_out_calls"], 1e3),
            "reversing.peak_word_len": c["reversing.peak_word_len"],
            "presentation.complement_calls": calls(*(f"presentation:{a}" for a in COMPLEMENTS)),
            "presentation.complement_cold": c["presentation.complement_cold"],
            "presentation.complement_cold_us": per(c["presentation.complement_cold_s"], c["presentation.complement_cold"], 1e6),
            "presentation.complement_warm_us": per(c["presentation.complement_warm_s"], c["presentation.complement_warm"], 1e6),
            "presentation.check_complemented_ms": mean("presentation:check_complemented", 1e3),
            "presentation.instantiate_window_ms": mean("presentation:instantiate_window", 1e3),
            "completeness.triples": c["completeness.triples"],
            "completeness.cube_checks": calls("completeness:cube_condition"),
            "completeness.cube_us": mean("completeness:cube_condition", 1e6),
            "completeness.cube_inconclusive": c["completeness.cube_inconclusive"],
            "oracle.scan_s": mean("oracle:cancellation_scan", 1.0),
            "oracle.words_checked": c["oracle.words_checked"],
            "oracle.equal_ms": mean("oracle:monoid_equal", 1e3),
            "oracle.class_states": c["oracle.class_states"],
            "oracle.states_per_s": per(c["oracle.class_states"], total("oracle:equivalence_class")),
            "derivation.verify_ms": mean("derivation:verify_script", 1e3),
            "words.parse_us": mean("words:parse_word", 1e6),
            "words.parse_calls": calls("words:parse_word"),
            "catalog.build_ms": mean("catalog:load", 1e3),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
        covered = sum(layer_self.get(layer, 0.0) for layer in LAYERS)
        m["tracing.self_s"] = layer_self.get("tracing", 0.0)
        m["tracing.uncovered_s"] = wall_s - covered - m["tracing.self_s"]
        m["tracing.wall_s"] = wall_s
        m["tracing.overhead_ratio"] = per(wall_s, untraced_wall_s)

        absent = [k for k in UNITS if not self._measured(k)]
        return {k: m[k] for k in UNITS if k not in absent}, absent

    def _measured(self, metric: str) -> bool:
        """False when every hook the metric is computed from was missing."""
        if metric in COLD_METRICS and not self.cold_known:
            return False
        for prefix, hooks in NEEDS:
            if metric.startswith(prefix):
                return bool(self.hooked.intersection(hooks))
        return True
