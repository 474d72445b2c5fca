"""Per-layer tracing from outside the engine.

The benchmark wraps the public functions of each omegalab layer in timing
spans and patches every module that holds a reference to them, so calls
between layers (``diag`` calling the ``nth_partial_fn`` it imported from
``codec``) and inside one layer both pass through the wrappers.  Nothing in
``src/`` knows about this: time spent in an unwrapped helper counts as self
time of the nearest wrapped caller.

Spans are kept in memory (up to a cap) and written at the end of the run;
the aggregates below cover every span, stored or not.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

# layer -> module -> wrapped public functions.  config and errors do no
# measurable work and are not traced.
LAYERS: dict[str, dict[str, tuple[str, ...]]] = {
    "codec": {"codec": ("nth_partial_fn", "partial_fn_index",
                        "raw_code_of_index", "index_of_raw_code",
                        "least_extension_index", "check_dense")},
    "finset": {"finset": ("is_independent", "min_combination_size",
                          "boolean_combination")},
    "extender": {"extender": ("atoms_of", "check_compatible",
                              "build_permutation", "orbit_closure",
                              "find_independent_shuffle")},
    "generic": {"generic": ("build_generic", "extend_to_meet", "is_condition",
                            "check_all_combos_dense")},
    "diag": {"diag": ("run_pipeline", "grid_fn_from_perm", "verify_catch",
                      "matches")},
    "cli": {"jsonio": ("read_json", "write_json"), "cli": ("main",)},
}

# spans whose scans feed finset.specs_per_s
_SCAN_SPANS = ("finset.is_independent", "finset.min_combination_size")

MAX_STORED_SPANS = 100_000


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mods in LAYERS.values()
            for mod, fns in mods.items() for fn in fns]


def layer_of(span_name: str) -> str:
    mod = span_name.split(".", 1)[0]
    for layer, mods in LAYERS.items():
        if mod in mods:
            return layer
    raise KeyError(span_name)


class Tracer:
    """Span stack, aggregates and stored spans for one process."""

    def __init__(self, max_spans: int = MAX_STORED_SPANS):
        self.max_spans = max_spans
        self.op = -1
        self.paused = False  # set while the benchmark checks an output
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.span_count = 0
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        self.max_s: defaultdict[str, float] = defaultdict(float)
        self.counters: Counter[str] = Counter()
        self.import_s: list[float] = []  # per traced CLI child
        self._stack: list[list] = []  # [span id, child seconds, name]
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable[[Any, Counter], None]] = None) -> Callable:
        stack, counters = self._stack, self.counters

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            self.span_count += 1
            span_id = self.span_count
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0, name]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                self.incl_s[name] += dur
                if dur > self.max_s[name]:
                    self.max_s[name] = dur
                if len(self.spans) < self.max_spans:
                    self.spans.append((span_id, parent, self.op, name, start, end))
            if observe is not None:
                observe(result, counters)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_specs(self, fn: Callable) -> Callable:
        """Wrap the combination_specs generator to count the specs it yields."""
        stack, counters = self._stack, self.counters

        def counted(*args, **kwargs):
            if self.paused:
                yield from fn(*args, **kwargs)
                return
            for spec in fn(*args, **kwargs):
                counters["finset.specs_scanned"] += 1
                if stack and stack[-1][2] in _SCAN_SPANS:
                    counters["finset.scan_specs"] += 1
                yield spec

        counted.__wrapped__ = fn
        return counted

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        """Patch every loaded module that references a traced function."""
        replacements: dict[int, Callable] = {}
        for names in LAYERS.values():
            for mod, fns in names.items():
                module = importlib.import_module(f"omegalab.{mod}")
                for fn in fns:
                    orig = getattr(module, fn)
                    name = f"{mod}.{fn}"
                    replacements[id(orig)] = self.wrap(name, orig,
                                                       _OBSERVERS.get(name))
        finset = importlib.import_module("omegalab.finset")
        specs = finset.combination_specs
        replacements[id(specs)] = self.count_specs(specs)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                new = replacements.get(id(value))
                if new is not None and getattr(new, "__wrapped__", None) is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, new)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    # -- output ---------------------------------------------------------------

    def aggregates(self) -> dict[str, Any]:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "incl_s": dict(self.incl_s), "max_s": dict(self.max_s),
                "counters": dict(self.counters), "spans": self.span_count}

    def merge(self, agg: dict[str, Any]) -> None:
        """Fold in what a traced CLI child wrote: aggregates, import time and
        spans, whose ids are shifted past this tracer's own."""
        offset = self.span_count
        room = self.max_spans - len(self.spans)
        for span_id, parent, op, name, start, end in agg["spans_stored"][:room]:
            self.spans.append((span_id + offset, parent and parent + offset,
                               op, name, start, end))
        self.import_s.append(agg["import_s"])
        self.calls.update(agg["calls"])
        for key in ("self_s", "incl_s"):
            target = getattr(self, key)
            for name, value in agg[key].items():
                target[name] += value
        for name, value in agg["max_s"].items():
            self.max_s[name] = max(self.max_s[name], value)
        self.counters.update(agg["counters"])
        self.span_count += agg["spans"]

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")


def _observe_extension(result, counters) -> None:
    counters["codec.lei_found"] += result is not None


def _observe_shuffle(result, counters) -> None:
    counters["extender.searches"] += 1
    counters["extender.shuffle_attempts"] += result.attempts
    counters["extender.shuffle_successes"] += result.ok


def _observe_build(result, counters) -> None:
    counters["generic.steps_completed"] += len(result.steps)
    counters["generic.schedule_length"] += result.schedule_length


def _observe_catch(result, counters) -> None:
    counters["diag.cases_checked"] += len(result.up_cases) + len(result.down_cases)


_OBSERVERS = {
    "codec.least_extension_index": _observe_extension,
    "extender.find_independent_shuffle": _observe_shuffle,
    "generic.build_generic": _observe_build,
    "diag.verify_catch": _observe_catch,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, ops: int, op_seconds: float,
                      import_s: float, untraced_p50: float,
                      traced_p50: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, name -> (value, unit).

    Calls, self seconds and work counts are per traced op, so runs of
    different lengths compare; `op_seconds` is the wall time of the traced
    ops, the base of every share.  `import_s` is this process's import time;
    the median over traced CLI children replaces it when there are any.
    """
    out: dict[str, tuple[float, str]] = {}
    c = tracer.counters
    layer_self: defaultdict[str, float] = defaultdict(float)
    for name in span_names():
        out[f"{name}.calls"] = (_ratio(tracer.calls[name], ops), "count/op")
        out[f"{name}.self_s"] = (_ratio(tracer.self_s[name], ops), "s/op")
        layer_self[layer_of(name)] += tracer.self_s[name]
    out["codec.raw_code_of_index.max_s"] = (tracer.max_s["codec.raw_code_of_index"], "s")
    out["codec.least_extension_index.found_ratio"] = (
        _ratio(c["codec.lei_found"], tracer.calls["codec.least_extension_index"]),
        "ratio")
    out["finset.specs_scanned"] = (_ratio(c["finset.specs_scanned"], ops), "count/op")
    scan_s = sum(tracer.incl_s[n] for n in _SCAN_SPANS)
    out["finset.specs_per_s"] = (_ratio(c["finset.scan_specs"], scan_s), "1/s")
    out["extender.shuffle_attempts"] = (_ratio(c["extender.shuffle_attempts"], ops),
                                        "count/op")
    out["extender.shuffle_success_ratio"] = (
        _ratio(c["extender.shuffle_successes"], c["extender.searches"]), "ratio")
    out["generic.demands_met_ratio"] = (
        _ratio(c["generic.steps_completed"], c["generic.schedule_length"]), "ratio")
    out["diag.cases_checked"] = (_ratio(c["diag.cases_checked"], ops), "count/op")
    if tracer.import_s:
        import_s = statistics.median(tracer.import_s)
    out["cli.import_s"] = (import_s, "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (_ratio(layer_self[layer], ops), "s/op")
        out[f"{layer}.share"] = (_ratio(layer_self[layer], op_seconds), "ratio")
    covered = sum(layer_self.values())
    out["trace.unattributed_share"] = (_ratio(op_seconds - covered, op_seconds), "ratio")
    out["trace.ops"] = (float(ops), "count")
    out["trace.spans_per_op"] = (_ratio(tracer.span_count, ops), "count/op")
    out["trace.untraced_op_p50_s"] = (untraced_p50, "s")
    out["trace.traced_op_p50_s"] = (traced_p50, "s")
    out["trace.overhead_s"] = (traced_p50 - untraced_p50, "s")
    return out
