"""Spans and counters around vty's public functions, installed from outside.

vty imports functions with ``from ... import``, so a function has one
binding per importing module (``vty.calculus.closure``, ``vty.cli.closure``
and ``vty.closure`` are the same object). ``Tracer.install`` replaces
every binding of each traced function in every loaded ``vty`` module,
so a call reaches the wrapper whichever name it goes through. The one
binding left alone is a recursive primitive's own (``substitute`` and
``evaluate`` call themselves through it), so their counts are calls from
other code, not tree nodes.

Layer functions get a span each: name, start, end, parent span and
request id, kept in memory and written out once at the end of the run.
The hot primitives (``match_pattern``, ``substitute``, ``evaluate``,
``run_machine``) get counters instead. Nothing is recorded outside a
request, so reference checks stay out of the totals.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# span name -> (defining module, function)
SPANNED = {
    "cli.main": ("vty.cli", "main"),
    "manifest.parse_manifest": ("vty.manifest", "parse_manifest"),
    "calculus.closure": ("vty.calculus", "closure"),
    "calculus.theorem_formulas": ("vty.calculus", "theorem_formulas"),
    "projection.proves": ("vty.calculus", "proves"),
    "projection.classify_relation": ("vty.projection", "classify_relation"),
    "projection.minimal_axiom_subsets": ("vty.projection", "minimal_axiom_subsets"),
    "semantics.check_consistency": ("vty.semantics", "check_consistency"),
    "semantics.entails": ("vty.semantics", "entails"),
    "varieties.check_prevariety": ("vty.varieties", "check_prevariety"),
    "varieties.check_variety": ("vty.varieties", "check_variety"),
    "varieties.consistency_report": ("vty.varieties", "consistency_report"),
    "machines.fixed_output_brute": ("vty.machines", "fixed_output_brute"),
    "machines.fixed_output_recognize": ("vty.machines", "fixed_output_recognize"),
    "machines.universal_run": ("vty.machines", "universal_run"),
}

# counter name -> (defining module, function, recurses through its own binding)
COUNTED = {
    "formulas.match_pattern": ("vty.formulas", "match_pattern", False),
    "formulas.substitute": ("vty.formulas", "substitute", True),
    "semantics.evaluate": ("vty.formulas", "evaluate", True),
    "machines.run_machine": ("vty.machines", "run_machine", False),
    "machines.universal_run_stats": ("vty.machines", "universal_run_stats", False),
}

# memo caches whose hits and misses are counted per request
CACHES = {
    "formulas.formula_key": ("vty.formulas", "formula_key"),
    "calculus.theorem_formulas": ("vty.calculus", "theorem_formulas"),
}


# counts read off a traced function's return value
def _closure(counts, result):
    counts["calculus.closure.formulas"] += len(result.entries)
    counts["calculus.closure.domain"] += result.domain_size


def _proves(counts, result):
    counts["projection.proves.found"] += result is not None


def _check_variety(counts, result):
    counts["varieties.check_variety.tuples"] += len(result.tuples)
    counts["varieties.check_variety.vacuous"] += sum(
        record.status == "vacuous" for record in result.tuples)


def _match_pattern(counts, result):
    counts["formulas.match_pattern.hits"] += result is not None


def _run_machine(counts, result):
    counts["machines.run_machine.steps"] += result.steps
    counts["machines.run_machine.out_of_fuel"] += result.outcome == "OUT_OF_FUEL"


def _universal_run_stats(counts, result):
    counts["machines.universal_run.steps"] += result[0].steps
    counts["machines.universal_run.micro"] += result[1]


RESULT_COUNTS = {
    "calculus.closure": _closure,
    "projection.proves": _proves,
    "varieties.check_variety": _check_variety,
    "formulas.match_pattern": _match_pattern,
    "machines.run_machine": _run_machine,
    "machines.universal_run_stats": _universal_run_stats,
}


class Tracer:
    def __init__(self) -> None:
        self.request = None  # id of the request being recorded, None when idle
        self.stack: list[int] = []
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.counts: dict[str, int] = defaultdict(int)
        self.originals: dict[str, object] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- installation --

    def install(self) -> None:
        for name, (module, attr) in SPANNED.items():
            self._patch(name, module, attr, self._span_wrapper, skip=None)
        for name, (module, attr, recursive) in COUNTED.items():
            self._patch(name, module, attr, self._count_wrapper,
                        skip=module if recursive else None)
        for name, (module, attr) in CACHES.items():
            self.originals.setdefault(name, getattr(sys.modules[module], attr))

    def _patch(self, name: str, module_name: str, attr: str, make, skip) -> None:
        original = getattr(sys.modules[module_name], attr)
        self.originals[name] = original
        wrapper = make(name, original)
        for loaded, module in list(sys.modules.items()):
            if loaded == skip or (loaded != "vty" and not loaded.startswith("vty.")):
                continue
            for binding, value in list(vars(module).items()):
                if value is original:
                    setattr(module, binding, wrapper)
                    self._patched.append((module, binding, original))

    def uninstall(self) -> None:
        for module, binding, original in reversed(self._patched):
            setattr(module, binding, original)
        self._patched.clear()

    # -- wrappers --

    def _span_wrapper(self, name: str, fn):
        tracer, counts, clock = self, self.counts, time.perf_counter
        calls, on_result = f"{name}.calls", RESULT_COUNTS.get(name)

        def wrapper(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            counts[calls] += 1
            stack = tracer.stack
            span = [name, 0.0, 0.0, stack[-1] if stack else None, tracer.request]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(counts, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn):
        tracer, counts = self, self.counts
        calls, on_result = f"{name}.calls", RESULT_COUNTS.get(name)

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.request is not None:
                counts[calls] += 1
                if on_result is not None:
                    on_result(counts, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- recording --

    def _cache_counts(self) -> dict[str, tuple[int, int]]:
        out = {}
        for name in CACHES:
            info = self.originals[name].cache_info()
            out[name] = (info.hits, info.misses)
        return out

    @contextmanager
    def recording(self, request_id):
        """Record spans, counters and cache hits and misses for one request."""
        before = self._cache_counts()
        self.request = request_id
        try:
            yield
        finally:
            self.request = None
            for name, (hits, misses) in self._cache_counts().items():
                self.counts[f"{name}.cache_hits"] += hits - before[name][0]
                self.counts[f"{name}.cache_misses"] += misses - before[name][1]

    def take(self) -> tuple[list[list], dict[str, int]]:
        """Hand over what was recorded so far and start empty."""
        spans, counts = self.spans, dict(self.counts)
        self.spans = []
        self.counts.clear()
        return spans, counts


def span_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Calls, total and self milliseconds per span name.

    Self time is a span's duration minus the durations of its direct
    children, so nested calls of one layer are not counted twice.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] is not None:
            child_time[span[3]] += span[2] - span[1]
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
    for index, (name, start, end, _, _) in enumerate(spans):
        entry = totals[name]
        entry["calls"] += 1
        entry["total_ms"] += (end - start) * 1000
        entry["self_ms"] += (end - start - child_time[index]) * 1000
    return totals


def write_spans(path, spans: list[list]) -> None:
    """One JSON line per span: name, start and end in seconds, parent index, request."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for name, start, end, parent, request in spans:
            handle.write(json.dumps({"name": name, "start": round(start, 7),
                                     "end": round(end, 7), "parent": parent,
                                     "request": request}) + "\n")
