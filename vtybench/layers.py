"""Per-layer metrics: what each layer reports, and where it must read nonzero.

Every metric is a total over the timed requests of one traced run.
``*_ms`` metrics are self time: span time minus the time of child spans.
No layer waits on a queue or on I/O, so there are no wait metrics.
Units mark the kind of a metric: ``count`` metrics are exact and repeat
across interpreter hash seeds, ``ms`` metrics are times, ``ratio``
metrics are quotients of two counts.

``nonzero_on`` names the workloads a metric is mapped to; the traced
run fails when one of them reads zero there, so a binding the tracer
missed cannot pass as "no work".
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

from session import ADDER_PATH
from tracer import span_totals

P, S, K, M = "proofs", "subsets", "knowledge", "machines"
ALL = (P, S, K, M)

# layer -> (end-to-end metrics it should move, its metrics)
# a metric is (name, unit, better, nonzero_on)
LAYERS = {
    "formulas": ("throughput_rps and latency_p90_ms on proofs and on subsets", (
        ("formulas.match_pattern.calls", "count", "lower", (P, S)),
        ("formulas.match_pattern.hit_ratio", "ratio", "higher", (P, S)),
        ("formulas.substitute.calls", "count", "lower", (P, S)),
        ("formulas.formula_key.cache_hit_ratio", "ratio", "higher", (P, S)),
        ("formulas.match_pattern.baseline_hilbert4_calls", "count", "lower", (P,)),
    )),
    "calculus": ("throughput_rps on proofs and subsets; latency_p50_ms on knowledge "
                 "through the theorem_formulas cache", (
        ("calculus.closure.calls", "count", "lower", (P, S)),
        ("calculus.closure.self_ms", "ms", "lower", (P, S)),
        ("calculus.closure.formulas", "count", "lower", (P, S)),
        ("calculus.closure.domain", "count", "lower", (P, S)),
        ("calculus.theorem_formulas.cache_hit_ratio", "ratio", "higher", (K,)),
        ("calculus.closure.baseline_hilbert4_ms", "ms", "lower", (P,)),
        ("calculus.closure.baseline_hilbert4_formulas", "count", "lower", (P,)),
    )),
    "projection": ("throughput_rps and latency_p90_ms on subsets", (
        ("projection.proves.calls", "count", "lower", (S,)),
        ("projection.proves.found_ratio", "ratio", "higher", (S,)),
        ("projection.minimal_axiom_subsets.self_ms", "ms", "lower", (S,)),
        ("projection.classify_relation.self_ms", "ms", "lower", (S,)),
        ("projection.minimal_axiom_subsets.baseline_hilbert4_ms", "ms", "lower", (S,)),
    )),
    "semantics": ("throughput_rps and latency_p90_ms on knowledge, a small share of subsets", (
        ("semantics.check_consistency.calls", "count", "lower", (S, K)),
        ("semantics.check_consistency.self_ms", "ms", "lower", (S, K)),
        ("semantics.entails.self_ms", "ms", "lower", (S,)),
        ("semantics.evaluate.calls", "count", "lower", (S, K)),
        ("semantics.check_consistency.baseline_chain16_ms", "ms", "lower", (K,)),
        ("semantics.evaluate.baseline_chain16_calls", "count", "lower", (K,)),
    )),
    "varieties": ("latency_p50_ms on knowledge", (
        ("varieties.consistency_report.self_ms", "ms", "lower", (K,)),
        ("varieties.check_prevariety.self_ms", "ms", "lower", (K,)),
        ("varieties.check_variety.self_ms", "ms", "lower", (K,)),
        ("varieties.check_variety.tuples", "count", "lower", (K,)),
        ("varieties.check_variety.vacuous_ratio", "ratio", "higher", (K,)),
    )),
    "manifest": ("latency_p50_ms on knowledge, and setup_s; fixed-output parses the "
                 "seed registry it never uses, so the count shows on machines too", (
        ("manifest.parse_manifest.calls", "count", "lower", ALL),
        ("manifest.parse_manifest.self_ms", "ms", "lower", ALL),
        ("setup.parse_manifest_ms", "ms", "lower", ALL),
    )),
    "cli": ("latency_p50_ms on every workload, and setup_s", (
        ("cli.main.self_ms", "ms", "lower", ALL),
        ("setup.import_ms", "ms", "lower", ALL),
    )),
    "machines": ("throughput_rps and latency_p90_ms on machines", (
        ("machines.run_machine.calls", "count", "lower", (M,)),
        ("machines.run_machine.steps", "count", "lower", (M,)),
        ("machines.run_machine.out_of_fuel", "count", "lower", (M,)),
        ("machines.fixed_output_brute.self_ms", "ms", "lower", (M,)),
        ("machines.universal_run.self_ms", "ms", "lower", (M,)),
        ("machines.universal_run.micro_per_step", "ratio", "lower", (M,)),
        ("machines.fixed_output_brute.baseline_world9438_ms", "ms", "lower", (M,)),
        ("machines.run_machine.baseline_world9438_calls", "count", "lower", (M,)),
        ("machines.universal_run.baseline_adder_ms", "ms", "lower", (M,)),
        ("machines.universal_run.baseline_adder_steps", "count", "lower", (M,)),
    )),
    "trace": ("nothing: the cost of tracing itself, from the first quarter of the list "
              "run untraced and traced in turn, request by request", (
        ("trace.traced_rps", "1/s", "higher", ALL),
        ("trace.untraced_rps", "1/s", "higher", ALL),
        ("trace.overhead_pct", "%", "lower", ()),
    )),
}

METRICS = {name: (unit, better, nonzero_on)
           for _, metrics in LAYERS.values() for name, unit, better, nonzero_on in metrics}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def request_metrics(spans, counts) -> dict[str, float]:
    """The per-layer totals of the timed requests."""
    totals = span_totals(spans)

    def self_ms(name):
        return totals[name]["self_ms"] if name in totals else 0.0

    def count(key):
        return counts.get(key, 0)

    def cache_ratio(name):
        hits = count(f"{name}.cache_hits")
        return _ratio(hits, hits + count(f"{name}.cache_misses"))

    return {
        "formulas.match_pattern.calls": count("formulas.match_pattern.calls"),
        "formulas.match_pattern.hit_ratio": _ratio(count("formulas.match_pattern.hits"),
                                                   count("formulas.match_pattern.calls")),
        "formulas.substitute.calls": count("formulas.substitute.calls"),
        "formulas.formula_key.cache_hit_ratio": cache_ratio("formulas.formula_key"),
        "calculus.closure.calls": count("calculus.closure.calls"),
        "calculus.closure.self_ms": self_ms("calculus.closure"),
        "calculus.closure.formulas": count("calculus.closure.formulas"),
        "calculus.closure.domain": count("calculus.closure.domain"),
        "calculus.theorem_formulas.cache_hit_ratio": cache_ratio("calculus.theorem_formulas"),
        "projection.proves.calls": count("projection.proves.calls"),
        "projection.proves.found_ratio": _ratio(count("projection.proves.found"),
                                                count("projection.proves.calls")),
        "projection.minimal_axiom_subsets.self_ms": self_ms("projection.minimal_axiom_subsets"),
        "projection.classify_relation.self_ms": self_ms("projection.classify_relation"),
        "semantics.check_consistency.calls": count("semantics.check_consistency.calls"),
        "semantics.check_consistency.self_ms": self_ms("semantics.check_consistency"),
        "semantics.entails.self_ms": self_ms("semantics.entails"),
        "semantics.evaluate.calls": count("semantics.evaluate.calls"),
        "varieties.consistency_report.self_ms": self_ms("varieties.consistency_report"),
        "varieties.check_prevariety.self_ms": self_ms("varieties.check_prevariety"),
        "varieties.check_variety.self_ms": self_ms("varieties.check_variety"),
        "varieties.check_variety.tuples": count("varieties.check_variety.tuples"),
        "varieties.check_variety.vacuous_ratio": _ratio(
            count("varieties.check_variety.vacuous"), count("varieties.check_variety.tuples")),
        "manifest.parse_manifest.calls": count("manifest.parse_manifest.calls"),
        "manifest.parse_manifest.self_ms": self_ms("manifest.parse_manifest"),
        "cli.main.self_ms": self_ms("cli.main"),
        "machines.run_machine.calls": count("machines.run_machine.calls"),
        "machines.run_machine.steps": count("machines.run_machine.steps"),
        "machines.run_machine.out_of_fuel": count("machines.run_machine.out_of_fuel"),
        "machines.fixed_output_brute.self_ms": self_ms("machines.fixed_output_brute"),
        "machines.universal_run.self_ms": self_ms("machines.universal_run"),
        "machines.universal_run.micro_per_step": _ratio(count("machines.universal_run.micro"),
                                                        count("machines.universal_run.steps")),
    }


# --- ROADMAP baseline cases ------------------------------------------------------
# Each is timed once, untraced and from empty caches, in the traced run
# of the workload whose layer it belongs to; its counts come from a
# second, traced execution. They stay out of the request lists because
# one of them (6 s) would dominate a run.

@dataclass(frozen=True)
class Baseline:
    name: str
    workload: str
    time_metric: str
    counts: tuple[tuple[str, str], ...]  # (metric, tracer counter)
    run: object  # (modules) -> None


def _hilbert4(modules):
    formulas = modules["vty.formulas"]
    return [formulas.parse_formula(t) for t in ("p", "(-> p q)", "(-> q r)", "(-> r s)")]


def _closure_hilbert4(modules):
    calculus = modules["vty.calculus"]
    calculus.closure(calculus.with_axioms(calculus.base_calculus("hilbert"),
                                          _hilbert4(modules)), 3)


def _subsets_hilbert4(modules):
    modules["vty.projection"].minimal_axiom_subsets(
        _hilbert4(modules), modules["vty.formulas"].parse_formula("s"), "hilbert", 3)


def _chain16(modules):
    parse = modules["vty.formulas"].parse_formula
    chain = ["p1"] + [f"(-> p{i} p{i + 1})" for i in range(1, 15)] + ["(not p15)"]
    modules["vty.semantics"].check_consistency([parse(t) for t in chain])


def _world9438(modules):
    machines = modules["vty.machines"]
    machines.fixed_output_brute(machines.WorldBounds(3, 1, (0, 1), 50), 1)


def _adder(modules):
    machines = modules["vty.machines"]
    adder = machines.parse_machine(ADDER_PATH.read_text(encoding="utf-8"))
    machines.universal_run(machines.encode_machine(adder), 7, 200)


BASELINES = (
    Baseline("hilbert4", P, "calculus.closure.baseline_hilbert4_ms",
             (("calculus.closure.baseline_hilbert4_formulas", "calculus.closure.formulas"),
              ("formulas.match_pattern.baseline_hilbert4_calls", "formulas.match_pattern.calls")),
             _closure_hilbert4),
    Baseline("hilbert4_subsets", S, "projection.minimal_axiom_subsets.baseline_hilbert4_ms",
             (), _subsets_hilbert4),
    Baseline("chain16", K, "semantics.check_consistency.baseline_chain16_ms",
             (("semantics.evaluate.baseline_chain16_calls", "semantics.evaluate.calls"),),
             _chain16),
    Baseline("world9438", M, "machines.fixed_output_brute.baseline_world9438_ms",
             (("machines.run_machine.baseline_world9438_calls", "machines.run_machine.calls"),),
             _world9438),
    Baseline("adder", M, "machines.universal_run.baseline_adder_ms",
             (("machines.universal_run.baseline_adder_steps", "machines.universal_run.steps"),),
             _adder),
)


def baseline_counts(workload: str, tracer, cold) -> dict[str, int]:
    """Counts of the workload's baseline cases, one traced execution each from cold caches."""
    out: dict[str, int] = {}
    for case in BASELINES:
        out.update((metric, 0) for metric, _ in case.counts)
        if case.workload == workload and case.counts:
            cold()
            with tracer.recording(f"baseline:{case.name}"):
                case.run(sys.modules)
            _, counts = tracer.take()
            out.update((metric, counts.get(key, 0)) for metric, key in case.counts)
    return out


def baseline_times(workload: str, cold) -> dict[str, float]:
    """Milliseconds of the workload's baseline cases, one untraced execution each from cold caches."""
    out: dict[str, float] = {}
    for case in BASELINES:
        out[case.time_metric] = 0.0
        if case.workload == workload:
            cold()
            start = time.perf_counter()
            case.run(sys.modules)
            out[case.time_metric] = (time.perf_counter() - start) * 1000
    return out
