"""What the benchmark in vtybench/ needs from vty, checked from the vty side.

The tracer patches functions by module and name and reads counts off
their results, and the benchmark's set-up parses the packaged registry
through the CLI; a rename in vty would break the benchmark without
failing any other test. The tracer's tables are read from its file,
which stays unchanged.
"""

import importlib.util
import inspect
import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import vty.semantics
from vty.formulas import parse_formula

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "vtybench" / "tracer.py"

# Runs in a fresh interpreter, so no test's import or monkeypatch shows.
RESOLVE_TABLES = f"""
import importlib, importlib.util, json
spec = importlib.util.spec_from_file_location("bench_tracer", {str(TRACER)!r})
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
import vty
problems = []
for table in (tracer.SPANNED, tracer.COUNTED, tracer.CACHES):
    for name, (module, attr, *_) in table.items():
        function = getattr(importlib.import_module(module), attr, None)
        if not callable(function):
            problems.append(f"{{name}}: {{module}}.{{attr}} is missing")
        elif table is tracer.CACHES and not hasattr(function, "cache_info"):
            problems.append(f"{{name}}: {{module}}.{{attr}} is not a memo cache")
print(json.dumps(problems))
"""


def test_traced_functions_resolve_on_a_fresh_import():
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", RESOLVE_TABLES], capture_output=True,
                          text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_tracer_reads_its_counts_off_the_results(data_dir):
    # the tracer's RESULT_COUNTS read fields of these return values; a field
    # renamed in vty would otherwise fail only the benchmark's traced runs
    import vty.machines as machines
    from vty.calculus import base_calculus, closure, proves
    from vty.formulas import match_pattern
    from vty.manifest import load_manifest
    from vty.varieties import check_variety

    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    manifest = load_manifest(data_dir / "shared_core.vty")
    adder = machines.parse_machine((ROOT / "src" / "vty" / "data" / "adder.rm").read_text())
    results = {
        "calculus.closure": closure(base_calculus("hilbert"), 1),
        "projection.proves": proves(base_calculus("mp"), parse_formula("p"), 1),
        "varieties.check_variety": check_variety(
            manifest.prevariety("SHARED"), 2, manifest.prevariety_witnesses("SHARED")),
        "formulas.match_pattern": match_pattern(parse_formula("a"), parse_formula("p"), {}),
        "machines.run_machine": machines.run_machine(adder, machines.pair(2, 3), 10_000),
        "machines.universal_run_stats": machines.universal_run_stats(
            machines.encode_machine(adder), machines.pair(2, 3), 10_000),
    }
    assert sorted(results) == sorted(tracer.RESULT_COUNTS)
    for name, read in tracer.RESULT_COUNTS.items():
        try:
            read(defaultdict(int), results[name])
        except (AttributeError, IndexError, KeyError, TypeError) as exc:
            pytest.fail(f"the tracer cannot read the result of {name}: {exc!r}")


def test_set_up_parses_the_registry_through_the_cli():
    import vty.cli

    assert vty.cli._seed_manifest().source == "seed_registry.vty"


def test_cli_takes_the_calls_the_benchmark_makes():
    # vtybench/session.py calls `cli.main(list(argv))` for every request and
    # `cli._seed_manifest()` during set-up
    import vty.cli

    inspect.signature(vty.cli.main).bind(["report-matrix"])
    inspect.signature(vty.cli._seed_manifest).bind()


def test_chain16_evaluates_through_the_semantics_binding(monkeypatch):
    # the tracer counts `semantics.evaluate` calls at this binding, and the
    # traced knowledge run fails its self-check when the count reads 0
    real = vty.semantics.evaluate
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(vty.semantics, "evaluate", counting)
    chain = ["p1"] + [f"(-> p{i} p{i + 1})" for i in range(1, 15)] + ["(not p15)"]
    verdict = vty.semantics.check_consistency([parse_formula(t) for t in chain])
    assert not verdict.consistent
    assert 1 <= len(calls) <= 16


def count_calls(monkeypatch, module, names) -> list[str]:
    """Wrap every binding of each named function of `module` in every vty
    module, as the tracer does; the returned list gets one name per call."""
    calls = []
    for name in names:
        real = getattr(module, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        for loaded in [m for key, m in sys.modules.items() if key.split(".")[0] == "vty"]:
            if getattr(loaded, name, None) is real:
                monkeypatch.setattr(loaded, name, counting)
    return calls


def test_subsets_classify_closes_and_proves_once(monkeypatch, capsys):
    # the tracer counts every binding of `vty.calculus.closure` and
    # `vty.calculus.proves`, and the traced subsets run fails its self-check
    # when either count reads 0; a subsets request's argv has this shape
    import vty.calculus
    import vty.cli

    calls = count_calls(monkeypatch, vty.calculus, ("closure", "proves"))
    code = vty.cli.main(["classify", "--axioms", "(-> b c)", "(-> a b)", "(-> a x)", "a",
                         "(-> y c)", "--goal", "c", "--base", "mp", "--depth", "3"])
    assert code == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["reducible_to"] == ["(-> a b)", "(-> b c)", "a"]
    assert sorted(calls) == ["closure", "proves"]


def test_knowledge_checks_consistency_once_for_the_union(monkeypatch, capsys):
    # within the atom cap each component row and the subset search read one
    # mask per component, so check_consistency runs only for the union; the
    # traced knowledge run fails its self-check when either count reads 0
    import vty.cli

    calls = count_calls(monkeypatch, vty.semantics, ("check_consistency", "evaluate"))
    code = vty.cli.main(["check-prevariety", str(ROOT / "tests" / "data" / "knowledge_five.vty")])
    assert code == 0
    consistency = json.loads(capsys.readouterr().out)["result"]["consistency"]
    assert len(consistency["minimal_inconsistent_sets"]) > 0
    assert calls.count("check_consistency") == 1
    assert "evaluate" in calls


def test_minimal_subsets_of_twelve_axioms_close_once(monkeypatch):
    # the goal's support masks answer every subset: no proof search per subset
    import vty.calculus
    from vty.projection import minimal_axiom_subsets

    calls = count_calls(monkeypatch, vty.calculus, ("labelled_closure", "proves"))
    axioms = [parse_formula(f"a{i}") for i in range(6)] + [
        parse_formula(f"(-> a{i} g)") for i in range(6)]
    found = minimal_axiom_subsets(axioms, parse_formula("g"), "mp", 1)
    assert len(found) == 6
    assert calls == ["labelled_closure"]


def test_universal_run_makes_no_direct_runs(monkeypatch):
    # the tracer counts `run_machine` and `universal_run_stats` apart, so
    # neither may run through the other
    import vty.machines

    calls = count_calls(monkeypatch, vty.machines, ("run_machine", "universal_run_stats"))
    adder = vty.machines.parse_machine(
        (ROOT / "src" / "vty" / "data" / "adder.rm").read_text())
    trace = vty.machines.universal_run(
        vty.machines.encode_machine(adder), vty.machines.pair(2, 3), 10_000)
    assert (trace.outcome, trace.output) == ("HALT", 5)
    assert calls == ["universal_run_stats"]


def reachable_slots(program) -> set[int]:
    """The slots of `program` that a run from slot 0 can read."""
    from vty.machines import DecJz, Inc

    seen: set[int] = set()
    todo = [0]
    while todo:
        slot = todo.pop()
        if slot < len(program) and slot not in seen:
            seen.add(slot)
            instr = program[slot]
            if isinstance(instr, Inc):
                todo.append(instr.target)
            elif isinstance(instr, DecJz):
                todo += [instr.target_if_zero, instr.target_if_positive]
    return seen


def test_brute_search_makes_one_direct_run_per_class_and_input(monkeypatch):
    # `machines.run_machine.calls` on the world9438 baseline is a count metric;
    # machines that agree on the slots a run can read run alike, so brute
    # force runs one machine of each such class on each input
    import vty.machines

    classes = {(len(m.program), tuple((slot, m.program[slot])
                                      for slot in sorted(reachable_slots(m.program))))
               for m in vty.machines.enumerate_machines(2, 1)}
    assert (len(classes), vty.machines.count_machines(2, 1)) == (93, 177)
    calls = count_calls(monkeypatch, vty.machines, ("run_machine", "universal_run_stats"))
    bounds = vty.machines.WorldBounds(2, 1, (0, 1, 2), 20)
    result = vty.machines.fixed_output_brute(bounds, 2)
    assert result.runs == 3 * vty.machines.count_machines(2, 1)
    assert calls == ["run_machine"] * (3 * len(classes))


def test_benchmark_unit_suite_passes():
    # the harness's own tests drive vty through the names above; they write
    # only under the git-ignored vtybench/work/
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "vtybench/tests"],
        capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
