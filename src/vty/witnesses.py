"""Executable witnesses backing evidence entries in the class registry.

Each witness is a named, deterministic check over the machine modules.
Evidence of kind EXEC_POSITIVE or EXEC_EXHAUSTIVE must reference one of
these ids, which manifest validation checks; `WITNESSES[id]()` runs one.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import automata, machines


class WitnessOutcome(NamedTuple):
    witness_id: str
    passed: bool
    details: dict


def _rm_universal_differential() -> WitnessOutcome:
    """Code-driven interpretation agrees with direct runs on randomized programs."""
    report = machines.universality_evidence()
    return WitnessOutcome("rm_universal_differential", report["all_agree"], report)


def _rm_self_loop_diverges() -> WitnessOutcome:
    """A one-instruction self loop runs out of fuel at every tried bound."""
    loop = machines.RegisterMachine(1, (machines.Inc(0, 0),))
    fuels = (10, 100, 1000)
    outcomes = {
        fuel: machines.run_machine(loop, 0, fuel).outcome for fuel in fuels
    }
    passed = all(outcome == machines.OUT_OF_FUEL for outcome in outcomes.values())
    return WitnessOutcome(
        "rm_self_loop_diverges", passed,
        {"machine": machines.format_machine(loop), "outcomes": {str(k): v for k, v in outcomes.items()}},
    )


def _dfa_totality_exhaustive() -> WitnessOutcome:
    """Every small automaton consumes exactly one step per symbol on every short word."""
    report = automata.totality_evidence()
    passed = report["all_terminated"] and report["steps_equal_word_length"]
    return WitnessOutcome("dfa_totality_exhaustive", passed, report)


# each witness id and the function that runs it
WITNESSES: dict[str, Callable[[], WitnessOutcome]] = {
    "rm_universal_differential": _rm_universal_differential,
    "rm_self_loop_diverges": _rm_self_loop_diverges,
    "dfa_totality_exhaustive": _dfa_totality_exhaustive,
}
