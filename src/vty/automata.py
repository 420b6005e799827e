"""Deterministic finite automata with a total transition table.

Totality is enforced at construction, so every run consumes exactly one
transition per input symbol and terminates. That structural fact is the
executable evidence this module supplies for the totality axiom.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple

from .errors import BadSymbolError, Checked

ACCEPT = "ACCEPT"
REJECT = "REJECT"


class _DFAFields(NamedTuple):
    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    start: str
    accepting: frozenset[str]
    transitions: dict[tuple[str, str], str]


class DFA(Checked, _DFAFields):
    """A deterministic automaton whose transition table is total over
    its states and alphabet."""

    __slots__ = ()

    def __new__(cls, states: tuple[str, ...], alphabet: tuple[str, ...], start: str,
                accepting: frozenset[str], transitions: dict[tuple[str, str], str]) -> DFA:
        state_set = set(states)
        if len(states) != len(state_set):
            raise ValueError("duplicate state names")
        if start not in state_set:
            raise ValueError(f"start state {start!r} is not a state")
        stray = accepting - state_set
        if stray:
            raise ValueError(f"accepting set names unknown states {sorted(stray)}")
        for state in states:
            for symbol in alphabet:
                key = (state, symbol)
                if key not in transitions:
                    raise ValueError(f"missing transition for {key}")
                if transitions[key] not in state_set:
                    raise ValueError(f"transition {key} leads outside the state set")
        extras = set(transitions) - {(s, a) for s in states for a in alphabet}
        if extras:
            raise ValueError(f"transitions outside states x alphabet: {sorted(extras)}")
        return tuple.__new__(cls, (states, alphabet, start, accepting, transitions))


def dfa_run_trace(dfa: DFA, word: str) -> tuple[str, int]:
    """Verdict plus the number of transitions consumed (always len(word))."""
    symbols = set(dfa.alphabet)
    state = dfa.start
    steps = 0
    for position, symbol in enumerate(word):
        if symbol not in symbols:
            raise BadSymbolError(symbol, position)
        state = dfa.transitions[(state, symbol)]
        steps += 1
    verdict = ACCEPT if state in dfa.accepting else REJECT
    return verdict, steps


def enumerate_dfas(max_states: int, alphabet: tuple[str, ...]) -> Iterator[DFA]:
    """All automata with 1..max_states states, in a fixed canonical order."""
    for count in range(1, max_states + 1):
        states = tuple(f"s{i}" for i in range(count))
        keys = [(state, symbol) for state in states for symbol in alphabet]
        for targets in itertools.product(states, repeat=len(keys)):
            transitions = dict(zip(keys, targets))
            for mask in range(2**count):
                accepting = frozenset(
                    states[i] for i in range(count) if mask >> i & 1
                )
                yield DFA(states, alphabet, states[0], accepting, dict(transitions))


def _words(alphabet: tuple[str, ...], max_length: int) -> Iterator[str]:
    for length in range(max_length + 1):
        for combo in itertools.product(alphabet, repeat=length):
            yield "".join(combo)


# the automata and words of the exhaustive check
_EVIDENCE_STATES, _EVIDENCE_ALPHABET, _EVIDENCE_WORD_LENGTH = 2, ("a",), 4


def totality_evidence() -> dict:
    """Exhaustive check: every run ends and consumes exactly |word| steps.

    A run counts once ``dfa_run_trace`` returns, so every run terminated
    when the count reaches automata x the census of words up to the
    length bound.
    """
    words = sum(len(_EVIDENCE_ALPHABET) ** length for length in range(_EVIDENCE_WORD_LENGTH + 1))
    automata = 0
    runs = 0
    exact = True
    for dfa in enumerate_dfas(_EVIDENCE_STATES, _EVIDENCE_ALPHABET):
        automata += 1
        for word in _words(_EVIDENCE_ALPHABET, _EVIDENCE_WORD_LENGTH):
            _, steps = dfa_run_trace(dfa, word)
            runs += 1
            if steps != len(word):
                exact = False
    return {
        "max_states": _EVIDENCE_STATES,
        "alphabet": list(_EVIDENCE_ALPHABET),
        "max_word_length": _EVIDENCE_WORD_LENGTH,
        "automata": automata,
        "runs": runs,
        "all_terminated": runs == automata * words,
        "steps_equal_word_length": exact,
    }
