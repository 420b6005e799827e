import itertools

import pytest

import vty.automata as automata
from vty.automata import DFA, dfa_run_trace, enumerate_dfas, totality_evidence
from vty.errors import BadSymbolError


def even_as():
    return DFA(
        states=("even", "odd"),
        alphabet=("a",),
        start="even",
        accepting=frozenset({"even"}),
        transitions={("even", "a"): "odd", ("odd", "a"): "even"},
    )


class TestConstruction:
    def test_duplicate_states(self):
        with pytest.raises(ValueError):
            DFA(("s", "s"), ("a",), "s", frozenset(), {("s", "a"): "s"})

    def test_start_must_be_a_state(self):
        with pytest.raises(ValueError):
            DFA(("s",), ("a",), "t", frozenset(), {("s", "a"): "s"})

    def test_accepting_must_be_states(self):
        with pytest.raises(ValueError):
            DFA(("s",), ("a",), "s", frozenset({"t"}), {("s", "a"): "s"})

    def test_totality_is_enforced(self):
        with pytest.raises(ValueError) as err:
            DFA(("s", "t"), ("a",), "s", frozenset(), {("s", "a"): "t"})
        assert "missing transition" in str(err.value)

    def test_transitions_stay_inside_the_state_set(self):
        with pytest.raises(ValueError):
            DFA(("s",), ("a",), "s", frozenset(), {("s", "a"): "zzz"})

    def test_no_stray_transitions(self):
        with pytest.raises(ValueError):
            DFA(
                ("s",), ("a",), "s", frozenset(),
                {("s", "a"): "s", ("s", "b"): "s"},
            )


class TestRuns:
    def test_parity_language(self):
        dfa = even_as()
        assert dfa_run_trace(dfa, "")[0] == "ACCEPT"
        assert dfa_run_trace(dfa, "a")[0] == "REJECT"
        assert dfa_run_trace(dfa, "aa")[0] == "ACCEPT"
        assert dfa_run_trace(dfa, "aaa")[0] == "REJECT"

    def test_steps_equal_word_length(self):
        dfa = even_as()
        for length in range(8):
            _, steps = dfa_run_trace(dfa, "a" * length)
            assert steps == length

    def test_bad_symbol_is_located(self):
        with pytest.raises(BadSymbolError) as err:
            dfa_run_trace(even_as(), "aba")
        assert "b" in str(err.value)
        assert "1" in str(err.value)


class TestEnumeration:
    def test_census_over_one_letter(self):
        found = list(enumerate_dfas(2, ("a",)))
        # 1-state: 1 transition table x 2 accepting masks; 2-state: 4 x 4.
        assert len(found) == 2 + 16
        assert len({
            (d.states, tuple(sorted(d.transitions.items())), tuple(sorted(d.accepting)))
            for d in found
        }) == 18

    def test_census_grows_with_the_alphabet(self):
        found = list(enumerate_dfas(1, ("a", "b")))
        assert len(found) == 2

    def test_every_enumerated_automaton_is_total(self):
        for dfa in enumerate_dfas(2, ("a",)):
            for word in ("", "a", "aaaa"):
                verdict, steps = dfa_run_trace(dfa, word)
                assert verdict in ("ACCEPT", "REJECT")
                assert steps == len(word)


class TestTotalityEvidence:
    def test_exhaustive_summary_is_frozen(self):
        assert totality_evidence() == {
            "max_states": 2,
            "alphabet": ["a"],
            "max_word_length": 4,
            "automata": 18,
            "runs": 90,
            "all_terminated": True,
            "steps_equal_word_length": True,
        }

    def test_word_census_drives_the_run_count(self, monkeypatch):
        monkeypatch.setattr(automata, "_EVIDENCE_STATES", 1)
        monkeypatch.setattr(automata, "_EVIDENCE_ALPHABET", ("a", "b"))
        monkeypatch.setattr(automata, "_EVIDENCE_WORD_LENGTH", 2)
        evidence = totality_evidence()
        # 2 automata x (1 + 2 + 4) words.
        assert evidence["automata"] == 2
        assert evidence["runs"] == 14
        assert evidence["steps_equal_word_length"] is True

    def test_termination_is_measured_from_the_runs(self, monkeypatch):
        # runs that never happen leave the count short of the word census
        words = automata._words
        monkeypatch.setattr(automata, "_words", lambda *args: list(words(*args))[1:])
        evidence = totality_evidence()
        assert evidence["runs"] == 18 * 4
        assert evidence["all_terminated"] is False
        assert evidence["steps_equal_word_length"] is True

    def test_a_wrong_step_count_is_flagged(self, monkeypatch):
        # one run that reports a step more than its word has letters
        run = automata.dfa_run_trace
        monkeypatch.setattr(automata, "dfa_run_trace",
                            lambda dfa, word: (run(dfa, word)[0], len(word) + (word == "aa")))
        evidence = totality_evidence()
        assert evidence["runs"] == 90 and evidence["all_terminated"] is True
        assert evidence["steps_equal_word_length"] is False
