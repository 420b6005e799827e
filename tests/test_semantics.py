import time

import pytest
from hypothesis import given, strategies as st

from vty.errors import CapExceededError
from vty.formulas import Atom, Not, Or, evaluate, parse_formula
from vty.semantics import (
    atom_masks,
    check_consistency,
    collect_atoms,
    entails,
    satisfying_assignment,
)

from oracle_tools import iter_assignments, oracle_satisfying_assignment, truth_table_entails
from test_formulas import formulas


def pf(text):
    return parse_formula(text)


class TestAssignments:
    def test_collect_atoms_is_sorted_and_deduplicated(self):
        out = collect_atoms([pf("(and q p)"), pf("(or p r)")])
        assert out == ("p", "q", "r")

    def test_iter_assignments_covers_the_cube(self):
        rows = list(iter_assignments(("p", "q")))
        assert len(rows) == 4
        assert {tuple(sorted(r.items())) for r in rows} == {
            (("p", False), ("q", False)),
            (("p", False), ("q", True)),
            (("p", True), ("q", False)),
            (("p", True), ("q", True)),
        }

    def test_satisfying_assignment_none_for_contradiction(self):
        assert satisfying_assignment([pf("p"), pf("(not p)")]) is None
        model = satisfying_assignment([pf("(or p q)"), pf("(not p)")])
        assert model is not None and model["q"] is True and model["p"] is False


def _outcome(search, formulas_, cap):
    try:
        return search(formulas_, cap)
    except CapExceededError as exc:
        return ("cap", str(exc), exc.bound, exc.count, exc.cap)


class TestMasks:
    """The mask loop against the per-row loop it replaced."""

    def test_atom_masks_follow_the_row_order(self):
        masks, true = atom_masks(("p", "q"))
        # rows 0..3 are (F,F), (F,T), (T,F), (T,T); bit i is row i
        assert masks == {"p": 0b1100, "q": 0b1010}
        assert true == 0b1111
        assert atom_masks(()) == ({}, 1)

    @given(st.lists(formulas(max_depth=3), max_size=5), st.integers(0, 10))
    def test_first_model_equals_the_oracle(self, formulas_, cap):
        found = _outcome(satisfying_assignment, formulas_, cap)
        expected = _outcome(oracle_satisfying_assignment, formulas_, cap)
        assert found == expected
        if isinstance(found, dict):
            assert list(found) == list(expected)  # keys in sorted atom order
            assert all(type(value) is bool for value in found.values())

    @given(st.lists(formulas(max_depth=3), min_size=1, max_size=4))
    def test_mask_bits_are_row_values(self, formulas_):
        names = collect_atoms(formulas_)
        masks, true = atom_masks(names)
        for formula in formulas_:
            table = evaluate(formula, masks, true=true)
            assert 0 <= table <= true
            for row, assignment in enumerate(iter_assignments(names)):
                assert bool(table >> row & 1) == evaluate(formula, assignment)


def _chain(length):
    """p1, p1 -> p2, ..., and not p<length>: unsatisfiable over `length` atoms."""
    return ([pf("p1")] + [pf(f"(-> p{i} p{i + 1})") for i in range(1, length)]
            + [pf(f"(not p{length})")])


class TestAtomCap:
    def test_unsatisfiable_chain_at_the_cap(self):
        start = time.perf_counter()
        verdict = check_consistency(_chain(20))
        assert time.perf_counter() - start < 1.0
        assert (verdict.verdict, verdict.witness_kind, verdict.atom_count) == (
            "INCONSISTENT", "truth_table", 20)

    def test_one_atom_past_the_cap(self):
        with pytest.raises(CapExceededError) as info:
            check_consistency(_chain(21))
        assert (info.value.bound, info.value.count, info.value.cap) == ("atoms", 21, 20)


class TestEntails:
    def test_modus_ponens_shape(self):
        assert entails([pf("p"), pf("(-> p q)")], pf("q"))

    def test_non_entailment(self):
        assert not entails([pf("(-> p q)")], pf("q"))

    def test_empty_premises_tautology(self):
        assert entails([], pf("(or p (not p))"))
        assert not entails([], pf("p"))

    def test_bottom_entails_everything(self):
        assert entails([pf("bot")], pf("q"))

    @given(st.lists(formulas(max_depth=3), max_size=3), formulas(max_depth=3))
    def test_matches_reference_truth_table(self, premises, conclusion):
        assert entails(premises, conclusion) == truth_table_entails(premises, conclusion)

    def test_atom_cap(self):
        premises = [Atom(f"a{i}") for i in range(6)]
        with pytest.raises(CapExceededError) as info:
            entails(premises, Atom("a0"), 5)
        assert info.value.bound == "atoms"


class TestConsistency:
    def test_classic_three_formula_clash(self):
        # the frozen scenario: p or q, not p, not q has no satisfying row
        verdict = check_consistency([pf("(or p q)"), pf("(not p)"), pf("(not q)")])
        assert not verdict.consistent
        assert verdict.verdict == "INCONSISTENT"
        assert verdict.witness_kind == "truth_table"
        assert verdict.atom_count == 2

    def test_two_of_those_three_are_fine(self):
        verdict = check_consistency([pf("(or p q)"), pf("(not p)")])
        assert verdict.consistent
        assert dict(verdict.model)["q"] is True

    def test_bottom_member_short_circuit(self):
        verdict = check_consistency([pf("bot"), pf("p")])
        assert not verdict.consistent
        assert verdict.witness_kind == "bottom_member"

    def test_complementary_pair_short_circuit(self):
        verdict = check_consistency([pf("(and p q)"), pf("(not (and p q))")])
        assert not verdict.consistent
        assert verdict.witness_kind == "complementary_pair"
        assert verdict.witness is not None

    def test_empty_set_is_consistent(self):
        assert check_consistency([]).consistent

    @given(st.lists(formulas(max_depth=3), max_size=3))
    def test_agreement_with_satisfying_assignment(self, formulas_):
        verdict = check_consistency(formulas_)
        assert verdict.consistent == (satisfying_assignment(formulas_) is not None)

    def test_model_satisfies_everything(self):
        batch = [pf("(or p q)"), pf("(-> p r)"), pf("(not q)")]
        verdict = check_consistency(batch)
        assert verdict.consistent
        env = dict(verdict.model)
        assert all(evaluate(f, env) for f in batch)

    def test_atom_cap_respected(self):
        batch = [Or(Atom(f"x{i}"), Not(Atom(f"x{i}"))) for i in range(4)]
        with pytest.raises(CapExceededError) as info:
            check_consistency(batch, 3)
        assert info.value.bound == "atoms"
