import dataclasses
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import vty.varieties
from vty.calculus import Calculus, base_calculus, with_axioms
from vty.errors import CapExceededError, MapUndefinedError, VtyError
from vty.formulas import parse_formula
from vty.varieties import (
    Component,
    FormulaMap,
    Prevariety,
    StructureReport,
    VarietyWitness,
    assemble_prevariety,
    check_bijective_variety,
    check_prevariety,
    check_variety,
    consistency_report,
)

from oracle_tools import (
    deletion_mutations,
    oracle_consistency_report,
    random_component,
    random_prevariety,
)


def pf(text):
    return parse_formula(text)


def fs(*texts):
    return frozenset(pf(t) for t in texts)


def mp_component(cid, axiom_texts, designated_texts, fmap=None, depth=2):
    calc = dataclasses.replace(
        with_axioms(base_calculus("mp", closure_depth=depth), fs(*axiom_texts)),
        calculus_id=f"calc_{cid}",
    )
    fmap = fmap or FormulaMap.identity()
    return Component(cid, calc, fmap, fmap, fs(*designated_texts))


def codes(report):
    return [d.code for d in report.diagnostics]


def diag(report, code):
    found = [d for d in report.diagnostics if d.code == code]
    assert found, f"no {code} in {codes(report)}"
    return found


class TestFormulaMap:
    def test_exactly_one_kind(self):
        with pytest.raises(ValueError):
            FormulaMap("bad")
        with pytest.raises(ValueError):
            FormulaMap("bad", renaming=(), table=())

    def test_duplicate_table_source_rejected(self):
        with pytest.raises(ValueError, match="map 'dup' lists a source formula twice"):
            FormulaMap.table_map("dup", [(pf("p"), pf("q")), (pf("p"), pf("r"))])

    def test_duplicate_renaming_source_rejected(self):
        with pytest.raises(ValueError, match="map 'dup' lists a source formula twice"):
            FormulaMap("dup", renaming=(("p", "q"), ("p", "r")))

    def test_renaming_is_homomorphic(self):
        ren = FormulaMap("ren", renaming=(("a1", "p"), ("a2", "q")))
        f = pf("(-> a1 (and a2 bot))")
        assert ren.over([f]) == ({f: pf("(-> p (and q bot))")}, ())

    def test_renaming_leaves_unmapped_atoms_fixed(self):
        ren = FormulaMap("ren", renaming=(("a1", "p"),))
        f = pf("(or a1 z)")
        assert ren.over([f]) == ({f: pf("(or p z)")}, ())

    def test_identity(self):
        ident = FormulaMap.identity()
        f = pf("(not (-> p q))")
        assert ident.over([f]) == ({f: f}, ())
        assert ident.defined_on(f)

    def test_table_is_partial(self):
        table = FormulaMap.table_map("t", [(pf("p"), pf("(and q q)"))])
        assert table.over(fs("p", "q")) == ({pf("p"): pf("(and q q)")}, (pf("q"),))
        assert not table.defined_on(pf("q"))

    def test_a_renaming_names_only_atoms(self):
        with pytest.raises(ValueError, match="bad atom name 'bot'"):
            FormulaMap("ren", renaming=(("p", "bot"),))

    def test_domain_restriction_narrows_a_renaming(self):
        ren = FormulaMap("ren", renaming=(("p", "q"),), domain=fs("p"))
        assert ren.over(fs("p", "(not p)")) == ({pf("p"): pf("q")}, (pf("(not p)"),))
        assert not ren.defined_on(pf("(not p)"))

    def test_outside_domain_is_never_silent_identity(self):
        table = FormulaMap.table_map("t", [(pf("p"), pf("p"))])
        assert table.over(fs("r")) == ({}, (pf("r"),))

    def test_over_lists_images_and_misses_in_formula_key_order(self):
        table = FormulaMap.table_map("t", [(pf("p"), pf("q")), (pf("(-> p q)"), pf("q"))])
        images, missed = table.over(fs("r", "p", "(not s)", "(-> p q)", "a"))
        assert list(images) == [pf("(-> p q)"), pf("p")]
        assert missed == (pf("(not s)"), pf("a"), pf("r"))


class TestAssembly:
    def test_assembled_structure_passes(self):
        pv = assemble_prevariety([
            mp_component("C1", ["p", "(-> p q)"], ["p", "q"]),
        ])
        report = check_prevariety(pv)
        assert report.passed
        assert report.kind == "prevariety"
        assert report.equations == (("A", "OK"), ("H", "OK"), ("M", "OK"))
        assert report.depth_bounds == (("C1", 2),)

    def test_assembly_applies_the_maps(self):
        ren = FormulaMap("ren", renaming=(("a1", "p"), ("a2", "q")))
        pv = assemble_prevariety([
            mp_component("C2", ["a1", "(-> a1 a2)"], ["a2"], fmap=ren),
        ])
        assert pv.axioms == fs("p", "(-> p q)")
        assert pv.theorems == fs("q")

    def test_assembly_reports_the_missing_input(self):
        table = FormulaMap.table_map("t", [(pf("p"), pf("p"))])
        comp = mp_component("C1", ["p", "(-> p q)"], [], fmap=table)
        with pytest.raises(MapUndefinedError) as err:
            assemble_prevariety([comp])
        assert "C1" in str(err.value)

    def test_randomized_assemblies_pass_and_deletions_are_caught(self):
        rng = random.Random(20260817)
        for _ in range(25):
            pv = random_prevariety(rng)
            assert check_prevariety(pv).passed
            for code, subject, mutated in deletion_mutations(pv):
                report = check_prevariety(mutated)
                assert not report.passed
                assert any(
                    d.code == code and d.subject == subject
                    for d in report.diagnostics
                ), f"{code} on {subject!r} not reported"

    def test_foreign_axiom_in_union_is_caught(self):
        pv = assemble_prevariety([mp_component("C1", ["p"], [])])
        bloated = Prevariety(
            pv.axioms | fs("(not q)"), pv.rules, pv.theorems, pv.components
        )
        report = check_prevariety(bloated)
        d = diag(report, "AXIOM_UNION_MISMATCH")[0]
        assert d.subject == "(not q)"
        assert d.message == "claimed in the union but contributed by no component"
        assert dict(report.equations)["A"] == "MISMATCH"

    def test_deleted_theorem_message_direction(self):
        pv = assemble_prevariety([mp_component("C1", ["p", "(-> p q)"], ["q"])])
        mutated = Prevariety(pv.axioms, pv.rules, frozenset(), pv.components)
        d = diag(check_prevariety(mutated), "THEOREM_UNION_MISMATCH")[0]
        assert d.subject == "q"
        assert d.message == "contributed by a component but missing from the union"

    def test_rule_content_difference_is_its_own_message(self):
        pv = assemble_prevariety([mp_component("C1", ["p"], [])])
        twisted = base_calculus("mp").rules[0]
        renamed = type(twisted)(twisted.name, twisted.premises[::-1], twisted.conclusion)
        mutated = Prevariety(pv.axioms, frozenset({renamed}), pv.theorems, pv.components)
        d = diag(check_prevariety(mutated), "RULE_UNION_MISMATCH")[0]
        assert d.subject == renamed.name
        assert d.message == "rule content differs between the union and the components"

    def test_two_rules_under_one_name_are_a_mismatch(self):
        pv = assemble_prevariety([mp_component("C1", ["p"], [])])
        mp = base_calculus("mp").rules[0]
        other = type(mp)(mp.name, mp.premises[::-1], mp.conclusion)
        calc = Calculus("flipped", axioms=fs("p"), rules=(other,))
        comp = Component("C2", calc, FormulaMap.identity(), FormulaMap.identity(), frozenset())
        mutated = Prevariety(pv.axioms, pv.rules, pv.theorems, pv.components + (comp,))
        report = check_prevariety(mutated)
        assert dict(report.equations)["H"] == "MISMATCH"
        [d] = diag(report, "RULE_UNION_MISMATCH")
        assert (d.subject, d.message) == (
            "mp", "rule content differs between the union and the components"
        )


class TestComponentInvariants:
    def test_undesignated_unprovable_theorem(self):
        comp = mp_component("C1", ["p"], ["q"])
        pv = Prevariety(fs("p"), frozenset(comp.calculus.rules), fs("q"), (comp,))
        report = check_prevariety(pv)
        assert not report.passed
        d = diag(report, "NOT_A_THEOREM")[0]
        assert d.component_id == "C1"
        assert d.equation == "M"
        assert d.subject == "q"
        assert d.message == "not provable within depth 2"

    def test_quasi_mode_skips_provability(self):
        comp = mp_component("C1", ["p"], ["q"])
        pv = Prevariety(
            fs("p"), frozenset(comp.calculus.rules), fs("q"), (comp,), quasi=True
        )
        report = check_prevariety(pv)
        assert report.passed
        assert "quasi mode: designated theorems are not required to be provable" in report.notes

    def test_axiom_map_hole(self):
        table = FormulaMap.table_map("t", [(pf("p"), pf("p"))])
        comp = mp_component("C1", ["p", "(-> p q)"], [], fmap=table)
        pv = Prevariety(fs("p"), frozenset(comp.calculus.rules), frozenset(), (comp,))
        report = check_prevariety(pv)
        d = diag(report, "MAP_UNDEFINED")[0]
        assert (d.component_id, d.equation, d.subject) == ("C1", "A", "(-> p q)")
        assert d.message == "axiom map 't' misses an axiom"

    def test_theorem_map_hole(self):
        table = FormulaMap.table_map("t", [(pf("p"), pf("p")), (pf("(-> p q)"), pf("(-> p q)"))])
        comp = mp_component("C1", ["p", "(-> p q)"], ["q"], fmap=table)
        pv = Prevariety(fs("p", "(-> p q)"), frozenset(comp.calculus.rules), frozenset(), (comp,))
        report = check_prevariety(pv)
        holes = diag(report, "MAP_UNDEFINED")
        assert [(d.equation, d.subject) for d in holes] == [("M", "q")]
        assert holes[0].message == "theorem map 't' misses a designated theorem"


def shared_core_components():
    c1 = mp_component("C1", ["p", "(-> p q)"], ["p", "q", "(-> p q)"])
    ren = FormulaMap("ren", renaming=(("a1", "p"), ("a2", "q")))
    c2 = mp_component("C2", ["a1", "(-> a1 a2)"], ["a1", "a2", "(-> a1 a2)"], fmap=ren)
    return [c1, c2]


def core_witness(witness_id="W12", **overrides):
    """Tuple (1, 2) covered by a component on the shared core."""
    calc = dataclasses.replace(
        with_axioms(base_calculus("mp", closure_depth=2), fs("p", "(-> p q)")),
        calculus_id="core",
    )
    fields = {
        "calculus": calc,
        "axiom_map": FormulaMap.identity(),
        "theorem_map": FormulaMap.identity(),
        "designated_theorems": fs("p", "q", "(-> p q)"),
    }
    fields.update(overrides)
    return VarietyWitness((1, 2), Component(witness_id, **fields))


class TestVarietyWitnesses:
    @pytest.mark.parametrize("indices, message", [
        ((), "a witness covers at least one component index"),
        ((2, 1), "witness indices must be strictly increasing"),
        ((1, 1), "witness indices must be strictly increasing"),
    ])
    def test_indices_must_be_nonempty_and_increasing(self, indices, message):
        covering = core_witness().covering
        with pytest.raises(ValueError, match=f"^{message}$"):
            VarietyWitness(indices, covering)

    def test_width_must_be_positive(self):
        pv = assemble_prevariety([mp_component("C1", ["p"], [])])
        with pytest.raises(ValueError):
            check_variety(pv, 0)

    @pytest.mark.parametrize("k, tuples", [(1, 4), (2, 10), (3, 14), (9, 15)])
    def test_tuple_cap_counts_the_tuples_before_the_first(self, monkeypatch, k, tuples):
        pv = assemble_prevariety([mp_component(f"C{i}", [f"a{i}"], []) for i in range(4)])
        monkeypatch.setattr(vty.varieties, "DEFAULT_TUPLE_CAP", tuples)
        assert len(check_variety(pv, k).tuples) == tuples
        monkeypatch.setattr(vty.varieties, "DEFAULT_TUPLE_CAP", tuples - 1)
        with pytest.raises(CapExceededError, match=(
                f"^variety check needs {tuples} index tuples, above the cap of {tuples - 1}$")):
            check_variety(pv, k)

    def test_a_failed_prevariety_is_reported_under_any_tuple_cap(self, monkeypatch):
        monkeypatch.setattr(vty.varieties, "DEFAULT_TUPLE_CAP", 0)
        pv = assemble_prevariety([mp_component("C1", ["p"], []), mp_component("C2", ["q"], [])])
        report = check_variety(dataclasses.replace(pv, axioms=frozenset()), 2)
        assert "PREVARIETY_FAILED" in codes(report)

    def test_disjoint_alphabets_pass_vacuously(self):
        pv = assemble_prevariety([
            mp_component("C1", ["p"], ["p"]),
            mp_component("C2", ["q"], ["q"]),
        ])
        report = check_variety(pv, 2)
        assert report.passed
        assert [(r.indices, r.status) for r in report.tuples] == [
            ((1,), "self-witnessed"),
            ((2,), "self-witnessed"),
            ((1, 2), "vacuous"),
        ]
        vacuous = report.tuples[2]
        assert vacuous.axiom_intersection == ()
        assert vacuous.witness_id is None

    def test_singletons_fall_back_to_self_witnesses(self):
        pv = assemble_prevariety([mp_component("C1", ["p", "(-> p q)"], ["q"])])
        report = check_variety(pv, 1)
        assert report.passed
        record = report.tuples[0]
        assert record.status == "self-witnessed"
        assert record.witness_id == "self:C1"
        assert record.axiom_projection_surjective is True

    def test_quasi_self_witness_reports_the_unproved_theorem(self):
        # quasi mode lets the prevariety pass with r unprovable, but the
        # implicit self witness still needs its theorem subset proved
        pv = assemble_prevariety([mp_component("C1", ["p"], ["p", "r"])], quasi=True)
        assert check_prevariety(pv).passed
        report = check_variety(pv, 1)
        assert report.verdict == "FAIL"
        [d] = report.diagnostics
        assert (d.code, d.component_id, d.subject, d.message) == (
            "WITNESS_THEOREM_UNPROVED", "self:C1", "r",
            "not provable in the covering calculus within depth 2",
        )
        [record] = report.tuples
        assert (record.status, record.witness_id) == ("invalid", "self:C1")
        assert record.axiom_projection_surjective is True
        assert record.theorem_projection_surjective is True

    def test_shared_core_needs_a_witness(self):
        pv = assemble_prevariety(shared_core_components())
        report = check_variety(pv, 2)
        assert not report.passed
        d = diag(report, "MISSING_WITNESS")[0]
        assert d.subject == "(1, 2)"
        assert d.message == "nonempty intersections but no witness supplied for this tuple"
        record = report.tuples[2]
        assert record.status == "missing"
        assert record.axiom_intersection == ("(-> p q)", "p")

    def test_shared_core_with_witness_passes(self):
        pv = assemble_prevariety(shared_core_components())
        report = check_variety(pv, 2, [core_witness()])
        assert report.passed
        record = report.tuples[2]
        assert record.status == "witnessed"
        assert record.witness_id == "W12"
        assert record.axiom_projection_surjective is True
        assert record.theorem_projection_surjective is True
        assert "checked index tuples of width 1..2" in report.notes

    def test_quasi_notes_end_with_the_prevariety_note(self):
        pv = assemble_prevariety(shared_core_components(), quasi=True)
        assert check_variety(pv, 2, [core_witness()]).notes == (
            "checked index tuples of width 1..2",
            "theorem intersections computed on bounded closures at each component's depth",
            "quasi mode: designated theorems are not required to be provable",
        )

    def test_witness_axiom_projection_hole(self):
        pv = assemble_prevariety(shared_core_components())
        for projection, message in (
            ("axiom_map", "axiom projection misses a covering axiom for tuple (1, 2)"),
            ("theorem_map", "theorem projection misses a subset member for tuple (1, 2)"),
        ):
            witness = core_witness(**{
                projection: FormulaMap.table_map("t", [(pf("p"), pf("p"))]),
            })
            report = check_variety(pv, 2, [witness])
            d = diag(report, "WITNESS_MAP_UNDEFINED")[0]
            assert d.component_id == "W12"
            assert d.subject == "(-> p q)"
            assert d.message == message
            assert report.tuples[2].status == "invalid"

    def test_witness_axiom_lands_outside_intersection(self):
        witness = core_witness(
            axiom_map=FormulaMap("shift", renaming=(("p", "r"),)),
        )
        pv = assemble_prevariety(shared_core_components())
        report = check_variety(pv, 2, [witness])
        found = diag(report, "WITNESS_AXIOM_OUTSIDE_INTERSECTION")
        assert {d.subject for d in found} == {"p", "(-> p q)"}
        assert "outside the axiom intersection of (1, 2)" in found[0].message

    def test_witness_designated_theorems_must_be_provable(self):
        witness = core_witness(designated_theorems=fs("p", "r"))
        pv = assemble_prevariety(shared_core_components())
        report = check_variety(pv, 2, [witness])
        d = diag(report, "WITNESS_THEOREM_UNPROVED")[0]
        assert d.subject == "r"
        assert d.message == "not provable in the covering calculus within depth 2"

    def test_witness_theorem_lands_outside_intersection(self):
        witness = core_witness(
            designated_theorems=fs("q"),
            theorem_map=FormulaMap("shift", renaming=(("q", "s"),)),
        )
        pv = assemble_prevariety(shared_core_components())
        report = check_variety(pv, 2, [witness])
        d = diag(report, "WITNESS_THEOREM_OUTSIDE_INTERSECTION")[0]
        assert d.subject == "q"
        assert "projects to s outside the theorem intersection of (1, 2)" in d.message
        record = report.tuples[2]
        assert record.status == "invalid"
        assert record.theorem_projection_surjective is False

    def test_duplicate_witness_for_a_tuple(self):
        pv = assemble_prevariety(shared_core_components())
        report = check_variety(pv, 2, [core_witness("W12"), core_witness("W12b")])
        d = diag(report, "DUPLICATE_WITNESS")[0]
        assert d.component_id == "W12b"
        assert d.subject == "(1, 2)"

    def test_broken_prevariety_stops_witness_checks(self):
        pv = assemble_prevariety(shared_core_components())
        mutated = Prevariety(frozenset(), pv.rules, pv.theorems, pv.components)
        report = check_variety(mutated, 2, [core_witness()])
        assert not report.passed
        assert report.tuples == ()
        d = diag(report, "PREVARIETY_FAILED")[0]
        assert d.message == "the union equations must pass before witness checks run"


class TestBijectiveModes:
    def proper_subset_world(self):
        return assemble_prevariety([
            mp_component("B1", ["p", "(-> p q)"], ["p"]),
        ])

    def test_mode_is_validated(self):
        with pytest.raises(ValueError):
            check_bijective_variety(self.proper_subset_world(), "strict")

    def test_prevariety_mode_allows_proper_designated_subsets(self):
        report = check_bijective_variety(self.proper_subset_world(), "prevariety")
        assert report.passed
        assert report.kind == "bijective-prevariety"
        assert any("injectivity" in note for note in report.notes)

    def test_variety_mode_requires_closure_equality(self):
        report = check_bijective_variety(self.proper_subset_world(), "variety", 1)
        assert not report.passed
        assert report.kind == "bijective-variety"
        found = diag(report, "THEOREMS_NOT_CLOSED")
        assert {d.subject for d in found} == {"q", "(-> p q)"}
        assert found[0].message == "provable at depth 2 but not designated"
        assert all(d.equation == "M" for d in found)

    def test_variety_mode_passes_on_full_closure(self):
        pv = assemble_prevariety([
            mp_component("B1", ["p", "(-> p q)"], ["p", "q", "(-> p q)"]),
        ])
        report = check_bijective_variety(pv, "variety", 1)
        assert report.passed
        assert report.tuples[0].status == "self-witnessed"

    def test_extra_designated_formula_is_flagged_both_ways(self):
        comp = mp_component("B1", ["p"], ["p", "r"])
        pv = Prevariety(
            fs("p"), frozenset(comp.calculus.rules), fs("p", "r"), (comp,), quasi=True
        )
        report = check_bijective_variety(pv, "variety", 1)
        assert not report.passed
        messages = {d.subject: d.message for d in diag(report, "THEOREMS_NOT_CLOSED")}
        assert messages["r"] == "designated but outside the bounded closure"

    def test_non_injective_map_is_rejected(self):
        table = FormulaMap.table_map("merge", [(pf("p"), pf("r")), (pf("q"), pf("r"))])
        calc = dataclasses.replace(
            with_axioms(base_calculus("empty"), fs("p", "q")), calculus_id="flat")
        ident = FormulaMap.identity()
        for label, comp in (
            ("axiom map", Component("B2", calc, table, ident, frozenset())),
            ("theorem map", Component("B2", calc, ident, table, fs("p", "q"))),
        ):
            report = check_bijective_variety(assemble_prevariety([comp]), "prevariety")
            assert not report.passed
            [d] = diag(report, "NOT_BIJECTIVE")
            assert d.component_id == "B2"
            assert d.subject == "p, q"
            assert d.message == f"{label} 'merge' sends both to r"

    def test_injectivity_is_per_component(self):
        shared_target = FormulaMap("collapse", renaming=(("q", "p"),))
        calc = dataclasses.replace(
            with_axioms(base_calculus("empty"), fs("q")), calculus_id="one")
        comp = Component("B3", calc, shared_target, shared_target, frozenset())
        pv = assemble_prevariety([comp, mp_component("B4", ["p"], [])])
        report = check_bijective_variety(pv, "prevariety")
        assert report.passed


class TestDerivedReports:
    # a variety or bijective report sets the fields named here and keeps
    # every other field of its base report; quasi mode gives each base a note
    @pytest.mark.parametrize("broken, derive, base, sets", [
        (True, lambda pv: check_variety(pv, 2, [core_witness()]), check_prevariety,
         {"kind", "diagnostics"}),
        (False, lambda pv: check_variety(pv, 2, [core_witness()]), check_prevariety,
         {"kind", "diagnostics", "tuples", "notes"}),
        (False, lambda pv: check_bijective_variety(pv, "prevariety"), check_prevariety,
         {"kind", "diagnostics", "notes"}),
        (False, lambda pv: check_bijective_variety(pv, "variety", 2, [core_witness()]),
         lambda pv: check_variety(pv, 2, [core_witness()]), {"kind", "diagnostics", "notes"}),
    ], ids=["variety-on-a-failed-prevariety", "variety", "bijective-prevariety",
            "bijective-variety"])
    def test_keeps_every_field_it_does_not_set(self, broken, derive, base, sets):
        pv = assemble_prevariety(shared_core_components(), quasi=True)
        if broken:
            pv = dataclasses.replace(pv, axioms=frozenset())
        derived, parent = derive(pv), base(pv)
        assert derived.kind != parent.kind
        kept = [field.name for field in dataclasses.fields(StructureReport)
                if field.name not in sets]
        assert parent.notes and parent.equations and parent.depth_bounds
        assert [getattr(derived, name) for name in kept] == [getattr(parent, name) for name in kept]


def kb(cid, *axiom_texts):
    calc = dataclasses.replace(
        with_axioms(base_calculus("empty", closure_depth=1), fs(*axiom_texts)),
        calculus_id=f"kb_{cid}",
    )
    return Component(cid, calc, FormulaMap.identity(), FormulaMap.identity(), frozenset())


class TestKnowledgeConsistency:
    def test_locally_fine_globally_broken_pair(self):
        pv = assemble_prevariety([kb("K1", "p"), kb("K2", "(not p)")])
        report = consistency_report(pv)
        assert [c.verdict for c in report.components] == ["CONSISTENT", "CONSISTENT"]
        assert report.global_verdict == "INCONSISTENT"
        assert report.global_witness_kind == "complementary_pair"
        assert report.locally_consistent_globally_inconsistent is True
        assert report.minimal_inconsistent_sets == (("K1", "K2"),)
        assert report.pairs == (("K1", "K2"),)

    def test_three_way_conflict_with_consistent_pairs(self):
        pv = assemble_prevariety([
            kb("K1", "p"), kb("K2", "q"), kb("K3", "(or (not p) (not q))"),
        ])
        report = consistency_report(pv)
        assert all(c.verdict == "CONSISTENT" for c in report.components)
        assert report.global_verdict == "INCONSISTENT"
        assert report.global_witness_kind == "truth_table"
        assert report.locally_consistent_globally_inconsistent is True
        assert report.minimal_inconsistent_sets == (("K1", "K2", "K3"),)
        assert report.pairs == ()

    def test_a_component_at_the_atom_cap_gets_its_row(self):
        pv = assemble_prevariety([kb("K1", "p", "(-> p q)")])
        [row] = consistency_report(pv, atom_cap=2).components
        assert (row.verdict, row.atom_count) == ("CONSISTENT", 2)
        with pytest.raises(CapExceededError, match=(
                "^truth table over 2 atoms exceeds the cap of 1$")):
            consistency_report(pv, atom_cap=1)

    def test_locally_broken_component_is_a_singleton_set(self):
        pv = assemble_prevariety([kb("K0", "p", "(not p)"), kb("K1", "q")])
        report = consistency_report(pv)
        assert report.components[0].verdict == "INCONSISTENT"
        assert report.locally_consistent_globally_inconsistent is False
        assert ("K0",) in report.minimal_inconsistent_sets

    def test_supersets_of_a_bad_set_are_not_reported(self):
        pv = assemble_prevariety([kb("K1", "p"), kb("K2", "(not p)"), kb("K3", "q")])
        report = consistency_report(pv)
        assert report.minimal_inconsistent_sets == (("K1", "K2"),)

    def test_subset_search_cap_is_reported(self, monkeypatch):
        monkeypatch.setattr(vty.varieties, "DEFAULT_COMPONENT_SUBSET_CAP", 2)
        pv = assemble_prevariety([kb(f"K{i}", f"a{i}") for i in range(1, 5)])
        report = consistency_report(pv)
        assert any(note == "subset search truncated after 2 candidates" for note in report.notes)

    def test_component_rows_count_pooled_formulas(self):
        pv = assemble_prevariety([
            mp_component("C1", ["p", "(-> p q)"], ["q"]),
        ])
        report = consistency_report(pv)
        row = report.components[0]
        assert row.formula_count == 3
        assert row.atom_count == 2
        assert report.global_verdict == "CONSISTENT"
        assert report.global_witness_kind is None

    def test_serialization_shape(self):
        pv = assemble_prevariety([kb("K1", "p"), kb("K2", "(not p)")])
        payload = consistency_report(pv).to_dict()
        assert payload["pairs"] == [["K1", "K2"]]
        assert payload["global"] == "INCONSISTENT"
        assert payload["locally_consistent_globally_inconsistent"] is True


def report_or_error(build):
    try:
        return "report", build().to_dict()
    except VtyError as exc:
        return type(exc).__name__, str(exc)


class TestConsistencyReportMatchesOracle:
    """The report, or the error, of the per-subset search, one prevariety at a time."""

    @given(seed=st.integers(0, 2 ** 30), count=st.integers(1, 5),
           union=st.sampled_from(("assembled", "one deleted", "empty")),
           atom_cap=st.sampled_from((1, 2, 3, 4, 20)), subset_cap=st.sampled_from((2, 4096)))
    @settings(max_examples=200, deadline=None)
    def test_same_report(self, seed, count, union, atom_cap, subset_cap):
        rng = random.Random(seed)
        pv = random_prevariety(rng, count)
        # a claimed union with fewer atoms than the components pass the
        # global check and reach the subset search past the atom cap
        if union == "one deleted" and (mutations := deletion_mutations(pv)):
            pv = rng.choice(mutations)[2]
        elif union == "empty":
            pv = dataclasses.replace(pv, axioms=frozenset(), theorems=frozenset())
        with mock.patch.object(vty.varieties, "DEFAULT_COMPONENT_SUBSET_CAP", subset_cap):
            report = report_or_error(lambda: consistency_report(pv, atom_cap=atom_cap))
        assert report == report_or_error(lambda: oracle_consistency_report(
            pv, atom_cap=atom_cap, subset_cap=subset_cap))

    @given(seed=st.integers(0, 2 ** 30), atom_cap=st.sampled_from((1, 2, 3, 20)))
    @settings(max_examples=100, deadline=None)
    def test_repeated_component_id_keeps_a_row_per_component(self, seed, atom_cap):
        # a prevariety built in Python may repeat an id; each component keeps
        # its own row and takes part in the subset search under that id
        rng = random.Random(seed)
        pv = assemble_prevariety([random_component(rng, cid) for cid in ("C1", "C2", "C1")])
        report = report_or_error(lambda: consistency_report(pv, atom_cap=atom_cap))
        assert report == report_or_error(lambda: oracle_consistency_report(pv, atom_cap=atom_cap))
        if report[0] == "report":
            assert [row["component"] for row in report[1]["components"]] == ["C1", "C2", "C1"]

    def test_repeated_component_id_is_searched_by_position(self):
        # every row is consistent and the first C1 clashes with C2, while the
        # second C1 does not; a search by id would read only the second
        rng = random.Random(87)
        pv = assemble_prevariety([random_component(rng, cid) for cid in ("C1", "C2", "C1")])
        report = consistency_report(pv)
        assert [row.verdict for row in report.components] == ["CONSISTENT"] * 3
        assert report.minimal_inconsistent_sets == (("C1", "C2"),)
