import dataclasses
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import vty.projection
from vty.calculus import (
    Calculus,
    SchemaRule,
    SubstitutionRule,
    base_calculus,
    closure,
    labelled_closure,
    modus_ponens,
    with_axioms,
)
from vty.errors import CapExceededError, DepthExplosionError, UndeclaredAxiomError, VtyError
from vty.formulas import Atom, Implies, Not, evaluate, formula_key, parse_formula
from vty.projection import (
    CITATION,
    EXEC_EXHAUSTIVE,
    EXEC_POSITIVE,
    SATISFIED,
    UNKNOWN,
    VIOLATED,
    AxiomDeclaration,
    AxiomStatus,
    ClassProfile,
    Evidence,
    TheoremRecord,
    classify_relation,
    minimal_axiom_subsets,
    project,
    registry_report,
)

import oracle_tools
from oracle_tools import iter_assignments, oracle_partition


def pf(text):
    return parse_formula(text)


AXIOM_IDS = ("AX1", "AX2", "AX3")
DECLS = {a: AxiomDeclaration(a, f"statement of {a}") for a in AXIOM_IDS}


def status(value):
    if value == UNKNOWN:
        return AxiomStatus(UNKNOWN)
    return AxiomStatus(value, Evidence(CITATION, citation="test fixture"))


def profile(class_id, **statuses):
    return ClassProfile(
        class_id, class_id.title(),
        {a: status(s) for a, s in statuses.items()},
    )


def theorem(deps, theorem_id="t", unconditional=False):
    return TheoremRecord(
        theorem_id, f"{theorem_id} holds", frozenset(deps),
        "test fixture", unconditional,
    )


def random_registry(rng, class_count):
    return oracle_tools.random_profiles(rng, AXIOM_IDS, class_count)


class TestRecordValidation:
    def test_theorem_needs_dependencies_or_flag(self):
        with pytest.raises(ValueError):
            TheoremRecord("t", "s", frozenset(), "src")
        assert theorem((), unconditional=True).unconditional

    def test_evidence_kinds_carry_their_own_fields(self):
        with pytest.raises(ValueError):
            Evidence(CITATION)
        with pytest.raises(ValueError):
            Evidence(EXEC_POSITIVE, citation="nope")
        with pytest.raises(ValueError):
            Evidence(EXEC_POSITIVE, witness_id="w")
        with pytest.raises(ValueError):
            Evidence(EXEC_EXHAUSTIVE, witness_id="w")
        with pytest.raises(ValueError):
            Evidence("GUESS", citation="x")
        assert Evidence(CITATION, citation="a book").citation == "a book"
        assert Evidence(EXEC_POSITIVE, witness_id="w", suite_size=3).suite_size == 3
        assert Evidence(EXEC_EXHAUSTIVE, witness_id="w", domain="tiny").domain == "tiny"

    def test_resolved_status_needs_evidence(self):
        with pytest.raises(ValueError):
            AxiomStatus(SATISFIED)
        with pytest.raises(ValueError):
            AxiomStatus(VIOLATED)
        with pytest.raises(ValueError):
            AxiomStatus(UNKNOWN, Evidence(CITATION, citation="x"))
        with pytest.raises(ValueError):
            AxiomStatus("MAYBE")

    def test_profile_equality_ignores_mapping_type(self):
        a = profile("c", AX1=SATISFIED)
        b = ClassProfile("c", "C", dict(a.statuses))
        assert a == b


class TestProjection:
    def test_three_way_partition(self):
        profiles = [
            profile("all_sat", AX1=SATISFIED, AX2=SATISFIED),
            profile("one_violated", AX1=SATISFIED, AX2=VIOLATED),
            profile("one_open", AX1=SATISFIED, AX2=UNKNOWN),
            profile("silent", AX1=SATISFIED),
        ]
        report = project(theorem({"AX1", "AX2"}), profiles, DECLS)
        assert [e.class_id for e in report.corollaries] == ["all_sat"]
        assert [e.class_id for e in report.not_applicable] == ["one_violated"]
        assert [e.class_id for e in report.unknown] == ["one_open", "silent"]

    def test_detail_strings(self):
        profiles = [
            profile("w", AX1=SATISFIED, AX2=SATISFIED),
            profile("x", AX1=VIOLATED, AX2=VIOLATED),
            profile("y", AX1=UNKNOWN),
        ]
        report = project(theorem({"AX1", "AX2"}, "thm"), profiles, DECLS)
        assert report.corollaries[0].detail == "for W: thm holds"
        assert report.not_applicable[0].detail == "violates AX1, AX2"
        assert report.unknown[0].detail == "unresolved AX1, AX2"

    def test_violated_outranks_unknown(self):
        profiles = [profile("m", AX1=VIOLATED, AX2=UNKNOWN)]
        report = project(theorem({"AX1", "AX2"}), profiles, DECLS)
        assert [e.class_id for e in report.not_applicable] == ["m"]
        assert report.not_applicable[0].detail == "violates AX1"

    def test_unconditional_theorem_covers_everything(self):
        profiles = [profile("a", AX1=VIOLATED), profile("b")]
        report = project(theorem((), unconditional=True), profiles, DECLS)
        assert [e.class_id for e in report.corollaries] == ["a", "b"]
        assert report.not_applicable == ()

    def test_unconditional_theorem_ignores_a_violated_dependency(self):
        profiles = [profile("a", AX1=VIOLATED), profile("b", AX1=UNKNOWN), profile("c")]
        report = project(theorem({"AX1"}, unconditional=True), profiles, DECLS)
        assert [e.class_id for e in report.corollaries] == ["a", "b", "c"]
        assert report.corollaries[0].detail == "for A: t holds"
        assert report.not_applicable == report.unknown == ()

    def test_unknown_dependency_id_is_rejected(self):
        with pytest.raises(UndeclaredAxiomError):
            project(theorem({"AX1", "NOPE"}), [profile("a")], DECLS)

    def test_report_serialization(self):
        report = project(theorem({"AX1"}), [profile("a", AX1=SATISFIED)], DECLS)
        payload = report.to_dict()
        assert payload["theorem"] == "t"
        assert payload["corollaries"][0] == {
            "class": "a", "name": "A", "detail": "for A: t holds",
        }
        assert payload["not_applicable"] == []
        assert payload["unknown"] == []

    def test_registry_order_is_preserved(self):
        rng = random.Random(7)
        profiles = random_registry(rng, 12)
        report = project(theorem({"AX1", "AX2", "AX3"}), profiles, DECLS)
        ids = [p.class_id for p in profiles]
        for part in (report.corollaries, report.not_applicable, report.unknown):
            positions = [ids.index(e.class_id) for e in part]
            assert positions == sorted(positions)

    def test_partition_matches_direct_table_scan(self):
        rng = random.Random(20260817)
        for _ in range(200):
            profiles = random_registry(rng, rng.randint(0, 8))
            deps = rng.sample(AXIOM_IDS, rng.randint(1, 3))
            record = theorem(deps)
            expected = oracle_partition(record, profiles)
            report = project(record, profiles, DECLS)
            assert [e.class_id for e in report.corollaries] == expected["corollaries"]
            assert [e.class_id for e in report.not_applicable] == expected["not_applicable"]
            assert [e.class_id for e in report.unknown] == expected["unknown"]

    @given(st.integers(0, 2 ** 30))
    @settings(max_examples=60, deadline=None)
    def test_resolving_an_open_axiom_never_shrinks_corollaries(self, seed):
        rng = random.Random(seed)
        profiles = random_registry(rng, rng.randint(1, 6))
        record = theorem(rng.sample(AXIOM_IDS, rng.randint(1, 3)))
        before = {e.class_id for e in project(record, profiles, DECLS).corollaries}

        upgraded = []
        for p in profiles:
            statuses = dict(p.statuses)
            for axiom_id in AXIOM_IDS:
                current = statuses.get(axiom_id)
                if current is None or current.status == UNKNOWN:
                    statuses[axiom_id] = status(SATISFIED)
            upgraded.append(ClassProfile(p.class_id, p.display_name, statuses))
        after = {e.class_id for e in project(record, upgraded, DECLS).corollaries}
        assert before <= after

    @given(st.integers(0, 2 ** 30))
    @settings(max_examples=60, deadline=None)
    def test_adding_a_dependency_never_grows_corollaries(self, seed):
        rng = random.Random(seed)
        profiles = random_registry(rng, rng.randint(1, 6))
        deps = rng.sample(AXIOM_IDS, rng.randint(1, 2))
        extra = rng.choice([a for a in AXIOM_IDS if a not in deps])
        small = {e.class_id for e in project(theorem(deps), profiles, DECLS).corollaries}
        grown = theorem([*deps, extra])
        large = {e.class_id for e in project(grown, profiles, DECLS).corollaries}
        assert large <= small


class TestRelationClassifier:
    def test_modus_ponens_axioms_are_irreducible(self):
        report = classify_relation([pf("p"), pf("(-> p q)")], pf("q"))
        assert report.consistent_with == "YES"
        assert report.sufficient == "YES"
        assert report.irreducible == "YES"
        assert report.reducible_to is None
        assert report.semantically_entailed is True

    def test_redundant_axiom_set_reduces(self):
        report = classify_relation([pf("p"), pf("q"), pf("(-> p q)")], pf("q"))
        assert report.sufficient == "YES"
        assert report.irreducible == "NO"
        assert report.reducible_to == ("q",)

    def test_unprovable_goal_stays_unknown(self):
        for depth in (1, 3, 5):
            report = classify_relation([pf("(-> p q)")], pf("q"), depth=depth)
            assert report.consistent_with == "YES"
            assert report.sufficient == "UNKNOWN"
            assert report.irreducible == "UNKNOWN"
            assert report.semantically_entailed is False

    def test_unknown_unentailed_report_carries_the_reason(self):
        report = classify_relation([pf("(-> p q)")], pf("q"))
        payload = report.to_dict()
        assert payload["sufficient"] == "UNKNOWN"
        assert payload["note"] == "the truth table already rules out entailment"

    def test_inconsistent_axioms_still_classify(self):
        report = classify_relation([pf("p"), pf("(not p)")], pf("p"))
        assert report.consistent_with == "NO"
        assert report.sufficient == "YES"

    def test_sufficient_proof_revalidates(self):
        axioms = [pf("p"), pf("(-> p q)")]
        report = classify_relation(axioms, pf("q"))
        assert report.proof is not None
        calc = with_axioms(base_calculus("hilbert"), axioms)
        assert oracle_tools.printed_proof_check(calc, report.proof).valid

    def test_subset_cap_guards_the_search(self):
        axioms = [pf(f"a{i}") for i in range(13)]
        assert classify_relation(axioms[:12], pf("a1"), base="mp").sufficient == "YES"
        assert minimal_axiom_subsets(axioms[:12], pf("a1"), base="mp") == (
            frozenset({pf("a1")}),)
        for search in (classify_relation, minimal_axiom_subsets):
            with pytest.raises(CapExceededError) as capped:
                search(axioms, pf("a1"), base="mp")
            assert capped.value.bound == "subsets"

    @given(st.integers(0, 2 ** 30))
    @settings(max_examples=25, deadline=None)
    def test_sufficiency_implies_semantic_entailment_of_instances(self, seed):
        rng = random.Random(seed)
        pool = [pf("p"), pf("q"), pf("(-> p q)"), pf("(-> q r)"), pf("(and p q)")]
        axioms = rng.sample(pool, rng.randint(1, 4))
        goal = rng.choice(pool)
        report = classify_relation(axioms, goal, depth=2)
        if report.sufficient != "YES":
            return
        assert report.irreducible in ("YES", "NO")
        names = sorted({n for f in [*axioms, goal] for n in _atom_names(f)})
        for assignment in iter_assignments(names):
            if all(evaluate(a, assignment) for a in axioms):
                assert evaluate(goal, assignment)


def _atom_names(formula):
    from vty.formulas import atoms
    return atoms(formula)


# One axiom with 15 subformulas: its closure over the hilbert schemas passes
# a size cap of 1000 in instantiation candidates alone.
CAP_EDGE_AXIOM = "(-> (-> (-> a b) (-> c d)) (-> (-> e f) (-> g h)))"


class TestMinimalSubsets:
    def test_redundant_set_has_two_minimal_subsets(self):
        found = minimal_axiom_subsets([pf("p"), pf("q"), pf("(-> p q)")], pf("q"))
        as_texts = [sorted(formula_key(f) for f in s) for s in found]
        assert as_texts == [["q"], ["(-> p q)", "p"]]

    def test_base_provable_goal_needs_no_axioms(self):
        goal = pf("(-> p p)")
        found = minimal_axiom_subsets([pf("q"), pf("r")], goal, depth=3)
        assert found == (frozenset(),)

    def test_unreachable_goal_gives_nothing(self):
        assert minimal_axiom_subsets([pf("(-> p q)")], pf("q")) == ()

    def test_empty_subset_answers_although_the_full_set_trips_the_cap(self):
        # the full set's domain is 18 formulas, 18^3 > 1000 schema instances;
        # the empty subset's is the goal's 3 subformulas
        found = minimal_axiom_subsets([pf(CAP_EDGE_AXIOM)], pf("(-> q (-> q q))"),
                                      "hilbert", 0, size_cap=1000)
        assert found == (frozenset(),)

    def test_first_subset_that_trips_the_cap_raises(self):
        with pytest.raises(DepthExplosionError) as caught:
            minimal_axiom_subsets([pf(CAP_EDGE_AXIOM)], pf("z"), "hilbert", 0, size_cap=1000)
        assert str(caught.value) == (
            "closure of calculus 'hilbert' exceeds the size cap of 1000 "
            "(16^3 instantiation candidates)")

    @given(st.integers(0, 2 ** 30))
    @settings(max_examples=20, deadline=None)
    def test_antichain_and_sufficiency(self, seed):
        rng = random.Random(seed)
        pool = [pf("p"), pf("q"), pf("(-> p q)"), pf("(-> q r)"), pf("r")]
        axioms = rng.sample(pool, rng.randint(1, 5))
        goal = rng.choice(pool)
        found = minimal_axiom_subsets(axioms, goal, base="mp", depth=3)
        for subset in found:
            assert subset <= set(axioms)
            calc = with_axioms(base_calculus("mp"), subset)
            from vty.calculus import proves
            assert proves(calc, goal, 3) is not None
        for a in found:
            for b in found:
                assert not (a < b)


# Every `proves` call of the per-subset search, as the sorted axiom texts of
# its calculus, for the axioms below and goal r at depth 2 over mp.
SEARCH_AXIOMS = ("q", "p", "(-> q r)", "(-> p r)", "(-> r s)")
MINIMAL_SEARCH_CALLS = [
    (), ("(-> p r)",), ("(-> q r)",), ("(-> r s)",), ("p",), ("q",),
    ("(-> p r)", "(-> q r)"), ("(-> p r)", "(-> r s)"), ("(-> p r)", "p"),
    ("(-> p r)", "q"), ("(-> q r)", "(-> r s)"), ("(-> q r)", "p"), ("(-> q r)", "q"),
    ("(-> r s)", "p"), ("(-> r s)", "q"), ("p", "q"),
    ("(-> p r)", "(-> q r)", "(-> r s)"), ("(-> p r)", "(-> r s)", "q"),
    ("(-> q r)", "(-> r s)", "p"), ("(-> r s)", "p", "q"),
]
SEARCH_MINIMAL = (frozenset({pf("(-> p r)"), pf("p")}), frozenset({pf("(-> q r)"), pf("q")}))


def spy_on_proves(monkeypatch, module):
    recorded = []
    original = module.proves

    def spy(calculus, goal, depth, **kwargs):
        recorded.append(tuple(sorted(formula_key(a) for a in calculus.axioms)))
        return original(calculus, goal, depth, **kwargs)

    monkeypatch.setattr(module, "proves", spy)
    return recorded


class TestSubsetSearchCalls:
    def sorted_axioms(self):
        return sorted((pf(t) for t in SEARCH_AXIOMS), key=formula_key)

    def test_oracle_calls_in_combination_order(self, monkeypatch):
        calls = spy_on_proves(monkeypatch, oracle_tools)
        found = oracle_tools.oracle_minimal_sufficient_subsets(
            self.sorted_axioms(), pf("r"), base_calculus("mp"), 2, 10_000, 5)
        assert tuple(frozenset(combo) for combo in found) == SEARCH_MINIMAL
        assert calls == MINIMAL_SEARCH_CALLS

    def test_oracle_stops_at_the_first_smaller_sufficient_subset(self, monkeypatch):
        calls = spy_on_proves(monkeypatch, oracle_tools)
        first = next(oracle_tools.oracle_minimal_sufficient_subsets(
            self.sorted_axioms(), pf("r"), base_calculus("mp"), 2, 10_000, 4))
        assert first == (pf("(-> p r)"), pf("p"))
        assert calls == MINIMAL_SEARCH_CALLS[:9]

    def test_minimal_search_decides_every_subset_from_labels(self, monkeypatch):
        calls = spy_on_proves(monkeypatch, vty.projection)
        found = minimal_axiom_subsets([pf(t) for t in SEARCH_AXIOMS], pf("r"), "mp", 2)
        assert found == SEARCH_MINIMAL
        assert calls == []

    def test_classifier_proves_only_the_full_set(self, monkeypatch):
        calls = spy_on_proves(monkeypatch, vty.projection)
        report = classify_relation([pf(t) for t in SEARCH_AXIOMS], pf("r"), "mp", 2)
        assert report.reducible_to == ("(-> p r)", "p")
        assert calls == [tuple(sorted(SEARCH_AXIOMS))]

    def test_search_falls_back_to_proves_when_the_full_set_trips_a_cap(self, monkeypatch):
        calls = spy_on_proves(monkeypatch, vty.projection)
        found = minimal_axiom_subsets([pf(CAP_EDGE_AXIOM)], pf("(-> q (-> q q))"),
                                      "hilbert", 0, size_cap=1000)
        assert found == (frozenset(),)
        assert calls == [()]


def small_formulas():
    leaves = st.sampled_from(["p", "q", "r"]).map(Atom)
    return st.recursive(
        leaves,
        lambda inner: st.one_of(inner.map(Not), st.tuples(inner, inner).map(lambda t: Implies(*t))),
        max_leaves=4,
    )


def outcome(search):
    try:
        return "result", search()
    except VtyError as exc:
        return type(exc), str(exc)


SEARCH_BASES = {
    "mp": "mp",
    "hilbert": "hilbert",
    "empty": "empty",
    "mp+sub": Calculus("mp+sub", rules=(modus_ponens(), SubstitutionRule())),
}


def assert_search_matches_oracle(axioms, goal, base_calc, depth, **caps):
    """Same minimal subsets and reduction, or the same error, as the
    per-subset search; returns the minimal subsets found."""

    def minimal():
        return minimal_axiom_subsets(axioms, goal, base_calc, depth, **caps)

    def reduction():
        return classify_relation(axioms, goal, base_calc, depth, **caps).reducible_to

    labelled = outcome(minimal), outcome(reduction)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vty.projection, "_minimal_sufficient_subsets",
                      oracle_tools.oracle_minimal_sufficient_subsets)
        assert labelled == (outcome(minimal), outcome(reduction))
    return labelled[0][1]


# mp chains over five atoms, with shortcuts and a loop back
CHAIN_POOL = ("a", "b", "c", "(-> a b)", "(-> b c)", "(-> c d)", "(-> d e)", "(-> a c)",
              "(-> b d)", "(-> a e)", "(-> e a)", "(-> c e)", "(-> (-> a b) e)", "d")


class TestLabelledSearchMatchesOracle:
    """The labelled search gives every answer and cap error of the per-subset one."""

    @pytest.mark.parametrize("base", sorted(SEARCH_BASES))
    @given(axioms=st.lists(small_formulas(), max_size=5), goal=small_formulas(),
           depth=st.integers(0, 3), size_cap=st.sampled_from([30, 300, 10_000]))
    @settings(max_examples=40, deadline=None)
    def test_same_subsets_and_reduction(self, base, axioms, goal, depth, size_cap):
        assert_search_matches_oracle(axioms, goal, SEARCH_BASES[base], depth, size_cap=size_cap)

    @given(pool=st.permutations(CHAIN_POOL), size=st.integers(0, 13),
           goal=st.sampled_from("abcdez").map(Atom), depth=st.integers(0, 4),
           subset_cap=st.sampled_from([4, 12, 12, 12]))
    @settings(max_examples=60, deadline=None)
    def test_up_to_twelve_axioms(self, pool, size, goal, depth, subset_cap):
        axioms = [pf(text) for text in pool[:size]]
        with mock.patch.object(vty.projection, "DEFAULT_SUBSET_CAP", subset_cap):
            assert_search_matches_oracle(axioms, goal, "mp", depth)

    @pytest.mark.parametrize("goal, count", [("e", 11), ("z", 0)])
    def test_twelve_axioms(self, goal, count):
        axioms = [pf(text) for text in CHAIN_POOL[:12]]
        found = assert_search_matches_oracle(axioms, pf(goal), "mp", 4)
        assert len(found) == count
        with pytest.raises(CapExceededError) as capped:
            minimal_axiom_subsets([*axioms, pf("(-> e z)")], pf(goal), "mp", 4)
        assert capped.value.bound == "subsets"

    def test_subsets_of_one_width_come_in_combination_order(self):
        # by their sorted positions (0, 1, 2, 5), (0, 1, 4, 5), (0, 2, 3, 5):
        # sorting on the last position first would swap the last two
        axioms = [pf(t) for t in ("(-> a (-> b g))", "(-> c a)", "(-> c b)", "a", "b", "c")]
        found = assert_search_matches_oracle(axioms, pf("g"), "mp", 4)
        assert [sorted(formula_key(f) for f in s) for s in found] == [
            ["(-> a (-> b g))", "a", "b"],
            ["(-> a (-> b g))", "(-> c a)", "(-> c b)", "c"],
            ["(-> a (-> b g))", "(-> c a)", "b", "c"],
            ["(-> a (-> b g))", "(-> c b)", "a", "c"],
        ]

    def test_a_cheaper_support_that_contains_another(self):
        # (-> p p) is an axiom at cost 0 and a hilbert theorem at cost 2, so
        # the goal's antichain holds a support mask inside a cheaper one
        axioms, goal = [pf("(-> p p)")], pf("(-> p p)")
        labels = labelled_closure(base_calculus("hilbert"), axioms, 2, goals=(goal,))
        assert sorted(labels[goal]) == [(0, 2), (1, 0)]
        assert assert_search_matches_oracle(axioms, goal, "hilbert", 2) == (frozenset(),)
        assert classify_relation(axioms, goal, "hilbert", 2).reducible_to == ()


class TestLabelContract:
    """What ``labelled_closure`` promises: for every subset S of the listed
    axioms, the labels with a mask inside S give the costs of closing the
    calculus extended with S."""

    @staticmethod
    def check(base_calc, axioms, goal, depth):
        try:
            labels = labelled_closure(base_calc, axioms, depth, goals=(goal,), size_cap=300)
        except DepthExplosionError:
            assume(False)
        for mask in range(1 << len(axioms)):
            subset = [axiom for bit, axiom in enumerate(axioms) if mask >> bit & 1]
            result = closure(with_axioms(base_calc, subset), depth, goals=(goal,), size_cap=300)
            expected = {}
            for formula, antichain in labels.items():
                costs = [cost for support, cost in antichain if support & mask == support]
                if costs:
                    expected[formula] = min(costs)
            assert {entry.formula: entry.cost for entry in result.entries} == expected

    @pytest.mark.parametrize("base", sorted(SEARCH_BASES))
    @given(axioms=st.lists(small_formulas(), max_size=4, unique=True), goal=small_formulas(),
           depth=st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_labels_give_every_subset_closure(self, base, axioms, goal, depth):
        self.check(vty.projection._resolve_base(SEARCH_BASES[base]), axioms, goal, depth)

    def test_a_cheaper_label_found_later_still_prunes(self):
        # (-> (-> (-> r q) r) (-> (-> r q) q)) needs q at cost 3, by modus
        # ponens from (-> (-> r q) (-> r q)), whose label (q, cost 2) is found
        # after its label (p, cost 3); pruning on the first label found loses it
        self.check(base_calculus("hilbert"), [pf("p"), pf("q")], pf("(-> r q)"), 3)

    def test_a_one_premise_rule_stops_at_the_depth(self):
        # r costs 0 with the listed axiom and 2 without it; a one-premise rule
        # takes r's labels unjoined, so only its check on the cost keeps
        # (not r) at cost 3 out of a closure of depth 2
        neg = SchemaRule("neg", (Atom("a"),), Not(Atom("a")))
        calc = Calculus("neg", axioms=frozenset(map(pf, ["p", "(-> p q)", "(-> q r)"])),
                        rules=(modus_ponens(), neg))
        self.check(calc, [pf("r")], pf("(not r)"), 2)


class TestSeedRegistry:
    def seed(self):
        from vty.seed import seed_axiom_declarations, seed_registry, seed_theorems
        return seed_registry(), seed_theorems(), seed_axiom_declarations()

    def test_registry_is_valid(self):
        # reading the packaged manifest validates it
        profiles, theorems, _ = self.seed()
        assert [p.class_id for p in profiles] == [
            "T", "TT", "RAM", "KA", "RM", "PRF", "ITM1", "PETM", "LPRF", "FA",
        ]
        assert [t.theorem_id for t in theorems] == [
            "fixed_output_undecidable", "fixed_output_recognizable",
        ]

    def test_undecidability_partition(self):
        profiles, theorems, declarations = self.seed()
        report = project(theorems[0], profiles, declarations)
        assert [e.class_id for e in report.corollaries] == [
            "T", "RAM", "KA", "RM", "PRF", "ITM1", "PETM", "LPRF",
        ]
        assert [e.class_id for e in report.not_applicable] == ["TT", "FA"]
        assert report.unknown == ()

    def test_recognizability_partition(self):
        profiles, theorems, declarations = self.seed()
        report = project(theorems[1], profiles, declarations)
        assert [e.class_id for e in report.corollaries] == [
            "T", "RAM", "KA", "RM", "PRF", "ITM1", "PETM", "LPRF",
        ]
        assert [e.class_id for e in report.not_applicable] == ["TT", "FA"]
        assert report.unknown == ()

    def test_executable_evidence_is_wired_to_real_witnesses(self):
        profiles, _, _ = self.seed()
        by_id = {p.class_id: p for p in profiles}
        rm = by_id["RM"].statuses["UNIVERSALITY"].evidence
        assert rm.kind == EXEC_POSITIVE
        assert rm.witness_id == "rm_universal_differential"
        assert rm.suite_size == 100
        fa = by_id["FA"].statuses["TOTALITY"].evidence
        assert fa.kind == EXEC_EXHAUSTIVE
        assert fa.witness_id == "dfa_totality_exhaustive"

    def test_dependency_sets_are_the_curated_ones(self):
        _, theorems, _ = self.seed()
        assert theorems[0].dependencies == frozenset({"UNIVERSALITY"})
        assert theorems[1].dependencies == frozenset({"UNIVERSALITY", "COMPOSITION"})
        assert all(not t.unconditional for t in theorems)


class TestMatrix:
    def test_cells_agree_with_projection(self):
        rng = random.Random(3)
        profiles = random_registry(rng, 6)
        theorems = [
            theorem({"AX1"}, "t1"),
            theorem({"AX1", "AX2"}, "t2"),
            theorem((), "t3", unconditional=True),
        ]
        matrix = registry_report(profiles, theorems, DECLS)
        assert matrix.classes == tuple(p.class_id for p in profiles)
        assert matrix.theorems == ("t1", "t2", "t3")
        for column, record in enumerate(theorems):
            report = project(record, profiles, DECLS)
            expect = {e.class_id: "corollary" for e in report.corollaries}
            expect.update({e.class_id: "not_applicable" for e in report.not_applicable})
            expect.update({e.class_id: "unknown" for e in report.unknown})
            for row, class_id in enumerate(matrix.classes):
                assert matrix.cells[row][column] == expect[class_id]

    def test_one_function_decides_each_cell(self, monkeypatch):
        decided = []
        real = vty.projection._cell

        def counting(record, prof):
            decided.append((record.theorem_id, prof.class_id))
            return real(record, prof)

        monkeypatch.setattr(vty.projection, "_cell", counting)
        profiles = [profile("a", AX1=SATISFIED), profile("b", AX1=VIOLATED)]
        theorems = [theorem({"AX1"}, "t1"), theorem({"AX2"}, "t2")]
        with mock.patch.object(vty.projection, "project", side_effect=AssertionError):
            matrix = registry_report(profiles, theorems, DECLS)
        assert matrix.cells == (("corollary", "unknown"), ("not_applicable", "unknown"))
        assert sorted(decided) == [("t1", "a"), ("t1", "b"), ("t2", "a"), ("t2", "b")]
        decided.clear()
        project(theorems[0], profiles, DECLS)
        assert decided == [("t1", "a"), ("t1", "b")]

    @pytest.mark.parametrize("class_count", [0, 2])
    def test_the_first_theorem_with_an_undeclared_dependency_is_named(self, class_count):
        profiles = [profile(f"c{i}", AX1=SATISFIED) for i in range(class_count)]
        theorems = [theorem({"AX1"}, "t1"), theorem({"AX1", "NOPE_B"}, "t2"),
                    theorem({"NOPE_A"}, "t3")]
        with pytest.raises(UndeclaredAxiomError) as err:
            registry_report(profiles, theorems, DECLS)
        assert err.value.axiom_id == "NOPE_B"

    def test_empty_theorem_list(self):
        matrix = registry_report([profile("a")], [], DECLS)
        assert matrix.theorems == ()
        assert matrix.cells == ((),)

    def test_text_rendering(self):
        profiles = [profile("alpha", AX1=SATISFIED), profile("beta", AX1=VIOLATED)]
        matrix = registry_report(profiles, [theorem({"AX1"}, "t1")], DECLS)
        text = matrix.to_text()
        lines = text.splitlines()
        assert lines[0].strip() == "t1"
        assert lines[1].startswith("alpha")
        assert lines[1].rstrip().endswith("C")
        assert lines[2].startswith("beta")
        assert lines[2].rstrip().endswith("-")
        assert lines[-1] == "legend: C corollary, - not applicable, ? unknown"

    def test_dict_rendering_includes_legend(self):
        matrix = registry_report([profile("a", AX1=UNKNOWN)], [theorem({"AX1"})], DECLS)
        payload = matrix.to_dict()
        assert payload["cells"] == [["unknown"]]
        assert payload["legend"] == {"corollary": "C", "not_applicable": "-", "unknown": "?"}
