import ast
import inspect
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from vty.calculus import (
    AxiomSchema,
    Calculus,
    DEFAULT_DEPTH,
    Proof,
    ProofStep,
    SchemaRule,
    SubstitutionRule,
    base_calculus,
    closure,
    hilbert_schemas,
    instantiation_domain,
    labelled_closure,
    modus_ponens,
    proves,
    theorem_formulas,
    with_axioms,
)
from vty.errors import DepthExplosionError
from vty.formulas import (
    And,
    Atom,
    Bottom,
    Implies,
    Not,
    Or,
    atoms,
    evaluate,
    format_formula,
    parse_formula,
    substitute,
)
from vty.manifest import Bounds
from vty.projection import classify_relation, minimal_axiom_subsets

import proof_checker
import vty.calculus
from oracle_tools import (
    iter_assignments,
    oracle_scan_closure,
    oracle_theorem_set,
    printed_proof_check,
    random_calculus,
    shrinking_rule_pool,
)


def pf(text):
    return parse_formula(text)


def chain_calc(depth=3):
    return with_axioms(
        base_calculus("mp", closure_depth=depth),
        [pf("p"), pf("(-> p q)"), pf("(-> q r)")],
    )


HILBERT4 = [pf("p"), pf("(-> p q)"), pf("(-> q r)"), pf("(-> r s)")]


def texts(formulas):
    return sorted(format_formula(f) for f in formulas)


def entries_with_proofs(result):
    return [(e.formula, e.cost, result.proof_for(e.formula)) for e in result.entries]


class TestRuleConstruction:
    def test_rules_need_premises(self):
        with pytest.raises(ValueError):
            SchemaRule("bad", (), Atom("a"))

    def test_conclusion_variables_must_be_bound(self):
        with pytest.raises(ValueError):
            SchemaRule("bad", (Atom("a"),), Implies(Atom("a"), Atom("b")))

    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(ValueError):
            Calculus("c", rules=(modus_ponens(), modus_ponens()))

    def test_duplicate_schema_ids_rejected(self):
        p1 = hilbert_schemas()[0]
        with pytest.raises(ValueError, match="duplicate schema ids"):
            Calculus("c", schemas=(p1, AxiomSchema(p1.schema_id, Atom("a"))))

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            Calculus("c", closure_depth=-1)
        with pytest.raises(ValueError, match="^depth must be nonnegative$"):
            closure(chain_calc(), -1)


class TestClosureExamples:
    def test_chain_by_depth(self):
        calc = chain_calc()
        assert texts(closure(calc, 0).formulas()) == ["(-> p q)", "(-> q r)", "p"]
        assert texts(closure(calc, 1).formulas()) == ["(-> p q)", "(-> q r)", "p", "q"]
        assert texts(closure(calc, 2).formulas()) == [
            "(-> p q)", "(-> q r)", "p", "q", "r"
        ]

    def test_depth_defaults_to_the_calculus_depth(self):
        calc = chain_calc(depth=1)
        axioms = [pf("(-> r s)")]
        assert closure(calc) == closure(calc, 1)
        assert labelled_closure(calc, axioms) == labelled_closure(calc, axioms, 1)
        assert labelled_closure(calc, axioms) != labelled_closure(calc, axioms, 3)

    def test_chain_costs(self):
        costs = {entry.formula: entry.cost for entry in closure(chain_calc(), 2).entries}
        assert [costs[pf(name)] for name in "pqr"] == [0, 1, 2]

    def test_depth_zero_schema_instances_are_free(self):
        calc = Calculus(
            "schema_only",
            schemas=(AxiomSchema("P1", pf("(-> a (-> b a))")),),
            rules=(modus_ponens(),),
            signature_atoms=frozenset({"p"}),
        )
        result = closure(calc, 0)
        assert pf("(-> p (-> p p))") in result
        assert {entry.formula: entry.cost for entry in result.entries}[pf("(-> p (-> p p))")] == 0

    def test_identity_implication_at_depth_five(self):
        calc = base_calculus("hilbert", closure_depth=5)
        goal = pf("(-> p p)")
        proof = proves(calc, goal, 5)
        assert proof is not None
        assert proof.conclusion == goal
        assert proof.rule_applications() == 2
        assert printed_proof_check(calc, proof).valid

    def test_identity_implication_exact_cost(self):
        calc = base_calculus("hilbert")
        goal = pf("(-> p p)")
        result = closure(calc, 5, goals=(goal,))
        assert [entry.cost for entry in result.entries if entry.formula == goal] == [2]

    def test_unprovable_goal_is_unknown_not_refuted(self):
        assert proves(chain_calc(), pf("s"), 4) is None

    def test_every_emitted_proof_revalidates(self):
        calc = chain_calc()
        result = closure(calc, 2)
        for entry in result.entries:
            check = printed_proof_check(calc, result.proof_for(entry.formula))
            assert check.valid, (format_formula(entry.formula), check)

    def test_proofs_share_lemmas_instead_of_repeating(self):
        # both q-uses in (and ...) style chains reuse one step; here the
        # shared lemma is q feeding r while q itself stays a single step
        result = closure(chain_calc(), 2)
        proof = result.proof_for(pf("r"))
        listed = [format_formula(s.formula) for s in proof.steps]
        assert listed.count("q") == 1

    def test_substitution_rule_closure(self):
        calc = Calculus(
            "subst", axioms=frozenset({pf("(-> p p)")}),
            rules=(SubstitutionRule("sub"),),
        )
        result = closure(calc, 1)
        assert pf("(-> (-> p p) (-> p p))") in result

    def test_domain_includes_goals_and_signature(self):
        calc = Calculus("d", axioms=frozenset({pf("p")}),
                        signature_atoms=frozenset({"z"}))
        domain = instantiation_domain(calc, goals=(pf("(not q)"),))
        assert domain == {pf("p"), pf("z"), pf("(not q)"), pf("q")}


class TestOracleEquivalence:
    def test_randomized_against_budget_enumeration(self):
        rng = random.Random(20260817)
        for case in range(30):
            calc = random_calculus(rng, f"rand{case}")
            depth = rng.randint(0, 4)
            engine = closure(calc, depth).formulas()
            oracle = oracle_theorem_set(calc, depth)
            assert engine == oracle, (case, calc, depth)

    def test_conjunction_introduction_grows_past_the_domain(self):
        a, b = Atom("a"), Atom("b")
        calc = Calculus(
            "grow", axioms=frozenset({pf("p"), pf("q")}),
            rules=(SchemaRule("and_intro", (a, b), And(a, b)),),
        )
        for depth in (0, 1, 2):
            assert closure(calc, depth).formulas() == oracle_theorem_set(calc, depth)
        assert pf("(and p q)") in closure(calc, 1)
        assert pf("(and (and p q) p)") in closure(calc, 2)

    def test_substitution_rule_matches_oracle(self):
        calc = Calculus(
            "subst2", axioms=frozenset({pf("(or p q)")}),
            rules=(SubstitutionRule("sub"),),
        )
        for depth in (0, 1, 2):
            assert closure(calc, depth).formulas() == oracle_theorem_set(calc, depth)

    def test_schema_calculus_matches_oracle(self):
        calc = Calculus(
            "hsmall",
            schemas=hilbert_schemas(),
            rules=(modus_ponens(),),
            signature_atoms=frozenset({"p"}),
        )
        for depth in (0, 1):
            assert closure(calc, depth).formulas() == oracle_theorem_set(calc, depth)


def _index_rule_pool():
    """Rules whose premises reach every kind of premise-index bucket."""
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    return {
        "mp": modus_ponens(),
        # three premises; the later two meet atoms the earlier ones bound
        "chain3": SchemaRule("chain3", (Implies(a, b), Implies(b, c), a), c),
        # an implication whose bound atom is its right child
        "converse": SchemaRule("converse", (b, Implies(a, b)), a),
        "dsyl": SchemaRule("dsyl", (Not(a), Or(a, b)), b),
        "mt": SchemaRule("mt", (Implies(a, b), Not(b)), Not(a)),
        # a bare atom premise already bound by the one before
        "and_use": SchemaRule("and_use", (And(a, b), a), b),
        "bot_not": SchemaRule("bot_not", (Bottom(), a), Not(a)),
        "sub": SubstitutionRule("sub"),
    }


_LEAVES = st.sampled_from([Atom("p"), Atom("q"), Atom("r"), Bottom()])
_SMALL_FORMULAS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        inner.map(Not),
        st.tuples(inner, inner).map(lambda pair: And(*pair)),
        st.tuples(inner, inner).map(lambda pair: Or(*pair)),
        st.tuples(inner, inner).map(lambda pair: Implies(*pair)),
    ),
    max_leaves=3,
)


@st.composite
def _index_calculi(draw, featured: str):
    """A small random calculus that always has the featured rule or schemas.

    Besides random axioms it takes instances of most rule premises as
    axioms, so the rules fire and their conclusions feed each other.
    """
    pool = _index_rule_pool()
    names = set(draw(st.sets(st.sampled_from(sorted(pool)), max_size=1)))
    hilbert = featured == "hilbert" or draw(st.integers(0, 3)) == 3
    names.add("mp" if featured == "hilbert" else featured)
    # schemas and substitution instantiate over the domain: keep it small.
    # P2's three metavariables pass the test's size cap of 300 on a domain
    # of seven formulas, so hilbert axioms are atoms, one instance per rule
    wide = hilbert or "sub" in names
    axioms = set(draw(st.frozensets(_LEAVES if hilbert else _SMALL_FORMULAS,
                                    min_size=1, max_size=1 if wide else 3)))
    for name in sorted(names):
        rule = pool[name]
        if isinstance(rule, SubstitutionRule):
            continue
        metavariables = sorted(set().union(*map(atoms, rule.premises)))
        # two instances over few atoms often share a conclusion: a tie
        for _ in range(draw(st.integers(1, 1 if hilbert else 2))):
            mapping = {m: draw(_LEAVES if wide else _SMALL_FORMULAS) for m in metavariables}
            for premise in rule.premises:
                if draw(st.integers(0, 3)) < 3:
                    axioms.add(substitute(premise, mapping))
    return Calculus(
        f"index_{featured}",
        axioms=frozenset(axioms),
        schemas=hilbert_schemas() if hilbert else (),
        rules=tuple(pool[name] for name in sorted(names)),
    )


class TestIndexedClosureMatchesScan:
    @staticmethod
    @pytest.mark.parametrize("featured", [
        "mp", "hilbert", "chain3", "converse", "dsyl", "mt", "and_use", "bot_not", "sub",
    ])
    @given(data=st.data(), depth=st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_entries_match_the_scan_oracle(featured, data, depth):
        calc = data.draw(_index_calculi(featured))
        goals = data.draw(st.lists(_SMALL_FORMULAS, max_size=1))
        try:
            result = closure(calc, depth, goals=goals, size_cap=300)
        except DepthExplosionError:
            assume(False)
        expected = oracle_scan_closure(calc, depth, goals)
        assert entries_with_proofs(result) == expected

    def test_ties_go_to_the_first_premises_in_formula_key_order(self):
        calc = Calculus("ties", axioms=frozenset(map(pf, [
            "p", "q", "(-> p s)", "(-> q s)", "(-> p q)", "(not q)", "(-> p r)", "(not r)",
        ])), rules=(modus_ponens(), _index_rule_pool()["mt"]))
        result = closure(calc, 1)
        cited = {format_formula(formula): [format_formula(step.formula)
                                           for step in result.proof_for(formula).steps[:-1]]
                 for formula, cost in result.entries if cost == 1}
        assert cited["s"] == ["p", "(-> p s)"]
        assert cited["(not p)"] == ["(-> p q)", "(not q)"]
        expected = oracle_scan_closure(calc, 1)
        assert entries_with_proofs(result) == expected

    def test_ties_in_a_later_round_go_to_the_first_premises_in_formula_key_order(self):
        # in round two s has two derivations of cost 2: (p, (-> p s)) whose
        # second premise is fresh, and (q, (-> q s)) whose first one is
        calc = Calculus("late_ties", axioms=frozenset(map(pf, [
            "p", "r", "(-> r (-> p s))", "(-> r q)", "(-> q s)",
        ])), rules=(modus_ponens(),))
        result = closure(calc, 2)
        cited = [format_formula(step.formula) for step in result.proof_for(pf("s")).steps]
        assert cited == ["p", "r", "(-> r (-> p s))", "(-> p s)", "s"]
        expected = oracle_scan_closure(calc, 2)
        assert entries_with_proofs(result) == expected

    @staticmethod
    def count_calls(monkeypatch):
        counts = {"match_pattern": 0, "substitute": 0}
        for name in counts:
            real = getattr(vty.calculus, name)

            def counting(*args, _real=real, _name=name):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(vty.calculus, name, counting)
        return counts

    # Upper bounds at the counts of the current engine: a change that makes
    # the rounds do less work may lower them, none may raise them.
    def test_hilbert4_match_count_guard(self, monkeypatch):
        counts = self.count_calls(monkeypatch)
        result = closure(with_axioms(base_calculus("hilbert"), HILBERT4), 3)
        assert len(result.entries) == 559
        assert counts["match_pattern"] <= 825
        assert counts["substitute"] <= 613

    def test_labelled_hilbert4_count_guard(self, monkeypatch):
        counts = self.count_calls(monkeypatch)
        labels = labelled_closure(base_calculus("hilbert"), HILBERT4, 2)
        assert len(labels) == 550
        assert counts["match_pattern"] <= 726
        assert counts["substitute"] <= 571

    def test_substitution_rule_count_guard(self, monkeypatch):
        counts = self.count_calls(monkeypatch)
        calc = Calculus("sub2", axioms=frozenset({pf("(or p q)"), pf("(-> p r)")}),
                        rules=(SubstitutionRule("sub"),))
        result = closure(calc, 2)
        assert len(result.entries) == 1_570
        assert counts["substitute"] <= 2_330

    def test_proofs_are_built_on_first_access(self, monkeypatch):
        built = []
        build = vty.calculus._build_proof
        monkeypatch.setattr(vty.calculus, "_build_proof",
                            lambda target, best: built.append(target) or build(target, best))
        result = closure(chain_calc(), 2)
        assert built == []
        result.proof_for(pf("r"))
        assert built == [pf("r")]


class TestPendingBound:
    """A schema rule application gathers at most the size cap of premise
    tuples; past it, it walks the sorted snapshot in order instead."""

    @staticmethod
    def atom_calculus(calculus_id, count, *rules):
        return Calculus(calculus_id, axioms=frozenset(Atom(f"p{i}") for i in range(count)),
                        rules=rules)

    def test_a_wide_rule_is_refused_in_bounded_memory(self):
        a, b = Atom("a"), Atom("b")
        calc = self.atom_calculus("A", 400, SchemaRule("andI", (a, b), And(a, b)))
        tracemalloc.start()
        try:
            with pytest.raises(DepthExplosionError,
                               match=r"^closure of calculus 'A' exceeds the size cap of 10000$"):
                closure(calc, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    @pytest.mark.parametrize("count, rules, depth, size_cap", [
        # 40 000 tuples, every conclusion already known
        (200, [(("a", "b"), "a")], 3, 10_000),
        # 400 tuples, then 800 that hold a fresh premise and fit the depth;
        # each conclusion has 20 derivations, and the first in snapshot order wins
        (20, [(("a", "b"), "(and a a)")], 2, 300),
        # the third rule walks once over a 40-formula snapshot that the first
        # two admitted out of formula_key order; (not p0) cites (-> bot p0),
        # the first implication in sorted order, not (-> p0 bot), the first admitted
        (10, [(("a",), "(-> a bot)"), (("a",), "(-> bot a)"),
              (("a", "(-> c d)"), "(not a)")], 2, 100),
    ], ids=lambda value: value[-1][1] if isinstance(value, list) else None)
    def test_the_ordered_walk_matches_the_scan_oracle(self, count, rules, depth, size_cap):
        calc = self.atom_calculus("walk", count, *(
            SchemaRule(f"r{i}", tuple(map(pf, premises)), pf(conclusion))
            for i, (premises, conclusion) in enumerate(rules, 1)))
        result = closure(calc, depth, size_cap=size_cap)
        expected = oracle_scan_closure(calc, depth)
        assert entries_with_proofs(result) == expected


class TestClosureProperties:
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_depth(self, seed, depth):
        calc = random_calculus(random.Random(seed), "mono")
        assert closure(calc, depth).formulas() <= closure(calc, depth + 1).formulas()

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_axioms_always_present(self, seed):
        calc = random_calculus(random.Random(seed), "axin")
        assert calc.axioms <= closure(calc, 0).formulas()

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_soundness_under_every_assignment(self, seed):
        # anything derived is true wherever all the axioms are true
        calc = random_calculus(random.Random(seed), "sound")
        derived = closure(calc, 3).formulas()
        names = tuple(sorted(set().union(*(atoms(f) for f in derived | calc.axioms))
                             if derived | calc.axioms else set()))
        for env in iter_assignments(names):
            if all(evaluate(f, env) for f in calc.axioms):
                assert all(evaluate(f, env) for f in derived)

    def test_fixpoint_once_saturated(self):
        calc = chain_calc()
        assert closure(calc, 3).formulas() == closure(calc, 9).formulas()

    def test_deterministic_entry_order(self):
        calc = chain_calc()
        first = [format_formula(e.formula) for e in closure(calc, 2).entries]
        second = [format_formula(e.formula) for e in closure(calc, 2).entries]
        assert first == second == sorted(first)


class TestCaps:
    def test_size_cap_stops_runaway_closures(self):
        a, b = Atom("a"), Atom("b")
        calc = Calculus(
            "runaway", axioms=frozenset({pf("p"), pf("q"), pf("r")}),
            rules=(SchemaRule("and_intro", (a, b), And(a, b)),),
        )
        with pytest.raises(DepthExplosionError):
            closure(calc, 6, size_cap=500)

    def test_instantiation_guard(self):
        calc = Calculus(
            "wide",
            schemas=(AxiomSchema("P2", hilbert_schemas()[1].pattern),),
            signature_atoms=frozenset(f"a{i}" for i in range(1, 10)),
        )
        # 9 domain formulas ** 3 metavariables = 729 fits; a tiny cap trips
        closure(calc, 0, size_cap=1000)
        with pytest.raises(DepthExplosionError):
            closure(calc, 0, size_cap=500)


class TestProofChecking:
    """`proof_checker` on bogus proofs, each printed as the CLI prints it."""

    def test_checker_imports_nothing_from_vty(self):
        tree = ast.parse(Path(proof_checker.__file__).read_text(encoding="utf-8"))
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names]
        imported += [node.module or "" for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)]
        assert imported and not [name for name in imported if name.split(".")[0] == "vty"]

    def proof_of_q(self):
        calc = with_axioms(base_calculus("mp"), [pf("p"), pf("(-> p q)")])
        proof = proves(calc, pf("q"), 1)
        assert proof is not None
        return calc, proof

    def test_empty_proof(self):
        calc, _ = self.proof_of_q()
        check = printed_proof_check(calc, Proof(()))
        assert not check.valid and check.reason == "EMPTY_PROOF"

    def test_unknown_axiom(self):
        calc, _ = self.proof_of_q()
        bogus = Proof((ProofStep(pf("r"), "axiom"),))
        check = printed_proof_check(calc, bogus)
        assert not check.valid and check.reason == "UNKNOWN_AXIOM" and check.step == 0

    def test_unknown_rule(self):
        calc, proof = self.proof_of_q()
        steps = list(proof.steps)
        last = steps[-1]
        assert last.kind == "rule"
        steps[-1] = last._replace(ref="modus_tollens")
        check = printed_proof_check(calc, Proof(tuple(steps)))
        assert not check.valid and check.reason == "UNKNOWN_RULE"

    def test_forward_premise_reference_rejected(self):
        calc, proof = self.proof_of_q()
        steps = list(proof.steps)
        last = steps[-1]
        steps[-1] = last._replace(premises=(0, 99))
        check = printed_proof_check(calc, Proof(tuple(steps)))
        assert not check.valid and check.reason == "BAD_PREMISE"

    def test_premise_pattern_mismatch(self):
        calc, proof = self.proof_of_q()
        steps = list(proof.steps)
        last = steps[-1]
        # cite the implication twice; the first premise no longer matches
        steps[-1] = last._replace(premises=(1, 1))
        check = printed_proof_check(calc, Proof(tuple(steps)))
        assert not check.valid and check.reason == "BAD_PREMISE"

    def test_conclusion_mismatch(self):
        calc, proof = self.proof_of_q()
        steps = list(proof.steps)
        last = steps[-1]
        steps[-1] = last._replace(formula=pf("(not q)"))
        check = printed_proof_check(calc, Proof(tuple(steps)))
        assert not check.valid and check.reason == "CONCLUSION_MISMATCH"

    def test_unknown_schema_and_mismatch(self):
        calc = base_calculus("hilbert")
        instance = pf("(-> p (-> q p))")
        good = ProofStep(instance, "schema", "P1", (("a", pf("p")), ("b", pf("q"))))
        assert printed_proof_check(calc, Proof((good,))).valid
        unknown = ProofStep(instance, "schema", "P9", (("a", pf("p")),))
        check = printed_proof_check(calc, Proof((unknown,)))
        assert check.reason == "UNKNOWN_SCHEMA"
        lied = ProofStep(instance, "schema", "P1", (("a", pf("q")), ("b", pf("q"))))
        check = printed_proof_check(calc, Proof((lied,)))
        assert check.reason == "SCHEMA_MISMATCH"

    def test_checker_accepts_unrestricted_instantiation(self):
        # the checker is more liberal than the bounded engine: a valid
        # substitution step may leave the engine's domain
        big = pf("(-> (and r (and r r)) (and r (and r r)))")
        proof = Proof((
            ProofStep(pf("(-> p p)"), "axiom"),
            ProofStep(big, "rule", "sub", (("p", pf("(and r (and r r))")),), (0,)),
        ))
        assert printed_proof_check(self.sub_calculus(), proof).valid

    def sub_calculus(self):
        return Calculus("free", axioms=frozenset({pf("(-> p p)")}),
                        rules=(SubstitutionRule("sub"),))

    def test_substitution_takes_one_premise(self):
        proof = Proof((
            ProofStep(pf("(-> p p)"), "axiom"),
            ProofStep(pf("(-> q q)"), "rule", "sub", (("p", pf("q")),), (0, 0)),
        ))
        check = printed_proof_check(self.sub_calculus(), proof)
        assert (check.valid, check.step, check.reason, check.detail) == (
            False, 1, "BAD_PREMISE", "substitution takes one premise")

    def test_substitution_instance_must_match_its_step(self):
        proof = Proof((
            ProofStep(pf("(-> p p)"), "axiom"),
            ProofStep(pf("(-> q r)"), "rule", "sub", (("p", pf("q")),), (0,)),
        ))
        check = printed_proof_check(self.sub_calculus(), proof)
        assert (check.valid, check.step, check.reason) == (False, 1, "CONCLUSION_MISMATCH")

    def test_mp_takes_two_premises(self):
        calc, proof = self.proof_of_q()
        steps = list(proof.steps)
        last = steps[-1]
        steps[-1] = last._replace(premises=last.premises[:1])
        check = printed_proof_check(calc, Proof(tuple(steps)))
        assert (check.valid, check.step, check.reason, check.detail) == (
            False, len(steps) - 1, "BAD_PREMISE", "rule 'mp' takes 2 premises")

    def test_unknown_kind(self):
        calc, proof = self.proof_of_q()
        steps = list(proof.steps)
        steps[-1] = steps[-1]._replace(kind="lemma")
        check = printed_proof_check(calc, Proof(tuple(steps)))
        assert (check.valid, check.step, check.reason, check.detail) == (
            False, len(steps) - 1, "UNKNOWN_JUSTIFICATION", "'lemma'")


class TestPresets:
    def test_preset_names(self):
        assert base_calculus("hilbert").calculus_id == "hilbert"
        assert base_calculus("mp").schemas == ()
        assert base_calculus("empty").rules == ()
        with pytest.raises(ValueError):
            base_calculus("sequent")

    def test_with_axioms_merges(self):
        extended = with_axioms(base_calculus("mp"), [pf("p")])
        assert extended.calculus_id == "mp"
        assert extended.rules == base_calculus("mp").rules
        assert pf("p") in extended.axioms

    def test_with_axioms_keeps_every_other_field(self):
        base = Calculus("full", axioms=frozenset({pf("p")}), schemas=hilbert_schemas(),
                        rules=(modus_ponens(), SubstitutionRule()), closure_depth=5,
                        signature_atoms=frozenset({"s"}))
        extended = with_axioms(base, [pf("q")])
        assert extended.axioms == {pf("p"), pf("q")}
        kept = [name for name in Calculus._fields if name != "axioms"]
        assert len(kept) == 5  # a field added to Calculus gets a non-default value above
        assert [getattr(extended, name) for name in kept] == [getattr(base, name) for name in kept]

    def test_theorem_formulas_memoizes_consistently(self):
        calc = chain_calc()
        assert theorem_formulas(calc, 2) == closure(calc, 2).formulas()
        assert theorem_formulas(calc, 2) is theorem_formulas(calc, 2)

    def test_every_default_depth_is_the_one_constant(self):
        def default(function):
            return inspect.signature(function).parameters["depth"].default

        assert DEFAULT_DEPTH == 3
        assert [Calculus("c").closure_depth, base_calculus("mp").closure_depth, Bounds().depth,
                default(classify_relation), default(minimal_axiom_subsets)] == [DEFAULT_DEPTH] * 5
