import pytest
from hypothesis import given, strategies as st

from vty.errors import FormulaParseError
from vty.formulas import (
    MAX_NESTING,
    And,
    Atom,
    Binary,
    Bottom,
    Formula,
    Implies,
    Not,
    Or,
    atoms,
    evaluate,
    format_formula,
    match_pattern,
    parse_formula,
    subformula_closure,
    subformulas,
    substitute,
)


def names(max_size: int = 3):
    return st.sampled_from(["p", "q", "r", "s", "t0", "long_name"])


def any_names():
    """Every name an atom may have."""
    return st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True).filter(lambda n: n != "bot")


def formulas(max_depth: int = 4, atom_names=None) -> st.SearchStrategy[Formula]:
    leaves = st.one_of((names() if atom_names is None else atom_names).map(Atom), st.just(Bottom()))
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            inner.map(Not),
            st.tuples(inner, inner).map(lambda p: And(*p)),
            st.tuples(inner, inner).map(lambda p: Or(*p)),
            st.tuples(inner, inner).map(lambda p: Implies(*p)),
        ),
        max_leaves=2 ** max_depth,
    )


class TestParsing:
    def test_fixed_forms(self):
        assert parse_formula("p") == Atom("p")
        assert parse_formula("bot") == Bottom()
        assert parse_formula("(not p)") == Not(Atom("p"))
        assert parse_formula("(and p q)") == And(Atom("p"), Atom("q"))
        assert parse_formula("(or p q)") == Or(Atom("p"), Atom("q"))
        assert parse_formula("(-> p q)") == Implies(Atom("p"), Atom("q"))

    def test_nested(self):
        text = "(-> (-> (not a) (not b)) (-> b a))"
        formula = parse_formula(text)
        assert format_formula(formula) == text

    def test_whitespace_is_free(self):
        assert parse_formula("( ->   p    q )") == Implies(Atom("p"), Atom("q"))

    def test_atom_lexicon(self):
        assert parse_formula("a1_b") == Atom("a1_b")
        for bad in ("P", "1p", "p-", "_x"):
            with pytest.raises(FormulaParseError):
                parse_formula(bad)

    def test_unbalanced_reports_column(self):
        with pytest.raises(FormulaParseError) as err:
            parse_formula("(-> p q")
        assert err.value.col == 0  # points at the unclosed paren

    @pytest.mark.parametrize("text, message", [
        ('"p', "col 0: unterminated string"),
        ("((p q)", "col 1: expected a connective after ("),
        ("(", "col 0: expected a connective after ("),
    ])
    def test_error_names_its_column(self, text, message):
        with pytest.raises(FormulaParseError) as err:
            parse_formula(text)
        assert str(err.value) == message

    def test_trailing_garbage(self):
        with pytest.raises(FormulaParseError):
            parse_formula("p q")

    def test_empty(self):
        with pytest.raises(FormulaParseError):
            parse_formula("")

    def test_arity_errors(self):
        with pytest.raises(FormulaParseError):
            parse_formula("(not)")
        with pytest.raises(FormulaParseError):
            parse_formula("(and p)")
        with pytest.raises(FormulaParseError):
            parse_formula("(-> p q r)")

    @given(formulas(atom_names=any_names()))
    def test_round_trip(self, formula):
        assert parse_formula(format_formula(formula)) == formula

    @pytest.mark.parametrize("name", ["bot", "p q", "P", "1p", "p-", "_x", ""])
    def test_atom_refuses_names_the_parser_reads_otherwise(self, name):
        with pytest.raises(ValueError, match="bad atom name"):
            Atom(name)

    @given(st.text(alphabet="abot0_ ()-", max_size=5))
    def test_an_accepted_atom_name_reads_back_as_that_atom(self, name):
        try:
            atom = Atom(name)
        except ValueError:
            return
        assert parse_formula(name) == atom

    def test_structural_equality_only(self):
        # equal text means equal tree; no semantic identification happens
        assert parse_formula("(and p q)") != parse_formula("(and q p)")
        assert parse_formula("p") != parse_formula("(not (not p))")


class TestNesting:
    def test_nesting_up_to_the_limit_parses(self):
        text = "(not " * MAX_NESTING + "p" + ")" * MAX_NESTING
        assert format_formula(parse_formula(text)) == text

    def test_one_more_level_fails_at_the_first_paren_beyond(self):
        text = "(not " * (MAX_NESTING + 1) + "p" + ")" * (MAX_NESTING + 1)
        with pytest.raises(FormulaParseError) as err:
            parse_formula(text)
        assert err.value.col == 5 * MAX_NESTING
        assert err.value.message == f"formula nests deeper than {MAX_NESTING} parentheses"


class TestQueries:
    def test_atoms(self):
        formula = parse_formula("(-> (and p q) (or p bot))")
        assert atoms(formula) == {"p", "q"}
        assert atoms(Bottom()) == frozenset()

    def test_subformulas_counts_duplicates_once(self):
        formula = parse_formula("(and p p)")
        assert set(subformulas(formula)) == {formula, Atom("p")}

    def test_subformula_closure(self):
        closure = subformula_closure([parse_formula("(-> p (not q))")])
        texts = sorted(format_formula(f) for f in closure)
        assert texts == ["(-> p (not q))", "(not q)", "p", "q"]

    @given(formulas())
    def test_closure_contains_whole_and_atoms(self, formula):
        closure = subformula_closure([formula])
        assert formula in closure
        assert all(Atom(name) in closure for name in atoms(formula))


class TestSubstitution:
    def test_substitute_leaves_unmapped_atoms(self):
        formula = parse_formula("(-> p q)")
        out = substitute(formula, {"p": parse_formula("(not r)")})
        assert format_formula(out) == "(-> (not r) q)"

    def test_substitute_is_simultaneous(self):
        formula = parse_formula("(and p q)")
        out = substitute(formula, {"p": Atom("q"), "q": Atom("p")})
        assert format_formula(out) == "(and q p)"

    def test_substituting_atoms_renames(self):
        formula = parse_formula("(-> a1 (not a2))")
        out = substitute(formula, {"a1": Atom("p"), "a2": Atom("q")})
        assert format_formula(out) == "(-> p (not q))"

    @given(formulas())
    def test_identity_substitution(self, formula):
        assert substitute(formula, {}) is formula

    def test_a_node_with_nothing_replaced_under_it_is_kept(self):
        formula = parse_formula("(-> (not a) (and b (or c bot)))")
        out = substitute(formula, {"a": Atom("p"), "z": Atom("q")})
        assert format_formula(out) == "(-> (not p) (and b (or c bot)))"
        assert out.right is formula.right
        assert substitute(formula, {"b": Atom("b")}) == formula


class TestMatching:
    def test_every_atom_is_a_metavariable(self):
        pattern = parse_formula("(-> a b)")
        target = parse_formula("(-> (not p) q)")
        bindings = match_pattern(pattern, target)
        assert bindings == {"a": parse_formula("(not p)"), "b": Atom("q")}

    def test_repeated_variable_must_agree(self):
        pattern = parse_formula("(-> a a)")
        assert match_pattern(pattern, parse_formula("(-> p p)")) == {"a": Atom("p")}
        assert match_pattern(pattern, parse_formula("(-> p q)")) is None

    def test_connectives_must_line_up(self):
        assert match_pattern(parse_formula("(and a b)"), parse_formula("(or p q)")) is None
        assert match_pattern(parse_formula("bot"), parse_formula("bot")) == {}
        assert match_pattern(parse_formula("bot"), parse_formula("p")) is None

    def test_seed_bindings_are_respected(self):
        pattern = parse_formula("(-> a b)")
        target = parse_formula("(-> p q)")
        seeded = match_pattern(pattern, target, {"a": Atom("r")})
        assert seeded is None
        kept = match_pattern(pattern, target, {"a": Atom("p")})
        assert kept == {"a": Atom("p"), "b": Atom("q")}

    @given(formulas(max_depth=3), formulas(max_depth=3))
    def test_match_then_substitute_reproduces_target(self, pattern, target):
        bindings = match_pattern(pattern, target)
        if bindings is not None:
            assert substitute(pattern, bindings) == target


class TestNotAFormula:
    @pytest.mark.parametrize("call", [
        format_formula,
        lambda bad: evaluate(bad, {}),
        lambda bad: match_pattern(Not(bad), Not(Atom("p"))),
    ], ids=["format_formula", "evaluate", "match_pattern"])
    def test_a_non_formula_is_refused_by_name(self, call):
        # text is not a formula until it is parsed
        with pytest.raises(TypeError) as err:
            call("p")
        assert str(err.value) == "not a formula: 'p'"


class TestEvaluation:
    def test_connective_tables(self):
        p, q = Atom("p"), Atom("q")
        rows = [
            (False, False), (False, True), (True, False), (True, True)
        ]
        for vp, vq in rows:
            env = {"p": vp, "q": vq}
            assert evaluate(And(p, q), env) == (vp and vq)
            assert evaluate(Or(p, q), env) == (vp or vq)
            assert evaluate(Implies(p, q), env) == ((not vp) or vq)
        assert evaluate(Not(p), {"p": True}) is False
        assert evaluate(Bottom(), {}) is False

    @given(formulas(max_depth=3))
    def test_excluded_middle_for_eval(self, formula):
        env = {name: True for name in atoms(formula)}
        value = evaluate(formula, env)
        assert evaluate(Not(formula), env) == (not value)


class TestHashing:
    def test_equal_formulas_built_apart_hash_equal(self):
        parsed = parse_formula("(-> (not p) (and q (or p bot)))")
        substituted = substitute(parse_formula("(-> (not a) b)"),
                                 {"a": Atom("p"), "b": parse_formula("(and q (or p bot))")})
        built = Implies(Not(Atom("p")), And(Atom("q"), Or(Atom("p"), Bottom())))
        assert parsed == substituted == built
        assert hash(parsed) == hash(substituted) == hash(built)
        assert len({parsed, substituted, built}) == 1

    @given(formulas(max_depth=4))
    def test_hash_is_the_child_tuple_hash(self, formula):
        # the cached hash keeps the value the generated dataclass hash gave
        if isinstance(formula, Not):
            assert hash(formula) == hash((formula.operand,))
        elif isinstance(formula, Binary):
            assert hash(formula) == hash((formula.left, formula.right))
        rebuilt = parse_formula(format_formula(formula))
        assert rebuilt == formula and hash(rebuilt) == hash(formula)

    def test_connectives_stay_distinct(self):
        p, q = Atom("p"), Atom("q")
        assert len({And(p, q), Or(p, q), Implies(p, q), And(q, p)}) == 4
        assert And(p, q) != Or(p, q) and Or(p, q) != Implies(p, q)
        assert [type(f).word for f in (And(p, q), Or(p, q), Implies(p, q))] == ["and", "or", "->"]
        assert not any(hasattr(f, "__dict__") for f in (And(p, q), Or(p, q), Implies(p, q)))
