import dataclasses
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import vty
import vty.cli
from vty.calculus import AxiomSchema, Calculus, SchemaRule, SubstitutionRule
from vty.errors import ManifestError, UnresolvedReferenceError
from vty.formulas import parse_formula
from vty.lex import LexError, Token, TokenFault, _scan_string, column, split_line, tokenize_line
from vty.manifest import (
    Bounds,
    _DIRECTIVES,
    _KEYWORDS,
    _take_fields,
    load_manifest,
    parse_manifest,
)
from vty.projection import (
    AxiomDeclaration,
    AxiomStatus,
    CITATION,
    ClassProfile,
    EXEC_EXHAUSTIVE,
    EXEC_POSITIVE,
    Evidence,
    SATISFIED,
    TheoremRecord,
    UNKNOWN,
    VIOLATED,
)
from vty.seed import seed_axiom_declarations, seed_manifest, seed_registry
from vty.varieties import (
    Component,
    FormulaMap,
    Prevariety,
    VarietyWitness,
    check_prevariety,
    check_variety,
)

from oracle_tools import (
    ORACLE_ENTRIES,
    ORACLE_HEADERS,
    oracle_read_entry,
    oracle_scan_string,
    oracle_take_fields,
    oracle_tokenize_line,
)

MINIMAL = """\
signature p q

rule mp {
  premise a
  premise (-> a b)
  conclude b
}

calculus L {
  depth 2
  axiom (-> p q)
  axiom p
  use mp
}

map ident identity

component C {
  calculus L
  axiom-map ident
  theorem-map ident
  theorem q
}

prevariety PV {
  component C
  auto
}
"""

# Text that uses every entry keyword of every block kind. The premises,
# schemas, use lines, prevariety components and statuses are deliberately
# out of alphabetical order: the reader keeps the given order.
ALL_ENTRIES = """\
signature p q r

bounds depth=2 atoms=12 enum=5000 size=900

rule mp {
  premise a
  premise (-> a b)
  conclude b
}

rule sub substitution

calculus L {
  depth 1
  atoms s t
  axiom (-> p q)
  axiom p
  schema K (-> a (-> b a))
  schema E (-> bot a)
  use sub mp
}

map ident identity

map ren renaming {
  rename a p
  rename b q
  domain (-> a b)
  domain a
}

map tab table {
  pair p q
  pair q p
  domain p
  domain q
}

map swap table {
  pair q p
}

component K1 {
  calculus L
  axiom-map ident
  theorem-map ident
  theorem (-> p q)
  theorem p
}

component K2 {
  calculus L
  axiom-map ren
  theorem-map tab
  theorem q
}

prevariety PV {
  quasi
  component K2
  component K1
  auto
}

prevariety EX {
  component K1
  axiom (-> p q)
  axiom p
  rule-ref mp sub
  theorem p
}

witness W {
  prevariety PV
  indices 1 2
  calculus L
  axiom-map ident
  theorem-map ident
  theorem (-> p q)
  theorem p
}

axiom-decl AX "says \\"quoted\\" and \\\\ slashed"

axiom-decl BX "second"

axiom-decl CX "third"

class C "A class" {
  status CX satisfied citation "a book"
  status AX violated exec-positive rm_self_loop_diverges 3
  status BX satisfied exec-exhaustive dfa_totality_exhaustive "small automata"
}

class D "Another" {
  status AX unknown
}

theorem-rec T1 {
  statement "holds"
  depends AX BX
  source "notes"
}

theorem-rec T2 {
  statement "always"
  source ""
  unconditional
}
"""


# a width-1 witness over MINIMAL's prevariety, for the witness validation tests
WITNESS = """
witness W {
  prevariety PV
  indices 1
  calculus L
  axiom-map ident
  theorem-map ident
}
"""


def failing(text, match):
    with pytest.raises(ManifestError) as err:
        parse_manifest(text)
    assert match in str(err.value)
    return err.value


DATA_FILES = (
    "bijective_modes.vty",
    "inconsistent_kb.vty",
    "seed_registry.vty",
    "shared_core.vty",
    "shared_core_nowitness.vty",
)

# the block keyword that opens each kind of block, by Manifest attribute
BLOCK_KEYWORDS = {
    "rules": "rule", "calculi": "calculus", "maps": "map", "components": "component",
    "prevarieties": "prevariety", "witnesses": "witness", "axiom_decls": "axiom-decl",
    "classes": "class", "theorem_recs": "theorem-rec",
}


def manifest_text(data_dir, name):
    if name == "all_entries":
        return ALL_ENTRIES
    return (data_dir / name).read_text(encoding="utf-8")


def noisy(text):
    """The same manifest with every line re-indented by a tab, a comment
    after it, and a comment line and a blank line between any two."""
    return "".join(f"\t{line.strip()}  # note\n# between\n\n" if line.strip() else "\n"
                   for line in text.splitlines())


class TestShippedFiles:
    @pytest.mark.parametrize("name", DATA_FILES + ("all_entries",))
    def test_load_and_parse_agree(self, data_dir, tmp_path, name):
        text = manifest_text(data_dir, name)
        path = tmp_path / "copy.vty"
        path.write_bytes(text.encode("utf-8"))
        loaded = load_manifest(path)
        assert loaded == parse_manifest(text)
        assert loaded.source == str(path)

    @pytest.mark.parametrize("name", DATA_FILES + ("all_entries",))
    def test_comments_blank_lines_and_indentation_change_nothing(self, data_dir, name):
        text = manifest_text(data_dir, name)
        assert noisy(text) != text
        manifest = parse_manifest(text)
        again = parse_manifest(noisy(text))
        assert again == manifest
        assert again.registry() == manifest.registry()

    @pytest.mark.parametrize("name", DATA_FILES + ("all_entries",))
    def test_each_def_records_the_line_that_opens_it(self, data_dir, name):
        # a copy of a block put before it makes the block itself the
        # duplicate, which is reported at the line that opens it
        lines = manifest_text(data_dir, name).splitlines()
        manifest = parse_manifest("\n".join(lines))
        opening = [i for i, line in enumerate(lines)
                   if line[:1].isalpha() and line.split()[0] in BLOCK_KEYWORDS.values()]
        assert len(opening) == sum(len(getattr(manifest, attr)) for attr in BLOCK_KEYWORDS)
        for i in opening:
            keyword, ident = lines[i].split()[:2]
            copy = lines[i:lines.index("}", i) + 1] if lines[i].endswith("{") else [lines[i]]
            with pytest.raises(ManifestError) as err:
                parse_manifest("\n".join(lines[:i] + copy + lines[i:]), source="w.vty")
            assert str(err.value) == f"w.vty:{i + 1 + len(copy)}:1: duplicate {keyword} {ident!r}"


def test_a_manifest_without_bounds_gets_the_default_bounds():
    assert parse_manifest(MINIMAL).bounds == Bounds()


@pytest.mark.parametrize("values, message", [
    ({"depth": -1}, "depth bound must be nonnegative"),
    ({"size": 0}, "atoms, enum and size bounds must be positive"),
])
def test_bounds_refuse_values_out_of_range(values, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Bounds(**values)


def test_bounds_to_dict_lists_every_bound_in_field_order():
    bounds = Bounds(depth=1, atoms=2, enum=3, size=4)
    assert list(bounds.to_dict().items()) == list(dataclasses.asdict(bounds).items())


class TestAllEntries:
    def test_parsed_values(self):
        m = parse_manifest(ALL_ENTRIES)
        f = parse_formula
        assert m.signature == ("p", "q", "r")
        assert m.bounds == Bounds(depth=2, atoms=12, enum=5000, size=900)
        mp, sub = m.rules
        assert mp == SchemaRule("mp", (f("a"), f("(-> a b)")), f("b"))
        assert sub == SubstitutionRule("sub")
        (calc,) = m.calculi
        assert calc == Calculus(
            "L", axioms=frozenset({f("(-> p q)"), f("p")}),
            schemas=(AxiomSchema("K", f("(-> a (-> b a))")), AxiomSchema("E", f("(-> bot a)"))),
            rules=(sub, mp), closure_depth=1, signature_atoms=frozenset("pqrst"))
        ident, ren, tab, swap = m.maps
        assert ident == FormulaMap.identity("ident")
        assert ren == FormulaMap("ren", renaming=(("a", "p"), ("b", "q")),
                                 domain=frozenset({f("(-> a b)"), f("a")}))
        assert tab == FormulaMap("tab", table=((f("p"), f("q")), (f("q"), f("p"))),
                                 domain=frozenset({f("p"), f("q")}))
        assert swap == FormulaMap("swap", table=((f("q"), f("p")),))
        k1, k2 = m.components
        assert k1 == Component("K1", calc, ident, ident, frozenset({f("(-> p q)"), f("p")}))
        assert k2 == Component("K2", calc, ren, tab, frozenset({f("q")}))
        assert k2.calculus is calc and k2.axiom_map is ren and k2.theorem_map is tab
        pv, ex = m.prevarieties
        assert (pv.prevariety_id, pv.quasi, pv.union) == ("PV", True, None)
        assert pv.components[0] is k2 and pv.components[1] is k1
        assert (ex.prevariety_id, ex.quasi, ex.components) == ("EX", False, (k1,))
        assert m.prevariety("EX") == Prevariety(
            frozenset({f("(-> p q)"), f("p")}), frozenset({mp, sub}), frozenset({f("p")}), (k1,))
        (wit,) = m.prevariety_witnesses("PV")
        assert m.witnesses == (("PV", wit),)
        assert wit == VarietyWitness(
            (1, 2), Component("W", calc, ident, ident, frozenset({f("(-> p q)"), f("p")})))
        assert wit.covering.calculus is calc
        assert list(m.axiom_decls.values()) == [
            AxiomDeclaration("AX", 'says "quoted" and \\ slashed'),
            AxiomDeclaration("BX", "second"), AxiomDeclaration("CX", "third")]
        c, d = m.classes
        assert c == ClassProfile("C", "A class", {
            "CX": AxiomStatus(SATISFIED, Evidence(CITATION, citation="a book")),
            "AX": AxiomStatus(VIOLATED, Evidence(
                EXEC_POSITIVE, witness_id="rm_self_loop_diverges", suite_size=3)),
            "BX": AxiomStatus(SATISFIED, Evidence(
                EXEC_EXHAUSTIVE, witness_id="dfa_totality_exhaustive", domain="small automata")),
        })
        assert list(c.statuses) == ["CX", "AX", "BX"]
        assert d == ClassProfile("D", "Another", {"AX": AxiomStatus(UNKNOWN)})
        assert m.theorem_recs == (
            TheoremRecord("T1", "holds", frozenset({"AX", "BX"}), "notes", False),
            TheoremRecord("T2", "always", frozenset(), "", True))

    def test_scrambled_entries_normalize_to_the_fixture(self):
        scrambled = (ALL_ENTRIES
                     .replace("signature p q r", "signature r p q")
                     .replace("  axiom (-> p q)\n  axiom p\n  schema",
                              "  axiom p\n  axiom (-> p q)\n  schema")
                     .replace("  rename a p\n  rename b q", "  rename b q\n  rename a p")
                     .replace("  pair p q\n  pair q p", "  pair q p\n  pair p q")
                     .replace("rule-ref mp sub", "rule-ref sub\n  rule-ref mp")
                     .replace("depends AX BX", "depends BX AX"))
        assert scrambled != ALL_ENTRIES

        def objects(manifest):
            # PV is auto, and its components' maps do not assemble; EX lists its union
            return (manifest.calculi, manifest.maps, manifest.components, manifest.witnesses,
                    manifest.prevariety("EX"), manifest.registry())

        assert objects(parse_manifest(scrambled)) == objects(parse_manifest(ALL_ENTRIES))


# (text, message, line, 1-based column) for errors raised while parsing
BIG = "9" * 4400

PARSE_ERRORS = [
    ("rule mp {\n  premise a\n  conclude a\n  conclude a\n}\n",
     "conclude given twice", 4, 1),
    ("rule mp {\n  premise a\n}\n", "rule 'mp' never concludes", 1, 1),
    ("rule mp {\n  assume a\n}\n", "unknown rule entry 'assume'", 2, 3),
    ("rule mp {\n  (a)\n}\n", "expected premise or conclude, found '('", 2, 3),
    ("calculus L {\n  depth 1\n  depth 2\n}\n", "depth given twice", 3, 1),
    ("calculus L {\n  depth x\n}\n", "expected a depth, found 'x'", 2, 9),
    ("calculus L {\n  depth \u00b2\n}\n", "expected a depth, found '\u00b2'", 2, 9),
    # digits of another script, which str.isdecimal and int() read
    ("calculus L {\n  depth \u0663\n}\n", "expected a depth, found '\u0663'", 2, 9),
    ("witness W {\n  indices 1 \uff12\n}\n", "expected an index, found '\uff12'", 2, 13),
    ("calculus L {\n  atoms p Q\n}\n", "bad atom name 'Q'", 2, 11),
    ("calculus L {\n  atoms p bot\n}\n", "bad atom name 'bot'", 2, 11),
    ("calculus L {\n  axiom p q\n}\n", "unexpected trailing 'q'", 2, 11),
    ("calculus L {\n  lemma p\n}\n", "unknown calculus entry 'lemma'", 2, 3),
    ("calculus L extra {\n}\n", "unexpected trailing 'extra'", 1, 12),
    ("map m bijection {\n}\n", "unknown map kind 'bijection'", 1, 1),
    ("map m renaming {\n  pair p q\n}\n", "unknown renaming map entry 'pair'", 2, 3),
    ("map m table {\n  rename a p\n}\n", "unknown table map entry 'rename'", 2, 3),
    ("map m renaming {\n  rename a\n}\n", "expected an atom name", 2, 11),
    ("map m renaming {\n  rename a bot\n}\n", "bad atom name 'bot'", 2, 12),
    ("map m renaming {\n  rename bot p\n}\n", "bad atom name 'bot'", 2, 10),
    ("map m table {\n  pair p\n}\n", "expected a formula", 2, 9),
    ("component C {\n  calculus L\n  calculus L\n}\n", "calculus given twice", 3, 1),
    ("component C {\n  calculus L\n  theorem-map m\n}\n",
     "component 'C' never names its axiom-map", 1, 1),
    ("component C {\n  calculus\n}\n", "expected a calculus id", 2, 11),
    ("component C {\n  axiom p\n}\n", "unknown component entry 'axiom'", 2, 3),
    ("witness W {\n  prevariety PV\n  prevariety PV\n}\n", "prevariety given twice", 3, 1),
    ("witness W {\n  prevariety PV\n  indices 1\n  calculus L\n  axiom-map m\n}\n",
     "witness 'W' never names its theorem-map", 1, 1),
    ("witness W {\n  indices 1\n  indices 2\n}\n", "indices given twice", 3, 1),
    # an empty line counts as the first
    ("witness W {\n  indices\n  indices 1\n}\n", "indices given twice", 3, 1),
    ("witness W {\n  indices 1 x\n}\n", "expected an index, found 'x'", 2, 13),
    ("prevariety PV {\n  auto\n}\n", "prevariety 'PV' lists no components", 1, 1),
    ("prevariety PV {\n  quasi yes\n}\n", "unexpected trailing 'yes'", 2, 9),
    # only an entry that collects may repeat; a second single-valued line or
    # flag would overwrite the first, or say nothing
    ("prevariety PV {\n  component C\n  quasi\n  quasi\n}\n", "quasi given twice", 4, 1),
    ("prevariety PV {\n  component C\n  auto\n  auto\n}\n", "auto given twice", 4, 1),
    ('class X "X" {\n  status AX maybe\n}\n', "unknown status 'maybe'", 2, 13),
    # a string or a parenthesis where a word is read
    ('class X "X" {\n  status "AX" satisfied\n}\n', "expected an axiom id, found 'AX'", 2, 10),
    ("component C {\n  calculus (\n}\n", "expected a calculus id, found '('", 2, 12),
    ('class X "X" {\n  status AX satisfied exec-positive ( 3\n}\n',
     "expected a witness id, found '('", 2, 37),
    ('class X "X" {\n  status AX satisfied rumour "x"\n}\n',
     "unknown evidence kind 'rumour'", 2, 23),
    ('class X "X" {\n  status AX satisfied citation ""\n}\n',
     "citation evidence needs citation text", 2, 1),
    ('class X "X" {\n  status AX satisfied exec-positive w n\n}\n',
     "expected a suite size, found 'n'", 2, 39),
    ('class X "X" {\n  score AX\n}\n', "unknown class entry 'score'", 2, 3),
    ("class X {\n}\n", "expected a quoted display name", 1, 8),
    ('theorem-rec t {\n  source "s"\n}\n', "theorem-rec 't' needs a statement", 1, 1),
    ('theorem-rec t {\n  statement s\n}\n', "expected a quoted statement", 2, 13),
    ('theorem-rec t {\n  proof "s"\n}\n', "unknown theorem entry 'proof'", 2, 3),
    ('theorem-rec t {\n  statement "a"\n  statement "b"\n}\n', "statement given twice", 3, 1),
    ('theorem-rec t {\n  statement "a"\n  source "x"\n  source "y"\n}\n',
     "source given twice", 4, 1),
    ('theorem-rec t {\n  statement "a"\n  unconditional\n  unconditional\n}\n',
     "unconditional given twice", 4, 1),
    ("widget w {\n}\n", "unknown block keyword 'widget'", 1, 1),
    ("axiom-decl AX {\n}\n", "unknown block keyword 'axiom-decl'", 1, 1),
    ("calculus L\n", "unknown directive 'calculus'", 1, 1),
    ("axiom-decl AX\n", "expected a quoted statement", 1, 14),
    ("signature p bot\n", "bad atom name 'bot'", 1, 13),
    ("signature p\nsignature q\n", "signature given twice", 2, 1),
    ("bounds depth=1 size=0\n", "atoms, enum and size bounds must be positive", 1, 1),
    ("bounds depth=1\nbounds depth=2\n", "bounds given twice", 2, 1),
    ("bounds depth=1 frob=2\n", "unknown bound 'frob'", 1, 16),
    ("bounds depth=\u00b2\n", "bound 'depth' needs an integer", 1, 8),
    ("bounds depth=\u0662\n", "bound 'depth' needs an integer", 1, 8),
    # integers with more digits than int() converts (4 300 by default)
    (f"calculus L {{\n  depth {BIG}\n}}\n", "a depth has too many digits (4400)", 2, 9),
    (f"bounds depth=1 size={BIG}\n", "bound 'size' has too many digits (4400)", 1, 16),
    (f"witness W {{\n  indices 1 {BIG}\n}}\n", "an index has too many digits (4400)", 2, 13),
    (f'class X "X" {{\n  status AX satisfied exec-positive w {BIG}\n}}\n',
     "a suite size has too many digits (4400)", 2, 39),
]


def case_ids(cases):
    """Each case's message, numbered from 2 where an earlier case has it."""
    seen = Counter()
    for _, message, *_ in cases:
        seen[message] += 1
        yield message if seen[message] == 1 else f"{message} {seen[message]}"


@pytest.mark.parametrize("text, message, line, col", PARSE_ERRORS,
                         ids=list(case_ids(PARSE_ERRORS)))
def test_parse_error_location(text, message, line, col):
    with pytest.raises(ManifestError) as err:
        parse_manifest(text, source="w.vty")
    assert str(err.value) == f"w.vty:{line}:{col}: {message}"


@pytest.mark.parametrize("text, message, line, col", PARSE_ERRORS,
                         ids=list(case_ids(PARSE_ERRORS)))
def test_a_commented_faulty_line_gives_the_same_fault(text, message, line, col):
    # a line with a comment is split by `tokenize_line`, not by one findall
    lines = text.split("\n")
    lines[line - 1] += "  # c"
    with pytest.raises(ManifestError) as err:
        parse_manifest("\n".join(lines), source="w.vty")
    assert str(err.value) == f"w.vty:{line}:{col}: {message}"


class TestParseErrors:
    def test_unknown_directive_names_itself(self):
        err = failing("widget w\n", "unknown directive 'widget'")
        assert err.line == 1

    def test_location_format(self):
        with pytest.raises(ManifestError) as err:
            parse_manifest("\nwidget w\n", source="world.vty")
        assert str(err.value).startswith("world.vty:2:1: ")

    def test_lex_error_is_located(self):
        err = failing("signature p!\n", "")
        assert err.line == 1
        assert err.col > 0

    def test_signature_needs_atoms(self):
        failing("signature\n", "signature needs at least one atom")
        failing("signature P\n", "bad atom name 'P'")
        failing("signature p\nsignature q\n", "signature given twice")

    def test_bounds_errors(self):
        failing("bounds depth\n", "bounds entries look like depth=3")
        assert failing('bounds depth=1 "depth=3"\n', "bounds entries look like depth=3").col == 15
        failing("bounds width=3\n", "unknown bound 'width'")
        failing("bounds depth=3 depth=4\n", "bound 'depth' given twice")
        failing("bounds depth=x\n", "bound 'depth' needs an integer")
        failing("bounds depth=1\nbounds depth=2\n", "bounds given twice")

    def test_unclosed_block(self):
        err = failing("rule mp {\n  premise a\n", "unclosed rule block")
        assert err.line == 1

    def test_nested_braces(self):
        failing("rule mp {\n  rule inner {\n", "braces may not nest")

    def test_trailing_tokens(self):
        failing("map m identity extra\n", "unexpected trailing 'extra'")

    def test_substitution_is_the_only_line_rule(self):
        failing("rule s frobnicate\n", "expected substitution, found 'frobnicate'")

    def test_only_identity_maps_fit_on_one_line(self):
        failing("map m renaming\n", "renaming and table maps need a block")


class TestValidation:
    def test_duplicate_ids(self):
        failing(MINIMAL + "\nmap ident identity\n", "duplicate map 'ident'")
        failing(
            MINIMAL.replace("map ident identity",
                            "map ident identity\n\nprevariety PV {\n  component C\n  auto\n}"),
            "duplicate prevariety 'PV'",
        )

    @pytest.mark.parametrize("kind, entries", [
        ("renaming", "  rename p q\n  rename p r\n"),
        ("table", "  pair p q\n  pair p r\n"),
    ])
    def test_map_listing_a_source_twice_is_located(self, kind, entries):
        text = MINIMAL.replace("map ident identity",
                               f"map ident identity\n\nmap twice {kind} {{\n{entries}}}")
        line = text.splitlines().index(f"map twice {kind} {{") + 1
        with pytest.raises(ManifestError) as err:
            parse_manifest(text, source="w.vty")
        assert str(err.value) == f"w.vty:{line}:1: map 'twice' lists a source formula twice"

    def test_unresolved_calculus(self):
        text = MINIMAL.replace("calculus L\n", "calculus GONE\n")
        with pytest.raises(UnresolvedReferenceError) as err:
            parse_manifest(text)
        assert "unknown calculus 'GONE'" in str(err.value)

    def test_unresolved_map(self):
        text = MINIMAL.replace("axiom-map ident\n", "axiom-map gone\n")
        with pytest.raises(UnresolvedReferenceError):
            parse_manifest(text)

    def test_unresolved_component(self):
        text = MINIMAL.replace("component C\n", "component GONE\n")
        with pytest.raises(UnresolvedReferenceError):
            parse_manifest(text)

    def test_unresolved_rule_use(self):
        text = MINIMAL.replace("use mp", "use contraction")
        with pytest.raises(UnresolvedReferenceError):
            parse_manifest(text)

    def test_auto_conflicts_with_explicit_union(self):
        text = MINIMAL.replace("  component C\n  auto\n", "  component C\n  auto\n  axiom p\n")
        failing(text, "says auto but also claims an explicit union")

    def test_witness_indices_must_increase(self):
        witness = WITNESS.replace("  indices 1\n", "  indices 1 1\n")
        failing(MINIMAL + witness, "strictly increasing indices")
        failing(MINIMAL + WITNESS.replace("  indices 1\n", "  indices\n"),
                "strictly increasing indices")

    def test_witness_indices_must_be_in_range(self):
        witness = WITNESS.replace("  indices 1\n", "  indices 2\n")
        failing(MINIMAL + witness, "index out of range 1..1")

    def test_witness_needs_a_known_prevariety(self):
        witness = WITNESS.replace("  prevariety PV\n", "  prevariety GONE\n")
        with pytest.raises(UnresolvedReferenceError):
            parse_manifest(MINIMAL + witness)

    @pytest.mark.parametrize("edits, message", [
        ((("calculus L", "calculus GONE"),), "unknown calculus 'GONE'"),
        ((("axiom-map ident", "axiom-map gone"),), "unknown map 'gone'"),
        ((("theorem-map ident", "theorem-map gone"),), "unknown map 'gone'"),
        # references resolve in entry order: calculus, axiom map, theorem map
        ((("calculus L", "calculus GONE"), ("axiom-map ident", "axiom-map gone")),
         "unknown calculus 'GONE'"),
        ((("axiom-map ident", "axiom-map first"), ("theorem-map ident", "theorem-map second")),
         "unknown map 'first'"),
    ])
    def test_witness_references_must_resolve(self, edits, message):
        witness = WITNESS
        for old, new in edits:
            witness = witness.replace(f"  {old}\n", f"  {new}\n")
        text = MINIMAL + witness
        line = text.splitlines().index("witness W {") + 1
        with pytest.raises(UnresolvedReferenceError) as err:
            parse_manifest(text, source="w.vty")
        assert str(err.value) == f"w.vty:{line}:1: {message}"

    def test_witness_index_fault_comes_before_its_references(self):
        witness = WITNESS.replace("  indices 1\n", "  indices 1 1\n").replace(
            "  calculus L\n", "  calculus GONE\n")
        text = MINIMAL + witness
        line = text.splitlines().index("witness W {") + 1
        with pytest.raises(ManifestError) as err:
            parse_manifest(text, source="w.vty")
        assert type(err.value) is ManifestError
        assert str(err.value) == f"w.vty:{line}:1: witness 'W' needs strictly increasing indices"

    # validation runs block kind by block kind, not in text order: duplicate
    # ids, then rules, calculi, maps, components, ..., classes, theorem records
    @pytest.mark.parametrize("text, message", [
        ("signature p\n\ncalculus L {\n  axiom p\n}\n\nmap ident identity\n\n"
         "component C {\n  calculus L\n  axiom-map ident\n  theorem-map gone\n}\n"
         "calculus L {\n  axiom p\n}\n",
         "<manifest>:14:1: duplicate calculus 'L'"),
        ('axiom-decl A "a"\ntheorem-rec T {\n  statement "s"\n  depends Z\n}\n'
         'class K "k" {\n  status B unknown\n}\n',
         "<manifest>:6:1: class 'K' scores undeclared axiom 'B'"),
    ], ids=["duplicate before unknown map", "class before theorem record"])
    def test_of_two_faults_the_earlier_block_kind_is_reported(self, text, message):
        with pytest.raises(ManifestError) as err:
            parse_manifest(text)
        assert str(err.value) == message

    def test_class_requires_declared_axioms(self):
        text = 'class X "X" {\n  status NOPE satisfied citation "book"\n}\n'
        with pytest.raises(UnresolvedReferenceError) as err:
            parse_manifest(text)
        assert "undeclared axiom 'NOPE'" in str(err.value)

    def test_class_scores_each_axiom_once(self):
        # a second status for one axiom would silently replace the first
        text = ('axiom-decl A "a"\n\n'
                'class C "c" {\n  status A satisfied citation "x"\n'
                '  status A violated citation "y"\n}\n')
        with pytest.raises(ManifestError) as err:
            parse_manifest(text, source="w.vty")
        assert type(err.value) is ManifestError
        assert str(err.value) == "w.vty:3:1: class 'C' scores axiom 'A' twice"

    def test_class_evidence_witness_must_exist(self):
        text = (
            'axiom-decl AX "says"\n\n'
            'class X "X" {\n  status AX satisfied exec-positive nope 3\n}\n'
        )
        with pytest.raises(UnresolvedReferenceError) as err:
            parse_manifest(text)
        assert "unknown executable witness 'nope'" in str(err.value)

    def test_theorem_rec_dependencies_must_be_declared(self):
        text = (
            'axiom-decl AX "says"\n\n'
            'theorem-rec t {\n  statement "holds"\n  depends AX MISSING\n'
            '  source "notes"\n}\n'
        )
        with pytest.raises(UnresolvedReferenceError) as err:
            parse_manifest(text)
        assert "undeclared axiom 'MISSING'" in str(err.value)

    def test_bad_component_objects_fail_at_their_line(self):
        text = MINIMAL.replace("depth 2", "depth 2\n  axiom p\n  axiom p")
        manifest = parse_manifest(text)  # duplicate axiom lines collapse in a set
        assert manifest.calculus("L").axioms == frozenset({parse_formula("p"), parse_formula("(-> p q)")})


class TestResolution:
    def test_shared_core_resolves_and_checks(self, data_dir):
        manifest = load_manifest(data_dir / "shared_core.vty")
        pv = manifest.prevariety("SHARED")
        assert len(pv.components) == 2
        assert check_prevariety(pv).passed
        witnesses = manifest.prevariety_witnesses("SHARED")
        assert [w.covering.component_id for w in witnesses] == ["W12"]
        assert check_variety(pv, 2, witnesses).passed

    def test_missing_witness_file_fails_width_two(self, data_dir):
        manifest = load_manifest(data_dir / "shared_core_nowitness.vty")
        pv = manifest.prevariety()
        report = check_variety(pv, 2, manifest.prevariety_witnesses())
        assert not report.passed
        assert any(d.code == "MISSING_WITNESS" for d in report.diagnostics)

    def test_default_prevariety_requires_exactly_one(self, data_dir):
        manifest = load_manifest(data_dir / "shared_core.vty")
        assert manifest.default_prevariety_id() == "SHARED"
        registry_only = parse_manifest('axiom-decl AX "says"\n')
        with pytest.raises(ManifestError):
            registry_only.default_prevariety_id()

    def test_explicit_union_is_used_verbatim(self, data_dir):
        manifest = load_manifest(data_dir / "inconsistent_kb.vty")
        pv = manifest.prevariety("KB")
        assert pv.axioms == frozenset({parse_formula("p"), parse_formula("(not p)")})
        assert check_prevariety(pv).passed

    def test_calculus_depth_defaults_to_bounds(self):
        text = MINIMAL.replace("  depth 2\n", "")
        manifest = parse_manifest(text)
        assert manifest.calculus("L").closure_depth == manifest.bounds.depth

    def test_signature_atoms_feed_the_calculus(self):
        manifest = parse_manifest(MINIMAL)
        calc = manifest.calculus("L")
        assert {"p", "q"} <= set(calc.signature_atoms)


@pytest.fixture
def builds(monkeypatch):
    """Counts each Calculus, FormulaMap and Component built, by type and id."""
    counts: Counter = Counter()
    for cls in (Calculus, FormulaMap, Component):
        def counting(self, *args, real=cls.__init__, **kwargs):
            real(self, *args, **kwargs)
            counts[type(self).__name__, getattr(self, dataclasses.fields(self)[0].name)] += 1

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


class TestEachObjectBuiltOnce:
    @pytest.mark.parametrize("path", [
        Path(__file__).parent / "data" / "knowledge_five.vty",
        Path(vty.__file__).parent / "data" / "shared_core.vty",
    ], ids=["knowledge_five", "shared_core"])
    def test_parse_then_prevariety_builds_each_object_once(self, builds, path):
        manifest = load_manifest(path)
        for pv in manifest.prevarieties:
            manifest.prevariety(pv.prevariety_id)
            manifest.prevariety_witnesses(pv.prevariety_id)
        assert manifest.witnesses or path.stem == "knowledge_five"
        assert builds == Counter(
            [("Calculus", c.calculus_id) for c in manifest.calculi]
            + [("FormulaMap", m.map_id) for m in manifest.maps]
            + [("Component", c.component_id) for c in manifest.components]
            + [("Component", w.covering.component_id) for _, w in manifest.witnesses])

    def test_a_bounds_override_builds_each_object_once(self, builds, capsys):
        path = Path(vty.__file__).parent / "data" / "shared_core.vty"
        assert vty.cli.main(["check-prevariety", str(path), "--bounds", "depth=2"]) == 0
        capsys.readouterr()
        assert [key for key in builds if key[0] == "Calculus"] == [
            ("Calculus", "L1"), ("Calculus", "L2"), ("Calculus", "CORE")]
        assert set(builds.values()) == {1}

    def test_lookups_return_the_objects_validation_built(self, data_dir):
        manifest = load_manifest(data_dir / "shared_core.vty")
        pv = manifest.prevariety("SHARED")
        assert pv.components == tuple(manifest.component(c.component_id)
                                      for c in manifest.components)
        assert all(a is b for a, b in zip(pv.components, manifest.prevariety("SHARED").components))
        witness = manifest.prevariety_witnesses("SHARED")[0]
        assert witness.covering.calculus is manifest.calculus("CORE")

    def test_a_bounds_override_builds_the_calculi_at_the_merged_depth(self):
        undepthed = MINIMAL.replace("  depth 2\n", "")
        assert parse_manifest(undepthed).calculus("L").closure_depth == 3
        deeper = parse_manifest(undepthed, bounds={"depth": 5})
        assert deeper.bounds == Bounds(depth=5)
        assert deeper.calculus("L").closure_depth == 5
        assert deeper.component("C").calculus is deeper.calculus("L")
        # a calculus's own depth entry outranks the bounds, overridden or not
        assert parse_manifest(MINIMAL, bounds={"depth": 5}).calculus("L").closure_depth == 2

    def test_a_manifest_fault_comes_before_a_bad_bounds_override(self):
        text = MINIMAL.replace("  calculus L\n", "  calculus nope\n")
        with pytest.raises(UnresolvedReferenceError) as err:
            parse_manifest(text, bounds={"size": 0})
        assert str(err.value) == "<manifest>:18:1: unknown calculus 'nope'"
        with pytest.raises(ValueError) as err:
            parse_manifest(MINIMAL, bounds={"size": 0})
        assert type(err.value) is ValueError
        assert str(err.value) == "atoms, enum and size bounds must be positive"

    def test_two_reads_are_equal_and_share_no_object(self):
        first, second = parse_manifest(MINIMAL), parse_manifest(MINIMAL)
        assert first == second
        assert repr(first) == repr(second)
        assert first.calculus("L") is not second.calculus("L")
        assert first.components[0] is not second.components[0]
        with pytest.raises(TypeError):  # the axiom declarations are a dict
            hash(first)


def scan_outcome(scan, line: str, start: int):
    try:
        return scan(line, start)
    except LexError as err:
        return err.message, err.col


class TestStringScan:
    @given(st.text(alphabet='ab "\\#', max_size=14))
    @settings(max_examples=400)
    def test_scan_matches_the_per_character_oracle(self, line):
        for start in (i for i, ch in enumerate(line) if ch == '"'):
            assert scan_outcome(_scan_string, line, start) == \
                scan_outcome(oracle_scan_string, line, start)

    @pytest.mark.parametrize("line, start, outcome", [
        ('"plain" tail', 0, ("plain", 7)),
        ('x ""', 2, ("", 4)),
        ('"a\\"b" c', 0, ('a"b', 6)),
        ('"a\\\\" c', 0, ("a\\", 5)),
        ('"a\\x"', 0, ("bad escape in string", 2)),
        ('"ab\\', 0, ("bad escape in string", 3)),
        ('  "ab', 2, ("unterminated string", 2)),
    ])
    def test_escapes_and_errors(self, line, start, outcome):
        assert scan_outcome(_scan_string, line, start) == outcome


class TestLineLexer:
    @given(st.text(alphabet=' \t#(){}"\\\n\r\x0bapéλж', max_size=16))
    @settings(max_examples=500)
    def test_tokens_match_the_per_character_oracle(self, line):
        try:
            expected = oracle_tokenize_line(line)
        except LexError as err:
            with pytest.raises(LexError) as got:
                tokenize_line(line)
            assert (got.value.message, got.value.col) == (err.message, err.col)
        else:
            assert tokenize_line(line) == expected

    def test_each_token_kind(self):
        assert tokenize_line('é(a "b\\"c" {}) "" # "x') == [
            Token("WORD", "é", 0), Token("LPAREN", "(", 1), Token("WORD", "a", 2),
            Token("STRING", 'b"c', 4), Token("LBRACE", "{", 11), Token("RBRACE", "}", 12),
            Token("RPAREN", ")", 13), Token("STRING", "", 15),
        ]


def split_outcome(line: str):
    try:
        return split_line(line)
    except LexError as err:
        return err.message, err.col


class TestSplitLine:
    @given(st.text(alphabet='(){}"\\# \t\x0caé', max_size=16))
    @settings(max_examples=500)
    def test_texts_and_columns_match_the_tokenizer(self, line):
        try:
            tokens = tokenize_line(line)
        except LexError as err:
            assert split_outcome(line) == (err.message, err.col)
            return
        assert split_line(line) == [
            f'"{tok.text}"' if tok.kind == "STRING" else tok.text for tok in tokens]
        width = len(tokens)
        assert [column(line, i, width) for i in range(width)] == [tok.col for tok in tokens]
        if tokens:
            assert column(line, width, width) == tokens[-1].col + len(tokens[-1].text)

    # each line breaks one condition of the one-findall path
    @pytest.mark.parametrize("line, outcome", [
        ('a (b) # c "d"', ["a", "(", "b", ")"]),
        ('a "b', ("unterminated string", 2)),
        ('"a\\\\" b', ['"a\\"', "b"]),
        ('x "{ }" {', ["x", '"{ }"', "{"]),
    ], ids=["comment", "odd quote", "escape", "plain"])
    def test_each_guard(self, line, outcome):
        assert split_outcome(line) == outcome


def read_outcome(read, *args):
    """A reader's value, or its fault with the token index or column it names."""
    try:
        return "value", read(*args)
    except TokenFault as err:
        return "token fault", err.message, err.index
    except LexError as err:
        return "line fault", err.message, err.col


# every entry row of the block table, by block keyword ("" for a directive)
ENTRY_ROWS = [(spec.keyword, row) for spec in _KEYWORDS.values() for row in spec.entries] \
    + [("", row) for row in _DIRECTIVES.values()]

# the texts an entry line is drawn from after its keyword: words (some of
# them a row's own keywords), strings, parentheses and digits
LINE_TEXTS = st.one_of(
    st.sampled_from(["p", "q", "a1", "bot", "Q", "\u00e9", "not", "and", "->", "satisfied",
                     "violated", "unknown", "citation", "exec-positive", "exec-exhaustive",
                     "depth=2", "size=0", "frob=1", "depth="]),
    st.sampled_from(['""', '"x"', '"a b"']),
    st.sampled_from(["(", ")"]),
    st.sampled_from(["0", "1", "12", "\u00b2", BIG]),
)


def oracle_walk(text: str):
    """Each line of a manifest text read by the table's readers and by the
    generic oracle chain: (line, outcome, oracle outcome) for each header,
    directive and entry line, with each block's values kept line by line."""
    block = None
    for number, raw in enumerate(text.splitlines(), start=1):
        texts = split_line(raw)
        if not texts or texts == ["}"]:
            block = None
            continue
        if texts[-1] == "{":
            block, values, expected = texts[0], {}, {}
            yield number, read_outcome(_take_fields, _KEYWORDS[block].header, texts[:-1], 1), \
                read_outcome(oracle_take_fields, ORACLE_HEADERS[block], texts[:-1], 1)
        elif block is None and texts[0] in _DIRECTIVES:
            row, values, expected = _DIRECTIVES[texts[0]], {}, {}
            yield number, read_outcome(row.read, values, texts), \
                read_outcome(oracle_read_entry, row, ORACLE_ENTRIES[""][row.keyword],
                             expected, texts)
        elif block is None:
            yield number, read_outcome(_take_fields, _KEYWORDS[texts[0]].header, texts, 1), \
                read_outcome(oracle_take_fields, ORACLE_HEADERS[texts[0]], texts, 1)
        else:
            row = next(row for row in _KEYWORDS[block].entries if row.keyword == texts[0])
            yield number, read_outcome(row.read, values, texts), \
                read_outcome(oracle_read_entry, row, ORACLE_ENTRIES[block][row.keyword],
                             expected, texts)
            assert values == expected


class TestEntryReadersMatchTheOracle:
    """The table's value readers and `_Entry.read` read each line as the
    generic `_take_word`/`_seq`/`_take_fields` chain in oracle_tools does."""

    def test_the_oracle_covers_every_row(self):
        assert set(ORACLE_HEADERS) == set(_KEYWORDS)
        assert {(block, row.keyword) for block, row in ENTRY_ROWS} == {
            (block, keyword) for block, rows in ORACLE_ENTRIES.items() for keyword in rows}

    @pytest.mark.parametrize("name", DATA_FILES + ("all_entries",))
    def test_every_line_of_the_shipped_files(self, data_dir, name):
        walked = list(oracle_walk(manifest_text(data_dir, name)))
        assert walked
        for number, outcome, expected in walked:
            assert outcome == expected, number

    @pytest.mark.parametrize("block, row", ENTRY_ROWS,
                             ids=[f"{block or 'directive'} {row.keyword}" for block, row in ENTRY_ROWS])
    @given(tails=st.lists(st.lists(LINE_TEXTS, max_size=6), min_size=1, max_size=2))
    @settings(max_examples=40)
    def test_entry_lines(self, block, row, tails):
        # one or two lines of the row, read into the same values
        arg = ORACLE_ENTRIES[block][row.keyword]
        values, expected = {}, {}
        for tail in tails:
            texts = [row.keyword, *tail]
            assert read_outcome(row.read, values, texts) == \
                read_outcome(oracle_read_entry, row, arg, expected, texts)
            assert values == expected

    @pytest.mark.parametrize("keyword", sorted(_KEYWORDS))
    @given(tail=st.lists(LINE_TEXTS, max_size=5))
    @settings(max_examples=40)
    def test_header_lines(self, keyword, tail):
        texts = [keyword, *tail]
        assert read_outcome(_take_fields, _KEYWORDS[keyword].header, texts, 1) == \
            read_outcome(oracle_take_fields, ORACLE_HEADERS[keyword], texts, 1)


class TestStringsStaySingleLine:
    # every break that str.splitlines knows ends the line, and so the string
    @pytest.mark.parametrize("text, line, col", [
        ('axiom-decl AX "two\nlines"\n', 1, 15),
        ('class C "carriage\rreturn" {\n}\n', 1, 9),
        ('axiom-decl AX "x"\n\nclass C "c" {\n  status AX satisfied citation "a\u2028b"\n}\n',
         4, 32),
        ('theorem-rec t {\n  statement "crlf\r\n"\n}\n', 2, 13),
    ], ids=["statement", "display name", "citation", "theorem statement"])
    def test_a_line_break_leaves_the_string_unterminated(self, text, line, col):
        with pytest.raises(ManifestError) as err:
            parse_manifest(text, source="w.vty")
        assert str(err.value) == f"w.vty:{line}:{col}: unterminated string"


class TestRequiredEntries:
    def test_substitution_rule_needs_no_conclusion(self):
        assert parse_manifest("rule sub substitution\n").rules == (SubstitutionRule("sub"),)


class TestSeedRegistryManifest:
    def test_registry_returns_the_records_validation_built(self):
        manifest = seed_manifest()
        profiles, theorems, declarations = manifest.registry()
        again = manifest.registry()
        assert len(profiles) == 10 and len(theorems) == 2
        assert all(a is b for a, b in zip(profiles + theorems, again[0] + again[1]))
        assert declarations is again[2]
        assert all(manifest.theorem_record(t.theorem_id) is t for t in theorems)

    def test_each_call_builds_fresh_objects(self):
        # a ClassProfile's statuses are a mutable dict, so no call may hand
        # out what an earlier call returned
        first, second = seed_registry(), seed_registry()
        assert first == second
        assert all(a.statuses is not b.statuses for a, b in zip(first, second))
        assert seed_axiom_declarations() is not seed_axiom_declarations()

    def test_two_manifests_share_no_mutable_object(self):
        # the packaged file is looked up once, but read and parsed per call
        first, second = seed_manifest(), seed_manifest()
        assert first == second and first is not second
        assert first.axiom_decls is not second.axiom_decls
        assert all(a.statuses is not b.statuses for a, b in zip(first.classes, second.classes))


class TestLoadManifest:
    def test_any_line_break_reads_as_in_text_mode(self, tmp_path):
        text = "signature p q\nbounds depth=1\n\n# note\nrule sub substitution\n"
        for newline in ("\n", "\r\n", "\r"):
            path = tmp_path / "breaks.vty"
            path.write_bytes(text.replace("\n", newline).encode())
            assert load_manifest(path) == parse_manifest(text)

    @pytest.mark.parametrize("data, where, what", [
        (b"\xff", "1:1", "0xff (invalid start byte)"),
        (b"signature p\n\n  \xc3\xa9\xe2\x82 q\n", "3:4", "0xe2 (invalid continuation byte)"),
        (b"signature p\r\xc3", "2:1", "0xc3 (unexpected end of data)"),
    ])
    def test_bytes_that_are_not_utf8_name_their_place(self, tmp_path, data, where, what):
        path = tmp_path / "bad.vty"
        path.write_bytes(data)
        with pytest.raises(ManifestError) as err:
            load_manifest(path)
        assert str(err.value) == f"{path}:{where}: not UTF-8 text at byte {what}"
