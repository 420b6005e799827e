"""Mutants that the tests must kill, and a runner that checks they do.

Each row breaks the program in one place: it names a file of the
checkout, a source text that occurs in that file exactly once, the text
that replaces it, and the pytest node ids that must each fail once the
replacement is made. A row shows that those tests bite on what they were
written to guard; a refactor that moves the code updates the row.

    python3 tests/mutants.py            # every row
    python3 tests/mutants.py ROW...     # the named rows

Each row is applied to its own copy of the checkout in a temporary
directory, and only its named tests run there; a test named without a
parametrize case stands for all its cases. Every run passes
`--hypothesis-seed=0`, so a property test draws the same examples each
time and a row's verdict repeats. The runner prints one line per
row and exits 1 if a named test passes on its mutant or does not run (the
mutant is alive), or if a row's source text no longer occurs exactly
once; an unknown row name exits 2. `tests/test_mutants.py` checks every row's source text and test
names without running a mutant; the runs themselves take minutes, so
they stay out of the default test run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

# a mutant run that passes this many seconds counts as not killed
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str          # relative to the checkout
    source: str        # occurs in the file exactly once
    replacement: str
    tests: tuple[str, ...]  # node ids that must each fail on the mutant


ROWS = (
    # machines: the cycle skip of the step loop and the brute-force classes
    Mutant("period-sum", "src/vty/machines.py",
           "pcs + periods * (pcs - saved_pcs)",
           "pcs + periods * pcs", (
               "tests/test_machines.py::TestUniversalInterpreter::test_evidence_summary_is_reproducible",
               "tests/test_machines.py::TestCycleSkip::test_charges_equal_the_list_walker"
               "[1000-DECJZ 0 1 0\\nINC 1 2\\nDECJZ 1 3 3\\nDECJZ 0 1 1-5]",
           )),
    Mutant("period-count", "src/vty/machines.py",
           "periods = (fuel - steps) // period",
           "periods = (fuel - steps) // period + 1", (
               "tests/test_machines.py::TestRunner::test_self_loop_runs_out_of_fuel",
               "tests/test_machines.py::TestCycleSkip::test_a_billion_steps_of_a_loop_take_under_a_second",
               "tests/test_machines.py::TestUniversalInterpreter::test_evidence_summary_is_reproducible",
           )),
    Mutant("unsorted-hits", "src/vty/machines.py",
           "for key in sorted(found):",
           "for key in found:", (
               "tests/test_machines.py::TestFixedOutputBrute::test_equals_the_plain_search",
           )),
    Mutant("dropped-jump-target", "src/vty/machines.py",
           "frozenset(option[1:]) - {length}",
           "frozenset(option[1:2]) - {length}", (
               "tests/test_machines.py::TestFixedOutputBrute::test_equals_the_plain_search",
               "tests/test_cli.py::TestReports::test_fixed_output_reports",
               "tests/test_bench_contract.py::test_brute_search_makes_one_direct_run_per_class_and_input",
           )),
    # machines: an instruction is the tuple of its operands, register first
    Mutant("compiled-zero-target-twice", "src/vty/machines.py",
           "instr[0], instr[1], instr[-1]",
           "instr[0], instr[1], instr[1]", (
               "tests/test_machines.py::TestRunner::test_decjz_branches_both_ways",
           )),
    Mutant("halt-payload-one", "src/vty/machines.py",
           "*operands, payload = instr or (0,)",
           "*operands, payload = instr or (1,)", (
               "tests/test_machines.py::TestEncoding::test_instruction_round_trip",
               "tests/test_machines.py::TestEncoding::test_instruction_codes_are_pinned[instr6-3]",
           )),
    Mutant("operand-text-by-str", "src/vty/machines.py",
           '"%d" % operand for operand in instr',
           "str(operand) for operand in instr", (
               "tests/test_machines.py::TestTextFormat::test_a_bool_operand_prints_as_its_number",
           )),
    # machines: a run holds one value per register named, and the empty
    # program has no slot to build instructions for
    Mutant("a-value-per-register-index", "src/vty/machines.py",
           "registers = [0] * machine._cells",
           "registers = [0] * machine.registers", (
               "tests/test_cli.py::TestReports::test_a_huge_register_index_runs_like_a_small_one",
           )),
    Mutant("instructions-for-the-empty-program", "src/vty/machines.py",
           "options = _instruction_options(registers, length) if length else []",
           "options = _instruction_options(registers, length)", (
               "tests/test_cli.py::TestReports::test_a_world_of_the_empty_program_builds_no_instructions",
           )),
    Mutant("program-entry-read-unchecked", "src/vty/machines.py",
           "if type(instr) in _OPCODES and instr]",
           "if instr]", (
               "tests/test_machines.py::TestMachineValidation::test_entry_that_is_not_an_instruction[junk]",
               "tests/test_machines.py::TestMachineValidation::test_entry_that_is_not_an_instruction[3]",
           )),
    # the caps that refuse work before it starts, each at exactly its cap
    Mutant("atom-cap-at-the-cap", "src/vty/semantics.py",
           "if len(names) > atom_cap:",
           "if len(names) >= atom_cap:", (
               "tests/test_semantics.py::TestAtomCap::test_unsatisfiable_chain_at_the_cap",
           )),
    Mutant("component-atom-cap-at-the-cap", "src/vty/varieties.py",
           "if atom_count > atom_cap:",
           "if atom_count >= atom_cap:", (
               "tests/test_varieties.py::TestKnowledgeConsistency::test_a_component_at_the_atom_cap_gets_its_row",
           )),
    Mutant("subset-cap-at-the-cap", "src/vty/projection.py",
           "if len(axiom_list) > DEFAULT_SUBSET_CAP:",
           "if len(axiom_list) >= DEFAULT_SUBSET_CAP:", (
               "tests/test_projection.py::TestRelationClassifier::test_subset_cap_guards_the_search",
               "tests/test_projection.py::TestLabelledSearchMatchesOracle::test_twelve_axioms",
           )),
    Mutant("step-cap-at-the-cap", "src/vty/machines.py",
           "if steps > DEFAULT_STEP_CAP:",
           "if steps >= DEFAULT_STEP_CAP:", (
               "tests/test_machines.py::TestFixedOutputBrute::test_step_cap_is_runs_times_fuel",
               "tests/test_machines.py::TestFixedOutputRecognize::test_step_cap_sums_probes_times_fuel",
           )),
    Mutant("enumeration-cap-at-the-cap", "src/vty/machines.py",
           "if runs > enumeration_cap:",
           "if runs >= enumeration_cap:", (
               "tests/test_machines.py::TestFixedOutputBrute::test_runs_under_the_cap_are_the_world_size",
           )),
    # varieties: the index-tuple cap of a variety check
    Mutant("tuple-cap-at-the-cap", "src/vty/varieties.py",
           "if tuples > DEFAULT_TUPLE_CAP:",
           "if tuples >= DEFAULT_TUPLE_CAP:", (
               "tests/test_varieties.py::TestVarietyWitnesses::test_tuple_cap_counts_the_tuples_before_the_first",
           )),
    Mutant("tuple-count-one-width-short", "src/vty/varieties.py",
           "for width in range(1, min(k, count) + 1))",
           "for width in range(1, min(k, count)))", (
               "tests/test_varieties.py::TestVarietyWitnesses::test_tuple_cap_counts_the_tuples_before_the_first",
               "tests/test_cli.py::TestExitCodes::test_variety_check_past_the_tuple_cap_fails_fast",
           )),
    # manifest: repeated entries and the registry records
    Mutant("class-scores-an-axiom-twice", "src/vty/manifest.py",
           "if axiom_id in statuses:",
           "if False:", (
               "tests/test_manifest.py::TestValidation::test_class_scores_each_axiom_once",
           )),
    Mutant("bound-given-twice", "src/vty/manifest.py",
           "if key in values:",
           "if False:", (
               "tests/test_manifest.py::TestParseErrors::test_bounds_errors",
           )),
    Mutant("empty-line-not-kept", "src/vty/manifest.py",
           "            values.setdefault(self.field, []).extend(items)",
           "            if items:\n"
           "                values.setdefault(self.field, []).extend(items)", (
               "tests/test_manifest.py::test_parse_error_location[indices given twice 2]",
           )),
    Mutant("undeclared-theorem-dependency", "src/vty/manifest.py",
           'if dep not in r.built["axiom-decl"]:',
           "if False:", (
               "tests/test_manifest.py::TestValidation::test_theorem_rec_dependencies_must_be_declared",
           )),
    # a --bounds override read with the manifest: a calculus with no depth
    # entry closes at the merged depth, not at the manifest's own (depth=1)
    Mutant("bounds-override-misses-calculus-depth", "src/vty/manifest.py",
           'self.depth = merged["depth"]',
           'self.depth = values.get("bounds", Bounds()).depth', (
               "tests/test_cli.py::TestReports::test_bounds_override_equals_a_rewritten_manifest"
               "[{'depth': 3}]",
               "tests/test_cli.py::TestReports::test_bounds_override_equals_a_rewritten_manifest"
               "[{'depth': 4, 'size': 40}]",
           )),
    # projection: the one cell decision of project and registry_report
    Mutant("cell-violated-and-unknown-swapped", "src/vty/projection.py",
           "blockers = [d for d, s in statuses.items() if s == VIOLATED]",
           "blockers = [d for d, s in statuses.items() if s == UNKNOWN]", (
               "tests/test_projection.py::TestProjection::test_violated_outranks_unknown",
               "tests/test_projection.py::TestMatrix::test_one_function_decides_each_cell",
               "tests/test_acceptance.py::test_criterion_5_projection_partition_and_monotonicity",
               "tests/test_cli.py::TestReports::test_matrix_report",
           )),
    Mutant("cell-any-satisfied-is-a-corollary", "src/vty/projection.py",
           "all(s == SATISFIED for s in statuses.values())",
           "any(s == SATISFIED for s in statuses.values())", (
               "tests/test_projection.py::TestProjection::test_three_way_partition",
               "tests/test_projection.py::TestSeedRegistry::test_recognizability_partition",
               "tests/test_acceptance.py::test_criterion_5_projection_partition_and_monotonicity",
               "tests/test_cli.py::TestReports::test_matrix_report",
           )),
    # cli: an unknown id on the command line
    Mutant("unknown-id-reported-in-the-manifest", "src/vty/cli.py",
           'raise argparse.ArgumentTypeError(f"argument {flag}: {exc.message}") from None',
           "raise", (
               "tests/test_cli.py::TestExitCodes::test_an_unknown_id_is_an_argument_error",
           )),
    # fast paths with an oracle in tests/oracle_tools.py, one row each
    Mutant("closure-one-application-too-many", "src/vty/calculus.py",
           "if label[1] < depth]",
           "if label[1] <= depth]", (
               "tests/test_calculus.py::TestOracleEquivalence::test_substitution_rule_matches_oracle",
               "tests/test_calculus.py::TestIndexedClosureMatchesScan::test_entries_match_the_scan_oracle[sub]",
           )),
    Mutant("schema-rule-conclusion-at-the-depth", "src/vty/calculus.py",
           "if cost < depth and add(conclusion, mask, cost + 1, derivation):",
           "if cost <= depth and add(conclusion, mask, cost + 1, derivation):", (
               "tests/test_projection.py::TestLabelContract::test_a_one_premise_rule_stops_at_the_depth",
           )),
    # semi-naive rounds: a tuple with no fresh premise adds nothing, and the
    # tuples gathered are admitted in snapshot order
    Mutant("nothing-fresh-after-round-one", "src/vty/calculus.py",
           "fresh = set(changes[marks[position]:])",
           "fresh = set() if marks[position] else set(changes)", (
               "tests/test_calculus.py::TestClosureExamples::test_chain_by_depth",
               "tests/test_calculus.py::TestIndexedClosureMatchesScan::test_entries_match_the_scan_oracle[mp]",
           )),
    Mutant("pending-tuples-unsorted", "src/vty/calculus.py",
           "pending.sort(key=itemgetter(0))",
           "pass", (
               "tests/test_calculus.py::TestIndexedClosureMatchesScan"
               "::test_ties_in_a_later_round_go_to_the_first_premises_in_formula_key_order",
           )),
    Mutant("unsorted-walk-snapshot", "src/vty/calculus.py",
           "known = {formula: labels[formula] for formula in sorted(labels, key=formula_key)}",
           "known = dict(labels)", (
               "tests/test_calculus.py::TestPendingBound"
               "::test_the_ordered_walk_matches_the_scan_oracle[10-(not a)-2-100]",
           )),
    Mutant("fresh-premise-after-a-fresh-one", "src/vty/calculus.py",
           "if position < first and formula in fresh:",
           "if False:", (
               "tests/test_calculus.py::TestIndexedClosureMatchesScan::test_hilbert4_match_count_guard",
           )),
    Mutant("substitution-of-every-known-formula", "src/vty/calculus.py",
           "for formula in sorted(fresh, key=formula_key)]",
           "for formula in sorted(labels, key=formula_key)]", (
               "tests/test_calculus.py::TestIndexedClosureMatchesScan::test_substitution_rule_count_guard",
           )),
    Mutant("label-dominance-reversed", "src/vty/calculus.py",
           "if kept_mask & mask == kept_mask and kept_cost <= cost:",
           "if kept_mask & mask == mask and kept_cost <= cost:", (
               "tests/test_projection.py::TestLabelledSearchMatchesOracle::test_a_cheaper_support_that_contains_another",
               "tests/test_projection.py::TestLabelContract::test_a_cheaper_label_found_later_still_prunes",
           )),
    Mutant("minimal-subsets-skip-reversed", "src/vty/projection.py",
           "if any(found & mask == found for found in minimal):",
           "if any(found & mask == mask for found in minimal):", (
               "tests/test_projection.py::TestLabelledSearchMatchesOracle::test_a_cheaper_support_that_contains_another",
               "tests/test_projection.py::TestMinimalSubsets::test_empty_subset_answers_although_the_full_set_trips_the_cap",
               "tests/test_projection.py::TestSubsetSearchCalls::test_search_falls_back_to_proves_when_the_full_set_trips_a_cap",
           )),
    Mutant("inconsistent-subsets-skip-reversed", "src/vty/varieties.py",
           "if any(set(found) <= set(combo) for found in minimal):",
           "if any(set(found) >= set(combo) for found in minimal):", (
               "tests/test_varieties.py::TestConsistencyReportMatchesOracle::test_same_report",
               "tests/test_varieties.py::TestKnowledgeConsistency::test_supersets_of_a_bad_set_are_not_reported",
           )),
    Mutant("last-model-not-first", "src/vty/semantics.py",
           "row = (models & -models).bit_length() - 1",
           "row = models.bit_length() - 1", (
               "tests/test_semantics.py::TestMasks::test_first_model_equals_the_oracle",
           )),
    Mutant("escape-keeps-its-backslash", "src/vty/lex.py",
           """_ESCAPE = re.compile(r'\\\\(["\\\\])')""",
           """_ESCAPE = re.compile(r'(\\\\["\\\\])')""", (
               "tests/test_manifest.py::TestStringScan::test_scan_matches_the_per_character_oracle",
               'tests/test_manifest.py::TestStringScan::test_escapes_and_errors["a\\\\"b" c-0-outcome2]',
           )),
    # a string's body reads an escaped quote or backslash as one pair
    Mutant("string-body-stops-at-every-escape", "src/vty/lex.py",
           """r'(?:[^"\\\\]|\\\\["\\\\])*'""",
           """r'(?:[^"\\\\])*'""", (
               "tests/test_manifest.py::TestStringScan::test_scan_matches_the_per_character_oracle",
           )),
    Mutant("plain-string-column-off-by-one", "src/vty/lex.py",
           "tokens.append((m[1], m.start(1)))",
           """tokens.append((m[1], m.start(1) + (m[1][0] == '"')))""", (
               "tests/test_manifest.py::TestLineLexer::test_tokens_match_the_per_character_oracle",
               "tests/test_manifest.py::TestLineLexer::test_each_token_kind",
           )),
    # the one-findall split: each guard sends a line it cannot read to
    # tokenize_line, and a header's end column stops before its {
    Mutant("split-line-reads-past-a-comment", "src/vty/lex.py",
           'if "#" not in line and ',
           "if ", (
               "tests/test_manifest.py::TestSplitLine::test_each_guard[comment]",
           )),
    Mutant("split-line-reads-an-odd-quote", "src/vty/lex.py",
           """ and not line.count('"') & 1:""",
           ":", (
               "tests/test_manifest.py::TestSplitLine::test_each_guard[odd quote]",
           )),
    Mutant("split-line-reads-an-escape", "src/vty/lex.py",
           'and "\\\\" not in line ',
           "", (
               "tests/test_manifest.py::TestSplitLine::test_each_guard[escape]",
           )),
    Mutant("header-end-column-at-its-brace", "src/vty/manifest.py",
           "column(raw, exc.index, len(texts))",
           "column(raw, exc.index, len(split_line(raw)))", (
               "tests/test_manifest.py::test_parse_error_location[expected a quoted display name]",
               "tests/test_manifest.py::test_a_commented_faulty_line_gives_the_same_fault"
               "[expected a quoted display name]",
           )),
    # the manifest reader's inline fast paths: each hands a text it cannot
    # read to the generic fault path, or checks what the generic path did
    Mutant("word-reads-a-non-word", "src/vty/manifest.py",
           "if i < len(texts) and texts[i][0] not in NON_WORD:",
           "if i < len(texts):", (
               "tests/test_manifest.py::test_parse_error_location[expected an axiom id, found 'AX']",
               "tests/test_manifest.py::test_parse_error_location[expected a calculus id, found '(']",
           )),
    Mutant("choice-takes-an-unknown-word", "src/vty/manifest.py",
           'raise TokenFault(f"unknown {noun} {word!r}", i)',
           "return word, i + 1", (
               "tests/test_manifest.py::test_parse_error_location[unknown status 'maybe']",
               "tests/test_manifest.py::test_parse_error_location[unknown evidence kind 'rumour']",
           )),
    Mutant("unknown-entry-skips-the-word-check", "src/vty/manifest.py",
           "key, _ = _take_word(texts, 0, spec.expect)",
           "key = texts[0]", (
               "tests/test_manifest.py::test_parse_error_location"
               "[expected premise or conclude, found '(']",
           )),
    Mutant("collected-entry-keeps-trailing-texts", "src/vty/manifest.py",
           "            if i < len(texts):\n"
           "                _done(texts, i)\n"
           "            values.setdefault(self.field, []).append(item)",
           "            values.setdefault(self.field, []).append(item)", (
               "tests/test_manifest.py::test_parse_error_location[unexpected trailing 'q']",
           )),
    Mutant("substitute-rebuilds-every-node", "src/vty/formulas.py",
           "if left is formula.left and right is formula.right:",
           "if False:", (
               "tests/test_formulas.py::TestSubstitution::test_a_node_with_nothing_replaced_under_it_is_kept",
           )),
    Mutant("json-key-separator", "src/vty/cli.py",
           'chunks.append(": ")',
           'chunks.append(":")', (
               "tests/test_cli.py::TestReportEmitter::test_same_text_as_json_dumps",
           )),
    # the report writer picks its branch by exact type: a bool is no int,
    # keys are sorted, and each literal has its own text
    Mutant("writer-reads-a-bool-as-an-int", "src/vty/cli.py",
           "elif kind is int:",
           "elif isinstance(value, int):", (
               "tests/test_cli.py::TestReportEmitter::test_same_text_as_json_dumps",
               "tests/test_cli.py::TestReportEmitter"
               "::test_a_value_json_would_convert_or_refuse_raises[int-subclass]",
           )),
    Mutant("writer-keys-unsorted", "src/vty/cli.py",
           "for key in sorted(value):",
           "for key in value:", (
               "tests/test_cli.py::TestReportEmitter::test_same_text_as_json_dumps",
           )),
    Mutant("writer-literals-swapped", "src/vty/cli.py",
           '_LITERALS = {None: "null", True: "true", False: "false"}',
           '_LITERALS = {None: "null", True: "false", False: "true"}', (
               "tests/test_cli.py::TestReportEmitter::test_same_text_as_json_dumps",
           )),
    # a missing --calculus choice is a fault of the arguments, not of the manifest
    Mutant("calculus-choice-as-a-manifest-fault", "src/vty/cli.py",
           'raise argparse.ArgumentTypeError("argument --calculus: pick a calculus; "\n'
           '                                             f"the manifest declares '
           '{len(manifest.calculi)}")',
           'raise ManifestError("pick a calculus with --calculus; the manifest declares "\n'
           '                                f"{len(manifest.calculi)}", manifest.source, 0)', (
               "tests/test_cli.py::TestExitCodes::test_closure_needs_a_calculus_choice",
               "tests/test_answer_corpus.py::test_no_answer_changed",
           )),
    Mutant("format-variable-read-unchecked", "src/vty/cli.py",
           "if fmt not in _FORMATS:",
           "if False:", (
               "tests/test_cli.py::TestOutputControls::test_bad_format_env_variable_is_a_usage_error",
           )),
    # a --mode given without --bijective would be dropped by the plain check
    Mutant("mode-without-bijective-dropped", "src/vty/cli.py",
           "if args.mode and not args.bijective:",
           "if False:", (
               "tests/test_cli.py::TestExitCodes::test_a_mode_needs_bijective",
               "tests/test_answer_corpus.py::test_no_answer_changed",
           )),
    # records: every path to a checked record runs its checks, a manifest
    # compares all but its source, and a formula refuses assignment
    Mutant("make-skips-the-checks", "src/vty/errors.py",
           "return cls(*iterable)",
           "return tuple.__new__(cls, iterable)", (
               "tests/test_records.py::test_every_path_to_a_checked_record_runs_its_checks"
               "[Evidence]",
               "tests/test_records.py::test_every_path_to_a_checked_record_runs_its_checks"
               "[Calculus]",
               "tests/test_records.py::test_every_path_to_a_checked_record_runs_its_checks"
               "[Bounds]",
           )),
    Mutant("manifest-equality-reads-the-source", "src/vty/manifest.py",
           "return self[1:] == other[1:]",
           "return tuple(self) == tuple(other)", (
               "tests/test_manifest.py::TestShippedFiles::test_load_and_parse_agree",
               "tests/test_records.py::test_equality_and_hash_cover_the_compared_fields"
               "[Manifest]",
           )),
    Mutant("formula-accepts-assignment", "src/vty/formulas.py",
           "class Formula(Frozen):",
           "class Formula:", (
               "tests/test_records.py::test_fields_refuse_assignment_and_deletion[Atom]",
               "tests/test_records.py::test_fields_refuse_assignment_and_deletion[Not]",
               "tests/test_records.py::test_fields_refuse_assignment_and_deletion[And]",
           )),
    # a fuel schedule that does not increase is refused as an argument
    Mutant("schedule-read-unchecked", "src/vty/cli.py",
           "if increasing and any(b <= a for a, b in zip(values, values[1:])):",
           "if False:", (
               "tests/test_cli.py::TestExitCodes"
               "::test_a_schedule_that_does_not_increase_is_an_argument_error",
               "tests/test_cli.py::TestOutputControls::test_other_usage_errors_get_a_json_report",
               "tests/test_answer_corpus.py::test_no_answer_changed",
           )),
    # a renamed report key changes the answer corpus
    Mutant("closure-report-key-renamed", "src/vty/cli.py",
           '"domain_size": result.domain_size,',
           '"domain": result.domain_size,', (
               "tests/test_answer_corpus.py::test_no_answer_changed",
           )),
    # manifest and machine numbers are ASCII digits, which int() reads exactly
    Mutant("digits-of-other-scripts", "src/vty/lex.py",
           "return text.isascii() and text.isdecimal()",
           "return text.isdecimal()", (
               "tests/test_manifest.py"
               "::test_parse_error_location[expected a depth, found '\\u0663']",
               "tests/test_manifest.py::test_parse_error_location[bound 'depth' needs an integer 2]",
               "tests/test_machines.py::TestTextFormat"
               "::test_an_operand_is_ascii_digits[INC 0 \\u0661]",
           )),
    # so are the CLI's integer options, which int() alone would read from
    # '+2', '1_0' and other scripts' digits
    Mutant("cli-int-read-by-int", "src/vty/cli.py",
           '_int_text(text, f"invalid int value: {text!r}")',
           "int(text)", (
               "tests/test_cli.py::TestOutputControls::test_other_usage_errors_get_a_json_report",
           )),
    # proof building: a rule step cites its premises in the rule's order
    Mutant("premises-cited-in-reverse", "src/vty/calculus.py",
           "tuple(index[premise] for premise in premises)",
           "tuple(index[premise] for premise in reversed(premises))", (
               "tests/test_cli.py::TestPrintedProofsPassAnIndependentChecker::test_criterion_9_proofs",
               "tests/test_calculus.py::TestClosureExamples::test_every_emitted_proof_revalidates",
           )),
    # varieties: each side's words are stated once in a table, a variety
    # report's notes end with its prevariety's, and a component's pooled
    # set reads both sides
    Mutant("side-miss-words-swapped", "src/vty/varieties.py",
           '("A", "axiom", "an axiom", "a covering axiom"),\n'
           '    ("M", "theorem", "a designated theorem", "a subset member"),',
           '("A", "axiom", "a designated theorem", "a covering axiom"),\n'
           '    ("M", "theorem", "an axiom", "a subset member"),', (
               "tests/test_varieties.py::TestComponentInvariants::test_axiom_map_hole",
               "tests/test_varieties.py::TestComponentInvariants::test_theorem_map_hole",
           )),
    Mutant("variety-notes-drop-the-base-notes", "src/vty/varieties.py",
           "        *base.notes,\n",
           "", (
               "tests/test_varieties.py::TestVarietyWitnesses::test_quasi_notes_end_with_the_prevariety_note",
           )),
    # a derived report is its base report with only its own fields replaced
    Mutant("variety-report-built-afresh", "src/vty/varieties.py",
           'return base._replace(kind="variety", diagnostics=tuple(diagnostics),\n'
           '                         tuples=tuple(records), notes=notes)',
           'return StructureReport("variety", base.equations, tuple(diagnostics), (),\n'
           '                           tuple(records), notes)', (
               "tests/test_varieties.py::TestDerivedReports"
               "::test_keeps_every_field_it_does_not_set[variety]",
           )),
    Mutant("pooled-set-reads-one-side", "src/vty/varieties.py",
           "pooled = axiom.image_set | theorem.image_set",
           "pooled = axiom.image_set | axiom.image_set", (
               "tests/test_varieties.py::TestConsistencyReportMatchesOracle::test_same_report",
           )),
    # a defaulted keyword that no caller of record sets
    Mutant("unset-keyword-option", "src/vty/machines.py",
           "def run_machine(machine: RegisterMachine, input_value: int, fuel: int) -> Trace:",
           "def run_machine(machine: RegisterMachine, input_value: int, fuel: int,\n"
           "                spare: int = 0) -> Trace:", (
               "tests/test_public_names.py::test_every_keyword_option_is_set_by_a_caller_of_record",
           )),
)

BY_NAME = {row.name: row for row in ROWS}


def mutate(text: str, row: Mutant) -> str:
    """`text` with the row's source text replaced; ValueError unless it occurs once."""
    count = text.count(row.source)
    if count != 1:
        raise ValueError(f"{row.name}: source text occurs {count} times in {row.path}")
    return text.replace(row.source, row.replacement)


def _copy_checkout(target: Path) -> None:
    shutil.copytree(ROOT, target, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", "work", "out"))


def run(row: Mutant) -> tuple[bool, str]:
    """Apply the row in a fresh copy and run its tests: (killed, what happened)."""
    with tempfile.TemporaryDirectory(prefix="vty-mutant-") as scratch:
        tree = Path(scratch) / "tree"
        _copy_checkout(tree)
        target = tree / row.path
        target.write_text(mutate(target.read_text(), row))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
                 "--hypothesis-seed=0", *row.tests],
                cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False, f"no result within {TIMEOUT_S} s"
    outcomes: dict[str, str] = {}
    for line in done.stdout.splitlines():
        outcome, _, rest = line.partition(" ")
        if outcome in ("PASSED", "FAILED", "ERROR"):
            outcomes[rest.split(" - ")[0]] = outcome
    alive = []
    for test in row.tests:
        # a parametrized test named without a case stands for all its cases
        cases = [outcome for node, outcome in outcomes.items()
                 if node == test or node.startswith(test + "[")]
        if not cases or "PASSED" in cases:
            alive.append(f"{test} ({'passed' if cases else 'not run'})")
    if alive:
        return False, "not failed: " + ", ".join(alive)
    return True, f"all {len(outcomes)} failed"


def main(argv: list[str]) -> int:
    unknown = [name for name in argv if name not in BY_NAME]
    if unknown:
        print(f"unknown rows: {', '.join(unknown)}; rows: {', '.join(BY_NAME)}")
        return 2
    rows = [BY_NAME[name] for name in argv] if argv else list(ROWS)
    all_killed = True
    for row in rows:
        try:
            killed, what = run(row)
        except ValueError as exc:
            killed, what = False, str(exc)
        all_killed &= killed
        print(f"{'KILLED' if killed else 'ALIVE '} {row.name}: {what}", flush=True)
    return 0 if all_killed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
