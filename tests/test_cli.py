import argparse
import dataclasses
import hashlib
import importlib
import inspect
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import vty.cli
from vty.cli import _UsageError, _direct_parse, build_parser, main
from vty.formulas import MAX_NESTING, formula_key, parse_formula
from vty.machines import DEFAULT_STEP_CAP, encode_machine, parse_machine
from vty.manifest import BOUND_NAMES, Bounds, load_manifest
from vty.varieties import FormulaMap

import proof_checker
from conftest import GOLDEN_DIR
from oracle_tools import oracle_report_json
from test_acceptance import CLI_COMMANDS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


KNOWLEDGE_FIVE = Path(__file__).parent / "data" / "knowledge_five.vty"

# every command that reads a prevariety, with the manifest path left out
KNOWLEDGE_FIVE_COMMANDS = (
    ("check-prevariety",),
    ("check-variety", "--depth", "5"),
    ("check-variety", "--depth", "5", "--bijective", "--mode", "prevariety"),
    ("check-variety", "--depth", "5", "--bijective", "--mode", "variety"),
    ("consistency",),
)


# one mp calculus with no depth entry, so it closes at the bounds depth
DEPTHLESS_MANIFEST = """\
bounds depth=1 size=20

rule mp {
  premise a
  premise (-> a b)
  conclude b
}

calculus L1 {
  axiom p
  axiom (-> p q)
  axiom (-> q r)
  axiom (-> r s)
  use mp
}

map ident identity

component K1 {
  calculus L1
  axiom-map ident
  theorem-map ident
  theorem s
}

prevariety PV {
  component K1
  auto
}
"""


def normalized(report):
    report = dict(report)
    report["manifest"] = Path(report["manifest"]).name
    return report


@pytest.fixture
def formula_text_from_the_cache(monkeypatch):
    """Fail a report builder that formats a formula instead of reading the
    text closure's formula_key cache already holds."""

    def refuse(formula):
        raise AssertionError(f"formatted {formula!r} again")

    monkeypatch.setattr(vty.cli, "format_formula", refuse, raising=False)
    # the benchmark's tracer and cold start read these
    assert callable(formula_key.cache_info) and callable(formula_key.cache_clear)


class TestExitCodes:
    def test_structure_pass_with_inconsistent_knowledge_is_zero(self, capsys, data_dir):
        code, report = run_json(
            capsys, "check-prevariety", str(data_dir / "inconsistent_kb.vty")
        )
        assert code == 0
        assert report["result"]["structure"]["verdict"] == "PASS"
        assert report["result"]["consistency"]["global"] == "INCONSISTENT"
        assert report["result"]["consistency"]["locally_consistent_globally_inconsistent"] is True

    def test_witnessed_variety_passes(self, capsys, data_dir):
        code, report = run_json(
            capsys, "check-variety", str(data_dir / "shared_core.vty"), "--depth", "2"
        )
        assert code == 0
        assert report["result"]["verdict"] == "PASS"

    def test_missing_witness_fails(self, capsys, data_dir):
        code, report = run_json(
            capsys, "check-variety", str(data_dir / "shared_core_nowitness.vty"),
            "--depth", "2",
        )
        assert code == 1
        assert any(
            d["code"] == "MISSING_WITNESS" for d in report["result"]["diagnostics"]
        )

    def test_bijective_modes_disagree(self, capsys, data_dir):
        manifest = str(data_dir / "bijective_modes.vty")
        code, report = run_json(
            capsys, "check-variety", manifest, "--bijective", "--mode", "prevariety"
        )
        assert code == 0
        assert report["result"]["kind"] == "bijective-prevariety"
        code, report = run_json(
            capsys, "check-variety", manifest, "--bijective", "--mode", "variety"
        )
        assert code == 1
        assert any(
            d["code"] == "THEOREMS_NOT_CLOSED" for d in report["result"]["diagnostics"]
        )

    def test_missing_manifest_file(self, capsys, tmp_path):
        code, report = run_json(
            capsys, "check-prevariety", str(tmp_path / "nope.vty")
        )
        assert code == 2
        assert report["errors"]

    def test_manifest_path_with_a_nul_byte(self, capsys):
        code, report = run_json(capsys, "report-matrix", "seed\0.vty")
        assert (code, report["errors"]) == (2, ["embedded null byte"])

    def test_malformed_manifest_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.vty"
        bad.write_text("widget w\n")
        code, report = run_json(capsys, "check-prevariety", str(bad))
        assert code == 2
        assert "unknown directive" in report["errors"][0]

    @pytest.mark.parametrize("old, new, argv, where", [
        ("bounds", "signature p bot\nbounds", ["closure", "--calculus", "L1"], "1:13"),
        ("rename a1 p", "rename a1 bot", ["check-prevariety"], "33:13"),
        ("rename a1 p", "rename a1 bot", ["consistency"], "33:13"),
    ], ids=["signature", "rename_check", "rename_consistency"])
    def test_bot_as_an_atom_name_is_a_located_parse_error(
            self, capsys, data_dir, tmp_path, old, new, argv, where):
        path = tmp_path / "bot.vty"
        path.write_text((data_dir / "shared_core.vty").read_text().replace(old, new, 1))
        code, report = run_json(capsys, argv[0], str(path), *argv[1:])
        assert (code, report["errors"]) == (2, [f"{path}:{where}: bad atom name 'bot'"])

    def test_manifest_that_is_not_utf8_names_the_bad_byte(self, capsys, tmp_path):
        bad = tmp_path / "latin1.vty"
        bad.write_bytes("signature p\r\nbounds depth=1 # café ".encode() + b"\xff\n")
        code, report = run_json(capsys, "report-matrix", str(bad))
        assert code == 2
        col = len("bounds depth=1 # café ") + 1
        assert report["errors"] == [
            f"{bad}:2:{col}: not UTF-8 text at byte 0xff (invalid start byte)"
        ]

    @pytest.mark.parametrize("bound", ["atoms", "enum", "size"])
    def test_zero_bound_override_is_refused_like_a_manifest_bound(self, capsys, bound):
        code, report = run_json(capsys, "classify", "--axioms", "p", "--goal", "p",
                                "--bounds", f"depth=1,{bound}=0")
        assert code == 2
        assert report == {
            "command": "classify",
            "manifest": "seed_registry.vty",
            "errors": ["atoms, enum and size bounds must be positive"],
        }

    def test_a_manifest_fault_is_reported_before_a_bad_bounds_override(self, capsys, tmp_path):
        # the manifest is validated first; the merged bounds are checked after
        bad = tmp_path / "bad.vty"
        bad.write_text("map ident identity\ncalculus L {\n}\ncomponent C {\n  calculus nope\n"
                       "  axiom-map ident\n  theorem-map ident\n}\n", encoding="utf-8")
        code, report = run_json(capsys, "check-prevariety", str(bad), "--bounds", "size=0")
        assert (code, report["errors"]) == (2, [f"{bad}:4:1: unknown calculus 'nope'"])

    @pytest.mark.parametrize("argv, error", [
        (("closure", "shared_core.vty", "--calculus", "nope"),
         "argument --calculus: unknown calculus 'nope'"),
        (("check-prevariety", "shared_core.vty", "--prevariety", "nope"),
         "argument --prevariety: unknown prevariety 'nope'"),
        (("check-variety", "shared_core.vty", "--prevariety", "nope"),
         "argument --prevariety: unknown prevariety 'nope'"),
        (("consistency", "shared_core.vty", "--prevariety", "nope"),
         "argument --prevariety: unknown prevariety 'nope'"),
        (("project", "--theorem", "nope"), "argument --theorem: unknown theorem record 'nope'"),
    ], ids=["closure", "check-prevariety", "check-variety", "consistency", "project"])
    def test_an_unknown_id_is_an_argument_error(self, capsys, data_dir, argv, error):
        command, *rest = argv
        if rest[0].endswith(".vty"):
            rest[0] = str(data_dir / rest[0])
        code, report = run_json(capsys, command, *rest)
        assert code == 2
        assert report == {
            "command": command,
            "manifest": rest[0] if rest[0].endswith(".vty") else "seed_registry.vty",
            "bounds": report["bounds"],
            "errors": [error],
        }

    def test_closure_needs_a_calculus_choice(self, capsys, data_dir, tmp_path):
        # without --calculus, a manifest must declare exactly one calculus
        none = tmp_path / "none.vty"
        none.write_text("map ident identity\n", encoding="utf-8")
        for path, declared in ((data_dir / "shared_core.vty", 3), (none, 0)):
            code, report = run_json(capsys, "closure", str(path))
            assert code == 2
            assert report == {
                "command": "closure",
                "manifest": str(path),
                "bounds": report["bounds"],
                "errors": ["argument --calculus: pick a calculus; "
                           f"the manifest declares {declared}"],
            }

    def test_missing_machine_file_is_an_operational_error(self, capsys, tmp_path):
        code, report = run_json(
            capsys, "fixed-output", "recognize",
            "--machine", str(tmp_path / "nope.rm"), "--y", "1", "--schedule", "1,2",
        )
        assert code == 1
        assert report["errors"]

    @pytest.mark.parametrize("instructions", [1000, 100_000])
    def test_huge_brute_world_fails_fast_at_the_cap(self, capsys, instructions):
        start = time.perf_counter()
        code, report = run_json(
            capsys, "fixed-output", "brute", "--y", "0",
            "--max-instructions", str(instructions),
        )
        assert time.perf_counter() - start < 1.0
        assert code == 1
        [error] = report["errors"]
        assert error.startswith("enumeration needs at least ")
        assert error.endswith(" runs, above the cap of 1000000")

    @pytest.mark.parametrize("argv, steps", [
        (["fixed-output", "brute", "--y", "5", "--fuel", "100000000",
          "--max-instructions", "1", "--inputs", "0"], 8 * 100_000_000),
        (["fixed-output", "recognize", "--machine", "{loop}", "--y", "5",
          "--schedule", "1000000000"], 1_000_000_000),
    ])
    def test_search_past_the_step_cap_fails_fast(self, capsys, tmp_path, argv, steps):
        loop = tmp_path / "loop.rm"
        loop.write_text("INC 0 0\n", encoding="utf-8")
        start = time.perf_counter()
        code, report = run_json(capsys, *(part.format(loop=loop) for part in argv))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert report["errors"] == [
            f"search needs up to {steps} steps, above the cap of 10000000"]

    def test_variety_check_past_the_tuple_cap_fails_fast(self, capsys, tmp_path):
        # 20 components make 2 ** 20 - 1 index tuples of width 1..20
        ids = [f"K{i}" for i in range(1, 21)]
        path = tmp_path / "twenty.vty"
        path.write_text("\n\n".join([
            "calculus L {\n  axiom p\n}", "map ident identity",
            *[f"component {cid} {{\n  calculus L\n  axiom-map ident\n"
              "  theorem-map ident\n}" for cid in ids],
            "prevariety PV {\n" + "".join(f"  component {cid}\n" for cid in ids) + "}",
        ]) + "\n", encoding="utf-8")
        start = time.perf_counter()
        code, report = run_json(capsys, "check-variety", str(path), "--depth", "20")
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert report["errors"] == [
            "variety check needs 1048575 index tuples, above the cap of 100000"]

    @pytest.mark.parametrize("argv, error", [
        (["minimal-subsets", "--axioms", *(f"a{i}" for i in range(13)), "--goal", "a1",
          "--base", "mp"], "13 axioms exceed the subset enumeration cap of 12"),
        (["classify", "--axioms", "p", "q", "r", "--goal", "p", "--base", "mp",
          "--bounds", "atoms=2"], "truth table over 3 atoms exceeds the cap of 2"),
    ])
    def test_subset_and_atom_caps_refuse_the_search(self, capsys, argv, error):
        code, report = run_json(capsys, *argv)
        assert code == 1
        assert report["errors"] == [error]

    def test_bad_schedule_is_an_operational_error(self, capsys, data_dir):
        code, report = run_json(
            capsys, "fixed-output", "recognize",
            "--machine", str(data_dir / "adder.rm"), "--y", "1", "--schedule", "5,2",
        )
        assert code == 1
        assert "strictly increasing" in report["errors"][0]


class TestReports:
    def test_inconsistent_kb_report(self, capsys, data_dir, golden):
        code, report = run_json(
            capsys, "check-prevariety", str(data_dir / "inconsistent_kb.vty")
        )
        assert code == 0
        golden("check_prevariety_inconsistent_kb", normalized(report))

    def test_shared_core_variety_report(self, capsys, data_dir, golden):
        code, report = run_json(
            capsys, "check-variety", str(data_dir / "shared_core.vty"), "--depth", "2"
        )
        assert code == 0
        golden("check_variety_shared_core", normalized(report))

    def test_missing_witness_report(self, capsys, data_dir, golden):
        code, report = run_json(
            capsys, "check-variety", str(data_dir / "shared_core_nowitness.vty"),
            "--depth", "2",
        )
        assert code == 1
        golden("check_variety_shared_core_nowitness", normalized(report))

    def test_bijective_reports(self, capsys, data_dir, golden):
        manifest = str(data_dir / "bijective_modes.vty")
        _, lenient = run_json(
            capsys, "check-variety", manifest, "--bijective", "--mode", "prevariety"
        )
        golden("check_bijective_prevariety", normalized(lenient))
        _, strict = run_json(
            capsys, "check-variety", manifest, "--bijective", "--mode", "variety"
        )
        golden("check_bijective_variety", normalized(strict))

    def test_five_component_reports(self, capsys, golden):
        reports = {}
        for argv in KNOWLEDGE_FIVE_COMMANDS:
            code, out = run_cli(capsys, argv[0], str(KNOWLEDGE_FIVE), *argv[1:])
            report = json.loads(out)
            assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
            reports[" ".join(argv)] = {"exit": code, "report": normalized(report)}
        golden("knowledge_five_reports", reports)

    @pytest.mark.parametrize("size, argv, calculus, quasi", [
        (3, KNOWLEDGE_FIVE_COMMANDS[0], "L4", False),
        (3, KNOWLEDGE_FIVE_COMMANDS[1], "L4", False),
        (3, KNOWLEDGE_FIVE_COMMANDS[2], "L4", False),
        (3, KNOWLEDGE_FIVE_COMMANDS[4], "L4", False),
        (4, KNOWLEDGE_FIVE_COMMANDS[0], "L4", False),
        (4, KNOWLEDGE_FIVE_COMMANDS[3], "L4", False),
        (4, KNOWLEDGE_FIVE_COMMANDS[4], None, False),
        (4, KNOWLEDGE_FIVE_COMMANDS[0], None, True),
        (4, KNOWLEDGE_FIVE_COMMANDS[1], "L4", True),
        (4, KNOWLEDGE_FIVE_COMMANDS[2], None, True),
        (4, KNOWLEDGE_FIVE_COMMANDS[3], "L4", True),
        (4, KNOWLEDGE_FIVE_COMMANDS[4], None, True),
    ])
    def test_size_override_caps_assembly_and_the_checks(self, capsys, tmp_path, size, argv,
                                                         calculus, quasi):
        # the override replaces the manifest's size cap of 100000, so
        # assembly closes each axiom set under it: at size 3, L4's axiom set
        # (4 formulas) trips every command. At size 4 assembly passes and
        # the checks trip on L4's theorem set; consistency reads axiom sets
        # only, and in quasi mode so do check-prevariety and the bijective
        # prevariety mode.
        path = KNOWLEDGE_FIVE
        if quasi:
            path = tmp_path / "quasi.vty"
            path.write_text(KNOWLEDGE_FIVE.read_text(encoding="utf-8").replace(
                "  auto\n", "  auto\n  quasi\n"), encoding="utf-8")
        code, report = run_json(capsys, argv[0], str(path), *argv[1:],
                                "--bounds", f"size={size}")
        if calculus is None:
            assert (code, report["errors"]) == (0, [])
            return
        assert code == 1
        assert report["errors"] == [
            f"closure of calculus '{calculus}' exceeds the size cap of {size}"
        ]
        assert "result" not in report

    def test_depth_override_closes_a_calculus_without_a_depth_entry(self, capsys, tmp_path):
        # such a calculus closes at the bounds depth, which the override replaces
        path = tmp_path / "depthless.vty"
        path.write_text(DEPTHLESS_MANIFEST, encoding="utf-8")
        for depth, formulas in ((1, ["q"]), (3, ["q", "r", "s"])):
            code, report = run_json(capsys, "closure", str(path), "--bounds", f"depth={depth}")
            assert code == 0
            assert report["bounds"]["depth"] == report["result"]["depth"] == depth
            assert report["result"]["formulas"] == [
                "(-> p q)", "(-> q r)", "(-> r s)", "p", *formulas]

    @pytest.mark.parametrize("override", [
        {"depth": 1}, {"depth": 3}, {"size": 3}, {"size": 6}, {"depth": 4, "size": 40},
    ], ids=str)
    def test_bounds_override_equals_a_rewritten_manifest(self, capsys, tmp_path, override):
        depthless = tmp_path / "depthless.vty"
        depthless.write_text(DEPTHLESS_MANIFEST, encoding="utf-8")
        rewritten = tmp_path / "rewritten.vty"
        text = ",".join(f"{name}={value}" for name, value in override.items())
        for path in (depthless, KNOWLEDGE_FIVE,
                     *(PACKAGED / name for name in PREVARIETY_MANIFESTS)):
            manifest = load_manifest(path)
            bounds = dataclasses.replace(manifest.bounds, **override)
            merged = " ".join(f"{name}={value}" for name, value in bounds.to_dict().items())
            rewritten_text, count = re.subn(r"^bounds .*$", f"bounds {merged}",
                                            path.read_text(encoding="utf-8"), flags=re.M)
            assert count == 1
            rewritten.write_text(rewritten_text, encoding="utf-8")
            for argv in (["closure", "--calculus", manifest.calculi[0].calculus_id],
                         ["check-prevariety"], ["check-variety", "--depth", "2"],
                         ["consistency"]):
                code, out = run_cli(capsys, argv[0], str(path), *argv[1:], "--bounds", text)
                expected = run_cli(capsys, argv[0], str(rewritten), *argv[1:])
                assert (code, out.replace(str(path), "M")) == (
                    expected[0], expected[1].replace(str(rewritten), "M"))

    def test_projection_report(self, capsys, golden):
        code, report = run_json(
            capsys, "project", "--theorem", "fixed_output_undecidable"
        )
        assert code == 0
        assert report["manifest"] == "seed_registry.vty"
        golden("project_fixed_output_undecidable", report)

    def test_matrix_report(self, capsys, golden):
        code, report = run_json(capsys, "report-matrix")
        assert code == 0
        golden("report_matrix_seed", report)

    def test_closure_with_proofs(self, capsys, data_dir, golden, formula_text_from_the_cache):
        code, report = run_json(
            capsys, "closure", str(data_dir / "shared_core.vty"),
            "--calculus", "L1", "--with-proofs",
        )
        assert code == 0
        golden("closure_l1_with_proofs", normalized(report))

    def test_classifier_report(self, capsys, golden, formula_text_from_the_cache):
        code, report = run_json(
            capsys, "classify", "--axioms", "p", "(-> p q)", "--goal", "q",
        )
        assert code == 0
        assert report["result"]["sufficient"] == "YES"
        assert report["result"]["irreducible"] == "YES"
        golden("classify_modus_ponens", report)

    def test_minimal_subsets_report(self, capsys, formula_text_from_the_cache):
        code, report = run_json(
            capsys, "minimal-subsets",
            "--axioms", "p", "q", "(-> p q)", "--goal", "q",
        )
        assert code == 0
        assert report["result"]["subsets"] == [["q"], ["(-> p q)", "p"]]

    @pytest.mark.parametrize("goal, code, tail", [
        ("(-> q (-> q q))", 0,
         '  "errors": [],\n'
         '  "manifest": "seed_registry.vty",\n'
         '  "result": {\n'
         '    "base": "hilbert",\n'
         '    "depth": 0,\n'
         '    "subsets": [\n'
         '      []\n'
         '    ]\n'
         '  }\n'),
        ("z", 1,
         '  "errors": [\n'
         '    "closure of calculus \'hilbert\' exceeds the size cap of 1000 '
         '(16^3 instantiation candidates)"\n'
         '  ],\n'
         '  "manifest": "seed_registry.vty"\n'),
    ], ids=["empty-subset", "cap-error"])
    def test_minimal_subsets_at_the_size_cap(self, capsys, goal, code, tail):
        # closing the whole axiom set trips the cap (18^3 candidates for the
        # first goal); each answer is the one the per-subset search gives
        assert run_cli(
            capsys, "minimal-subsets", "--axioms",
            "(-> (-> (-> a b) (-> c d)) (-> (-> e f) (-> g h)))",
            "--goal", goal, "--depth", "0", "--bounds", "size=1000",
        ) == (code, '{\n'
                    '  "bounds": {\n'
                    '    "atoms": 20,\n'
                    '    "depth": 3,\n'
                    '    "enum": 1000000,\n'
                    '    "size": 1000\n'
                    '  },\n'
                    '  "command": "minimal-subsets",\n' + tail + '}\n')

    def test_brute_report(self, capsys):
        code, report = run_json(
            capsys, "fixed-output", "brute", "--y", "1",
            "--max-instructions", "1", "--max-registers", "1",
            "--inputs", "0", "--fuel", "4",
        )
        assert code == 0
        assert report["result"]["runs"] == 8
        assert report["result"]["hits"] == [
            {"machine": ["INC 0 1"], "input": 0, "steps": 1}
        ]

    def test_recognize_report(self, capsys, data_dir):
        code, report = run_json(
            capsys, "fixed-output", "recognize",
            "--machine", str(data_dir / "adder.rm"), "--y", "0",
            "--schedule", "8,16,32",
        )
        assert code == 0
        assert report["result"]["verdict"] == "YES"
        assert report["result"]["input"] == 0

    def test_fixed_output_reports(self, capsys, data_dir, golden):
        # the two requests the machines benchmark sends, report for report
        reports = {}
        for argv in (
            ("fixed-output", "brute", "--y", "2", "--max-instructions", "2",
             "--max-registers", "1", "--inputs", "3,6", "--fuel", "64"),
            ("fixed-output", "recognize", "--machine", str(data_dir / "adder.rm"),
             "--y", "1", "--schedule", "8,16,32,64,128"),
        ):
            code, report = run_json(capsys, *argv)
            assert code == 0
            reports[argv[1]] = report
        golden("fixed_output_reports", reports)

    def test_a_huge_register_index_runs_like_a_small_one(self, capsys, tmp_path):
        # a run holds one value per register the program names, so register
        # 10**15 costs what register 1 does
        reports = []
        for register in (1, 10**15):
            path = tmp_path / f"inc{register}.rm"
            path.write_text(f"INC {register} 1", encoding="utf-8")
            tracemalloc.start()
            try:
                code, report = run_json(capsys, "fixed-output", "recognize", "--machine",
                                        str(path), "--y", "0", "--schedule", "1,2,3")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == 0
            assert peak < 4 * 2**20
            reports.append(report)
        assert reports[0] == reports[1]

    def test_a_world_of_the_empty_program_builds_no_instructions(self, capsys):
        # length 0 has no slot, so the register bound does not matter
        hits = []
        for registers in ("1", str(10**15)):
            start = time.perf_counter()
            code, report = run_json(capsys, "fixed-output", "brute", "--y", "0",
                                    "--max-instructions", "0", "--max-registers", registers)
            assert time.perf_counter() - start < 1.0
            assert code == 0
            hits.append(report["result"]["hits"])
        assert hits[0] == hits[1] == [{"input": 0, "machine": [], "steps": 0}]


# every parser vty has: the root, each command and each fixed-output mode
HELP_ARGVS = (
    (),
    ("check-prevariety",),
    ("check-variety",),
    ("closure",),
    ("consistency",),
    ("project",),
    ("classify",),
    ("minimal-subsets",),
    ("fixed-output",),
    ("fixed-output", "brute"),
    ("fixed-output", "recognize"),
    ("report-matrix",),
)


# usage errors argparse finds: (argv, the command the report names, its one error)
OTHER_USAGE_ERRORS = [
    (["classify", "--axioms", "p", "--depth", "x", "--goal", "p"],
     "classify", "argument --depth: invalid int value: 'x'"),
    (["classify", "--axioms", "p", "--depth", "-1", "--goal", "p"],
     "classify", "argument --depth: depth must be nonnegative"),
    (["minimal-subsets", "--axioms", "p", "--goal", "p", "--depth", "-1"],
     "minimal-subsets", "argument --depth: depth must be nonnegative"),
    (["closure", "--depth", "-1"],
     "closure", "argument --depth: depth must be nonnegative"),
    (["fixed-output", "recognize", "--machine", "m.rm", "--y", "1", "--schedule", "8",
      "--max-input", "-1"],
     "fixed-output", "argument --max-input: max-input must be nonnegative"),
    (["fixed-output", "recognize", "--machine", "m.rm", "--y", "1", "--schedule", "8",
      "--max-input", "1.5"],
     "fixed-output", "argument --max-input: invalid int value: '1.5'"),
    (["fixed-output", "brute", "--y", "1", "--fuel", "0"],
     "fixed-output", "argument --fuel: fuel must be positive"),
    (["fixed-output", "brute", "--y", "1", "--max-registers", "0"],
     "fixed-output", "argument --max-registers: max-registers must be positive"),
    (["fixed-output", "brute", "--y", "1", "--max-instructions", "-1"],
     "fixed-output", "argument --max-instructions: max-instructions must be nonnegative"),
    (["fixed-output", "brute", "--y", "1", "--fuel", "x"],
     "fixed-output", "argument --fuel: invalid int value: 'x'"),
    # no machine outputs a negative number
    (["fixed-output", "brute", "--y", "-1", "--max-instructions", "1",
      "--inputs", "0,1", "--fuel", "20"],
     "fixed-output", "argument --y: y must be nonnegative"),
    (["fixed-output", "recognize", "--machine", "m.rm", "--y", "-1", "--schedule", "8"],
     "fixed-output", "argument --y: y must be nonnegative"),
    (["fixed-output", "brute", "--y", "x"],
     "fixed-output", "argument --y: invalid int value: 'x'"),
    (["fixed-output", "brute", "--y", "1", "--inputs", "0,-1"],
     "fixed-output", "argument --inputs: inputs must be nonnegative"),
    # a repeated input would repeat its hits and count its runs twice
    (["fixed-output", "brute", "--y", "1", "--inputs", "1,0,1"],
     "fixed-output", "argument --inputs: inputs must be distinct"),
    (["fixed-output", "recognize", "--machine", "m.rm", "--y", "1",
      "--schedule", "0,8"],
     "fixed-output", "argument --schedule: fuel values must be positive"),
    (["fixed-output", "recognize", "--machine", "m.rm", "--y", "1",
      "--schedule", "8,-16"],
     "fixed-output", "argument --schedule: fuel values must be positive"),
    (["check-variety", "--depth", "0"],
     "check-variety", "argument --depth: depth must be positive"),
    (["check-variety", "--depth", "-1"],
     "check-variety", "argument --depth: depth must be positive"),
    (["check-variety", "--depth", "two"],
     "check-variety", "argument --depth: invalid int value: 'two'"),
    (["classify", "--axioms", "p"],
     "classify", "the following arguments are required: --goal"),
    (["frobnicate"], None, "argument command: invalid choice: 'frobnicate' "
     "(choose from 'check-prevariety', 'check-variety', 'closure', "
     "'consistency', 'project', 'classify', 'minimal-subsets', "
     "'fixed-output', 'report-matrix')"),
    ([], None, "the following arguments are required: command"),
    (["--format", "text"], None, "the following arguments are required: command"),
    # extra tokens are reported against the command that was read
    (["classify", "--axioms", "p", "--goal", "p", "--bogus"],
     "classify", "unrecognized arguments: --bogus"),
    (["fixed-output", "brute", "--y", "1", "extra"],
     "fixed-output", "unrecognized arguments: extra"),
    (["--bogus", "classify", "--axioms", "p", "--goal", "p"],
     "classify", "unrecognized arguments: --bogus"),
    (["classify", "--axioms", "(p", "--goal", "p"],
     "classify", "argument --axioms: col 1: unknown connective 'p'"),
    # global options before the command word; the report is JSON anyway
    (["--format", "text", "classify", "--axioms", "p"],
     "classify", "the following arguments are required: --goal"),
    (["--bounds", "depth=2", "closure", "--calculus"],
     "closure", "argument --calculus: expected one argument"),
    (["fixed-output"], "fixed-output", "the following arguments are required: mode"),
    (["fixed-output", "walk"], "fixed-output",
     "argument mode: invalid choice: 'walk' (choose from 'brute', 'recognize')"),
    # a digit that str.isdigit accepts and int() cannot read
    (["classify", "--axioms", "p", "--goal", "p", "--bounds", "depth=²"],
     "classify", "argument --bounds: bad bounds entry 'depth=²'; "
     "expected depth=N,atoms=N,enum=N,size=N"),
    # another script's digit, which str.isdecimal and int() read
    (["classify", "--axioms", "p", "--goal", "p", "--bounds", "depth=\u0662"],
     "classify", "argument --bounds: bad bounds entry 'depth=\u0662'; "
     "expected depth=N,atoms=N,enum=N,size=N"),
]


class TestOutputControls:
    def test_json_output_is_deterministic(self, capsys, data_dir):
        argv = ("check-prevariety", str(data_dir / "shared_core.vty"))
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second

    def test_bounds_override_is_reported(self, capsys, data_dir):
        code, report = run_json(
            capsys, "closure", str(data_dir / "shared_core.vty"),
            "--calculus", "L1", "--bounds", "depth=1,size=500",
        )
        assert code == 0
        assert report["bounds"]["depth"] == 1
        assert report["bounds"]["size"] == 500
        assert report["bounds"]["atoms"] == 20

    def test_global_flags_work_before_the_command(self, capsys, data_dir):
        code, out = run_cli(
            capsys, "--format", "text",
            "check-prevariety", str(data_dir / "shared_core.vty"),
        )
        assert code == 0
        assert "verdict: PASS" in out

    def test_global_flags_work_after_the_command(self, capsys, data_dir):
        code, out = run_cli(
            capsys, "check-prevariety", str(data_dir / "shared_core.vty"),
            "--format", "text",
        )
        assert code == 0
        assert "verdict: PASS" in out

    def test_format_env_variable(self, capsys, data_dir, monkeypatch):
        monkeypatch.setenv("VTY_FORMAT", "text")
        code, out = run_cli(capsys, "check-prevariety", str(data_dir / "shared_core.vty"))
        assert code == 0
        assert "verdict: PASS" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_flag_beats_the_env_variable(self, capsys, data_dir, monkeypatch):
        monkeypatch.setenv("VTY_FORMAT", "text")
        code, report = run_json(
            capsys, "--format", "json",
            "check-prevariety", str(data_dir / "shared_core.vty"),
        )
        assert code == 0
        assert report["result"]["structure"]["verdict"] == "PASS"

    @pytest.mark.parametrize("value", ["xml", "JSON", " json"])
    def test_bad_format_env_variable_is_a_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("VTY_FORMAT", value)
        code, report = run_json(capsys, "classify", "--axioms", "p", "--goal", "p")
        assert (code, report) == (2, {
            "command": "classify", "manifest": None,
            "errors": [f"VTY_FORMAT: invalid choice: {value!r} (choose from 'json', 'text')"]})
        # the flag is read first, so the variable is not read at all
        code, report = run_json(capsys, "classify", "--axioms", "p", "--goal", "p",
                                "--format", "json")
        assert (code, report["errors"]) == (0, [])

    def test_empty_format_env_variable_is_unset(self, capsys, monkeypatch):
        monkeypatch.setenv("VTY_FORMAT", "")
        empty = run_json(capsys, "classify", "--axioms", "p", "--goal", "p")
        monkeypatch.delenv("VTY_FORMAT")
        assert empty == run_json(capsys, "classify", "--axioms", "p", "--goal", "p")
        assert empty[0] == 0

    def test_matrix_text_table(self, capsys):
        code, out = run_cli(capsys, "report-matrix", "--format", "text")
        assert code == 0
        lines = out.splitlines()
        assert "fixed_output_undecidable" in lines[0]
        assert lines[1].startswith("T ")
        assert lines[-1] == "legend: C corollary, - not applicable, ? unknown"
        rows = {line.split()[0]: line for line in lines[1:-1]}
        assert rows["TT"].count("-") == 2
        assert rows["RM"].count("C") == 2

    def test_matrix_is_built_once_in_text_format(self, capsys, monkeypatch):
        calls = []
        real = vty.cli.registry_report

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(vty.cli, "registry_report", counting)
        code, _ = run_cli(capsys, "report-matrix", "--format", "text")
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("argv, message", [
        (["--bounds", "width=3", "report-matrix"],
         "bad bounds entry 'width=3'; expected depth=N,atoms=N,enum=N,size=N"),
        # a repeated key, refused as a manifest's bounds line refuses it
        (["--bounds", "depth=1,depth=2", "report-matrix"],
         "bad bounds entry 'depth=2'; expected depth=N,atoms=N,enum=N,size=N"),
        (["fixed-output", "brute", "--y", "1", "--inputs", "1,x"], "bad input list '1,x'"),
        (["fixed-output", "recognize", "--machine", "m.rm", "--y", "1", "--schedule", "8,y"],
         "bad fuel schedule '8,y'"),
        (["fixed-output", "brute", "--y", "1", "--inputs", ","], "empty input list ','"),
        (["fixed-output", "recognize", "--machine", "m.rm", "--y", "1", "--schedule", ""],
         "empty fuel schedule ''"),
        # more digits than int() converts
        (["--bounds", "depth=" + "9" * 4400, "report-matrix"],
         f"bad bounds entry 'depth={'9' * 4400}'; expected depth=N,atoms=N,enum=N,size=N"),
        # the parenthesis past the limit opens at offset 5 * MAX_NESTING
        (["classify", "--goal", "p", "--axioms", "p",
          "(not " * (MAX_NESTING + 1) + "p" + ")" * (MAX_NESTING + 1)],
         f"col {5 * MAX_NESTING}: formula nests deeper than {MAX_NESTING} parentheses"),
        (["classify", "--axioms", "p", "--goal", "(p"], "col 1: unknown connective 'p'"),
    ])
    def test_bad_argument_lists_are_usage_errors(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        [error] = json.loads(captured.out)["errors"]
        option = error.removeprefix("argument ").split(":", 1)[0]
        assert option in argv
        assert error == f"argument {option}: {message}"
        assert captured.err == ""

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["fixed-output", "brute", "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: vty fixed-output brute")

    def test_other_usage_errors_get_a_json_report(self, capsys):
        for argv, command, message in OTHER_USAGE_ERRORS:
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2
            assert json.loads(captured.out) == {
                "command": command, "manifest": None, "errors": [message]}
            assert captured.err == ""

    def test_help_texts(self, capsys, monkeypatch, golden):
        # argparse wraps help to the terminal width it reads from COLUMNS
        monkeypatch.setenv("COLUMNS", "80")
        texts = {}
        for argv in HELP_ARGVS:
            with pytest.raises(SystemExit) as exit_info:
                main([*argv, "--help"])
            captured = capsys.readouterr()
            assert exit_info.value.code == 0
            assert captured.err == ""
            texts[" ".join(["vty", *argv])] = captured.out
        golden("cli_help", texts)

    def test_text_rendering_of_nested_reports(self, capsys, data_dir):
        code, out = run_cli(
            capsys, "check-variety", str(data_dir / "shared_core_nowitness.vty"),
            "--depth", "2", "--format", "text",
        )
        assert code == 1
        assert "code: MISSING_WITNESS" in out
        assert "verdict: FAIL" in out


# one argv of each request shape the benchmark in vtybench/ sends
BENCH_ARGVS = (
    ("closure", "{data}/shared_core.vty"),
    ("closure", "{data}/shared_core.vty", "--with-proofs"),
    ("minimal-subsets", "--axioms", "a0b", "(-> a0b c1d)", "e2f", "--goal", "c1d",
     "--base", "mp", "--depth", "3"),
    ("classify", "--axioms", "a0b", "(-> a0b c1d)", "e2f", "--goal", "c1d",
     "--base", "mp", "--depth", "3"),
    ("check-prevariety", "{data}/inconsistent_kb.vty"),
    ("check-variety", "{data}/inconsistent_kb.vty", "--depth", "5"),
    ("fixed-output", "brute", "--y", "2", "--max-instructions", "2",
     "--max-registers", "1", "--inputs", "3,6", "--fuel", "64"),
    ("fixed-output", "recognize", "--machine", "{data}/adder.rm", "--y", "1",
     "--schedule", "8,16,32,64,128"),
)


@pytest.fixture
def parser_count(monkeypatch):
    """How many vty argparse parsers (root, command or mode) were built."""
    built = []
    real = vty.cli._ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(vty.cli._ArgumentParser, "__init__", counting)
    return built


class TestOneCommandParser:
    @pytest.mark.parametrize("command", CLI_COMMANDS + BENCH_ARGVS, ids=" ".join)
    def test_same_namespace_as_the_full_parser(self, data_dir, command):
        # every acceptance and benchmark argv is plain, so the direct pass
        # reads it, and into the Namespace the full parser gives
        argv = [part.format(data=data_dir) for part in command]
        direct = _direct_parse(argv)
        assert direct is not None
        assert direct == build_parser().parse_args(argv)

    @pytest.mark.parametrize("argv, count", [
        # a plain argv is read from the command table, with no parser
        (["closure", "--calculus", "L1", "{data}/shared_core.vty"], 0),
        (["classify", "--axioms", "p", "(-> p q)", "--goal", "q"], 0),
        (["fixed-output", "brute", "--y", "1", "--max-instructions", "1"], 0),
        (["fixed-output", "recognize", "--machine", "{data}/adder.rm", "--y", "0",
          "--schedule", "8,16"], 0),
        # any other argv builds every parser: root, commands and modes
        (["fixed-output", "brute", "--y=1"], 12),
        (["fixed-output", "brute", "--max-i", "1", "--y", "1"], 12),
        (["--format", "text", "closure", "--calculus", "L1", "{data}/shared_core.vty"], 12),
        (["frobnicate"], 12),
    ])
    def test_parsers_built_per_call(self, capsys, data_dir, parser_count, argv, count):
        main([part.format(data=data_dir) for part in argv])
        capsys.readouterr()
        assert len(parser_count) == count

    def test_main_reads_sys_argv(self, capsys, monkeypatch, parser_count):
        argv = ["classify", "--axioms", "p", "(-> p q)", "--goal", "q"]
        expected = run_cli(capsys, *argv)
        parser_count.clear()
        monkeypatch.setattr(sys, "argv", ["vty", *argv])
        code = main()
        assert (code, capsys.readouterr().out) == expected
        assert len(parser_count) == 0

    @given(argv=st.deferred(lambda: ORACLE_ARGV))
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_direct_pass_reads_as_argparse_or_not_at_all(self, capsys, argv):
        direct = _direct_parse(argv)
        try:
            expected = build_parser().parse_args(argv)
        except (_UsageError, SystemExit):
            capsys.readouterr()  # the help text
            assert direct is None
        else:
            assert direct is None or direct == expected

    def test_every_benchmark_argv_takes_the_direct_path(self, tmp_path, bench):
        # a silent fallback to argparse would pass every other test
        workloads = bench
        for workload in workloads.WORKLOADS.values():
            for seed in (1, 2):
                for request in workloads.generate(workload, seed, 40, tmp_path):
                    for argv in (step.argv for step in request.steps if step.argv):
                        direct = _direct_parse(argv)
                        assert direct is not None, argv
                        assert direct == build_parser().parse_args(argv)

    def test_rows_the_direct_pass_reads(self):
        rows = [*vty.cli._GLOBAL_ARGUMENTS]
        for spec in vty.cli._COMMANDS.values():
            rows += spec.arguments
            for _, _, mode_rows in spec.modes:
                rows += mode_rows
        for flags, options in rows:
            # the dest is read from the one long flag
            assert len(flags) == 1 and flags[0].startswith("--")
            # argparse runs a str default other than SUPPRESS through the
            # type; the direct pass does not
            default = options.get("default")
            assert not (isinstance(default, str) and default is not argparse.SUPPRESS
                        and "type" in options)


BENCH_DIR = Path(__file__).resolve().parent.parent / "vtybench"


@pytest.fixture(scope="module")
def bench():
    """The benchmark's request builders, imported from vtybench/ as they
    are; its modules import each other by bare name."""
    sys.path.insert(0, str(BENCH_DIR))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH_DIR))


# the presets written out as `proof_checker` reads them: mp is modus
# ponens alone, and hilbert adds the schemas P1-P3
MP = {"mp": (["a", "(-> a b)"], "b")}
HILBERT_SCHEMAS = {
    "P1": "(-> a (-> b a))",
    "P2": "(-> (-> a (-> b c)) (-> (-> a b) (-> a c)))",
    "P3": "(-> (-> (not a) (not b)) (-> b a))",
}


def preset_calculus(preset, axioms):
    schemas = HILBERT_SCHEMAS if preset == "hilbert" else {}
    return {"axioms": list(axioms), "rules": MP, "schemas": schemas}


# each golden that holds proofs, the criterion 9 argv that prints the same
# report, and the calculus of its proofs: L1 of shared_core.vty, and
# hilbert with the axioms given
PRINTED_PROOFS = (
    ("closure_l1_with_proofs",
     ("closure", "{data}/shared_core.vty", "--calculus", "L1", "--with-proofs"),
     preset_calculus("mp", ["(-> p q)", "p"])),
    ("classify_modus_ponens",
     ("classify", "--axioms", "p", "(-> p q)", "--goal", "q"),
     preset_calculus("hilbert", ["p", "(-> p q)"])),
)


def check_printed_proofs(calculus, argv, result):
    """Every proof in the result of `argv`, a closure with proofs or a
    classify, passes `proof_checker`, ends in the formula it proves and
    counts its rule applications; each printed closure cost is the cost of
    its proof tree."""
    if argv[0] == "classify":
        proofs, costs = {argv[argv.index("--goal") + 1]: result["proof"]}, {}
    else:
        proofs, costs = result["proofs"], result["costs"]
        assert sorted(proofs) == sorted(costs) == result["formulas"]
    for formula, proof in proofs.items():
        assert proof_checker.check(calculus, proof) == (True, None, None, ""), formula
        steps = proof["steps"]
        assert steps[-1]["formula"] == formula
        assert proof["rule_applications"] == sum(step["kind"] == "rule" for step in steps)
        if costs:
            assert proof_checker.tree_cost(proof) == costs[formula], formula


class TestPrintedProofsPassAnIndependentChecker:
    """Every printed proof, and its printed cost where there is one, passes
    a checker that reads the JSON with its own s-expression reader and
    imports nothing from vty, `proof_checker`: on the goldens, on criterion
    9's reports, on the benchmark's request shapes and on criterion 6's sets."""

    @pytest.mark.parametrize("name, argv, calculus", PRINTED_PROOFS,
                             ids=[name for name, _, _ in PRINTED_PROOFS])
    def test_golden_proofs(self, name, argv, calculus):
        report = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
        check_printed_proofs(calculus, argv, report["result"])

    @pytest.mark.parametrize("name, argv, calculus", PRINTED_PROOFS,
                             ids=[name for name, _, _ in PRINTED_PROOFS])
    def test_criterion_9_proofs(self, capsys, data_dir, name, argv, calculus):
        assert argv in CLI_COMMANDS
        code, report = run_json(capsys, *(part.format(data=data_dir) for part in argv))
        assert code == 0
        check_printed_proofs(calculus, argv, report["result"])

    @pytest.mark.parametrize("seed", range(3))
    def test_closure_with_proofs_on_the_benchmark_shapes(self, capsys, tmp_path, bench, seed):
        workloads = bench
        rng = random.Random(seed)
        names = workloads.NamePool(rng)
        shapes = [shape for shape in workloads.PROOF_SHAPES if shape[3]]
        assert {shape[0] for shape in shapes} == {"hilbert", "mp"}
        for index, shape in enumerate(shapes):
            request = workloads.make_proof_request(rng, names, tmp_path, index, shape)
            argv = request.steps[0].argv
            code, report = run_json(capsys, *argv)
            assert code == 0, report["errors"]
            calculus = preset_calculus(request.spec["base"], request.spec["axioms"])
            check_printed_proofs(calculus, argv, report["result"])

    @pytest.mark.parametrize("axioms", [["p", "(-> p q)"], ["p", "q", "(-> p q)"], ["(-> p q)"]])
    def test_classify_on_the_criterion_6_sets(self, capsys, axioms):
        argv = ("classify", "--axioms", *axioms, "--goal", "q")
        code, report = run_json(capsys, *argv)
        assert code == 0
        result = report["result"]
        if result["sufficient"] == "UNKNOWN":  # the open question has no proof to print
            assert "proof" not in result
        else:
            check_printed_proofs(preset_calculus("hilbert", axioms), argv, result)


def test_seed_manifest_bounds_are_the_defaults():
    # commands that take no manifest report the seed registry's bounds, so a
    # CLI that skips parsing it must get the same figures from Bounds()
    assert vty.cli._seed_manifest().bounds == Bounds()


def nested_manifest(levels: int) -> str:
    # `(-> p (not (not ... p)))` nests `levels` parentheses deep
    deep = "(-> p " + "(not " * (levels - 1) + "p" + ")" * levels
    return (
        "rule mp {\n  premise a\n  premise (-> a b)\n  conclude b\n}\n\n"
        f"calculus L {{\n  depth 2\n  axiom p\n  axiom {deep}\n  use mp\n}}\n"
    )


class TestNestingLimit:
    def test_formula_at_the_limit_closes_with_proofs(self, capsys, tmp_path):
        path = tmp_path / "deep.vty"
        path.write_text(nested_manifest(MAX_NESTING))
        code, report = run_json(capsys, "closure", str(path), "--with-proofs")
        assert code == 0
        assert report["errors"] == []
        assert report["result"]["count"] == 3  # both axioms and what mp derives
        assert len(report["result"]["proofs"]) == 3

    def test_one_level_deeper_is_a_located_parse_error(self, capsys, tmp_path):
        path = tmp_path / "deep.vty"
        text = nested_manifest(MAX_NESTING + 1)
        path.write_text(text)
        code, report = run_json(capsys, "closure", str(path))
        assert code == 2
        line = text.splitlines()[9]
        col = [i for i, ch in enumerate(line) if ch == "("][MAX_NESTING] + 1
        assert report["errors"] == [
            f"{path}:10:{col}: formula nests deeper than {MAX_NESTING} parentheses"
        ]

    def test_derivation_past_the_recursion_limit_is_an_operational_error(
            self, capsys, tmp_path):
        # each round wraps the last formula in one more `not`, and formatting
        # a formula recurses once per level; at the default recursion limit
        # depth 1200 trips it, and a lowered limit trips it at a cheaper depth
        path = tmp_path / "negations.vty"
        path.write_text("rule neg {\n  premise a\n  conclude (not a)\n}\n\n"
                        "calculus L {\n  axiom p\n  use neg\n}\n")
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 200)
        try:
            code = main(["closure", str(path), "--depth", "400"])
        finally:
            sys.setrecursionlimit(limit)
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["errors"] == [
            "formula nesting exceeds the interpreter's recursion limit"
        ]
        assert "result" not in report


# entries of the form key=value, and free text
BOUNDS_TEXT = st.one_of(
    st.lists(st.builds("{}{}{}".format, st.sampled_from((*BOUND_NAMES, "frob", "")),
                       st.sampled_from(("=", "", " = ")),
                       st.one_of(st.integers(0, 12).map(str), st.text(max_size=3))),
             max_size=4).map(",".join),
    st.text(max_size=20),
)

# no --bounds, one entry in range, or free bounds text
BOUNDS_OPTION = st.just(()) | st.one_of(
    st.builds("{}={}".format, st.sampled_from(BOUND_NAMES), st.integers(1, 40)),
    BOUNDS_TEXT,
).map(lambda text: ("--bounds", text))

# manifest fragments, so that fuzzed files reach past the first line
MANIFEST_PIECES = (
    b"signature ", b"bounds ", b"depth=", b"size=", b"rule ", b"calculus ", b"axiom ",
    b"use ", b"premise ", b"conclude ", b"axiom-decl ", b"class ", b"status ",
    b"theorem-rec ", b"statement ", b"depends ", b"satisfied ", b"citation ",
    b"AX ", b"p ", b"a ", b"0", b"1", b"(-> a p) ", b"(not ", b"(", b")", b"{", b"}",
    b'"', b"#", b"\n", b"\r\n", b"\r", b"  ", b"\xff", b"\xc3\xa9", b"\xe2\x82",
    b"9" * 4400,  # more digits than int() converts
)

MANIFEST_BYTES = st.one_of(
    st.binary(max_size=64),
    st.lists(st.sampled_from(MANIFEST_PIECES), max_size=30).map(b"".join),
)


PREVARIETY_MANIFESTS = ("shared_core.vty", "shared_core_nowitness.vty",
                        "inconsistent_kb.vty", "bijective_modes.vty")
ODD_TOKENS = ("", "0", "3", "quasi", "auto", "{", "}", "(", ")", "bot", "(not", "zz",
              "identity", "renaming", "table")


@st.composite
def mutated_manifest(draw) -> str:
    """A packaged prevariety manifest with lines deleted, duplicated or
    swapped, and tokens replaced by other tokens of the file or odd ones."""
    packaged = Path(vty.cli.__file__).parent / "data"
    lines = (packaged / draw(st.sampled_from(PREVARIETY_MANIFESTS))).read_text().splitlines()
    words = sorted({word for line in lines for word in line.split()})
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("delete", "duplicate", "swap", "replace")))
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif tokens := lines[i].split():
            k = draw(st.integers(0, len(tokens) - 1))
            tokens[k] = draw(st.sampled_from(words) | st.sampled_from(ODD_TOKENS))
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


PREVARIETY_MANIFEST_TEXT = mutated_manifest()


SUBSET_FORMULAS = ("p", "q", "r", "(-> p q)", "(-> q r)", "(-> p r)", "(and p q)",
                   "(or p r)", "(not p)", "(-> (not q) (not p))")


@st.composite
def subset_formula_text(draw) -> str:
    """Formula text for `--axioms` and `--goal`: valid, `bot`, with an
    uppercase atom, or valid text with characters deleted or inserted."""
    text = draw(st.sampled_from(SUBSET_FORMULAS))
    kind = draw(st.sampled_from(("valid",) * 4 + ("bot", "upper", "mutated")))
    if kind == "bot":
        return draw(st.sampled_from(("bot", text.replace("p", "bot", 1))))
    if kind == "upper":
        return text.replace("p", "P")
    if kind == "mutated":
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(text)))
            if draw(st.booleans()) and i < len(text):
                text = text[:i] + text[i + 1:]
            else:
                text = text[:i] + draw(st.sampled_from("() pqXbot->-1")) + text[i:]
    return text


SUBSET_ARGV = st.builds(
    lambda command, axioms, goal, base, depth, bounds: [
        command, "--axioms", *axioms, "--goal", goal, "--base", base,
        "--depth", str(depth), *bounds],
    st.sampled_from(("classify", "minimal-subsets")),
    st.lists(subset_formula_text(), min_size=1, max_size=4),
    subset_formula_text(),
    st.sampled_from(("hilbert", "mp", "empty", "bogus")),
    st.integers(-1, 4),
    BOUNDS_OPTION,
)


# option values: an int in range, or a token that is not an int
ODD_VALUE_TOKENS = ("", "x", "1.5", "-", "--", "--y", "0x1", "1,2")


def int_token(low: int, high: int):
    """Mostly an int in range, so that most argv get past the parser."""
    ints = st.integers(low, high).map(str)
    return st.one_of(ints, ints, ints, st.sampled_from(ODD_VALUE_TOKENS))


def optional(flag: str, value=None):
    """No tokens, or the flag, followed by a drawn value when one is given."""
    return st.just(()) | (st.just((flag,)) if value is None
                          else value.map(lambda drawn: (flag, drawn)))


def comma_list(element, max_size: int):
    return st.lists(element, max_size=max_size).map(",".join)


PACKAGED = Path(vty.cli.__file__).parent / "data"
CLOSURE_MANIFESTS = (None, KNOWLEDGE_FIVE, *(PACKAGED / name for name in PREVARIETY_MANIFESTS))

CLOSURE_ARGV = st.builds(
    lambda manifest, *options: [
        "closure", *([str(manifest)] if manifest else []),
        *itertools.chain.from_iterable(options)],
    st.sampled_from(CLOSURE_MANIFESTS),
    optional("--calculus", st.sampled_from(("L1", "L2", "L5", "CORE", "LB", "zz", ""))),
    optional("--depth", int_token(-1, 4)),
    optional("--with-proofs"),
    BOUNDS_OPTION,
)

SEED_THEOREMS = tuple(t.theorem_id for t in vty.cli._seed_manifest().registry()[1])

PROJECT_ARGV = st.builds(
    lambda theorem, extra: ["project", *theorem, *extra],
    optional("--theorem", st.sampled_from(SEED_THEOREMS) | st.text(max_size=8)),
    st.sampled_from(((), ("--theorem",), ("extra",))),
)

# fuel that takes any world or schedule past the step cap
PAST_THE_STEP_CAP = st.just(str(100 * DEFAULT_STEP_CAP))

# a world of at most 2 instructions, 2 registers, 4 inputs and fuel 64,
# or fuel past the step cap
BRUTE_ARGV = st.builds(
    lambda y, instructions, *rest: [
        "fixed-output", "brute", "--y", y, "--max-instructions", instructions,
        *itertools.chain.from_iterable(rest)],
    int_token(-1, 3),
    int_token(-1, 2),
    optional("--max-registers", int_token(0, 2)),
    optional("--inputs", comma_list(int_token(-1, 5), 4)),
    optional("--fuel", int_token(0, 64) | PAST_THE_STEP_CAP),
)

MACHINE_PIECES = (b"INC ", b"DECJZ ", b"HALT", b"0 ", b"1 ", b"2 ", b"-1 ", b"x ", b"#",
                  b"\n", b"\n", b"\xff")

# the machine is the packaged adder, a missing file, a directory or a
# fuzzed text; the schedule has at most 4 stages of fuel up to 64, or
# past the step cap
RECOGNIZE_ARGV = st.builds(
    lambda machine, y, schedule, max_input: (machine, [
        "fixed-output", "recognize", "--y", y, "--schedule", schedule, *max_input]),
    st.sampled_from(("adder", "missing", "directory")) | st.lists(
        st.sampled_from(MACHINE_PIECES), max_size=20).map(b"".join),
    int_token(-1, 3),
    comma_list(int_token(-1, 64) | PAST_THE_STEP_CAP, 4),
    optional("--max-input", int_token(-1, 3)),
)


PREVARIETY_IDS = ("KB", "SHARED", "BIJ", "zz", "")
MANIFEST_PATH = st.sampled_from(CLOSURE_MANIFESTS).map(lambda path: [str(path)] if path else [])

# the commands that read a prevariety, and report-matrix, each with an
# optional manifest (the seed registry declares no prevariety) and an
# optional --bounds
MANIFEST_COMMAND_ARGV = st.builds(
    lambda argv, bounds: [*argv, *bounds],
    st.one_of(
        st.builds(lambda command, manifest, prevariety: [command, *manifest, *prevariety],
                  st.sampled_from(("check-prevariety", "consistency")), MANIFEST_PATH,
                  optional("--prevariety", st.sampled_from(PREVARIETY_IDS))),
        st.builds(lambda manifest, *options: ["check-variety", *manifest,
                                              *itertools.chain.from_iterable(options)],
                  MANIFEST_PATH,
                  optional("--prevariety", st.sampled_from(PREVARIETY_IDS)),
                  optional("--depth", int_token(0, 3)),
                  optional("--bijective"),
                  optional("--mode", st.sampled_from(("prevariety", "variety", "quasi")))),
        MANIFEST_PATH.map(lambda manifest: ["report-matrix", *manifest]),
    ),
    BOUNDS_OPTION,
)

PLAIN_ARGV = st.one_of(
    SUBSET_ARGV, CLOSURE_ARGV, PROJECT_ARGV, BRUTE_ARGV, MANIFEST_COMMAND_ARGV,
    RECOGNIZE_ARGV.map(lambda drawn: [*drawn[1], "--machine", "m.rm"]),
)


@st.composite
def irregular_argv(draw) -> list[str]:
    """A plain argv with its option groups shuffled, one flag repeated or
    abbreviated, one flag joined to its value by "=", or --format put first."""
    argv = draw(PLAIN_ARGV)
    head = 2 if argv[0] == "fixed-output" else 1
    groups: list[list[str]] = []
    for token in argv[head:]:
        if token.startswith("--") or not groups:
            groups.append([token])
        else:
            groups[-1].append(token)
    flagged = [group for group in groups if group[0].startswith("--")]
    kind = draw(st.sampled_from(("shuffle", "repeat", "abbreviate", "equals", "format")))
    if kind == "shuffle":
        groups = draw(st.permutations(groups))
    elif kind == "format":
        argv[:head] = ["--format", draw(st.sampled_from(("json", "text"))), *argv[:head]]
        head += 2
    elif flagged:
        group = draw(st.sampled_from(flagged))
        if kind == "repeat":
            groups.append(list(group))
        elif kind == "abbreviate":
            # a bare "--" drawn as a value has no prefix to cut
            group[0] = group[0][:draw(st.integers(3, max(3, len(group[0]))))]
        elif len(group) > 1:
            group[:2] = [f"{group[0]}={group[1]}"]
    return [*argv[:head], *itertools.chain.from_iterable(groups)]


ORACLE_ARGV = PLAIN_ARGV | irregular_argv()


class TestFuzzedInput:
    # every call prints one JSON report and exits 0, 1 or 2; it exits 0
    # exactly when the report lists no error, except that a check whose
    # verdict is FAIL exits 1 with no error listed
    def check(self, capsys, argv: list[str], verdict_exits: bool = False) -> tuple[int, dict]:
        code = main(argv)
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert captured.err == ""
        assert code in (0, 1, 2)
        if verdict_exits and not report["errors"]:
            assert code in (0, 1)
        else:
            assert (code == 0) == (report["errors"] == [])
        return code, report

    @given(text=BOUNDS_TEXT)
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bounds_override_text(self, capsys, text):
        self.check(capsys, ["classify", "--axioms", "p", "(-> p q)", "--goal", "q",
                            "--depth", "1", "--bounds", text])

    @given(argv=SUBSET_ARGV)
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_subset_command_arguments(self, capsys, argv):
        self.check(capsys, argv)

    @given(data=MANIFEST_BYTES, command=st.sampled_from(
        (["report-matrix"], ["closure", "--depth", "1"])))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example(data=b"bounds depth=" + b"9" * 4400, command=["report-matrix"])
    def test_manifest_bytes(self, capsys, tmp_path, data, command):
        path = tmp_path / "fuzzed.vty"
        path.write_bytes(data)
        code, report = self.check(capsys, [*command, str(path)])
        if code == 2:
            # every manifest fault names its place in the file; closure on a
            # manifest that declares other than one calculus faults --calculus
            assert all(error.startswith(f"{path}:") or (
                           command[0] == "closure"
                           and error.startswith("argument --calculus: pick a calculus; "))
                       for error in report["errors"])

    @given(argv=st.one_of(CLOSURE_ARGV, PROJECT_ARGV, BRUTE_ARGV))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_closure_project_and_brute_arguments(self, capsys, argv):
        self.check(capsys, argv)

    @given(drawn=RECOGNIZE_ARGV)
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_recognize_arguments(self, capsys, tmp_path, drawn):
        machine, argv = drawn
        if machine == "adder":
            path = PACKAGED / "adder.rm"
        elif machine == "missing":
            path = tmp_path / "missing.rm"
        elif machine == "directory":
            path = tmp_path
        else:
            path = tmp_path / "fuzzed.rm"
            path.write_bytes(machine)
        self.check(capsys, [*argv, "--machine", str(path)])

    @given(argv=MANIFEST_COMMAND_ARGV)
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_manifest_command_arguments(self, capsys, argv):
        self.check(capsys, argv, verdict_exits=True)

    @given(text=PREVARIETY_MANIFEST_TEXT, command=st.sampled_from((
        ["check-prevariety"], ["check-variety", "--depth", "2"],
        ["check-variety", "--depth", "2", "--bijective", "--mode", "prevariety"],
        ["check-variety", "--depth", "2", "--bijective", "--mode", "variety"],
        ["consistency"])))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_prevariety_manifests(self, capsys, tmp_path, text, command):
        path = tmp_path / "mutated.vty"
        path.write_text(text, encoding="utf-8")
        self.check(capsys, [command[0], str(path), *command[1:]], verdict_exits=True)


# controls, quote, backslash, DEL, non-ASCII, a line separator, lone
# surrogates and a character beyond the BMP
ESCAPED_CHARACTERS = "\x00\x1f\"\\\x7f\u00e9\u2028\ud800\udfff\U0001f600"
JSON_TEXT = st.text(st.characters(exclude_categories=()) | st.sampled_from(ESCAPED_CHARACTERS),
                    max_size=6)
# the values a report holds: str, int, bool and None, in lists and in
# str-keyed dicts, empty or nested
REPORT_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-2**200, 2**200), JSON_TEXT),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(JSON_TEXT, inner, max_size=4),
    ),
    max_leaves=24,
)


class _Int(int):
    pass


class _Str(str):
    pass


class TestReportEmitter:
    @given(value=REPORT_VALUES)
    @settings(max_examples=400, deadline=None)
    def test_same_text_as_json_dumps(self, value):
        assert vty.cli._json_text(value) == oracle_report_json(value)

    @pytest.mark.parametrize("value", [
        {1: "one"},
        {"steps": [{None: 0}]},
        {"atoms": {"p", "q"}},
        [frozenset()],
        {"formula": parse_formula("(-> p q)")},
        # json.dumps writes these; no report holds one
        {"ratio": 0.5},
        {"pair": (1, 2)},
        [_Int(3)],
        {"verdict": _Str("PASS")},
    ], ids=["int-key", "nested-none-key", "set", "frozenset", "formula", "float", "tuple",
            "int-subclass", "str-subclass"])
    def test_a_value_json_would_convert_or_refuse_raises(self, value):
        with pytest.raises(TypeError):
            vty.cli._json_text(value)


class TestMapPasses:
    # one pass per (map, source set) pair: assembly, the checks and the
    # consistency report read the same per-component record
    @pytest.mark.parametrize("argv, passes", [
        (KNOWLEDGE_FIVE_COMMANDS[0], 10),
        (KNOWLEDGE_FIVE_COMMANDS[1], 15),
    ])
    def test_each_map_runs_once_over_each_set(self, capsys, monkeypatch, argv, passes):
        real = FormulaMap.over
        seen = []

        def counting(self, formulas):
            formulas = frozenset(formulas)
            seen.append((self, formulas))
            return real(self, formulas)

        monkeypatch.setattr(FormulaMap, "over", counting)
        code, _ = run_json(capsys, argv[0], str(KNOWLEDGE_FIVE), *argv[1:])
        assert code == 0
        assert len(set(seen)) == passes
        assert len(seen) == passes


PARTIAL_AXIOM_MAP = """\
rule mp {
  premise a
  premise (-> a b)
  conclude b
}

calculus L {
  depth 1
  axiom a
  axiom b
  axiom c
  axiom d
  axiom e
  use mp
}

map t table {
  pair a a
}

component C {
  calculus L
  axiom-map t
  theorem-map t
}

prevariety P {
  component C
  auto
}
"""


class TestFirstMissedFormula:
    def test_assembly_error_names_the_first_miss_under_every_hash_seed(self, tmp_path):
        path = tmp_path / "partial.vty"
        path.write_text(PARTIAL_AXIOM_MAP)
        src = str(Path(vty.cli.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        outputs = set()
        for hash_seed in ("0", "1", "2", "3"):
            proc = subprocess.run(
                [sys.executable, "-m", "vty.cli", "check-prevariety", str(path)],
                capture_output=True, text=True, env={**env, "PYTHONHASHSEED": hash_seed},
            )
            assert proc.returncode == 1, proc.stderr
            outputs.add(proc.stdout)
        [output] = outputs
        assert json.loads(output)["errors"] == [
            "map 't' is undefined on b while assembling axioms of component 'C'"
        ]


def test_reader_closing_early_exits_1_without_a_traceback(tmp_path):
    # the read end is closed before vty starts, so its first write fails
    # as a `| head -1` reader makes a long report's writes fail
    src = str(Path(vty.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "vty.cli", "report-matrix"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


class TestEncodingLock:
    def test_adder_program_code_is_stable(self, data_dir):
        adder = parse_machine((data_dir / "adder.rm").read_text())
        code = encode_machine(adder)
        assert code.bit_length() == 28382
        raw = code.to_bytes((code.bit_length() + 7) // 8, "big")
        assert hashlib.sha256(raw).hexdigest() == (
            "b6919df69fb54923b314040a5b37ab7da4bdedceff9f8803eb52248c4313eceb"
        )
