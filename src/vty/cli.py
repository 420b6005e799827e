"""Command-line front end: one manifest in, one deterministic report out.

Every command prints a single report, JSON by default (stable key order,
stable list order) or indented plain text with --format text. Exit codes:
0 when the command answered and every requested check passed, 1 when a
check failed or an operation error occurred, 2 on usage, parse or
reference errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Any, Callable, NamedTuple, Sequence

from .calculus import PRESET_NAMES, Proof, closure
from .errors import ManifestError, UnresolvedReferenceError, VtyError
from .formulas import Formula, formula_key, parse_formula
from .lex import _ascii_digits
from .machines import (
    WorldBounds,
    fixed_output_brute,
    fixed_output_recognize,
    format_machine,
    parse_machine,
)
from .manifest import BOUND_NAMES, Manifest, load_manifest, read_bound_entry
from .projection import (
    MatrixReport,
    classify_relation,
    minimal_axiom_subsets,
    project,
    registry_report,
)
from .seed import SEED_MANIFEST_LABEL, seed_manifest as _seed_manifest
from .varieties import (
    check_bijective_variety,
    check_prevariety,
    check_variety,
    consistency_report,
)

_RECURSION_MESSAGE = "formula nesting exceeds the interpreter's recursion limit"
# the report formats, by --format or else VTY_FORMAT; json when neither is set
_FORMATS = ("json", "text")


def _parse_bounds_override(text: str) -> dict[str, int]:
    values: dict[str, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            read_bound_entry(part, 0, values)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad bounds entry {part!r}; expected "
                + ",".join(f"{name}=N" for name in BOUND_NAMES)
            ) from None
    return values


def _formula_arg(text: str) -> Formula:
    try:
        return parse_formula(text)
    except VtyError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _at_least(minimum: int, what: str, value: int) -> int:
    """`value`, or a usage error naming `what` when it is below `minimum` (0 or 1)."""
    if value < minimum:
        bound = "nonnegative" if minimum == 0 else "positive"
        raise argparse.ArgumentTypeError(f"{what} must be {bound}")
    return value


def _int_text(text: str, fault: str) -> int:
    """`text` as an int if it is ASCII digits after an optional '-', as a
    manifest number is; int() alone also reads '+', blanks, '_' and other
    scripts' digits. Anything else is a usage error saying `fault`."""
    try:
        if _ascii_digits(text.removeprefix("-")):
            return int(text)
    except ValueError:  # more digits than int() converts
        pass
    raise argparse.ArgumentTypeError(fault)


def _int_arg(what: str, minimum: int):
    """An argparse type for an int of at least `minimum`, named `what` in
    errors. A non-integer keeps the message argparse gives for type=int."""

    def parse(text: str) -> int:
        return _at_least(minimum, what, _int_text(text, f"invalid int value: {text!r}"))

    return parse


def _int_list_arg(what: str, items: str, minimum: int, *, distinct: bool = False,
                  increasing: bool = False):
    """An argparse type for a nonempty list of comma-separated ints of at
    least `minimum`, with no value twice if `distinct` and each above the
    last if `increasing`; the list is named `what` when it does not parse,
    is empty or does not increase, its entries `items` when one is below
    `minimum` or repeats."""

    def parse(text: str) -> tuple[int, ...]:
        values = tuple(_int_text(part, f"bad {what} {text!r}")
                       for part in map(str.strip, text.split(",")) if part)
        if not values:
            raise argparse.ArgumentTypeError(f"empty {what} {text!r}")
        _at_least(minimum, items, min(values))
        if distinct and len(set(values)) != len(values):
            raise argparse.ArgumentTypeError(f"{items} must be distinct")
        if increasing and any(b <= a for a, b in zip(values, values[1:])):
            raise argparse.ArgumentTypeError(f"the {what} must be strictly increasing")
        return values

    return parse


class _UsageError(Exception):
    """A usage error argparse found, with argparse's message."""

    def __init__(self, prog: str, message: str):
        super().__init__(message)
        self.prog = prog


class _HelpFormatter(argparse.HelpFormatter):
    """Wraps usage as argparse 3.10-3.12 does, where 3.13 keeps an option with
    its metavar: 3.13.0 wraps from the first method, 3.13.13 from the second."""

    _part = re.compile(r"\(.*?\)+(?=\s|$)|\[.*?\]+(?=\s|$)|\S+")

    def _get_actions_usage_parts(self, actions, groups):
        return self._part.findall(" ".join(super()._get_actions_usage_parts(actions, groups)))

    def _get_actions_usage_parts_with_split(self, actions, groups, opt_count=None):
        parts, start = super()._get_actions_usage_parts_with_split(actions, groups, opt_count)
        optionals = self._part.findall(" ".join(parts[:start]))
        positionals = [] if start is None else self._part.findall(" ".join(parts[start:]))
        return optionals + positionals, None if start is None else len(optionals)


class _ArgumentParser(argparse.ArgumentParser):
    """Raises `_UsageError` where argparse would print usage text and exit 2.

    Subcommand parsers are of this class too, so a bad value, a missing
    argument and an unknown command all reach `main`, which reports them
    as JSON. ``--help`` does not go through `error` and prints as before.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, formatter_class=_HelpFormatter, **kwargs)

    def error(self, message: str):
        raise _UsageError(self.prog, message)

    def _check_value(self, action, value):  # choices quoted, as up to 3.13.0; 3.13.13 prints them bare
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(action, f"invalid choice: {value!r} (choose from {choices})")


# --- command bodies ----------------------------------------------------------


def _declared(flag: str, lookup: Callable[[], Any]) -> Any:
    """`lookup()`, with an id that the manifest does not declare reported as
    a fault of the option `flag`. The manifest was validated when it was
    loaded, so the one reference a lookup can miss is the id asked for."""
    try:
        return lookup()
    except UnresolvedReferenceError as exc:
        raise argparse.ArgumentTypeError(f"argument {flag}: {exc.message}") from None


def _substitution_dict(substitution) -> dict[str, str]:
    return {var: formula_key(value) for var, value in substitution}


def _proof_dict(proof: Proof) -> dict:
    steps = []
    for formula, kind, ref, substitution, premises in proof.steps:
        step = {"formula": formula_key(formula), "kind": kind}
        if kind != "axiom":
            step[kind] = ref  # "schema": its id, or "rule": its name
            step["substitution"] = _substitution_dict(substitution)
            if kind == "rule":
                step["premises"] = list(premises)
        steps.append(step)
    return {"steps": steps, "rule_applications": proof.rule_applications()}


def _cmd_check_prevariety(args, manifest: Manifest):
    pv = _declared("--prevariety", lambda: manifest.prevariety(args.prevariety))
    bounds = manifest.bounds
    structure = check_prevariety(pv, size_cap=bounds.size)
    consistency = consistency_report(pv, atom_cap=bounds.atoms, size_cap=bounds.size)
    result = {"structure": structure.to_dict(), "consistency": consistency.to_dict()}
    return result, 0 if structure.passed else 1


def _cmd_check_variety(args, manifest: Manifest):
    if args.mode and not args.bijective:
        raise argparse.ArgumentTypeError("argument --mode: a mode needs --bijective")
    pv = _declared("--prevariety", lambda: manifest.prevariety(args.prevariety))
    witnesses = manifest.prevariety_witnesses(args.prevariety)
    if args.bijective:
        report = check_bijective_variety(pv, args.mode or "variety", args.depth, witnesses,
                                         size_cap=manifest.bounds.size)
    else:
        report = check_variety(pv, args.depth, witnesses, size_cap=manifest.bounds.size)
    return report.to_dict(), 0 if report.passed else 1


def _cmd_closure(args, manifest: Manifest):
    calculus_id = args.calculus
    if calculus_id is None:
        if len(manifest.calculi) != 1:
            raise argparse.ArgumentTypeError("argument --calculus: pick a calculus; "
                                             f"the manifest declares {len(manifest.calculi)}")
        calculus_id = manifest.calculi[0].calculus_id
    # closure reads depth None as the calculus depth and sorts its entries
    calculus = _declared("--calculus", lambda: manifest.calculus(calculus_id))
    result = closure(calculus, args.depth, size_cap=manifest.bounds.size)
    entries = result.entries
    formulas = [formula_key(e.formula) for e in entries]
    out = {
        "calculus": calculus_id,
        "depth": result.depth,
        "domain_size": result.domain_size,
        "count": len(formulas),
        "formulas": formulas,
    }
    if args.with_proofs:
        out["proofs"] = {formula_key(e.formula): _proof_dict(result.proof_for(e.formula))
                         for e in entries}
        out["costs"] = {formula_key(e.formula): e.cost for e in entries}
    return out, 0


def _cmd_consistency(args, manifest: Manifest):
    pv = _declared("--prevariety", lambda: manifest.prevariety(args.prevariety))
    bounds = manifest.bounds
    report = consistency_report(pv, atom_cap=bounds.atoms, size_cap=bounds.size)
    return report.to_dict(), 0


def _cmd_project(args, manifest: Manifest):
    theorem = _declared("--theorem", lambda: manifest.theorem_record(args.theorem))
    return project(theorem, manifest.classes, manifest.axiom_decls).to_dict(), 0


def _cmd_classify(args, manifest: Manifest):
    bounds = manifest.bounds
    depth = args.depth if args.depth is not None else bounds.depth
    report = classify_relation(
        args.axioms, args.goal, args.base, depth,
        atom_cap=bounds.atoms, size_cap=bounds.size,
    )
    out = report.to_dict()
    if report.proof is not None:
        out["proof"] = _proof_dict(report.proof)
    return out, 0


def _cmd_minimal_subsets(args, manifest: Manifest):
    bounds = manifest.bounds
    depth = args.depth if args.depth is not None else bounds.depth
    subsets = minimal_axiom_subsets(args.axioms, args.goal, args.base, depth,
                                    size_cap=bounds.size)
    return {
        "depth": depth,
        "base": args.base,
        "subsets": [sorted(formula_key(f) for f in s) for s in subsets],
    }, 0


def _cmd_fixed_output(args, manifest: Manifest):
    if args.mode == "brute":
        world = WorldBounds(args.max_instructions, args.max_registers,
                            tuple(args.inputs), args.fuel)
        result = fixed_output_brute(world, args.y, enumeration_cap=manifest.bounds.enum)
        return {
            "mode": "brute",
            "target": result.target,
            "world": {**world._asdict(), "inputs": list(world.inputs)},
            "runs": result.runs,
            "hits": [
                {
                    "machine": format_machine(hit.machine).splitlines(),
                    "input": hit.input_value,
                    "steps": hit.steps,
                }
                for hit in result.hits
            ],
        }, 0
    with open(args.machine, "r", encoding="utf-8") as handle:
        machine = parse_machine(handle.read())
    recognition = fixed_output_recognize(machine, args.y, args.schedule,
                                         max_input=args.max_input)
    return {
        "mode": "recognize",
        "target": recognition.target,
        "verdict": recognition.verdict,
        "input": recognition.input_value,
        "fuel": recognition.fuel,
        "stages": recognition.stages,
        "probes": recognition.probes,
    }, 0


def _cmd_report_matrix(args, manifest: Manifest):
    # the report itself, so main can print its own text layout
    return registry_report(manifest.classes, manifest.theorem_recs, manifest.axiom_decls), 0


# --- command table and parser ------------------------------------------------


def _arg(*flags: str, **options) -> tuple:
    return flags, options


# accepted on the root parser and every subcommand, so the flags work on
# either side of the command word; SUPPRESS keeps a subcommand's unset
# flag from clobbering a value given before it
_GLOBAL_ARGUMENTS = (
    _arg("--format", choices=_FORMATS, default=argparse.SUPPRESS,
         help="report format (env VTY_FORMAT sets the default, else json)"),
    _arg("--bounds", type=_parse_bounds_override, default=argparse.SUPPRESS,
         help="override manifest bounds, e.g. depth=4,atoms=12,enum=100000,size=20000"),
)

_MANIFEST_ARGUMENT = _arg("manifest", nargs="?", default=None,
                          help="manifest file (default: the packaged seed registry)")

_AXIOM_SET_ARGUMENTS = (
    _arg("--axioms", type=_formula_arg, nargs="+", required=True),
    _arg("--goal", type=_formula_arg, required=True),
    _arg("--base", choices=PRESET_NAMES, default="hilbert"),
    _arg("--depth", type=_int_arg("depth", 0), default=None),
)


class _Command(NamedTuple):
    run: Callable[..., tuple]  # (args, manifest) -> (result, exit code)
    help: str
    arguments: tuple = ()
    manifest: bool = True  # takes an optional manifest path
    modes: tuple = ()  # (mode word, help, arguments) for a command with modes


# every command, in the order `vty --help` and its errors list them
_COMMANDS = {
    "check-prevariety": _Command(
        _cmd_check_prevariety, "verify the union equations and report consistency", (
            _arg("--prevariety", default=None, help="prevariety id (default: first)"),
        )),
    "check-variety": _Command(_cmd_check_variety, "verify the width-k witness condition", (
        _arg("--prevariety", default=None),
        _arg("--depth", type=_int_arg("depth", 1), default=1, metavar="K",
             help="maximum index tuple width (default 1)"),
        _arg("--bijective", action="store_true", help="require injective maps as well"),
        _arg("--mode", choices=("prevariety", "variety"), default=None,
             help="bijective mode: prevariety skips the closure equations"),
    )),
    "closure": _Command(_cmd_closure, "bounded theorem set of one calculus", (
        _arg("--calculus", default=None, help="calculus id"),
        _arg("--depth", type=_int_arg("depth", 0), default=None),
        _arg("--with-proofs", action="store_true"),
    )),
    "consistency": _Command(_cmd_consistency, "per-component and pooled satisfiability", (
        _arg("--prevariety", default=None),
    )),
    "project": _Command(
        _cmd_project, "partition registry classes under a theorem's dependencies", (
            _arg("--theorem", required=True, help="theorem record id"),
        )),
    "classify": _Command(_cmd_classify,
                         "consistent/sufficient/irreducible flags for an axiom set",
                         _AXIOM_SET_ARGUMENTS),
    "minimal-subsets": _Command(_cmd_minimal_subsets, "all minimal sufficient axiom subsets",
                                _AXIOM_SET_ARGUMENTS),
    "fixed-output": _Command(
        _cmd_fixed_output, "search machine worlds for a target output", manifest=False,
        modes=(
            ("brute", "exhaust a bounded world", (
                _arg("--y", type=_int_arg("y", 0), required=True, help="target output"),
                _arg("--max-instructions", type=_int_arg("max-instructions", 0), default=3),
                _arg("--max-registers", type=_int_arg("max-registers", 1), default=1),
                _arg("--inputs", type=_int_list_arg("input list", "inputs", 0, distinct=True),
                     default=(0,)),
                _arg("--fuel", type=_int_arg("fuel", 1), default=50),
            )),
            ("recognize", "dovetail one machine", (
                _arg("--machine", required=True, help="machine text file"),
                _arg("--y", type=_int_arg("y", 0), required=True),
                _arg("--schedule", required=True,
                     type=_int_list_arg("fuel schedule", "fuel values", 1, increasing=True),
                     help="strictly increasing fuel list, e.g. 8,16,32"),
                _arg("--max-input", type=_int_arg("max-input", 0), default=None),
            )),
        )),
    "report-matrix": _Command(_cmd_report_matrix, "class-by-theorem corollary matrix"),
}


def _add_arguments(parser: argparse.ArgumentParser, rows) -> argparse.ArgumentParser:
    for flags, options in (*_GLOBAL_ARGUMENTS, *rows):
        parser.add_argument(*flags, **options)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every vty command.

    `main` reads a plain argv with `_direct_parse` and builds this parser
    only for the rest: help, a global option before the command word, an
    irregular argv and every usage error, so their text is argparse's.
    """
    parser = _add_arguments(_ArgumentParser(
        prog="vty",
        description="check logical varieties, project theorems, run desk-scale models",
    ), ())
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in _COMMANDS.items():
        manifest = (_MANIFEST_ARGUMENT,) if spec.manifest else ()
        cmd = _add_arguments(sub.add_parser(name, help=spec.help),
                             (*manifest, *spec.arguments))
        if spec.modes:
            mode = cmd.add_subparsers(dest="mode", required=True)
            for mode_name, mode_help, rows in spec.modes:
                _add_arguments(mode.add_parser(mode_name, help=mode_help), rows)
    return parser


def _direct_parse(argv: Sequence[str]) -> argparse.Namespace | None:
    """The Namespace `build_parser().parse_args(argv)` gives, read straight
    from the command table, or None when argv is not in the plain form.

    The plain form is the command word, the mode word of a command with
    modes, then exact long flags, each with its value or, for nargs "+",
    its run of values, and at most one manifest path. None is returned for
    anything else, help and every usage error included, so argparse reads
    that argv and its text stays argparse's: an unknown, abbreviated or
    repeated flag, `--opt=value`, any other token that starts with "-"
    where a value or path stands, a missing value, mode or required flag,
    a second path, and a value its type or choices refuse. Every option
    row has one long flag, its dest argparse's: no dashes, "-" read as "_".
    """
    spec = _COMMANDS.get(argv[0]) if argv else None
    if spec is None:
        return None
    values = {"command": argv[0]}
    rows, rest = spec.arguments, argv[1:]
    if spec.modes:
        modes = {name: mode_rows for name, _, mode_rows in spec.modes}
        if not rest or rest[0] not in modes:
            return None
        values["mode"], rows, rest = rest[0], modes[rest[0]], rest[1:]
    if spec.manifest:
        values["manifest"] = None
    table = {}
    for (flag,), options in (*_GLOBAL_ARGUMENTS, *rows):
        dest = flag[2:].replace("-", "_")
        table[flag] = dest, options
        switch = options.get("action") == "store_true"
        default = options.get("default", False if switch else None)
        if default is not argparse.SUPPRESS:
            values[dest] = default
    seen = set()
    index = 0
    while index < len(rest):
        token = rest[index]
        index += 1
        if not token.startswith("-"):
            if not spec.manifest or "manifest" in seen:
                return None
            seen.add("manifest")
            values["manifest"] = token
            continue
        if token not in table or token in seen:
            return None
        seen.add(token)
        dest, options = table[token]
        if options.get("action") == "store_true":
            values[dest] = True
            continue
        many = options.get("nargs") == "+"
        start = index
        while index < len(rest) and not rest[index].startswith("-"):
            index += 1
            if not many:
                break
        if index == start:
            return None
        convert = options.get("type", str)
        try:
            read = [convert(text) for text in rest[start:index]]
        except (argparse.ArgumentTypeError, TypeError, ValueError):  # as argparse catches
            return None
        if "choices" in options and any(item not in options["choices"] for item in read):
            return None
        values[dest] = read if many else read[0]
    if any(row.get("required") and flag not in seen for flag, (_, row) in table.items()):
        return None
    return argparse.Namespace(**values)


# --- report emission ---------------------------------------------------------


def _render_text(value: dict | list, indent: int = 0) -> list[str]:
    """The lines of a report's dict or list; a nested scalar prints inline."""
    pad = "  " * indent
    if isinstance(value, dict):
        rows = [(f"{key}:", value[key]) for key in sorted(value)]
    else:
        rows = [("-", inner) for inner in value]
    lines = []
    for head, inner in rows:
        if isinstance(inner, (dict, list)) and inner:
            lines.append(f"{pad}{head}")
            lines.extend(_render_text(inner, indent + 1))
        else:
            lines.append(f"{pad}{head} {_scalar(inner)}")
    return lines


def _scalar(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (list, dict)):
        return "(empty)"
    return str(value)


_encode_string = json.encoder.encode_basestring_ascii
_LITERALS = {None: "null", True: "true", False: "false"}


def _write_json(value, chunks: list[str], newline: str) -> None:
    """Append the chunks of `value` as json.dumps(value, indent=2,
    sort_keys=True) writes it, `newline` being the line break and indent
    before its closing bracket.

    With an indent, json.dumps runs its pure-Python encoder, which nests a
    generator per container; one list of chunks costs less. A report holds
    str, int, bool, None, list and dict with str keys, so the branch is
    chosen by the exact type, and any other raises TypeError naming it; a
    dict key that is not a str raises TypeError in the string encoder.
    """
    kind = type(value)
    if kind is str:
        chunks.append(_encode_string(value))
    elif kind is int:
        chunks.append(repr(value))
    elif kind is list:
        if not value:
            chunks.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            chunks.append(separator)
            separator = "," + inner
            _write_json(item, chunks, inner)
        chunks.append(newline + "]")
    elif kind is dict:
        if not value:
            chunks.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            chunks.append(separator)
            separator = "," + inner
            chunks.append(_encode_string(key))
            chunks.append(": ")
            _write_json(value[key], chunks, inner)
        chunks.append(newline + "}")
    elif kind is bool or value is None:
        chunks.append(_LITERALS[value])
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _json_text(value) -> str:
    """The text of json.dumps(value, indent=2, sort_keys=True), built in one pass."""
    chunks: list[str] = []
    _write_json(value, chunks, "\n")
    return "".join(chunks)


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(_json_text(report))
    else:
        print("\n".join(_render_text(report)))


def main(argv: Sequence[str] | None = None) -> int:
    """Run one vty command on `argv` (default: sys.argv[1:]), print its
    report and return the exit code.

    A plain argv is read straight from the command table (`_direct_parse`);
    any other argv, help and every usage error go through the argparse
    parser of `build_parser`, so their text is argparse's. A `--bounds`
    override is read with the manifest and stands in for its bounds line,
    the only bounds a command reads.
    """
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _direct_parse(argv)
        if args is None:
            args, extra = build_parser().parse_known_args(argv)
            if extra:
                # argparse leaves extra tokens to the root parser, but the
                # command word has been read, so the report names it
                raise _UsageError(f"vty {args.command}",
                                  f"unrecognized arguments: {' '.join(extra)}")
        # an empty VTY_FORMAT counts as unset
        fmt = getattr(args, "format", None) or os.environ.get("VTY_FORMAT") or "json"
        if fmt not in _FORMATS:
            raise _UsageError(f"vty {args.command}", f"VTY_FORMAT: invalid choice: {fmt!r} "
                              f"(choose from {', '.join(map(repr, _FORMATS))})")
    except _UsageError as exc:
        # the command word after "vty", if the parser had reached it; the
        # report is JSON, as --format may not have been read yet
        command = exc.prog.split()[1:2]
        _emit({"command": command[0] if command else None, "manifest": None,
               "errors": [str(exc)]}, "json")
        return 2
    manifest_path = getattr(args, "manifest", None)
    report: dict = {
        "command": args.command,
        "manifest": manifest_path or SEED_MANIFEST_LABEL,
        "errors": [],
    }
    try:
        # ValueError: a path with a NUL byte, or a --bounds override of 0
        override = getattr(args, "bounds", None)
        manifest = (load_manifest(manifest_path, bounds=override) if manifest_path
                    else _seed_manifest(bounds=override))
    except (OSError, ManifestError, ValueError) as exc:
        report["errors"] = [str(exc)]
        _emit(report, fmt)
        return 2
    report["bounds"] = manifest.bounds.to_dict()
    try:
        result, code = _COMMANDS[args.command].run(args, manifest)
    except (ManifestError, argparse.ArgumentTypeError) as exc:
        report["errors"], code = [str(exc)], 2
    except (OSError, VtyError, ValueError) as exc:
        # ValueError covers values the parser does not read, like the
        # text of a --machine file that is not a machine
        report["errors"], code = [str(exc)], 1
    except RecursionError:
        # a formula nested past the limit, as a long closure can derive one
        report["errors"], code = [_RECURSION_MESSAGE], 1
    else:
        if isinstance(result, MatrixReport):
            if fmt == "text":
                print(result.to_text())
                return code
            result = result.to_dict()
        report["result"] = result
    _emit(report, fmt)
    return code


def entry_point() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a reader that closed early shows up here
    except BrokenPipeError:
        # Python flushes stdout once more at exit; writing to devnull keeps
        # that flush from printing a second BrokenPipeError
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
