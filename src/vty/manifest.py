"""Line-oriented manifest files tying calculi, components and registries together.

A manifest is plain text: single-line directives plus brace-delimited
blocks, one entry per line, comments with #.

Grammar, by example:

    signature p q
    bounds depth=3 atoms=20 enum=1000000 size=10000

    rule mp {
      premise a
      premise (-> a b)
      conclude b
    }
    rule sub substitution

    calculus L1 {
      depth 2
      atoms r
      axiom p
      schema P1 (-> a (-> b a))
      use mp
    }

    map f identity
    map g renaming {
      rename a p
      domain (-> a a)
    }
    map h table {
      pair p q
      domain p
    }

    component K1 {
      calculus L1
      axiom-map f
      theorem-map f
      theorem p
    }

    prevariety PV {
      quasi
      component K1
      auto
    }

    witness W {
      prevariety PV
      indices 1 2
      calculus CORE
      axiom-map f
      theorem-map f
      theorem p
    }

    axiom-decl UNIVERSALITY "one-line statement"
    class T "Turing machines" {
      status UNIVERSALITY satisfied citation "source text"
      status TOTALITY violated exec-positive witness_id 3
      status COMPOSITION unknown
    }
    theorem-rec thm {
      statement "claim text"
      depends UNIVERSALITY
      source "source text"
    }

A prevariety block either says `auto` (or gives no triad lines at all),
letting the loader assemble the axiom, rule and theorem unions from the
components, or claims the triad explicitly with `axiom`, `rule-ref` and
`theorem` lines for the checker to verify. A witness block names its
prevariety and index tuple, then gives the entries of a component block:
the component that covers the tuple, under the witness id.

Each block kind's layout (header fields, entry keywords, how often each
may appear, how its values read) and the object it makes are declared
once, in the block table below, and the reader walks it. Quoted strings
are single-line; formulas nest at most ``formulas.MAX_NESTING`` deep.

The reader takes each line as its token texts (``lex.split_line``), with
no column: a fault names a token index, and only a fault that is
reported has its column found, by reading its one line again. Each value
reader checks its common case inline and goes through the generic
``_take_word`` only to raise its fault; a body line finds its entry row
from its first text. ``tests/oracle_tools.py`` keeps the generic chain
as the readers' oracle.
"""

from __future__ import annotations

from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from .calculus import (
    AxiomSchema,
    Calculus,
    DEFAULT_DEPTH,
    DEFAULT_SIZE_CAP,
    InferenceRule,
    SchemaRule,
    SubstitutionRule,
)
from .errors import Checked, ManifestError, UnresolvedReferenceError
from .formulas import ATOM_NAME, Formula, parse_formula_tokens
from .lex import NON_WORD, LexError, TokenFault, _ascii_digits, column, split_line, token_value
from .machines import DEFAULT_ENUMERATION_CAP
from .projection import (
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
from .semantics import DEFAULT_ATOM_CAP
from .varieties import (
    Component,
    FormulaMap,
    Prevariety,
    VarietyWitness,
    assemble_prevariety,
)
from .witnesses import WITNESSES


class _BoundsFields(NamedTuple):
    depth: int
    atoms: int
    enum: int
    size: int


class Bounds(Checked, _BoundsFields):
    """The caps a run works under: closure depth, atoms, machine
    enumeration and closure size."""

    __slots__ = ()

    def __new__(cls, depth: int = DEFAULT_DEPTH, atoms: int = DEFAULT_ATOM_CAP,
                enum: int = DEFAULT_ENUMERATION_CAP, size: int = DEFAULT_SIZE_CAP) -> Bounds:
        if depth < 0:
            raise ValueError("depth bound must be nonnegative")
        if min(atoms, enum, size) < 1:
            raise ValueError("atoms, enum and size bounds must be positive")
        return tuple.__new__(cls, (depth, atoms, enum, size))

    def to_dict(self) -> dict:
        return self._asdict()


BOUND_NAMES = Bounds._fields


# --- the manifest ------------------------------------------------------------
# The reader builds the live calculus, variety and registry objects straight
# from the values each block gives, once the text pass is done; a fault is
# reported at the line of the block that has it.


class _Prevariety(NamedTuple):
    """A prevariety block with its components resolved. The union of an
    `auto` block is assembled when asked for, as assembly runs closures."""

    prevariety_id: str
    components: tuple[Component, ...]
    quasi: bool
    union: Prevariety | None  # the union the block claims; None: `auto`


class Manifest(NamedTuple):
    """The objects a manifest declares, in block order, each built once by
    the reader under the bounds it runs with. Its source is left out of
    equality. Not hashable: the axiom declarations are a dict, as are the
    class profiles' statuses."""

    source: str = "<manifest>"
    signature: tuple[str, ...] = ()
    bounds: Bounds = Bounds()
    rules: tuple[InferenceRule, ...] = ()
    calculi: tuple[Calculus, ...] = ()
    maps: tuple[FormulaMap, ...] = ()
    components: tuple[Component, ...] = ()
    prevarieties: tuple[_Prevariety, ...] = ()
    witnesses: tuple[tuple[str, VarietyWitness], ...] = ()  # (prevariety id, witness)
    # read-only, so that no two manifests share a dict one of them can change
    axiom_decls: Mapping[str, AxiomDeclaration] = MappingProxyType({})
    classes: tuple[ClassProfile, ...] = ()
    theorem_recs: tuple[TheoremRecord, ...] = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self[1:] == other[1:]
        return NotImplemented

    def __ne__(self, other):
        return not self == other

    def __hash__(self) -> int:
        return hash(self[1:])

    def _find(self, keyword: str, wanted: str, noun: str) -> Any:
        spec = _KEYWORDS[keyword]
        for found in getattr(self, spec.attr):
            if getattr(found, spec.id_field) == wanted:
                return found
        raise UnresolvedReferenceError(f"unknown {noun} {wanted!r}", self.source, 0)

    def calculus(self, calculus_id: str) -> Calculus:
        return self._find("calculus", calculus_id, "calculus")

    def component(self, component_id: str) -> Component:
        return self._find("component", component_id, "component")

    def default_prevariety_id(self) -> str:
        if not self.prevarieties:
            raise UnresolvedReferenceError("the manifest declares no prevariety", self.source, 0)
        return self.prevarieties[0].prevariety_id

    def prevariety(self, prevariety_id: str | None = None) -> Prevariety:
        block = self._find("prevariety", prevariety_id or self.default_prevariety_id(),
                           "prevariety")
        if block.union is not None:
            return block.union
        return assemble_prevariety(block.components, quasi=block.quasi,
                                   size_cap=self.bounds.size)

    def prevariety_witnesses(self, prevariety_id: str | None = None) -> tuple[VarietyWitness, ...]:
        wanted = prevariety_id or self.default_prevariety_id()
        return tuple(witness for ref, witness in self.witnesses if ref == wanted)

    def theorem_record(self, theorem_id: str) -> TheoremRecord:
        return self._find("theorem-rec", theorem_id, "theorem record")


# --- the block table ---------------------------------------------------------
# Each block kind and directive is declared once, below, and the reader walks
# these declarations. Each value reads as a function of a line's token texts
# (`lex.split_line`) and the index to start at, giving the value and the
# index after it. A fault at a token is raised as TokenFault(message, index),
# and one that concerns the whole line as LexError(message, 0); the reader
# adds the line number, and the column of a token fault. Text lists are
# never empty: the reader skips blank lines.

_Read = Callable[[list[str], int], tuple[Any, int]]


def _take_word(texts: list[str], i: int, what: str) -> tuple[str, int]:
    if i >= len(texts):
        raise TokenFault(f"expected {what}", i)
    if texts[i][0] in NON_WORD:
        raise TokenFault(f"expected {what}, found {token_value(texts[i])!r}", i)
    return texts[i], i + 1


def _take_atom(texts: list[str], i: int) -> tuple[str, int]:
    if i < len(texts) and ATOM_NAME.match(texts[i]):  # no other kind of text matches
        return texts[i], i + 1
    word, _ = _take_word(texts, i, "an atom name")
    raise TokenFault(f"bad atom name {word!r}", i)


def _done(texts: list[str], i: int) -> None:
    if i < len(texts):
        raise TokenFault(f"unexpected trailing {token_value(texts[i])!r}", i)


def _word(what: str) -> _Read:
    def read(texts: list[str], i: int) -> tuple[str, int]:
        if i < len(texts) and texts[i][0] not in NON_WORD:
            return texts[i], i + 1
        return _take_word(texts, i, what)  # raises the fault

    return read


def _decimal(digits: str, what: str, index: int) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise TokenFault(f"{what} has too many digits ({len(digits)})", index) from None


def _int(what: str) -> _Read:
    def read(texts: list[str], i: int) -> tuple[int, int]:
        if i < len(texts) and _ascii_digits(texts[i]):  # no other kind of text is
            return _decimal(texts[i], what, i), i + 1
        word, _ = _take_word(texts, i, what)
        raise TokenFault(f"expected {what}, found {word!r}", i)

    return read


def _string(what: str) -> _Read:
    def read(texts: list[str], i: int) -> tuple[str, int]:
        if i >= len(texts) or texts[i][0] != '"':
            raise TokenFault(f"expected a quoted {what}", i)
        return texts[i][1:-1], i + 1

    return read


def _seq(first: _Read, second: _Read, third: _Read | None = None) -> _Read:
    """Two or three values in a row, read as one tuple."""
    if third is None:
        def read2(texts: list[str], i: int) -> tuple[tuple, int]:
            a, i = first(texts, i)
            b, i = second(texts, i)
            return (a, b), i

        return read2

    def read3(texts: list[str], i: int) -> tuple[tuple, int]:
        a, i = first(texts, i)
        b, i = second(texts, i)
        c, i = third(texts, i)
        return (a, b, c), i

    return read3


def _choice(what: str, noun: str, words: dict[str, str]) -> _Read:
    """A word from a fixed set, read as the value it stands for."""

    def read(texts: list[str], i: int) -> tuple[str, int]:
        if i < len(texts) and texts[i] in words:  # every key is a word
            return words[texts[i]], i + 1
        word, _ = _take_word(texts, i, what)
        raise TokenFault(f"unknown {noun} {word!r}", i)

    return read


def _take_fields(fields: Sequence[tuple[str, _Read]], texts: list[str],
                 i: int) -> dict[str, Any]:
    values: dict[str, Any] = {}
    for name, read in fields:
        values[name], i = read(texts, i)
    _done(texts, i)
    return values


def read_bound_entry(text: str, index: int, values: dict[str, int]) -> None:
    """Read one `name=N` entry of a `bounds` line or a `--bounds` override
    into `values`; a fault raises TokenFault at token `index`."""
    key, sep, raw = text.partition("=")
    if not sep:
        raise TokenFault("bounds entries look like depth=3", index)
    if key not in BOUND_NAMES:
        raise TokenFault(f"unknown bound {key!r}", index)
    if key in values:
        raise TokenFault(f"bound {key!r} given twice", index)
    if not _ascii_digits(raw):
        raise TokenFault(f"bound {key!r} needs an integer", index)
    values[key] = _decimal(raw, f"bound {key!r}", index)


def _read_bounds(texts: list[str], i: int) -> tuple[Bounds, int]:
    values: dict[str, int] = {}
    for index in range(i, len(texts)):
        if texts[index][0] in NON_WORD:
            raise TokenFault("bounds entries look like depth=3", index)
        read_bound_entry(texts[index], index, values)
    try:
        return Bounds(**values), len(texts)
    except ValueError as exc:
        raise LexError(str(exc), 0) from None


_EVIDENCE_KIND = _choice("an evidence kind", "evidence kind", {
    "citation": CITATION, "exec-positive": EXEC_POSITIVE, "exec-exhaustive": EXEC_EXHAUSTIVE})
# the Evidence fields that follow each evidence kind
_EVIDENCE_FIELDS = {
    CITATION: (("citation", _string("citation")),),
    EXEC_POSITIVE: (("witness_id", _word("a witness id")),
                    ("suite_size", _int("a suite size"))),
    EXEC_EXHAUSTIVE: (("witness_id", _word("a witness id")),
                      ("domain", _string("domain description"))),
}


def _read_evidence(texts: list[str], i: int) -> tuple[Evidence | None, int]:
    if i == len(texts):
        return None, i
    kind, i = _EVIDENCE_KIND(texts, i)
    values = {}
    for name, read in _EVIDENCE_FIELDS[kind]:
        values[name], i = read(texts, i)
    if i < len(texts):
        _done(texts, i)
    try:
        return Evidence(kind, **values), i
    except ValueError as exc:
        raise LexError(str(exc), 0) from None


class _Entry(NamedTuple):
    """One entry keyword: the field it fills and how its lines read."""

    keyword: str
    field: str
    arg: _Read | None = None  # None: a flag, the keyword alone sets True
    many: bool = False        # every line's values collect into a tuple; else one line only
    spread: bool = False      # one line lists any number of values (and they collect)
    required: str = ""        # the fault when the block or directive gives no value
    kind: str = ""            # map blocks: the one map kind that takes it

    def read(self, values: dict[str, Any], texts: list[str]) -> None:
        if self.many and not self.spread:  # one value per line, collected
            item, i = self.arg(texts, 1)
            if i < len(texts):
                _done(texts, i)
            values.setdefault(self.field, []).append(item)
            return
        if not self.many and self.field in values:
            raise LexError(f"{self.keyword} given twice", 0)
        if self.spread:
            items, i = [], 1
            while i < len(texts):
                item, i = self.arg(texts, i)
                items.append(item)
            # an empty line is kept too, so a second one is seen
            values.setdefault(self.field, []).extend(items)
        else:
            item, i = self.arg(texts, 1) if self.arg else (True, 1)
            _done(texts, i)
            values[self.field] = item


def _ref(keyword: str, field: str) -> _Entry:
    return _Entry(keyword, field, _word(f"a {keyword} id"),
                  required=f"never names its {keyword}")


class _Block:
    """One block keyword of the manifest and how its blocks read."""

    def __init__(
        self,
        keyword: str,
        attr: str,  # the Manifest attribute listing the objects
        # the object a block makes from its values and line; `r` is the reader
        make: Callable[[_Parser, dict[str, Any], int], Any],
        header: tuple[tuple[str, _Read], ...],  # fields after the keyword; the first is the id
        entries: tuple[_Entry, ...] = (),  # none: a one-line directive without braces
        noun: str = "",  # names the block in "unknown ... entry"
        expect: str = "",  # what an entry line starts with
        # the kind that `<keyword> <id> <kind>` declares on one line, what the
        # reader expects in its place, and the fault when another word is there
        line_form: tuple[str, str, str] | None = None,
    ) -> None:
        self.keyword, self.attr, self.make, self.header = keyword, attr, make, header
        self.entries, self.noun, self.expect, self.line_form = entries, noun, expect, line_form
        self.id_field = header[0][0]
        # the entry rows by keyword for each kind a block header may declare
        # ("" where the header declares none), built once for the reader
        self.rows = {kind: {row.keyword: row for row in entries if row.kind in ("", kind)}
                     for kind in {row.kind for row in entries}}


# --- the objects each block makes ---------------------------------------------
# Each maker builds its block's object from the values the text gave. `r.get`
# resolves a reference to an object that a block of an earlier kind made, and
# `r.built` holds those objects by block keyword and id.


def _rule(r: _Parser, b: dict[str, Any], line: int) -> InferenceRule:
    if b.get("kind") == "substitution":
        return SubstitutionRule(b["name"])
    return SchemaRule(b["name"], b.get("premises", ()), b["conclusion"])


def _calculus(r: _Parser, b: dict[str, Any], line: int) -> Calculus:
    use = b.get("use", ())
    return Calculus(
        b["calculus_id"],
        axioms=frozenset(b.get("axioms", ())),
        schemas=tuple(AxiomSchema(sid, pattern) for sid, pattern in b.get("schemas", ())),
        rules=tuple(r.get("rule", name, line) for name in use)
        if use else tuple(r.built["rule"].values()),
        closure_depth=b.get("depth", r.depth),
        signature_atoms=r.signature | frozenset(b.get("atoms", ())),
    )


def _map(r: _Parser, b: dict[str, Any], line: int) -> FormulaMap:
    domain = frozenset(b["domain"]) if "domain" in b else None
    if b["kind"] == "identity":
        return FormulaMap.identity(b["map_id"])
    if b["kind"] == "renaming":
        return FormulaMap(b["map_id"], renaming=tuple(sorted(b.get("renames", ()))),
                          domain=domain)
    return FormulaMap.table_map(b["map_id"], b.get("pairs", ()), domain=domain)


def _component(r: _Parser, ident: str, b: dict[str, Any], line: int) -> Component:
    return Component(
        ident,
        r.get("calculus", b["calculus_ref"], line),
        r.get("map", b["axiom_map_ref"], line),
        r.get("map", b["theorem_map_ref"], line),
        frozenset(b.get("theorems", ())),
    )


def _prevariety(r: _Parser, b: dict[str, Any], line: int) -> _Prevariety:
    ident, quasi = b["prevariety_id"], b.get("quasi", False)
    axioms, rule_refs, theorems = (b.get(name, ()) for name in ("axioms", "rule_refs", "theorems"))
    explicit = bool(axioms or rule_refs or theorems)
    if explicit and b.get("auto"):
        raise ManifestError(f"prevariety {ident!r} says auto but also claims an explicit union",
                            r.source, line)
    components = tuple(r.get("component", ref, line) for ref in b["component_refs"])
    rules = frozenset(r.get("rule", name, line) for name in rule_refs)
    return _Prevariety(ident, components, quasi, Prevariety(
        frozenset(axioms), rules, frozenset(theorems), components, quasi) if explicit else None)


def _witness(r: _Parser, b: dict[str, Any], line: int) -> tuple[str, VarietyWitness]:
    ident, indices = b["witness_id"], b.get("indices", ())
    width = len(r.get("prevariety", b["prevariety_ref"], line).components)
    if not indices or list(indices) != sorted(set(indices)):
        raise ManifestError(f"witness {ident!r} needs strictly increasing indices", r.source, line)
    if indices[0] < 1 or indices[-1] > width:
        raise ManifestError(f"witness {ident!r} index out of range 1..{width}", r.source, line)
    return b["prevariety_ref"], VarietyWitness(indices, _component(r, ident, b, line))


def _class(r: _Parser, b: dict[str, Any], line: int) -> ClassProfile:
    ident = b["class_id"]
    statuses: dict[str, AxiomStatus] = {}
    for axiom_id, status, evidence in b.get("statuses", ()):
        if axiom_id not in r.built["axiom-decl"]:
            raise UnresolvedReferenceError(
                f"class {ident!r} scores undeclared axiom {axiom_id!r}", r.source, line)
        if axiom_id in statuses:
            raise ManifestError(f"class {ident!r} scores axiom {axiom_id!r} twice",
                                r.source, line)
        statuses[axiom_id] = AxiomStatus(status, evidence)
        if evidence is not None and evidence.witness_id is not None \
                and evidence.witness_id not in WITNESSES:
            raise UnresolvedReferenceError(
                f"unknown executable witness {evidence.witness_id!r}", r.source, line)
    return ClassProfile(ident, b["display_name"], statuses)


def _theorem_rec(r: _Parser, b: dict[str, Any], line: int) -> TheoremRecord:
    ident, depends = b["theorem_id"], b.get("depends", ())
    for dep in depends:
        if dep not in r.built["axiom-decl"]:
            raise UnresolvedReferenceError(
                f"theorem {ident!r} depends on undeclared axiom {dep!r}", r.source, line)
    return TheoremRecord(ident, b["statement"], frozenset(depends), b.get("source", ""),
                         b.get("unconditional", False))


_DIRECTIVES = {row.keyword: row for row in (
    _Entry("signature", "signature", _take_atom, spread=True, required="needs at least one atom"),
    _Entry("bounds", "bounds", _read_bounds),
)}

# a component's entries; a witness block gives them for its covering component
_COMPONENT_ENTRIES = (
    _ref("calculus", "calculus_ref"),
    _ref("axiom-map", "axiom_map_ref"),
    _ref("theorem-map", "theorem_map_ref"),
    _Entry("theorem", "theorems", parse_formula_tokens, many=True),
)

# in Manifest field order
_BLOCKS = (
    _Block("rule", "rules", _rule, (("name", _word("a rule name")),), (
        _Entry("premise", "premises", parse_formula_tokens, many=True),
        _Entry("conclude", "conclusion", parse_formula_tokens, required="never concludes"),
    ), noun="rule", expect="premise or conclude", line_form=(
        "substitution", "the word substitution", "expected substitution, found {!r}")),
    _Block("calculus", "calculi", _calculus, (("calculus_id", _word("a calculus id")),), (
        _Entry("depth", "depth", _int("a depth")),
        _Entry("atoms", "atoms", _take_atom, many=True, spread=True),
        _Entry("axiom", "axioms", parse_formula_tokens, many=True),
        _Entry("schema", "schemas", _seq(_word("a schema id"), parse_formula_tokens), many=True),
        _Entry("use", "use", _word("a rule name"), many=True, spread=True),
    ), noun="calculus", expect="a calculus entry"),
    _Block("map", "maps", _map, (("map_id", _word("a map id")),
                                 ("kind", _word("renaming or table"))), (
        _Entry("rename", "renames", _seq(_take_atom, _take_atom), many=True, kind="renaming"),
        _Entry("pair", "pairs", _seq(parse_formula_tokens, parse_formula_tokens), many=True,
               kind="table"),
        _Entry("domain", "domain", parse_formula_tokens, many=True),
    ), noun="map", expect="a map entry", line_form=(
        "identity", "a map kind",
        "only identity maps fit on one line; renaming and table maps need a block")),
    _Block("component", "components",
           lambda r, b, line: _component(r, b["component_id"], b, line),
           (("component_id", _word("a component id")),),
           _COMPONENT_ENTRIES, noun="component", expect="a component entry"),
    _Block("prevariety", "prevarieties", _prevariety,
           (("prevariety_id", _word("a prevariety id")),), (
        _Entry("quasi", "quasi"),
        _Entry("component", "component_refs", _word("a component id"), many=True,
               required="lists no components"),
        _Entry("auto", "auto"),
        _Entry("axiom", "axioms", parse_formula_tokens, many=True),
        _Entry("rule-ref", "rule_refs", _word("a rule name"), many=True, spread=True),
        _Entry("theorem", "theorems", parse_formula_tokens, many=True),
    ), noun="prevariety", expect="a prevariety entry"),
    _Block("witness", "witnesses", _witness, (("witness_id", _word("a witness id")),), (
        _ref("prevariety", "prevariety_ref"),
        _Entry("indices", "indices", _int("an index"), spread=True),
    ) + _COMPONENT_ENTRIES, noun="witness", expect="a witness entry"),
    _Block("axiom-decl", "axiom_decls",
           lambda r, b, line: AxiomDeclaration(**b),
           (("axiom_id", _word("an axiom id")), ("statement", _string("statement")))),
    _Block("class", "classes", _class, (("class_id", _word("a class id")),
                                         ("display_name", _string("display name"))), (
        _Entry("status", "statuses", _seq(
            _word("an axiom id"),
            _choice("satisfied, violated or unknown", "status",
                    {"satisfied": SATISFIED, "violated": VIOLATED, "unknown": UNKNOWN}),
            _read_evidence), many=True),
    ), noun="class", expect="status"),
    _Block("theorem-rec", "theorem_recs", _theorem_rec,
           (("theorem_id", _word("a theorem id")),), (
        _Entry("statement", "statement", _string("statement"), required="needs a statement"),
        _Entry("depends", "depends", _word("an axiom id"), many=True, spread=True),
        _Entry("source", "source", _string("source")),
        _Entry("unconditional", "unconditional"),
    ), noun="theorem", expect="a theorem entry"),
)
_KEYWORDS = {spec.keyword: spec for spec in _BLOCKS}


# --- reader ------------------------------------------------------------------


class _Parser:
    def __init__(self, source: str):
        self.source = source
        # the directives' values, and each block kind's (values, line) pairs
        self.values: dict[str, Any] = {}

    def parse(self, text: str, override: Mapping[str, int] | None) -> Manifest:
        # a block's keyword and its header line, then its entry lines; a
        # line is (number, text, token texts), and a header's texts stop
        # before its {
        block: tuple[str, tuple[int, str, list[str]], list] | None = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            texts: list[str] = []
            try:
                texts = split_line(raw)
                if not texts:
                    continue
                if block is None and texts[-1] == "{":
                    keyword, _ = _take_word(texts, 0, "a block keyword")
                    block = (keyword, (lineno, raw, texts[:-1]), [])
                elif block is None:
                    self._directive(texts, lineno)
                elif texts == ["}"]:
                    self._block(*block)
                    block = None
                # only a line with a brace character can hold a brace token
                elif ("{" in raw or "}" in raw) and ("{" in texts or "}" in texts):
                    raise TokenFault("braces may not nest", 0)
                else:
                    block[2].append((lineno, raw, texts))
            except (LexError, TokenFault) as exc:
                raise self._fault(exc, lineno, raw, texts) from None
        if block is not None:
            raise ManifestError(f"unclosed {block[0]} block", self.source, block[1][0])
        return self._manifest(override or {})

    def _fault(self, exc: LexError | TokenFault, line: int, raw: str,
               texts: list[str]) -> ManifestError:
        """The fault `exc` in `line`, whose text is `raw`, read as `texts`;
        a token fault's column is found here, by reading the line again."""
        col = exc.col if isinstance(exc, LexError) else column(raw, exc.index, len(texts))
        return ManifestError(exc.message, self.source, line, col)

    def _manifest(self, override: Mapping[str, int]) -> Manifest:
        """Every block's object, made block kind by block kind once no kind
        has a duplicate id, so the fault raised is the first in that order.
        Calculi close at the depth of the bounds merged with `override`, and
        the merged bounds are checked last."""
        values = self.values
        for spec in _BLOCKS:
            seen: set[str] = set()
            for block, line in values.get(spec.attr, ()):
                ident = block[spec.id_field]
                if ident in seen:
                    raise ManifestError(f"duplicate {spec.keyword} {ident!r}", self.source, line)
                seen.add(ident)
        merged = {**values.get("bounds", Bounds()).to_dict(), **override}
        self.depth = merged["depth"]
        self.signature = frozenset(values.get("signature", ()))
        self.built: dict[str, dict[str, Any]] = {}
        for spec in _BLOCKS:
            made = self.built[spec.keyword] = {}
            for block, line in values.get(spec.attr, ()):
                try:
                    made[block[spec.id_field]] = spec.make(self, block, line)
                except ValueError as exc:
                    raise ManifestError(str(exc), self.source, line) from exc
        objects = {spec.attr: tuple(self.built[spec.keyword].values()) for spec in _BLOCKS}
        objects["axiom_decls"] = self.built["axiom-decl"]
        return Manifest(self.source, tuple(values.get("signature", ())), Bounds(**merged),
                        **objects)

    def get(self, keyword: str, ident: str, line: int) -> Any:
        """The object made by the `keyword` block `ident`, for a reference at `line`."""
        found = self.built[keyword].get(ident)
        if found is None:
            raise UnresolvedReferenceError(f"unknown {keyword} {ident!r}", self.source, line)
        return found

    def _directive(self, texts: list[str], line: int) -> None:
        keyword, _ = _take_word(texts, 0, "a directive")
        spec = _KEYWORDS.get(keyword)
        if keyword in _DIRECTIVES:
            row = _DIRECTIVES[keyword]
            row.read(self.values, texts)
            if row.required and not self.values.get(row.field):
                raise LexError(f"{keyword} {row.required}", 0)
        elif spec is not None and spec.line_form:
            kind, what, fault = spec.line_form
            ident, _ = spec.header[0][1](texts, 1)
            word, _ = _take_word(texts, 2, what)
            if word != kind:
                raise TokenFault(fault.format(word), 2)
            _done(texts, 3)
            self._add(spec, {spec.id_field: ident, "kind": kind}, line)
        elif spec is not None and not spec.entries:
            self._add(spec, _take_fields(spec.header, texts, 1), line)
        else:
            raise TokenFault(f"unknown directive {keyword!r}", 0)

    def _block(self, keyword: str, header: tuple[int, str, list[str]],
               body: list[tuple[int, str, list[str]]]) -> None:
        spec = _KEYWORDS.get(keyword)
        where = header  # the line a fault is reported at
        try:
            if spec is None or not spec.entries:
                raise LexError(f"unknown block keyword {keyword!r}", 0)
            values = _take_fields(spec.header, header[2], 1)
            kind = values.get("kind", "")  # a map block's kind picks its entries
            rows = spec.rows.get(kind)
            if rows is None:
                raise LexError(f"unknown {keyword} kind {kind!r}", 0)
            noun = f"{kind} {spec.noun}" if kind else spec.noun
            for where in body:
                texts = where[2]
                row = rows.get(texts[0])  # every key is a word
                if row is None:
                    key, _ = _take_word(texts, 0, spec.expect)
                    raise TokenFault(f"unknown {noun} entry {key!r}", 0)
                row.read(values, texts)
            where = header
            for row in spec.entries:
                value = values.get(row.field)
                if row.required and not value:
                    raise LexError(f"{keyword} {values[spec.id_field]!r} {row.required}", 0)
                if type(value) is list:  # entries collected line by line
                    values[row.field] = tuple(value)
        except (LexError, TokenFault) as exc:
            raise self._fault(exc, *where) from None
        self._add(spec, values, header[0])

    def _add(self, spec: _Block, values: dict[str, Any], line: int) -> None:
        self.values.setdefault(spec.attr, []).append((values, line))


def parse_manifest(text: str, source: str = "<manifest>",
                   bounds: Mapping[str, int] | None = None) -> Manifest:
    """The manifest `text` says, with its objects built. The `bounds`
    entries stand in for those of its `bounds` line, as `--bounds` does."""
    return _Parser(source).parse(text, bounds)


def load_manifest(path: str | Path, bounds: Mapping[str, int] | None = None) -> Manifest:
    # bytes, not text mode: `str.splitlines` in the parser reads \r\n and \r
    # as line breaks already, and a bad byte gets its line and column
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the first bad one decode; a stand-in marks its place
        lines = (data[:exc.start].decode("utf-8") + "?").splitlines()
        raise ManifestError(f"not UTF-8 text at byte 0x{data[exc.start]:02x} ({exc.reason})",
                            str(path), len(lines), len(lines[-1]) - 1) from None
    return parse_manifest(text, source=str(path), bounds=bounds)
