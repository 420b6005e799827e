"""Syntactic logical varieties over a small propositional proof system.

The library keeps bounded theorem closures of Hilbert-style calculi,
assembles component calculi into prevarieties and varieties with
checkable union equations and witnesses, projects registered theorems
onto algorithm-model classes by their axiom profiles, and backs the
registry with desk-scale executable models (register machines, finite
automata).
"""

from .calculus import (
    AxiomSchema,
    Calculus,
    Proof,
    SchemaRule,
    SubstitutionRule,
    base_calculus,
    closure,
    hilbert_schemas,
    modus_ponens,
    proves,
    with_axioms,
)
from .errors import (
    BadSymbolError,
    CapExceededError,
    DecodeError,
    DepthExplosionError,
    FormulaParseError,
    ManifestError,
    MapUndefinedError,
    UndeclaredAxiomError,
    UnresolvedReferenceError,
    VtyError,
)
from .formulas import (
    And,
    Atom,
    Bottom,
    Formula,
    Implies,
    Not,
    Or,
    format_formula,
    parse_formula,
)
from .machines import (
    RegisterMachine,
    decode_machine,
    encode_machine,
    fixed_output_brute,
    fixed_output_recognize,
    parse_machine,
    run_machine,
    universal_run,
)
from .manifest import Bounds, Manifest, load_manifest, parse_manifest
from .projection import (
    AxiomDeclaration,
    ClassProfile,
    Evidence,
    TheoremRecord,
    classify_relation,
    minimal_axiom_subsets,
    project,
    registry_report,
)
from .semantics import check_consistency, entails
from .varieties import (
    Component,
    FormulaMap,
    Prevariety,
    VarietyWitness,
    assemble_prevariety,
    check_bijective_variety,
    check_prevariety,
    check_variety,
    consistency_report,
)

__version__ = "0.1.0"

__all__ = [
    "And", "Atom", "AxiomDeclaration", "AxiomSchema", "BadSymbolError", "Bottom",
    "Bounds", "Calculus", "CapExceededError", "ClassProfile", "Component",
    "DecodeError", "DepthExplosionError", "Evidence", "Formula", "FormulaMap",
    "FormulaParseError", "Implies", "Manifest", "ManifestError", "MapUndefinedError",
    "Not", "Or", "Prevariety", "Proof", "RegisterMachine", "SchemaRule",
    "SubstitutionRule", "TheoremRecord", "UndeclaredAxiomError",
    "UnresolvedReferenceError", "VarietyWitness", "VtyError", "assemble_prevariety",
    "base_calculus", "check_bijective_variety", "check_consistency", "check_prevariety",
    "check_variety", "classify_relation", "closure", "consistency_report",
    "decode_machine", "encode_machine", "entails", "fixed_output_brute",
    "fixed_output_recognize", "format_formula", "hilbert_schemas", "load_manifest",
    "minimal_axiom_subsets", "modus_ponens", "parse_formula", "parse_machine",
    "parse_manifest", "project", "proves", "registry_report", "run_machine",
    "universal_run", "with_axioms",
]
