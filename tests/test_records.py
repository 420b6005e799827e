"""The record contract: every path to a record runs its checks, and each
record has the equality, hash and immutability of a frozen dataclass of
the fields it compares.

A checked record is a NamedTuple whose own ``__new__`` checks its fields;
``_make`` and ``_replace`` build through it. The formula nodes and the
records that leave a field out of equality are slotted classes, except
``Manifest``, a NamedTuple that compares all but its source.
"""

import copy
import pickle
import re

import pytest

from vty.automata import DFA
from vty.calculus import Calculus, ClosureEntry, ClosureResult, modus_ponens
from vty.formulas import And, Atom, Bottom, Implies, Not, Or, parse_formula
from vty.machines import DecJz, Inc, RegisterMachine, WorldBounds
from vty.manifest import Bounds, Manifest
from vty.projection import (
    AxiomStatus,
    CITATION,
    Evidence,
    SATISFIED,
    TheoremRecord,
)
from vty.varieties import Component, FormulaMap, VarietyWitness

P, Q = Atom("p"), Atom("q")
EVIDENCE = Evidence(CITATION, citation="x")
IDENTITY = FormulaMap.identity()
COMPONENT = Component("C", Calculus("L"), IDENTITY, IDENTITY, frozenset({P}))

# a valid instance of each checked record, and a field value it refuses
# with this message
CHECKED = {
    "DFA": (DFA(("s0",), ("a",), "s0", frozenset(), {("s0", "a"): "s0"}),
            "start", "s9", "start state 's9' is not a state"),
    "Calculus": (Calculus("L", rules=(modus_ponens(),)),
                 "closure_depth", -1, "closure depth must be nonnegative"),
    "SchemaRule": (modus_ponens(), "premises", (), "rule 'mp' needs at least one premise"),
    "WorldBounds": (WorldBounds(1, 1, (0, 1), 5), "inputs", (0, 0),
                    "the world's inputs must be distinct"),
    "Bounds": (Bounds(), "depth", -1, "depth bound must be nonnegative"),
    "Evidence": (EVIDENCE, "citation", None, "citation evidence needs citation text"),
    "AxiomStatus": (AxiomStatus(SATISFIED, EVIDENCE), "evidence", None,
                    "a resolved status needs evidence"),
    "TheoremRecord": (TheoremRecord("T", "s", frozenset({"A"}), "src"),
                      "dependencies", frozenset(),
                      "theorem 'T' needs dependencies or the unconditional flag"),
    "VarietyWitness": (VarietyWitness((1, 2), COMPONENT), "indices", (2, 1),
                       "witness indices must be strictly increasing"),
}


@pytest.mark.parametrize("name", CHECKED)
def test_every_path_to_a_checked_record_runs_its_checks(name):
    record, field, bad, message = CHECKED[name]
    cls = type(record)
    values = record._asdict()
    refused = re.escape(message)
    with pytest.raises(ValueError, match=f"^{refused}$"):
        cls(**{**values, field: bad})
    with pytest.raises(ValueError, match=f"^{refused}$"):
        record._replace(**{field: bad})
    with pytest.raises(ValueError, match=f"^{refused}$"):
        cls._make({**values, field: bad}.values())
    for rebuilt in (record._replace(), cls._make(record), cls(*record)):
        assert type(rebuilt) is cls and rebuilt == record


def _closure_result(derivations):
    return ClosureResult(1, 2, (ClosureEntry(P, 0),), derivations)


# an instance of each record class, the fields it compares, and a copy that
# differs from it only outside those fields
RECORDS = {
    **{name: (record, record._fields, None) for name, (record, *_) in CHECKED.items()},
    "Atom": (P, ("name",), None),
    "Bottom": (Bottom(), (), None),
    "Not": (Not(P), ("operand",), None),
    "And": (And(P, Q), ("left", "right"), None),
    "Or": (Or(P, Q), ("left", "right"), None),
    "Implies": (Implies(P, Q), ("left", "right"), None),
    "ClosureResult": (_closure_result({P: "a"}), ("depth", "domain_size", "entries"),
                      _closure_result({})),
    "RegisterMachine": (RegisterMachine(2, (Inc(1, 1), DecJz(0, 2, 0))),
                        ("registers", "program"), None),
    "Component": (COMPONENT, ("component_id", "calculus", "axiom_map", "theorem_map",
                              "designated_theorems"),
                  Component("C", Calculus("L"), IDENTITY, IDENTITY, frozenset({P}))),
    "FormulaMap": (FormulaMap("m", table=((P, Q),)), ("map_id", "renaming", "table", "domain"),
                   None),
    "Manifest": (Manifest("a.vty", ("p",), axiom_decls={}),
                 Manifest._fields[1:], Manifest("b.vty", ("p",), axiom_decls={})),
}


@pytest.mark.parametrize("name", RECORDS)
def test_equality_and_hash_cover_the_compared_fields(name):
    record, compared, other = RECORDS[name]
    key = tuple(getattr(record, field) for field in compared)
    if name in ("DFA", "Manifest"):  # a dict field: neither hashes
        for value in (record, key):
            with pytest.raises(TypeError, match="unhashable"):
                hash(value)
    else:
        assert hash(record) == hash(key)
    if other is not None:
        assert other is not record and other == record and not other != record
        if name != "Manifest":
            assert hash(other) == hash(record)


@pytest.mark.parametrize("name", RECORDS)
def test_fields_refuse_assignment_and_deletion(name):
    record, compared, _ = RECORDS[name]
    for field in (*compared, "_hash", "_rows", "_lookup", "_mapped", "_derivations", "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("name", RECORDS)
def test_copy_and_pickle_give_an_equal_record(name):
    record = RECORDS[name][0]
    for copied in (copy.copy(record), copy.deepcopy(record),
                   pickle.loads(pickle.dumps(record))):
        assert type(copied) is type(record) and copied == record


def test_no_record_equals_one_of_another_class():
    records = [record for record, _, _ in RECORDS.values()]
    for i, left in enumerate(records):
        for right in records[i + 1:]:
            assert left != right and not left == right
    p_and_q = parse_formula("(and p q)")
    assert p_and_q != Or(P, Q) and p_and_q == And(P, Q)
