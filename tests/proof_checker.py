"""An independent checker for the proofs vty prints.

A proof comes in the shape that ``vty closure --with-proofs`` and ``vty
classify`` print: ``steps``, each a ``formula`` text and a ``kind``, and
for a schema or rule step the schema id or rule name under the key of its
kind, the ``substitution`` used, and for a rule the indices of the earlier
steps it cites. The calculus comes as plain text too, a dict of

- ``axioms``: formula texts;
- ``schemas``: schema id -> pattern text;
- ``rules``: rule name -> ``(premise pattern texts, conclusion pattern
  text)``, or ``SUBSTITUTION`` for the rule that infers any substitution
  instance of its one premise.

Every atom of a pattern is a metavariable, and a missing key means none.
Formula texts are taken apart by a small s-expression reader of this
module, and this module imports nothing from vty, so a fault in vty's
parser, matcher or substitution cannot hide a fault in a proof: the de
Bruijn criterion of Barendregt and Wiedijk, "The challenge of computer
mathematics", Phil. Trans. R. Soc. A 363, 2005. Like any checker it
accepts every correct step, also one whose substitution leaves the
instantiation domain of vty's closure engine.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

SUBSTITUTION = "substitution"


def read(text: str):
    """Formula text as nested tuples: an atom or ``bot`` is a string, any
    other formula ``(connective, *operands)``."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()

    def node(i: int):
        if tokens[i] != "(":
            return tokens[i], i + 1
        parts = [tokens[i + 1]]
        i += 2
        while tokens[i] != ")":
            child, i = node(i)
            parts.append(child)
        return tuple(parts), i + 1

    try:
        tree, end = node(0)
    except IndexError:
        raise ValueError(f"unfinished formula {text!r}") from None
    if end != len(tokens):
        raise ValueError(f"trailing text in {text!r}")
    return tree


def show(tree) -> str:
    if isinstance(tree, str):
        return tree
    return "(" + " ".join([tree[0], *map(show, tree[1:])]) + ")"


def plug(tree, mapping):
    """`tree` with every atom that `mapping` names replaced, all at once."""
    if isinstance(tree, str):
        return tree if tree == "bot" else mapping.get(tree, tree)
    return (tree[0], *(plug(child, mapping) for child in tree[1:]))


class Check(NamedTuple):
    """The verdict: valid, or the first bad step with a reason code."""

    valid: bool
    step: int | None = None
    reason: str | None = None
    detail: str = ""


def check(calculus: Mapping, proof: Mapping) -> Check:
    """Check a printed proof step by step against the calculus."""
    steps = proof["steps"]
    if not steps:
        return Check(False, None, "EMPTY_PROOF", "a proof needs at least one step")
    axioms = {read(text) for text in calculus.get("axioms", ())}
    formulas = [read(step["formula"]) for step in steps]
    for index, step in enumerate(steps):
        problem = _step_problem(calculus, axioms, formulas, index, step)
        if problem is not None:
            return Check(False, index, *problem)
    return Check(True)


def _step_problem(calculus, axioms, formulas, index, step) -> tuple[str, str] | None:
    """(reason, detail) of what is wrong with one step, or None."""
    formula, kind = formulas[index], step["kind"]
    if kind == "axiom":
        return None if formula in axioms else ("UNKNOWN_AXIOM", show(formula))
    if kind not in ("schema", "rule"):
        return "UNKNOWN_JUSTIFICATION", repr(kind)
    mapping = {var: read(text) for var, text in step["substitution"].items()}
    if kind == "schema":
        pattern = calculus.get("schemas", {}).get(step["schema"])
        if pattern is None:
            return "UNKNOWN_SCHEMA", step["schema"]
        if plug(read(pattern), mapping) != formula:
            return "SCHEMA_MISMATCH", f"substitution does not produce {show(formula)}"
        return None
    name = step["rule"]
    rule = calculus.get("rules", {}).get(name)
    if rule is None:
        return "UNKNOWN_RULE", name
    if any(not 0 <= p < index for p in step["premises"]):
        return "BAD_PREMISE", "premise index out of range"
    cited = [formulas[p] for p in step["premises"]]
    if rule == SUBSTITUTION:
        if len(cited) != 1:
            return "BAD_PREMISE", "substitution takes one premise"
        if plug(cited[0], mapping) != formula:
            return "CONCLUSION_MISMATCH", "substitution instance does not match the step formula"
        return None
    premises, conclusion = rule
    if len(cited) != len(premises):
        return "BAD_PREMISE", f"rule {name!r} takes {len(premises)} premises"
    for pattern, premise in zip(map(read, premises), cited):
        if plug(pattern, mapping) != premise:
            return "BAD_PREMISE", f"{show(premise)} does not match {show(pattern)}"
    if plug(read(conclusion), mapping) != formula:
        return "CONCLUSION_MISMATCH", "rule conclusion does not match the step formula"
    return None


def tree_cost(proof: Mapping) -> int:
    """The cost of a checked proof as a tree: one per rule application, a
    premise cited twice counted twice, as vty's closure costs a formula."""
    costs: list[int] = []
    for step in proof["steps"]:
        rule = step["kind"] == "rule"
        costs.append(1 + sum(costs[p] for p in step["premises"]) if rule else 0)
    return costs[-1]
