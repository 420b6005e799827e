"""Propositional formula trees and their prefix text syntax.

Formulas are immutable and compare structurally. No normalization is
applied anywhere: ``(and p q)`` and ``(and q p)`` are distinct values.

Text syntax, bit for bit::

    atom     [a-z][a-z0-9_]* other than bot
    bottom   bot
    unary    (not F)
    binary   (and F G) | (or F G) | (-> F G)

``parse_formula`` and ``format_formula`` are mutually inverse on
canonical text. Parentheses nest at most ``MAX_NESTING`` deep.

The three binary connectives are subclasses of one node, ``Binary``,
each naming its word once. One rewrite, ``substitute``, replaces atoms;
renaming atoms is substituting atoms for them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar, Iterable, Iterator, Mapping

from .errors import FormulaParseError
from .lex import NON_WORD, LexError, TokenFault, column, split_line, token_value

# the one rule for atom names, used by ``Atom`` and by the manifest reader:
# ``bot`` reads back as bottom, so it is no atom
ATOM_NAME = re.compile(r"(?!bot\Z)[a-z][a-z0-9_]*\Z")

# The formula functions recurse once or twice per level of nesting; near
# 450 levels a CLI command ran out of the interpreter's default recursion
# limit (1000) between parsing and reporting, so the parser stops well short.
MAX_NESTING = 200


class Formula:
    __slots__ = ()

    def __repr__(self) -> str:
        return f"<{format_formula(self)}>"


@dataclass(frozen=True, slots=True, repr=False)
class Atom(Formula):
    """An atom whose name the parser reads back as this atom, so that
    ``formula_key`` stays injective."""

    name: str

    def __post_init__(self) -> None:
        if not ATOM_NAME.match(self.name):
            raise ValueError(f"bad atom name {self.name!r}")


@dataclass(frozen=True, slots=True, repr=False)
class Bottom(Formula):
    """The constant false formula."""


# Compound formulas compute their hash once, at construction, instead of
# re-hashing the whole tree at every set or dict lookup. The value is the
# one the generated dataclass hash gives (the hash of the child tuple), so
# sets of formulas iterate in the same order as before. Equality stays
# structural.
def _cached_hash(formula: Formula) -> int:
    return formula._hash


@dataclass(frozen=True, slots=True, repr=False)
class Not(Formula):
    """The negation of its operand."""

    operand: Formula
    _hash: int = field(init=False, repr=False, compare=False)
    __hash__ = _cached_hash

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.operand,)))


@dataclass(frozen=True, slots=True, repr=False)
class Binary(Formula):
    """A binary connective. Each subclass names its connective word once;
    equality needs the same subclass, so ``And(p, q) != Or(p, q)``."""

    word: ClassVar[str]
    left: Formula
    right: Formula
    _hash: int = field(init=False, repr=False, compare=False)
    __hash__ = _cached_hash

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.left, self.right)))


# each keeps empty __slots__ so that its instances carry no __dict__
class And(Binary):
    __slots__ = ()
    word = "and"


class Or(Binary):
    __slots__ = ()
    word = "or"


class Implies(Binary):
    __slots__ = ()
    word = "->"


_BINARY = {cls.word: cls for cls in Binary.__subclasses__()}


def format_formula(formula: Formula) -> str:
    if isinstance(formula, Atom):
        return formula.name
    if isinstance(formula, Bottom):
        return "bot"
    if isinstance(formula, Not):
        return f"(not {format_formula(formula.operand)})"
    if isinstance(formula, Binary):
        return f"({formula.word} {format_formula(formula.left)} {format_formula(formula.right)})"
    raise TypeError(f"not a formula: {formula!r}")


@lru_cache(maxsize=65536)
def formula_key(formula: Formula) -> str:
    """Canonical sort key used everywhere formulas are ordered."""
    return format_formula(formula)


def parse_formula_tokens(texts: list[str], index: int) -> tuple[Formula, int]:
    """Parse one formula from a line's token texts (`lex.split_line`),
    returning it and the next index; a fault raises `lex.TokenFault`."""
    return _parse(texts, index, 0)


def _parse(texts: list[str], index: int, depth: int) -> tuple[Formula, int]:
    # depth counts the parentheses open around texts[index]
    if index >= len(texts):
        raise TokenFault("expected a formula", index)
    text = texts[index]
    if text == "(":
        if depth == MAX_NESTING:
            raise TokenFault(f"formula nests deeper than {MAX_NESTING} parentheses", index)
        if index + 1 >= len(texts):
            raise TokenFault("expected a connective after (", index)
        op = texts[index + 1]
        if op[0] in NON_WORD:
            raise TokenFault("expected a connective after (", index + 1)
        if op == "not":
            operand, nxt = _parse(texts, index + 2, depth + 1)
            nxt = _expect_rparen(texts, nxt, index)
            return Not(operand), nxt
        if op in _BINARY:
            left, nxt = _parse(texts, index + 2, depth + 1)
            right, nxt = _parse(texts, nxt, depth + 1)
            nxt = _expect_rparen(texts, nxt, index)
            return _BINARY[op](left, right), nxt
        raise TokenFault(f"unknown connective {op!r}", index + 1)
    if text[0] in NON_WORD:
        raise TokenFault(f"unexpected token {token_value(text)!r}", index)
    if text == "bot":
        return Bottom(), index + 1
    try:
        return Atom(text), index + 1
    except ValueError:
        raise TokenFault(f"bad atom name {text!r}", index) from None


def _expect_rparen(texts: list[str], index: int, open_index: int) -> int:
    if index >= len(texts):
        raise TokenFault("unclosed ( in formula", open_index)
    if texts[index] != ")":
        raise TokenFault(f"expected ) but found {token_value(texts[index])!r}", index)
    return index + 1


def parse_formula(text: str) -> Formula:
    try:
        texts = split_line(text)
    except LexError as exc:
        raise FormulaParseError(exc.message, exc.col) from None
    if not texts:
        raise FormulaParseError("expected a formula", 0)
    try:
        formula, index = parse_formula_tokens(texts, 0)
        if index != len(texts):
            raise TokenFault("unexpected trailing input", index)
    except TokenFault as exc:
        raise FormulaParseError(exc.message, column(text, exc.index, len(texts))) from None
    return formula


def atoms(formula: Formula) -> frozenset[str]:
    found: set[str] = set()
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            found.add(node.name)
        elif isinstance(node, Not):
            stack.append(node.operand)
        elif isinstance(node, Binary):
            stack.append(node.left)
            stack.append(node.right)
    return frozenset(found)


def subformulas(formula: Formula) -> Iterator[Formula]:
    """Yield the formula and every strict subformula, depth first."""
    yield formula
    if isinstance(formula, Not):
        yield from subformulas(formula.operand)
    elif isinstance(formula, Binary):
        yield from subformulas(formula.left)
        yield from subformulas(formula.right)


def subformula_closure(formulas: Iterable[Formula]) -> frozenset[Formula]:
    out: set[Formula] = set()
    for formula in formulas:
        out.update(subformulas(formula))
    return frozenset(out)


def substitute(formula: Formula, mapping: Mapping[str, Formula]) -> Formula:
    """Replace atoms by formulas. Atoms not in the mapping stay fixed, and
    a node with no atom replaced under it is returned as it is."""
    if isinstance(formula, Atom):
        return mapping.get(formula.name, formula)
    if isinstance(formula, Bottom):
        return formula
    if isinstance(formula, Not):
        operand = substitute(formula.operand, mapping)
        return formula if operand is formula.operand else Not(operand)
    left = substitute(formula.left, mapping)
    right = substitute(formula.right, mapping)
    if left is formula.left and right is formula.right:
        return formula
    return type(formula)(left, right)


def evaluate(formula: Formula, assignment: Mapping[str, int], *, true: int = True) -> int:
    """The formula's value under `assignment`, which gives every atom's value.

    `true` is the all-true value. With the default, values are bools and
    one row is evaluated. With `true` the all-ones mask of a truth table
    and atom masks as values (``semantics.atom_masks``), the result is the
    formula's mask: the same ``^ true``, ``&`` and ``|`` then work on every
    row at once.
    """
    if isinstance(formula, Atom):
        return assignment[formula.name]
    if isinstance(formula, Bottom):
        return False
    if isinstance(formula, Not):
        return evaluate(formula.operand, assignment, true=true) ^ true
    if isinstance(formula, And):
        return evaluate(formula.left, assignment, true=true) & evaluate(
            formula.right, assignment, true=true)
    if isinstance(formula, Or):
        return evaluate(formula.left, assignment, true=true) | evaluate(
            formula.right, assignment, true=true)
    if isinstance(formula, Implies):
        return (evaluate(formula.left, assignment, true=true) ^ true) | evaluate(
            formula.right, assignment, true=true)
    raise TypeError(f"not a formula: {formula!r}")


def match_pattern(
    pattern: Formula, target: Formula, bindings: Mapping[str, Formula] | None = None
) -> dict[str, Formula] | None:
    """One-way matching where every atom in the pattern is a metavariable.

    Returns the extended bindings, or None when the shapes disagree or a
    metavariable would need two different values.
    """
    out = dict(bindings) if bindings else {}
    if _match_into(pattern, target, out):
        return out
    return None


def _match_into(pattern: Formula, target: Formula, bindings: dict[str, Formula]) -> bool:
    if isinstance(pattern, Atom):
        bound = bindings.get(pattern.name)
        if bound is None:
            bindings[pattern.name] = target
            return True
        return bound == target
    if isinstance(pattern, Bottom):
        return isinstance(target, Bottom)
    if isinstance(pattern, Not):
        return isinstance(target, Not) and _match_into(pattern.operand, target.operand, bindings)
    if isinstance(pattern, Binary):
        if type(target) is not type(pattern):
            return False
        return _match_into(pattern.left, target.left, bindings) and _match_into(
            pattern.right, target.right, bindings
        )
    raise TypeError(f"not a formula: {pattern!r}")
