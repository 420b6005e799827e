"""Projective inference over a curated registry of algorithm classes.

A theorem proved from named class axioms projects onto every registered
class whose profile satisfies all of the theorem's dependencies. The
profiles are curated data with evidence attached; the projection itself
is a mechanical partition, not a proof search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .calculus import (
    Calculus,
    DEFAULT_DEPTH,
    DEFAULT_SIZE_CAP,
    Proof,
    base_calculus,
    labelled_closure,
    proves,
    with_axioms,
)
from .errors import CapExceededError, DepthExplosionError, UndeclaredAxiomError
from .formulas import Formula, formula_key
from .semantics import DEFAULT_ATOM_CAP, check_consistency, entails

SATISFIED = "SATISFIED"
VIOLATED = "VIOLATED"
UNKNOWN = "UNKNOWN"

CITATION = "CITATION"
EXEC_POSITIVE = "EXEC_POSITIVE"
EXEC_EXHAUSTIVE = "EXEC_EXHAUSTIVE"

DEFAULT_SUBSET_CAP = 12


class AxiomDeclaration(NamedTuple):
    axiom_id: str
    statement: str


@dataclass(frozen=True)
class Evidence:
    """What backs a resolved status: a citation, or an executable witness
    with its suite size or its domain."""

    kind: str  # CITATION, EXEC_POSITIVE or EXEC_EXHAUSTIVE
    citation: str | None = None
    witness_id: str | None = None
    suite_size: int | None = None
    domain: str | None = None

    def __post_init__(self) -> None:
        if self.kind == CITATION:
            if not self.citation:
                raise ValueError("citation evidence needs citation text")
        elif self.kind == EXEC_POSITIVE:
            if not self.witness_id or self.suite_size is None:
                raise ValueError("exec-positive evidence needs a witness id and suite size")
        elif self.kind == EXEC_EXHAUSTIVE:
            if not self.witness_id or self.domain is None:
                raise ValueError("exec-exhaustive evidence needs a witness id and a domain")
        else:
            raise ValueError(f"unknown evidence kind {self.kind!r}")


@dataclass(frozen=True)
class AxiomStatus:
    """A class's status on one axiom; a resolved one carries its evidence."""

    status: str  # SATISFIED, VIOLATED or UNKNOWN
    evidence: Evidence | None = None

    def __post_init__(self) -> None:
        if self.status not in (SATISFIED, VIOLATED, UNKNOWN):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status != UNKNOWN and self.evidence is None:
            raise ValueError("a resolved status needs evidence")
        if self.status == UNKNOWN and self.evidence is not None:
            raise ValueError("an unknown status carries no evidence")


@dataclass(frozen=True)
class ClassProfile:
    """A registered class and its status on each axiom it is scored on."""

    class_id: str
    display_name: str
    statuses: Mapping[str, AxiomStatus]

    def status_of(self, axiom_id: str) -> AxiomStatus:
        return self.statuses.get(axiom_id, AxiomStatus(UNKNOWN))


@dataclass(frozen=True)
class TheoremRecord:
    """A theorem of the registry and the axioms it depends on."""

    theorem_id: str
    statement: str
    dependencies: frozenset[str]
    source: str
    unconditional: bool = False

    def __post_init__(self) -> None:
        if not self.unconditional and not self.dependencies:
            raise ValueError(
                f"theorem {self.theorem_id!r} needs dependencies or the unconditional flag"
            )


class ProjectionEntry(NamedTuple):
    class_id: str
    display_name: str
    detail: str

    def to_dict(self) -> dict:
        return {"class": self.class_id, "name": self.display_name, "detail": self.detail}


class ProjectionReport(NamedTuple):
    theorem_id: str
    corollaries: tuple[ProjectionEntry, ...]
    not_applicable: tuple[ProjectionEntry, ...]
    unknown: tuple[ProjectionEntry, ...]

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem_id,
            "corollaries": [e.to_dict() for e in self.corollaries],
            "not_applicable": [e.to_dict() for e in self.not_applicable],
            "unknown": [e.to_dict() for e in self.unknown],
        }


# the part of the registry a class falls in under a theorem, in report order,
# and its mark in the matrix
CELL_MARKS = {"corollary": "C", "not_applicable": "-", "unknown": "?"}


def _check_declared(theorem: TheoremRecord, declarations: Mapping[str, AxiomDeclaration]) -> None:
    for axiom_id in sorted(theorem.dependencies):
        if axiom_id not in declarations:
            raise UndeclaredAxiomError(axiom_id)


def _cell(theorem: TheoremRecord, profile: ClassProfile) -> tuple[str, str]:
    """The part one class falls in under the theorem, and the detail that says why.

    An unconditional theorem, or every dependency satisfied, gives a
    corollary; any dependency violated rules the class out; anything
    else stays unknown.
    """
    statuses = {d: profile.status_of(d).status for d in sorted(theorem.dependencies)}
    if theorem.unconditional or all(s == SATISFIED for s in statuses.values()):
        return "corollary", f"for {profile.display_name}: {theorem.statement}"
    blockers = [d for d, s in statuses.items() if s == VIOLATED]
    if blockers:
        return "not_applicable", "violates " + ", ".join(blockers)
    return "unknown", "unresolved " + ", ".join(d for d, s in statuses.items() if s == UNKNOWN)


def project(
    theorem: TheoremRecord,
    profiles: Sequence[ClassProfile],
    declarations: Mapping[str, AxiomDeclaration],
) -> ProjectionReport:
    """Partition the registry by the theorem's dependencies, each class
    as `_cell` decides. The registry order is preserved in each part."""
    _check_declared(theorem, declarations)
    parts: dict[str, list[ProjectionEntry]] = {part: [] for part in CELL_MARKS}
    for profile in profiles:
        part, detail = _cell(theorem, profile)
        parts[part].append(ProjectionEntry(profile.class_id, profile.display_name, detail))
    return ProjectionReport(theorem.theorem_id, *map(tuple, parts.values()))


# --- axioms-to-theorem relation ---------------------------------------------


class RelationReport(NamedTuple):
    consistent_with: str  # YES or NO, exact by truth table
    sufficient: str       # YES or UNKNOWN, bounded proof search cannot refute
    irreducible: str      # YES, NO or UNKNOWN
    depth: int
    base: str
    semantically_entailed: bool
    reducible_to: tuple[str, ...] | None = None
    proof: Proof | None = None

    def to_dict(self) -> dict:
        out = {
            "consistent_with": self.consistent_with,
            "sufficient": self.sufficient,
            "irreducible": self.irreducible,
            "depth": self.depth,
            "base": self.base,
            "semantically_entailed": self.semantically_entailed,
        }
        if self.reducible_to is not None:
            out["reducible_to"] = list(self.reducible_to)
        if self.sufficient == "UNKNOWN" and not self.semantically_entailed:
            out["note"] = "the truth table already rules out entailment"
        return out


def _resolve_base(base: Calculus | str) -> Calculus:
    return base if isinstance(base, Calculus) else base_calculus(base)


def classify_relation(
    axioms: Iterable[Formula],
    goal: Formula,
    base: Calculus | str = "hilbert",
    depth: int = DEFAULT_DEPTH,
    *,
    atom_cap: int = DEFAULT_ATOM_CAP,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> RelationReport:
    """Consistency, bounded sufficiency, and exact subset irreducibility.

    Sufficiency is one-sided: a proof gives YES, absence of one within
    the depth gives UNKNOWN. Irreducibility is exact relative to the
    same depth bound: once sufficiency holds, every proper subset is
    decided at that depth, from one labelled closure of the whole set.
    """
    axiom_list = sorted(set(axioms), key=formula_key)
    base_calc = _resolve_base(base)
    consistent = check_consistency([*axiom_list, goal], atom_cap).consistent
    proof = proves(with_axioms(base_calc, axiom_list), goal, depth, size_cap=size_cap)
    entailed = entails(axiom_list, goal, atom_cap)
    if proof is None:
        return RelationReport(
            "YES" if consistent else "NO", "UNKNOWN", "UNKNOWN",
            depth, base_calc.calculus_id, entailed,
        )
    _check_subset_cap(axiom_list)
    smaller = next(_minimal_sufficient_subsets(
        axiom_list, goal, base_calc, depth, size_cap, len(axiom_list) - 1
    ), None)
    reducible_to = None if smaller is None else tuple(formula_key(f) for f in smaller)
    return RelationReport(
        "YES" if consistent else "NO", "YES",
        "NO" if reducible_to is not None else "YES",
        depth, base_calc.calculus_id, entailed,
        reducible_to, proof,
    )


def minimal_axiom_subsets(
    axioms: Iterable[Formula],
    goal: Formula,
    base: Calculus | str = "hilbert",
    depth: int = DEFAULT_DEPTH,
    *,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> tuple[frozenset[Formula], ...]:
    """All minimal sufficient subsets at the depth bound, as an antichain.

    Ordered by size, then by combination order of the sorted axioms; no
    result contains another. One labelled closure of the whole set gives
    the answer: a subset suffices when it contains one of the goal's
    support masks, so the minimal ones are the masks that contain no
    other. When the whole set trips a size cap, each subset gets its own
    bounded proof search instead, so answers and cap errors are those of
    searching subset by subset.
    """
    axiom_list = sorted(set(axioms), key=formula_key)
    _check_subset_cap(axiom_list)
    return tuple(frozenset(combo) for combo in _minimal_sufficient_subsets(
        axiom_list, goal, _resolve_base(base), depth, size_cap, len(axiom_list)
    ))


def _check_subset_cap(axiom_list: Sequence[Formula]) -> None:
    if len(axiom_list) > DEFAULT_SUBSET_CAP:
        raise CapExceededError("subsets", len(axiom_list), DEFAULT_SUBSET_CAP)


def _minimal_sufficient_subsets(
    axiom_list: Sequence[Formula], goal: Formula, base_calc: Calculus,
    depth: int, size_cap: int, max_width: int,
) -> Iterator[tuple[Formula, ...]]:
    """Minimal subsets of the sorted axiom list that prove the goal, smallest first.

    Subsets come in ``itertools.combinations`` order up to ``max_width``;
    no yielded subset contains another. One ``labelled_closure`` of the
    whole list answers directly: a subset proves the goal when one of the
    goal's support masks lies inside it, so the minimal sufficient subsets
    are the support masks that contain no other, ordered by width and then
    by combination order. Closure only grows with the axiom set, so when
    the whole list closes within the caps no subset's closure can trip one.
    When it does not, every candidate in combination order that contains no
    yielded subset gets its own ``proves`` call, which raises the cap error
    of the first candidate that trips a cap.
    """
    try:
        supports = [mask for mask, _ in labelled_closure(
            base_calc, axiom_list, depth, goals=(goal,), size_cap=size_cap).get(goal, ())]
    except DepthExplosionError:
        supports = None
    if supports is None:
        candidates = (combo for width in range(max_width + 1)
                      for combo in itertools.combinations(range(len(axiom_list)), width))
    else:
        combos = [tuple(i for i in range(len(axiom_list)) if mask >> i & 1) for mask in supports]
        candidates = sorted((combo for combo in combos if len(combo) <= max_width),
                            key=lambda combo: (len(combo), combo))
    minimal: list[int] = []
    for combo in candidates:
        mask = sum(1 << i for i in combo)
        if any(found & mask == found for found in minimal):
            continue
        subset = tuple(axiom_list[i] for i in combo)
        if supports is None and proves(with_axioms(base_calc, subset), goal, depth,
                                       size_cap=size_cap) is None:
            continue
        minimal.append(mask)
        yield subset


# --- registry matrix ---------------------------------------------------------


class MatrixReport(NamedTuple):
    classes: tuple[str, ...]
    theorems: tuple[str, ...]
    cells: tuple[tuple[str, ...], ...]  # rows by class, columns by theorem

    def to_dict(self) -> dict:
        return {
            "classes": list(self.classes),
            "theorems": list(self.theorems),
            "cells": [list(row) for row in self.cells],
            "legend": dict(CELL_MARKS),
        }

    def to_text(self) -> str:
        width = max((len(c) for c in self.classes), default=5)
        header = " " * (width + 2) + "  ".join(
            f"{t}" for t in self.theorems
        )
        lines = [header]
        for class_id, row in zip(self.classes, self.cells):
            marks = "  ".join(
                CELL_MARKS[cell].center(len(theorem))
                for cell, theorem in zip(row, self.theorems)
            )
            lines.append(f"{class_id.ljust(width + 2)}{marks}")
        lines.append("legend: C corollary, - not applicable, ? unknown")
        return "\n".join(lines)


def registry_report(
    profiles: Sequence[ClassProfile],
    theorems: Sequence[TheoremRecord],
    declarations: Mapping[str, AxiomDeclaration],
) -> MatrixReport:
    """Class-by-theorem matrix in declared order, each cell the part of the
    registry `_cell` puts the class in, as in `project`."""
    for theorem in theorems:
        _check_declared(theorem, declarations)
    return MatrixReport(
        tuple(p.class_id for p in profiles),
        tuple(theorem.theorem_id for theorem in theorems),
        tuple(tuple(_cell(theorem, p)[0] for theorem in theorems) for p in profiles),
    )
