"""Prevarieties and varieties of logical components, with exact checks.

A component is a calculus together with two formula maps and a
designated theorem subset. A prevariety is the component list plus the
union triad it claims to assemble: axiom union, rule union, theorem
union. Checks recompute the unions extensionally over finite
materialized sets and report every mismatch element by element.

Theorem sets are always bounded closures, so every equality that
mentions them is verified up to the component's depth and reported as
such.

Each component materializes its sets and runs its two maps over them
once per size cap, one record side per map with its words from one
table, and assembly and every check read that record. A variety witness
is an index tuple and the component that covers it, so its record is
built and cached the same way; a width-1 tuple with no witness is
covered by its own component, in quasi mode too. A variety or bijective
report is its base report with the fields its own check sets replaced.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from operator import and_
from typing import Callable, Iterable, NamedTuple, Sequence

from .calculus import (
    Calculus,
    DEFAULT_SIZE_CAP,
    InferenceRule,
    theorem_formulas,
)
from .errors import CapExceededError, MapUndefinedError
from .formulas import Atom, Formula, evaluate, formula_key, substitute
from .semantics import (
    DEFAULT_ATOM_CAP,
    atom_masks,
    check_consistency,
    collect_atoms,
)

DEFAULT_COMPONENT_SUBSET_CAP = 4096
# the most index tuples one variety check may visit, counted before the first
DEFAULT_TUPLE_CAP = 100_000


@dataclass(frozen=True)
class FormulaMap:
    """A partial formula-to-formula map: an atom renaming or a finite table.

    Renamings extend homomorphically over connectives and leave unmapped
    atoms fixed: a renaming substitutes the atoms it names. Tables map
    listed formulas only. An optional domain restriction narrows either
    kind. Applying a map outside its domain raises; it is never a silent
    identity.
    """

    map_id: str
    renaming: tuple[tuple[str, str], ...] | None = None
    table: tuple[tuple[Formula, Formula], ...] | None = None
    domain: frozenset[Formula] | None = None
    _lookup: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if (self.renaming is None) == (self.table is None):
            raise ValueError("a formula map is either a renaming or a table")
        if self.table is None:
            pairs = self.renaming
            lookup = {source: Atom(target) for source, target in pairs}
        else:
            pairs = self.table
            lookup = dict(pairs)
        if len(lookup) != len(pairs):
            raise ValueError(f"map {self.map_id!r} lists a source formula twice")
        object.__setattr__(self, "_lookup", lookup)

    @classmethod
    def identity(cls, map_id: str = "identity") -> FormulaMap:
        return cls(map_id, renaming=())

    @classmethod
    def table_map(
        cls, map_id: str, pairs: Iterable[tuple[Formula, Formula]],
        domain: Iterable[Formula] | None = None,
    ) -> FormulaMap:
        frozen = tuple(sorted(pairs, key=lambda pair: formula_key(pair[0])))
        dom = frozenset(domain) if domain is not None else None
        return cls(map_id, table=frozen, domain=dom)

    def defined_on(self, formula: Formula) -> bool:
        if self.domain is not None and formula not in self.domain:
            return False
        return self.table is None or formula in self._lookup

    def over(self, formulas: Iterable[Formula]) -> tuple[dict[Formula, Formula], tuple[Formula, ...]]:
        """Images keyed by source, and the sources the map misses, both in formula_key order."""
        images: dict[Formula, Formula] = {}
        missed: list[Formula] = []
        for formula in sorted(formulas, key=formula_key):
            if not self.defined_on(formula):
                missed.append(formula)
            elif self.table is not None:
                images[formula] = self._lookup[formula]
            else:
                images[formula] = substitute(formula, self._lookup)
        return images, tuple(missed)


@dataclass(frozen=True)
class Component:
    """A calculus with its axiom map, theorem map and designated theorems."""

    component_id: str
    calculus: Calculus
    axiom_map: FormulaMap
    theorem_map: FormulaMap
    designated_theorems: frozenset[Formula]
    # _Mapped records by size cap, built on first use
    _mapped: dict = field(default_factory=dict, init=False, repr=False, compare=False)


# each side's union equation, kind, and what its map misses in a
# prevariety check and in a witness check
_SIDES = (
    ("A", "axiom", "an axiom", "a covering axiom"),
    ("M", "theorem", "a designated theorem", "a subset member"),
)


class _Side:
    """One map run over its source set, with the words of its side."""

    def __init__(self, words: tuple[str, ...], formula_map: FormulaMap,
                 sources: frozenset[Formula]) -> None:
        self.equation, self.kind, self.missed, self.witness_missed = words
        self.map = formula_map
        self.images, self.misses = formula_map.over(sources)
        self.image_set = frozenset(self.images.values())


class _Mapped:
    """A component's sets and two maps run over them, at one size cap.

    ``sides`` is the axiom side, the axiom map over the depth-0 axioms,
    then the theorem side, the theorem map over the designated theorems.
    The axiom set and both sides are made at once; the bounded theorem
    set on first read, so that a command which never reads it cannot
    trip the size cap on it.
    """

    def __init__(self, component: Component, size_cap: int) -> None:
        self.calculus = component.calculus
        self.designated = component.designated_theorems
        self.size_cap = size_cap
        self.axioms = theorem_formulas(self.calculus, 0, size_cap)
        self.sides = (_Side(_SIDES[0], component.axiom_map, self.axioms),
                      _Side(_SIDES[1], component.theorem_map, self.designated))

    @cached_property
    def theorems(self) -> frozenset[Formula]:
        return theorem_formulas(self.calculus, self.calculus.closure_depth, self.size_cap)


def _mapped(component: Component, size_cap: int) -> _Mapped:
    record = component._mapped.get(size_cap)
    if record is None:
        record = component._mapped[size_cap] = _Mapped(component, size_cap)
    return record


@dataclass(frozen=True)
class Prevariety:
    """Component list plus the union triad it claims to assemble."""

    axioms: frozenset[Formula]
    rules: frozenset[InferenceRule]
    theorems: frozenset[Formula]
    components: tuple[Component, ...]
    quasi: bool = False


@dataclass(frozen=True)
class VarietyWitness:
    """One index tuple and the component that covers it.

    The witness id is the covering component's id. Its axiom map is the
    axiom projection: it must send every axiom of the covering calculus
    into the axiom-image intersection of the tuple. Its theorem map is
    the theorem projection: it must send the covering component's
    designated theorems, which its calculus must prove, into the
    designated-theorem-image intersection.
    """

    indices: tuple[int, ...]  # 1-based component positions, strictly increasing
    covering: Component

    def __post_init__(self) -> None:
        if not self.indices:
            raise ValueError("a witness covers at least one component index")
        if list(self.indices) != sorted(set(self.indices)):
            raise ValueError("witness indices must be strictly increasing")


def assemble_prevariety(
    components: Sequence[Component],
    *,
    quasi: bool = False,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> Prevariety:
    """Union the component images into the triad.

    Raises MapUndefinedError when a map misses a required input; the
    error names the component and the formula.
    """
    unions: dict[str, set] = {"A": set(), "H": set(), "M": set()}
    for component in components:
        for side in _mapped(component, size_cap).sides:
            if side.misses:
                raise MapUndefinedError(
                    side.map.map_id, formula_key(side.misses[0]),
                    f"assembling {side.kind}s of component {component.component_id!r}",
                )
            unions[side.equation].update(side.image_set)
        unions["H"].update(component.calculus.rules)
    return Prevariety(
        frozenset(unions["A"]), frozenset(unions["H"]), frozenset(unions["M"]),
        tuple(components), quasi,
    )


# --- reports ---------------------------------------------------------------


class Diagnostic(NamedTuple):
    code: str
    component_id: str | None = None
    equation: str | None = None  # A, H or M when a union equation is involved
    subject: str | None = None   # formula text, rule name or index tuple
    message: str = ""

    def sort_key(self) -> tuple:
        return (
            self.code,
            self.component_id or "",
            self.equation or "",
            self.subject or "",
            self.message,
        )

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "component": self.component_id,
            "equation": self.equation,
            "subject": self.subject,
            "message": self.message,
        }


class TupleRecord(NamedTuple):
    indices: tuple[int, ...]
    axiom_intersection: tuple[str, ...]
    theorem_intersection: tuple[str, ...]
    status: str  # vacuous | witnessed | self-witnessed | missing | invalid
    witness_id: str | None = None
    axiom_projection_surjective: bool | None = None
    theorem_projection_surjective: bool | None = None

    def to_dict(self) -> dict:
        return {
            "indices": list(self.indices),
            "axiom_intersection": list(self.axiom_intersection),
            "theorem_intersection": list(self.theorem_intersection),
            "status": self.status,
            "witness": self.witness_id,
            "axiom_projection_surjective": self.axiom_projection_surjective,
            "theorem_projection_surjective": self.theorem_projection_surjective,
        }


@dataclass(frozen=True, repr=False)
class StructureReport:
    """The verdict of one structure check: its equations, diagnostics,
    depth bounds, index tuples and notes."""

    kind: str  # prevariety | variety | bijective-prevariety | bijective-variety
    equations: tuple[tuple[str, str], ...]  # (name, OK | MISMATCH) pairs
    diagnostics: tuple[Diagnostic, ...]
    depth_bounds: tuple[tuple[str, int], ...]
    tuples: tuple[TupleRecord, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.diagnostics

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "verdict": self.verdict,
            "equations": {name: status for name, status in self.equations},
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "depth_bounds": {cid: depth for cid, depth in self.depth_bounds},
            "tuples": [record.to_dict() for record in self.tuples],
            "notes": list(self.notes),
        }


def _texts(formulas: Iterable[Formula]) -> tuple[str, ...]:
    return tuple(sorted(formula_key(f) for f in formulas))


def check_prevariety(pv: Prevariety, *, size_cap: int = DEFAULT_SIZE_CAP) -> StructureReport:
    """Verify the three union equations and the component invariants."""
    diagnostics: list[Diagnostic] = []
    expected: dict[str, set] = {"A": set(), "H": set(), "M": set()}

    for component in pv.components:
        cid = component.component_id
        record = _mapped(component, size_cap)
        for side in record.sides:
            expected[side.equation].update(side.image_set)
            for formula in side.misses:
                diagnostics.append(Diagnostic(
                    "MAP_UNDEFINED", cid, side.equation, formula_key(formula),
                    f"{side.kind} map {side.map.map_id!r} misses {side.missed}",
                ))
        expected["H"].update(component.calculus.rules)
        if not pv.quasi:
            for formula in component.designated_theorems - record.theorems:
                diagnostics.append(Diagnostic(
                    "NOT_A_THEOREM", cid, "M", formula_key(formula),
                    f"not provable within depth {component.calculus.closure_depth}",
                ))

    # Rules are matched by name, so one rule can differ in content.
    equations = []
    for name, code, claimed, key, text in (
        ("A", "AXIOM_UNION_MISMATCH", pv.axioms, lambda f: f, formula_key),
        ("H", "RULE_UNION_MISMATCH", pv.rules, lambda rule: rule.name, str),
        ("M", "THEOREM_UNION_MISMATCH", pv.theorems, lambda f: f, formula_key),
    ):
        claimed_keys = set(map(key, claimed))
        expected_keys = set(map(key, expected[name]))
        differing = set(map(key, claimed ^ expected[name]))
        for subject in differing:
            if subject not in expected_keys:
                message = "claimed in the union but contributed by no component"
            elif subject not in claimed_keys:
                message = "contributed by a component but missing from the union"
            else:
                message = "rule content differs between the union and the components"
            diagnostics.append(Diagnostic(code, None, name, text(subject), message))
        equations.append((name, "MISMATCH" if differing else "OK"))

    diagnostics.sort(key=Diagnostic.sort_key)
    depth_bounds = tuple((c.component_id, c.calculus.closure_depth) for c in pv.components)
    notes = ("quasi mode: designated theorems are not required to be provable",) if pv.quasi else ()
    return StructureReport(
        "prevariety", tuple(equations), tuple(diagnostics), depth_bounds, notes=notes,
    )


def _intersect(images: Sequence[frozenset[Formula]], indices: tuple[int, ...]) -> frozenset[Formula]:
    return frozenset.intersection(*(images[index - 1] for index in indices))


def _validate_witness(
    witness_id: str,
    indices: tuple[int, ...],
    covering: _Mapped,
    intersections: tuple[frozenset[Formula], ...],
) -> tuple[list[Diagnostic], tuple[bool, ...]]:
    """Diagnostics of one witness from its covering record, and whether
    each side's projection is onto its intersection: the axiom-image and
    the designated-image intersection of the tuple."""
    tuple_text = str(indices)
    depth = covering.calculus.closure_depth
    diagnostics = [
        Diagnostic(
            "WITNESS_THEOREM_UNPROVED", witness_id, None, formula_key(formula),
            f"not provable in the covering calculus within depth {depth}",
        )
        for formula in covering.designated - covering.theorems
    ]
    onto = []
    for side, intersection in zip(covering.sides, intersections):
        for formula in side.misses:
            diagnostics.append(Diagnostic(
                "WITNESS_MAP_UNDEFINED", witness_id, None, formula_key(formula),
                f"{side.kind} projection misses {side.witness_missed} for tuple {tuple_text}",
            ))
        for formula, image in side.images.items():
            if image not in intersection:
                diagnostics.append(Diagnostic(
                    f"WITNESS_{side.kind.upper()}_OUTSIDE_INTERSECTION", witness_id, None,
                    formula_key(formula),
                    f"projects to {formula_key(image)} outside the {side.kind} intersection "
                    f"of {tuple_text}",
                ))
        onto.append(side.image_set == intersection)
    return diagnostics, tuple(onto)


def check_variety(
    pv: Prevariety,
    k: int,
    witnesses: Sequence[VarietyWitness] = (),
    *,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> StructureReport:
    """Witness verification for every index tuple of length up to ``k``.

    A tuple whose axiom and theorem image intersections are both empty
    passes vacuously. Single-index tuples fall back to the component
    itself as an implicit self witness when none is supplied. All other
    nonvacuous tuples need an explicit witness; verification never
    searches for one. Once the prevariety check passes, a check that
    would visit more than ``DEFAULT_TUPLE_CAP`` tuples is refused before
    the first.
    """
    if k < 1:
        raise ValueError("tuple width k must be at least 1")
    base = check_prevariety(pv, size_cap=size_cap)
    if not base.passed:
        return replace(base, kind="variety", diagnostics=base.diagnostics + (Diagnostic(
            "PREVARIETY_FAILED", None, None, None,
            "the union equations must pass before witness checks run",
        ),))
    count = len(pv.components)
    tuples = sum(math.comb(count, width) for width in range(1, min(k, count) + 1))
    if tuples > DEFAULT_TUPLE_CAP:
        raise CapExceededError("tuples", tuples, DEFAULT_TUPLE_CAP)

    mapped = [_mapped(component, size_cap) for component in pv.components]
    # each side's image sets, by component position
    side_images = [[m.sides[side].image_set for m in mapped] for side in range(len(_SIDES))]
    # only this check maps the bounded theorem sets
    theorem_images = [
        frozenset(component.theorem_map.over(m.theorems)[0].values())
        for component, m in zip(pv.components, mapped)
    ]
    by_tuple: dict[tuple[int, ...], Component] = {}
    diagnostics: list[Diagnostic] = []
    for witness in witnesses:
        if witness.indices in by_tuple:
            diagnostics.append(Diagnostic(
                "DUPLICATE_WITNESS", witness.covering.component_id, None,
                str(witness.indices), "another witness already covers this tuple",
            ))
            continue
        by_tuple[witness.indices] = witness.covering

    records: list[TupleRecord] = []
    for width in range(1, min(k, count) + 1):
        for indices in itertools.combinations(range(1, count + 1), width):
            intersections = tuple(_intersect(images, indices) for images in side_images)
            axiom_intersection = intersections[0]
            theorem_intersection = _intersect(theorem_images, indices)
            if not axiom_intersection and not theorem_intersection:
                records.append(TupleRecord(indices, (), (), "vacuous"))
                continue
            covering = by_tuple.get(indices)
            if covering is not None:
                witness_id, status = covering.component_id, "witnessed"
            elif width == 1:
                # the implicit self witness: the component covers its own tuple
                covering = pv.components[indices[0] - 1]
                witness_id, status = f"self:{covering.component_id}", "self-witnessed"
            else:
                diagnostics.append(Diagnostic(
                    "MISSING_WITNESS", None, None, str(indices),
                    "nonempty intersections but no witness supplied for this tuple",
                ))
                records.append(TupleRecord(
                    indices, _texts(axiom_intersection), _texts(theorem_intersection),
                    "missing",
                ))
                continue
            problems, onto = _validate_witness(
                witness_id, indices, _mapped(covering, size_cap), intersections,
            )
            records.append(TupleRecord(
                indices, _texts(axiom_intersection), _texts(theorem_intersection),
                status if not problems else "invalid", witness_id, *onto,
            ))
            diagnostics.extend(problems)

    diagnostics.sort(key=Diagnostic.sort_key)
    notes = (
        f"checked index tuples of width 1..{min(k, count)}",
        "theorem intersections computed on bounded closures at each component's depth",
        *base.notes,
    )
    return replace(base, kind="variety", diagnostics=tuple(diagnostics), tuples=tuple(records),
                   notes=notes)


def check_bijective_variety(
    pv: Prevariety,
    mode: str,
    k: int = 1,
    witnesses: Sequence[VarietyWitness] = (),
    *,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> StructureReport:
    """Injectivity checks, plus full closure equality in variety mode.

    mode "prevariety": the union equations must hold and both maps of
    every component must be injective on their materialized domains.
    mode "variety": additionally every designated theorem set must
    equal the bounded closure of its calculus, and the width-k witness
    condition of ``check_variety`` must hold.
    """
    if mode not in ("prevariety", "variety"):
        raise ValueError(f"mode must be 'prevariety' or 'variety', not {mode!r}")
    if mode == "variety":
        base = check_variety(pv, k, witnesses, size_cap=size_cap)
    else:
        base = check_prevariety(pv, size_cap=size_cap)
    diagnostics = list(base.diagnostics)

    for component in pv.components:
        cid = component.component_id
        record = _mapped(component, size_cap)
        for side in record.sides:
            # undefined entries are reported by the prevariety check
            first_source: dict[Formula, Formula] = {}
            for formula, image in side.images.items():
                earlier = first_source.setdefault(image, formula)
                if earlier != formula:
                    diagnostics.append(Diagnostic(
                        "NOT_BIJECTIVE", cid, None,
                        f"{formula_key(earlier)}, {formula_key(formula)}",
                        f"{side.kind} map {side.map.map_id!r} sends both to {formula_key(image)}",
                    ))
        if mode == "variety":
            theorem_set = record.theorems
            designated = component.designated_theorems
            for outside, message in (
                (theorem_set - designated,
                 f"provable at depth {component.calculus.closure_depth} but not designated"),
                (designated - theorem_set, "designated but outside the bounded closure"),
            ):
                diagnostics.extend(
                    Diagnostic("THEOREMS_NOT_CLOSED", cid, "M", formula_key(formula), message)
                    for formula in outside
                )

    diagnostics.sort(key=Diagnostic.sort_key)
    notes = base.notes + (
        "bijectivity is checked as injectivity on the materialized domain; "
        "every map is onto its own image by construction",
    )
    if mode == "variety":
        notes = notes + ("designated theorem sets compared with closures up to each depth",)
    return replace(base, kind=f"bijective-{mode}", diagnostics=tuple(diagnostics), notes=notes)


# --- knowledge-base consistency --------------------------------------------


class ComponentConsistency(NamedTuple):
    component_id: str
    verdict: str
    formula_count: int
    atom_count: int

    def to_dict(self) -> dict:
        return {
            "component": self.component_id,
            "verdict": self.verdict,
            "formulas": self.formula_count,
            "atoms": self.atom_count,
        }


class KnowledgeConsistencyReport(NamedTuple):
    components: tuple[ComponentConsistency, ...]
    global_verdict: str
    global_witness_kind: str | None
    locally_consistent_globally_inconsistent: bool
    minimal_inconsistent_sets: tuple[tuple[str, ...], ...]
    notes: tuple[str, ...] = ()

    @property
    def pairs(self) -> tuple[tuple[str, ...], ...]:
        return tuple(s for s in self.minimal_inconsistent_sets if len(s) == 2)

    def to_dict(self) -> dict:
        return {
            "components": [c.to_dict() for c in self.components],
            "global": self.global_verdict,
            "global_witness": self.global_witness_kind,
            "locally_consistent_globally_inconsistent":
                self.locally_consistent_globally_inconsistent,
            "minimal_inconsistent_sets": [list(s) for s in self.minimal_inconsistent_sets],
            "pairs": [list(s) for s in self.pairs],
            "notes": list(self.notes),
        }


def consistency_report(
    pv: Prevariety,
    *,
    atom_cap: int = DEFAULT_ATOM_CAP,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> KnowledgeConsistencyReport:
    """Per-component and global satisfiability, with minimal bad subsets.

    The hallmark situation, every component consistent while the pooled
    set is not, is detected and flagged. Minimal inconsistent component
    subsets are found by exhaustive subset search in increasing size;
    supersets of a known inconsistent subset are skipped.

    When the components' contributions together stay within the atom cap,
    each component's formulas are evaluated once over all their atoms and
    ANDed into one mask per component; a component, or a subset of them, is
    consistent exactly when the AND of its masks is nonzero. Past the cap,
    each one gets its own ``check_consistency``, which raises the cap error
    of the first subset that passes the cap. A component past the cap on
    its own raises before any later component is mapped.
    """
    contributions: list[frozenset[Formula]] = []
    atom_counts: list[int] = []
    for component in pv.components:
        axiom, theorem = _mapped(component, size_cap).sides
        pooled = axiom.image_set | theorem.image_set
        atom_count = len(collect_atoms(pooled))
        if atom_count > atom_cap:
            raise CapExceededError("atoms", atom_count, atom_cap)
        contributions.append(pooled)
        atom_counts.append(atom_count)

    global_set = pv.axioms | pv.theorems
    global_verdict = check_consistency(global_set, atom_cap)
    consistent = _subset_consistency(contributions, atom_cap)
    rows = [
        ComponentConsistency(component.component_id,
                             "CONSISTENT" if consistent((i,)) else "INCONSISTENT",
                             len(pooled), atom_count)
        for i, (component, pooled, atom_count)
        in enumerate(zip(pv.components, contributions, atom_counts))
    ]
    all_locally_consistent = all(row.verdict == "CONSISTENT" for row in rows)
    flag = all_locally_consistent and not global_verdict.consistent

    # the search runs over component positions, so each component of a
    # repeated id takes part; the report names the sets by id
    minimal = [(i,) for i, row in enumerate(rows) if row.verdict == "INCONSISTENT"]
    notes: list[str] = []
    candidates = itertools.chain.from_iterable(
        itertools.combinations(range(len(rows)), width) for width in range(2, len(rows) + 1))
    for examined, combo in enumerate(candidates, start=1):
        if examined > DEFAULT_COMPONENT_SUBSET_CAP:
            notes.append(
                f"subset search truncated after {DEFAULT_COMPONENT_SUBSET_CAP} candidates")
            break
        if any(set(found) <= set(combo) for found in minimal):
            continue
        if not consistent(combo):
            minimal.append(combo)
    notes.append("per-component sets are the pooled axiom and theorem images")

    return KnowledgeConsistencyReport(
        tuple(rows),
        global_verdict.verdict,
        global_verdict.witness_kind,
        flag,
        tuple(tuple(rows[i].component_id for i in found) for found in minimal),
        tuple(notes),
    )


def _subset_consistency(
    contributions: Sequence[frozenset[Formula]], atom_cap: int
) -> Callable[[Sequence[int]], bool]:
    """A test of whether the pooled contributions at some positions are consistent."""
    names = collect_atoms(itertools.chain.from_iterable(contributions))
    if len(names) > atom_cap:
        return lambda positions: check_consistency(
            frozenset().union(*(contributions[i] for i in positions)), atom_cap).consistent
    masks, true = atom_masks(names)
    models = [
        reduce(and_, (evaluate(formula, masks, true=true) for formula in formulas), true)
        for formulas in contributions
    ]
    return lambda positions: reduce(and_, (models[i] for i in positions)) != 0
