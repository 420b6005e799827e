"""Hilbert-style calculi with bounded forward closure and proof objects.

Theorem sets here are intensional: a theorem set is always a calculus
plus a depth bound, never a bare set of formulas. Depth counts rule
applications in a tree-shaped derivation. Instance axioms and schema
instances cost zero; a rule application costs one plus the cost of its
premise derivations. ``closure(c, d)`` returns exactly the formulas
with a derivation of cost at most ``d``.

Schema instantiation is restricted to the subformula closure of the
instance axioms, the goals passed in, and the calculus's declared
signature atoms. The restriction keeps instance sets finite; reports
elsewhere label theorem sets with the depth they were computed at.

One labelled fixpoint computes every closure. It takes the calculus and
a list of extra axioms, and gives each formula an antichain of labels
``(support mask, cost)``: the formula has a derivation of that cost from
the calculus plus the listed axioms the mask names, bit i standing for
axiom i. Base axioms have the empty mask, listed axioms their own bit. A
rule application unions its premises' masks and adds their costs plus
one; labels over the depth, and labels another one dominates (a mask
that is a subset, at no higher cost), are dropped. ``closure`` is the
run with no listed axioms, where each formula has one label, its least
cost. A formula's derivation is recorded whenever it gains a label with
the empty mask.

Derivation order, which fixes every cost and proof ``closure`` reports:
axioms, then schema instances over the ``formula_key``-sorted domain;
then rounds, until a round admits nothing, over the rules in calculus
order. Each rule application reads a snapshot of everything known when
it starts, and admits premise tuples in lexicographic order of the
``formula_key``-sorted snapshot, with the labels the snapshot holds. A
derivation replaces a formula's current one only at strictly lower cost,
so among equal costs the first wins.

Rounds are semi-naive (Bancilhon and Ramakrishnan, SIGMOD 1986). A
formula is fresh for a rule when it was admitted or gained a label since
that rule's previous application started; for its first, every formula
is. A premise tuple with no fresh premise offered the same labels at the
previous application, and labels only improve, so each of them is
dominated now: skipping the tuple leaves what the application admits
unchanged. The substitution rule instantiates the fresh formulas only. A
schema rule gathers the tuples that hold a fresh premise, one pass per
position of the first fresh premise, starting the join from it; then it
admits them sorted into snapshot order. When more tuples than the size
cap are gathered, it drops them and walks every tuple of the sorted
snapshot in order instead, admitting as it goes, so one application
never holds more than the cap.

Premise candidates come from a one-level index kept for the whole run: a
formula enters it once, when it is first admitted. Buckets hold every
formula with a given connective, and every formula with a given
connective and a given immediate child in a given slot. Under the
bindings made by earlier premises, a bound atom premise takes its bound
formula if that is known, a connective with a bound atom child takes
that child's bucket, another connective takes its connective's bucket,
and an unbound atom takes everything known. A bucket holds every formula
the premise can match. Proof objects are built from the derivation table
on each request.

``labelled_closure`` is the run with listed axioms. It answers for every
subset of them at once, as an assumption-based truth maintenance system
does (de Kleer, AI 28, 1986). A value of the instantiation domain needs
no axiom when it is a subformula of a goal or a base axiom or a signature
atom, and otherwise needs any one listed axiom it is a subformula of; a
schema or substitution instance needs the union of one such support per
value. The run stops with ``DepthExplosionError`` when its formula count,
an instantiation guard or its total label count passes the size cap.
Closure only grows with the axiom set, so when the whole list closes
within the caps, no subset of it trips one either.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import Checked, DepthExplosionError, Frozen
from .formulas import (
    Atom,
    Binary,
    Formula,
    Implies,
    Not,
    atoms,
    formula_key,
    match_pattern,
    subformula_closure,
    substitute,
)

DEFAULT_SIZE_CAP = 10_000
# the closure depth bound wherever none is given
DEFAULT_DEPTH = 3

Substitution = tuple[tuple[str, Formula], ...]


def _freeze_substitution(mapping: Mapping[str, Formula]) -> Substitution:
    return tuple(sorted(mapping.items()))


class _SchemaRuleFields(NamedTuple):
    name: str
    premises: tuple[Formula, ...]
    conclusion: Formula


class SchemaRule(Checked, _SchemaRuleFields):
    """An inference rule given by premise and conclusion patterns.

    Every atom occurring in the patterns is a metavariable. A rule is
    well formed only if the conclusion introduces no metavariable of
    its own, so a match of the premises determines the conclusion.
    """

    __slots__ = ()

    def __new__(cls, name: str, premises: tuple[Formula, ...], conclusion: Formula) -> SchemaRule:
        if not premises:
            raise ValueError(f"rule {name!r} needs at least one premise")
        premise_vars: set[str] = set()
        for premise in premises:
            premise_vars.update(atoms(premise))
        loose = atoms(conclusion) - premise_vars
        if loose:
            raise ValueError(
                f"rule {name!r} conclusion uses unbound metavariables {sorted(loose)}"
            )
        return tuple.__new__(cls, (name, premises, conclusion))


class SubstitutionRule(NamedTuple):
    """The built-in rule: from a theorem infer any substitution instance.

    Instances range over the restricted instantiation domain, like
    schema instances do.
    """

    name: str = "sub"


InferenceRule = SchemaRule | SubstitutionRule


class AxiomSchema(NamedTuple):
    schema_id: str
    pattern: Formula


class _CalculusFields(NamedTuple):
    calculus_id: str
    axioms: frozenset[Formula]
    schemas: tuple[AxiomSchema, ...]
    rules: tuple[InferenceRule, ...]
    closure_depth: int
    signature_atoms: frozenset[str]


class Calculus(Checked, _CalculusFields):
    """Axioms, axiom schemas and inference rules, closed to `closure_depth`
    rule layers over the instantiation domain."""

    __slots__ = ()

    def __new__(cls, calculus_id: str, axioms: frozenset[Formula] = frozenset(),
                schemas: tuple[AxiomSchema, ...] = (), rules: tuple[InferenceRule, ...] = (),
                closure_depth: int = DEFAULT_DEPTH,
                signature_atoms: frozenset[str] = frozenset()) -> Calculus:
        if closure_depth < 0:
            raise ValueError("closure depth must be nonnegative")
        names = [rule.name for rule in rules]
        if len(names) != len(set(names)):
            raise ValueError(f"calculus {calculus_id!r} has duplicate rule names")
        ids = [schema.schema_id for schema in schemas]
        if len(ids) != len(set(ids)):
            raise ValueError(f"calculus {calculus_id!r} has duplicate schema ids")
        return tuple.__new__(cls, (calculus_id, axioms, schemas, rules, closure_depth,
                                   signature_atoms))


# --- proof objects ---------------------------------------------------------


class ProofStep(NamedTuple):
    """One proof line: the formula, how it is justified ("axiom", "schema"
    or "rule"), the schema id or rule name, the substitution used, and for
    a rule the indices of the earlier steps it cites."""

    formula: Formula
    kind: str
    ref: str = ""
    substitution: Substitution = ()
    premises: tuple[int, ...] = ()


class Proof(NamedTuple):
    steps: tuple[ProofStep, ...]

    @property
    def conclusion(self) -> Formula:
        return self.steps[-1].formula

    def rule_applications(self) -> int:
        return sum(1 for step in self.steps if step.kind == "rule")


# --- bounded closure -------------------------------------------------------


Label = tuple[int, int]  # (support mask, cost)
_label_cost = itemgetter(1)


class _Derivation(NamedTuple):
    kind: str  # axiom | schema | rule
    ref: str = ""  # schema id or rule name
    substitution: Substitution = ()
    premises: tuple[Formula, ...] = ()


class ClosureEntry(NamedTuple):
    formula: Formula
    cost: int


class ClosureResult(Frozen):
    """The formulas a bounded closure derived, each with its least cost,
    and the derivations that build their proofs."""

    # _derivations holds the derivation behind each entry's cost, keyed by
    # formula, and is left out of equality
    __slots__ = ("depth", "domain_size", "entries", "_derivations")

    def __init__(self, depth: int, domain_size: int, entries: tuple[ClosureEntry, ...],
                 _derivations: Mapping[Formula, _Derivation]) -> None:
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "domain_size", domain_size)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_derivations", _derivations)

    def formulas(self) -> frozenset[Formula]:
        return frozenset(self._derivations)

    def __contains__(self, formula: Formula) -> bool:
        return formula in self._derivations

    def proof_for(self, formula: Formula) -> Proof | None:
        """Built from the derivation table on each call; None outside the closure."""
        return _build_proof(formula, self._derivations) if formula in self else None


def instantiation_domain(calculus: Calculus, goals: Iterable[Formula] = ()) -> frozenset[Formula]:
    seeds: set[Formula] = set(calculus.axioms)
    seeds.update(goals)
    seeds.update(Atom(name) for name in calculus.signature_atoms)
    return subformula_closure(seeds)


def closure(
    calculus: Calculus,
    depth: int | None = None,
    *,
    goals: Iterable[Formula] = (),
    size_cap: int = DEFAULT_SIZE_CAP,
) -> ClosureResult:
    """All formulas derivable with at most ``depth`` rule applications.

    Deterministic: the result is sorted by formula text and ties in
    derivation choice are broken by the same ordering.
    """
    if depth is None:
        depth = calculus.closure_depth
    labels, derivations, domain_size = _fixpoint(calculus, (), depth, goals, size_cap)
    entries = tuple(ClosureEntry(formula, labels[formula][0][1])
                    for formula in sorted(labels, key=formula_key))
    return ClosureResult(depth, domain_size, entries, derivations)


def proves(
    calculus: Calculus,
    goal: Formula,
    depth: int | None = None,
    *,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> Proof | None:
    """A proof of the goal within the depth bound, or None.

    None means unknown at this bound, never refutation: bounded search
    cannot refute.
    """
    result = closure(calculus, depth, goals=(goal,), size_cap=size_cap)
    return result.proof_for(goal)


@lru_cache(maxsize=512)
def theorem_formulas(calculus: Calculus, depth: int, size_cap: int = DEFAULT_SIZE_CAP) -> frozenset[Formula]:
    """Formula set of ``closure`` without proof objects, memoized."""
    return closure(calculus, depth, size_cap=size_cap).formulas()


def labelled_closure(
    calculus: Calculus,
    axioms: Sequence[Formula],
    depth: int | None = None,
    *,
    goals: Iterable[Formula] = (),
    size_cap: int = DEFAULT_SIZE_CAP,
) -> dict[Formula, list[Label]]:
    """Every formula the calculus derives from some subset of ``axioms``,
    with the antichain of ``(support mask, cost)`` labels that says which.

    Bit i of a mask stands for ``axioms[i]``. ``closure`` of the calculus
    extended with a subset S, with the same goals, derives a formula at
    cost at most c exactly when one of its labels has a mask inside S and
    a cost at most c. Raises ``DepthExplosionError`` when the formula
    count, an instantiation guard or the total label count over the whole
    of ``axioms`` passes ``size_cap``.
    """
    if depth is None:
        depth = calculus.closure_depth
    return _fixpoint(calculus, axioms, depth, goals, size_cap)[0]


def _fixpoint(
    calculus: Calculus, axioms: Sequence[Formula], depth: int,
    goals: Iterable[Formula], size_cap: int,
) -> tuple[dict[Formula, list[Label]], dict[Formula, _Derivation], int]:
    """The labels of every formula, the derivation behind each formula's
    cheapest empty-mask label, and the size of the instantiation domain."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")

    base_domain = instantiation_domain(calculus, goals)
    # the supports of the values outside the base domain
    supports: dict[Formula, list[Label]] = {}
    for bit, axiom in enumerate(axioms):
        for formula in subformula_closure((axiom,)):
            if formula not in base_domain:
                supports.setdefault(formula, []).append((1 << bit, 0))
    domain_sorted = tuple(sorted([*base_domain, *supports], key=formula_key))
    labels: dict[Formula, list[Label]] = {}
    derivations: dict[Formula, _Derivation] = {}
    index: dict[object, list[Formula]] = {}  # the premise index of every known formula
    changes: list[Formula] = []  # each formula again whenever its antichain grows
    total = 0

    def add(formula: Formula, mask: int, cost: int, derivation: _Derivation) -> bool:
        nonlocal total
        antichain = labels.get(formula, ())
        grown = _add_label(antichain, mask, cost)
        if grown is None:
            return False
        if not antichain:
            _index_formula(index, formula)
        labels[formula] = grown
        changes.append(formula)
        total += len(grown) - len(antichain)
        if not mask:
            derivations[formula] = derivation
        if total > size_cap:  # every formula has a label, so this covers both caps
            if len(labels) > size_cap:
                raise DepthExplosionError(calculus.calculus_id, size_cap)
            raise DepthExplosionError(calculus.calculus_id, size_cap, f"{total} support labels")
        return True

    def instantiate(pattern: Formula, start: list[Label], limit: int, step: int,
                    kind: str, ref: str, premises: tuple[Formula, ...] = ()) -> bool:
        """Add every instance of ``pattern`` over the domain, labelled ``start``
        joined with the supports its values need, with ``step`` added to the cost."""
        names = sorted(atoms(pattern))
        _guard_instantiation(calculus, len(domain_sorted), len(names), size_cap)
        changed = False
        for values in itertools.product(domain_sorted, repeat=len(names)):
            mapping = dict(zip(names, values))
            instance = substitute(pattern, mapping)
            derivation = _Derivation(kind, ref, _freeze_substitution(mapping), premises)
            joined = start
            if supports:
                for value in values:
                    if value in supports:
                        joined = _join(joined, supports[value], limit)
            for mask, cost in joined:
                if add(instance, mask, cost + step, derivation):
                    changed = True
        return changed

    axiom = _Derivation("axiom")
    for formula in sorted(calculus.axioms, key=formula_key):
        add(formula, 0, 0, axiom)
    for bit, formula in enumerate(axioms):
        add(formula, 1 << bit, 0, axiom)
    for schema in calculus.schemas:
        instantiate(schema.pattern, [(0, 0)], depth, 0, "schema", schema.schema_id)

    # where ``changes`` stood when each rule last started: what was logged
    # since then is fresh for the rule's next application
    marks = [0] * len(calculus.rules)
    # every rule application costs one, so at depth 0 no round can admit anything
    changed = depth > 0
    while changed:
        changed = False
        for position, rule in enumerate(calculus.rules):
            fresh = set(changes[marks[position]:])
            marks[position] = len(changes)
            if not fresh:
                continue
            if isinstance(rule, SchemaRule):
                if _label_schema_rule(rule, labels, fresh, index, depth, add, size_cap):
                    changed = True
                continue
            # the substitution rule: from a theorem, any instance of it, with
            # the labels the fresh formulas had when the application started
            fresh_known = [(formula, labels[formula]) for formula in sorted(fresh, key=formula_key)]
            for formula, antichain in fresh_known:
                usable = [label for label in antichain if label[1] < depth]
                if usable and atoms(formula) and instantiate(
                        formula, usable, depth - 1, 1, "rule", rule.name, (formula,)):
                    changed = True
    return labels, derivations, len(domain_sorted)


def _guard_instantiation(calculus: Calculus, domain_size: int, var_count: int, size_cap: int) -> None:
    if var_count and domain_size**var_count > size_cap:
        raise DepthExplosionError(
            calculus.calculus_id,
            size_cap,
            f"{domain_size}^{var_count} instantiation candidates",
        )


def _add_label(antichain: Sequence[Label], mask: int, cost: int) -> list[Label] | None:
    """A new antichain with the label added and the labels it dominates
    dropped, or None when a label in the antichain dominates it.

    A label dominates another when its mask is a subset and its cost no
    higher. Antichains are kept cheapest first, and never changed in
    place, so a snapshot of them holds.
    """
    if not antichain:
        return [(mask, cost)]
    grown = []
    for kept in antichain:
        kept_mask, kept_cost = kept
        if kept_mask & mask == kept_mask and kept_cost <= cost:
            return None
        if not (mask & kept_mask == mask and cost <= kept_cost):
            grown.append(kept)
    grown.append((mask, cost))
    grown.sort(key=_label_cost)
    return grown


def _join(left: Sequence[Label], right: Sequence[Label], limit: int) -> list[Label]:
    """The antichain of unions and cost sums of a label from each side, up to ``limit``."""
    if len(left) == 1 == len(right):
        (left_mask, left_cost), (right_mask, right_cost) = left[0], right[0]
        cost = left_cost + right_cost
        return [(left_mask | right_mask, cost)] if cost <= limit else []
    out: list[Label] = []
    for left_mask, left_cost in left:
        for right_mask, right_cost in right:
            if left_cost + right_cost <= limit:
                out = _add_label(out, left_mask | right_mask, left_cost + right_cost) or out
    return out


def _index_formula(index: dict[object, list[Formula]], formula: Formula) -> None:
    """Enter ``formula`` in the bucket of its connective class and in the
    bucket of ``(class, slot, child)`` for each immediate child."""
    kind = type(formula)
    index.setdefault(kind, []).append(formula)
    for slot, child in enumerate(_children(formula)):
        index.setdefault((kind, slot, child), []).append(formula)


def _premise_index(known: Iterable[Formula]) -> dict[object, list[Formula]]:
    """The buckets of ``known``, each a subsequence in ``known``'s own order."""
    index: dict[object, list[Formula]] = {}
    for formula in known:
        _index_formula(index, formula)
    return index


def _children(formula: Formula) -> tuple[Formula, ...]:
    if isinstance(formula, Not):
        return (formula.operand,)
    if isinstance(formula, Binary):
        return (formula.left, formula.right)
    return ()


def _candidates(pattern: Formula, bindings: Mapping[str, Formula],
                known: Mapping[Formula, list[Label]], index) -> Iterable[Formula]:
    """Every formula of ``known`` that can match ``pattern``, in the order
    of ``known`` when ``index`` is its premise index."""
    if isinstance(pattern, Atom):
        bound = bindings.get(pattern.name)
        if bound is None:
            return known
        return (bound,) if bound in known else ()
    kind = type(pattern)
    for slot, child in enumerate(_children(pattern)):
        if isinstance(child, Atom) and child.name in bindings:
            return index.get((kind, slot, bindings[child.name]), ())
    return index.get(kind, ())


def _label_schema_rule(rule, labels, fresh, index, depth, add, size_cap) -> bool:
    """Apply a schema rule to every premise tuple that holds a fresh premise.

    The tuples are gathered in one pass per position of the first fresh
    premise, each joined from that premise, and admitted in lexicographic
    snapshot order with the antichains the application started with.
    Past ``size_cap`` gathered tuples the application drops them and
    walks every tuple of a sorted snapshot in order instead, admitting as
    it goes.
    """
    premises = rule.premises
    last = len(premises) - 1
    # the tuple being built and its antichains, by premise position
    used: list = [None] * len(premises)
    chains: list = [None] * len(premises)
    pending: list = []
    changed = False

    def admit(bindings, premise_tuple, antichains) -> bool:
        nonlocal changed
        conclusion = substitute(rule.conclusion, bindings)
        derivation = _Derivation("rule", rule.name, _freeze_substitution(bindings), premise_tuple)
        joined = antichains[0]
        for antichain in antichains[1:]:
            joined = _join(joined, antichain, depth - 1)
        for mask, cost in joined:
            if cost < depth and add(conclusion, mask, cost + 1, derivation):
                changed = True
        return True

    def hold(bindings, premise_tuple, antichains) -> bool:
        pending.append((tuple(map(formula_key, premise_tuple)), bindings, premise_tuple, antichains))
        return len(pending) <= size_cap

    # One pass takes the premises in ``order``, the first of them from
    # ``pool`` and the rest from ``known`` through ``buckets``; a premise
    # before position ``first`` takes no fresh formula. ``floor`` sums the
    # least costs of the premises used, which is the least cost in the join
    # of their labels, so a tuple is pruned exactly when that join would be
    # empty. ``emit`` takes each tuple, and returning False ends the pass.
    def extend(step: int, bindings: dict[str, Formula], floor: int) -> bool:
        position = order[step]
        pattern = premises[position]
        for formula in pool if step == 0 else _candidates(pattern, bindings, known, buckets):
            if position < first and formula in fresh:
                continue
            antichain = known[formula]
            least = floor + antichain[0][1]
            if least >= depth:
                continue
            extended = match_pattern(pattern, formula, bindings)
            if extended is None:
                continue
            used[position], chains[position] = formula, antichain
            if not (extend(step + 1, extended, least) if step < last
                    else emit(extended, tuple(used), tuple(chains))):
                return False
        return True

    # nothing is admitted while the tuples are gathered, so ``labels`` is
    # the snapshot and ``index`` its premise index
    known, buckets, emit = labels, index, hold
    everything = len(fresh) == len(labels)
    for first in range(1 if everything else len(premises)):
        order = (first, *range(first), *range(first + 1, len(premises)))
        pattern = premises[first]
        if everything:
            pool = _candidates(pattern, {}, known, buckets)
        elif isinstance(pattern, Atom):
            pool = fresh
        else:  # what the connective's bucket holds of the fresh formulas
            pool = [formula for formula in fresh if type(formula) is type(pattern)]
        if not extend(0, {}, 0):
            break
    else:
        pending.sort(key=itemgetter(0))
        for _, bindings, premise_tuple, antichains in pending:
            admit(bindings, premise_tuple, antichains)
        return changed
    # more than ``size_cap`` tuples: the ordered walk over a sorted snapshot
    pending.clear()
    known = {formula: labels[formula] for formula in sorted(labels, key=formula_key)}
    buckets, emit, first = _premise_index(known), admit, 0
    order = tuple(range(len(premises)))
    pool = _candidates(premises[0], {}, known, buckets)
    extend(0, {}, 0)
    return changed


def _build_proof(target: Formula, best: dict[Formula, _Derivation]) -> Proof:
    order: list[Formula] = []
    index: dict[Formula, int] = {}

    def visit(formula: Formula) -> None:
        if formula in index:
            return
        for premise in best[formula].premises:
            visit(premise)
        index[formula] = len(order)
        order.append(formula)

    visit(target)
    steps = []
    for formula in order:
        kind, ref, substitution, premises = best[formula]
        steps.append(ProofStep(formula, kind, ref, substitution,
                               tuple(index[premise] for premise in premises)))
    return Proof(tuple(steps))


# --- presets ---------------------------------------------------------------


def modus_ponens() -> SchemaRule:
    a, b = Atom("a"), Atom("b")
    return SchemaRule("mp", (a, Implies(a, b)), b)


def hilbert_schemas() -> tuple[AxiomSchema, ...]:
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    return (
        AxiomSchema("P1", Implies(a, Implies(b, a))),
        AxiomSchema("P2", Implies(Implies(a, Implies(b, c)),
                                  Implies(Implies(a, b), Implies(a, c)))),
        AxiomSchema("P3", Implies(Implies(Not(a), Not(b)), Implies(b, a))),
    )


PRESET_NAMES = ("hilbert", "mp", "empty")


def base_calculus(name: str, *, closure_depth: int = DEFAULT_DEPTH) -> Calculus:
    """Named proof-system presets.

    hilbert: the three standard implication and negation schemas with
    modus ponens. mp: modus ponens alone. empty: no rules at all.
    """
    if name == "hilbert":
        return Calculus("hilbert", schemas=hilbert_schemas(),
                        rules=(modus_ponens(),), closure_depth=closure_depth)
    if name == "mp":
        return Calculus("mp", rules=(modus_ponens(),), closure_depth=closure_depth)
    if name == "empty":
        return Calculus("empty", closure_depth=closure_depth)
    raise ValueError(f"unknown calculus preset {name!r}; choose from {PRESET_NAMES}")


def with_axioms(base: Calculus, axioms: Iterable[Formula]) -> Calculus:
    """The base calculus extended with extra instance axioms."""
    return base._replace(axioms=frozenset(base.axioms) | frozenset(axioms))
