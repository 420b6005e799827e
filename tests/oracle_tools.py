"""Independent reference implementations the tests check the library against.

Everything here recomputes answers from definitions, avoiding the
library's search and interpretation algorithms, or keeps the plain
version of an algorithm the library has since sped up. Primitive helpers
(parsing, matching, substitution) are shared with the library; those
are unit-tested on their own.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from typing import Iterable, Iterator, Sequence

from vty.calculus import (
    DEFAULT_SIZE_CAP,
    Calculus,
    Proof,
    ProofStep,
    SchemaRule,
    SubstitutionRule,
    instantiation_domain,
    proves,
    theorem_formulas,
    with_axioms,
)
from vty.cli import _proof_dict
from vty.errors import CapExceededError
from vty.formulas import (
    ATOM_NAME,
    And,
    Atom,
    Bottom,
    Formula,
    Implies,
    Not,
    Or,
    atoms,
    evaluate,
    format_formula,
    formula_key,
    match_pattern,
    parse_formula_tokens,
    substitute,
)
from vty.lex import NON_WORD, LexError, TokenFault, token_value
from vty.machines import (
    HALTED,
    OUT_OF_FUEL,
    BruteResult,
    Halt,
    Inc,
    OutputHit,
    Trace,
    WorldBounds,
    decode_instruction,
    decode_machine,
    enumerate_machines,
    run_machine,
    unpair,
)
from vty.manifest import _read_bounds
from vty.projection import (
    CITATION,
    EXEC_EXHAUSTIVE,
    EXEC_POSITIVE,
    SATISFIED,
    UNKNOWN,
    VIOLATED,
    Evidence,
)
from vty.semantics import DEFAULT_ATOM_CAP, check_consistency, collect_atoms
from vty.varieties import (
    DEFAULT_COMPONENT_SUBSET_CAP,
    Component,
    ComponentConsistency,
    FormulaMap,
    KnowledgeConsistencyReport,
    Prevariety,
    assemble_prevariety,
)

import proof_checker


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of nonnegative integers of the given length summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def oracle_theorem_set(calculus: Calculus, depth: int) -> frozenset[Formula]:
    """Budget-split enumeration of all tree-shaped derivations.

    cost(axiom) = cost(schema instance) = 0; a rule application costs one
    plus the sum of its premise costs. Level b collects everything of
    cost at most b, so a rule firing at budget b draws premises from
    levels that split b - 1.
    """
    domain = sorted(instantiation_domain(calculus), key=format_formula)
    base: set[Formula] = set(calculus.axioms)
    for schema in calculus.schemas:
        names = sorted(atoms(schema.pattern))
        for combo in itertools.product(domain, repeat=len(names)):
            base.add(substitute(schema.pattern, dict(zip(names, combo))))
    levels: list[frozenset[Formula]] = [frozenset(base)]
    for budget in range(1, depth + 1):
        grown = set(levels[-1])
        for rule in calculus.rules:
            if isinstance(rule, SubstitutionRule):
                for phi in levels[budget - 1]:
                    names = sorted(atoms(phi))
                    if not names:
                        continue
                    for combo in itertools.product(domain, repeat=len(names)):
                        grown.add(substitute(phi, dict(zip(names, combo))))
                continue
            assert isinstance(rule, SchemaRule)
            for split in compositions(budget - 1, len(rule.premises)):
                pools = [levels[b] for b in split]
                for chosen in itertools.product(*pools):
                    bindings: dict[str, Formula] | None = {}
                    for pattern, formula in zip(rule.premises, chosen):
                        bindings = match_pattern(pattern, formula, bindings)
                        if bindings is None:
                            break
                    if bindings is not None:
                        grown.add(substitute(rule.conclusion, bindings))
        levels.append(frozenset(grown))
    return levels[depth]


def oracle_scan_closure(
    calculus: Calculus, depth: int, goals: Iterable[Formula] = ()
) -> list[tuple[Formula, int, Proof]]:
    """The closure engine as a full scan: every round tries every premise
    of every rule against every known formula, with no premise index and
    no skipping of tuples whose premises did not change.

    Follows the library's canonical derivation order, so the chosen
    derivations, and with them the proofs, must agree entry by entry:
    axioms, then schema instances over the formula_key-sorted domain; then
    rounds over the rules in order until a round admits nothing, each rule
    working through a formula_key-sorted snapshot of what is known; a
    derivation replaces another only at strictly lower cost. Returns
    (formula, cost, proof) in formula_key order.
    """
    domain = sorted(instantiation_domain(calculus, goals), key=formula_key)
    # formula -> (cost, kind, schema id or rule name, substitution, premises)
    best: dict[Formula, tuple] = {}

    def admit(formula, cost, kind="axiom", ref="", mapping=None, premises=()):
        if formula in best and best[formula][0] <= cost:
            return False
        best[formula] = (cost, kind, ref, tuple(sorted((mapping or {}).items())), premises)
        return True

    for formula in sorted(calculus.axioms, key=formula_key):
        admit(formula, 0)
    for schema in calculus.schemas:
        names = sorted(atoms(schema.pattern))
        for values in itertools.product(domain, repeat=len(names)):
            mapping = dict(zip(names, values))
            admit(substitute(schema.pattern, mapping), 0, "schema", schema.schema_id, mapping)

    def scan(rule, known, premise_index, bindings, used, cost_sum) -> bool:
        if premise_index == len(rule.premises):
            return admit(substitute(rule.conclusion, bindings), cost_sum + 1,
                         "rule", rule.name, bindings, used)
        changed = False
        for formula, cost in known:
            if cost_sum + cost + 1 > depth:
                continue
            extended = match_pattern(rule.premises[premise_index], formula, bindings)
            if extended is not None:
                changed = scan(rule, known, premise_index + 1, extended,
                               used + (formula,), cost_sum + cost) or changed
        return changed

    changed = True
    while changed:
        changed = False
        for rule in calculus.rules:
            known = [(formula, best[formula][0]) for formula in sorted(best, key=formula_key)]
            if isinstance(rule, SchemaRule):
                if depth >= 1:
                    changed = scan(rule, known, 0, {}, (), 0) or changed
                continue
            for formula, cost in known:
                names = sorted(atoms(formula))
                if cost + 1 > depth or not names:
                    continue
                for values in itertools.product(domain, repeat=len(names)):
                    mapping = dict(zip(names, values))
                    changed = admit(substitute(formula, mapping), cost + 1,
                                    "rule", rule.name, mapping, (formula,)) or changed

    def proof(target: Formula) -> Proof:
        order: list[Formula] = []
        position: dict[Formula, int] = {}

        def visit(formula: Formula) -> None:
            if formula not in position:
                for premise in best[formula][4]:
                    visit(premise)
                position[formula] = len(order)
                order.append(formula)

        visit(target)
        steps = []
        for formula in order:
            _, kind, ref, substitution, premises = best[formula]
            steps.append(ProofStep(formula, kind, ref, substitution,
                                   tuple(position[p] for p in premises)))
        return Proof(tuple(steps))

    return [(formula, best[formula][0], proof(formula))
            for formula in sorted(best, key=formula_key)]


def oracle_minimal_sufficient_subsets(
    axiom_list: Sequence[Formula], goal: Formula, base_calc: Calculus,
    depth: int, size_cap: int, max_width: int,
) -> Iterator[tuple[Formula, ...]]:
    """The subset search before support labels: one ``proves`` per candidate.

    Minimal subsets of the sorted axiom list that prove the goal, smallest
    first, in ``itertools.combinations`` order up to ``max_width``;
    supersets of a yielded subset are skipped.
    """
    minimal: list[frozenset[Formula]] = []
    for width in range(max_width + 1):
        for combo in itertools.combinations(axiom_list, width):
            candidate = frozenset(combo)
            if any(found <= candidate for found in minimal):
                continue
            if proves(with_axioms(base_calc, combo), goal, depth, size_cap=size_cap):
                minimal.append(candidate)
                yield combo


def printed_proof_check(calculus: Calculus, proof: Proof) -> proof_checker.Check:
    """`proof_checker.check` on the proof as the CLI prints it, against the
    calculus written out as the checker's plain text."""
    rules = {rule.name: proof_checker.SUBSTITUTION if isinstance(rule, SubstitutionRule)
             else ([formula_key(p) for p in rule.premises], formula_key(rule.conclusion))
             for rule in calculus.rules}
    text = {"axioms": [formula_key(axiom) for axiom in calculus.axioms],
            "schemas": {s.schema_id: formula_key(s.pattern) for s in calculus.schemas},
            "rules": rules}
    return proof_checker.check(text, _proof_dict(proof))


# --- random worlds for differential testing ----------------------------------


def shrinking_rule_pool() -> dict[str, SchemaRule]:
    """Rules whose conclusions are parts of their premises.

    Closures under these stay inside the subformula universe of the
    start set, which keeps randomized oracle comparisons small no matter
    the depth.
    """
    a, b = Atom("a"), Atom("b")
    return {
        "mp": SchemaRule("mp", (a, Implies(a, b)), b),
        "and_left": SchemaRule("and_left", (And(a, b),), a),
        "and_right": SchemaRule("and_right", (And(a, b),), b),
        "notnot": SchemaRule("notnot", (Not(Not(a)),), a),
        "or_merge": SchemaRule("or_merge", (Or(a, a),), a),
    }


def random_formula(rng: random.Random, names: list[str], depth: int) -> Formula:
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.08:
            return Bottom()
        return Atom(rng.choice(names))
    kind = rng.choice(("not", "and", "or", "imp"))
    if kind == "not":
        return Not(random_formula(rng, names, depth - 1))
    left = random_formula(rng, names, depth - 1)
    right = random_formula(rng, names, depth - 1)
    return {"and": And, "or": Or, "imp": Implies}[kind](left, right)


def random_calculus(rng: random.Random, calculus_id: str) -> Calculus:
    """Up to 5 axioms over up to 6 atoms with 1 or 2 shrinking rules."""
    pool = shrinking_rule_pool()
    names = rng.sample(["p", "q", "r", "s", "u", "v"], rng.randint(1, 6))
    axioms = frozenset(
        random_formula(rng, names, rng.randint(1, 3))
        for _ in range(rng.randint(1, 5))
    )
    chosen = rng.sample(sorted(pool), rng.randint(1, 2))
    return Calculus(calculus_id, axioms=axioms,
                    rules=tuple(pool[name] for name in chosen))


def random_component(rng: random.Random, cid: str) -> Component:
    """A random calculus behind a random injective map.

    Designated theorems are drawn from the bounded closure, so the
    component always survives a non-quasi structure check.
    """
    calc = random_calculus(rng, f"calc_{cid}")
    provable = sorted(theorem_formulas(calc, calc.closure_depth, 100_000), key=formula_key)
    designated = frozenset(rng.sample(provable, rng.randint(0, min(4, len(provable)))))
    if rng.random() < 0.5:
        fmap = FormulaMap.identity()
    else:
        names = ["p", "q", "r", "s", "u", "v"]
        shuffled = names[:]
        rng.shuffle(shuffled)
        fmap = FormulaMap(f"ren_{cid}", renaming=tuple(zip(names, shuffled)))
    return Component(cid, calc, fmap, fmap, designated)


def random_prevariety(rng: random.Random, count: int | None = None) -> Prevariety:
    if count is None:
        count = rng.randint(1, 3)
    components = [random_component(rng, f"C{i + 1}") for i in range(count)]
    return assemble_prevariety(components)


def deletion_mutations(pv: Prevariety) -> list[tuple[str, str, Prevariety]]:
    """Every single-element deletion from the union triad.

    Yields (expected diagnostic code, expected subject, mutated structure)
    so a checker can be held to naming the exact missing element.
    """
    mutations: list[tuple[str, str, Prevariety]] = []
    for formula in sorted(pv.axioms, key=formula_key):
        mutations.append((
            "AXIOM_UNION_MISMATCH", formula_key(formula),
            pv._replace(axioms=pv.axioms - {formula}),
        ))
    for rule in sorted(pv.rules, key=lambda r: r.name):
        mutations.append((
            "RULE_UNION_MISMATCH", rule.name,
            pv._replace(rules=pv.rules - {rule}),
        ))
    for formula in sorted(pv.theorems, key=formula_key):
        mutations.append((
            "THEOREM_UNION_MISMATCH", formula_key(formula),
            pv._replace(theorems=pv.theorems - {formula}),
        ))
    return mutations


def oracle_consistency_report(
    pv: Prevariety,
    *,
    atom_cap: int = DEFAULT_ATOM_CAP,
    size_cap: int = DEFAULT_SIZE_CAP,
    subset_cap: int = DEFAULT_COMPONENT_SUBSET_CAP,
) -> KnowledgeConsistencyReport:
    """The consistency report before component masks: one truth table per
    examined component subset.

    Each component contributes its mapped axioms and designated theorems.
    Subsets of two or more components are examined in increasing width, in
    ``itertools.combinations`` order; a superset of a known inconsistent set
    is skipped, and the search stops after ``subset_cap`` candidates.
    """
    contributions: list[frozenset[Formula]] = []
    rows: list[ComponentConsistency] = []
    for component in pv.components:
        axiom_images, _ = component.axiom_map.over(
            theorem_formulas(component.calculus, 0, size_cap))
        designated_images, _ = component.theorem_map.over(component.designated_theorems)
        pooled = frozenset(axiom_images.values()).union(designated_images.values())
        contributions.append(pooled)
        verdict = check_consistency(pooled, atom_cap)
        rows.append(ComponentConsistency(
            component.component_id, verdict.verdict, len(pooled), verdict.atom_count))

    global_verdict = check_consistency(pv.axioms | pv.theorems, atom_cap)
    flag = all(row.verdict == "CONSISTENT" for row in rows) and not global_verdict.consistent

    # subsets are sets of component positions, named by id in the report
    minimal = [(i,) for i, row in enumerate(rows) if row.verdict == "INCONSISTENT"]
    notes: list[str] = []
    examined = 0
    for combo in itertools.chain.from_iterable(
            itertools.combinations(range(len(rows)), width) for width in range(2, len(rows) + 1)):
        examined += 1
        if examined > subset_cap:
            notes.append(f"subset search truncated after {subset_cap} candidates")
            break
        if any(set(found) <= set(combo) for found in minimal):
            continue
        pooled = frozenset().union(*(contributions[i] for i in combo))
        if not check_consistency(pooled, atom_cap).consistent:
            minimal.append(combo)
    notes.append("per-component sets are the pooled axiom and theorem images")
    return KnowledgeConsistencyReport(
        tuple(rows), global_verdict.verdict, global_verdict.witness_kind, flag,
        tuple(tuple(rows[i].component_id for i in found) for found in minimal), tuple(notes),
    )


# --- reference register machine interpreter ----------------------------------


def mini_run(text: str, input_value: int, fuel: int) -> tuple[str, int | None, int]:
    """Interpret machine text directly, without the library's datatypes.

    Returns (outcome, output, steps) with the same conventions: register
    0 carries the input and the output, reaching one past the last
    instruction halts, halting costs no fuel.
    """
    program: list[tuple] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "INC":
            program.append(("INC", int(parts[1]), int(parts[2])))
        elif parts[0] == "DECJZ":
            program.append(("DECJZ", int(parts[1]), int(parts[2]), int(parts[3])))
        elif parts[0] == "HALT":
            program.append(("HALT",))
        else:
            raise ValueError(f"bad line {raw!r}")
    registers: dict[int, int] = {0: input_value}
    pc = 0
    steps = 0
    while True:
        if pc >= len(program) or program[pc][0] == "HALT":
            return ("HALT", registers.get(0, 0), steps)
        if steps >= fuel:
            return ("OUT_OF_FUEL", None, steps)
        op = program[pc]
        steps += 1
        if op[0] == "INC":
            registers[op[1]] = registers.get(op[1], 0) + 1
            pc = op[2]
        else:
            value = registers.get(op[1], 0)
            if value == 0:
                pc = op[2]
            else:
                registers[op[1]] = value - 1
                pc = op[3]


def oracle_fixed_output_brute(bounds: WorldBounds, target: int) -> BruteResult:
    """Run every machine of the world on every input, in enumeration order.

    The plain search ``fixed_output_brute`` replaced, without its caps:
    ``runs`` counts the runs made, and the hits come in the order of
    ``enumerate_machines``, then by input.
    """
    runs = 0
    hits: list[OutputHit] = []
    for machine in enumerate_machines(bounds.max_instructions, bounds.max_registers):
        for input_value in sorted(bounds.inputs):
            runs += 1
            trace = run_machine(machine, input_value, bounds.fuel)
            if trace.outcome == HALTED and trace.output == target:
                hits.append(OutputHit(machine, input_value, trace.steps))
    return BruteResult(bounds, target, runs, tuple(hits))


def oracle_walk_universal_run(
    program_code: int, input_value: int, fuel: int
) -> tuple[Trace, int]:
    """The list-walking universal interpreter: every step fetches from the code.

    Fetching instruction pc walks the encoded list from its head (pc + 1
    cell unpairings) and decodes the head (two more), counting each
    unpairing in ``micro``; loading charges 3 per instruction.
    """
    if input_value < 0:
        raise ValueError("input must be a nonnegative integer")
    if fuel < 0:
        raise ValueError("fuel must be nonnegative")
    # Loading: validate the code and size the register file; each loaded
    # instruction costs one list-cell unpairing and two decode unpairings.
    loaded = decode_machine(program_code)
    length = len(loaded.program)
    micro = 3 * length

    registers = [0] * loaded.registers
    registers[0] = input_value
    pc = 0
    steps = 0
    while True:
        if pc == length:
            return Trace(HALTED, registers[0], steps), micro
        # Fetch instruction pc by walking the encoded list.
        rest = program_code
        for _ in range(pc):
            _, rest = unpair(rest - 1)
            micro += 1
        head, _ = unpair(rest - 1)
        micro += 1
        instr = decode_instruction(head)
        micro += 2
        if isinstance(instr, Halt):
            return Trace(HALTED, registers[0], steps), micro
        if steps == fuel:
            return Trace(OUT_OF_FUEL, None, steps), micro
        steps += 1
        if isinstance(instr, Inc):
            registers[instr.register] += 1
            pc = instr.target
        else:
            if registers[instr.register] == 0:
                pc = instr.target_if_zero
            else:
                registers[instr.register] -= 1
                pc = instr.target_if_positive


# --- projection partition by direct table scan --------------------------------


def random_profiles(rng: random.Random, axiom_ids, count: int):
    """Registries with a random mix of resolved, violated and open axioms."""
    from vty.projection import CITATION, AxiomStatus, ClassProfile, Evidence

    def make(status_name):
        if status_name == "UNKNOWN":
            return AxiomStatus("UNKNOWN")
        return AxiomStatus(status_name, Evidence(CITATION, citation="generated"))

    profiles = []
    for i in range(count):
        statuses = {}
        for axiom_id in axiom_ids:
            if rng.random() < 0.3:
                continue  # leave the axiom unmentioned
            statuses[axiom_id] = make(rng.choice(("SATISFIED", "VIOLATED", "UNKNOWN")))
        profiles.append(ClassProfile(f"cls{i}", f"Class {i}", statuses))
    return profiles


def oracle_partition(theorem, profiles) -> dict[str, list[str]]:
    """Three-way split of class ids by literal status lookup."""
    out: dict[str, list[str]] = {"corollaries": [], "not_applicable": [], "unknown": []}
    for profile in profiles:
        looked = [
            profile.statuses[d].status if d in profile.statuses else "UNKNOWN"
            for d in theorem.dependencies
        ]
        if theorem.unconditional or all(s == "SATISFIED" for s in looked):
            out["corollaries"].append(profile.class_id)
        elif any(s == "VIOLATED" for s in looked):
            out["not_applicable"].append(profile.class_id)
        else:
            out["unknown"].append(profile.class_id)
    return out


def truth_table_entails(premises: Iterable[Formula], conclusion: Formula) -> bool:
    """Plain truth-table entailment over the union of atom names."""
    names = sorted(set().union(*[atoms(f) for f in premises], atoms(conclusion)))

    def value(formula: Formula, row: dict[str, bool]) -> bool:
        kind = type(formula).__name__
        if kind == "Atom":
            return row[formula.name]
        if kind == "Bottom":
            return False
        if kind == "Not":
            return not value(formula.operand, row)
        if kind == "And":
            return value(formula.left, row) and value(formula.right, row)
        if kind == "Or":
            return value(formula.left, row) or value(formula.right, row)
        return (not value(formula.left, row)) or value(formula.right, row)

    for bits in itertools.product((False, True), repeat=len(names)):
        row = dict(zip(names, bits))
        if all(value(p, row) for p in premises) and not value(conclusion, row):
            return False
    return True


def iter_assignments(names: tuple[str, ...]) -> Iterator[dict[str, bool]]:
    """Every assignment to `names`, in canonical truth-table row order."""
    for values in itertools.product((False, True), repeat=len(names)):
        yield dict(zip(names, values))


def oracle_satisfying_assignment(
    formulas: Iterable[Formula], atom_cap: int = DEFAULT_ATOM_CAP
) -> dict[str, bool] | None:
    """The per-row loop `semantics.satisfying_assignment` replaced with masks."""
    fs = list(formulas)
    names = collect_atoms(fs)
    if len(names) > atom_cap:
        raise CapExceededError("atoms", len(names), atom_cap)
    for assignment in iter_assignments(names):
        if all(evaluate(f, assignment) for f in fs):
            return assignment
    return None


def oracle_scan_string(line: str, start: int) -> tuple[str, int]:
    """The per-character string scan, kept apart from `lex._scan_string` so
    that the lexer's oracle shares no code with the lexer."""
    out: list[str] = []
    i = start + 1
    while i < len(line):
        ch = line[i]
        if ch == '"':
            return "".join(out), i + 1
        if ch == "\\":
            if i + 1 >= len(line) or line[i + 1] not in ('"', "\\"):
                raise LexError("bad escape in string", i)
            out.append(line[i + 1])
            i += 2
            continue
        out.append(ch)
        i += 1
    raise LexError("unterminated string", start)


def oracle_tokenize_line(line: str) -> list[tuple[str, int]]:
    """The per-character line scan `lex.tokenize_line` now does with one regex."""
    tokens: list[tuple[str, int]] = []
    i = 0
    n = len(line)
    while i < n:
        ch = line[i]
        if ch in " \t":
            i += 1
            continue
        if ch == "#":
            break
        if ch in "(){}":
            tokens.append((ch, i))
            i += 1
            continue
        if ch == '"':
            value, end = oracle_scan_string(line, i)
            tokens.append(('"' + value + '"', i))
            i = end
            continue
        j = i
        while j < n and line[j] not in ' \t#(){}"':
            j += 1
        tokens.append((line[i:j], i))
        i = j
    return tokens


# --- the generic manifest entry reader ------------------------------------------
# The generic reader that the manifest's value readers, `_Entry.read` and
# `_read_evidence` are checked against: every word goes through
# `_oracle_take_word`, every row of fields through `oracle_take_fields`,
# every tuple through a list. `ORACLE_HEADERS` and `ORACLE_ENTRIES` give each
# block header and entry row of the reader's table its reader built from
# these; `bounds` shares the library's `_read_bounds`, which has no fast path.


def _oracle_take_word(texts: list[str], i: int, what: str) -> tuple[str, int]:
    if i >= len(texts):
        raise TokenFault(f"expected {what}", i)
    if texts[i][0] in NON_WORD:
        raise TokenFault(f"expected {what}, found {token_value(texts[i])!r}", i)
    return texts[i], i + 1


def _oracle_atom(texts: list[str], i: int) -> tuple[str, int]:
    word, nxt = _oracle_take_word(texts, i, "an atom name")
    if not ATOM_NAME.match(word):
        raise TokenFault(f"bad atom name {word!r}", i)
    return word, nxt


def _oracle_done(texts: list[str], i: int) -> None:
    if i < len(texts):
        raise TokenFault(f"unexpected trailing {token_value(texts[i])!r}", i)


def _oracle_word(what: str):
    return lambda texts, i: _oracle_take_word(texts, i, what)


def _oracle_decimal(digits: str, what: str, index: int) -> int:
    try:
        return int(digits)
    except ValueError:
        raise TokenFault(f"{what} has too many digits ({len(digits)})", index) from None


def _oracle_int(what: str):
    def read(texts, i):
        word, nxt = _oracle_take_word(texts, i, what)
        if not re.fullmatch("[0-9]+", word):
            raise TokenFault(f"expected {what}, found {word!r}", i)
        return _oracle_decimal(word, what, i), nxt

    return read


def _oracle_string(what: str):
    def read(texts, i):
        if i >= len(texts) or texts[i][0] != '"':
            raise TokenFault(f"expected a quoted {what}", i)
        return texts[i][1:-1], i + 1

    return read


def _oracle_seq(*reads):
    def read(texts, i):
        values = []
        for read_one in reads:
            value, i = read_one(texts, i)
            values.append(value)
        return tuple(values), i

    return read


def _oracle_choice(what: str, noun: str, words: dict[str, str]):
    def read(texts, i):
        word, nxt = _oracle_take_word(texts, i, what)
        if word not in words:
            raise TokenFault(f"unknown {noun} {word!r}", i)
        return words[word], nxt

    return read


def oracle_take_fields(fields, texts: list[str], i: int) -> dict:
    values = {}
    for name, read in fields:
        values[name], i = read(texts, i)
    _oracle_done(texts, i)
    return values


_ORACLE_EVIDENCE_KIND = _oracle_choice("an evidence kind", "evidence kind", {
    "citation": CITATION, "exec-positive": EXEC_POSITIVE, "exec-exhaustive": EXEC_EXHAUSTIVE})
_ORACLE_EVIDENCE_FIELDS = {
    CITATION: (("citation", _oracle_string("citation")),),
    EXEC_POSITIVE: (("witness_id", _oracle_word("a witness id")),
                    ("suite_size", _oracle_int("a suite size"))),
    EXEC_EXHAUSTIVE: (("witness_id", _oracle_word("a witness id")),
                      ("domain", _oracle_string("domain description"))),
}


def _oracle_evidence(texts: list[str], i: int):
    if i == len(texts):
        return None, i
    kind, i = _ORACLE_EVIDENCE_KIND(texts, i)
    values = oracle_take_fields(_ORACLE_EVIDENCE_FIELDS[kind], texts, i)
    try:
        return Evidence(kind, **values), len(texts)
    except ValueError as exc:
        raise LexError(str(exc), 0) from None


def _oracle_ref(keyword: str):
    return _oracle_word(f"a {keyword} id")


_FORMULA = parse_formula_tokens
_COMPONENT_ENTRIES = {"calculus": _oracle_ref("calculus"), "axiom-map": _oracle_ref("axiom-map"),
                      "theorem-map": _oracle_ref("theorem-map"), "theorem": _FORMULA}

# the header fields after each block keyword, as `_Block.header` lists them
ORACLE_HEADERS = {
    "rule": (("name", _oracle_word("a rule name")),),
    "calculus": (("calculus_id", _oracle_word("a calculus id")),),
    "map": (("map_id", _oracle_word("a map id")), ("kind", _oracle_word("renaming or table"))),
    "component": (("component_id", _oracle_word("a component id")),),
    "prevariety": (("prevariety_id", _oracle_word("a prevariety id")),),
    "witness": (("witness_id", _oracle_word("a witness id")),),
    "axiom-decl": (("axiom_id", _oracle_word("an axiom id")),
                   ("statement", _oracle_string("statement"))),
    "class": (("class_id", _oracle_word("a class id")),
              ("display_name", _oracle_string("display name"))),
    "theorem-rec": (("theorem_id", _oracle_word("a theorem id")),),
}

# (block keyword, or "" for a directive) -> entry keyword -> its value reader;
# None marks a flag
ORACLE_ENTRIES = {
    "": {"signature": _oracle_atom, "bounds": _read_bounds},
    "rule": {"premise": _FORMULA, "conclude": _FORMULA},
    "calculus": {"depth": _oracle_int("a depth"), "atoms": _oracle_atom, "axiom": _FORMULA,
                 "schema": _oracle_seq(_oracle_word("a schema id"), _FORMULA),
                 "use": _oracle_word("a rule name")},
    "map": {"rename": _oracle_seq(_oracle_atom, _oracle_atom),
            "pair": _oracle_seq(_FORMULA, _FORMULA), "domain": _FORMULA},
    "component": _COMPONENT_ENTRIES,
    "prevariety": {"quasi": None, "component": _oracle_word("a component id"), "auto": None,
                   "axiom": _FORMULA, "rule-ref": _oracle_word("a rule name"),
                   "theorem": _FORMULA},
    "witness": {"prevariety": _oracle_ref("prevariety"), "indices": _oracle_int("an index"),
                **_COMPONENT_ENTRIES},
    "class": {"status": _oracle_seq(
        _oracle_word("an axiom id"),
        _oracle_choice("satisfied, violated or unknown", "status",
                       {"satisfied": SATISFIED, "violated": VIOLATED, "unknown": UNKNOWN}),
        _oracle_evidence)},
    "theorem-rec": {"statement": _oracle_string("statement"), "depends": _oracle_word("an axiom id"),
                    "source": _oracle_string("source"), "unconditional": None},
}


def oracle_read_entry(row, arg, values: dict, texts: list[str]) -> None:
    """The generic `_Entry.read`: one line of `row` (its keyword, field and
    flags) into `values`, with `arg` reading its values."""
    if not row.many and row.field in values:
        raise LexError(f"{row.keyword} given twice", 0)
    if row.spread:
        items, i = [], 1
        while i < len(texts):
            item, i = arg(texts, i)
            items.append(item)
    else:
        item, i = arg(texts, 1) if arg else (True, 1)
        _oracle_done(texts, i)
        items = [item]
    if not (row.many or row.spread):
        values[row.field] = items[0]
    else:
        values.setdefault(row.field, []).extend(items)


def oracle_report_json(value) -> str:
    """The report text the CLI's one-pass emitter must reproduce byte for byte."""
    return json.dumps(value, indent=2, sort_keys=True)
