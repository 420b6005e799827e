"""Seeded request lists for the four workloads.

Every run of a workload executes a fixed number of requests. The
request shapes (sizes, depths, command mix) come from a fixed table and
each run holds them in the same proportions, so the cost of a run does
not depend on the seed; the seed picks atom names, formula placement,
targets and the order of the requests. Each shape table was chosen so
that the requests of one workload cost about the same, which keeps p50
and p90 off a step between cheap and expensive request kinds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from session import ADDER_PATH


@dataclass(frozen=True)
class Step:
    """One CLI call (``argv``) or one ``universal_run`` of the adder (``call``).

    ``work`` names the calibration job its time is scaled by (``speed.py``).
    """

    argv: tuple[str, ...] | None = None
    call: tuple[int, int] | None = None  # (input, fuel)
    expect_code: int = 0
    work: str = "terms"


@dataclass(frozen=True)
class Request:
    kind: str
    steps: tuple[Step, ...]
    spec: dict = field(compare=False)  # what the reference check needs


@dataclass(frozen=True)
class Workload:
    name: str
    nominal_rps: float  # executions per second of run length; fixed, a run never stops on a clock
    packaged: tuple[str, ...]  # packaged inputs parsed during set-up
    make: object  # (rng, names, workdir, index, shape) -> Request
    shapes: tuple


# --- names and manifest text -------------------------------------------------

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class NamePool:
    """Seeded atom names of the form letter digit letter, never one twice."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.used: set[str] = set()

    def take(self, count: int) -> list[str]:
        out: list[str] = []
        while len(out) < count:
            name = (self.rng.choice(_LETTERS) + str(self.rng.randrange(10))
                    + self.rng.choice(_LETTERS))
            if name not in self.used:
                self.used.add(name)
                out.append(name)
        return out


def imp(a: str, b: str) -> str:
    return f"(-> {a} {b})"


MP_RULE = ("rule mp {", "  premise a", "  premise (-> a b)", "  conclude b", "}")
HILBERT_SCHEMAS = (
    ("P1", "(-> a (-> b a))"),
    ("P2", "(-> (-> a (-> b c)) (-> (-> a b) (-> a c)))"),
    ("P3", "(-> (-> (not a) (not b)) (-> b a))"),
)


def calculus_lines(calculus_id: str, depth: int, axioms, schemas=()) -> list[str]:
    lines = [f"calculus {calculus_id} {{", f"  depth {depth}"]
    lines += [f"  axiom {axiom}" for axiom in axioms]
    lines += [f"  schema {sid} {pattern}" for sid, pattern in schemas]
    lines += ["  use mp", "}"]
    return lines


def manifest_text(depth: int, blocks: list[list[str]]) -> str:
    head = [f"bounds depth={depth} atoms=20 enum=1000000 size=100000", "", *MP_RULE]
    return "\n\n".join("\n".join(block) for block in [head, *blocks]) + "\n"


def write(workdir: Path, index: int, text: str) -> str:
    path = workdir / f"r{index:05d}.vty"
    path.write_text(text, encoding="utf-8")
    return str(path)


# --- proofs: bounded closure ---------------------------------------------------
# hilbert shapes: a template over fresh atoms whose instantiation domain
# has exactly three formulas. mp shapes: `size` axioms made of `starts`
# facts and implications that extend `starts` parallel chains.

HILBERT_TEMPLATES = {
    "facts": lambda a, b, c: [a, b, c],
    "fact_imp": lambda a, b, c: [a, imp(a, b)],
    "neg_fact": lambda a, b, c: [f"(not {a})", b],
    "self_imp": lambda a, b, c: [imp(a, a), b],
}

PROOF_SHAPES = tuple(
    (base, form, depth, with_proofs)
    for base, form, depth in (
        ("hilbert", "facts", 2),
        ("hilbert", "fact_imp", 1),
        ("hilbert", "neg_fact", 1),
        ("hilbert", "self_imp", 1),
        ("mp", (40, 4), 3),
        ("mp", (48, 8), 2),
    )
    for with_proofs in (False, True)
)


def make_proof_request(rng, names: NamePool, workdir: Path, index: int, shape) -> Request:
    base, form, depth, with_proofs = shape
    if base == "hilbert":
        axioms = HILBERT_TEMPLATES[form](*names.take(3))
        schemas = HILBERT_SCHEMAS
    else:
        size, starts = form
        atoms = names.take(size)
        axioms = atoms[:starts] + [
            imp(atoms[i], atoms[i + starts]) for i in range(size - starts)
        ]
        schemas = ()
    rng.shuffle(axioms)
    path = write(workdir, index, manifest_text(
        depth, [calculus_lines("C", depth, axioms, schemas)]))
    argv = ("closure", path) + (("--with-proofs",) if with_proofs else ())
    spec = {"base": base, "axioms": axioms, "depth": depth, "with_proofs": with_proofs}
    return Request("closure", (Step(argv),), spec)


# --- subsets: minimal sufficient subsets and the relation classifier ----------
# Each set holds a goal chain x0, x0 -> x1, ..., x(L-2) -> x(L-1) and
# distractors that cannot reach the goal: side branches off the chain,
# implications into the chain from atoms nothing derives, and unrelated
# facts. So the chain is the one minimal sufficient subset.

SUBSET_SHAPES = ((3, 5), (4, 5))


def _distractor(rng, kind: str, chain: list[str], fresh: list[str]) -> str:
    if kind == "branch":
        return imp(rng.choice(chain[:-1]), fresh[0])
    if kind == "near_miss":
        return imp(fresh[0], rng.choice(chain[1:]))
    if kind == "fact":
        return fresh[0]
    return imp(fresh[0], fresh[1])


def make_subset_request(rng, names: NamePool, workdir: Path, index: int, shape) -> Request:
    length, total = shape
    chain_atoms = names.take(length)
    chain = [chain_atoms[0]] + [
        imp(chain_atoms[i], chain_atoms[i + 1]) for i in range(length - 1)
    ]
    goal = chain_atoms[-1]
    kinds = rng.sample(["branch", "near_miss", "fact", "loose"], total - length)
    distractors = [_distractor(rng, kind, chain_atoms, names.take(2)) for kind in kinds]
    axioms = chain + distractors
    rng.shuffle(axioms)
    tail = ("--axioms", *axioms, "--goal", goal, "--base", "mp", "--depth", str(length))
    steps = (Step(("minimal-subsets",) + tail), Step(("classify",) + tail))
    spec = {"axioms": axioms, "chain": chain, "goal": goal, "depth": length}
    return Request("subsets", steps, spec)


# --- knowledge: consistency and variety checks over components ----------------
# `count` mp components over one vocabulary of `atom_count` atoms. Each
# component owns one fact; component `hot` also derives the conflict
# atom and component `cold` holds its negation, so every component is
# consistent, the pooled union is not, and the pair (hot, cold) is the
# only minimal inconsistent set. No formula occurs in two components'
# closures, so every tuple wider than one is vacuous.

KNOWLEDGE_SHAPES = ((5, 9),)


def make_knowledge_request(rng, names: NamePool, workdir: Path, index: int, shape) -> Request:
    count, atom_count = shape
    # The free atoms sort first, so a consistent subset meets its first
    # model within 2 ** (count + 1) rows of its truth table, and the cost
    # of a request is set by the full tables of the inconsistent sets.
    vocabulary = sorted(names.take(atom_count))
    loose, forced = vocabulary[:atom_count - count - 1], vocabulary[atom_count - count - 1:]
    rng.shuffle(forced)
    conflict, facts = forced[0], forced[1:]
    hot, cold = rng.sample(range(count), 2)
    pairs = [(a, b) for a in loose for b in loose if a != b]
    rng.shuffle(pairs)
    components = []
    used: set[str] = set()
    for k in range(count):
        fact = facts[k]
        axioms = [fact]
        theorems = [fact]
        if k == hot:
            axioms.append(imp(fact, conflict))
            theorems.append(conflict)
        if k == cold:
            axioms.append(f"(not {conflict})")
        a, b = pairs.pop()
        axioms.append(imp(fact, imp(a, b)))
        theorems.append(imp(a, b))
        while True:
            inert = imp(rng.choice(loose), facts[(k + 1 + rng.randrange(count - 1)) % count])
            if inert not in used:
                break
        used.add(inert)
        axioms.append(inert)
        components.append((f"K{k + 1}", axioms, theorems))
    blocks = [calculus_lines(f"L{k + 1}", 2, axioms, ()) for k, (_, axioms, _) in
              enumerate(components)]
    blocks.append(["map ident identity"])
    for k, (cid, _, theorems) in enumerate(components):
        blocks.append([f"component {cid} {{", f"  calculus L{k + 1}",
                       "  axiom-map ident", "  theorem-map ident",
                       *[f"  theorem {t}" for t in theorems], "}"])
    blocks.append(["prevariety KB {", *[f"  component {cid}" for cid, _, _ in components],
                   "  auto", "}"])
    path = write(workdir, index, manifest_text(2, blocks))
    steps = (Step(("check-prevariety", path)),
             Step(("check-variety", path, "--depth", str(count))))
    spec = {"components": components,
            "pair": (components[min(hot, cold)][0], components[max(hot, cold)][0])}
    return Request("knowledge", steps, spec)


# --- machines: brute-force world, dovetailed recognition, universal run -------
# The brute-force world is fixed at 354 runs and the universal run's
# input pairs sum to 1 (20 or 22 simulated steps), so every request runs
# both interpreters at about the same cost.

BRUTE_WORLD = {"max_instructions": 2, "max_registers": 1, "fuel": 64}
RECOGNIZE_SCHEDULE = (8, 16, 32, 64, 128)
UNIVERSAL_FUEL = 400
MACHINE_SHAPES = ((0, 1), (1, 0))


def cantor_pair(x: int, y: int) -> int:
    return (x + y) * (x + y + 1) // 2 + y


def make_machine_request(rng, names: NamePool, workdir: Path, index: int, shape) -> Request:
    a, b = shape
    target = rng.randrange(4)
    inputs = sorted(rng.sample(range(8), 2))
    recognize_target = rng.randrange(1, 3)
    brute = ("fixed-output", "brute", "--y", str(target),
             "--max-instructions", str(BRUTE_WORLD["max_instructions"]),
             "--max-registers", str(BRUTE_WORLD["max_registers"]),
             "--inputs", ",".join(map(str, inputs)), "--fuel", str(BRUTE_WORLD["fuel"]))
    recognize = ("fixed-output", "recognize", "--machine", str(ADDER_PATH),
                 "--y", str(recognize_target),
                 "--schedule", ",".join(map(str, RECOGNIZE_SCHEDULE)))
    steps = (Step(brute), Step(recognize), Step(call=(cantor_pair(a, b), UNIVERSAL_FUEL),
                                                       work="bigints"))
    spec = {"target": target, "inputs": inputs, "recognize_target": recognize_target,
            "pair": (a, b)}
    return Request("machines", steps, spec)


WORKLOADS = {
    "proofs": Workload("proofs", 46.0, (), make_proof_request, PROOF_SHAPES),
    "subsets": Workload("subsets", 60.0, ("seed_registry",), make_subset_request,
                        SUBSET_SHAPES),
    "knowledge": Workload("knowledge", 40.0, (), make_knowledge_request,
                          KNOWLEDGE_SHAPES),
    "machines": Workload("machines", 28.0, ("seed_registry", "adder"),
                         make_machine_request, MACHINE_SHAPES),
}

WARMUP_REQUESTS = 2


# p90 needs at least ten samples beyond it
MIN_REQUESTS = 100


def request_count(workload: Workload, seconds: int, passes: int) -> int:
    """Fixed by the run length, never by a clock: whole rounds of the shape table."""
    per_round = len(workload.shapes)
    wanted = max(MIN_REQUESTS, round(seconds * workload.nominal_rps / passes))
    return -(-wanted // per_round) * per_round


def generate(workload: Workload, seed: int, count: int, workdir: Path,
             stream: str = "timed") -> list[Request]:
    """The seeded request list: every shape the same number of times, in seeded order."""
    rng = random.Random(f"{workload.name}:{seed}:{stream}")
    shapes = [workload.shapes[i % len(workload.shapes)] for i in range(count)]
    rng.shuffle(shapes)
    offset = 0 if stream == "timed" else 90000
    return [workload.make(rng, NamePool(rng), workdir, offset + i, shape)
            for i, shape in enumerate(shapes)]
