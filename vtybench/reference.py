"""Reference checks for every answer, from sources other than the code under test.

- proofs: ``oracle_tools.oracle_theorem_set`` gives the formula set;
  proofs are re-checked step by step on their JSON text, and each
  reported cost must be the cost of its proof tree.
- subsets and knowledge: the answers are known by construction (see
  ``workloads``); the construction is cross-checked here with
  ``oracle_theorem_set`` and ``truth_table_entails``.
- machines: ``oracle_tools.mini_run`` reruns every brute-force world
  from its own enumeration, replays the dovetail, and checks the
  universal run against the adder's sum.

Formula texts are taken apart by a small s-expression reader of this
module, not by the library's parser; the library's parser only builds
the inputs of the oracle functions, as the oracle module itself does.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
from functools import cached_property

from session import ADDER_PATH
from workloads import BRUTE_WORLD, HILBERT_SCHEMAS, RECOGNIZE_SCHEDULE, cantor_pair

# --- s-expressions -------------------------------------------------------------

def read(text: str):
    """Formula text as nested tuples: atoms are strings, ``(op, *args)`` otherwise."""
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

    tree, end = node(0)
    if end != len(tokens):
        raise ValueError(f"trailing text in {text!r}")
    return tree


def show(tree) -> str:
    if isinstance(tree, str):
        return tree
    return "(" + " ".join([tree[0], *map(show, tree[1:])]) + ")"


def subterms(tree):
    yield tree
    if not isinstance(tree, str):
        for child in tree[1:]:
            yield from subterms(child)


def plug(tree, mapping):
    if isinstance(tree, str):
        return mapping.get(tree, tree)
    return (tree[0], *(plug(child, mapping) for child in tree[1:]))


def atom_names(texts) -> set[str]:
    return {t for text in texts for t in subterms(read(text))
            if isinstance(t, str) and t != "bot"}


SCHEMAS = {sid: read(pattern) for sid, pattern in HILBERT_SCHEMAS}


def proof_problem(proof: dict, conclusion: str, axioms: set[str],
                  cost: int | None = None) -> str | None:
    """Re-check a JSON proof step by step; None when it is valid.

    With ``cost``, the proof's tree cost (one per rule application, with
    shared premises counted once per use) must equal it.
    """
    steps = proof["steps"]
    tree_costs: list[int] = []
    for index, step in enumerate(steps):
        formula, kind = step["formula"], step["kind"]
        tree_cost = 0
        if kind == "axiom":
            ok = formula in axioms
        elif kind == "schema":
            mapping = {k: read(v) for k, v in step["substitution"].items()}
            pattern = SCHEMAS.get(step["schema"])
            ok = pattern is not None and show(plug(pattern, mapping)) == formula
        elif kind == "rule":
            a, b = step["substitution"].get("a"), step["substitution"].get("b")
            premises = step["premises"]
            ok = (step["rule"] == "mp" and len(premises) == 2
                  and all(0 <= p < index for p in premises)
                  and steps[premises[0]]["formula"] == a
                  and steps[premises[1]]["formula"] == f"(-> {a} {b})"
                  and formula == b)
            tree_cost = 1 + sum(tree_costs[p] for p in premises) if ok else 0
        else:
            ok = False
        if not ok:
            return f"proof of {conclusion}: step {index} ({kind}) does not follow"
        tree_costs.append(tree_cost)
    if not steps or steps[-1]["formula"] != conclusion:
        return f"proof of {conclusion} ends elsewhere"
    rules = sum(1 for step in steps if step["kind"] == "rule")
    if proof["rule_applications"] != rules:
        return f"proof of {conclusion} miscounts its rule applications"
    if cost is not None and tree_costs[-1] != cost:
        return f"proof of {conclusion} costs {tree_costs[-1]}, reported {cost}"
    return None


# --- the checker ---------------------------------------------------------------

class Reference:
    """Checks answers; build it after the last vty import of the run."""

    def __init__(self) -> None:
        sys.modules.pop("oracle_tools", None)
        self.oracle = importlib.import_module("oracle_tools")
        self.calculus = sys.modules["vty.calculus"]
        self.formulas = sys.modules["vty.formulas"]
        self.adder_text = ADDER_PATH.read_text(encoding="utf-8")

    def check(self, request, answer) -> list[str]:
        """Problems found with one answer; empty when it agrees with the reference."""
        problems: list[str] = []
        try:
            for step, (code, _) in zip(request.steps, answer):
                if code != step.expect_code:
                    problems.append(f"exit code {code}, expected {step.expect_code}")
            if not problems:
                getattr(self, f"_check_{request.kind}")(request.spec, answer, problems)
        except Exception as exc:  # a malformed answer is a failed request, not a crash
            problems.append(f"reference check raised {type(exc).__name__}: {exc}")
        return problems

    # -- helpers --

    @staticmethod
    def _result(step_answer, command: str, problems: list[str]) -> dict:
        report = json.loads(step_answer[1])
        if report.get("command") != command or report.get("errors"):
            problems.append(f"{command}: report {report.get('command')!r} with errors "
                            f"{report.get('errors')}")
        return report["result"]

    def _calc(self, axioms, depth: int, schemas=()):
        c = self.calculus
        return c.Calculus(
            "C", axioms=frozenset(self.formulas.parse_formula(a) for a in axioms),
            schemas=tuple(c.AxiomSchema(sid, self.formulas.parse_formula(p))
                          for sid, p in schemas),
            rules=(c.modus_ponens(),), closure_depth=depth)

    def _theorems(self, axioms, depth: int, schemas=()) -> set[str]:
        found = self.oracle.oracle_theorem_set(self._calc(axioms, depth, schemas), depth)
        return {self.formulas.format_formula(f) for f in found}

    def _entails_bottom(self, texts) -> bool:
        parse = self.formulas.parse_formula
        return self.oracle.truth_table_entails([parse(t) for t in texts], parse("bot"))

    @staticmethod
    def _expect(problems: list[str], ok: bool, message: str) -> None:
        if not ok:
            problems.append(message)

    # -- proofs --

    def _check_closure(self, spec, answer, problems) -> None:
        result = self._result(answer[0], "closure", problems)
        axioms, depth = spec["axioms"], spec["depth"]
        schemas = HILBERT_SCHEMAS if spec["base"] == "hilbert" else ()
        expected = sorted(self._theorems(axioms, depth, schemas))
        domain = {show(t) for a in axioms for t in subterms(read(a))}
        expect = self._expect
        expect(problems, result["formulas"] == expected, "closure: formula set differs from the oracle")
        expect(problems, result["count"] == len(expected), "closure: wrong count")
        expect(problems, result["depth"] == depth, "closure: wrong depth")
        expect(problems, result["domain_size"] == len(domain), "closure: wrong domain size")
        if not spec["with_proofs"]:
            return
        costs, proofs = result.get("costs", {}), result.get("proofs", {})
        expect(problems, sorted(proofs) == expected and sorted(costs) == expected,
               "closure: proofs or costs do not cover the closure")
        expect(problems, all(0 <= c <= depth for c in costs.values()),
               "closure: a cost exceeds the depth")
        for formula, proof in proofs.items():
            problem = proof_problem(proof, formula, set(axioms), costs.get(formula))
            if problem:
                problems.append(problem)
                break

    # -- subsets --

    def _check_subsets(self, spec, answer, problems) -> None:
        axioms, chain, goal, depth = spec["axioms"], spec["chain"], spec["goal"], spec["depth"]
        chain_sorted = sorted(chain)
        expect = self._expect
        subsets = self._result(answer[0], "minimal-subsets", problems)
        expect(problems, subsets == {"base": "mp", "depth": depth, "subsets": [chain_sorted]},
               "minimal-subsets: not exactly the goal chain")
        relation = self._result(answer[1], "classify", problems)
        wanted = {"consistent_with": "YES", "sufficient": "YES",
                  "irreducible": "NO" if len(axioms) > len(chain) else "YES",
                  "depth": depth, "base": "mp", "semantically_entailed": True,
                  "reducible_to": chain_sorted}
        for key, value in wanted.items():
            expect(problems, relation.get(key) == value, f"classify: wrong {key}")
        problem = proof_problem(relation["proof"], goal, set(axioms))
        if problem:
            problems.append(problem)
        # the construction: the chain proves the goal and every sufficient set holds all of it
        expect(problems, goal in self._theorems(chain, depth), "construction: chain misses the goal")
        for member in chain:
            rest = [a for a in axioms if a != member]
            expect(problems, goal not in self._theorems(rest, depth),
                   "construction: a subset without the whole chain proves the goal")
        parse = self.formulas.parse_formula
        expect(problems, self.oracle.truth_table_entails([parse(a) for a in chain], parse(goal)),
               "construction: the chain does not entail the goal")

    # -- knowledge --

    def _check_knowledge(self, spec, answer, problems) -> None:
        components, pair = spec["components"], list(spec["pair"])
        expect = self._expect
        pooled = {cid: set(axioms) | set(theorems) for cid, axioms, theorems in components}
        closures = {cid: self._theorems(axioms, 2) for cid, axioms, _ in components}

        prevariety = self._result(answer[0], "check-prevariety", problems)
        structure = prevariety["structure"]
        expect(problems, (structure["verdict"], structure["diagnostics"], structure["equations"])
               == ("PASS", [], {"A": "OK", "H": "OK", "M": "OK"}),
               "check-prevariety: union equations do not pass")
        consistency = prevariety["consistency"]
        rows = [{"component": cid, "verdict": "CONSISTENT", "formulas": len(pooled[cid]),
                 "atoms": len(atom_names(pooled[cid]))} for cid, _, _ in components]
        expect(problems, consistency["components"] == rows, "consistency: component rows differ")
        expect(problems, (consistency["global"], consistency["global_witness"],
                          consistency["locally_consistent_globally_inconsistent"])
               == ("INCONSISTENT", "complementary_pair", True),
               "consistency: pooled verdict differs")
        expect(problems, consistency["minimal_inconsistent_sets"] == [pair]
               and consistency["pairs"] == [pair], "consistency: minimal sets differ")

        variety = self._result(answer[1], "check-variety", problems)
        expect(problems, (variety["verdict"], variety["diagnostics"]) == ("PASS", []),
               "check-variety: does not pass")
        records = []
        for width in range(1, len(components) + 1):
            for combo in itertools.combinations(range(len(components)), width):
                if width == 1:
                    cid, axioms, _ = components[combo[0]]
                    records.append({
                        "indices": [combo[0] + 1], "axiom_intersection": sorted(axioms),
                        "theorem_intersection": sorted(closures[cid]),
                        "status": "self-witnessed", "witness": f"self:{cid}",
                        "axiom_projection_surjective": True,
                        "theorem_projection_surjective": True})
                else:
                    records.append({
                        "indices": [k + 1 for k in combo], "axiom_intersection": [],
                        "theorem_intersection": [], "status": "vacuous", "witness": None,
                        "axiom_projection_surjective": None,
                        "theorem_projection_surjective": None})
        expect(problems, variety["tuples"] == records, "check-variety: tuple records differ")

        # the construction: closures are disjoint, the pair is the one minimal bad set
        for (a, first), (b, second) in itertools.combinations(closures.items(), 2):
            expect(problems, not first & second, f"construction: {a} and {b} share a theorem")
        for cid in pooled:
            expect(problems, not self._entails_bottom(pooled[cid]),
                   f"construction: {cid} alone is inconsistent")
        expect(problems, self._entails_bottom(pooled[pair[0]] | pooled[pair[1]]),
               "construction: the pair is consistent")
        for left_out in pair:
            rest = set().union(*(f for cid, f in pooled.items() if cid != left_out))
            expect(problems, not self._entails_bottom(rest),
                   f"construction: an inconsistent set lacks {left_out}")

    # -- machines --

    @cached_property
    def _world(self) -> dict:
        """(input, output) -> sorted (text, steps) of halting runs, by an own enumeration."""
        registers, fuel = BRUTE_WORLD["max_registers"], BRUTE_WORLD["fuel"]
        table: dict = {}
        for length in range(BRUTE_WORLD["max_instructions"] + 1):
            targets = range(length + 1)
            options = ([f"INC {r} {k}" for r in range(registers) for k in targets]
                       + [f"DECJZ {r} {z} {p}" for r in range(registers)
                          for z in targets for p in targets]
                       + ["HALT"])
            for program in itertools.product(options, repeat=length):
                text = "\n".join(program)
                for value in range(8):
                    outcome, output, steps = self.oracle.mini_run(text, value, fuel)
                    if outcome == "HALT":
                        table.setdefault((value, output), []).append((text, steps))
        return table

    @staticmethod
    def _world_size(inputs) -> int:
        registers = BRUTE_WORLD["max_registers"]
        return len(inputs) * sum(
            (registers * (n + 1) + registers * (n + 1) ** 2 + 1) ** n
            for n in range(BRUTE_WORLD["max_instructions"] + 1))

    def _dovetail(self, target: int) -> dict:
        probes = 0
        for stage, fuel in enumerate(RECOGNIZE_SCHEDULE):
            for value in range(stage + 1):
                probes += 1
                outcome, output, _ = self.oracle.mini_run(self.adder_text, value, fuel)
                if outcome == "HALT" and output == target:
                    return {"verdict": "YES", "input": value, "fuel": fuel,
                            "stages": stage + 1, "probes": probes}
        return {"verdict": "UNKNOWN", "input": None, "fuel": None,
                "stages": len(RECOGNIZE_SCHEDULE), "probes": probes}

    def _check_machines(self, spec, answer, problems) -> None:
        target, inputs = spec["target"], spec["inputs"]
        expect = self._expect
        brute = self._result(answer[0], "fixed-output", problems)
        world = {"max_instructions": BRUTE_WORLD["max_instructions"],
                 "max_registers": BRUTE_WORLD["max_registers"],
                 "inputs": inputs, "fuel": BRUTE_WORLD["fuel"]}
        expect(problems, (brute["mode"], brute["target"], brute["world"], brute["runs"])
               == ("brute", target, world, self._world_size(inputs)),
               "fixed-output brute: world or run count differs")
        hits = sorted(("\n".join(h["machine"]), h["input"], h["steps"]) for h in brute["hits"])
        wanted = sorted((text, value, steps) for value in inputs
                        for text, steps in self._world.get((value, target), ()))
        expect(problems, hits == wanted, "fixed-output brute: hits differ from mini_run")

        recognition = self._result(answer[1], "fixed-output", problems)
        wanted_recognition = {"mode": "recognize", "target": spec["recognize_target"],
                              **self._dovetail(spec["recognize_target"])}
        expect(problems, recognition == wanted_recognition,
               "fixed-output recognize: differs from the replayed dovetail")
        if recognition.get("verdict") == "YES":
            s = 0  # the adder's input is pair(a, b); its output must be a + b
            while (s + 1) * (s + 2) // 2 <= recognition["input"]:
                s += 1
            expect(problems, s == spec["recognize_target"],
                   "fixed-output recognize: certificate is not a pair with that sum")

        a, b = spec["pair"]
        outcome, output, steps = self.oracle.mini_run(self.adder_text, cantor_pair(a, b), 10 ** 6)
        expect(problems, (outcome, output) == ("HALT", a + b), "construction: adder does not add")
        expect(problems, answer[2][1] == ("HALT", a + b, steps),
               "universal_run: differs from mini_run on the adder")
