import ast
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "vty"
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _trees(paths):
    return [ast.parse(path.read_text(encoding="utf-8")) for path in paths]


LIBRARY = _trees(sorted(PACKAGE.glob("*.py")))
# the code whose calls count as the API's use: the library, the benchmark
# harness and the acceptance criteria; README examples are read as text
CALLERS = LIBRARY + _trees(sorted((ROOT / "vtybench").glob("*.py"))) + _trees(
    [ROOT / "tests" / "test_acceptance.py"])


def _references(trees):
    """Every name the code reads: names, attributes and imported names."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def _public_functions():
    """(qualified name, def node, whether its first parameter is bound) of
    every public function, and of every public method of a public class."""
    for tree in LIBRARY:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield node.name, node, False
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                     for d in method.decorator_list)
                        yield f"{node.name}.{method.name}", method, not static


def _calls(trees, name):
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Name) and func.id == name) or (
                        isinstance(func, ast.Attribute) and func.attr == name):
                    yield node


def _set_by_call(call, positional):
    """The parameters one call sets, given the function's positional names."""
    names = set()
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            names.update(positional[index:])
            break
        if index < len(positional):
            names.add(positional[index])
    for keyword in call.keywords:
        if keyword.arg is None:  # **mapping may set any of them
            return None
        names.add(keyword.arg)
    return names


def test_every_public_function_is_used_or_documented():
    # a function or method without a leading underscore is API: some library
    # code calls or names it, or README documents it; one that only tests
    # reach belongs in the tests
    used = _references(LIBRARY)
    unused = [qualified for qualified, _, _ in _public_functions()
              if (name := qualified.rsplit(".", 1)[-1]) not in used
              and not re.search(rf"\b{name}\b", README)]
    assert unused == []


def test_every_keyword_option_is_set_by_a_caller_of_record():
    # a defaulted parameter is a setting; one that only tests set is a
    # configuration no user reaches, so it belongs in the tests as a patched
    # constant, not in the signature
    unset = []
    for qualified, node, bound in _public_functions():
        args = node.args
        positional = [a.arg for a in args.posonlyargs + args.args][1 if bound else 0:]
        defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
        defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        if not defaulted:
            continue
        name = qualified.rsplit(".", 1)[-1]
        set_somewhere: set[str] = set()
        for call in _calls(CALLERS, name):
            names = _set_by_call(call, positional)
            set_somewhere.update(defaulted if names is None else names)
        for param in defaulted:
            if param not in set_somewhere and not re.search(
                    rf"\b{name}\([^\n]*\b{param}=", README):
                unset.append(f"{qualified}({param}=)")
    assert unset == []


# Every class in src/vty that @dataclass builds, with the generated method
# or check it needs. Building one runs an exec per generated method at
# import, 0.6-1.3 ms of every start-up on Python 3.11, where a NamedTuple
# costs 0.1-0.2 ms; a record that needs none of these is a NamedTuple.
DATACLASSES = {
    "automata.DFA": "checks that its transition table is total",
    "calculus.Calculus": "checks its rule names and schema ids; with_axioms replaces its axioms",
    "calculus.ClosureResult": "leaves its derivation table out of equality",
    "calculus.SchemaRule": "checks that its conclusion binds no new metavariable",
    "formulas.Atom": "checks its name",
    "formulas.Binary": "And(p, q) != Or(p, q), which tuples of the operands would break",
    "formulas.Bottom": "an empty tuple would be falsy and equal to ()",
    "formulas.Not": "stores its hash; as a tuple, Not(p) would equal any one-field tuple of p",
    "machines.RegisterMachine": "checks and compiles its program into rows left out of equality",
    "machines.WorldBounds": "checks the world; cli writes its world block with asdict",
    "manifest.Bounds": "checks the caps; BOUND_NAMES reads its fields",
    "manifest.Manifest": "leaves its source out of equality",
    "projection.AxiomStatus": "checks that a resolved status has evidence",
    "projection.ClassProfile": "a registry record, one kind with the registry records it holds",
    "projection.Evidence": "checks the fields of each evidence kind",
    "projection.TheoremRecord": "checks that it has dependencies or is unconditional",
    "varieties.Component": "caches its mapped records in a field left out of equality",
    "varieties.FormulaMap": "checks its kind and builds its lookup table",
    "varieties.Prevariety": "the tests' deletion oracle replaces its union fields",
    "varieties.StructureReport": "the variety and bijective checks replace fields of the base report",
    "varieties.VarietyWitness": "checks that its indices strictly increase",
}


def _is_dataclass_decorator(node) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return (isinstance(target, ast.Name) and target.id == "dataclass") or (
        isinstance(target, ast.Attribute) and target.attr == "dataclass")


def test_only_the_listed_classes_are_dataclasses():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    map(_is_dataclass_decorator, node.decorator_list)):
                found.add(f"{path.stem}.{node.name}")
    assert sorted(found) == sorted(DATACLASSES)
