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
