import ast
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "vty"


def test_every_public_function_is_used_or_documented():
    # a module-level function without a leading underscore is API: some
    # library code calls or names it, or README documents it; one that only
    # tests reach belongs in the tests
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    unused = []
    for text in sources:
        for node in ast.parse(text).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            name = re.compile(rf"\b{node.name}\b")
            # its own def line names it once
            if sum(len(name.findall(source)) for source in sources) == 1 \
                    and not name.search(readme):
                unused.append(node.name)
    assert unused == []
