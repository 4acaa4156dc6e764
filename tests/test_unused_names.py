import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _top_level_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def test_every_top_level_name_is_used():
    """Each top-level function, class and assigned name of a `src/seqcl`
    module other than `__init__.py` appears, as a whole word, at least twice
    across those modules and `perfbench/*.py`: once for its definition and
    once more. Tests and the re-exports in `__init__.py` do not count as uses.
    The check is textual, so a mention in a docstring or a comment counts."""
    modules = sorted(p for p in (ROOT / "src" / "seqcl").glob("*.py") if p.name != "__init__.py")
    text = "\n".join(p.read_text() for p in modules + sorted((ROOT / "perfbench").glob("*.py")))
    unused = [
        f"{path.name}:{name}"
        for path in modules
        for name in _top_level_names(ast.parse(path.read_text()))
        if len(re.findall(rf"\b{re.escape(name)}\b", text)) < 2
    ]
    assert not unused, f"top-level names nothing uses: {unused}"
