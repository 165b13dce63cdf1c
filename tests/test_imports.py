"""Every module reads each name it imports; a name listed in `__all__` counts as read."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nodes = list(ast.walk(tree))
    # every name read and every dotted attribute chain, e.g. "scipy.linalg.eigh"
    reads = {ast.unparse(n) for n in nodes if isinstance(n, ast.Attribute)
             or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for n in tree.body:
        if isinstance(n, ast.Assign) and "__all__" in [ast.unparse(t) for t in n.targets]:
            reads.update(ast.literal_eval(n.value))
    imports = [n for n in nodes if isinstance(n, ast.Import)
               or isinstance(n, ast.ImportFrom) and n.module != "__future__"]
    # `import a.b` binds "a", but counts as read only where "a.b" is
    return [f"{path.relative_to(ROOT)}:{n.lineno} {name}" for n in imports
            for name in (alias.asname or alias.name for alias in n.names)
            if not any(r == name or r.startswith(name + ".") for r in reads)]


def test_no_unused_imports():
    modules = sorted([*ROOT.glob("src/bandmoment/*.py"), *ROOT.glob("tests/*.py")])
    assert modules and [u for path in modules for u in unused_imports(path)] == []
