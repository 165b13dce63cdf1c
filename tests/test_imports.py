"""Every module reads each name it imports, and importing the package stays light."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads; a name listed in `__all__` counts as read."""
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


def run_python(code: str, *args: str) -> str:
    """stdout of `code` in a fresh interpreter that imports the package from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_footprint():
    # the package reaches LAPACK through ctypes; only the verify suites load scipy's modules
    loaded = run_python("import sys, bandmoment, bandmoment.cli\nprint(*sys.modules)").split()
    heavy = {"scipy.linalg", "scipy.stats", "scipy.integrate", "numpy.f2py"}
    assert heavy.isdisjoint(loaded), sorted(heavy & set(loaded))
    assert "bandmoment.exact" not in loaded  # the exact references load on their own


def test_missing_lapack_names_the_searched_path(tmp_path):
    # scipy found, but without its linalg/_flapack extension: the first LAPACK call says
    # where it looked instead of failing on a missing library object
    out = run_python(
        "import importlib.util, sys, types\n"
        "import numpy as np\n"
        "import bandmoment\n"
        "importlib.util.find_spec = lambda name, package=None: types.SimpleNamespace(\n"
        "    submodule_search_locations=[sys.argv[1]])\n"
        "for call in (lambda: bandmoment.tridiagonalize(np.eye(3)),\n"
        "             lambda: bandmoment.covariance_profile(bandmoment.Lattice1D(3), 1.0)):\n"
        "    try:\n"
        "        call()\n"
        "    except ImportError as exc:\n"
        "        print(exc)\n",
        str(tmp_path))
    lines = out.splitlines()
    assert len(lines) == 2
    assert all(str(tmp_path / "linalg" / "_flapack") in line for line in lines)
