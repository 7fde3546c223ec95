"""Source hygiene: every name a specsing module imports is used in it or
re-exported through its __all__ (a stdlib-ast stand-in for a linter), and
the package imports nothing beyond numpy."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "specsing"


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports(SRC / module) == []


def test_detects_unused_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import os\nimport math as m\nfrom json import dumps, loads\n"
                   "__all__ = ['loads']\nprint(m.pi)\n")
    assert unused_imports(src) == ["dumps (line 3)", "os (line 1)"]


def test_imports_without_scipy():
    # numpy is the one runtime dependency; scipy serves only as a test oracle
    code = ("import sys, specsing, specsing.cli; "
            "print(sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "[]"
