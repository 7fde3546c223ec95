"""Source hygiene: every name a specsing module, test or demo imports is used
in it, re-exported through its __all__ or marked `# noqa: F401` (a stdlib-ast
stand-in for a linter), every module-level private name is used somewhere in
the package, the package imports nothing beyond numpy, and its public names
and their parameters stay as frozen here."""
import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "specsing"
# the files whose imports are checked: the package modules by name, the tests
# and demos by directory and name
CHECKED = ([(path.name, path) for path in sorted(SRC.glob("*.py"))]
           + [(f"{folder}/{path.name}", path) for folder in ("tests", "demos")
              for path in sorted((ROOT / folder).glob("*.py"))])


def unused_imports(path: Path) -> list:
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(alias, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [(alias, alias.asname or alias.name) for alias in node.names]
        else:
            continue
        for alias, name in names:
            if "noqa: F401" not in lines[alias.lineno - 1]:
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", [path for _name, path in CHECKED],
                         ids=[name for name, _path in CHECKED])
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_detects_unused_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import os\nimport math as m\nfrom json import dumps, loads\n"
                   "import sys  # noqa: F401\nfrom re import (compile,\n"
                   "                escape)  # noqa: F401\n__all__ = ['loads']\nprint(m.pi)\n")
    assert unused_imports(src) == ["compile (line 5)", "dumps (line 3)", "os (line 1)"]


def _defined(node) -> list:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _referenced(node) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def orphaned_privates(paths) -> list:
    """Module-level _names (not dunders) that no statement of any of the
    modules refers to, apart from the statement that defines them."""
    statements = [(path, node) for path in paths
                  for node in ast.parse(path.read_text(), filename=str(path)).body]
    refs = [_referenced(node) for _path, node in statements]
    out = []
    for k, (path, node) in enumerate(statements):
        for name in _defined(node):
            if name.startswith("_") and not name.startswith("__") and not any(
                    name in r for j, r in enumerate(refs) if j != k):
                out.append(f"{path.name}: {name}")
    return sorted(out)


def test_no_orphaned_private_names():
    assert orphaned_privates(sorted(SRC.glob("*.py"))) == []


def test_detects_orphaned_private_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "_LIMIT = 3\n_unused = 4\n\n\ndef _recurse(n):\n    return _recurse(n - 1)\n\n\n"
        "def _helper():\n    return _LIMIT\n")
    (tmp_path / "b.py").write_text("from a import _helper\n\nprint(_helper())\n")
    paths = sorted(tmp_path.glob("*.py"))
    assert orphaned_privates(paths) == ["a.py: _recurse", "a.py: _unused"]


def test_imports_without_scipy():
    # numpy is the one runtime dependency; scipy serves only as a test oracle
    code = ("import sys, specsing, specsing.cli; "
            "print(sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "[]"


# specsing.__all__ with the parameter names of each callable in it (a class:
# its constructor's; an exception class: its base), as frozen here: a change
# that drops or renames a public name or parameter fails, and one that adds
# one updates this table on purpose
PUBLIC_API = {
    "CauchyWeightParams": ("c",),
    "ConfluentBlock": ("p", "q_eff", "k"),
    "DensityTilde": ("a_tilde", "b_tilde"),
    "EnsembleParams": ("beta", "size", "p", "q"),
    "KernelExpansion": ("K_inf", "L1", "L2", "X", "Y"),
    "MorrisParams": ("a", "b", "lam", "N"),
    "NonConvergenceError": RuntimeError,
    "Partition": ("parts",),
    "PoleError": ValueError,
    "QuadratureRule": ("nodes", "weights", "domain"),
    "ResidualReport": ("N_values", "residuals", "fitted_slope", "fit_r2",
                       "extrapolated_limit", "floor_hit"),
    "SeriesControl": ("rel_tol", "max_terms"),
    "SkewConstants": ("gamma", "eta1", "eta2", "s_tilde"),
    "a_confluent": ("j", "block", "X"),
    "c_tilde": ("order", "k", "p", "q_eff", "X"),
    "cayley_to_circle": ("x",),
    "circle_to_cayley": ("theta",),
    "correlation_det": ("points", "params"),
    "density_expansion_check": ("theta", "params", "N_list"),
    "derivative_identity_residual": ("beta", "X", "Y", "params"),
    "duality_ratio_2f1": ("n", "b", "c", "alpha", "m", "t"),
    "fit_loglog": ("N_values", "residuals"),
    "gamma_ratio_expansion": ("z", "a", "b", "order"),
    "gen_pochhammer": ("a", "k", "alpha"),
    "hyp1f1": ("a", "c", "z", "ctrl"),
    "hyp2f1_terminating": ("n", "b", "c", "z", "ctrl"),
    "hyper_pfq_alpha": ("a_list", "b_list", "alpha", "m", "x", "max_weight"),
    "i_integral": ("kind", "theta", "params", "f_moment"),
    "intermediate_expansion_check": ("kind", "N", "X", "params"),
    "j_blocks": ("k", "p", "q_eff", "X", "Y"),
    "jack_principal": ("k", "alpha", "m", "x"),
    "k_limit": ("beta", "X", "Y", "params"),
    "kernel_expansion": ("beta", "X", "Y", "params"),
    "kernel_residual_scan": ("beta", "X", "Y", "params", "N_list", "order"),
    "kernel_s1": ("x", "y", "params"),
    "kernel_s1_scaled": ("X", "Y", "params"),
    "kernel_s2": ("x", "y", "params"),
    "kernel_s2_scaled": ("X", "Y", "params"),
    "kernel_s4": ("x", "y", "params"),
    "kernel_s4_scaled": ("X", "Y", "params"),
    "kernel_scaled": ("beta", "X", "Y", "params"),
    "l1": ("beta", "X", "Y", "params"),
    "l2": ("beta", "X", "Y", "params"),
    "log_gamma": ("z",),
    "morris_closed": ("m",),
    "morris_quadrature": ("m",),
    "orthogonality_check": ("n", "m", "params", "rule"),
    "partitions_up_to": ("m", "max_weight"),
    "pochhammer": ("a", "n"),
    "rho_finite": ("theta", "params", "path"),
    "rho_limit": ("theta", "params", "path", "max_weight"),
    "rr_norm": ("n", "c"),
    "rr_poly": ("n", "c", "x"),
    "rr_scaled": ("n_minus_k", "k", "X", "params"),
    "scaled_point_map": ("X", "N"),
    "skew_constants": ("params",),
    "tail_integral": ("degree", "upper_X", "params"),
    "tanh_sinh_rule": ("a", "b", "level"),
    "tuned_scaling_residual": ("beta", "X", "Y", "params", "N_list"),
    "weight_cauchy": ("x", "w"),
    "weight_circle_scaled": ("X", "params"),
}


def test_public_api_is_frozen():
    import specsing

    assert sorted(specsing.__all__) == sorted(PUBLIC_API)
    for name, expected in PUBLIC_API.items():
        obj = getattr(specsing, name)
        if isinstance(expected, type):
            assert issubclass(obj, expected) and issubclass(obj, Exception), name
        else:
            assert tuple(inspect.signature(obj).parameters) == expected, name
