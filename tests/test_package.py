import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import gkpstab

_MODULES = {"analytic", "checks", "cli", "codes", "decoders", "modular", "montecarlo",
            "noise", "symplectic", "tuning"}


def test_every_exported_name_resolves_in_its_module():
    public = {m.name for m in pkgutil.iter_modules(gkpstab.__path__) if not m.name.startswith("_")}
    assert public == _MODULES
    for name in sorted(public):
        module = importlib.import_module(f"gkpstab.{name}")
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"gkpstab.{name}.{attr}"


def test_package_import_is_light():
    # a fresh interpreter: the package alone gives its version and loads
    # neither numpy nor scipy
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    code = (
        "import sys, gkpstab; print(gkpstab.__version__, sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('numpy', 'scipy')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out == f"{gkpstab.__version__} []\n"


def _import_faults(path: Path) -> list:
    # each name an import binds but the module never reads, and each
    # private name taken from a sibling module
    tree = ast.parse(path.read_text())
    bound, faults = {}, []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
            private = alias.name.startswith("_") and not alias.name.startswith("__")
            if isinstance(node, ast.ImportFrom) and node.level and private:
                faults.append(f"{path.name}:{node.lineno} imports private {alias.name}")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    faults += [f"{path.name}:{line} never uses {name}"
               for name, line in bound.items() if name not in used]
    return faults


def test_sources_import_only_what_they_use():
    src = Path(__file__).resolve().parents[1] / "src" / "gkpstab"
    faults = [fault for path in sorted(src.glob("*.py")) for fault in _import_faults(path)]
    assert faults == []
