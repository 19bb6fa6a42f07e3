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
