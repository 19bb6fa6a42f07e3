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


def _unread_private_names(path: Path) -> list:
    # each module-level private function, class or constant that its own
    # module never reads
    tree = ast.parse(path.read_text())
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                defined[name.id] = node.lineno
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.name}:{line} never reads {name}" for name, line in defined.items()
            if name.startswith("_") and not name.startswith("__") and name not in loaded]


def test_sources_read_every_private_name_they_define():
    src = Path(__file__).resolve().parents[1] / "src" / "gkpstab"
    faults = [fault for path in sorted(src.glob("*.py")) for fault in _unread_private_names(path)]
    assert faults == []


def _named(obj) -> str:
    return getattr(obj, "__name__", repr(obj))


def _perfbench_faults(path: Path) -> list:
    # each gkpstab name that a benchmark script imports, reads, sets or
    # patches and that the package does not have
    tree = ast.parse(path.read_text())
    bound, faults = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(alias.name, None, alias.asname) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [(node.module, alias.name, alias.asname) for alias in node.names]
        else:
            continue
        for module, attr, asname in names:
            if module.split(".")[0] != "gkpstab":
                continue
            try:
                found = importlib.import_module(module)
                if attr is None:
                    bound[asname or "gkpstab"] = found if asname else gkpstab
                elif hasattr(found, attr):
                    bound[asname or attr] = getattr(found, attr)
                else:
                    # a submodule, which `from package import name` loads
                    bound[asname or attr] = importlib.import_module(f"{module}.{attr}")
            except ImportError as exc:
                faults.append(f"{path.name}:{node.lineno} {exc}")

    def resolve(node):
        # the package object that `node` names, or None
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if not isinstance(node, ast.Attribute):
            return None
        owner = resolve(node.value)
        if owner is None:
            return None
        if not hasattr(owner, node.attr):
            faults.append(f"{path.name}:{node.lineno} uses {_named(owner)}.{node.attr}")
        return getattr(owner, node.attr, None)

    # each attribute chain once, from its outermost attribute
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            resolve(node)

    # tracer.patch(module, "name", ...), with the name a string or the
    # variable of an enclosing loop over literal strings
    def is_patch(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "patch" and len(node.args) >= 2)

    looped = {}
    for loop in ast.walk(tree):
        if (isinstance(loop, ast.For) and isinstance(loop.target, ast.Name)
                and isinstance(loop.iter, (ast.Tuple, ast.List))):
            for call in filter(is_patch, ast.walk(loop)):
                if isinstance(call.args[1], ast.Name) and call.args[1].id == loop.target.id:
                    looped[id(call)] = [getattr(elt, "value", None) for elt in loop.iter.elts]
    for call in filter(is_patch, ast.walk(tree)):
        owner, name = resolve(call.args[0]), call.args[1]
        if owner is None:
            continue
        names = [name.value] if isinstance(name, ast.Constant) else looped.get(id(call), [None])
        for attr in names:
            if not (isinstance(attr, str) and hasattr(owner, attr)):
                faults.append(f"{path.name}:{call.lineno} patches {_named(owner)}.{attr}")
    return faults


def test_benchmark_scripts_use_only_names_the_package_has():
    # the benchmark is not edited with the package, so a deleted or renamed
    # name would otherwise break it unseen
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    scripts = sorted(bench.glob("*.py"))
    assert scripts
    faults = [fault for path in scripts for fault in _perfbench_faults(path)]
    assert faults == []


def _imports_and_names(module: str) -> tuple[set, set]:
    # the modules (and module.name) that gkpstab's `module` imports, and
    # every name it reads or binds
    path = Path(__file__).resolve().parents[1] / "src" / "gkpstab" / f"{module}.py"
    modules, names = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = "gkpstab" if node.level else ""
            base = ".".join(part for part in (base, node.module) if part)
            # `from . import analytic` binds the module itself
            modules |= {base} | {f"{base}.{alias.name}" for alias in node.names}
        names |= {getattr(node, "id", None), getattr(node, "attr", None)}
        names |= {getattr(node, "name", None), getattr(node, "asname", None)}
    return modules, names


def test_the_sampler_imports_no_closed_form():
    # the Monte Carlo is the route the closed forms are judged against, so
    # it takes nothing from the lattice sums or the gain searches
    modules, _ = _imports_and_names("montecarlo")
    reached = sorted(m for m in modules if m.split(".")[:2] in (
        ["gkpstab", "analytic"], ["gkpstab", "tuning"]))
    assert reached == []


def test_only_the_guard_spells_the_array_rule():
    # the real-number rule and the copy-and-freeze step of the arrays a
    # record holds live in _guard; the one other read-only array is
    # symplectic._omega's cached constant
    src = Path(__file__).resolve().parents[1] / "src" / "gkpstab"
    faults = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "_guard":
            continue
        tree = ast.parse(path.read_text())
        cached = {id(node) for fn in tree.body if getattr(fn, "name", None) == "_omega"
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            attr = getattr(node, "attr", None)
            inner = getattr(getattr(node, "value", None), "attr", None)
            if (attr, inner) == ("kind", "dtype"):
                faults.append(f"{path.name}:{node.lineno} reads .dtype.kind")
            elif "holds_bool" in (attr, getattr(node, "id", None), getattr(node, "name", None)):
                faults.append(f"{path.name}:{node.lineno} uses holds_bool")
            elif id(node) not in cached and (attr == "setflags" or (attr, inner) == (
                    "writeable", "flags") and isinstance(node.ctx, ast.Store)):
                faults.append(f"{path.name}:{node.lineno} sets .flags.writeable")
    assert faults == []


def test_the_closed_forms_hold_no_read_model():
    # which rows a decoder reads, and how they are orthogonalised, are
    # derived in decoders alone; analytic takes them from there
    modules, names = _imports_and_names("analytic")
    assert sorted(m for m in modules if m.split(".")[:2] == ["gkpstab", "symplectic"]) == []
    assert "Decoder" not in names
