"""The modules are the package's API: each imports on its own, in a fresh
interpreter, the package root imports none of them, and none reads
another's private names; a defaulted parameter is a setting some
program sets, and an imported name is one the module reads."""

import ast
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import tilesim
from helpers import checkout_env

MODULES = sorted(m.name for m in pkgutil.iter_modules(tilesim.__path__))


def child(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        capture_output=True, text=True, env=checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_on_its_own(module):
    child(f"import tilesim.{module}")


def test_root_imports_no_module():
    code = "import sys, tilesim; print(sorted(k for k in sys.modules if k.startswith('tilesim.')))"
    assert child(code) == "[]\n"


def test_no_module_reads_another_modules_private_name():
    """A module reaches another only through its public names: no
    `<tilesim module>._name` and no `from .x import _name`. Dunders are
    exempt."""

    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    found = []
    for module in MODULES:
        path = Path(tilesim.__path__[0]) / f"{module}.py"
        tree = ast.parse(path.read_text(), str(path))
        bound = set()  # local names of imported tilesim modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "tilesim"):
                for alias in node.names:
                    if private(alias.name):
                        found.append(f"{module}:{node.lineno}: imports {alias.name}")
                    elif node.module in (None, "tilesim"):
                        bound.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and private(node.attr)
                    and isinstance(node.value, ast.Name) and node.value.id in bound):
                found.append(f"{module}:{node.lineno}: reads {node.value.id}.{node.attr}")
    assert not found


def test_every_defaulted_parameter_has_a_program_caller():
    """Each defaulted parameter of a module-level public function is passed,
    by keyword or by position, by some call in `src/tilesim` or `perfbench/`:
    a setting that no program sets is not a setting. Calls match by the
    callee's name, and `partial(f, ...)` counts as a call of `f`."""

    def name(func):
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

    package = Path(tilesim.__path__[0])
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    program = [*package.glob("*.py"), *perfbench.glob("*.py")]
    passed = {}  # callee name -> (most positional arguments, keywords) over its calls
    for path in program:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if name(func) == "partial" and args:
                func, args = args[0], args[1:]
            most, keywords = passed.get(name(func), (0, set()))
            passed[name(func)] = (max(most, len(args)), keywords | {k.arg for k in node.keywords})
    unset = []
    for module in MODULES:
        tree = ast.parse((package / f"{module}.py").read_text())
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            a = fn.args
            params = a.posonlyargs + a.args
            defaulted = list(enumerate(p.arg for p in params))[len(params) - len(a.defaults):]
            defaulted += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d]
            most, keywords = passed.get(fn.name, (0, set()))
            unset += [f"{fn.name}.{arg}" for i, arg in defaulted
                      if arg not in keywords and (i is None or most <= i)]
    assert not unset


def test_every_imported_name_is_read():
    """Each name a module imports is read somewhere in that module: no stale
    import outlives the code that used it. `__future__` imports are exempt."""
    unused = []
    for module in MODULES:
        path = Path(tilesim.__path__[0]) / f"{module}.py"
        tree = ast.parse(path.read_text(), str(path))
        imported = {}  # bound name -> line of its import
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        read = {
            n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        unused += [f"{module}:{line}: {name}" for name, line in imported.items()
                   if name not in read]
    assert not unused
