"""The modules are the package's API: each imports on its own, in a fresh
interpreter, the package root imports none of them, and none reads
another's private names."""

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
