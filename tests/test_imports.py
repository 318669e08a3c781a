"""The modules are the package's API: each imports on its own, in a fresh
interpreter, and the package root imports none of them."""

import pkgutil
import subprocess
import sys

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
