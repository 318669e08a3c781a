"""The benchmark's contract with the package.

perfbench/tracing.py wraps named functions of tilesim and reads some of
their arguments and results, so a change to the package can break the
traced benchmark while every unit test passes. This runs the benchmark's
own self-test: every workload at its smallest size, untraced and traced.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes_traced_and_untraced():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
