"""The benchmark's contract with the package.

perfbench/tracing.py wraps named functions of tilesim and reads some of
their arguments and results, so a change to the package can break the
traced benchmark while every unit test passes. This runs the benchmark's
own self-test: every workload at its smallest size, untraced and traced.
The self-test's small inputs have no reference digests, so each workload
also runs once traced at full size on the default seed, where its outputs
must match perfbench/reference.json (digests recorded on one host, so this
test depends on the host as they do).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_benchmark_selftest_passes_traced_and_untraced():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_full_size_run_matches_the_reference_digests(workload):
    """run.py's traced mode checks the digests, that two traced passes count
    the same, that the expected spans fire and that tracing changes no
    output."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
