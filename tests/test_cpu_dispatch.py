"""Outputs must not depend on which of numpy's CPU code paths runs.

numpy picks its `arctan2` and `arcsin` loops by CPU when it is imported, and
the visibility kernel turns every FoV sample back into angles with them. On
a host with AVX-512 their last bits differ between dispatch groups, so a
tile edge could move a sample, and the kernel's float32 pass relies on its
float32 loops staying within a bound. The prediction errors' orthodromic
distance takes numpy's `cross` and stacked `matmul`. This reruns the
full-size reference-digest runs, the scalar-kernel oracle, the float32
pass's bound and the prediction-error oracle in a child process whose
environment alone sets NPY_DISABLE_CPU_FEATURES to every dispatch group the
host's numpy reports, so the child runs numpy's baseline loops. A BLAS
library that numpy calls, as the float32 pass's matmul does, picks its own
kernels, which this does not turn off.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RERUN = [
    "tests/test_perfbench.py::test_full_size_run_matches_the_reference_digests",
    "tests/test_oracles.py::test_tile_visibility_rows_match_the_scalar_kernel",
    "tests/test_geometry.py::test_float32_pass_angles_stay_within_a_hundredth_of_the_filter_bound",
    "tests/test_oracles.py::test_error_experiment_matches_the_per_step_loop",
]


def found_groups(env: dict) -> list[str]:
    """The SIMD groups above the baseline that `np.show_runtime()` lists as
    found, in a child process with environment `env`."""
    child = subprocess.run(
        [sys.executable, "-c", "import numpy; numpy.show_runtime()"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    found = re.search(r"'found': \[([^\]]*)\]", child.stdout)
    return re.findall(r"'(\w+)'", found.group(1)) if found else []


def test_digests_and_kernel_oracle_hold_with_numpy_dispatch_turned_off():
    groups = found_groups(dict(os.environ))
    if not groups:
        pytest.skip("numpy reports no dispatch group above its baseline on this host")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(groups))
    assert found_groups(env) == [], "the child still dispatches above the baseline"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *RERUN],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
