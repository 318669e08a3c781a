"""Outputs must not depend on which of numpy's CPU code paths runs.

numpy picks its `arctan2` and `arcsin` loops by CPU when it is imported, and
the visibility kernel turns every FoV sample back into angles with them. On
a host with AVX-512 their last bits differ between dispatch groups, so a
tile edge could move a sample, and the kernel's float32 pass relies on its
float32 loops staying within a bound. The prediction errors' orthodromic
distance takes numpy's `cross` and stacked `matmul`. The first test reruns
the full-size reference-digest runs, the scalar-kernel oracle, the float32
pass's bound, the exact-heat tie test and the prediction-error oracle in a
child process whose environment alone sets NPY_DISABLE_CPU_FEATURES to every
dispatch group the host's numpy reports, so the child runs numpy's baseline
loops.

A BLAS library that numpy calls picks its own kernels, which that does not
turn off. The float32 pass rotates with a matmul, and the orthodromic
distance's stacked matmuls are BLAS dot products. The second test reruns the
kernel's oracle, bound and exact-heat tie test and the `edge-hits` and
`dense-churn` digest runs with OpenBLAS also held to its Sandybridge kernel.
It leaves out the `trace-analysis` digest run: OpenBLAS's Sandybridge and
Haswell kernels round a length-3 dot as the plain sum where the SkylakeX
kernel, under which `perfbench/reference.json` was recorded, fuses it, so 52
of the 306 prediction-error rows differ in their last bit.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = "tests/test_perfbench.py::test_full_size_run_matches_the_reference_digests"
KERNEL = [
    "tests/test_oracles.py::test_tile_visibility_rows_match_the_scalar_kernel",
    "tests/test_geometry.py::test_float32_pass_angles_stay_within_a_hundredth_of_the_filter_bound",
    "tests/test_cli.py::TestPopularity::test_equal_sample_counts_tie_by_tile_index",
]
RERUN = [
    DIGESTS,
    *KERNEL,
    "tests/test_oracles.py::test_error_experiment_matches_the_per_step_loop",
]
BLAS_RERUN = [*KERNEL, f"{DIGESTS}[edge-hits]", f"{DIGESTS}[dense-churn]"]


def found_groups(env: dict) -> list[str]:
    """The SIMD groups above the baseline that `np.show_runtime()` lists as
    found, in a child process with environment `env`."""
    child = subprocess.run(
        [sys.executable, "-c", "import numpy; numpy.show_runtime()"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    found = re.search(r"'found': \[([^\]]*)\]", child.stdout)
    return re.findall(r"'(\w+)'", found.group(1)) if found else []


def baseline_env() -> dict:
    """This environment with NPY_DISABLE_CPU_FEATURES set to every group
    numpy finds above its baseline; skips when it finds none."""
    groups = found_groups(dict(os.environ))
    if not groups:
        pytest.skip("numpy reports no dispatch group above its baseline on this host")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(groups))
    assert found_groups(env) == [], "the child still dispatches above the baseline"
    return env


def rerun(env: dict, tests: list[str]) -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_digests_and_kernel_oracle_hold_with_numpy_dispatch_turned_off():
    rerun(baseline_env(), RERUN)


def test_kernel_and_run_digests_hold_under_openblas_sandybridge_kernels():
    env = dict(baseline_env(), OPENBLAS_CORETYPE="Sandybridge")
    core = subprocess.run(
        [sys.executable, "-c", "import numpy"], env=dict(env, OPENBLAS_VERBOSE="2"),
        capture_output=True, text=True, timeout=60, check=True,
    ).stderr
    if "Core: Sandybridge" not in core:
        pytest.skip(f"numpy's BLAS does not report OpenBLAS's Sandybridge core: {core!r}")
    rerun(env, BLAS_RERUN)
