"""One workload pipeline in a fresh interpreter; run by run.py.

Untraced, it times the workload's CLI commands and reports the wall time,
the process CPU time and the process's peak resident memory. A fresh
process per pipeline makes that peak the pipeline's own (plus the
interpreter and its imports), not a high-water mark left by set-up or by an
earlier repetition.

With --trace it installs the span tracer, repeats set-up under it, runs the
pipeline twice under it and twice without it, in the order untraced,
traced, traced, untraced. It reports the per-layer metrics of both traced
passes, the tracing overhead (traced minus untraced median wall time, from
this one process) and the output digests of both kinds of pass. The last
line of stdout is one JSON object.

    python3 perfbench/pipeline.py --workload edge-hits --seed 1 [--trace] [--tiny]
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_commands(wl: workloads.Workload, seed: int) -> tuple[float, float, list[int]]:
    """Wall and process CPU seconds of the workload's CLI calls, and their
    exit codes."""
    wl.prepare()
    commands = wl.commands(seed)
    cpu = time.process_time()
    start = time.perf_counter()
    codes = [workloads.quiet_cli(argv) for argv in commands]
    return time.perf_counter() - start, time.process_time() - cpu, codes


def mechanism_switches(wl: workloads.Workload) -> int:
    """Changes of the `active` column between consecutive segments of one
    (policy, iteration) session in segments.csv."""
    path = os.path.join(wl.out, "segments.csv")
    if not os.path.exists(path):
        return 0
    switches = 0
    previous = None
    with open(path, encoding="utf-8", newline="") as f:
        for row in csv.DictReader(f):
            session = (row["policy"], row["iteration"])
            if previous is not None and previous[0] == session and previous[1] != row["active"]:
                switches += 1
            previous = (session, row["active"])
    return switches


def traced_passes(wl: workloads.Workload, seed: int) -> dict:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.phase = "setup"
        codes = wl.setup(seed)
    finally:
        tracer.uninstall()
    setup_spans = len(tracer.names)
    tracer.phase = "pipeline"
    passes, untraced = [], []
    traced_outputs: dict = {}
    # Untraced, traced, traced, untraced: a steady drift of the host's speed
    # over the four passes cancels out of the overhead.
    for traced in (False, True, True, False):
        if not traced:
            wall, _, pipeline_codes = run_commands(wl, seed)
            codes += pipeline_codes
            untraced.append(wall)
            continue
        tracer.truncate(setup_spans)
        tracer.install()
        try:
            wall, _, pipeline_codes = run_commands(wl, seed)
        finally:
            tracer.uninstall()
        codes += pipeline_codes
        calls = tracing.span_calls(tracer)
        passes.append(
            {
                "wall_s": wall,
                "metrics": tracing.layer_metrics(tracer, mechanism_switches(wl)),
                "missing_spans": [
                    name
                    for name in tracing.EXPECTED_SPANS[wl.name]
                    if calls.get(name, 0) == 0
                ],
            }
        )
        if len(passes) == 1:
            tracer.write_spans(os.path.join(wl.root, "spans.csv"))
        traced_outputs = workloads.digests(wl.output_files())
    traced_wall = statistics.median(p["wall_s"] for p in passes)
    return {
        "codes": codes,
        "passes": passes,
        "missing_targets": tracer.missing,
        "overhead_s": traced_wall - statistics.median(untraced),
        "untraced_wall_s": untraced,
        "traced_outputs": traced_outputs,
        "outputs": workloads.digests(wl.output_files()),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    wl = workloads.get(args.workload, args.tiny)
    if args.trace:
        result = traced_passes(wl, args.seed)
    else:
        wall, cpu, codes = run_commands(wl, args.seed)
        result = {
            "codes": codes,
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
