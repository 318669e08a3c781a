"""tilesim benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload edge-hits --seed 1 --seconds 35 --trace 0

Run from the repository root. Set-up generates the workload's inputs from
the seed with tilesim.synthetic and the CLI; the timed pipeline runs the
workload's CLI calls, each repetition in a fresh process
(perfbench/pipeline.py). The two are interleaved until --seconds have
passed, set-up repeating whenever it has had less than SETUP_SHARE of the
time so far; `setup_s`, `wall_s` and `peak_rss_mb` are medians over their
repetitions. With --trace 1 the per-layer metrics come from a traced pass
instead.

Output checks run outside the timed region: every repetition's output
files must be byte-identical to the first one's, `tilesim verify` must
accept them, and on the default seed they must match the digests in
perfbench/reference.json. Every CLI invocation and every check is one
attempted operation; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

# Pin BLAS/OpenMP pools to one thread before numpy loads, here and in every
# pipeline process, and fix the string-hash seed so that dict and set layouts
# do not vary between pipeline processes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONHASHSEED"] = "0"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

try:
    import tilesim
    import workloads
except ImportError as e:  # no tilesim sources beside the benchmark
    IMPORT_ERROR: ImportError | None = e
else:
    IMPORT_ERROR = None

DEFAULT_SEED = 1
SETUP_SHARE = 0.3
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 60.0
REFERENCE = os.path.join(HERE, "reference.json")


class Counter:
    """Attempted and failed operations; failures are explained on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok

    def cli(self, codes: list[int], what: str) -> None:
        for code in codes:
            self.check(code == 0, f"{what}: exit code {code}")


def same(a: dict, b: dict) -> list[str]:
    """Paths whose digests differ."""
    return sorted(p for p in set(a) | set(b) if a.get(p) != b.get(p))


def spawn(args: argparse.Namespace, trace: bool, counter: Counter) -> dict | None:
    """Run one pipeline process; None if it failed to report."""
    argv = [sys.executable, os.path.join(HERE, "pipeline.py"),
            "--workload", args.workload, "--seed", str(args.seed)]
    if trace:
        argv.append("--trace")
    if args.tiny:
        argv.append("--tiny")
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        counter.check(False, "pipeline process timed out")
        return None
    lines = stdout.strip().splitlines()
    ok = proc.returncode == 0 and bool(lines)
    if not counter.check(ok, f"pipeline process exit {proc.returncode}"):
        return None
    result = json.loads(lines[-1])
    counter.cli(result["codes"], f"{args.workload} CLI")
    return result


def environment(args: argparse.Namespace) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "threads_env": os.environ["OMP_NUM_THREADS"],
    }


def reference_check(args, outputs: dict, counter: Counter) -> None:
    if args.seed != DEFAULT_SEED or args.tiny or args.record_reference:
        return
    with open(REFERENCE, encoding="utf-8") as f:
        expected = json.load(f).get(args.workload, {})
    bad = same(expected, outputs)
    counter.check(not bad, f"outputs differ from {REFERENCE} for seed {DEFAULT_SEED}: {bad}")


def verify_outputs(wl, counter: Counter) -> None:
    for directory in wl.verify_dirs():
        code = workloads.quiet_cli(["verify", "--out", directory])
        counter.check(code == 0, f"tilesim verify --out {directory}: exit {code}")


def measure(wl, args, counter: Counter) -> tuple[list[float], list[dict], dict]:
    """Set-up times, pipeline repetitions and the first repetition's output
    digests.

    Set-up runs first, and again before a repetition whenever it has had
    less than SETUP_SHARE of the time so far, so that both are sampled over
    the whole run. Repetitions go on while the next one should end by the
    deadline. Every set-up must write the same inputs, and every repetition
    the same outputs, as the first.
    """
    start = time.monotonic()
    deadline = start + args.seconds
    setup_times: list[float] = []
    reps: list[dict] = []
    inputs = outputs = None
    last = 0.0
    while len(reps) < MIN_REPEATS or time.monotonic() + last <= deadline:
        while not setup_times or (
            sum(setup_times) < SETUP_SHARE * (time.monotonic() - start)
            and time.monotonic() < deadline
        ):
            begin = time.perf_counter()
            codes = wl.setup(args.seed)
            setup_times.append(time.perf_counter() - begin)
            counter.cli(codes, f"{args.workload} set-up")
            written = workloads.digests(wl.input_files())
            if inputs is None:
                inputs = written
            else:
                counter.check(not same(inputs, written), "set-up is not deterministic")
        begin = time.monotonic()
        result = spawn(args, False, counter)
        last = time.monotonic() - begin
        if result is None:
            break
        written = workloads.digests(wl.output_files())
        if outputs is None:
            outputs = written
            verify_outputs(wl, counter)
            reference_check(args, outputs, counter)
        else:
            bad = same(outputs, written)
            counter.check(not bad, f"repetition {len(reps)} outputs differ: {bad}")
        reps.append(result)
    return setup_times, reps, outputs or {}


def traced(wl, args, counter: Counter) -> tuple[dict, dict]:
    """Per-layer metrics and the output digests. The traced passes' counts
    must repeat exactly, the expected spans must fire, and tracing must not
    change the outputs."""
    result = spawn(args, True, counter)
    if result is None:
        return {}, {}
    outputs = result["outputs"]
    verify_outputs(wl, counter)
    reference_check(args, outputs, counter)
    bad = same(result["traced_outputs"], outputs)
    counter.check(not bad, f"traced outputs differ from untraced: {bad}")
    missing = result["missing_targets"]
    counter.check(not missing, f"functions not found: {missing}")
    first, second = result["passes"]
    counter.check(not first["missing_spans"], f"spans that never fired: {first['missing_spans']}")
    timings = [name for name in first["metrics"] if name.endswith(("busy_s", "self_s"))]
    moved = [
        name for name, value in first["metrics"].items()
        if name not in timings and value != second["metrics"][name]
    ]
    counter.check(not moved, f"counts differ between traced passes: {moved}")
    metrics = dict(first["metrics"])
    for name in timings:
        metrics[name] = statistics.median([first["metrics"][name], second["metrics"][name]])
    metrics["tracing.overhead_s"] = result["overhead_s"]
    print("traced wall_s: " + " ".join(f"{p['wall_s']:.4f}" for p in result["passes"])
          + ", untraced: " + " ".join(f"{w:.4f}" for w in result["untraced_wall_s"]))
    return metrics, outputs


def per_layer_units() -> dict[str, str]:
    """Per-layer metric names and units, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description="tilesim benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs (self-test)")
    parser.add_argument("--record-reference", action="store_true",
                        help=f"store this run's output digests in {REFERENCE}")
    args = parser.parse_args()

    if IMPORT_ERROR is not None:
        print(f"perfbench: cannot import tilesim from {SRC}: {IMPORT_ERROR}", file=sys.stderr)
        return 1
    if not os.path.abspath(tilesim.__file__).startswith(SRC + os.sep):
        print(f"perfbench: tilesim resolved to {tilesim.__file__}, not {SRC}", file=sys.stderr)
        return 1
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    os.chdir(ROOT)
    env = environment(args)
    print("environment: " + json.dumps(env, sort_keys=True))
    wl = workloads.get(args.workload, args.tiny)
    counter = Counter()

    if args.trace:
        units = per_layer_units()
        values, outputs = traced(wl, args, counter)
        if values:
            missing = sorted(set(units) - set(values))
            extra = sorted(set(values) - set(units))
            counter.check(not missing and not extra,
                          f"per-layer metrics differ from BENCHMARK.json: "
                          f"missing {missing}, extra {extra}")
        metrics = {name: {"value": values.get(name, 0), "unit": unit}
                   for name, unit in units.items()}
    else:
        setup_times, reps, outputs = measure(wl, args, counter)
        walls = [r["wall_s"] for r in reps] or [0.0]
        rss = [r["peak_rss_mb"] for r in reps] or [0.0]
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        }
        print(f"wall_s samples ({len(walls)}): " + " ".join(f"{w:.4f}" for w in walls))
        print("cpu_s samples: " + " ".join(f"{r['cpu_s']:.4f}" for r in reps))
        print(f"setup_s samples ({len(setup_times)}): " + " ".join(f"{t:.4f}" for t in setup_times))
    if args.record_reference and counter.failed == 0 and outputs:
        recorded = {}
        if os.path.exists(REFERENCE):
            with open(REFERENCE, encoding="utf-8") as f:
                recorded = json.load(f)
        recorded[args.workload] = outputs
        with open(REFERENCE, "w", encoding="utf-8") as f:
            json.dump(recorded, f, indent=2, sort_keys=True)
            f.write("\n")

    for name, metric in metrics.items():
        print(f"{name}: {metric['value']} {metric['unit']}")
    fail_ratio = counter.failed / max(counter.attempted, 1)
    print(f"fail_ratio: {fail_ratio} ratio "
          f"({counter.failed} failed / {counter.attempted} attempted)")
    result = {
        "correct": counter.failed == 0,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": metrics,
    }
    os.makedirs(os.path.join(workloads.WORK_ROOT, "results"), exist_ok=True)
    record = os.path.join(
        workloads.WORK_ROOT, "results",
        f"{args.workload}{'-tiny' if args.tiny else ''}-seed{args.seed}-trace{args.trace}.json",
    )
    with open(record, "w", encoding="utf-8") as f:
        json.dump({"environment": env, "result": result}, f, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
