"""Command-line front end.

Subcommands: synth, popularity, predict-error, run, verify. All outputs are
deterministic for identical flags and seed: floats are written with full
repr precision and every file is produced in a fixed order.

Exit codes: 0 success, 2 bad flags or unreadable/invalid inputs (the
diagnostic names the flag), 1 runtime failures and verification mismatches.
The TILESIM_OUT environment variable supplies the default output directory
and nothing else.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import manifest as manifest_mod
from . import netsim, playback, popularity, prediction, traceio
from .adaptation import PolicyKind
from .cachesim import EvictionPolicy
from .geometry import FovSpec, TileGrid
from .manifest import file_count

_ENV_OUT = "TILESIM_OUT"


class UsageError(Exception):
    """Bad flag value or unusable input file; exits with code 2."""


def _fmt(value) -> str:
    return "" if value is None else str(value)  # a float's str is its full-precision repr


def _write_csv(path: str, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def _not_utf8(e: UnicodeDecodeError) -> str:
    return f"not UTF-8 text ({e.reason} at byte {e.start})"


def _checked(source: str, convert: Callable, value):
    """convert(value), with a ValueError reported against `source`."""
    try:
        return convert(value)
    except ValueError as e:
        raise UsageError(f"{source}: {e}") from None


def _parse_grid(text: str) -> TileGrid:
    try:
        cols, rows = text.lower().split("x")
        return TileGrid(cols=int(cols), rows=int(rows))
    except (ValueError, TypeError):
        raise UsageError(f"--grid: expected COLSxROWS, got {text!r}") from None


def _parse_fov(text) -> FovSpec:
    try:
        h, v = str(text).lower().split("x")
        return FovSpec(h_deg=float(h), v_deg=float(v))
    except ValueError:
        raise ValueError(f"expected HxV degrees, got {text!r}") from None


def _parse_floats_list(flag: str, text: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"{flag}: expected comma-separated numbers, got {text!r}") from None
    if not values:
        raise UsageError(f"{flag}: empty list")
    return values


def _parse_policies(names) -> list[PolicyKind]:
    """A comma-separated string, or a list in a config file."""
    if isinstance(names, list):
        names = ",".join(map(str, names))
    out = []
    for name in str(names).split(","):
        name = name.strip()
        if not name:
            continue
        try:
            policy = PolicyKind(name)
        except ValueError:
            valid = ", ".join(p.value for p in PolicyKind)
            raise ValueError(f"unknown policy {name!r} (valid: {valid})") from None
        if policy in out:
            raise ValueError(f"policy {name!r} listed twice")
        out.append(policy)
    if not out:
        raise ValueError("empty list")
    return out


def _load_manifest(flag: str, path: str):
    try:
        return manifest_mod.load(path)
    except OSError as e:
        raise UsageError(f"{flag}: cannot read {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise UsageError(f"{flag}: {path}: {_not_utf8(e)}") from None
    except manifest_mod.ManifestError as e:
        raise UsageError(f"{flag}: {path}: {e}") from None


def _read_traces(path: str, read: Callable):
    """read(path), reporting an unreadable or malformed trace against --traces."""
    try:
        return read(path)
    except OSError as e:
        raise UsageError(f"--traces: cannot read {path}: {e}") from None
    except traceio.ViewingTraceError as e:
        raise UsageError(f"--traces: {e}") from None


def _load_network(flag: str, path: str, scale_factor: float) -> netsim.NetworkTrace:
    try:
        trace = netsim.load_trace(path)
    except OSError as e:
        raise UsageError(f"{flag}: cannot read {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise UsageError(f"{flag}: {path}: {_not_utf8(e)}") from None
    except netsim.TraceError as e:
        raise UsageError(f"{flag}: {e}") from None
    if scale_factor != 1.0:
        try:
            trace = netsim.scale(trace, scale_factor)
        except ValueError as e:
            raise UsageError(f"--network-scale: {e}") from None
    return trace


def _path(value):
    if not value:
        raise ValueError("required (flag or config file)")
    if not isinstance(value, str):
        raise ValueError(f"expected a path, got {value!r}")
    return value


def _default_out(value: str | None) -> str:
    if value:
        return _path(value)
    env = os.environ.get(_ENV_OUT)
    if env:
        return env
    raise UsageError(f"--out: required (or set {_ENV_OUT})")


# --- synth -------------------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> int:
    grid = _parse_grid(args.grid)
    for flag, value in (
        ("--duration", args.duration),
        ("--segment-length", args.segment_length),
        ("--base-bitrate", args.base_bitrate),
    ):
        if not (math.isfinite(value) and value > 0):
            raise UsageError(f"{flag}: must be finite and positive")
    if args.qualities < 1:
        raise UsageError("--qualities: must be >= 1")
    if not 0.0 <= args.variability < 1.0:
        raise UsageError("--variability: must be in [0, 1)")
    m = manifest_mod.synthesize(
        name=args.name,
        duration=args.duration,
        segment_length=args.segment_length,
        grid=grid,
        quality_count=args.qualities,
        base_bitrate_bps=args.base_bitrate,
        variability=args.variability,
        seed=args.seed,
    )
    manifest_mod.save(m, args.out)
    files = file_count(
        grid.cols, grid.rows, args.qualities, args.duration, args.segment_length
    )
    print(f"wrote {args.out}")
    print(
        f"{grid.cols}x{grid.rows} tiles, {args.qualities} levels, "
        f"{m.segment_count} segments: a packager would emit {files} files"
    )
    return 0


# --- popularity --------------------------------------------------------------


def cmd_popularity(args: argparse.Namespace) -> int:
    m = _load_manifest("--manifest", args.manifest)
    traces = _read_traces(args.traces, traceio.load_trace_dir)
    fov = _checked("--fov", _parse_fov, args.fov)
    if args.samples < 1:
        raise UsageError("--samples: must be >= 1")
    if args.budget is not None and not (math.isfinite(args.budget) and args.budget >= 0):
        raise UsageError("--budget: must be finite and >= 0")
    heat = popularity.build_heat(
        traces,
        m.grid,
        fov,
        m.segment_length,
        m.duration,
        samples_per_axis=args.samples,
    )
    budget = args.budget if args.budget is not None else popularity.default_budget_bps(m)
    m.popularity = popularity.quantize(heat, m, budget)
    manifest_mod.save(m, args.manifest)
    mean_level = float(m.popularity.mean())
    print(
        f"embedded popularity trace from {len(traces)} traces "
        f"(budget {budget:.0f} bit/s, mean level {mean_level:.3f}) into {args.manifest}"
    )
    return 0


# --- predict-error -----------------------------------------------------------

STEP_COLUMNS = {  # column -> parser that reads its cell back
    "trace": str, "interval": float, "timeframe": float, "step": int, "error_deg": float,
}
PRED_SUMMARY_COLUMNS = ["trace", "interval", "timeframe", "steps", "mean_deg", "std_deg"]


def prediction_summary_rows(step_rows: list[dict]) -> list[dict]:
    """Aggregate per-step error rows; shared with the verifier."""
    out = []
    groups = playback.group_rows(step_rows, "trace", "interval", "timeframe")
    for (trace, interval, timeframe), mine in groups.items():
        errors = np.array([r["error_deg"] for r in mine])
        out.append(
            {
                "trace": trace,
                "interval": interval,
                "timeframe": timeframe,
                "steps": int(errors.size),
                "mean_deg": float(errors.mean()),
                "std_deg": float(errors.std()),
            }
        )
    return out


def cmd_predict_error(args: argparse.Namespace) -> int:
    out_dir = _default_out(args.out)
    intervals = _parse_floats_list("--intervals", args.intervals)
    timeframes = _parse_floats_list("--timeframes", args.timeframes)
    # NaN fails every comparison, so these also reject it.
    if not all(0.0 <= x < math.inf for x in intervals):
        raise UsageError("--intervals: must be finite and >= 0")
    if not all(0.0 < x < math.inf for x in timeframes):
        raise UsageError("--timeframes: must be finite and positive")
    if not 0.0 < args.step < math.inf:
        raise UsageError("--step: must be finite and positive")
    names = _read_traces(args.traces, traceio.trace_files)
    step_rows = []
    for name in names:
        path = os.path.join(args.traces, name)
        trace = _read_traces(path, traceio.load_viewing_trace)
        for interval in intervals:
            for timeframe in timeframes:
                try:
                    errors = prediction.error_experiment(
                        trace, interval, timeframe, args.step
                    )
                except ValueError as e:
                    raise UsageError(
                        f"--traces: {path} (interval {interval}, timeframe "
                        f"{timeframe}): {e}"
                    ) from None
                for k, err in enumerate(errors):
                    step_rows.append(
                        {
                            "trace": name,
                            "interval": interval,
                            "timeframe": timeframe,
                            "step": k,
                            "error_deg": float(err),
                        }
                    )
    os.makedirs(out_dir, exist_ok=True)
    derived = _write_outputs(out_dir, "prediction_error_steps.csv", step_rows)
    summary = derived["prediction_error_summary.csv"]
    print(
        f"wrote {len(step_rows)} step errors over {len(summary)} (trace, interval, "
        f"timeframe) combinations to {out_dir}"
    )
    return 0


# --- output CSVs -------------------------------------------------------------

# Source CSV -> (its {column: parser}, its derived CSVs as (name, columns,
# derive)); read by the writers and by `verify`. Each derive function is looked
# up on its module at call time, so a wrapper set on that attribute sees it.
OUTPUTS = {
    "segments.csv": (
        playback.SEGMENT_COLUMNS,
        (
            ("policy_summary.csv", playback.SUMMARY_COLUMNS,
             lambda rows: playback.policy_summary_rows(rows)),
            ("popularity_share.csv", playback.SHARE_COLUMNS,
             lambda rows: playback.popularity_share_rows(rows)),
            ("estimates.csv", playback.ESTIMATE_COLUMNS,
             lambda rows: playback.estimate_rows(rows)),
        ),
    ),
    "prediction_error_steps.csv": (
        STEP_COLUMNS,
        (
            ("prediction_error_summary.csv", PRED_SUMMARY_COLUMNS,
             lambda rows: prediction_summary_rows(rows)),
        ),
    ),
}


def _write_outputs(out_dir: str, source: str, rows: list[dict]) -> dict[str, list[dict]]:
    """Write a source CSV and its derived CSVs; returns the derived rows by name."""
    parsers, derived = OUTPUTS[source]
    _write_csv(os.path.join(out_dir, source), list(parsers), rows)
    out = {}
    for name, columns, derive in derived:
        out[name] = derive(rows)
        _write_csv(os.path.join(out_dir, name), columns, out[name])
    return out


# --- run ---------------------------------------------------------------------


@dataclass(frozen=True)
class _Number:
    """Converts a setting to `kind` and requires low <= value < inf, or
    low < value < inf when `strict`. NaN fails both comparisons."""

    kind: type
    low: float = -math.inf
    strict: bool = False

    def __call__(self, value):
        try:
            x = self.kind(value)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"expected {self.kind.__name__}, got {value!r}") from None
        if not ((x > self.low if self.strict else x >= self.low) and x < math.inf):
            op = ">" if self.strict else ">="
            raise ValueError(
                f"expected finite {self.kind.__name__} {op} {self.low:g}, got {value!r}"
            )
        return x


def _cache_policy(value):
    if not value:
        return None
    try:
        return EvictionPolicy(value)
    except ValueError:
        valid = ", ".join(p.value for p in EvictionPolicy)
        raise ValueError(f"unknown policy {value!r} (valid: {valid})") from None


class Setting(NamedTuple):
    """One `run` setting: its flag, its config-file key, its default, its help
    and the converter that checks a value from either source."""

    flag: str
    key: str
    default: object
    help: str
    convert: Callable


RUN_SETTINGS = (
    Setting("--manifest", "manifest", None,
            "manifest JSON (needs popularity for some policies); required", _path),
    Setting("--traces", "traces", None, "directory of viewing-trace CSVs; required", _path),
    Setting("--network", "network", None,
            "packet-trace file (1500-byte slots, ms per line); required", _path),
    Setting("--network-scale", "network_scale", 1.0, "throughput scale factor",
            _Number(float, 0.0, strict=True)),
    Setting("--policies", "policies", "transition",
            "comma-separated: naive,prediction,popularity,prediction-ba,transition",
            _parse_policies),
    Setting("--iterations", "iterations", 1, "runs per policy", _Number(int, 1)),
    Setting("--seed", "seed", 0, "experiment seed", _Number(int)),
    Setting("--cache-policy", "cache_policy", None,
            "lru, lfuda, or gdsf; without one there is no cache", _cache_policy),
    Setting("--cache-capacity", "cache_capacity_bytes", 0, "cache bytes; 0 = no cache",
            _Number(int, 0)),
    Setting("--cache-rate", "cache_rate_bps", 100e6, "cache-to-client bit/s",
            _Number(float, 0.0, strict=True)),
    Setting("--warm-traces", "warm_traces", 30, "viewings replayed to warm the cache",
            _Number(int, 0)),
    Setting("--fov", "fov", "100x100", "field of view HxV degrees", _parse_fov),
    Setting("--timeframe", "timeframe", 0.1, "regression window seconds",
            _Number(float, 0.0, strict=True)),
    Setting("--samples", "samples_per_axis", 32, "visibility samples per axis",
            _Number(int, 1)),
    Setting("--hysteresis", "hysteresis", 1.0, "transition hysteresis", _Number(float, 1.0)),
    Setting("--out", "out", None, f"output directory (default: ${_ENV_OUT})", _default_out),
)


def _run_settings(args: argparse.Namespace) -> tuple[dict, dict]:
    """Each `run` setting as given (flags > config file > defaults) and as
    converted and checked; a bad value names its flag or config key."""
    doc = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as f:
                doc = json.load(f)
        except OSError as e:
            raise UsageError(f"--config: cannot read {args.config}: {e}") from None
        except UnicodeDecodeError as e:
            raise UsageError(f"--config: {args.config}: {_not_utf8(e)}") from None
        except json.JSONDecodeError as e:
            raise UsageError(f"--config: {args.config} is not valid JSON: {e}") from None
        if not isinstance(doc, dict):
            raise UsageError("--config: expected a JSON object")
        unknown = set(doc) - {s.key for s in RUN_SETTINGS}
        if unknown:
            raise UsageError(f"--config: unknown keys {sorted(unknown)}")
    given, checked = {}, {}
    for s in RUN_SETTINGS:
        source = s.flag
        value = getattr(args, s.key)
        if value is None:
            if s.key in doc:
                value, source = doc[s.key], f"--config: {s.key}"
            else:
                value = s.default
        given[s.key] = value
        checked[s.key] = _checked(source, s.convert, value)
    return given, checked


def cmd_run(args: argparse.Namespace) -> int:
    spec, run = _run_settings(args)
    out_dir = run["out"]
    m = _load_manifest("--manifest", run["manifest"])
    traces = _read_traces(run["traces"], traceio.load_trace_dir)
    network = _load_network("--network", run["network"], run["network_scale"])
    needs_popularity = {PolicyKind.POPULARITY, PolicyKind.TRANSITION} & set(run["policies"])
    if needs_popularity and not m.has_popularity:
        raise UsageError(
            "--policies: popularity/transition need a manifest with a popularity "
            "trace; run `tilesim popularity` first"
        )
    # Iteration i replays traces[i % len], and `simulate` needs each
    # replayed trace to span the regression window.
    for i, trace in enumerate(traces[: run["iterations"]]):
        span = trace.t.item(-1) - trace.t.item(0)
        if span < run["timeframe"]:
            path = os.path.join(run["traces"], traceio.trace_files(run["traces"])[i])
            raise UsageError(
                f"--traces: {path} spans {span:.3f}s, shorter than the "
                f"{run['timeframe']}s --timeframe window"
            )
    report = playback.run_experiment(
        manifest=m,
        viewing_traces=traces,
        network_trace=network,
        policies=run["policies"],
        iterations=run["iterations"],
        cache_policy=run["cache_policy"],
        cache_capacity_bytes=run["cache_capacity_bytes"],
        seed=run["seed"],
        warm_trace_count=run["warm_traces"],
        fov=run["fov"],
        predictor=prediction.PredictorConfig(timeframe=run["timeframe"]),
        samples_per_axis=run["samples_per_axis"],
        cache_rate_bps=run["cache_rate_bps"],
        hysteresis=run["hysteresis"],
    )

    os.makedirs(out_dir, exist_ok=True)
    rows = playback.segment_rows(report)
    summary_rows = _write_outputs(out_dir, "segments.csv", rows)["policy_summary.csv"]
    gain = report.quality_gain_percent()
    summary = {
        "spec": spec,
        "network_average_bps": network.average_bps(),
        "policies": summary_rows,
        "quality_gain_transition_over_prediction_ba_percent": gain,
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")

    print(f"network: {network.average_bps() / 1e6:.2f} Mbit/s average after scaling")
    for row in summary_rows:
        print(
            f"{row['policy']:>14}: stall {row['stall_mean']:.3f}s (std {row['stall_std']:.3f}), "
            f"quality {row['quality_mean']:.3f}, savings {row['savings_mean'] * 100:.1f}%"
        )
    if gain is not None:
        print(f"transition avg-quality gain over prediction-ba: {gain:+.2f}%")
    print(f"wrote segments/policy_summary/popularity_share/estimates CSV + summary.json to {out_dir}")
    return 0


# --- verify ------------------------------------------------------------------


def _read_csv(path: str) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """A CSV's header ([] when empty) and each other row with its line number;
    a file that cannot be opened or decoded is a UsageError naming it."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            reader = csv.reader(f)
            header = next(reader, [])
            return header, [(reader.line_num, cells) for cells in reader]
    except OSError as e:
        raise UsageError(f"{path}: cannot read: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise UsageError(f"{path}: {_not_utf8(e)}") from None


def _read_source(path: str, parsers: dict[str, Callable]) -> list[dict]:
    """A source CSV's rows read back by `parsers`; any defect is a UsageError
    naming the file, and the line where it has one."""
    header, raw = _read_csv(path)
    if header != list(parsers):
        raise UsageError(f"{path}: header {header} != expected {list(parsers)}")
    rows = []
    for line, cells in raw:
        if len(cells) != len(header):
            raise UsageError(f"{path}:{line}: {len(cells)} cells, expected {len(header)}")
        rows.append({
            column: _checked(f"{path}:{line}: {column}", parse, cell)
            for (column, parse), cell in zip(parsers.items(), cells)
        })
    return rows


def _compare(path: str, columns: list[str], expected: list[dict]) -> list[str]:
    """Up to five ways a derived CSV differs from its recomputed rows."""
    try:
        header, raw = _read_csv(path)
    except UsageError as e:
        return [str(e)]
    if header != columns:
        return [f"{path}: header {header} != expected {columns}"]
    want = [[_fmt(row[c]) for c in columns] for row in expected]
    if len(raw) != len(want):
        return [f"{path}: {len(raw)} rows, recomputed {len(want)}"]
    diffs = [(line, got, exp) for (line, got), exp in zip(raw, want) if got != exp]
    return [f"{path}:{line}: {got} != recomputed {exp}" for line, got, exp in diffs[:5]]


def cmd_verify(args: argparse.Namespace) -> int:
    out_dir = _default_out(args.out)
    if not os.path.isdir(out_dir):
        raise UsageError(f"--out: {out_dir} is not a directory")
    problems: list[str] = []
    checked = 0
    for source, (parsers, derived) in OUTPUTS.items():
        path = os.path.join(out_dir, source)
        if not os.path.exists(path):
            continue
        rows = _read_source(path, parsers)
        for name, columns, derive in derived:
            problems += _compare(os.path.join(out_dir, name), columns, derive(rows))
        checked += len(derived)
    if checked == 0:
        raise UsageError(f"--out: {out_dir} holds no verifiable outputs")
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        print(f"verify: {len(problems)} mismatch(es)", file=sys.stderr)
        return 1
    print(f"verify: {checked} derived file(s) match their sources")
    return 0


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tilesim",
        description=(
            "Trace-driven simulator for tiled 360-degree video streaming: "
            "viewport prediction, popularity-based adaptation, edge caching, "
            "and bandwidth-triggered transitions between mechanisms."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a tiled-video manifest")
    p.add_argument("--out", required=True, help="manifest JSON path to write")
    p.add_argument("--name", default="synthetic", help="video name (default: %(default)s)")
    p.add_argument("--duration", type=float, default=40.0, help="seconds (default: %(default)s)")
    p.add_argument(
        "--segment-length", type=float, default=1.5, help="seconds (default: %(default)s)"
    )
    p.add_argument("--grid", default="4x4", help="tile grid COLSxROWS (default: %(default)s)")
    p.add_argument("--qualities", type=int, default=3, help="quality levels (default: %(default)s)")
    p.add_argument(
        "--base-bitrate",
        type=float,
        default=20e6,
        help="bit/s of a tile at the top level (default: %(default)s)",
    )
    p.add_argument(
        "--variability",
        type=float,
        default=0.0,
        help="per-(segment,tile) size jitter in [0,1) (default: %(default)s)",
    )
    p.add_argument("--seed", type=int, default=0, help="size-jitter seed (default: %(default)s)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser(
        "popularity", help="build a popularity trace from viewing traces into a manifest"
    )
    p.add_argument("--manifest", required=True, help="manifest JSON to update in place")
    p.add_argument("--traces", required=True, help="directory of viewing-trace CSVs")
    p.add_argument(
        "--budget",
        type=float,
        default=None,
        help="bit/s quantization budget (default: 25%% of tiles at top + rest lowest)",
    )
    p.add_argument("--fov", default="100x100", help="field of view HxV degrees (default: %(default)s)")
    p.add_argument(
        "--samples", type=int, default=32, help="visibility samples per axis (default: %(default)s)"
    )
    p.set_defaults(func=cmd_popularity)

    p = sub.add_parser("predict-error", help="viewport prediction error experiment")
    p.add_argument("--traces", required=True, help="directory of viewing-trace CSVs")
    p.add_argument(
        "--intervals",
        default="0.5,1.0,1.5,2.0",
        help="comma-separated look-ahead seconds (default: %(default)s)",
    )
    p.add_argument(
        "--timeframes",
        default="0.1,1.0",
        help="comma-separated regression windows (default: %(default)s)",
    )
    p.add_argument("--step", type=float, default=1.5, help="trace step seconds (default: %(default)s)")
    p.add_argument("--out", default=None, help=f"output directory (default: ${_ENV_OUT})")
    p.set_defaults(func=cmd_predict_error)

    p = sub.add_parser("run", help="run streaming sessions and write QoE reports")
    p.add_argument("--config", default=None, help="JSON file with the keys of these settings")
    for setting in RUN_SETTINGS:
        shown = "" if setting.default is None else f" (default: {setting.default})"
        p.add_argument(
            setting.flag,
            dest=setting.key,
            # Numbers are typed here, so `summary.json` records them as given.
            type=getattr(setting.convert, "kind", None),
            default=None,
            help=setting.help + shown,
        )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="recompute derived CSVs in an output directory")
    p.add_argument("--out", default=None, help=f"output directory (default: ${_ENV_OUT})")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"tilesim: error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - simulation failures exit 1
        print(f"tilesim: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
