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
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: str, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def _parse_grid(text: str) -> TileGrid:
    try:
        cols, rows = text.lower().split("x")
        return TileGrid(cols=int(cols), rows=int(rows))
    except (ValueError, TypeError):
        raise UsageError(f"--grid: expected COLSxROWS, got {text!r}") from None


def _parse_fov(text: str) -> FovSpec:
    try:
        h, v = text.lower().split("x")
        return FovSpec(h_deg=float(h), v_deg=float(v))
    except (ValueError, TypeError):
        raise UsageError(f"--fov: expected HxV degrees, got {text!r}") from None


def _parse_floats_list(flag: str, text: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"{flag}: expected comma-separated numbers, got {text!r}") from None
    if not values:
        raise UsageError(f"{flag}: empty list")
    return values


def _parse_policies(text: str) -> list[PolicyKind]:
    out = []
    for name in text.split(","):
        name = name.strip()
        if not name:
            continue
        try:
            out.append(PolicyKind(name))
        except ValueError:
            valid = ", ".join(p.value for p in PolicyKind)
            raise UsageError(f"--policies: unknown policy {name!r} (valid: {valid})") from None
    if not out:
        raise UsageError("--policies: empty list")
    return out


def _load_manifest(flag: str, path: str):
    try:
        return manifest_mod.load(path)
    except OSError as e:
        raise UsageError(f"{flag}: cannot read {path}: {e}") from None
    except manifest_mod.ManifestError as e:
        raise UsageError(f"{flag}: {path}: {e}") from None


def _load_traces(flag: str, path: str) -> list:
    try:
        return traceio.load_trace_dir(path)
    except OSError as e:
        raise UsageError(f"{flag}: cannot read {path}: {e}") from None
    except traceio.ViewingTraceError as e:
        raise UsageError(f"{flag}: {e}") from None


def _load_network(flag: str, path: str, scale_factor: float) -> netsim.NetworkTrace:
    try:
        trace = netsim.load_trace(path)
    except OSError as e:
        raise UsageError(f"{flag}: cannot read {path}: {e}") from None
    except netsim.TraceError as e:
        raise UsageError(f"{flag}: {e}") from None
    if scale_factor != 1.0:
        try:
            trace = netsim.scale(trace, scale_factor)
        except ValueError as e:
            raise UsageError(f"--network-scale: {e}") from None
    return trace


def _default_out(value: str | None) -> str:
    if value:
        return value
    env = os.environ.get(_ENV_OUT)
    if env:
        return env
    raise UsageError(f"--out: required (or set {_ENV_OUT})")


# --- synth -------------------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> int:
    grid = _parse_grid(args.grid)
    if args.duration <= 0 or args.segment_length <= 0:
        raise UsageError("--duration/--segment-length: must be positive")
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
    traces = _load_traces("--traces", args.traces)
    fov = _parse_fov(args.fov)
    if args.samples < 1:
        raise UsageError("--samples: must be >= 1")
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

STEP_COLUMNS = ["trace", "interval", "timeframe", "step", "error_deg"]
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
    try:
        names = sorted(
            n for n in os.listdir(args.traces) if n.endswith(".csv")
        )
    except OSError as e:
        raise UsageError(f"--traces: cannot read {args.traces}: {e}") from None
    if not names:
        raise UsageError(f"--traces: no .csv viewing traces in {args.traces}")
    os.makedirs(out_dir, exist_ok=True)
    step_rows = []
    for name in names:
        path = os.path.join(args.traces, name)
        try:
            trace = traceio.load_viewing_trace(path)
        except traceio.ViewingTraceError as e:
            raise UsageError(f"--traces: {e}") from None
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
    _write_csv(os.path.join(out_dir, "prediction_error_steps.csv"), STEP_COLUMNS, step_rows)
    summary = prediction_summary_rows(step_rows)
    _write_csv(
        os.path.join(out_dir, "prediction_error_summary.csv"),
        PRED_SUMMARY_COLUMNS,
        summary,
    )
    print(
        f"wrote {len(step_rows)} step errors over {len(summary)} (trace, interval, "
        f"timeframe) combinations to {out_dir}"
    )
    return 0


# --- run ---------------------------------------------------------------------

_RUN_DEFAULTS = {
    "network_scale": 1.0,
    "policies": "transition",
    "iterations": 1,
    "seed": 0,
    "cache_policy": None,
    "cache_capacity_bytes": 0,
    "cache_rate_bps": 100e6,
    "warm_traces": 30,
    "fov": "100x100",
    "timeframe": 0.1,
    "samples_per_axis": 32,
    "hysteresis": 1.0,
    "out": None,
}


def _merge_run_config(args: argparse.Namespace) -> dict:
    """flags > config file > defaults."""
    merged = dict(_RUN_DEFAULTS)
    merged.update({"manifest": None, "traces": None, "network": None})
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as f:
                doc = json.load(f)
        except OSError as e:
            raise UsageError(f"--config: cannot read {args.config}: {e}") from None
        except json.JSONDecodeError as e:
            raise UsageError(f"--config: {args.config} is not valid JSON: {e}") from None
        if not isinstance(doc, dict):
            raise UsageError("--config: expected a JSON object")
        unknown = set(doc) - set(merged)
        if unknown:
            raise UsageError(f"--config: unknown keys {sorted(unknown)}")
        merged.update(doc)
    for key in merged:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    for key in ("manifest", "traces", "network"):
        if not merged[key]:
            raise UsageError(f"--{key}: required (flag or config file)")
    return merged


def _spec_number(spec: dict, key: str, kind: type) -> int | float:
    """spec[key] converted by `kind`. argparse has already typed the flags, so
    a value that does not convert came from the config file."""
    try:
        return kind(spec[key])
    except (TypeError, ValueError):
        raise UsageError(
            f"--config: {key}: expected {kind.__name__}, got {spec[key]!r}"
        ) from None


def cmd_run(args: argparse.Namespace) -> int:
    spec = _merge_run_config(args)
    out_dir = _default_out(spec["out"])
    m = _load_manifest("--manifest", spec["manifest"])
    traces = _load_traces("--traces", spec["traces"])
    network = _load_network(
        "--network", spec["network"], _spec_number(spec, "network_scale", float)
    )
    names = spec["policies"]  # a comma-separated string, or a list in a config file
    if isinstance(names, list):
        names = ",".join(map(str, names))
    policies = _parse_policies(str(names))
    cache_policy = None
    if spec["cache_policy"]:
        try:
            cache_policy = EvictionPolicy(spec["cache_policy"])
        except ValueError:
            valid = ", ".join(p.value for p in EvictionPolicy)
            raise UsageError(
                f"--cache-policy: unknown policy {spec['cache_policy']!r} (valid: {valid})"
            ) from None
    cache_capacity = _spec_number(spec, "cache_capacity_bytes", int)
    if cache_capacity < 0:
        raise UsageError("--cache-capacity: must be >= 0")
    needs_popularity = {PolicyKind.POPULARITY, PolicyKind.TRANSITION} & set(policies)
    if needs_popularity and not m.has_popularity:
        raise UsageError(
            "--policies: popularity/transition need a manifest with a popularity "
            "trace; run `tilesim popularity` first"
        )
    fov = _parse_fov(str(spec["fov"]))
    try:
        predictor = prediction.PredictorConfig(
            timeframe=_spec_number(spec, "timeframe", float)
        )
    except ValueError as e:
        raise UsageError(f"--timeframe: {e}") from None
    try:
        report = playback.run_experiment(
            manifest=m,
            viewing_traces=traces,
            network_trace=network,
            policies=policies,
            iterations=_spec_number(spec, "iterations", int),
            cache_policy=cache_policy,
            cache_capacity_bytes=cache_capacity,
            seed=_spec_number(spec, "seed", int),
            warm_trace_count=_spec_number(spec, "warm_traces", int),
            fov=fov,
            predictor=predictor,
            samples_per_axis=_spec_number(spec, "samples_per_axis", int),
            cache_rate_bps=_spec_number(spec, "cache_rate_bps", float),
            hysteresis=_spec_number(spec, "hysteresis", float),
        )
    except ValueError as e:
        raise UsageError(str(e)) from None

    os.makedirs(out_dir, exist_ok=True)
    rows = playback.segment_rows(report)
    summary_rows = playback.policy_summary_rows(rows)
    gain = report.quality_gain_percent()
    _write_csv(os.path.join(out_dir, "segments.csv"), playback.SEGMENT_COLUMNS, rows)
    _write_csv(
        os.path.join(out_dir, "policy_summary.csv"), playback.SUMMARY_COLUMNS, summary_rows
    )
    _write_csv(
        os.path.join(out_dir, "popularity_share.csv"),
        playback.SHARE_COLUMNS,
        playback.popularity_share_rows(rows),
    )
    _write_csv(
        os.path.join(out_dir, "estimates.csv"),
        playback.ESTIMATE_COLUMNS,
        playback.estimate_rows(rows),
    )
    summary = {
        "spec": {k: spec[k] for k in sorted(spec)},
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


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        rows = list(reader)
    if not rows:
        raise UsageError(f"{path}: empty CSV")
    return rows[0], rows[1:]


_SEGMENT_TYPES = {
    "iteration": int,
    "segment": int,
    "bytes_total": int,
    "bytes_from_cache": int,
    "bytes_from_origin": int,
    "download_start": float,
    "download_end": float,
    "stall": float,
    "mean_quality": float,
    "estimate_bps": lambda s: float(s) if s else None,
    "savings": float,
}

_STEP_TYPES = {
    "interval": float,
    "timeframe": float,
    "step": int,
    "error_deg": float,
}


def _typed_rows(header: list[str], raw: list[list[str]], types: dict) -> list[dict]:
    out = []
    for cells in raw:
        row = {}
        for name, cell in zip(header, cells):
            row[name] = types.get(name, str)(cell)
        out.append(row)
    return out


def _compare(path: str, columns: list[str], expected: list[dict]) -> list[str]:
    header, raw = _read_csv(path)
    problems = []
    if header != columns:
        problems.append(f"{path}: header {header} != expected {columns}")
        return problems
    want = [[_fmt(row[c]) for c in columns] for row in expected]
    if len(raw) != len(want):
        problems.append(f"{path}: {len(raw)} rows, recomputed {len(want)}")
        return problems
    for i, (got, exp) in enumerate(zip(raw, want)):
        if got != exp:
            problems.append(f"{path}: row {i + 1} differs: {got} != {exp}")
            if len(problems) >= 5:
                break
    return problems


def cmd_verify(args: argparse.Namespace) -> int:
    out_dir = _default_out(args.out)
    if not os.path.isdir(out_dir):
        raise UsageError(f"--out: {out_dir} is not a directory")
    problems: list[str] = []
    checked = 0

    segments_path = os.path.join(out_dir, "segments.csv")
    if os.path.exists(segments_path):
        header, raw = _read_csv(segments_path)
        if header != playback.SEGMENT_COLUMNS:
            problems.append(f"{segments_path}: unexpected header {header}")
        else:
            rows = _typed_rows(header, raw, _SEGMENT_TYPES)
            problems += _compare(
                os.path.join(out_dir, "policy_summary.csv"),
                playback.SUMMARY_COLUMNS,
                playback.policy_summary_rows(rows),
            )
            problems += _compare(
                os.path.join(out_dir, "popularity_share.csv"),
                playback.SHARE_COLUMNS,
                playback.popularity_share_rows(rows),
            )
            problems += _compare(
                os.path.join(out_dir, "estimates.csv"),
                playback.ESTIMATE_COLUMNS,
                playback.estimate_rows(rows),
            )
            checked += 3

    steps_path = os.path.join(out_dir, "prediction_error_steps.csv")
    if os.path.exists(steps_path):
        header, raw = _read_csv(steps_path)
        if header != STEP_COLUMNS:
            problems.append(f"{steps_path}: unexpected header {header}")
        else:
            rows = _typed_rows(header, raw, _STEP_TYPES)
            problems += _compare(
                os.path.join(out_dir, "prediction_error_summary.csv"),
                PRED_SUMMARY_COLUMNS,
                prediction_summary_rows(rows),
            )
            checked += 1

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
    p.add_argument("--config", default=None, help="JSON file with the keys of these flags")
    p.add_argument("--manifest", default=None, help="manifest JSON (needs popularity for some policies)")
    p.add_argument("--traces", default=None, help="directory of viewing-trace CSVs")
    p.add_argument("--network", default=None, help="packet-trace file (1500-byte slots, ms per line)")
    p.add_argument(
        "--network-scale",
        dest="network_scale",
        type=float,
        default=None,
        help="throughput scale factor (default: 1.0)",
    )
    p.add_argument(
        "--policies",
        default=None,
        help="comma-separated: naive,prediction,popularity,prediction-ba,transition "
        "(default: transition)",
    )
    p.add_argument("--iterations", type=int, default=None, help="runs per policy (default: 1)")
    p.add_argument("--seed", type=int, default=None, help="experiment seed (default: 0)")
    p.add_argument(
        "--cache-policy",
        dest="cache_policy",
        default=None,
        help="lru, lfuda, or gdsf (default: no cache)",
    )
    p.add_argument(
        "--cache-capacity",
        dest="cache_capacity_bytes",
        type=int,
        default=None,
        help="cache bytes (default: 0 = no cache)",
    )
    p.add_argument(
        "--cache-rate",
        dest="cache_rate_bps",
        type=float,
        default=None,
        help="cache-to-client bit/s (default: 100e6)",
    )
    p.add_argument(
        "--warm-traces",
        dest="warm_traces",
        type=int,
        default=None,
        help="viewings replayed to warm the cache (default: 30)",
    )
    p.add_argument("--fov", default=None, help="field of view HxV degrees (default: 100x100)")
    p.add_argument(
        "--timeframe", type=float, default=None, help="regression window seconds (default: 0.1)"
    )
    p.add_argument(
        "--samples",
        dest="samples_per_axis",
        type=int,
        default=None,
        help="visibility samples per axis (default: 32)",
    )
    p.add_argument(
        "--hysteresis", type=float, default=None, help="transition hysteresis >= 1 (default: 1.0)"
    )
    p.add_argument("--out", default=None, help=f"output directory (default: ${_ENV_OUT})")
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
