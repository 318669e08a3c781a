"""Command-line front end.

Subcommands: synth, popularity, predict-error, run, verify. All outputs are
deterministic for identical flags and seed: floats are written with full
repr precision and every file is produced in a fixed order.

Each subcommand's flags are one table of `Setting`s, checked before anything
is read. Exit codes: 0 success, 2 bad flags or unreadable/invalid inputs (the
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


def _checked(source: str, convert: Callable, value, error: type = UsageError):
    """convert(value), with a ValueError reported against `source`."""
    try:
        return convert(value)
    except ValueError as e:
        raise error(f"{source}: {e}") from None


def _read_input(flag: str, path: str, load: Callable):
    """load(path), with a file that cannot be read, is not UTF-8 or is
    malformed reported against `flag`. Every loader reports a malformed file
    as a ValueError whose message names the file."""
    try:
        return load(path)
    except OSError as e:
        raise UsageError(f"{flag}: {e.filename or path}: cannot read: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise UsageError(
            f"{flag}: {path}: not UTF-8 text ({e.reason} at byte {e.start})"
        ) from None
    except ValueError as e:
        raise UsageError(f"{flag}: {e}") from None


def _load_config(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return doc


# --- settings ----------------------------------------------------------------


@dataclass(frozen=True)
class _Number:
    """Converts a setting to `kind` and requires low <= value < high, or
    low < value < high when `strict`; NaN fails every comparison. An
    `optional` setting may also be None."""

    kind: type
    low: float = -math.inf
    strict: bool = False
    high: float = math.inf
    optional: bool = False

    def __call__(self, value):
        if value is None and self.optional:
            return None
        try:
            x = self.kind(value)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"expected {self.kind.__name__}, got {value!r}") from None
        if not ((x > self.low if self.strict else x >= self.low) and x < self.high):
            bound = f"{'>' if self.strict else '>='} {self.low:g}"
            if self.high < math.inf:
                bound += f" and < {self.high:g}"
            raise ValueError(f"expected finite {self.kind.__name__} {bound}, got {value!r}")
        return x


@dataclass(frozen=True)
class _Numbers:
    """A comma-separated list of at least one `item`."""

    item: _Number

    def __call__(self, text):
        values = [self.item(x) for x in str(text).split(",") if x.strip()]
        if not values:
            raise ValueError("empty list")
        return values


def _pair(kind: type, build: Callable, shape: str) -> Callable:
    """A parser of `AxB` text into build(kind(A), kind(B))."""

    def parse(text):
        try:
            a, b = str(text).lower().split("x")
            return build(kind(a), kind(b))
        except ValueError:
            raise ValueError(f"expected {shape}, got {text!r}") from None

    return parse


_parse_grid = _pair(int, TileGrid, "COLSxROWS")
_parse_fov = _pair(float, FovSpec, "HxV degrees")


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


def _cache_policy(value):
    if not value:
        return None
    try:
        return EvictionPolicy(value)
    except ValueError:
        valid = ", ".join(p.value for p in EvictionPolicy)
        raise ValueError(f"unknown policy {value!r} (valid: {valid})") from None


def _path(value):
    if not value:
        raise ValueError("required")
    if not isinstance(value, str):
        raise ValueError(f"expected a path, got {value!r}")
    return value


def _default_out(value: str | None) -> str:
    if value:
        return _path(value)
    env = os.environ.get(_ENV_OUT)
    if env:
        return env
    raise ValueError(f"required (or set {_ENV_OUT})")


class Setting(NamedTuple):
    """One setting of a subcommand: its flag, its key (`run`'s config-file
    key), its default, its help and the converter that checks a value."""

    flag: str
    key: str
    default: object
    help: str
    convert: Callable


_TRACES = Setting("--traces", "traces", None, "directory of viewing-trace CSVs; required", _path)
_FOV = Setting("--fov", "fov", "100x100", "field of view HxV degrees", _parse_fov)
_SAMPLES = Setting("--samples", "samples_per_axis", 32, "visibility samples per axis",
                   _Number(int, 1))
_OUT = Setting("--out", "out", None, f"output directory (default: ${_ENV_OUT})", _default_out)

SYNTH_SETTINGS = (
    Setting("--out", "out", None, "manifest JSON path to write; required", _path),
    Setting("--name", "name", "synthetic", "video name", str),
    Setting("--duration", "duration", 40.0, "seconds", _Number(float, 0.0, strict=True)),
    Setting("--segment-length", "segment_length", 1.5, "seconds",
            _Number(float, 0.0, strict=True)),
    Setting("--grid", "grid", "4x4", "tile grid COLSxROWS", _parse_grid),
    Setting("--qualities", "qualities", 3, "quality levels", _Number(int, 1)),
    Setting("--base-bitrate", "base_bitrate", 20e6, "bit/s of a tile at the top level",
            _Number(float, 0.0, strict=True)),
    Setting("--variability", "variability", 0.0, "per-(segment,tile) size jitter",
            _Number(float, 0.0, high=1.0)),
    Setting("--seed", "seed", 0, "size-jitter seed", _Number(int, 0)),
)

POPULARITY_SETTINGS = (
    Setting("--manifest", "manifest", None, "manifest JSON to update in place; required", _path),
    _TRACES,
    Setting("--budget", "budget", None,
            "bit/s quantization budget (default: 25%% of tiles at top, the rest lowest)",
            _Number(float, 0.0, optional=True)),
    _FOV,
    _SAMPLES,
)

PREDICT_ERROR_SETTINGS = (
    _TRACES,
    Setting("--intervals", "intervals", "0.5,1.0,1.5,2.0", "comma-separated look-ahead seconds",
            _Numbers(_Number(float, 0.0))),
    Setting("--timeframes", "timeframes", "0.1,1.0", "comma-separated regression windows",
            _Numbers(_Number(float, 0.0, strict=True))),
    Setting("--step", "step", 1.5, "trace step seconds", _Number(float, 0.0, strict=True)),
    _OUT,
)

RUN_SETTINGS = (
    Setting("--manifest", "manifest", None,
            "manifest JSON (needs popularity for some policies); required", _path),
    _TRACES,
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
    _FOV,
    Setting("--timeframe", "timeframe", 0.1, "regression window seconds",
            _Number(float, 0.0, strict=True)),
    _SAMPLES,
    Setting("--hysteresis", "hysteresis", 1.0, "transition hysteresis", _Number(float, 1.0)),
    _OUT,
)

VERIFY_SETTINGS = (_OUT,)


def _settings(args: argparse.Namespace, table: tuple[Setting, ...]) -> tuple[dict, dict]:
    """Each setting of `table` as given (flags > `run`'s config file >
    defaults) and as converted and checked; a bad value names its flag or
    config key."""
    doc = {}
    if getattr(args, "config", None) is not None:
        doc = _read_input("--config", args.config, _load_config)
        unknown = set(doc) - {s.key for s in table}
        if unknown:
            raise UsageError(f"--config: unknown keys {sorted(unknown)}")
    given, checked = {}, {}
    for s in table:
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


# --- synth -------------------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> int:
    _, s = _settings(args, SYNTH_SETTINGS)
    if not math.isfinite(s["duration"] / s["segment_length"]):
        raise UsageError("--segment-length: too short for --duration")
    grid = s["grid"]
    m = manifest_mod.synthesize(
        name=s["name"],
        duration=s["duration"],
        segment_length=s["segment_length"],
        grid=grid,
        quality_count=s["qualities"],
        base_bitrate_bps=s["base_bitrate"],
        variability=s["variability"],
        seed=s["seed"],
    )
    manifest_mod.save(m, s["out"])
    files = file_count(
        grid.cols, grid.rows, s["qualities"], s["duration"], s["segment_length"]
    )
    print(f"wrote {s['out']}")
    print(
        f"{grid.cols}x{grid.rows} tiles, {s['qualities']} levels, "
        f"{m.segment_count} segments: a packager would emit {files} files"
    )
    return 0


# --- popularity --------------------------------------------------------------


def cmd_popularity(args: argparse.Namespace) -> int:
    _, s = _settings(args, POPULARITY_SETTINGS)
    m = _read_input("--manifest", s["manifest"], manifest_mod.load)
    traces = _read_input("--traces", s["traces"], traceio.load_trace_dir)
    heat = popularity.build_heat(
        traces,
        m.grid,
        s["fov"],
        m.segment_length,
        m.duration,
        samples_per_axis=s["samples_per_axis"],
    )
    budget = s["budget"] if s["budget"] is not None else popularity.default_budget_bps(m)
    m.popularity = popularity.quantize(heat, m, budget)
    manifest_mod.save(m, s["manifest"])
    mean_level = float(m.popularity.mean())
    print(
        f"embedded popularity trace from {len(traces)} traces "
        f"(budget {budget:.0f} bit/s, mean level {mean_level:.3f}) into {s['manifest']}"
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
    _, s = _settings(args, PREDICT_ERROR_SETTINGS)
    step_rows = []
    for name in _read_input("--traces", s["traces"], traceio.trace_files):
        path = os.path.join(s["traces"], name)
        trace = _read_input("--traces", path, traceio.load_viewing_trace)
        for interval in s["intervals"]:
            for timeframe in s["timeframes"]:
                try:
                    errors = prediction.error_experiment(
                        trace, interval, timeframe, s["step"]
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
    os.makedirs(s["out"], exist_ok=True)
    derived = _write_outputs(s["out"], "prediction_error_steps.csv", step_rows)
    summary = derived["prediction_error_summary.csv"]
    print(
        f"wrote {len(step_rows)} step errors over {len(summary)} (trace, interval, "
        f"timeframe) combinations to {s['out']}"
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


def cmd_run(args: argparse.Namespace) -> int:
    spec, run = _settings(args, RUN_SETTINGS)
    out_dir = run["out"]
    m = _read_input("--manifest", run["manifest"], manifest_mod.load)
    traces = _read_input("--traces", run["traces"], traceio.load_trace_dir)
    network = _read_input("--network", run["network"], netsim.load_trace)
    if run["network_scale"] != 1.0:
        network = _checked(
            "--network-scale", lambda f: netsim.scale(network, f), run["network_scale"]
        )
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
    """A CSV's header ([] when empty) and each other row with its line number."""
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader, [])
            return header, [(reader.line_num, cells) for cells in reader]
        except csv.Error as e:  # a field over csv's size limit, say
            raise ValueError(f"{path}:{reader.line_num}: {e}") from None


def _read_source(path: str, parsers: dict[str, Callable]) -> list[dict]:
    """A source CSV's rows read back by `parsers`; any defect is a ValueError
    naming the file, and the line where it has one."""
    header, raw = _read_csv(path)
    if header != list(parsers):
        raise ValueError(f"{path}: header {header} != expected {list(parsers)}")
    rows = []
    for line, cells in raw:
        if len(cells) != len(header):
            raise ValueError(f"{path}:{line}: {len(cells)} cells, expected {len(header)}")
        rows.append({
            column: _checked(f"{path}:{line}: {column}", parse, cell, ValueError)
            for (column, parse), cell in zip(parsers.items(), cells)
        })
    return rows


def _compare(path: str, columns: list[str], expected: list[dict]) -> list[str]:
    """Up to five ways a derived CSV differs from its recomputed rows."""
    try:
        header, raw = _read_input("--out", path, _read_csv)
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
    out_dir = _settings(args, VERIFY_SETTINGS)[1]["out"]
    if not os.path.isdir(out_dir):
        raise UsageError(f"--out: {out_dir} is not a directory")
    problems: list[str] = []
    checked = 0
    for source, (parsers, derived) in OUTPUTS.items():
        path = os.path.join(out_dir, source)
        if not os.path.exists(path):
            continue
        rows = _read_input("--out", path, lambda p: _read_source(p, parsers))
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
    # Built per call, so a wrapper set on a cmd_* module attribute is the one run.
    for name, help_, table, func in (
        ("synth", "synthesize a tiled-video manifest", SYNTH_SETTINGS, cmd_synth),
        ("popularity", "build a popularity trace from viewing traces into a manifest",
         POPULARITY_SETTINGS, cmd_popularity),
        ("predict-error", "viewport prediction error experiment",
         PREDICT_ERROR_SETTINGS, cmd_predict_error),
        ("run", "run streaming sessions and write QoE reports", RUN_SETTINGS, cmd_run),
        ("verify", "recompute derived CSVs in an output directory", VERIFY_SETTINGS,
         cmd_verify),
    ):
        p = sub.add_parser(name, help=help_)
        if table is RUN_SETTINGS:
            p.add_argument("--config", help="JSON file with the keys of these settings")
        for setting in table:
            shown = "" if setting.default is None else f" (default: {setting.default})"
            p.add_argument(
                setting.flag,
                dest=setting.key,
                # Numbers are typed here, so `summary.json` records them as given.
                type=getattr(setting.convert, "kind", None),
                default=None,
                help=setting.help + shown,
            )
        p.set_defaults(func=func)
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
