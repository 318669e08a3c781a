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
import io
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from . import manifest as manifest_mod
from . import netsim, playback, popularity, prediction, traceio
from .adaptation import PolicyKind
from .cachesim import Cache, EvictionPolicy
from .geometry import FovSpec, TileGrid
from .manifest import file_count

_ENV_OUT = "TILESIM_OUT"


class UsageError(Exception):
    """Bad flag value or unusable input file; exits with code 2."""


def _fmt(value) -> str:
    return "" if value is None else str(value)  # a float's str is its full-precision repr


def _render_csv(f, columns: list[str], rows: list[dict]) -> None:
    """Write a header and rows to the text stream f: the one renderer of every
    output CSV, and of the text `verify` expects of each derived file."""
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


# `--config` and `verify`'s summary.json: a defect is the ValueError `_read_input` reports.
_read_json_object = partial(traceio.read_json_object, error=ValueError)


def _write_output(flag: str, path: str, write: Callable):
    """write(path), with a path that cannot be written reported against `flag`."""
    try:
        return write(path)
    except OSError as e:
        reason = e.strerror or e
        raise UsageError(f"{flag}: {e.filename or path}: cannot write: {reason}") from None


# --- settings ----------------------------------------------------------------


@dataclass(frozen=True)
class _Number:
    """Converts a setting to `kind` and requires low <= value < high, or
    low < value < high when `strict`; NaN fails every comparison. An
    `optional` setting may also be None. A config file's true/false is not a
    number, and an int setting takes no fractional part."""

    kind: type
    low: float = -math.inf
    strict: bool = False
    high: float = math.inf
    optional: bool = False

    def __call__(self, value):
        if value is None and self.optional:
            return None
        try:
            if isinstance(value, bool) or (
                self.kind is int and isinstance(value, float) and not value.is_integer()
            ):
                raise TypeError
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
class _Listed:
    """A comma-separated string, or a config file's JSON list, of at least
    one `item`, each at most once: values are compared after conversion, so
    `0.5,0.50` and `0,-0` repeat."""

    item: Callable

    def __call__(self, value):
        if isinstance(value, list):
            value = ",".join(map(str, value))
        values = []
        for cell in filter(None, map(str.strip, str(value).split(","))):
            x = self.item(cell)
            if x in values:
                raise ValueError(f"{cell!r} listed twice")
            values.append(x)
        if not values:
            raise ValueError("empty list")
        return values


def _pair(kind: type, build: Callable, shape: str) -> Callable:
    """A parser of `AxB` text into build(kind(A), kind(B))."""

    def parse(text):
        try:
            a, b = str(text).lower().split("x")
            a, b = kind(a), kind(b)
        except ValueError:
            raise ValueError(f"expected {shape}, got {text!r}") from None
        return build(a, b)

    return parse


_parse_grid = _pair(int, TileGrid, "COLSxROWS")
_parse_fov = _pair(float, FovSpec, "HxV degrees")


def _policy(kind: type, name):
    """The member of enum `kind` whose value is `name`."""
    try:
        return kind(name)
    except ValueError:
        valid = ", ".join(p.value for p in kind)
        raise ValueError(f"unknown policy {name!r} (valid: {valid})") from None


def _cache_policy(value):
    return _policy(EvictionPolicy, value) if value else None


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
            _Listed(_Number(float, 0.0))),
    Setting("--timeframes", "timeframes", "0.1,1.0", "comma-separated regression windows",
            _Listed(_Number(float, 0.0, strict=True))),
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
            f"comma-separated: {','.join(p.value for p in PolicyKind)}",
            _Listed(partial(_policy, PolicyKind))),
    Setting("--iterations", "iterations", 1, "runs per policy", _Number(int, 1)),
    Setting("--seed", "seed", 0, "experiment seed", _Number(int)),
    Setting("--cache-policy", "cache_policy", None,
            f"{', '.join(p.value for p in EvictionPolicy)}; a cache also needs a capacity",
            _cache_policy),
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
        doc = _read_input("--config", args.config, _read_json_object)
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
    try:
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
    except manifest_mod.ManifestError as e:
        raise UsageError(f"--base-bitrate: too high: {e}") from None
    _write_output("--out", s["out"], lambda path: manifest_mod.save(m, path))
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
        traces.values(),
        m.grid,
        s["fov"],
        m.segment_length,
        m.duration,
        samples_per_axis=s["samples_per_axis"],
    )
    budget = s["budget"] if s["budget"] is not None else popularity.default_budget_bps(m)
    m.popularity = popularity.quantize(heat, m, budget)
    _write_output("--manifest", s["manifest"], lambda path: manifest_mod.save(m, path))
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
    return playback.aggregate(step_rows, PRED_SUMMARY_COLUMNS, 3, lambda mine: (
        len(mine), *playback.mean_std([r["error_deg"] for r in mine])
    ))


def cmd_predict_error(args: argparse.Namespace) -> int:
    _, s = _settings(args, PREDICT_ERROR_SETTINGS)
    step_rows = []
    for name, trace in _read_input("--traces", s["traces"], traceio.load_trace_dir).items():
        path = os.path.join(s["traces"], name)
        for interval, timeframe in itertools.product(s["intervals"], s["timeframes"]):
            experiment = partial(prediction.error_experiment, trace, interval, timeframe)
            source = f"--traces: {path} (interval {interval}, timeframe {timeframe})"
            errors = _checked(source, experiment, s["step"]).tolist()
            step_rows += (dict(zip(STEP_COLUMNS, (name, interval, timeframe, k, err)))
                          for k, err in enumerate(errors))
    derived = _write_output(
        "--out", s["out"],
        lambda out: _write_outputs(out, "prediction_error_steps.csv", step_rows),
    )
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
    """Make `out_dir` and write a source CSV and its derived CSVs into it;
    returns the derived rows by name."""
    parsers, derived = OUTPUTS[source]
    os.makedirs(out_dir, exist_ok=True)
    out = {name: derive(rows) for name, _, derive in derived}
    tables = [(source, list(parsers), rows), *((n, c, out[n]) for n, c, _ in derived)]
    for name, columns, table in tables:
        with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="") as f:
            _render_csv(f, columns, table)
    return out


# --- run ---------------------------------------------------------------------


GAIN_KEY = "quality_gain_transition_over_prediction_ba_percent"


def _derived_summary(summary_rows: list[dict]) -> dict:
    """summary.json's fields derived from `segments.csv`, from its per-policy
    summary rows: `policies` and the gain read off them."""
    return {"policies": summary_rows, GAIN_KEY: playback.quality_gain_percent(summary_rows)}


def cmd_run(args: argparse.Namespace) -> int:
    spec, run = _settings(args, RUN_SETTINGS)
    if (run["cache_policy"] is None) != (run["cache_capacity_bytes"] == 0):
        raise UsageError("--cache-policy, --cache-capacity: a cache needs a policy and "
                         "a capacity above 0")
    out_dir = run["out"]
    m = _read_input("--manifest", run["manifest"], manifest_mod.load)
    traces = _read_input("--traces", run["traces"], traceio.load_trace_dir)
    network = _read_input("--network", run["network"], netsim.load_trace)
    if run["network_scale"] != 1.0:
        network = _checked(
            "--network-scale", lambda f: netsim.scale(network, f), run["network_scale"]
        )
    if set(playback.POPULARITY_POLICIES) & set(run["policies"]) and m.popularity is None:
        raise UsageError(
            "--policies: popularity/transition need a manifest with a popularity "
            "trace; run `tilesim popularity` first"
        )
    # run_experiment's check of its traces, here naming each by its file.
    named = {os.path.join(run["traces"], name): t for name, t in traces.items()}
    check = partial(playback.check_traces, iterations=run["iterations"], timeframe=run["timeframe"])
    _checked("--traces", check, named)
    runs = playback.run_experiment(
        manifest=m,
        viewing_traces=list(traces.values()),
        network_trace=network,
        policies=run["policies"],
        iterations=run["iterations"],
        cache=Cache(run["cache_capacity_bytes"], run["cache_policy"]) if run["cache_policy"] else None,
        seed=run["seed"],
        warm_trace_count=run["warm_traces"],
        fov=run["fov"],
        timeframe=run["timeframe"],
        samples_per_axis=run["samples_per_axis"],
        cache_rate_bps=run["cache_rate_bps"],
        hysteresis=run["hysteresis"],
    )

    rows = playback.segment_rows(runs)
    summary_rows = _write_output(
        "--out", out_dir, lambda out: _write_outputs(out, "segments.csv", rows)
    )["policy_summary.csv"]
    derived = _derived_summary(summary_rows)
    summary = {"spec": spec, "network_average_bps": network.average_bps(), **derived}
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    path = os.path.join(out_dir, "summary.json")
    _write_output("--out", path, lambda p: Path(p).write_text(text, encoding="utf-8"))

    print(f"network: {network.average_bps() / 1e6:.2f} Mbit/s average after scaling")
    for row in summary_rows:
        print(
            f"{row['policy']:>14}: stall {row['stall_mean']:.3f}s (std {row['stall_std']:.3f}), "
            f"quality {row['quality_mean']:.3f}, savings {row['savings_mean'] * 100:.1f}%"
        )
    if derived[GAIN_KEY] is not None:
        print(f"transition avg-quality gain over prediction-ba: {derived[GAIN_KEY]:+.2f}%")
    print(f"wrote segments/policy_summary/popularity_share/estimates CSV + summary.json to {out_dir}")
    return 0


# --- verify ------------------------------------------------------------------


def _read_source(path: str, parsers: dict[str, Callable]) -> list[dict]:
    """A source CSV's rows read back by `parsers`; any defect is a ValueError
    naming the file, and the line where it has one."""
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader, [])  # [] when the file is empty
            raw = [(reader.line_num, cells) for cells in reader]
        except csv.Error as e:  # a field over csv's size limit, say
            raise ValueError(f"{path}:{reader.line_num}: {e}") from None
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
    """Up to five lines where a derived CSV's bytes differ from its
    recomputed rows as the writer renders them, or why it cannot be read."""
    text = io.StringIO()
    _render_csv(text, columns, expected)
    want = text.getvalue().encode("utf-8").splitlines(keepends=True)
    try:
        got = _read_input("--out", path, lambda p: Path(p).read_bytes()).splitlines(keepends=True)
    except UsageError as e:
        return [str(e)]
    pairs = itertools.zip_longest(got, want, fillvalue=b"")
    diffs = [(line, g, w) for line, (g, w) in enumerate(pairs, start=1) if g != w]
    return [f"{path}:{line}: {g!r} != recomputed {w!r}" for line, g, w in diffs[:5]]


def _check_summary(path: str, rows: list[dict]) -> list[str]:
    """Where `summary.json` disagrees with `segments.csv`'s rows: its
    `policies` and gain against `run`'s, from policy_summary_rows, after a
    JSON round trip. Its `spec` and network average are not derived from
    the rows and go unchecked."""
    try:
        summary = _read_input("--out", path, _read_json_object)
    except UsageError as e:
        return [str(e)]
    expected = json.loads(json.dumps(_derived_summary(playback.policy_summary_rows(rows))))
    return [
        f"{path}: {key}: {summary.get(key, 'missing')!r} != recomputed {want!r}"
        for key, want in expected.items()
        if key not in summary or summary[key] != want
    ]


def cmd_verify(args: argparse.Namespace) -> int:
    out_dir = _settings(args, VERIFY_SETTINGS)[1]["out"]
    if not os.path.isdir(out_dir):
        raise UsageError(f"--out: {out_dir} is not a directory")
    problems: list[str] = []
    checked = mismatched = 0
    for source, (parsers, derived) in OUTPUTS.items():
        path = os.path.join(out_dir, source)
        if not os.path.exists(path):
            continue
        rows = _read_input("--out", path, lambda p: _read_source(p, parsers))
        results = [_compare(os.path.join(out_dir, name), columns, derive(rows))
                   for name, columns, derive in derived]
        if source == "segments.csv":
            results.append(_check_summary(os.path.join(out_dir, "summary.json"), rows))
        problems += [line for lines in results for line in lines]
        mismatched += sum(map(bool, results))
        checked += len(results)
    if checked == 0:
        raise UsageError(f"--out: {out_dir} holds no verifiable outputs")
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        print(f"verify: {mismatched} mismatch(es)", file=sys.stderr)
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
