import csv
import importlib.metadata
import inspect
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    build_heat_oracle, checkout_env, constant_rate_network, deadline, linear_gaze,
    quantize_oracle, staircase_scenario,
)
from tilesim import manifest as manifest_mod
from tilesim import cli, netsim, playback, popularity, prediction, traceio
from tilesim.adaptation import PolicyKind
from tilesim.cachesim import EvictionPolicy
from tilesim.cli import RUN_SETTINGS, main
from tilesim.geometry import FovSpec, TileGrid
from tilesim.synthetic import constant_gaze, drifting_gaze, two_phase_network


def read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Manifest + viewing traces + network trace, built through the CLI where
    the CLI can do it."""
    base = tmp_path_factory.mktemp("cliws")
    manifest_path = base / "manifest.json"
    assert main([
        "synth", "--out", str(manifest_path),
        "--duration", "40", "--segment-length", "1.5",
        "--grid", "4x4", "--qualities", "3", "--base-bitrate", "20e6",
    ]) == 0

    traces = base / "traces"
    traces.mkdir()
    for i, (yaw, pitch) in enumerate([(0.0, 0.0), (0.0, 0.0), (0.05, -0.05)]):
        traceio.save_viewing_trace(
            constant_gaze(yaw, pitch, 41.0, hz=10.0), str(traces / f"viewer{i}.csv")
        )

    lin = base / "traces_linear"
    lin.mkdir()
    traceio.save_viewing_trace(linear_gaze(0.0, 10.0, 41.0, hz=30.0), str(lin / "pan.csv"))
    traceio.save_viewing_trace(
        linear_gaze(20.0, -5.0, 41.0, hz=30.0, pitch0=5.0, pitch_rate=0.5),
        str(lin / "tilt.csv"),
    )

    network_path = base / "network.txt"
    netsim.save_trace(constant_rate_network(300e6, 5.0), str(network_path))

    assert main([
        "popularity", "--manifest", str(manifest_path),
        "--traces", str(traces), "--fov", "0.1x0.1",
    ]) == 0

    return {
        "manifest": str(manifest_path),
        "traces": str(traces),
        "traces_linear": str(lin),
        "network": str(network_path),
        "base": base,
    }


TABLES = {
    "synth": cli.SYNTH_SETTINGS,
    "popularity": cli.POPULARITY_SETTINGS,
    "predict-error": cli.PREDICT_ERROR_SETTINGS,
    "run": cli.RUN_SETTINGS,
    "verify": cli.VERIFY_SETTINGS,
}

# The flags each subcommand requires. No file is read before every setting
# is checked, so these paths need not exist.
REQUIRED = {
    "synth": ["--out", "m.json"],
    "popularity": ["--manifest", "m.json", "--traces", "traces"],
    "predict-error": ["--traces", "traces", "--out", "out"],
    "run": ["--manifest", "m.json", "--traces", "traces", "--network", "n.pps", "--out", "out"],
    "verify": ["--out", "out"],
}


def past_bounds(number):
    """Values just outside a numeric setting's range, and nan for a float."""
    out = []
    if number.low > -math.inf:
        if number.strict:
            out.append(number.low)
        else:
            out.append(number.low - 1 if number.kind is int else
                       float(np.nextafter(number.low, -math.inf)))
    if number.high < math.inf:
        out.append(number.high)
    if number.kind is float:
        out.append(math.nan)
    return out


BAD_VALUES = [
    pytest.param(command, s.flag, value, id=f"{command} {s.flag}={value}")
    for command, table in TABLES.items()
    for s in table
    # A comma-separated list holds its numbers' converter as `item`.
    if isinstance(number := getattr(s.convert, "item", s.convert), cli._Number)
    for value in past_bounds(number)
]


@pytest.mark.parametrize("command, flag, value", BAD_VALUES)
def test_every_value_past_a_bound_exits_2_naming_its_flag(
    tmp_path, monkeypatch, capsys, command, flag, value
):
    monkeypatch.chdir(tmp_path)
    assert main([command, *REQUIRED[command], f"{flag}={value}"]) == 2
    assert f"error: {flag}: " in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_bound_walk_covers_every_table():
    walked = {(p.values[0], p.values[1]) for p in BAD_VALUES}
    assert ("synth", "--seed") in walked and ("synth", "--variability") in walked
    assert {command for command, _ in walked} == set(TABLES) - {"verify"}


@pytest.mark.parametrize("command, given, reason", [
    ("synth", ["--grid", "0x4"], "--grid: grid must be at least 1x1, got 0x4"),
    ("popularity", ["--fov", "400x100"], "--fov: field of view out of range: 400.0x100.0"),
    ("popularity", ["--fov", "nanx100"], "--fov: field of view out of range: nanx100.0"),
    ("run", {"fov": "100x0"}, "--config: fov: field of view out of range: 100.0x0.0"),
], ids=["grid-0x4", "fov-400x100", "fov-nanx100", "config-fov-100x0"])
def test_a_pair_out_of_range_exits_2_with_its_reason(
    tmp_path, monkeypatch, capsys, command, given, reason
):
    """A value that parses as two numbers but builds no grid or FoV is
    reported with the grid's or the FoV's own reason, after its flag or
    config key."""
    monkeypatch.chdir(tmp_path)
    if isinstance(given, dict):
        (tmp_path / "config.json").write_text(json.dumps(given))
        given = ["--config", "config.json"]
    assert main([command, *REQUIRED[command], *given]) == 2
    assert f"error: {reason}\n" in capsys.readouterr().err


def append_undecodable(path):
    """Make a file invalid UTF-8 by appending a UTF-16 byte-order mark."""
    with open(path, "ab") as f:
        f.write(b"\xff\xfe")


def quote_second_line(data: bytes) -> bytes:
    """Quote every cell of a CSV's first row after the header."""
    lines = data.split(b"\n")
    lines[1] = b",".join(b'"' + cell + b'"' for cell in lines[1].split(b","))
    return b"\n".join(lines)


class TestUndecodableInput:
    """Every input file a subcommand reads that is not UTF-8 (a trace file:
    not ASCII) exits 2, naming its flag and the file, before any output file
    is written."""

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("popularity", "--manifest"),
            ("popularity", "--traces"),
            ("predict-error", "--traces"),
            ("run", "--manifest"),
            ("run", "--traces"),
            ("run", "--network"),
            ("run", "--config"),
        ],
    )
    def test_names_its_flag_and_file(self, ws, tmp_path, capsys, command, flag):
        traces = tmp_path / "traces"
        shutil.copytree(ws["traces"], traces)
        files = {
            "--manifest": tmp_path / "manifest.json",
            "--traces": traces / "viewer1.csv",
            "--network": tmp_path / "network.txt",
            "--config": tmp_path / "config.json",
        }
        shutil.copy(ws["manifest"], files["--manifest"])
        shutil.copy(ws["network"], files["--network"])
        files["--config"].write_text(json.dumps({"seed": 1}))
        append_undecodable(files[flag])
        out = tmp_path / "out"
        argv = {
            "popularity": ["--manifest", files["--manifest"], "--traces", traces],
            "predict-error": ["--traces", traces, "--out", out],
            "run": ["--manifest", files["--manifest"], "--traces", traces,
                    "--network", files["--network"], "--config", files["--config"],
                    "--out", out],
        }[command]
        assert main([command, *map(str, argv)]) == 2
        err = capsys.readouterr().err
        text = "not ASCII text" if flag in ("--traces", "--network") else "not UTF-8 text"
        assert f"{flag}: " in err and str(files[flag]) in err and text in err, err
        assert not out.exists()


@pytest.mark.parametrize("command", ["popularity", "run"])
@pytest.mark.parametrize(
    "field, value", [("segment_length", 5e-324), ("quality_count", True)]
)
def test_manifest_defect_names_flag_file_and_field(ws, tmp_path, capsys, command, field, value):
    manifest = tmp_path / "m.json"
    doc = json.loads(Path(ws["manifest"]).read_text())
    manifest.write_text(json.dumps({**doc, field: value}))
    argv = [command, "--manifest", str(manifest), "--traces", ws["traces"]]
    if command == "run":
        argv += ["--network", ws["network"], "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert f"error: --manifest: {manifest}: {field}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["popularity", "run"])
def test_manifest_that_is_no_json_object_names_flag_and_file(ws, tmp_path, capsys, command):
    manifest = tmp_path / "m.json"
    manifest.write_text("[]")
    argv = [command, "--manifest", str(manifest), "--traces", ws["traces"]]
    if command == "run":
        argv += ["--network", ws["network"], "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"tilesim: error: --manifest: {manifest}: expected a JSON object\n"
    )
    assert not (tmp_path / "out").exists()


class TestUnwritableOutput:
    """An output path that cannot be written exits 2, naming its flag and
    the path."""

    def expect(self, capsys, argv, flag, path):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"tilesim: error: {flag}: {path}: cannot write: "), err

    def test_synth_into_a_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "x.json"
        self.expect(capsys, ["synth", "--out", str(out)], "--out", out)

    def test_popularity_manifest(self, ws, tmp_path, capsys, monkeypatch):
        manifest = tmp_path / "m.json"
        shutil.copy(ws["manifest"], manifest)

        def refuse(m, path):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(manifest_mod, "save", refuse)
        self.expect(capsys, [
            "popularity", "--manifest", str(manifest), "--traces", ws["traces"],
        ], "--manifest", manifest)

    def test_predict_error_out_is_a_file(self, ws, tmp_path, capsys):
        out = tmp_path / "afile"
        out.write_text("")
        self.expect(capsys, [
            "predict-error", "--traces", ws["traces_linear"], "--out", str(out),
        ], "--out", out)

    def test_run_out_is_a_file(self, ws, tmp_path, capsys):
        out = tmp_path / "afile"
        out.write_text("")
        self.expect(capsys, [
            "run", "--manifest", ws["manifest"], "--traces", ws["traces"],
            "--network", ws["network"], "--policies", "naive", "--iterations", "1",
            "--out", str(out),
        ], "--out", out)


class TestNonFiniteTraceValues:
    """A nan or inf time, angle (roll included) or quaternion component exits
    2, naming --traces, the file and its line, before any output is written."""

    @pytest.mark.parametrize("command", ["popularity", "predict-error", "run"])
    @pytest.mark.parametrize(
        "lines",
        [
            ["t_seconds,yaw_deg,pitch_deg,roll_deg", "0.0,0,0,0", "nan,0,0,0"],
            ["t_seconds,yaw_deg,pitch_deg,roll_deg", "0.0,0,0,0", "0.1,nan,0,0"],
            ["t_seconds,yaw_deg,pitch_deg,roll_deg", "0.0,0,0,0", "0.1,0,inf,0"],
            ["t,qw,qx,qy,qz", "0.0,1,0,0,0", "0.1,1,-inf,0,0"],
            ["t_seconds,yaw_deg,pitch_deg,roll_deg", "0.0,0,0,0", "0.1,0,0,nan"],
        ],
    )
    def test_names_file_and_line(self, ws, tmp_path, capsys, command, lines):
        traces = tmp_path / "traces"
        shutil.copytree(ws["traces"], traces)
        bad = traces / "viewer1.csv"
        bad.write_text("\n".join(lines + ["41.0,0,0,0"]) + "\n")
        manifest = tmp_path / "m.json"
        shutil.copy(ws["manifest"], manifest)
        before = manifest.read_bytes()
        out = tmp_path / "out"
        argv = {
            "popularity": ["--manifest", manifest, "--traces", traces],
            "predict-error": ["--traces", traces, "--out", out],
            "run": ["--manifest", manifest, "--traces", traces,
                    "--network", ws["network"], "--out", out],
        }[command]
        assert main([command, *map(str, argv)]) == 2
        err = capsys.readouterr().err
        assert f"--traces: {bad}:3: non-finite value" in err, err
        assert not out.exists()
        assert manifest.read_bytes() == before


@pytest.mark.parametrize(
    "text, message",
    [("1\n2\n1.5\n", "3: not an integer millisecond: '1.5'"),
     ("5\n9\n4\n", "3: timestamp 4 decreases below 9"),
     ("1\n\n2\n1.5\n", "4: not an integer millisecond: '1.5'"),
     ("5\n9223372036854775808\n", "2: not an integer millisecond: '9223372036854775808'")],
)
def test_malformed_network_trace_prints_only_its_error(ws, tmp_path, text, message):
    """With every warning shown, stderr holds the trace error line alone: the
    loader's numpy reads let no warning out, not even the one numpy gives
    for each empty line a max_rows read skips. A stamp past int64 is a
    malformed line, not a runtime failure."""
    network = tmp_path / "bad.pps"
    network.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-W", "always", "-m", "tilesim.cli", "run",
         "--manifest", ws["manifest"], "--traces", ws["traces"],
         "--network", str(network), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=checkout_env(),
    )
    assert proc.returncode == 2
    assert proc.stderr == f"tilesim: error: --network: {network}:{message}\n"


@pytest.mark.parametrize("command", ["popularity", "predict-error", "run"])
def test_each_trace_reader_lists_traces_once(ws, tmp_path, monkeypatch, command):
    """Each command reads `--traces` through the one loader, which lists the
    directory once."""
    manifest = tmp_path / "manifest.json"
    shutil.copy(ws["manifest"], manifest)
    flags = {
        "popularity": ["--manifest", str(manifest), "--samples", "4"],
        "predict-error": ["--out", str(tmp_path / "out")],
        "run": ["--manifest", str(manifest), "--network", ws["network"], "--samples", "4",
                "--out", str(tmp_path / "out")],
    }[command]
    listed = []
    listdir = os.listdir
    monkeypatch.setattr(os, "listdir", lambda path: listed.append(path) or listdir(path))
    assert main([command, "--traces", ws["traces"], *flags]) == 0
    assert listed.count(ws["traces"]) == 1, listed


class TestSynth:
    def test_deterministic_and_reports_file_count(self, tmp_path, capsys):
        args = ["synth", "--duration", "40", "--segment-length", "1.5",
                "--qualities", "3", "--variability", "0.3", "--seed", "7"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert "1345 files" in capsys.readouterr().out
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_grid(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "m.json"), "--grid", "4y4"]) == 2
        assert "--grid" in capsys.readouterr().err

    def test_bad_variability(self, tmp_path):
        assert main([
            "synth", "--out", str(tmp_path / "m.json"), "--variability", "1.0",
        ]) == 2

    @pytest.mark.parametrize(
        "flag, value",
        [("--duration", "nan"), ("--duration", "inf"), ("--segment-length", "nan"),
         ("--segment-length", "0"), ("--base-bitrate", "nan"), ("--base-bitrate", "0"),
         ("--base-bitrate", "-1"), ("--base-bitrate", "inf"),
         # a segment's top-level bits pass 2**63: in segment_bits' int64 sum
         # (1e18), and already in the int64 cast of the sizes (1e20, 1e308)
         ("--base-bitrate", "1e18"), ("--base-bitrate", "1e20"), ("--base-bitrate", "1e308")],
    )
    def test_bad_value_names_its_flag(self, tmp_path, capsys, flag, value):
        out = tmp_path / "m.json"
        assert main(["synth", "--out", str(out), f"{flag}={value}"]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_missing_out_flag_exits_2_naming_it(self, capsys):
        assert main(["synth"]) == 2
        assert "--out" in capsys.readouterr().err

    def test_segment_count_overflow_names_segment_length(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main([
            "synth", "--out", str(out), "--duration", "1e300", "--segment-length", "1e-300",
        ]) == 2
        assert "error: --segment-length: " in capsys.readouterr().err
        assert not out.exists()


class TestPopularity:
    def test_corner_gaze_heats_the_four_adjacent_tiles(self, ws):
        m = manifest_mod.load(ws["manifest"])
        assert m.popularity.shape == (27, 16)
        # the viewers sit on the corner shared by tile rows 1-2 and cols 1-2,
        # so even a 0.1 degree viewport straddles four tiles, and the default
        # budget is exactly enough to raise those four to the top level
        hot = [5, 6, 9, 10]
        np.testing.assert_array_equal(m.popularity[:, hot], np.full((27, 4), 2))
        others = np.delete(m.popularity, hot, axis=1)
        assert (others == 0).all()

    def test_missing_manifest(self, ws, capsys):
        assert main([
            "popularity", "--manifest", "/nonexistent/m.json",
            "--traces", ws["traces"],
        ]) == 2
        assert "--manifest" in capsys.readouterr().err

    def test_zero_samples(self, ws, capsys):
        assert main([
            "popularity", "--manifest", ws["manifest"], "--traces", ws["traces"],
            "--samples", "0",
        ]) == 2
        assert "--samples" in capsys.readouterr().err


    @pytest.mark.parametrize("budget", ["nan", "inf", "-inf", "-5"])
    def test_bad_budget(self, ws, tmp_path, capsys, budget):
        manifest = tmp_path / "m.json"
        shutil.copy(ws["manifest"], manifest)
        before = manifest.read_bytes()
        assert main([
            "popularity", "--manifest", str(manifest), "--traces", ws["traces"],
            f"--budget={budget}",
        ]) == 2
        assert "--budget" in capsys.readouterr().err
        assert manifest.read_bytes() == before

    @pytest.mark.parametrize("budget", ["0", "1"])
    def test_budget_below_all_lowest_keeps_every_tile_at_level_0(
        self, ws, tmp_path, budget
    ):
        manifest = tmp_path / "m.json"
        shutil.copy(ws["manifest"], manifest)
        assert main([
            "popularity", "--manifest", str(manifest), "--traces", ws["traces"],
            "--budget", budget,
        ]) == 0
        plan = manifest_mod.load(str(manifest)).popularity
        assert plan.shape == (27, 16) and (plan == 0).all()

    def test_equal_sample_counts_tie_by_tile_index(self, tmp_path, monkeypatch):
        """At 3 samples per axis a heat cell is a count over 9, which summed
        fractions would round: in segment 2, tiles 35 and 36 hold equally
        many FoV samples, the budget cuts between them, and the lower index
        goes up. The heat is each segment's exact counts over 9, bit for bit."""
        manifest, traces = tmp_path / "m.json", tmp_path / "traces"
        assert main(["synth", "--out", str(manifest), "--duration", "20", "--grid", "8x8",
                     "--qualities", "2", "--base-bitrate", "2e6"]) == 0
        traces.mkdir()
        for seed in range(3):
            traceio.save_viewing_trace(drifting_gaze(seed, 20.0), str(traces / f"v{seed}.csv"))
        built = []
        build_heat = popularity.build_heat

        def spy(*args, **kw):
            built.append(build_heat(*args, **kw))
            return built[-1]

        monkeypatch.setattr(popularity, "build_heat", spy)
        assert main(["popularity", "--manifest", str(manifest), "--traces", str(traces),
                     "--fov", "80x40", "--samples", "3", "--budget", "36500000"]) == 0
        m = manifest_mod.load(str(manifest))
        viewers = traceio.load_trace_dir(str(traces)).values()
        heat = build_heat_oracle(viewers, m.grid, FovSpec(80, 40), m.segment_length, m.duration, 3)
        assert built[0].heat.tobytes() == heat.tobytes()
        assert heat[2, 35] == heat[2, 36]
        assert np.flatnonzero(m.popularity[2]).tolist() == [27, 28, 35]
        np.testing.assert_array_equal(m.popularity, quantize_oracle(heat, m, 36.5e6))

    def test_zero_quaternion_names_traces_and_file(self, ws, tmp_path, capsys):
        traces = tmp_path / "traces"
        traces.mkdir()
        (traces / "zero.csv").write_text("t,qw,qx,qy,qz\n0.0,1,0,0,0\n0.1,0,0,0,0\n")
        manifest = tmp_path / "m.json"
        shutil.copy(ws["manifest"], manifest)
        assert main([
            "popularity", "--manifest", str(manifest), "--traces", str(traces),
        ]) == 2
        err = capsys.readouterr().err
        assert "--traces" in err and "zero.csv:3" in err


class TestPredictError:
    def test_linear_traces_have_zero_error(self, ws, tmp_path):
        out = tmp_path / "pred"
        assert main([
            "predict-error", "--traces", ws["traces_linear"], "--out", str(out),
        ]) == 0
        header, rows = read_csv(out / "prediction_error_summary.csv")
        assert header == ["trace", "interval", "timeframe", "steps", "mean_deg", "std_deg"]
        # 2 traces x 4 intervals x 2 timeframes
        assert len(rows) == 16
        by_col = dict(zip(header, zip(*rows)))
        assert all(float(x) < 1e-9 for x in by_col["mean_deg"])
        assert all(int(x) > 0 for x in by_col["steps"])
        steps_header, steps = read_csv(out / "prediction_error_steps.csv")
        assert steps_header == ["trace", "interval", "timeframe", "step", "error_deg"]
        assert len(steps) == sum(int(x) for x in by_col["steps"])

    def test_out_from_environment(self, ws, tmp_path, monkeypatch):
        out = tmp_path / "envout"
        monkeypatch.setenv("TILESIM_OUT", str(out))
        assert main(["predict-error", "--traces", ws["traces_linear"]]) == 0
        assert (out / "prediction_error_summary.csv").exists()

    def test_out_required_without_environment(self, ws, monkeypatch, capsys):
        monkeypatch.delenv("TILESIM_OUT", raising=False)
        assert main(["predict-error", "--traces", ws["traces_linear"]]) == 2
        assert "--out" in capsys.readouterr().err

    def test_bad_step(self, ws, tmp_path):
        assert main([
            "predict-error", "--traces", ws["traces_linear"],
            "--out", str(tmp_path), "--step", "0",
        ]) == 2

    @pytest.mark.parametrize(
        "flag, value",
        [("--intervals", "nan"), ("--intervals", "-5"), ("--timeframes", "0"),
         ("--step", "nan"), ("--intervals", "0.5,0.50"), ("--intervals", "0,-0"),
         ("--timeframes", "1,1.0")],
    )
    def test_bad_value_names_its_flag(self, ws, tmp_path, capsys, flag, value):
        """Exit 2 naming the flag, with no output: a value out of range, or
        one listed twice, compared as numbers."""
        assert main([
            "predict-error", "--traces", ws["traces_linear"],
            "--out", str(tmp_path / "out"), f"{flag}={value}",
        ]) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_quaternion_names_traces_and_file(self, tmp_path, capsys):
        traces = tmp_path / "traces"
        traces.mkdir()
        (traces / "zero.csv").write_text("0.0,1,0,0,0\n0.1,0,0,0,0\n")
        assert main([
            "predict-error", "--traces", str(traces), "--out", str(tmp_path / "out"),
        ]) == 2
        err = capsys.readouterr().err
        assert "--traces" in err and "zero.csv:2" in err

    def test_trace_too_sparse_for_the_window(self, tmp_path, capsys):
        sparse = tmp_path / "sparse"
        sparse.mkdir()
        traceio.save_viewing_trace(
            linear_gaze(0.0, 10.0, 20.0, hz=1.0), str(sparse / "slow.csv")
        )
        assert main([
            "predict-error", "--traces", str(sparse), "--out", str(tmp_path / "out"),
        ]) == 2
        err = capsys.readouterr().err
        assert "--traces" in err and "slow.csv" in err

    def test_a_step_too_fine_names_file_step_and_limit(self, tmp_path, capsys):
        """A step that makes more steps than prediction.MAX_STEPS exits 2 at
        once, naming the trace file, the step and the limit."""
        traces = tmp_path / "traces"
        traces.mkdir()
        traceio.save_viewing_trace(drifting_gaze(1, 5.0, hz=30.0), str(traces / "a.csv"))
        with deadline(2.0):
            code = main([
                "predict-error", "--traces", str(traces), "--step", "1e-300",
                "--out", str(tmp_path / "out"),
            ])
        assert code == 2
        err = capsys.readouterr().err
        assert str(traces / "a.csv") in err and "1e-300" in err and str(prediction.MAX_STEPS) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("step, named", [
        ([], "a.csv (interval 2.0, timeframe 0.1)"),
        (["--step", "100"], "(interval 0.5, timeframe 0.1)"),
    ], ids=["short-trace", "huge-step"])
    def test_a_combination_with_no_step(self, tmp_path, capsys, step, named):
        """Every (trace, interval, timeframe) combination yields a step, or the
        command exits 2 naming it; none is dropped silently."""
        traces = tmp_path / "traces"
        traces.mkdir()
        traceio.save_viewing_trace(drifting_gaze(1, 3.0), str(traces / "a.csv"))
        traceio.save_viewing_trace(drifting_gaze(2, 11.0), str(traces / "b.csv"))
        assert main([
            "predict-error", "--traces", str(traces), "--timeframes", "0.1",
            "--out", str(tmp_path / "out"), *step,
        ]) == 2
        err = capsys.readouterr().err
        assert "--traces" in err and named in err
        assert not (tmp_path / "out").exists()


class TestRun:
    def run_all(self, ws, out):
        return main([
            "run", "--manifest", ws["manifest"], "--traces", ws["traces"],
            "--network", ws["network"],
            "--policies", "naive,prediction,popularity,prediction-ba,transition",
            "--iterations", "2", "--samples", "8", "--out", str(out),
        ])

    def test_all_policies_write_reports(self, ws, tmp_path, capsys):
        out = tmp_path / "out"
        assert self.run_all(ws, out) == 0
        printed = capsys.readouterr().out
        assert "300.00 Mbit/s" in printed

        header, rows = read_csv(out / "segments.csv")
        assert len(rows) == 5 * 2 * 27
        assert header[:4] == ["policy", "iteration", "segment", "active"]

        _, summary_rows = read_csv(out / "policy_summary.csv")
        assert [r[0] for r in summary_rows] == [
            "naive", "prediction", "popularity", "prediction-ba", "transition",
        ]
        _, share = read_csv(out / "popularity_share.csv")
        assert len(share) == 5 * 27
        assert (out / "estimates.csv").exists()

        doc = json.loads((out / "summary.json").read_text())
        assert set(doc) == {
            "spec", "network_average_bps", "policies",
            "quality_gain_transition_over_prediction_ba_percent",
        }
        assert doc["network_average_bps"] == pytest.approx(300e6, rel=2e-3)
        assert doc["spec"]["iterations"] == 2
        assert doc["spec"]["seed"] == 0

    def test_network_scale_flag(self, ws, tmp_path):
        out = tmp_path / "scaled"
        assert main([
            "run", "--manifest", ws["manifest"], "--traces", ws["traces"],
            "--network", ws["network"], "--network-scale", "2.0",
            "--policies", "naive", "--samples", "8", "--out", str(out),
        ]) == 0
        doc = json.loads((out / "summary.json").read_text())
        assert doc["network_average_bps"] == pytest.approx(600e6, rel=2e-3)

    def test_config_file_and_flag_precedence(self, ws, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "manifest": ws["manifest"],
            "traces": ws["traces"],
            "network": ws["network"],
            "policies": "naive",
            "iterations": 3,
            "fov": "89x89",
            "samples_per_axis": 8,
        }))
        out = tmp_path / "cfgout"
        assert main([
            "run", "--config", str(cfg), "--iterations", "1", "--out", str(out),
        ]) == 0
        doc = json.loads((out / "summary.json").read_text())
        assert doc["spec"]["iterations"] == 1  # flag beats config
        assert doc["spec"]["fov"] == "89x89"  # config beats default
        assert doc["spec"]["policies"] == "naive"
        assert doc["spec"]["hysteresis"] == 1.0  # untouched default

    def test_config_unknown_key(self, ws, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_sources(self, tmp_path, capsys):
        assert main(["run", "--out", str(tmp_path)]) == 2
        assert "--manifest" in capsys.readouterr().err

    def test_unknown_policy(self, ws, tmp_path, capsys):
        assert main([
            "run", "--manifest", ws["manifest"], "--traces", ws["traces"],
            "--network", ws["network"], "--policies", "psychic",
            "--out", str(tmp_path),
        ]) == 2
        assert "psychic" in capsys.readouterr().err

    def test_unknown_cache_policy(self, ws, tmp_path):
        assert main([
            "run", "--manifest", ws["manifest"], "--traces", ws["traces"],
            "--network", ws["network"], "--cache-policy", "fifo",
            "--out", str(tmp_path),
        ]) == 2

    def test_bad_iterations_maps_to_usage_error(self, ws, tmp_path):
        assert main([
            "run", "--manifest", ws["manifest"], "--traces", ws["traces"],
            "--network", ws["network"], "--iterations", "0",
            "--out", str(tmp_path),
        ]) == 2

    @pytest.mark.parametrize(
        "flags, config, named",
        [
            (["--timeframe", "0"], None, "--timeframe"),
            (["--cache-policy", "lru", "--cache-capacity", "-5"], None, "--cache-capacity"),
            (["--network-scale", "0"], None, "--network-scale"),
            ([], {"iterations": "abc"}, "iterations"),
            ([], {"policies": ["psychic"]}, "psychic"),
            (["--samples", "0"], None, "--samples"),
            (["--hysteresis", "0.5"], None, "--hysteresis"),
            (["--hysteresis", "nan"], None, "--hysteresis"),
            (["--timeframe", "nan"], None, "--timeframe"),
            (["--timeframe", "50"], None, "--traces viewer0.csv"),  # traces span 41 s
            (["--cache-rate", "-1"], None, "--cache-rate"),
            (["--cache-rate", "nan"], None, "--cache-rate"),
            (["--cache-policy", "lru", "--cache-capacity", "100000000",
              "--cache-rate", "0"], None, "--cache-rate"),
            (["--cache-policy", "lru", "--cache-capacity", "100000000",
              "--warm-traces", "-1"], None, "--warm-traces"),
            ([], {"samples_per_axis": 0}, "--config: samples_per_axis"),
            ([], {"hysteresis": "nan"}, "--config: hysteresis"),
            ([], {"fov": "wide"}, "--config: fov"),
            ([], {"policies": []}, "--config: policies"),
            ([], {"cache_policy": "fifo"}, "--config: cache_policy"),
            (["--policies", "prediction,prediction"], None, "--policies prediction twice"),
            ([], {"policies": ["prediction", "prediction"]}, "--config: policies twice"),
            (["--network-scale", "1e-20"], None, "--network-scale overflows"),
            ([], {"iterations": 2.7}, "--config: iterations"),
            ([], {"samples_per_axis": True}, "--config: samples_per_axis"),
            ([], {"hysteresis": True}, "--config: hysteresis"),
            (["--cache-policy", "lru"], None, "--cache-policy --cache-capacity"),
            (["--cache-capacity", "1000000000"], None, "--cache-policy --cache-capacity"),
            ([], {"cache_policy": "lru"}, "--cache-policy --cache-capacity"),
            ([], {"cache_capacity_bytes": 10**9}, "--cache-policy --cache-capacity"),
        ],
    )
    def test_bad_value_names_its_source(self, ws, tmp_path, capsys, flags, config, named):
        """Exit 2, stderr holds each word of `named`, and numpy warned of
        nothing."""
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            flags = flags + ["--config", str(path)]
        assert main([
            "run", "--manifest", ws["manifest"], "--traces", ws["traces"],
            "--network", ws["network"], "--out", str(tmp_path / "out"),
        ] + flags) == 2
        err = capsys.readouterr().err
        assert all(word in err for word in named.split()), err
        assert "RuntimeWarning" not in err
        assert not (tmp_path / "out").exists()

    def test_manifest_whose_segment_bits_reach_2_63_names_sizes(self, ws, tmp_path, capsys):
        """Segment 0's top-level sizes total 2**60 bytes, whose bits reach
        2**63 and would wrap segment_bits' int64 sum."""
        doc = json.loads(Path(ws["manifest"]).read_text())
        sizes = doc["sizes_bytes"][0]
        sizes[0][-1] += 2**60 - sum(tile[-1] for tile in sizes)
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(doc))
        assert main([
            "run", "--manifest", str(manifest), "--traces", ws["traces"],
            "--network", ws["network"], "--out", str(tmp_path / "out"),
        ]) == 2
        assert f"error: --manifest: {manifest}: sizes_bytes: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_quaternion_names_traces_and_file(self, ws, tmp_path, capsys):
        traces = tmp_path / "traces"
        traces.mkdir()
        (traces / "zero.csv").write_text("0.0,1,0,0,0\n0.1,0,0,0,0\n")
        assert main([
            "run", "--manifest", ws["manifest"], "--traces", str(traces),
            "--network", ws["network"], "--out", str(tmp_path / "out"),
        ]) == 2
        err = capsys.readouterr().err
        assert "--traces" in err and "zero.csv:2" in err
        assert not (tmp_path / "out").exists()

    def test_config_path_must_be_a_string(self, ws, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"manifest": 5}))
        assert main([
            "run", "--config", str(cfg), "--traces", ws["traces"],
            "--network", ws["network"], "--out", str(tmp_path / "out"),
        ]) == 2
        assert "--config: manifest" in capsys.readouterr().err

    def test_simulation_failure_exits_1(self, ws, tmp_path, capsys, monkeypatch):
        def fail(**kwargs):
            raise ValueError("simulation failed")

        monkeypatch.setattr(playback, "run_experiment", fail)
        assert main([
            "run", "--manifest", ws["manifest"], "--traces", ws["traces"],
            "--network", ws["network"], "--out", str(tmp_path / "out"),
        ]) == 1
        assert "simulation failed" in capsys.readouterr().err

    def test_run_defaults_are_run_experiments(self, ws, tmp_path, monkeypatch):
        """Each default stated both in `RUN_SETTINGS` and in `run_experiment`'s
        signature is the same value once its setting converts it, and a run on
        every default (no cache policy, capacity 0) passes `run_experiment`
        its defaults, `cache=None` among them."""
        library = inspect.signature(playback.run_experiment).parameters
        table = {s.key: s for s in RUN_SETTINGS}
        stated = {"seed": "seed", "warm_traces": "warm_trace_count", "fov": "fov",
                  "timeframe": "timeframe", "samples_per_axis": "samples_per_axis",
                  "cache_rate_bps": "cache_rate_bps", "hysteresis": "hysteresis"}
        for key, param in stated.items():
            assert table[key].convert(table[key].default) == library[param].default, key
        calls = []

        def record(**kwargs):
            calls.append(kwargs)
            raise ValueError("recorded")

        monkeypatch.setattr(playback, "run_experiment", record)
        assert main([
            "run", "--manifest", ws["manifest"], "--traces", ws["traces"],
            "--network", ws["network"], "--out", str(tmp_path / "out"),
        ]) == 1
        (kwargs,) = calls
        assert kwargs["cache"] is None
        defaulted = {k: p.default for k, p in library.items() if p.default is not p.empty}
        assert {k: kwargs[k] for k in defaulted} == defaulted

    def test_gain_is_the_relative_difference_of_the_listed_quality_means(self, tmp_path):
        """On a 6x4 grid a segment's mean level is rounded, so the mean of a
        session's levels and the mean of its segments' means can differ in
        the last bits: summary.json's gain is read off its own `policies`."""
        m = manifest_mod.synthesize("g", 30.0, 1.5, TileGrid(6, 4), 4, 2e6, variability=0.1,
                                    seed=1)
        manifest, traces, network = tmp_path / "m.json", tmp_path / "traces", tmp_path / "net"
        manifest_mod.save(m, str(manifest))
        traces.mkdir()
        for i in range(4):
            traceio.save_viewing_trace(drifting_gaze(10 + i, 31.0, hz=30.0),
                                       str(traces / f"v{i}.csv"))
        netsim.save_trace(two_phase_network(60e6, 8e6, cut_s=10, duration_s=30, recover_s=20),
                          str(network))
        assert main(["popularity", "--manifest", str(manifest), "--traces", str(traces),
                     "--fov", "80x40", "--samples", "16"]) == 0
        out = tmp_path / "out"
        assert main([
            "run", "--manifest", str(manifest), "--traces", str(traces),
            "--network", str(network), "--policies", "prediction-ba,transition",
            "--iterations", "5", "--seed", "1", "--cache-policy", "lru",
            "--cache-capacity", str(int(int(m.sizes.sum()) * 0.05)), "--warm-traces", "2",
            "--samples", "16", "--out", str(out),
        ]) == 0
        doc = json.loads((out / "summary.json").read_text())
        quality = {row["policy"]: row["quality_mean"] for row in doc["policies"]}
        ours, base = quality["transition"], quality["prediction-ba"]
        assert doc[cli.GAIN_KEY] == (ours - base) / base * 100.0

    def test_help_shows_each_setting_and_its_default(self, capsys):
        """For every subcommand's table, not only `run`'s."""
        for command, table in TABLES.items():
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"])
            assert exc.value.code == 0
            options = " ".join(capsys.readouterr().out.split()).split(" options: ")[1]
            entries = {e.split()[0]: e for e in re.split(r" (?=--[a-z])", options)}
            for setting in table:
                assert setting.flag in entries, (command, setting.flag)
                if setting.default is not None:
                    assert f"(default: {setting.default})" in entries[setting.flag]

    def test_run_help_lists_every_member_of_both_policy_enums(self, capsys, monkeypatch):
        """--policies and --cache-policy list their choices from the enums,
        so a new member cannot be left out of either help text."""
        monkeypatch.setenv("COLUMNS", "1000")  # no line breaks inside a name
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        options = " ".join(capsys.readouterr().out.split()).split(" options: ")[1]
        entries = {e.split()[0]: e for e in re.split(r" (?=--[a-z])", options)}
        for flag, kind in (("--policies", PolicyKind), ("--cache-policy", EvictionPolicy)):
            help_ = entries[flag].split(maxsplit=2)[2]  # after the flag and its metavar
            assert {p.value for p in kind} <= set(re.findall(r"[a-z][a-z-]*", help_)), help_

    def test_readme_names_each_config_key_that_differs_from_its_flag(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        mapping = readme.split("Settings can also come from a JSON file")[1].split("\n\n")[0]
        renamed = [s for s in RUN_SETTINGS if s.key != s.flag[2:].replace("-", "_")]
        assert renamed
        for setting in renamed:
            assert f"`{setting.flag}`" in mapping and f"`{setting.key}`" in mapping

    def test_readme_names_each_segment_column_in_order(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        bullet = readme.split("- `segments.csv`:")[1].split("\n- ")[0]
        at = [bullet.find(f"`{name}`") for name in playback.SEGMENT_COLUMNS]
        assert -1 not in at and at == sorted(at), dict(zip(playback.SEGMENT_COLUMNS, at))

    def test_popularity_policy_needs_popularity_manifest(self, tmp_path, ws, capsys):
        bare = tmp_path / "bare.json"
        assert main(["synth", "--out", str(bare), "--duration", "10"]) == 0
        assert main([
            "run", "--manifest", str(bare), "--traces", ws["traces"],
            "--network", ws["network"], "--policies", "transition",
            "--out", str(tmp_path),
        ]) == 2
        assert "popularity" in capsys.readouterr().err

    def test_warmed_cache_gain_is_positive(self, tmp_path):
        m, gaze, stair, seg_bits = staircase_scenario(15.0)
        required = seg_bits / m.segment_length
        manifest_path = tmp_path / "stair.json"
        manifest_mod.save(m, str(manifest_path))
        traces = tmp_path / "traces"
        traces.mkdir()
        traceio.save_viewing_trace(gaze, str(traces / "t.csv"))
        net_path = tmp_path / "twophase.txt"
        netsim.save_trace(
            two_phase_network(8 * required, required / 8, cut_s=6.0,
                              duration_s=60.0),
            str(net_path),
        )
        out = tmp_path / "out"
        assert main([
            "run", "--manifest", str(manifest_path), "--traces", str(traces),
            "--network", str(net_path),
            "--policies", "prediction-ba,transition",
            "--cache-policy", "lfuda",
            "--cache-capacity", str(int(m.sizes.sum())),
            "--warm-traces", "1", "--samples", "16", "--out", str(out),
        ]) == 0
        doc = json.loads((out / "summary.json").read_text())
        gain = doc["quality_gain_transition_over_prediction_ba_percent"]
        assert gain is not None and gain > 0.0
        assert main(["verify", "--out", str(out)]) == 0


class TestVerify:
    def test_roundtrip_passes_then_catches_corruption(self, ws, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([
            "run", "--manifest", ws["manifest"], "--traces", ws["traces"],
            "--network", ws["network"], "--policies", "transition,popularity",
            "--samples", "8", "--out", str(out),
        ]) == 0
        assert main(["verify", "--out", str(out)]) == 0
        assert "match their sources" in capsys.readouterr().out

        share = out / "popularity_share.csv"
        text = share.read_text()
        assert ",0.0" in text
        share.write_text(text.replace(",0.0", ",0.25", 1))
        assert main(["verify", "--out", str(out)]) == 1
        assert "popularity_share.csv" in capsys.readouterr().err

    def test_verify_prediction_outputs(self, ws, tmp_path):
        out = tmp_path / "pred"
        assert main([
            "predict-error", "--traces", ws["traces_linear"], "--out", str(out),
        ]) == 0
        assert main(["verify", "--out", str(out)]) == 0

    def test_each_segment_column_parser_inverts_the_writer(self, ws, tmp_path, monkeypatch):
        written = []
        segment_rows = playback.segment_rows
        monkeypatch.setattr(
            playback, "segment_rows", lambda runs: written.append(segment_rows(runs)) or written[-1]
        )
        # Jittered sizes and a slow cache link give floats that need every digit.
        jittered = str(tmp_path / "jittered.json")
        assert main(["synth", "--out", jittered, "--variability", "0.3", "--seed", "3"]) == 0
        assert main([
            "popularity", "--manifest", jittered, "--traces", ws["traces"], "--fov", "0.1x0.1",
        ]) == 0
        out = tmp_path / "out"
        assert main([
            "run", "--manifest", jittered, "--traces", ws["traces"],
            "--network", ws["network"], "--policies", "prediction,popularity,transition",
            "--cache-policy", "gdsf", "--cache-capacity", "200000000", "--warm-traces", "3",
            "--cache-rate", "7e6", "--iterations", "2", "--samples", "8", "--out", str(out),
        ]) == 0
        (rows,) = written
        for column in ("download_start", "download_end", "estimate_bps", "savings"):
            assert any(len(repr(r[column])) >= 17 for r in rows), column
        back = cli._read_source(str(out / "segments.csv"), playback.SEGMENT_COLUMNS)
        assert len(back) == len(rows) == 3 * 2 * 27
        for got, row in zip(back, rows):
            assert list(got) == list(row) == list(playback.SEGMENT_COLUMNS)
            for column, value in row.items():
                assert type(got[column]) is type(value), column
                assert repr(got[column]) == repr(value), column
        assert {r["estimate_bps"] is None for r in back} == {True, False}
        assert {r["active"] for r in back} == {"prediction", "popularity"}
        assert any(r["bytes_from_cache"] for r in back)

    @pytest.fixture(scope="class")
    def outputs(self, ws, tmp_path_factory):
        """`run` and `predict-error` outputs in one directory."""
        out = tmp_path_factory.mktemp("verify") / "out"
        assert main([
            "run", "--manifest", ws["manifest"], "--traces", ws["traces"],
            "--network", ws["network"], "--policies", "transition,popularity",
            "--samples", "8", "--out", str(out),
        ]) == 0
        assert main([
            "predict-error", "--traces", ws["traces_linear"], "--out", str(out),
        ]) == 0
        return out

    @pytest.mark.parametrize(
        "name, line, edit, named",
        [
            ("segments.csv", 2, lambda c: c[:1] + ["one"] + c[2:], "segments.csv:3: iteration"),
            ("segments.csv", 2, lambda c: c[:-1], "segments.csv:3: 13 cells"),
            ("segments.csv", 2, lambda c: c + ["7"], "segments.csv:3: 15 cells"),
            ("segments.csv", 0, lambda c: [x.replace("stall", "stalls") for x in c],
             "segments.csv: 'stalls'"),
            ("prediction_error_steps.csv", 1, lambda c: c[:3] + ["1.5"] + c[4:],
             "prediction_error_steps.csv:2: step"),
            ("segments.csv", 2, lambda c: c[:1] + ["9" * 200_000] + c[2:],
             "--out: segments.csv:3: field larger than field limit"),
            ("segments.csv", 2, lambda c: c[:4] + ["3|x|0"] + c[5:], "segments.csv:3: levels"),
            ("segments.csv", 2, lambda c: c[:4] + [""] + c[5:], "segments.csv:3: levels"),
        ],
        ids=["bad-cell", "too-few-cells", "extra-cell", "renamed-column", "bad-step-cell",
             "oversized-cell", "bad-level", "empty-levels"],
    )
    def test_malformed_source_exits_2_naming_file_and_line(
        self, outputs, tmp_path, capsys, name, line, edit, named
    ):
        """Exit 2, and stderr holds each word of `named`."""
        out = tmp_path / "out"
        shutil.copytree(outputs, out)
        lines = (out / name).read_text().splitlines()
        lines[line] = ",".join(edit(lines[line].split(",")))
        (out / name).write_text("\n".join(lines) + "\n")
        assert main(["verify", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert all(word in err for word in named.split()), err

    @pytest.mark.parametrize(
        "damage",
        [
            lambda path: path.unlink(),
            lambda path: path.write_text(""),
            lambda path: path.write_text(path.read_text().replace("estimate_mean", "mean")),
            lambda path: append_undecodable(path),
        ],
        ids=["missing", "empty", "re-headed", "not-utf8"],
    )
    def test_derived_file_defect_is_a_listed_mismatch(self, outputs, tmp_path, capsys, damage):
        out = tmp_path / "out"
        shutil.copytree(outputs, out)
        damage(out / "estimates.csv")
        assert main(["verify", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "estimates.csv" in err and "verify: 1 mismatch(es)" in err, err

    @pytest.mark.parametrize(
        "name, damage, lines",
        [
            ("policy_summary.csv", lambda text: text.replace(b"\n", b"\r\n"), [1, 2, 3]),
            ("estimates.csv", quote_second_line, [2]),
        ],
        ids=["crlf", "quoted-row"],
    )
    def test_derived_file_that_parses_alike_is_still_compared_byte_for_byte(
        self, outputs, tmp_path, capsys, name, damage, lines
    ):
        """CRLF line ends, or every cell of a row quoted: csv reads the same
        cells back, but the bytes are not what the writer writes. Exit 1,
        listing each differing line with its file and line number."""
        out = tmp_path / "out"
        shutil.copytree(outputs, out)
        path = out / name
        path.write_bytes(damage(path.read_bytes()))
        assert main(["verify", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert [line.split(": ")[0] for line in err[:-1]] == [f"{path}:{k}" for k in lines], err
        assert err[-1] == "verify: 1 mismatch(es)", err

    @pytest.mark.parametrize(
        "name, damage, named",
        [
            ("segments.csv", append_undecodable, "UTF-8"),
            ("prediction_error_steps.csv", lambda path: (path.unlink(), path.mkdir()),
             "cannot read"),
        ],
        ids=["not-utf8", "a-directory"],
    )
    def test_unreadable_source_exits_2_naming_it(
        self, outputs, tmp_path, capsys, name, damage, named
    ):
        out = tmp_path / "out"
        shutil.copytree(outputs, out)
        damage(out / name)
        assert main(["verify", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert name in err and named in err, err

    @pytest.fixture(scope="class")
    def gain_outputs(self, ws, tmp_path_factory):
        """A `run` whose summary.json holds a transition-over-prediction-ba gain."""
        out = tmp_path_factory.mktemp("gain") / "out"
        assert main([
            "run", "--manifest", ws["manifest"], "--traces", ws["traces"],
            "--network", ws["network"], "--policies", "prediction-ba,transition",
            "--network-scale", "0.05", "--iterations", "2", "--samples", "8", "--out", str(out),
        ]) == 0
        return out

    @pytest.mark.parametrize(
        "key, field",
        [("policies", field) for field in playback.SUMMARY_COLUMNS] + [(cli.GAIN_KEY, None)],
    )
    def test_tampered_summary_value_is_a_listed_mismatch(
        self, gain_outputs, tmp_path, capsys, key, field
    ):
        """Each of summary.json's values derived from segments.csv, changed
        by one ulp, one count or one letter: exit 1, naming the file and the
        key."""
        out = tmp_path / "out"
        shutil.copytree(gain_outputs, out)
        path = out / "summary.json"
        doc = json.loads(path.read_text())
        assert isinstance(doc[cli.GAIN_KEY], float)
        holder, name = (doc["policies"][-1], field) if field else (doc, key)
        value = holder[name]
        holder[name] = (
            value + "x" if isinstance(value, str)
            else value + 1 if isinstance(value, int)
            else math.nextafter(value, math.inf)
        )
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        assert main(["verify", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith(f"{path}: {key}: "), err
        assert err[-1] == "verify: 1 mismatch(es)", err

    @pytest.mark.parametrize(
        "damage",
        [
            lambda path: path.unlink(),
            lambda path: path.write_text("{"),
            lambda path: path.write_text("[]"),
            lambda path: path.write_text(json.dumps(
                {k: v for k, v in json.loads(path.read_text()).items() if k != "policies"}
            )),
        ],
        ids=["missing", "not-json", "not-an-object", "key-missing"],
    )
    def test_summary_defect_is_a_listed_mismatch(self, gain_outputs, tmp_path, capsys, damage):
        out = tmp_path / "out"
        shutil.copytree(gain_outputs, out)
        damage(out / "summary.json")
        assert main(["verify", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "summary.json" in err and "verify: 1 mismatch(es)" in err, err

    def test_summary_spec_and_network_average_go_unchecked(self, gain_outputs, tmp_path, capsys):
        """Neither is derived from segments.csv, so verify cannot recompute them."""
        out = tmp_path / "out"
        shutil.copytree(gain_outputs, out)
        path = out / "summary.json"
        doc = json.loads(path.read_text())
        doc["spec"]["seed"] += 1
        doc["network_average_bps"] *= 2.0
        path.write_text(json.dumps(doc))
        assert main(["verify", "--out", str(out)]) == 0
        assert "verify: 4 derived file(s) match their sources" in capsys.readouterr().out

    def test_empty_dir(self, tmp_path, capsys):
        assert main(["verify", "--out", str(tmp_path)]) == 2
        assert "no verifiable outputs" in capsys.readouterr().err

    def test_missing_dir(self, tmp_path):
        assert main(["verify", "--out", str(tmp_path / "nope")]) == 2


def declared_console_script(name):
    """The ``[project.scripts]`` entry point that pyproject.toml declares."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as f:
        value = tomllib.load(f)["project"]["scripts"][name]
    return importlib.metadata.EntryPoint(name, value, "console_scripts")


def test_console_script_is_installed(tmp_path):
    """The declared ``tilesim`` command runs a subcommand from its argv.

    An install puts a wrapper script on PATH, which is run as is. Without
    one (tests run from a checkout), the test runs the body of the wrapper
    that pip generates for the declared ``module:attr``."""
    entry = declared_console_script("tilesim")
    assert callable(entry.load()), f"{entry.value} is not callable"
    exe = shutil.which("tilesim")
    if exe:
        command = [exe]
    else:
        wrapper = (f"import sys; from {entry.module} import {entry.attr}; "
                   f"sys.exit({entry.attr}())")
        command = [sys.executable, "-c", wrapper]
    out = tmp_path / "m.json"
    proc = subprocess.run(
        command + ["synth", "--out", str(out), "--duration", "3"],
        capture_output=True, text=True, env=checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "wrote" in proc.stdout
    assert out.exists()


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "tilesim.cli", "--help"],
        capture_output=True, text=True, env=checkout_env(),
    )
    assert proc.returncode == 0
    assert "synth" in proc.stdout
