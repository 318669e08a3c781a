"""The benchmark's workloads: inputs generated from a seed, and the CLI
pipeline whose host time is measured.

Every path is relative to the repository root, which is the working
directory of the benchmark and of its pipeline processes. `tilesim run`
records its input and output paths in `summary.json`, so relative paths keep
output digests independent of where the repository is checked out.

Generator and CLI functions are always reached through their module
(`synthetic.drifting_gaze`, `cli.main`), never bound to a local name, so the
traced pass sees these calls through the wrappers it installs on the modules.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from dataclasses import dataclass

from tilesim import cli, manifest, netsim, synthetic, traceio

WORK_ROOT = ".perfbench_work"


def quiet_cli(argv: list[str]) -> int:
    """Run one `tilesim` subcommand in-process with its stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def digests(paths: list[str]) -> dict[str, str]:
    """SHA-256 of each file, or "missing"."""
    # Imported here: hashlib loads OpenSSL, about 3.5 MB of resident memory
    # that would otherwise count in a pipeline process's `peak_rss_mb`.
    import hashlib

    out = {}
    for path in paths:
        try:
            with open(path, "rb") as f:
                out[path] = hashlib.sha256(f.read()).hexdigest()
        except OSError:
            out[path] = "missing"
    return out


def _save_traces(traces: list, directory: str, names: list[str]) -> None:
    os.makedirs(directory, exist_ok=True)
    for trace, name in zip(traces, names):
        traceio.save_viewing_trace(trace, os.path.join(directory, f"{name}.csv"))


def _write_params(path: str, params: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(params, f, sort_keys=True)


def _read_params(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the pipeline run on them.

    `setup` writes the inputs under `inputs/` and returns the exit codes of
    the CLI calls it made; `prepare` restores the pipeline's starting state
    (untimed); `commands` lists the timed CLI invocations in order.
    """

    name: str
    tiny: bool

    @property
    def root(self) -> str:
        return os.path.join(WORK_ROOT, ("tiny-" if self.tiny else "") + self.name)

    @property
    def inputs(self) -> str:
        return os.path.join(self.root, "inputs")

    @property
    def out(self) -> str:
        return os.path.join(self.root, "out")

    def reset_inputs(self) -> None:
        shutil.rmtree(self.inputs, ignore_errors=True)
        os.makedirs(self.inputs)

    def prepare(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def input_files(self) -> list[str]:
        found = []
        for base, _, files in os.walk(self.inputs):
            found += [os.path.join(base, f) for f in files]
        return sorted(found)

    def setup(self, seed: int) -> list[int]:
        raise NotImplementedError

    def commands(self, seed: int) -> list[list[str]]:
        raise NotImplementedError

    def output_files(self) -> list[str]:
        """Files the pipeline writes; each is digested and compared."""
        return [
            os.path.join(self.out, f)
            for f in (
                "segments.csv",
                "policy_summary.csv",
                "popularity_share.csv",
                "estimates.csv",
                "summary.json",
            )
        ]

    def verify_dirs(self) -> list[str]:
        """Output directories `tilesim verify` must accept."""
        return [self.out]


class EdgeHits(Workload):
    """The README worked example: clustered constant-gaze viewers behind a
    large LFUDA cache, so nearly every session request is a cache hit."""

    def size(self) -> dict:
        if self.tiny:
            return {"duration": 6.0, "cut": 3.0, "clustered": 2, "iterations": 1}
        return {"duration": 40.0, "cut": 20.0, "clustered": 10, "iterations": 3}

    def setup(self, seed: int) -> list[int]:
        s = self.size()
        self.reset_inputs()
        span = s["duration"] + 1.0
        # The two side viewers come first, so the measured iterations
        # (iteration i replays trace i mod N) include both of them.
        traces = [
            synthetic.constant_gaze(yaw, 1.0, span, hz=10.0) for yaw in (78.0, 84.0)
        ]
        traces += synthetic.gaussian_gaze_population(
            s["clustered"], span, hz=10.0, yaw_std=12.0, pitch_std=2.0, seed=seed
        )
        names = ["side00", "side01"] + [f"viewer{i:02d}" for i in range(s["clustered"])]
        _save_traces(traces, os.path.join(self.inputs, "traces"), names)
        netsim.save_trace(
            synthetic.two_phase_network(250e6, 2e6, cut_s=s["cut"], duration_s=300.0),
            os.path.join(self.inputs, "network.pps"),
        )
        path = os.path.join(self.inputs, "manifest.json")
        codes = [
            quiet_cli(
                ["synth", "--out", path, "--duration", str(s["duration"]),
                 "--grid", "4x4", "--qualities", "3", "--seed", str(seed)]
            ),
            quiet_cli(
                ["popularity", "--manifest", path,
                 "--traces", os.path.join(self.inputs, "traces"), "--fov", "80x40"]
            ),
        ]
        capacity = int(manifest.load(path).sizes.sum()) // 2
        _write_params(os.path.join(self.inputs, "params.json"), {"capacity": capacity})
        return codes

    def commands(self, seed: int) -> list[list[str]]:
        params = _read_params(os.path.join(self.inputs, "params.json"))
        return [
            ["run",
             "--manifest", os.path.join(self.inputs, "manifest.json"),
             "--traces", os.path.join(self.inputs, "traces"),
             "--network", os.path.join(self.inputs, "network.pps"),
             "--policies", "prediction,popularity,prediction-ba,transition",
             "--iterations", str(self.size()["iterations"]),
             "--cache-policy", "lfuda", "--cache-capacity", str(params["capacity"]),
             "--fov", "80x40", "--seed", str(seed), "--out", self.out]
        ]


class DenseChurn(Workload):
    """Long 90 Hz drifting viewers on an 8x8 grid behind a small GDSF cache,
    with a link that dips for the middle third of the run."""

    CACHE_SHARE = 0.03

    def size(self) -> dict:
        if self.tiny:
            return {"duration": 12.0, "viewers": 2, "iterations": 1}
        return {"duration": 120.0, "viewers": 4, "iterations": 2}

    def setup(self, seed: int) -> list[int]:
        s = self.size()
        self.reset_inputs()
        duration = s["duration"]
        names = [f"viewer{i:02d}" for i in range(s["viewers"])]
        trace_seeds = [seed * 1000 + i for i in range(s["viewers"])]
        for hz, directory in ((90.0, "traces"), (10.0, "traces10")):
            traces = [
                synthetic.drifting_gaze(ts, duration + 1.0, hz=hz) for ts in trace_seeds
            ]
            _save_traces(traces, os.path.join(self.inputs, directory), names)
        netsim.save_trace(
            synthetic.two_phase_network(
                100e6, 15e6, cut_s=duration / 3.0, duration_s=duration,
                recover_s=2.0 * duration / 3.0,
            ),
            os.path.join(self.inputs, "network.pps"),
        )
        path = os.path.join(self.inputs, "manifest.json")
        codes = [
            quiet_cli(
                ["synth", "--out", path, "--duration", str(duration),
                 "--grid", "8x8", "--qualities", "4", "--base-bitrate", "2e6",
                 "--variability", "0.1", "--seed", str(seed)]
            ),
            # The popularity plan comes from a 10 Hz copy of the same viewers.
            quiet_cli(
                ["popularity", "--manifest", path,
                 "--traces", os.path.join(self.inputs, "traces10"), "--fov", "80x40"]
            ),
        ]
        capacity = int(int(manifest.load(path).sizes.sum()) * self.CACHE_SHARE)
        _write_params(os.path.join(self.inputs, "params.json"), {"capacity": capacity})
        return codes

    def commands(self, seed: int) -> list[list[str]]:
        params = _read_params(os.path.join(self.inputs, "params.json"))
        return [
            ["run",
             "--manifest", os.path.join(self.inputs, "manifest.json"),
             "--traces", os.path.join(self.inputs, "traces"),
             "--network", os.path.join(self.inputs, "network.pps"),
             "--policies", "prediction,prediction-ba,transition",
             "--iterations", str(self.size()["iterations"]),
             "--cache-policy", "gdsf", "--cache-capacity", str(params["capacity"]),
             "--warm-traces", "2", "--fov", "80x40", "--seed", str(seed),
             "--out", self.out]
        ]


class TraceAnalysis(Workload):
    """`popularity` then `predict-error` on 90 Hz drifting viewers; no
    network and no cache."""

    def size(self) -> dict:
        if self.tiny:
            return {"duration": 6.0, "viewers": 1}
        return {"duration": 20.0, "viewers": 3}

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.out, "manifest.json")

    def setup(self, seed: int) -> list[int]:
        s = self.size()
        self.reset_inputs()
        traces = [
            synthetic.drifting_gaze(seed * 1000 + i, s["duration"] + 1.0, hz=90.0)
            for i in range(s["viewers"])
        ]
        _save_traces(
            traces,
            os.path.join(self.inputs, "traces"),
            [f"viewer{i:02d}" for i in range(s["viewers"])],
        )
        return [
            quiet_cli(
                ["synth", "--out", os.path.join(self.inputs, "manifest.json"),
                 "--duration", str(s["duration"]), "--grid", "8x8",
                 "--qualities", "4", "--seed", str(seed)]
            )
        ]

    def prepare(self) -> None:
        # `popularity` rewrites its manifest in place; every pipeline starts
        # from the manifest set-up wrote.
        super().prepare()
        os.makedirs(self.out)
        shutil.copyfile(os.path.join(self.inputs, "manifest.json"), self.manifest_path)

    def commands(self, seed: int) -> list[list[str]]:
        traces = os.path.join(self.inputs, "traces")
        return [
            ["popularity", "--manifest", self.manifest_path, "--traces", traces,
             "--fov", "80x40"],
            ["predict-error", "--traces", traces, "--out", self.out],
        ]

    def output_files(self) -> list[str]:
        return [
            self.manifest_path,
            os.path.join(self.out, "prediction_error_steps.csv"),
            os.path.join(self.out, "prediction_error_summary.csv"),
        ]


WORKLOADS = {"edge-hits": EdgeHits, "dense-churn": DenseChurn, "trace-analysis": TraceAnalysis}


def get(name: str, tiny: bool = False) -> Workload:
    return WORKLOADS[name](name=name, tiny=tiny)
