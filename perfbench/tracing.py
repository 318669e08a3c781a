"""Span tracer for the benchmark's per-layer pass.

Spans are recorded from outside the program: the tracer replaces public
functions of tilesim modules with wrappers. `from .x import y` binds `y` in
every importing module, so each wrapper is installed at every module global
that holds the original function; methods are replaced on their class.

A span holds its name, start, end, parent span, session and phase. A session
is one CLI subcommand or, inside `run`, one (policy, iteration) playback
session together with the cache warm-up that precedes it. Spans stay in
memory; `write_spans` saves them when the pass ends.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable

# Layers whose work sits in set-up for some workloads (the synthetic inputs;
# the popularity plan that `run` reads) are counted over set-up and pipeline.
# Every other layer is counted over the timed pipeline only.
SETUP_LAYERS = ("synthetic", "popularity")

POLICIES = ("prediction", "popularity", "prediction-ba", "transition")


@dataclass(frozen=True)
class Target:
    module: str  # e.g. "tilesim.cachesim"
    attr: str  # function name, or "Class.method"
    span: str  # span name; its first dotted part is the layer
    pre: Callable | None = None  # (tracer, args) -> state, before the call
    post: Callable | None = None  # (tracer, args, result, state) -> span value


def _call_args(tracer, args, result, state):
    return args


def _cache_state(tracer, args):
    return len(args[0])


def _cache_value(tracer, args, result, before):
    """(hit, evictions) from the public interface: the return value and
    len(cache) around the call. A miss that fits is inserted first, and may
    then be evicted in the same call."""
    cache, size = args[0], args[2]
    inserted = 0 if result or size > cache.capacity else 1
    return bool(result), before + inserted - len(cache)


def _slots_state(tracer, args):
    return args[0].slots_consumed


def _slots_value(tracer, args, result, before):
    return args[0].slots_consumed - before


def _len_value(tracer, args, result, state):
    return len(result)


def _heat_samples(tracer, args, result, state):
    # Every visibility map sums to 1, so total heat counts the samples binned.
    return int(round(float(result.heat.sum())))


def _session_opener(label):
    def pre(tracer, args):
        tracer.open_session(label)

    return pre


def _simulate_value(tracer, args, result, state):
    policy = result.policy
    iteration = tracer.sim_counts.get(policy, 0)
    tracer.sim_counts[policy] = iteration + 1
    tracer.session_labels[tracer.session] = f"run:{policy}/{iteration}"
    tracer.open_session("run")
    return policy, result.total_stall, result.avg_quality, float(result.savings.mean())


TARGETS = [
    Target("tilesim.geometry", "tile_visibility", "geometry.tile_visibility", post=_call_args),
    Target("tilesim.prediction", "select_window", "prediction.select_window"),
    Target("tilesim.prediction", "nearest_sample", "prediction.nearest_sample"),
    Target("tilesim.prediction", "fit", "prediction.fit"),
    Target("tilesim.prediction", "error_experiment", "prediction.error_experiment"),
    Target(
        "tilesim.cachesim", "Cache.request", "cachesim.Cache.request",
        pre=_cache_state, post=_cache_value,
    ),
    Target("tilesim.cachesim", "warm", "cachesim.warm"),
    Target("tilesim.cachesim", "viewing_assignments", "cachesim.viewing_assignments"),
    Target("tilesim.traceio", "load_trace_dir", "traceio.load_trace_dir"),
    Target(
        "tilesim.traceio", "load_viewing_trace", "traceio.load_viewing_trace",
        post=_len_value,
    ),
    Target(
        "tilesim.netsim", "Link.transfer_time", "netsim.Link.transfer_time",
        pre=_slots_state, post=_slots_value,
    ),
    Target("tilesim.netsim", "load_trace", "netsim.load_trace"),
    Target("tilesim.adaptation", "select_naive", "adaptation.select"),
    Target("tilesim.adaptation", "select_prediction", "adaptation.select"),
    Target("tilesim.adaptation", "select_popularity", "adaptation.select"),
    Target("tilesim.adaptation", "select_prediction_ba", "adaptation.select"),
    Target("tilesim.adaptation", "transition_step", "adaptation.transition_step"),
    Target("tilesim.popularity", "build_heat", "popularity.build_heat", post=_heat_samples),
    Target("tilesim.popularity", "quantize", "popularity.quantize"),
    Target("tilesim.manifest", "segment_requests", "manifest.segment_requests"),
    Target("tilesim.manifest", "load", "manifest.load"),
    Target("tilesim.manifest", "save", "manifest.save"),
    Target("tilesim.playback", "simulate", "playback.simulate", post=_simulate_value),
    Target("tilesim.playback", "run_experiment", "playback.run_experiment"),
    Target("tilesim.playback", "segment_rows", "playback.segment_rows", post=_len_value),
    Target("tilesim.playback", "policy_summary_rows", "playback.report"),
    Target("tilesim.playback", "popularity_share_rows", "playback.report"),
    Target("tilesim.playback", "estimate_rows", "playback.report"),
    Target("tilesim.cli", "cmd_run", "cli.run", pre=_session_opener("run")),
    Target("tilesim.cli", "cmd_popularity", "cli.popularity", pre=_session_opener("popularity")),
    Target(
        "tilesim.cli", "cmd_predict_error", "cli.predict-error",
        pre=_session_opener("predict-error"),
    ),
    Target("tilesim.synthetic", "constant_gaze", "synthetic.constant_gaze"),
    Target("tilesim.synthetic", "gaussian_gaze_population", "synthetic.gaussian_gaze_population"),
    Target("tilesim.synthetic", "drifting_gaze", "synthetic.drifting_gaze"),
    Target("tilesim.synthetic", "two_phase_network", "synthetic.two_phase_network"),
]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.sessions: list[int] = []
        self.phases: list[str] = []
        self.values: dict[int, object] = {}
        self.stack: list[int] = []
        self.phase = "setup"
        self.session = 0
        self.session_labels = ["setup"]
        self.sim_counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._undo: list[Callable[[], None]] = []

    def open_session(self, label: str) -> None:
        self.session = len(self.session_labels)
        self.session_labels.append(label)

    def truncate(self, count: int) -> None:
        """Drop every span from index `count` on (spans of a finished pass)."""
        columns = (self.names, self.starts, self.ends, self.parents, self.sessions, self.phases)
        for column in columns:
            del column[count:]
        for key in [k for k in self.values if k >= count]:
            del self.values[key]
        self.sim_counts = {}

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        sessions, phases, values, stack = self.sessions, self.phases, self.values, self.stack
        name, pre, post = target.span, target.pre, target.post
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = pre(tracer, args) if pre is not None else None
            sid = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            sessions.append(tracer.session)
            phases.append(tracer.phase)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if post is not None:
                values[sid] = post(tracer, args, result, state)
            return result

        return traced

    def install(self, targets: list[Target] = TARGETS) -> None:
        """Wrap every target at each of its binding sites.

        A target the program no longer has is recorded in `missing`; its
        spans then never fire, which the coverage check reports.
        """
        self.missing = []
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("tilesim") and m]
        for target in targets:
            owner_name, _, attr = target.attr.rpartition(".")
            owner = sys.modules.get(target.module)
            if owner_name:
                owner = getattr(owner, owner_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            wrapped = self._wrap(original, target)
            sites = [owner] if owner_name else modules
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, key, wrapped)
                        self._undo.append(functools.partial(setattr, site, key, original))

    def uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(["id", "name", "phase", "session", "parent", "start_s", "end_s"])
            origin = self.starts[0] if self.starts else 0.0
            for sid, name in enumerate(self.names):
                writer.writerow(
                    [sid, name, self.phases[sid], self.session_labels[self.sessions[sid]],
                     self.parents[sid], repr(self.starts[sid] - origin),
                     repr(self.ends[sid] - origin)]
                )


# Spans that must fire on each workload: the layers the workload exercises.
_RUN_SPANS = [
    "geometry.tile_visibility", "prediction.select_window", "prediction.nearest_sample",
    "prediction.fit", "cachesim.Cache.request", "cachesim.warm",
    "cachesim.viewing_assignments", "traceio.load_trace_dir", "traceio.load_viewing_trace",
    "netsim.Link.transfer_time", "netsim.load_trace", "adaptation.select",
    "adaptation.transition_step", "popularity.build_heat", "popularity.quantize",
    "manifest.segment_requests", "manifest.load", "playback.simulate",
    "playback.run_experiment", "playback.segment_rows", "playback.report", "cli.run",
    "synthetic.two_phase_network",
]
EXPECTED_SPANS = {
    "edge-hits": _RUN_SPANS + ["synthetic.constant_gaze", "synthetic.gaussian_gaze_population"],
    "dense-churn": _RUN_SPANS + ["synthetic.drifting_gaze"],
    "trace-analysis": [
        "geometry.tile_visibility", "prediction.select_window", "prediction.nearest_sample",
        "prediction.fit", "prediction.error_experiment", "traceio.load_trace_dir",
        "traceio.load_viewing_trace", "popularity.build_heat", "popularity.quantize",
        "manifest.load", "manifest.save", "cli.popularity", "cli.predict-error",
        "synthetic.drifting_gaze",
    ],
}


def _counted(tracer: Tracer, sid: int) -> bool:
    return (
        tracer.phases[sid] == "pipeline"
        or tracer.names[sid].split(".", 1)[0] in SETUP_LAYERS
    )


def span_calls(tracer: Tracer) -> dict[str, int]:
    calls: dict[str, int] = {}
    for sid, name in enumerate(tracer.names):
        if _counted(tracer, sid):
            calls[name] = calls.get(name, 0) + 1
    return calls


def layer_metrics(tracer: Tracer, mechanism_switches: int) -> dict[str, float]:
    """Per-layer metrics from the recorded spans: every name in
    BENCHMARK.json's per_layer list except `tracing.overhead_s`, which the
    traced process measures itself.

    busy_s sums the durations of a name's outermost spans; self_s subtracts
    from each span the durations of its child spans.
    """
    names, parents = tracer.names, tracer.parents
    duration = [end - start for start, end in zip(tracer.starts, tracer.ends)]
    child_time = [0.0] * len(names)
    for sid, parent in enumerate(parents):
        if parent >= 0:
            child_time[parent] += duration[sid]
    spans: dict[str, list[int]] = {}
    for sid, name in enumerate(names):
        if _counted(tracer, sid):
            spans.setdefault(name, []).append(sid)

    def ancestors(sid):
        parent = parents[sid]
        while parent >= 0:
            yield parent
            parent = parents[parent]

    def calls(name):
        return len(spans.get(name, []))

    def busy(*group):
        wanted = set(group)
        return sum(
            duration[sid]
            for name in wanted
            for sid in spans.get(name, [])
            if not any(names[a] in wanted for a in ancestors(sid))
        )

    def self_time(name):
        return sum(duration[sid] - child_time[sid] for sid in spans.get(name, []))

    def values(name):
        return [tracer.values[sid] for sid in spans.get(name, [])]

    def ratio(part, whole):
        return part / whole if whole else 0.0

    poses = values("geometry.tile_visibility")
    requests = {"cachesim.warm": [0, 0], "playback.simulate": [0, 0]}
    evictions = 0
    for sid in spans.get("cachesim.Cache.request", []):
        hit, evicted = tracer.values[sid]
        evictions += evicted
        for a in ancestors(sid):
            if names[a] in requests:
                requests[names[a]][0] += hit
                requests[names[a]][1] += 1
                break
    synthetic = [name for name in spans if name.startswith("synthetic.")]
    metrics = {
        "geometry.tile_visibility.calls": calls("geometry.tile_visibility"),
        "geometry.tile_visibility.busy_s": busy("geometry.tile_visibility"),
        "geometry.tile_visibility.distinct_ratio": ratio(len(set(poses)), len(poses)),
        "prediction.error_experiment.busy_s": busy("prediction.error_experiment"),
        "cachesim.warm.hit_ratio": ratio(*requests["cachesim.warm"]),
        "cachesim.session.hit_ratio": ratio(*requests["playback.simulate"]),
        "cachesim.evictions": evictions,
        "traceio.load_trace_dir.busy_s": busy("traceio.load_trace_dir"),
        "traceio.samples_loaded": sum(values("traceio.load_viewing_trace")),
        "netsim.slots_consumed": sum(values("netsim.Link.transfer_time")),
        "netsim.load_trace.busy_s": busy("netsim.load_trace"),
        "adaptation.transition_step.calls": calls("adaptation.transition_step"),
        "adaptation.mechanism_switches": mechanism_switches,
        "popularity.build_heat.busy_s": busy("popularity.build_heat"),
        "popularity.build_heat.samples": sum(values("popularity.build_heat")),
        "popularity.quantize.busy_s": busy("popularity.quantize"),
        "manifest.load.busy_s": busy("manifest.load"),
        "manifest.save.busy_s": busy("manifest.save"),
        "playback.simulate.self_s": self_time("playback.simulate"),
        "playback.run_experiment.self_s": self_time("playback.run_experiment"),
        "playback.report.busy_s": busy("playback.report", "playback.segment_rows"),
        "playback.segment_rows.rows": sum(values("playback.segment_rows")),
        "cli.run.self_s": self_time("cli.run"),
        "cli.popularity.self_s": self_time("cli.popularity"),
        "cli.predict-error.self_s": self_time("cli.predict-error"),
        "synthetic.busy_s": busy(*synthetic),
        "tracing.spans": len(names),
    }
    for name in (
        "prediction.select_window", "prediction.nearest_sample", "prediction.fit",
        "cachesim.Cache.request", "cachesim.warm", "cachesim.viewing_assignments",
        "netsim.Link.transfer_time", "adaptation.select", "manifest.segment_requests",
        "playback.simulate",
    ):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.busy_s"] = busy(name)
    sessions: dict[str, list[tuple]] = {}
    for policy, stall, quality, savings in values("playback.simulate"):
        sessions.setdefault(policy, []).append((stall, quality, savings))
    for policy in POLICIES:
        runs = sessions.get(policy, [])
        for k, field in enumerate(("stall_s", "quality", "savings")):
            metrics[f"playback.sim.{policy}.{field}"] = (
                sum(run[k] for run in runs) / len(runs) if runs else 0.0
            )
    return metrics
