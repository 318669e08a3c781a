"""Streaming-session simulation and multi-run experiments.

The client downloads one segment ahead of playback: segment k's download
starts when segment k-1 finished downloading or started playing, whichever is
later. Cache-served and origin-served bytes of a segment transfer
concurrently over their own links; the segment is ready at the later of the
two completions. Playback begins when segment 0 is ready (startup delay is
not counted as stalling); a segment arriving after its scheduled playback
start stalls the player and shifts the remaining schedule.

`run_experiment` builds each viewing trace's work once: its prediction plan,
which `simulate` replays, and its warm-up levels, which `cachesim.warm`
replays. Of the session functions, only `prediction_plan` reads a viewing
trace.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field, fields
from typing import Callable, Mapping

import numpy as np

from .adaptation import (
    PolicyKind,
    require_popularity,
    select_naive,
    select_popularity,
    select_prediction,
    select_prediction_ba,
    transition_step,
)
from .cachesim import Cache, viewing_assignments, warm
from .geometry import FovSpec, ViewingTrace, rank_tiles, tile_visibility
from .manifest import VideoManifest, naive_segment_bytes, segment_bits, segment_requests
from .netsim import Link, NetworkTrace
from .prediction import nearest_sample, predict_poses, select_window


def _column(parse: Callable, cell: Callable | None = None):
    """A `segments.csv` column: `parse` reads its cell back, and `cell`, when
    given, turns the field's value into the row's value."""
    return field(metadata={"parse": parse, "cell": cell})


def _levels_cell(cell: str) -> str:
    """A `levels` cell, unchanged, once each `|`-separated part reads as an int."""
    for part in cell.split("|"):
        int(part)
    return cell


@dataclass
class SegmentRecord:
    """One `segments.csv` row after its `policy` and `iteration` columns: each
    field is a column, in CSV order, declared with its parser."""

    segment: int = _column(int)
    active: str = _column(str)  # mechanism that chose the levels (transitions record the delegate)
    levels: tuple[int, ...] = _column(_levels_cell, cell=lambda levels: "|".join(map(str, levels)))
    bytes_total: int = _column(int)
    bytes_from_cache: int = _column(int)
    bytes_from_origin: int = _column(int)
    download_start: float = _column(float)
    download_end: float = _column(float)
    stall: float = _column(float)
    mean_quality: float = _column(float)
    # estimate in force when the segment was chosen; an empty cell when None
    estimate_bps: float | None = _column(lambda cell: float(cell) if cell else None)
    savings: float = _column(float)  # vs the segment with every tile at the top level


@dataclass
class SessionMetrics:
    policy: str
    records: list[SegmentRecord]

    @property
    def total_stall(self) -> float:
        return float(sum(r.stall for r in self.records))

    @property
    def avg_quality(self) -> float:  # as policy_summary_rows takes a session's quality
        return float(np.mean([r.mean_quality for r in self.records]))

    @property
    def savings(self) -> np.ndarray:  # read by the benchmark's tracer
        return np.array([r.savings for r in self.records])


# Policies whose selections read the predicted viewport's tile ranking.
PLANNED_POLICIES = (PolicyKind.PREDICTION, PolicyKind.PREDICTION_BA, PolicyKind.TRANSITION)
# Policies whose selections read the manifest's popularity trace.
POPULARITY_POLICIES = (PolicyKind.POPULARITY, PolicyKind.TRANSITION)


@dataclass(frozen=True)
class PredictionPlan:
    """One viewing trace's predictions, per segment: the visible tiles of the
    pose predicted for the segment, by descending visibility (the `order`
    the prediction selections take), and the bit rate that `transition`
    compares against its estimate (the unconstrained prediction selection's
    bits over the segment length). Neither depends on download timing, the
    estimate or the policy, so every session replaying the trace shares them.
    """

    ranked: tuple[np.ndarray, ...]  # read-only, one per segment
    required_bps: tuple[float, ...]


def _check_trace(
    trace: ViewingTrace, timeframe: float | None, name: str = "viewing trace"
) -> None:
    """The one check of a trace before it is replayed: ValueError, naming
    it by `name`, for an empty trace, and, given a timeframe, for a
    timeframe <= 0 or a trace that spans less. A trace only the warm-up
    reads (timeframe None) needs samples alone."""
    if not trace:
        raise ValueError(f"{name} is empty")
    if timeframe is None:
        return
    if timeframe <= 0.0:
        raise ValueError("timeframe must be positive")
    span = trace.t.item(-1) - trace.t.item(0)
    if span < timeframe:
        raise ValueError(
            f"{name} spans {span:.3f}s, shorter than the "
            f"{timeframe:.3f}s regression window"
        )


def check_traces(traces: Mapping[str, ViewingTrace], iterations: int, timeframe: float) -> None:
    """Check a run's traces, each named by its key, before any work. Sessions
    replay the first `iterations`; the rest only warm the cache."""
    for k, (name, trace) in enumerate(traces.items()):
        _check_trace(trace, timeframe if k < iterations else None, name)


def prediction_plan(
    manifest: VideoManifest,
    trace: ViewingTrace,
    fov: FovSpec = FovSpec(),
    timeframe: float = 0.1,
    samples_per_axis: int = 32,
) -> PredictionPlan:
    """The plan of one viewing trace under a manifest, FoV, regression window
    (`timeframe`, seconds) and samples_per_axis.

    Segment k's regression window ends at media time max(0, k * s - s), one
    segment length before its playback position k * s, whatever the download
    timing, and its pose is predicted at k * s (predict_poses). An empty
    window (sparse traces) takes the sample nearest its end instead, a
    constant fallback. All segments' windows are looked up at once, their
    poses scored in one tile_visibility call, and each row ranked once.
    """
    _check_trace(trace, timeframe)
    m = manifest
    s = m.segment_length
    targets = np.arange(m.segment_count) * s
    nows = np.maximum(targets - s, 0.0)
    lo, hi = select_window(trace, nows, timeframe)
    k, empty = nearest_sample(trace, nows), lo == hi
    lo, hi = np.where(empty, k, lo), np.where(empty, k + 1, hi)
    poses = predict_poses(trace, lo, hi, nows, targets)
    scores = tile_visibility(poses, fov, m.grid, samples_per_axis)
    ranked = tuple(rank_tiles(row) for row in scores)
    for order in ranked:
        order.setflags(write=False)
    required = tuple(
        segment_bits(m, seg, select_prediction(m, seg, order, None)) / s
        for seg, order in enumerate(ranked)
    )
    return PredictionPlan(ranked, required)


def simulate(
    manifest: VideoManifest,
    network_trace: NetworkTrace,
    policy: PolicyKind,
    plan: PredictionPlan | None = None,
    cache: Cache | None = None,
    cache_rate_bps: float = 100e6,
    hysteresis: float = 1.0,
) -> SessionMetrics:
    """Run one streaming session; deterministic for identical inputs.

    A policy in PLANNED_POLICIES replays `plan`, the viewer's prediction_plan:
    each segment's tile ranking and, for `transition`, its required bit rate.
    The other policies ignore it and read no viewing trace. The bandwidth
    estimate is the throughput of the last segment that fetched origin bytes:
    its origin bits over its origin transfer time; None until the first.
    """
    m = manifest
    s = m.segment_length
    if hysteresis < 1.0:
        raise ValueError("hysteresis must be >= 1")
    if policy in POPULARITY_POLICIES:
        require_popularity(m)
    if policy in PLANNED_POLICIES and plan is None:
        raise ValueError(f"policy {policy.value} needs a prediction plan")
    estimate: float | None = None
    mechanism = PolicyKind.PREDICTION  # the transition policy's live mechanism
    origin = Link(network_trace)
    records: list[SegmentRecord] = []
    sched_prev = 0.0  # wall-clock playback start of the previous segment
    end_prev = 0.0

    for seg in range(m.segment_count):
        dl_start = max(end_prev, sched_prev)
        order = plan.ranked[seg] if plan is not None else None
        active = policy
        if policy is PolicyKind.TRANSITION:
            active = mechanism = transition_step(
                mechanism, estimate, plan.required_bps[seg], hysteresis
            )

        if active is PolicyKind.NAIVE:
            levels = select_naive(m, seg)
        elif active is PolicyKind.PREDICTION:
            levels = select_prediction(m, seg, order, estimate)
        elif active is PolicyKind.POPULARITY:
            levels = select_popularity(m, seg)
        elif active is PolicyKind.PREDICTION_BA:
            levels = select_prediction_ba(m, seg, order, estimate)
        else:
            raise ValueError(f"unknown policy {active}")

        cache_bytes = 0
        origin_bytes = 0
        for key, size in segment_requests(m, seg, levels):
            if cache is not None and cache.request(key, size):
                cache_bytes += size
            else:
                origin_bytes += size

        origin_end = origin.transfer_time(dl_start, origin_bytes)
        cache_end = dl_start + cache_bytes * 8.0 / cache_rate_bps
        dl_end = max(origin_end, cache_end)

        if seg == 0:
            sched = dl_end  # playback starts when the first segment is ready
            stall = 0.0
        else:
            sched = sched_prev + s
            stall = max(0.0, dl_end - sched)
            sched += stall

        total = cache_bytes + origin_bytes
        records.append(
            SegmentRecord(
                segment=seg,
                active=active.value,
                levels=tuple(levels.tolist()),
                bytes_total=total,
                bytes_from_cache=cache_bytes,
                bytes_from_origin=origin_bytes,
                download_start=dl_start,
                download_end=dl_end,
                stall=stall,
                mean_quality=float(np.mean(levels)),
                estimate_bps=estimate,
                savings=1.0 - total / naive_segment_bytes(m, seg),
            )
        )
        sched_prev, end_prev = sched, dl_end
        if origin_bytes > 0 and origin_end > dl_start:
            estimate = origin_bytes * 8.0 / (origin_end - dl_start)

    return SessionMetrics(policy=policy.value, records=records)


def run_experiment(
    manifest: VideoManifest,
    viewing_traces: list[ViewingTrace],
    network_trace: NetworkTrace,
    policies: list[PolicyKind],
    iterations: int,
    cache: Cache | None = None,
    seed: int = 0,
    warm_trace_count: int = 30,
    fov: FovSpec = FovSpec(),
    timeframe: float = 0.1,
    samples_per_axis: int = 32,
    cache_rate_bps: float = 100e6,
    hysteresis: float = 1.0,
) -> dict[str, list[SessionMetrics]]:
    """Paired multi-run experiment over one or more distinct policies: each
    policy's sessions, one per iteration, keyed by its value in `policies`
    order.

    Iteration i replays viewing_traces[i % len] for every policy, so runs are
    comparable pairwise across policies. Each iteration warms a copy of
    `cache` (None: no cache) with the viewings of a draw of warm_trace_count
    traces (all of them when fewer) seeded by (seed, i), and each run gets a
    copy of that; `cache` itself never changes. Each trace's warm-up levels
    and prediction plan are built once per experiment, and only here:
    policies that read no visibility build no plan.

    Whatever the policies, a timeframe <= 0, and an empty trace or a
    replayed trace shorter than the timeframe (named by its index), raise
    ValueError before any work, and every session refuses a hysteresis < 1.
    A trace's times never decrease: ViewingTrace refuses one that goes back.
    """
    if not viewing_traces:
        raise ValueError("need at least one viewing trace")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if len(set(policies)) != len(policies):
        raise ValueError(f"each policy may be listed once, got {[p.value for p in policies]}")
    named = {f"viewing trace {k}": t for k, t in enumerate(viewing_traces)}
    check_traces(named, iterations, timeframe)

    @functools.cache
    def plan(k: int) -> PredictionPlan:
        return prediction_plan(manifest, viewing_traces[k], fov, timeframe, samples_per_axis)

    @functools.cache
    def levels(k: int) -> np.ndarray:
        return viewing_assignments(manifest, viewing_traces[k], fov, samples_per_axis)

    n = len(viewing_traces)
    runs: dict[str, list[SessionMetrics]] = {p.value: [] for p in policies}
    for i in range(iterations):
        warmed = None
        if cache is not None:
            warmed = cache.copy()
            # Drawing without replacement doubles as the replay order.
            drawn = random.Random(seed * 100003 + i).sample(range(n), min(warm_trace_count, n))
            warm(warmed, manifest, map(levels, drawn))  # lazy: scored inside the warm-up
        for policy in policies:
            planned = plan(i % n) if policy in PLANNED_POLICIES else None
            session_cache = warmed.copy() if warmed is not None else None
            runs[policy.value].append(simulate(
                manifest, network_trace, policy, planned, session_cache, cache_rate_bps, hysteresis
            ))
    return runs


# --- report flattening (shared by the CLI writer and verifier) ---------------

SEGMENT_COLUMNS = {  # column -> parser that reads its cell back
    "policy": str,
    "iteration": int,
    **{f.name: f.metadata["parse"] for f in fields(SegmentRecord)},
}
_CELLS = [(f.name, f.metadata["cell"]) for f in fields(SegmentRecord) if f.metadata["cell"]]


def segment_rows(runs: dict[str, list[SessionMetrics]]) -> list[dict]:
    rows = []
    for policy, sessions in runs.items():
        for i, metrics in enumerate(sessions):
            for r in metrics.records:
                row = {"policy": policy, "iteration": i, **vars(r)}
                for name, cell in _CELLS:
                    row[name] = cell(row[name])
                rows.append(row)
    return rows


SUMMARY_COLUMNS = [
    "policy",
    "runs",
    "stall_mean",
    "stall_std",
    "quality_mean",
    "quality_std",
    "savings_mean",
]


def group_rows(rows: list[dict], *columns: str) -> dict[tuple, list[dict]]:
    """Rows grouped by their values in `columns`: groups in first-seen order,
    rows in input order within each group."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault(tuple(row[c] for c in columns), []).append(row)
    return groups


def aggregate(rows: list[dict], columns: list[str], keys: int, reduce: Callable) -> list[dict]:
    """The one group-by of every derived table: per group of `rows` by the first
    `keys` columns, first seen first, a row of the key and then reduce(group)."""
    groups = group_rows(rows, *columns[:keys])
    return [dict(zip(columns, (*key, *reduce(group)))) for key, group in groups.items()]


def mean_std(values: list) -> tuple[float, float] | tuple[None, None]:
    """numpy's mean and std of `values` as floats; (None, None) for no values."""
    if not values:
        return None, None
    arr = np.array(values, dtype=float)
    return float(arr.mean()), float(arr.std())


def policy_summary_rows(rows: list[dict]) -> list[dict]:
    """Per-policy aggregates, computed only from flattened segment rows so a
    verifier can reproduce them from the CSV alone."""

    def reduce(mine: list[dict]) -> tuple:
        runs = group_rows(mine, "iteration")
        iterations = sorted(runs)
        stalls = [sum(r["stall"] for r in runs[i]) for i in iterations]
        quality = [np.mean([r["mean_quality"] for r in runs[i]]) for i in iterations]
        savings = float(np.mean([r["savings"] for r in mine]))
        return len(iterations), *mean_std(stalls), *mean_std(quality), savings

    return aggregate(rows, SUMMARY_COLUMNS, 1, reduce)


def quality_gain_percent(summary: list[dict]) -> float | None:
    """Relative mean-quality gain of transition over prediction-ba, in
    percent, read off policy_summary_rows' output: the relative difference
    of the two policies' `quality_mean`. None when either policy is missing
    or prediction-ba's quality is 0."""
    quality = {row["policy"]: row["quality_mean"] for row in summary}
    ours = quality.get(PolicyKind.TRANSITION.value)
    base = quality.get(PolicyKind.PREDICTION_BA.value)
    if ours is None or not base:
        return None
    return (ours - base) / base * 100.0


SHARE_COLUMNS = ["policy", "segment", "popularity_share"]


def popularity_share_rows(rows: list[dict]) -> list[dict]:
    """Fraction of iterations whose active mechanism was popularity, per
    (policy, segment)."""
    return aggregate(rows, SHARE_COLUMNS, 2, lambda mine: [float(
        np.mean([1.0 if r["active"] == "popularity" else 0.0 for r in mine])
    )])


ESTIMATE_COLUMNS = ["policy", "segment", "estimate_mean", "estimate_std"]


def estimate_rows(rows: list[dict]) -> list[dict]:
    """Mean/std of the bandwidth-estimate trajectory per (policy, segment),
    over the iterations that had an estimate."""
    return aggregate(rows, ESTIMATE_COLUMNS, 2, lambda mine: mean_std(
        [r["estimate_bps"] for r in mine if r["estimate_bps"] is not None]
    ))
