"""Streaming-session simulation and multi-run experiments.

The client downloads one segment ahead of playback: segment k's download
starts when segment k-1 finished downloading or started playing, whichever is
later. Cache-served and origin-served bytes of a segment transfer
concurrently over their own links; the segment is ready at the later of the
two completions. Playback begins when segment 0 is ready (startup delay is
not counted as stalling); a segment arriving after its scheduled playback
start stalls the player and shifts the remaining schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adaptation import (
    PolicyKind,
    TransitionState,
    require_popularity,
    select_naive,
    select_popularity,
    select_prediction,
    select_prediction_ba,
    transition_step,
)
from .cachesim import Cache, EvictionPolicy, warm
from .geometry import FovSpec, ViewingTrace, VisibilityMap, tile_visibility
from .manifest import VideoManifest, naive_segment_bytes, segment_bits, segment_requests
from .netsim import LastSampleEstimator, Link, NetworkTrace
from .prediction import PredictorConfig, fit, nearest_sample, predict, select_window


@dataclass
class SessionConfig:
    manifest: VideoManifest
    viewing_trace: ViewingTrace
    network_trace: NetworkTrace
    policy: PolicyKind
    cache: Cache | None = None
    cache_rate_bps: float = 100e6
    fov: FovSpec = field(default_factory=FovSpec)
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    samples_per_axis: int = 32
    hysteresis: float = 1.0


@dataclass
class SegmentRecord:
    segment: int
    policy: str  # mechanism that chose the levels (transitions record the delegate)
    levels: tuple[int, ...]
    bytes_total: int
    bytes_from_cache: int
    bytes_from_origin: int
    download_start: float
    download_end: float
    stall: float
    mean_quality: float
    estimate_bps: float | None  # estimate in force when the segment was chosen


@dataclass
class SessionMetrics:
    policy: str
    records: list[SegmentRecord]
    savings: np.ndarray = field(repr=False)  # per segment vs all-top-level
    cache_hit_rate: float | None = None
    cache_byte_hit_rate: float | None = None

    @property
    def total_stall(self) -> float:
        return float(sum(r.stall for r in self.records))

    @property
    def avg_quality(self) -> float:
        return float(np.mean([r.levels for r in self.records]))


# Policies whose selections read the predicted viewport's visibility.
PLANNED_POLICIES = (PolicyKind.PREDICTION, PolicyKind.PREDICTION_BA, PolicyKind.TRANSITION)


@dataclass(frozen=True)
class PredictionPlan:
    """One viewing trace's predictions, per segment: the visibility map of the
    pose predicted for the segment, and the bit rate that `transition`
    compares against its estimate (the unconstrained prediction selection's
    bits over the segment length). Neither depends on download timing, the
    estimate or the policy, so every session replaying the trace shares them.
    """

    visibility: tuple[VisibilityMap, ...]  # views into one (segments, tiles) array
    required_bps: tuple[float, ...]


def _check_trace(cfg: SessionConfig) -> None:
    if not cfg.viewing_trace:
        raise ValueError("viewing trace is empty")
    span = cfg.viewing_trace.t.item(-1) - cfg.viewing_trace.t.item(0)
    if span < cfg.predictor.timeframe:
        raise ValueError(
            f"viewing trace spans {span:.3f}s, shorter than the "
            f"{cfg.predictor.timeframe:.3f}s regression window"
        )


def prediction_plan(cfg: SessionConfig) -> PredictionPlan:
    """The plan of cfg's viewing trace under its manifest, FoV, predictor and
    samples_per_axis.

    Segment k's regression window ends at media time max(0, k * s - interval),
    whatever the download timing, and its pose is predicted at k * s, the
    segment's playback position. If the window holds no sample (sparse
    traces), the nearest sample is used as a constant fallback. Every
    segment's pose is scored in one tile_visibility call.
    """
    _check_trace(cfg)
    m = cfg.manifest
    s = m.segment_length
    trace = cfg.viewing_trace
    interval = cfg.predictor.interval if cfg.predictor.interval is not None else s
    poses = []
    for seg in range(m.segment_count):
        target = seg * s
        now = max(0.0, target - interval)
        window = select_window(trace, now, cfg.predictor.timeframe)
        if not window:
            k = nearest_sample(trace, now)
            window = trace[k : k + 1]
        poses.append(predict(fit(window, now), target))
    scores = tile_visibility(tuple(poses), cfg.fov, m.grid, cfg.samples_per_axis)
    scores.setflags(write=False)
    visibility = tuple(VisibilityMap(m.grid, row) for row in scores)
    required = tuple(
        segment_bits(m, seg, select_prediction(m, seg, vis, None)) / s
        for seg, vis in enumerate(visibility)
    )
    return PredictionPlan(visibility, required)


def simulate(cfg: SessionConfig, plan: PredictionPlan | None = None) -> SessionMetrics:
    """Run one streaming session; deterministic for identical configs.

    Policies that read visibility take each segment's map, and `transition`
    its required bit rate, from `plan`: prediction_plan(cfg), built here when
    not given.
    """
    m = cfg.manifest
    s = m.segment_length
    _check_trace(cfg)
    if cfg.policy in (PolicyKind.POPULARITY, PolicyKind.TRANSITION):
        require_popularity(m)
    if cfg.policy not in PLANNED_POLICIES:
        plan = None
    elif plan is None:
        plan = prediction_plan(cfg)
    estimator = LastSampleEstimator()
    state = TransitionState(hysteresis=cfg.hysteresis)
    origin = Link(cfg.network_trace)
    records: list[SegmentRecord] = []
    savings = np.zeros(m.segment_count)
    sched_prev = 0.0  # wall-clock playback start of the previous segment
    end_prev = 0.0

    for seg in range(m.segment_count):
        dl_start = 0.0 if seg == 0 else max(end_prev, sched_prev)
        vis = plan.visibility[seg] if plan is not None else None

        estimate = estimator.current()
        budget = estimate.bits_per_second if estimate is not None else None
        active = cfg.policy
        if cfg.policy is PolicyKind.TRANSITION:
            active = transition_step(state, estimate, plan.required_bps[seg])

        if active is PolicyKind.NAIVE:
            levels = select_naive(m, seg)
        elif active is PolicyKind.PREDICTION:
            levels = select_prediction(m, seg, vis, budget)
        elif active is PolicyKind.POPULARITY:
            levels = select_popularity(m, seg)
        elif active is PolicyKind.PREDICTION_BA:
            levels = select_prediction_ba(m, seg, vis, budget)
        else:
            raise ValueError(f"unknown policy {active}")

        cache_bytes = 0
        origin_bytes = 0
        for key, size in segment_requests(m, seg, levels):
            if cfg.cache is not None and cfg.cache.request(key, size):
                cache_bytes += size
            else:
                origin_bytes += size

        origin_end = origin.transfer_time(dl_start, origin_bytes)
        cache_end = dl_start + cache_bytes * 8.0 / cfg.cache_rate_bps
        dl_end = max(origin_end, cache_end)
        if origin_bytes > 0:
            estimator.update(origin_bytes * 8.0, dl_start, origin_end)

        if seg == 0:
            sched = dl_end  # playback starts when the first segment is ready
            stall = 0.0
        else:
            sched = sched_prev + s
            stall = max(0.0, dl_end - sched)
            sched += stall

        total = cache_bytes + origin_bytes
        savings[seg] = 1.0 - total / naive_segment_bytes(m, seg)
        records.append(
            SegmentRecord(
                segment=seg,
                policy=active.value,
                levels=tuple(int(x) for x in levels),
                bytes_total=total,
                bytes_from_cache=cache_bytes,
                bytes_from_origin=origin_bytes,
                download_start=dl_start,
                download_end=dl_end,
                stall=stall,
                mean_quality=float(np.mean(levels)),
                estimate_bps=(
                    float(estimate.bits_per_second) if estimate is not None else None
                ),
            )
        )
        sched_prev, end_prev = sched, dl_end

    stats = cfg.cache.stats if cfg.cache is not None else None
    return SessionMetrics(
        policy=cfg.policy.value,
        records=records,
        savings=savings,
        cache_hit_rate=stats.hit_rate if stats else None,
        cache_byte_hit_rate=stats.byte_hit_rate if stats else None,
    )


@dataclass
class ExperimentReport:
    policies: list[str]
    iterations: int
    seed: int
    runs: dict[str, list[SessionMetrics]]

    def quality_gain_percent(self) -> float | None:
        """Relative mean-quality gain of transition over prediction-ba, in percent."""
        of, over = PolicyKind.TRANSITION.value, PolicyKind.PREDICTION_BA.value
        if of not in self.runs or over not in self.runs:
            return None
        ours = float(np.mean([m.avg_quality for m in self.runs[of]]))
        base = float(np.mean([m.avg_quality for m in self.runs[over]]))
        if base == 0.0:
            return None
        return (ours - base) / base * 100.0


def run_experiment(
    manifest: VideoManifest,
    viewing_traces: list[ViewingTrace],
    network_trace: NetworkTrace,
    policies: list[PolicyKind],
    iterations: int,
    cache_policy: EvictionPolicy | None = None,
    cache_capacity_bytes: int = 0,
    seed: int = 0,
    warm_trace_count: int = 30,
    fov: FovSpec | None = None,
    predictor: PredictorConfig | None = None,
    samples_per_axis: int = 32,
    cache_rate_bps: float = 100e6,
    hysteresis: float = 1.0,
) -> ExperimentReport:
    """Paired multi-run experiment over one or more distinct policies.

    Iteration i uses viewing_traces[i % len] and a warm-up seed derived from
    (seed, i) for every policy, so runs are comparable pairwise across
    policies. The cache is warmed once per iteration, with counters reset
    before measurement, and each run gets a copy of its iteration's warmed
    cache. Each trace's warm-up assignments and prediction plan are computed
    once per experiment.
    """
    if not viewing_traces:
        raise ValueError("need at least one viewing trace")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if len(set(policies)) != len(policies):
        raise ValueError(f"each policy may be listed once, got {[p.value for p in policies]}")
    fov = fov or FovSpec()
    predictor = predictor or PredictorConfig()
    runs: dict[str, list[SessionMetrics]] = {p.value: [] for p in policies}
    assignments: dict[int, np.ndarray] = {}
    plans: dict[int, PredictionPlan] = {}
    for i in range(iterations):
        k = i % len(viewing_traces)
        warmed = None
        if cache_policy is not None and cache_capacity_bytes > 0:
            warmed = Cache(cache_capacity_bytes, cache_policy)
            warm(
                warmed,
                manifest,
                viewing_traces,
                fov,
                seed=seed * 100003 + i,
                trace_count=warm_trace_count,
                samples_per_axis=samples_per_axis,
                assignments=assignments,
            )
            warmed.reset_stats()
        for policy in policies:
            cfg = SessionConfig(
                manifest=manifest,
                viewing_trace=viewing_traces[k],
                network_trace=network_trace,
                policy=policy,
                cache=warmed.copy() if warmed is not None else None,
                cache_rate_bps=cache_rate_bps,
                fov=fov,
                predictor=predictor,
                samples_per_axis=samples_per_axis,
                hysteresis=hysteresis,
            )
            if policy in PLANNED_POLICIES and k not in plans:
                plans[k] = prediction_plan(cfg)
            runs[policy.value].append(simulate(cfg, plans.get(k)))
    return ExperimentReport(
        policies=[p.value for p in policies],
        iterations=iterations,
        seed=seed,
        runs=runs,
    )


# --- report flattening (shared by the CLI writer and verifier) ---------------

SEGMENT_COLUMNS = {  # column -> parser that reads its cell back
    "policy": str,
    "iteration": int,
    "segment": int,
    "active": str,
    "levels": str,
    "bytes_total": int,
    "bytes_from_cache": int,
    "bytes_from_origin": int,
    "download_start": float,
    "download_end": float,
    "stall": float,
    "mean_quality": float,
    "estimate_bps": lambda cell: float(cell) if cell else None,
    "savings": float,
}


def segment_rows(report: ExperimentReport) -> list[dict]:
    rows = []
    for policy in report.policies:
        for i, metrics in enumerate(report.runs[policy]):
            for seg, r in enumerate(metrics.records):
                rows.append(
                    {
                        "policy": policy,
                        "iteration": i,
                        "segment": r.segment,
                        "active": r.policy,
                        "levels": "|".join(str(x) for x in r.levels),
                        "bytes_total": r.bytes_total,
                        "bytes_from_cache": r.bytes_from_cache,
                        "bytes_from_origin": r.bytes_from_origin,
                        "download_start": r.download_start,
                        "download_end": r.download_end,
                        "stall": r.stall,
                        "mean_quality": r.mean_quality,
                        "estimate_bps": r.estimate_bps,
                        "savings": float(metrics.savings[seg]),
                    }
                )
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


def policy_summary_rows(rows: list[dict]) -> list[dict]:
    """Per-policy aggregates, computed only from flattened segment rows so a
    verifier can reproduce them from the CSV alone."""
    out = []
    for (policy,), mine in group_rows(rows, "policy").items():
        runs = group_rows(mine, "iteration")
        iterations = sorted(runs)
        stalls = np.array([sum(r["stall"] for r in runs[i]) for i in iterations])
        quality = np.array(
            [np.mean([r["mean_quality"] for r in runs[i]]) for i in iterations]
        )
        out.append(
            {
                "policy": policy,
                "runs": len(iterations),
                "stall_mean": float(stalls.mean()),
                "stall_std": float(stalls.std()),
                "quality_mean": float(quality.mean()),
                "quality_std": float(quality.std()),
                "savings_mean": float(np.mean([r["savings"] for r in mine])),
            }
        )
    return out


SHARE_COLUMNS = ["policy", "segment", "popularity_share"]


def popularity_share_rows(rows: list[dict]) -> list[dict]:
    """Fraction of iterations whose active mechanism was popularity, per
    (policy, segment)."""
    out = []
    for (policy, segment), mine in group_rows(rows, "policy", "segment").items():
        share = float(
            np.mean([1.0 if r["active"] == "popularity" else 0.0 for r in mine])
        )
        out.append({"policy": policy, "segment": segment, "popularity_share": share})
    return out


ESTIMATE_COLUMNS = ["policy", "segment", "estimate_mean", "estimate_std"]


def estimate_rows(rows: list[dict]) -> list[dict]:
    """Mean/std of the bandwidth-estimate trajectory per (policy, segment),
    over the iterations that had an estimate."""
    out = []
    for (policy, segment), mine in group_rows(rows, "policy", "segment").items():
        values = [r["estimate_bps"] for r in mine if r["estimate_bps"] is not None]
        if values:
            arr = np.array(values, dtype=float)
            mean: float | None = float(arr.mean())
            std: float | None = float(arr.std())
        else:
            mean = std = None
        out.append(
            {
                "policy": policy,
                "segment": segment,
                "estimate_mean": mean,
                "estimate_std": std,
            }
        )
    return out
