"""Shared test fixtures and reference oracles.

The oracles here are deliberately naive reimplementations (linear scans,
explicit matrix math) so the package's optimized paths are checked against
independent derivations.
"""

from __future__ import annotations

import bisect
import copy
import csv
import heapq
import json
import math
import random
from dataclasses import dataclass
from typing import Hashable, NamedTuple

import numpy as np

from tilesim import manifest as mf
from tilesim.adaptation import (
    PolicyKind,
    TransitionState,
    require_popularity,
    select_naive,
    select_popularity,
    select_prediction,
    select_prediction_ba,
    transition_step,
)
from tilesim.cachesim import CacheStats, EvictionPolicy, quality_bands, viewing_assignments
from tilesim.geometry import (
    FovSpec,
    Orientation,
    TileGrid,
    ViewingTrace,
    rank_tiles,
    tile_visibility,
)
from tilesim.netsim import Link, NetworkTrace, TraceError
from tilesim.playback import (
    ExperimentReport,
    SegmentRecord,
    SessionConfig,
    SessionMetrics,
)
from tilesim.prediction import PredictorConfig, fit, nearest_sample, predict, select_window
from tilesim.synthetic import constant_gaze
from tilesim.traceio import ViewingTraceError, quaternion_to_orientation


class ScanCache:
    """Reference cache: no heap, no cached occupancy.

    Every eviction recomputes each entry's priority from its own state (the
    aging level stamped at its last access) and scans for the minimum,
    breaking ties by least recent access. The incoming object is in the pool
    during its own eviction round, same as the real cache.
    """

    def __init__(self, capacity: int, policy: str):
        self.capacity = capacity
        self.policy = policy
        self.level = 0.0
        self.clock = 0
        self.entries: dict = {}  # key -> {size, freq, last, stamp}

    def _priority(self, e: dict) -> float:
        if self.policy == "lru":
            return float(e["last"])
        if self.policy == "lfuda":
            return e["stamp"] + e["freq"]
        return e["stamp"] + e["freq"] / e["size"]

    @property
    def occupancy(self) -> int:
        return sum(e["size"] for e in self.entries.values())

    def request(self, key, size: int) -> bool:
        self.clock += 1
        e = self.entries.get(key)
        if e is not None:
            e["freq"] += 1
            e["last"] = self.clock
            e["stamp"] = self.level
            return True
        if size > self.capacity:
            return False
        self.entries[key] = {
            "size": size,
            "freq": 1,
            "last": self.clock,
            "stamp": self.level,
        }
        while self.occupancy > self.capacity:
            victim = min(
                self.entries,
                key=lambda k: (self._priority(self.entries[k]), self.entries[k]["last"]),
            )
            self.level = self._priority(self.entries[victim])
            del self.entries[victim]
        return False


@dataclass
class _Entry:
    size: int
    frequency: int
    last_access: int
    priority: float


class HeapCache:
    """`cachesim.Cache` before its entries became immutable tuples and its
    request inlined the priority, push and eviction steps: mutable `_Entry`
    records, and a copy that rebuilds every entry."""

    def __init__(self, capacity_bytes: int, policy: EvictionPolicy):
        if capacity_bytes < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = int(capacity_bytes)
        self.policy = EvictionPolicy(policy)
        self.aging_level = 0.0  # L term; only LFUDA/GDSF read it
        self.occupancy = 0
        self.stats = CacheStats()
        self._entries: dict[Hashable, _Entry] = {}
        self._clock = 0
        # Min-heap of (priority, last_access, key); stale items are skipped
        # when their stamp no longer matches the live entry, and the heap is
        # rebuilt from the live entries once it holds more than twice as many
        # items as there are entries. Each request pushes at most once, at a
        # fresh clock value, and the rebuild pushes live entries only, so no
        # two items share a last_access and keys are never compared.
        self._heap: list[tuple[float, int, Hashable]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def _priority(self, frequency: int, size: int, clock: int) -> float:
        if self.policy is EvictionPolicy.LRU:
            return float(clock)
        if self.policy is EvictionPolicy.LFUDA:
            return self.aging_level + frequency
        return self.aging_level + frequency / size

    def _push(self, key: Hashable, entry: _Entry) -> None:
        heapq.heappush(self._heap, (entry.priority, entry.last_access, key))
        if len(self._heap) > 2 * len(self._entries):
            self._heap = [(e.priority, e.last_access, k) for k, e in self._entries.items()]
            heapq.heapify(self._heap)

    def _evict_one(self) -> None:
        while self._heap:
            priority, last_access, key = heapq.heappop(self._heap)
            entry = self._entries.get(key)
            if (
                entry is not None
                and entry.priority == priority
                and entry.last_access == last_access
            ):
                del self._entries[key]
                self.occupancy -= entry.size
                self.aging_level = entry.priority
                return
        raise RuntimeError("eviction requested from an empty cache")

    def request(self, key: Hashable, size: int) -> bool:
        """Look up `key`; on a miss, insert it and evict down to capacity.

        Returns True on a hit. The inserted object takes part in its own
        eviction round, so it may be dropped immediately if its priority is
        the lowest. Misses larger than the whole cache are counted but never
        stored.
        """
        if size <= 0:
            raise ValueError("object size must be positive")
        self._clock += 1
        self.stats.requests += 1
        self.stats.bytes_requested += size
        entry = self._entries.get(key)
        if entry is not None:
            self.stats.hits += 1
            self.stats.bytes_hit += entry.size
            entry.frequency += 1
            entry.last_access = self._clock
            entry.priority = self._priority(entry.frequency, entry.size, self._clock)
            self._push(key, entry)
            return True
        if size > self.capacity:
            return False
        entry = _Entry(
            size=size,
            frequency=1,
            last_access=self._clock,
            priority=self._priority(1, size, self._clock),
        )
        self._entries[key] = entry
        self.occupancy += size
        self._push(key, entry)
        while self.occupancy > self.capacity:
            self._evict_one()
        return False

    def reset_stats(self) -> None:
        """Zero the counters (separates warm-up from measurement)."""
        self.stats = CacheStats()

    def copy(self) -> HeapCache:
        """An independent cache in the same state: entries, heap, clocks,
        aging level, occupancy and stats. Requests on either leave the other
        untouched, and both evict the same keys for the same requests."""
        twin = copy.copy(self)
        twin.stats = copy.copy(self.stats)
        twin._entries = {
            k: _Entry(e.size, e.frequency, e.last_access, e.priority)
            for k, e in self._entries.items()
        }
        twin._heap = list(self._heap)
        return twin


def visibility_oracle(
    o: Orientation, fov: FovSpec, grid: TileGrid, samples: int
) -> np.ndarray:
    """Dense-sampling visibility via explicit rotation matrices.

    Independent derivation: the camera frame is built as Rz(yaw) @ Ry(-pitch)
    and applied to the spherical offsets, instead of the package's
    forward/right/up decomposition.
    """
    y = np.radians(o.yaw)
    p = np.radians(o.pitch)
    rz = np.array(
        [[np.cos(y), -np.sin(y), 0.0], [np.sin(y), np.cos(y), 0.0], [0.0, 0.0, 1.0]]
    )
    ry = np.array(
        [[np.cos(-p), 0.0, np.sin(-p)], [0.0, 1.0, 0.0], [-np.sin(-p), 0.0, np.cos(-p)]]
    )
    rot = rz @ ry
    alpha = np.radians(np.linspace(-fov.h_deg / 2.0, fov.h_deg / 2.0, samples))
    beta = np.radians(np.linspace(-fov.v_deg / 2.0, fov.v_deg / 2.0, samples))
    aa, bb = np.meshgrid(alpha, beta, indexing="ij")
    aa, bb = aa.ravel(), bb.ravel()
    local = np.stack(
        [np.cos(bb) * np.cos(aa), np.cos(bb) * np.sin(aa), np.sin(bb)], axis=0
    )
    dirs = (rot @ local).T
    yaw = np.degrees(np.arctan2(dirs[:, 1], dirs[:, 0]))
    yaw = (yaw + 180.0) % 360.0 - 180.0
    pitch = np.degrees(np.arcsin(np.clip(dirs[:, 2], -1.0, 1.0)))
    i = np.clip(
        np.floor((yaw + 180.0) * grid.cols / 360.0).astype(int), 0, grid.cols - 1
    )
    j = np.clip(
        np.floor((90.0 - pitch) * grid.rows / 180.0).astype(int), 0, grid.rows - 1
    )
    counts = np.bincount(j * grid.cols + i, minlength=grid.tile_count)
    return counts / float(samples * samples)


def visibility_map(
    o: Orientation, fov: FovSpec, grid: TileGrid, samples_per_axis: int = 32
) -> np.ndarray:
    """One pose's flat score row from the batched kernel, as
    `prediction_plan` scores it."""
    return tile_visibility((o,), fov, grid, samples_per_axis)[0]


def scalar_tile_visibility(
    o: Orientation, fov: FovSpec, grid: TileGrid, samples_per_axis: int = 32
) -> np.ndarray:
    """`geometry.tile_visibility` before it scored batches: one pose, its FoV
    offsets recomputed on every call, np.outer per camera axis and the float
    % yaw wrap. Returns the flat scores."""
    n = samples_per_axis
    alpha = np.radians(np.linspace(-fov.h_deg / 2.0, fov.h_deg / 2.0, n))
    beta = np.radians(np.linspace(-fov.v_deg / 2.0, fov.v_deg / 2.0, n))
    aa, bb = np.meshgrid(alpha, beta, indexing="ij")
    aa = aa.ravel()
    bb = bb.ravel()
    y = math.radians(o.yaw)
    p = math.radians(o.pitch)
    cy, sy, cp, sp = math.cos(y), math.sin(y), math.cos(p), math.sin(p)
    forward = np.array([cp * cy, cp * sy, sp])
    right = np.array([-sy, cy, 0.0])
    up = np.array([-sp * cy, -sp * sy, cp])
    ca, sa = np.cos(aa), np.sin(aa)
    cb, sb = np.cos(bb), np.sin(bb)
    dirs = (
        np.outer(cb * ca, forward)
        + np.outer(cb * sa, right)
        + np.outer(sb, up)
    )
    yaw = np.degrees(np.arctan2(dirs[:, 1], dirs[:, 0]))
    yaw = (yaw + 180.0) % 360.0 - 180.0
    pitch = np.degrees(np.arcsin(np.clip(dirs[:, 2], -1.0, 1.0)))
    i = np.floor((yaw + 180.0) * grid.cols / 360.0).astype(np.int64)
    j = np.floor((90.0 - pitch) * grid.rows / 180.0).astype(np.int64)
    np.clip(i, 0, grid.cols - 1, out=i)
    np.clip(j, 0, grid.rows - 1, out=j)
    counts = np.bincount(j * grid.cols + i, minlength=grid.tile_count)
    return counts / float(n * n)


class Sample(NamedTuple):
    """One sample of a viewing trace held as a list of samples, the form the
    arrays of `ViewingTrace` replaced."""

    t: float
    o: Orientation


def samples(trace: ViewingTrace) -> list[Sample]:
    return [Sample(trace.t.item(k), trace.pose(k)) for k in range(len(trace))]


def trace_of(samples_: list) -> ViewingTrace:
    """The ViewingTrace of (t, Orientation) pairs."""
    return ViewingTrace(
        [t for t, _ in samples_],
        [o.yaw for _, o in samples_],
        [o.pitch for _, o in samples_],
        [o.roll for _, o in samples_],
    )


def load_trace_oracle(path: str) -> NetworkTrace:
    """`netsim.load_trace` before numpy parsed it: int() per line."""
    stamps = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                value = int(text)
            except ValueError:
                raise TraceError(
                    f"{path}:{lineno}: not an integer millisecond: {text!r}"
                ) from None
            if value < 0:
                raise TraceError(f"{path}:{lineno}: negative timestamp {value}")
            if stamps and value < stamps[-1]:
                raise TraceError(
                    f"{path}:{lineno}: timestamp {value} decreases below {stamps[-1]}"
                )
            stamps.append(value)
    if not stamps:
        raise TraceError(f"{path}: trace holds no packet slots")
    try:
        return NetworkTrace(timestamps_ms=np.array(stamps, dtype=np.int64))
    except TraceError as e:
        raise TraceError(f"{path}: {e}") from None


def load_viewing_trace_oracle(path: str) -> list[Sample]:
    """`traceio.load_viewing_trace` before numpy parsed it: csv rows, float()
    per cell and one Orientation per row. It differs from that body only in
    rejecting a non-finite value, which the array loader also does, and in
    naming the physical line a bad row ends on (csv's line_num, blank lines
    counted), as the row scanner now does."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            reader = csv.reader(f)
            rows = [
                (reader.line_num, row) for row in reader if row and any(x.strip() for x in row)
            ]
    except UnicodeDecodeError as e:
        raise ViewingTraceError(
            f"{path}: not UTF-8 text ({e.reason} at byte {e.start})"
        ) from None
    if not rows:
        raise ViewingTraceError(f"{path}: empty trace file")
    start = 0
    width = len(rows[0][1])
    try:
        float(rows[0][1][0])
    except ValueError:
        start = 1
        if not rows[1:]:
            raise ViewingTraceError(f"{path}: header but no samples")
        width = len(rows[1][1])
    if width not in (4, 5):
        raise ViewingTraceError(
            f"{path}: expected 4 (euler) or 5 (quaternion) columns, got {width}"
        )
    trace: list[Sample] = []
    for lineno, row in rows[start:]:
        if len(row) != width:
            raise ViewingTraceError(
                f"{path}:{lineno}: expected {width} columns, got {len(row)}"
            )
        try:
            values = [float(x) for x in row]
        except ValueError:
            raise ViewingTraceError(f"{path}:{lineno}: non-numeric value in {row!r}") from None
        if not all(math.isfinite(v) for v in values):
            raise ViewingTraceError(f"{path}:{lineno}: non-finite value in {row!r}")
        if width == 4:
            t, yaw, pitch, roll = values
            pose = Orientation(yaw=yaw, pitch=pitch, roll=roll)
        else:
            t = values[0]
            try:
                pose = quaternion_to_orientation(*values[1:])
            except ValueError as e:
                raise ViewingTraceError(f"{path}:{lineno}: {e} in {row!r}") from None
        if trace and t <= trace[-1].t:
            raise ViewingTraceError(
                f"{path}:{lineno}: timestamps must strictly increase "
                f"({t} after {trace[-1].t})"
            )
        trace.append(Sample(t, pose))
    return trace


def select_window_oracle(trace: list[Sample], now: float, timeframe: float) -> list[Sample]:
    """`prediction.select_window` before searchsorted: bisect on a rebuilt
    list of times."""
    times = [s.t for s in trace]
    lo = bisect.bisect_left(times, now - timeframe)
    hi = bisect.bisect_right(times, now)
    return list(trace[lo:hi])


def nearest_sample_oracle(trace: list[Sample], t: float) -> Sample:
    """`prediction.nearest_sample` before searchsorted (earlier one on ties)."""
    times = [s.t for s in trace]
    pos = bisect.bisect_left(times, t)
    if pos == 0:
        return trace[0]
    if pos == len(trace):
        return trace[-1]
    before, after = trace[pos - 1], trace[pos]
    return after if (after.t - t) < (t - before.t) else before


def build_heat_oracle(traces, grid, fov, segment_length, duration, samples_per_axis):
    """`popularity.build_heat`'s heat array before it batched: one scalar map
    per sample, added into its segment's row."""
    segments = mf.count_segments(duration, segment_length)
    heat = np.zeros((segments, grid.tile_count))
    for trace in traces:
        for sample in samples(trace):
            if sample.t < 0 or sample.t >= duration:
                continue
            seg = int(sample.t // segment_length)
            if seg >= segments:
                continue
            heat[seg] += scalar_tile_visibility(sample.o, fov, grid, samples_per_axis)
    return heat


def viewing_assignments_oracle(manifest, trace, fov, samples_per_axis):
    """`cachesim.viewing_assignments` before it batched: one scalar map per
    segment."""
    out = np.zeros((manifest.segment_count, manifest.grid.tile_count), dtype=np.int64)
    trace = samples(trace)
    for seg in range(manifest.segment_count):
        pose = nearest_sample_oracle(trace, seg * manifest.segment_length).o
        scores = scalar_tile_visibility(pose, fov, manifest.grid, samples_per_axis)
        out[seg] = quality_bands(scores, manifest.quality_count)
    return out


def staircase_scenario(duration: float, base_bitrate_bps: float = 2e6):
    """A stationary viewer whose popularity trace equals the unconstrained
    prediction assignment, so prediction and popularity request identical
    bytes every segment. Returns (manifest, gaze, staircase, bits/segment).
    """
    m = mf.synthesize(
        "stationary",
        duration=duration,
        segment_length=1.5,
        grid=TileGrid(4, 4),
        base_bitrate_bps=base_bitrate_bps,
    )
    scores = visibility_map(Orientation(0.0, 0.0), FovSpec(), m.grid, 32)
    stair = select_prediction(m, 0, rank_tiles(scores), None)
    m.popularity = np.tile(stair, (m.segment_count, 1))
    gaze = constant_gaze(0.0, 0.0, duration + 1.0, hz=30.0)
    return m, gaze, stair, mf.segment_bits(m, 0, stair)


def record_dicts(metrics) -> list[dict]:
    """Segment records as plain dicts, for exact equality comparison."""
    return [
        {
            "segment": r.segment,
            "policy": r.policy,
            "levels": list(r.levels),
            "bytes_total": r.bytes_total,
            "bytes_from_cache": r.bytes_from_cache,
            "bytes_from_origin": r.bytes_from_origin,
            "download_start": r.download_start,
            "download_end": r.download_end,
            "stall": r.stall,
            "mean_quality": r.mean_quality,
            "estimate_bps": r.estimate_bps,
        }
        for r in metrics.records
    ]


# --- helpers only the tests use ----------------------------------------------


def tile_coords(grid: TileGrid, flat: int) -> tuple[int, int]:
    """(column, row) of a row-major flat tile index."""
    return flat % grid.cols, flat // grid.cols


def flat_index(grid: TileGrid, i: int, j: int) -> int:
    """Row-major flat index of tile (i, j)."""
    return j * grid.cols + i


def tile_of_direction(o: Orientation, grid: TileGrid) -> tuple[int, int]:
    """Map a pose to the (column, row) of the tile containing its direction."""
    i = int(math.floor((o.yaw + 180.0) * grid.cols / 360.0))
    j = int(math.floor((90.0 - o.pitch) * grid.rows / 180.0))
    # yaw is already half-open; the south pole needs the clamp.
    i = min(grid.cols - 1, max(0, i))
    j = min(grid.rows - 1, max(0, j))
    return i, j


def score(scores: np.ndarray, grid: TileGrid, i: int, j: int) -> float:
    """Visibility score of tile (i, j) in a flat score row over `grid`."""
    return float(scores[flat_index(grid, i, j)])


def total_bytes(metrics) -> int:
    """Bytes a session downloaded, from cache and origin."""
    return int(sum(r.bytes_total for r in metrics.records))


def session_dict(metrics) -> dict:
    """A session's totals, per-segment savings and records as plain data."""
    return {
        "policy": metrics.policy,
        "total_stall": metrics.total_stall,
        "avg_quality": metrics.avg_quality,
        "total_bytes": total_bytes(metrics),
        "cache_hit_rate": metrics.cache_hit_rate,
        "cache_byte_hit_rate": metrics.cache_byte_hit_rate,
        "savings": [float(s) for s in metrics.savings],
        "segments": record_dicts(metrics),
    }


def canonical_json(metrics) -> str:
    return json.dumps(session_dict(metrics), sort_keys=True, separators=(",", ":"))


def savings_vs_naive(metrics, naive) -> np.ndarray:
    """Per-segment byte savings of one session against a naive session."""
    ours = np.array([r.bytes_total for r in metrics.records], dtype=float)
    theirs = np.array([r.bytes_total for r in naive.records], dtype=float)
    return 1.0 - ours / theirs


def average_quality_map(popularity: np.ndarray) -> np.ndarray:
    """Mean assigned level per tile across segments (for reporting)."""
    return np.asarray(popularity, dtype=float).mean(axis=0)


# --- scalar oracles: the loop-and-sort code the shared helpers replaced -------

ORACLE_BUDGET_EPS = 1e-9


def ranked_tiles_oracle(scores: np.ndarray) -> np.ndarray:
    """Tiles with a positive score by (-score, index), via a Python sort."""
    nz = np.flatnonzero(scores > 0.0)
    order = sorted(nz.tolist(), key=lambda t: (-scores[t], t))
    return np.array(order, dtype=np.int64)


def greedy_walk_oracle(manifest, segment: int, order, cap: float) -> np.ndarray:
    """The budgeted greedy upgrade walk as select_prediction and quantize each
    wrote it; `cap` already includes the feasibility slack."""
    q = manifest.quality_count
    levels = np.zeros(manifest.grid.tile_count, dtype=np.int64)
    base = 8 * manifest.sizes[segment, :, 0].astype(np.int64)
    current = int(base.sum())
    ceiling = q - 1
    for tile in order:
        best = 0
        for level in range(ceiling, 0, -1):
            delta = int(8 * manifest.sizes[segment, tile, level]) - int(base[tile])
            if current + delta <= cap:
                best = level
                break
        if best == 0:
            break
        levels[tile] = best
        current += int(8 * manifest.sizes[segment, tile, best]) - int(base[tile])
        ceiling = best
    return levels


def select_prediction_oracle(manifest, segment: int, scores, budget_bps):
    order = ranked_tiles_oracle(scores)
    if budget_bps is None:
        levels = np.zeros(manifest.grid.tile_count, dtype=np.int64)
        levels[order] = manifest.quality_count - 1
        return levels
    cap = budget_bps * manifest.segment_length * (1.0 + ORACLE_BUDGET_EPS)
    return greedy_walk_oracle(manifest, segment, order, cap)


def quantize_oracle(heat: np.ndarray, manifest, budget_bps: float) -> np.ndarray:
    cap = budget_bps * manifest.segment_length
    cap_slack = cap * (1.0 + ORACLE_BUDGET_EPS)
    out = np.zeros((manifest.segment_count, manifest.grid.tile_count), dtype=np.int64)
    for seg in range(manifest.segment_count):
        order = ranked_tiles_oracle(heat[seg])
        out[seg] = greedy_walk_oracle(manifest, seg, order, cap_slack)
    return out


def quality_bands_oracle(scores: np.ndarray, quality_count: int) -> np.ndarray:
    levels = np.zeros(scores.shape[0], dtype=np.int64)
    if quality_count < 2:
        return levels
    visible = ranked_tiles_oracle(scores).tolist()
    count = len(visible)
    for rank, tile in enumerate(visible):
        band = rank * (quality_count - 1) // count
        levels[tile] = (quality_count - 1) - band
    return levels


def _seen_keys(rows: list[dict], columns: tuple) -> list[tuple]:
    """Distinct keys in first-seen order, found by scanning a list."""
    seen: list[tuple] = []
    for row in rows:
        key = tuple(row[c] for c in columns)
        if key not in seen:
            seen.append(key)
    return seen


def policy_summary_oracle(rows: list[dict]) -> list[dict]:
    out = []
    for (policy,) in _seen_keys(rows, ("policy",)):
        mine = [r for r in rows if r["policy"] == policy]
        iterations = sorted({r["iteration"] for r in mine})
        stalls = np.array(
            [sum(r["stall"] for r in mine if r["iteration"] == i) for i in iterations]
        )
        quality = np.array(
            [
                np.mean([r["mean_quality"] for r in mine if r["iteration"] == i])
                for i in iterations
            ]
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


def popularity_share_oracle(rows: list[dict]) -> list[dict]:
    out = []
    for policy, segment in _seen_keys(rows, ("policy", "segment")):
        mine = [r for r in rows if r["policy"] == policy and r["segment"] == segment]
        share = float(
            np.mean([1.0 if r["active"] == "popularity" else 0.0 for r in mine])
        )
        out.append({"policy": policy, "segment": segment, "popularity_share": share})
    return out


def estimate_oracle(rows: list[dict]) -> list[dict]:
    out = []
    for policy, segment in _seen_keys(rows, ("policy", "segment")):
        values = [
            r["estimate_bps"]
            for r in rows
            if r["policy"] == policy
            and r["segment"] == segment
            and r["estimate_bps"] is not None
        ]
        if values:
            arr = np.array(values, dtype=float)
            mean, std = float(arr.mean()), float(arr.std())
        else:
            mean = std = None
        out.append(
            {"policy": policy, "segment": segment, "estimate_mean": mean, "estimate_std": std}
        )
    return out


def prediction_summary_oracle(step_rows: list[dict]) -> list[dict]:
    out = []
    columns = ("trace", "interval", "timeframe")
    for key in _seen_keys(step_rows, columns):
        errors = np.array(
            [r["error_deg"] for r in step_rows if tuple(r[c] for c in columns) == key]
        )
        out.append(
            {
                "trace": key[0],
                "interval": key[1],
                "timeframe": key[2],
                "steps": int(errors.size),
                "mean_deg": float(errors.mean()),
                "std_deg": float(errors.std()),
            }
        )
    return out


def first_slot_after_oracle(trace: NetworkTrace, t_ms: float) -> int:
    """`netsim.Link._first_slot_after` before it searched with an integer key:
    bisect on the int64 stamps with the float itself."""
    ts = trace.timestamps_ms
    duration = trace.duration_ms
    cycle = max(0, int(t_ms // duration))
    idx = bisect.bisect_right(ts, t_ms - cycle * duration)
    if idx == ts.size:
        cycle += 1
        idx = bisect.bisect_right(ts, t_ms - cycle * duration)
    return cycle * ts.size + idx


def constant_rate_network_oracle(bits_per_second: float, duration_s: float) -> np.ndarray:
    """`synthetic.constant_rate_network`'s timestamps from its own numpy
    body, before it shared `packet_slots` with `two_phase_network`."""
    packets = max(1, int(round(bits_per_second * duration_s / 8.0 / 1500.0)))
    gap_ms = duration_s * 1000.0 / packets
    return np.rint((np.arange(packets) + 1) * gap_ms).astype(np.int64)


def warm_oracle(cache, manifest, traces, fov, seed, trace_count, samples_per_axis):
    """`cachesim.warm` before it sampled trace indices and shared one
    `viewing_assignments` per trace: it samples the traces themselves and
    recomputes each viewing's assignments."""
    rng = random.Random(seed)
    chosen = rng.sample(list(traces), min(trace_count, len(traces)))
    for trace in chosen:
        assignments = viewing_assignments(manifest, trace, fov, samples_per_axis)
        for seg in range(manifest.segment_count):
            for key, size in segment_requests_oracle(manifest, seg, assignments[seg]):
                cache.request(key, size)


def run_experiment_oracle(
    manifest,
    viewing_traces,
    network_trace,
    policies,
    iterations,
    cache_policy=None,
    cache_capacity_bytes=0,
    seed=0,
    warm_trace_count=30,
    fov=None,
    predictor=None,
    samples_per_axis=32,
    cache_rate_bps=100e6,
    hysteresis=1.0,
) -> ExperimentReport:
    """`playback.run_experiment` before it warmed one cache per iteration and
    shared one prediction plan per trace: policy is the outer loop, every
    session gets a freshly warmed cache and predicts its own poses."""
    fov = fov or FovSpec()
    predictor = predictor or PredictorConfig()
    runs = {p.value: [] for p in policies}
    for policy in policies:
        for i in range(iterations):
            cache = None
            if cache_policy is not None and cache_capacity_bytes > 0:
                cache = HeapCache(cache_capacity_bytes, cache_policy)
                warm_oracle(
                    cache, manifest, viewing_traces, fov, seed * 100003 + i,
                    warm_trace_count, samples_per_axis,
                )
                cache.reset_stats()
            cfg = SessionConfig(
                manifest=manifest,
                viewing_trace=viewing_traces[i % len(viewing_traces)],
                network_trace=network_trace,
                policy=policy,
                cache=cache,
                cache_rate_bps=cache_rate_bps,
                fov=fov,
                predictor=predictor,
                samples_per_axis=samples_per_axis,
                hysteresis=hysteresis,
            )
            runs[policy.value].append(simulate_oracle(cfg))
    return ExperimentReport(
        policies=[p.value for p in policies], iterations=iterations, seed=seed, runs=runs
    )


@dataclass(frozen=True)
class BandwidthEstimate:
    bits_per_second: float
    measured_at: float  # completion time of the download it came from


class LastSampleEstimator:
    """Client-side estimate: throughput of the most recent origin download.

    Stays at None (no estimate) until the first download with at least one
    origin byte completes. Pluggable: anything with update()/current() works
    in its place.
    """

    def __init__(self) -> None:
        self._estimate: BandwidthEstimate | None = None

    def update(self, bits: float, start_s: float, end_s: float) -> None:
        if bits <= 0 or end_s <= start_s:
            return
        self._estimate = BandwidthEstimate(
            bits_per_second=bits / (end_s - start_s), measured_at=end_s
        )

    def current(self) -> BandwidthEstimate | None:
        return self._estimate


def simulate_oracle(cfg: SessionConfig) -> SessionMetrics:
    """`playback.simulate` before it read a prediction plan: every session,
    whatever its policy, selects, fits and scores each segment's window
    itself (predicted_map_oracle), one single-pose tile_visibility call per
    segment, ranks the tiles at every selection, and keeps its bandwidth
    estimate in the LastSampleEstimator that `netsim` used to hold."""
    m = cfg.manifest
    s = m.segment_length
    if not cfg.viewing_trace:
        raise ValueError("viewing trace is empty")
    span = cfg.viewing_trace.t.item(-1) - cfg.viewing_trace.t.item(0)
    if span < cfg.predictor.timeframe:
        raise ValueError(
            f"viewing trace spans {span:.3f}s, shorter than the "
            f"{cfg.predictor.timeframe:.3f}s regression window"
        )
    if cfg.policy in (PolicyKind.POPULARITY, PolicyKind.TRANSITION):
        require_popularity(m)
    estimator = LastSampleEstimator()
    state = TransitionState(hysteresis=cfg.hysteresis)
    origin = Link(cfg.network_trace)
    records: list[SegmentRecord] = []
    savings = np.zeros(m.segment_count)
    sched_prev = 0.0
    end_prev = 0.0

    for seg in range(m.segment_count):
        dl_start = 0.0 if seg == 0 else max(end_prev, sched_prev)
        scores = predicted_map_oracle(cfg, seg)

        estimate = estimator.current()
        budget = estimate.bits_per_second if estimate is not None else None
        active = cfg.policy
        if cfg.policy is PolicyKind.TRANSITION:
            wanted = select_prediction(m, seg, rank_tiles(scores), None)
            required = mf.segment_bits(m, seg, wanted) / s
            active = transition_step(state, budget, required)

        if active is PolicyKind.NAIVE:
            levels = select_naive(m, seg)
        elif active is PolicyKind.PREDICTION:
            levels = select_prediction(m, seg, rank_tiles(scores), budget)
        elif active is PolicyKind.POPULARITY:
            levels = select_popularity(m, seg)
        elif active is PolicyKind.PREDICTION_BA:
            levels = select_prediction_ba(m, seg, rank_tiles(scores), budget)
        else:
            raise ValueError(f"unknown policy {active}")

        cache_bytes = 0
        origin_bytes = 0
        for key, size in segment_requests_oracle(m, seg, levels):
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
            sched = dl_end
            stall = 0.0
        else:
            sched = sched_prev + s
            stall = max(0.0, dl_end - sched)
            sched += stall

        total = cache_bytes + origin_bytes
        savings[seg] = 1.0 - total / mf.naive_segment_bytes(m, seg)
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


def predicted_map_oracle(cfg: SessionConfig, seg: int) -> np.ndarray:
    """The score row `simulate_oracle` scores for one segment: the window
    ending at media time max(0, seg * s - s) (or the sample nearest
    that time if the window is empty), fitted and predicted at seg * s, one
    single-pose tile_visibility call."""
    m = cfg.manifest
    s = m.segment_length
    target = seg * s
    now = max(0.0, target - s)
    window = select_window(cfg.viewing_trace, now, cfg.predictor.timeframe)
    if not window:
        k = nearest_sample(cfg.viewing_trace, now)
        window = cfg.viewing_trace[k : k + 1]
    predicted = predict(fit(window, now), target)
    return tile_visibility((predicted,), cfg.fov, m.grid, cfg.samples_per_axis)[0]


def segment_requests_oracle(manifest, segment: int, assignment):
    """`manifest.segment_requests` before it read a segment's sizes with one
    fancy index: one numpy scalar read per tile, and each tile's flat id
    computed on its own."""
    out = []
    tiles, qualities = manifest.grid.tile_count, manifest.quality_count
    for tile in range(tiles):
        level = int(assignment[tile])
        size = int(manifest.sizes[segment, tile, level])
        out.append(((segment * tiles + tile) * qualities + level, size))
    return out
