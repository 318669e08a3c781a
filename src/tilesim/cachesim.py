"""Edge-cache simulator with LRU, LFUDA, and GDSF eviction.

LFUDA and GDSF follow the squid proxy definitions: an aging term L starts at
0 and every eviction sets it to the evicted entry's priority, so long-resident
entries cannot starve newcomers forever. An entry's priority is stamped with
the L current at its last access:

    LRU    priority = logical access clock
    LFUDA  priority = L + frequency
    GDSF   priority = L + frequency / size

Eviction removes the lowest-priority entry, least recently used among ties.
A missed object enters the cache before eviction runs, so a cold newcomer
whose priority is the minimum evicts itself and popular residents survive
(squid purges from the full heap, fresh entries included). Objects larger
than the capacity are never stored.
"""

from __future__ import annotations

import copy
import heapq
import random
from dataclasses import dataclass
from enum import Enum
from typing import Hashable, Sequence

import numpy as np

from .geometry import FovSpec, ViewingTrace, rank_tiles, tile_visibility
from .manifest import VideoManifest, segment_requests
from .prediction import nearest_sample


class EvictionPolicy(str, Enum):
    LRU = "lru"
    LFUDA = "lfuda"
    GDSF = "gdsf"


@dataclass
class CacheStats:
    requests: int = 0
    hits: int = 0
    bytes_requested: int = 0
    bytes_hit: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    @property
    def byte_hit_rate(self) -> float:
        return self.bytes_hit / self.bytes_requested if self.bytes_requested else 0.0


@dataclass
class _Entry:
    size: int
    frequency: int
    last_access: int
    priority: float


class Cache:
    """Byte-capacity cache; request() reports hit/miss and ingests misses."""

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

    def copy(self) -> Cache:
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


def quality_bands(scores: np.ndarray, quality_count: int) -> np.ndarray:
    """Warm-up quality mapping for one pose's visibility scores.

    Visible tiles, sorted by descending score (ties by index), are split into
    quality_count - 1 equal rank bands mapping to levels q-1 down to 1;
    zero-visibility tiles get level 0.
    """
    levels = np.zeros(scores.shape[0], dtype=np.int64)
    visible = rank_tiles(scores)
    bands = np.arange(visible.size) * (quality_count - 1) // visible.size
    levels[visible] = (quality_count - 1) - bands
    return levels


def viewing_assignments(
    manifest: VideoManifest,
    trace: ViewingTrace,
    fov: FovSpec,
    samples_per_axis: int = 32,
) -> np.ndarray:
    """Per-segment warm-up assignments for one viewer (actual poses, no
    prediction): the pose nearest each segment start drives quality_bands.
    Every segment's pose is scored in one tile_visibility call."""
    poses = tuple(
        trace.pose(nearest_sample(trace, seg * manifest.segment_length))
        for seg in range(manifest.segment_count)
    )
    scores = tile_visibility(poses, fov, manifest.grid, samples_per_axis)
    return np.array([quality_bands(row, manifest.quality_count) for row in scores])


def warm(
    cache: Cache,
    manifest: VideoManifest,
    traces: Sequence[ViewingTrace],
    fov: FovSpec,
    seed: int,
    trace_count: int = 30,
    samples_per_axis: int = 32,
    assignments: dict[int, np.ndarray] | None = None,
) -> None:
    """Pre-populate a cache by replaying full viewings of random traces.

    A seeded draw picks min(trace_count, len(traces)) trace indices in random
    order (drawing without replacement doubles as the permutation); each
    viewing requests every tile of every segment at its warm-up quality,
    segments and tiles ascending. Call cache.reset_stats() afterwards to
    measure cleanly. `assignments` memoizes viewing_assignments by trace
    index across calls that share the traces, manifest, fov and
    samples_per_axis.
    """
    rng = random.Random(seed)
    if assignments is None:
        assignments = {}
    for index in rng.sample(range(len(traces)), min(trace_count, len(traces))):
        if index not in assignments:
            assignments[index] = viewing_assignments(
                manifest, traces[index], fov, samples_per_axis
            )
        levels = assignments[index]
        for seg in range(manifest.segment_count):
            for key, size in segment_requests(manifest, seg, levels[seg]):
                cache.request(key, size)
