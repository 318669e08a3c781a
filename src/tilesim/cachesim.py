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

A run keys each tile by its flat id from `manifest.segment_requests`: the
index of (segment, tile, level) in the one manifest's size table.
"""

from __future__ import annotations

import copy
from enum import Enum
from heapq import heapify, heappop, heappush
from typing import Hashable, Iterable

import numpy as np

from .geometry import FovSpec, ViewingTrace, rank_tiles, tile_visibility
from .manifest import VideoManifest, segment_requests
from .prediction import nearest_sample


class EvictionPolicy(str, Enum):
    LRU = "lru"
    LFUDA = "lfuda"
    GDSF = "gdsf"


# Bound once: `request` tests the policy on every call, and an enum member
# lookup costs more than a global.
_LRU, _LFUDA = EvictionPolicy.LRU, EvictionPolicy.LFUDA


class Cache:
    """Byte-capacity cache; request() reports hit/miss and ingests misses.
    Entries are immutable (size, frequency, last_access, priority) tuples
    that a request replaces, so a copy shares them."""

    def __init__(self, capacity_bytes: int, policy: EvictionPolicy):
        if capacity_bytes < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = int(capacity_bytes)
        self.policy = EvictionPolicy(policy)
        self.aging_level = 0.0  # L term; only LFUDA/GDSF read it
        self.occupancy = 0
        self._entries: dict[Hashable, tuple[int, int, int, float]] = {}
        self._clock = 0
        # Min-heap of (priority, last_access, key), rebuilt from the live
        # entries once it holds over twice as many items. Each request pushes
        # once, at a fresh clock value, so keys are never compared and an item
        # is live exactly when its last_access is its entry's.
        self._heap: list[tuple[float, int, Hashable]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def request(self, key: Hashable, size: int) -> bool:
        """Look up `key`; on a miss, insert it and evict down to capacity.

        Returns True on a hit and keeps no counters: a caller that wants hit
        counts tallies the return values. The inserted object takes part in
        its own eviction round, so it may be dropped immediately if its
        priority is the lowest. Misses larger than the whole cache are never
        stored.
        """
        if size <= 0:
            raise ValueError("object size must be positive")
        clock = self._clock = self._clock + 1
        entries = self._entries
        entry = entries.get(key)
        if entry is not None:
            size, frequency = entry[0], entry[1] + 1
        elif size > self.capacity:
            return False
        else:
            frequency = 1
            self.occupancy += size
        if self.policy is _LRU:
            priority = float(clock)
        elif self.policy is _LFUDA:
            priority = self.aging_level + frequency
        else:
            priority = self.aging_level + frequency / size
        entries[key] = (size, frequency, clock, priority)
        heap = self._heap
        heappush(heap, (priority, clock, key))
        if len(heap) > 2 * len(entries):
            heap[:] = [(e[3], e[2], k) for k, e in entries.items()]
            heapify(heap)
        if entry is not None:
            return True
        while self.occupancy > self.capacity:
            priority, last_access, victim = heappop(heap)
            entry = entries.get(victim)
            if entry is not None and entry[2] == last_access:
                del entries[victim]
                self.occupancy -= entry[0]
                self.aging_level = priority
        return False

    def copy(self) -> Cache:
        """An independent cache in the same state: entries, heap, clock,
        aging level and occupancy. Requests on either leave the other
        untouched, and both evict the same keys for the same requests."""
        twin = copy.copy(self)
        twin._entries = dict(self._entries)
        twin._heap = list(self._heap)
        return twin


def quality_bands(scores: np.ndarray, quality_count: int) -> np.ndarray:
    """Warm-up quality mapping for one pose's tile_visibility counts.

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
    One nearest_sample call finds every segment's pose, and one
    tile_visibility call scores them."""
    starts = np.arange(manifest.segment_count) * manifest.segment_length
    poses = trace[nearest_sample(trace, starts)]
    scores = tile_visibility(poses, fov, manifest.grid, samples_per_axis)
    return np.array([quality_bands(row, manifest.quality_count) for row in scores])


def warm(cache: Cache, manifest: VideoManifest, viewings: Iterable[np.ndarray]) -> None:
    """Pre-populate a cache by replaying full viewings, in order. A viewing
    is a (segments, tiles) array of warm-up levels, as viewing_assignments
    returns; its replay requests every tile of every segment at its level,
    segments and tiles ascending."""
    for levels in viewings:
        for seg in range(manifest.segment_count):
            for key, size in segment_requests(manifest, seg, levels[seg]):
                cache.request(key, size)
