"""Content-popularity heat maps and their quantization into quality levels.

Heat accumulates per (segment, tile) from many viewers' traces; quantization
turns each segment's heat ranking into a per-tile quality assignment under a
bitrate budget. The result is stored on the manifest as its popularity trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .adaptation import greedy_levels
from .geometry import FovSpec, TileGrid, ViewingTrace, rank_tiles, tile_visibility
from .manifest import VideoManifest, count_segments


# Samples that build_heat scores per tile_visibility call.
HEAT_BATCH = 256


@dataclass
class HeatMap:
    """Accumulated visibility mass per (segment, tile)."""

    heat: np.ndarray = field(repr=False)  # (segments, tiles)


def build_heat(
    traces: Iterable[ViewingTrace],
    grid: TileGrid,
    fov: FovSpec,
    segment_length: float,
    duration: float,
    samples_per_axis: int = 32,
) -> HeatMap:
    """Sum every sample's visibility map into its segment's heat row.

    A sample at time t lands in segment floor(t / segment_length); samples at
    or past `duration` are ignored. Total heat per segment equals the number
    of samples that fell into it (each visibility map sums to 1). A trace's
    samples are scored HEAT_BATCH at a time, one tile_visibility call each,
    and their maps are added in sample order, so every float sum is the
    per-sample loop's and memory does not grow with trace length.
    """
    segments = count_segments(duration, segment_length)
    heat = np.zeros((segments, grid.tile_count))
    for trace in traces:
        seg = trace.t // segment_length
        kept = np.flatnonzero((trace.t >= 0) & (trace.t < duration) & (seg < segments))
        for start in range(0, kept.size, HEAT_BATCH):
            batch = kept[start : start + HEAT_BATCH]
            scores = tile_visibility(trace[batch], fov, grid, samples_per_axis)
            np.add.at(heat, seg[batch].astype(np.int64), scores)
    return HeatMap(heat=heat)


def default_budget_bps(manifest: VideoManifest) -> float:
    """Nominal bitrate of ceil(25% of tiles) at top level plus the rest at the
    lowest level."""
    tiles = manifest.grid.tile_count
    k = math.ceil(0.25 * tiles)
    top = manifest.bitrate_factors[-1]
    low = manifest.bitrate_factors[0]
    return manifest.base_bitrate_bps * (k * top + (tiles - k) * low)


def quantize(
    heat: HeatMap, manifest: VideoManifest, budget_bps: float | None = None
) -> np.ndarray:
    """Per segment, assign quality levels by descending heat under the budget.

    Tiles with nonzero heat are walked hottest first (ties by tile index)
    through adaptation.greedy_levels, under a cap of budget * segment_length
    bits. Tiles nobody ever looked at stay at level 0 no matter the budget,
    like invisible tiles under prediction.
    A budget below the all-lowest bitrate yields all level 0, not an error.
    """
    if budget_bps is None:
        budget_bps = default_budget_bps(manifest)
    if heat.heat.shape != (manifest.segment_count, manifest.grid.tile_count):
        raise ValueError(
            f"heat shape {heat.heat.shape} does not match manifest "
            f"({manifest.segment_count} segments x {manifest.grid.tile_count} tiles)"
        )
    cap = budget_bps * manifest.segment_length
    out = np.zeros((manifest.segment_count, manifest.grid.tile_count), dtype=np.int64)
    for seg in range(manifest.segment_count):
        out[seg] = greedy_levels(manifest.sizes[seg], rank_tiles(heat.heat[seg]), cap)
    return out
