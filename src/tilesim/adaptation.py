"""Per-segment tile quality selection policies and the transition machine.

Budgets are bits per second; a selection for one segment must fit within
budget * segment_length bits. A budget of None means "no estimate yet" and
selects unconstrained.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import VisibilityMap
from .manifest import VideoManifest, segment_bits
from .netsim import BandwidthEstimate

# Feasibility slack for float budget comparisons. Level steps are whole bytes
# (>= 8 bits), so a relative 1e-9 can never flip a genuinely infeasible case.
_BUDGET_EPS = 1e-9


class PolicyKind(str, Enum):
    NAIVE = "naive"
    PREDICTION = "prediction"
    POPULARITY = "popularity"
    PREDICTION_BA = "prediction-ba"
    TRANSITION = "transition"


def select_naive(manifest: VideoManifest, segment: int) -> np.ndarray:
    """Every tile at the top level, estimate ignored."""
    return np.full(
        manifest.grid.tile_count, manifest.quality_count - 1, dtype=np.int64
    )


def greedy_levels(
    sizes_row: np.ndarray, order: np.ndarray, cap_bits: float
) -> np.ndarray:
    """Budgeted greedy upgrade walk over one segment's (tiles, levels) byte
    sizes, from an all-lowest baseline.

    Tiles are visited in `order`. Each is raised to the highest level that
    keeps the whole segment within `cap_bits` (every not-yet-visited tile
    counted at level 0), never above the previous tile's level; the first
    tile that cannot be raised at all stops the walk (its attempted upgrade is
    the one "reset").
    """
    cap = cap_bits * (1.0 + _BUDGET_EPS)
    base = 8 * sizes_row[:, 0].astype(np.int64)
    levels = np.zeros(sizes_row.shape[0], dtype=np.int64)
    current = int(base.sum())
    ceiling = sizes_row.shape[1] - 1
    for tile in order:
        for level in range(ceiling, 0, -1):
            delta = int(8 * sizes_row[tile, level]) - int(base[tile])
            if current + delta <= cap:
                break
        else:  # not even level 1 fits
            break
        levels[tile] = level
        current += delta
        ceiling = level
    return levels


def select_prediction(
    manifest: VideoManifest,
    segment: int,
    visibility: VisibilityMap,
    budget_bps: float | None,
) -> np.ndarray:
    """Greedy visibility-ranked upgrades from an all-lowest baseline.

    Tiles are walked by descending visibility (ties by index; zero-visibility
    tiles are never upgraded) through greedy_levels, under a cap of
    budget * segment_length bits. No budget means visible tiles go straight
    to the top.
    """
    order = visibility.visible_tiles()
    if budget_bps is None:
        levels = np.zeros(manifest.grid.tile_count, dtype=np.int64)
        levels[order] = manifest.quality_count - 1
        return levels
    return greedy_levels(
        manifest.sizes[segment], order, budget_bps * manifest.segment_length
    )


def require_popularity(manifest: VideoManifest) -> np.ndarray:
    """The manifest's popularity trace; ValueError if it has none."""
    if manifest.popularity is None:
        raise ValueError(
            "manifest has no popularity trace; build one first "
            "(tilesim popularity, or popularity.quantize)"
        )
    return manifest.popularity


def select_popularity(manifest: VideoManifest, segment: int) -> np.ndarray:
    """The manifest's stored popularity levels, verbatim."""
    return require_popularity(manifest)[segment].copy()


def select_prediction_ba(
    manifest: VideoManifest,
    segment: int,
    visibility: VisibilityMap,
    budget_bps: float | None,
) -> np.ndarray:
    """Bandwidth-aware variant: uniform downshift of the unconstrained
    prediction assignment.

    The smallest shift whose result fits the budget wins (levels floor at 0);
    if even the all-zero result does not fit, it is returned anyway.
    """
    q = manifest.quality_count
    desired = np.zeros(manifest.grid.tile_count, dtype=np.int64)
    desired[visibility.visible_tiles()] = q - 1
    if budget_bps is None:
        return desired
    cap = budget_bps * manifest.segment_length * (1.0 + _BUDGET_EPS)
    for shift in range(q):
        shifted = np.maximum(desired - shift, 0)
        if segment_bits(manifest, segment, shifted) <= cap:
            return shifted
    return np.zeros_like(desired)


@dataclass
class TransitionState:
    """Which mechanism is live, the last threshold, and the hysteresis gain."""

    active: PolicyKind = PolicyKind.PREDICTION
    threshold_bps: float = 0.0
    hysteresis: float = 1.0

    def __post_init__(self) -> None:
        if self.hysteresis < 1.0:
            raise ValueError("hysteresis must be >= 1")


def transition_step(
    state: TransitionState,
    estimate: BandwidthEstimate | None,
    required_bps: float,
) -> PolicyKind:
    """Advance the transition machine at a segment boundary.

    `required_bps` is what the prediction mechanism would need for the next
    segment; it becomes the new threshold. Below it the popularity mechanism
    takes over; at or above hysteresis * threshold prediction takes over;
    in between (only possible with hysteresis > 1) nothing changes. With no
    estimate yet, prediction is used.
    """
    state.threshold_bps = required_bps
    if estimate is None:
        state.active = PolicyKind.PREDICTION
    elif estimate.bits_per_second < required_bps:
        state.active = PolicyKind.POPULARITY
    elif estimate.bits_per_second >= state.hysteresis * required_bps:
        state.active = PolicyKind.PREDICTION
    return state.active
