"""Per-segment tile quality selection policies and the transition rule.

Budgets are bits per second; a selection for one segment must fit within
budget * segment_length bits. A budget of None means "no estimate yet" and
selects unconstrained.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .manifest import VideoManifest, segment_bits

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


def _visible_at_top(manifest: VideoManifest, order: np.ndarray) -> np.ndarray:
    """The tiles in `order` at the top level and every other tile at 0."""
    levels = np.zeros(manifest.grid.tile_count, dtype=np.int64)
    levels[order] = manifest.quality_count - 1
    return levels


def select_prediction(
    manifest: VideoManifest,
    segment: int,
    order: np.ndarray,
    budget_bps: float | None,
) -> np.ndarray:
    """Greedy visibility-ranked upgrades from an all-lowest baseline.

    `order` is the predicted viewport's visible tiles by descending
    visibility, ties by flat index (geometry.rank_tiles of its scores), so
    tiles it leaves out are never upgraded. They are walked in that order
    through greedy_levels, under a cap of budget * segment_length bits. No
    budget means the visible tiles go straight to the top.
    """
    if budget_bps is None:
        return _visible_at_top(manifest, order)
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
    order: np.ndarray,
    budget_bps: float | None,
) -> np.ndarray:
    """Bandwidth-aware variant: uniform downshift of the unconstrained
    prediction assignment: the visible tiles in `order` (as
    select_prediction takes it) at the top level, every other tile at 0.

    The smallest shift whose result fits the budget wins (levels floor at 0);
    if even the all-zero result does not fit, it is returned anyway.
    """
    desired = _visible_at_top(manifest, order)
    if budget_bps is None:
        return desired
    cap = budget_bps * manifest.segment_length * (1.0 + _BUDGET_EPS)
    for shift in range(manifest.quality_count):
        shifted = np.maximum(desired - shift, 0)
        if segment_bits(manifest, segment, shifted) <= cap:
            return shifted
    return np.zeros_like(desired)


def transition_step(
    active: PolicyKind, estimate_bps: float | None, required_bps: float, hysteresis: float
) -> PolicyKind:
    """The mechanism live for the next segment, given the `active` one.

    `required_bps` is what the prediction mechanism would need for the next
    segment, and the threshold is recomputed from it at every step. With
    `estimate_bps` below it the popularity mechanism takes over; at or above
    hysteresis * required_bps prediction takes over; in between (only
    possible with hysteresis > 1) `active` stays. With no estimate yet,
    prediction is used.
    """
    if estimate_bps is None:
        return PolicyKind.PREDICTION
    if estimate_bps < required_bps:
        return PolicyKind.POPULARITY
    if estimate_bps >= hysteresis * required_bps:
        return PolicyKind.PREDICTION
    return active
