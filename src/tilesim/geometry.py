"""Sphere geometry for equirectangular tiled video.

Angles are degrees throughout: yaw in [-180, 180) increasing eastward,
pitch in [-90, 90] increasing upward, roll carried but never interpreted.
The unit view direction for (yaw, pitch) is
(cos p cos y, cos p sin y, sin p) in a right-handed frame with z up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def normalize_yaw(yaw: float) -> float:
    """Wrap a yaw angle into [-180, 180)."""
    return (yaw + 180.0) % 360.0 - 180.0


@dataclass(frozen=True)
class Orientation:
    """A head pose; yaw is normalized and pitch clamped on construction."""

    yaw: float
    pitch: float
    roll: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "yaw", normalize_yaw(float(self.yaw)))
        object.__setattr__(self, "pitch", min(90.0, max(-90.0, float(self.pitch))))

    def direction(self) -> np.ndarray:
        """Unit view-direction vector for this pose."""
        y = math.radians(self.yaw)
        p = math.radians(self.pitch)
        return np.array(
            [math.cos(p) * math.cos(y), math.cos(p) * math.sin(y), math.sin(p)]
        )


@dataclass(frozen=True)
class TimedOrientation:
    """One viewing-trace sample."""

    t: float
    o: Orientation


@dataclass(frozen=True)
class FovSpec:
    """Field of view extents in degrees."""

    h_deg: float = 100.0
    v_deg: float = 100.0

    def __post_init__(self) -> None:
        if not (0.0 < self.h_deg <= 360.0 and 0.0 < self.v_deg <= 180.0):
            raise ValueError(f"field of view out of range: {self.h_deg}x{self.v_deg}")


@dataclass(frozen=True)
class TileGrid:
    """An n-column by m-row equirectangular tile grid.

    Tile (i, j) spans yaw [-180 + i*360/n, -180 + (i+1)*360/n) and pitch
    (90 - (j+1)*180/m, 90 - j*180/m]; j = 0 is the top row. A value on a
    shared edge belongs to the higher-index tile on both axes.
    """

    cols: int
    rows: int

    def __post_init__(self) -> None:
        if self.cols < 1 or self.rows < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.cols}x{self.rows}")

    @property
    def tile_count(self) -> int:
        return self.cols * self.rows

    def flat_index(self, i: int, j: int) -> int:
        """Row-major flat index of tile (i, j)."""
        return j * self.cols + i


def tile_of_direction(o: Orientation, grid: TileGrid) -> tuple[int, int]:
    """Map a pose to the (column, row) of the tile containing its direction."""
    i = int(math.floor((o.yaw + 180.0) * grid.cols / 360.0))
    j = int(math.floor((90.0 - o.pitch) * grid.rows / 180.0))
    # yaw is already half-open; the south pole needs the clamp.
    i = min(grid.cols - 1, max(0, i))
    j = min(grid.rows - 1, max(0, j))
    return i, j


def orthodromic_distance(a: Orientation, b: Orientation) -> float:
    """Great-circle angle between two view directions, in degrees [0, 180].

    atan2(|va x vb|, va . vb) equals arccos of the clamped dot product but
    stays well-conditioned for nearly-parallel directions, where acos alone
    loses six digits.
    """
    va, vb = a.direction(), b.direction()
    cross = float(np.linalg.norm(np.cross(va, vb)))
    dot = float(np.dot(va, vb))
    return math.degrees(math.atan2(cross, dot))


@dataclass(frozen=True)
class VisibilityMap:
    """Per-tile visibility scores for one pose; scores sum to 1."""

    grid: TileGrid
    scores: np.ndarray = field(repr=False)  # flat, length grid.tile_count

    def score(self, i: int, j: int) -> float:
        return float(self.scores[self.grid.flat_index(i, j)])

    def visible_tiles(self) -> np.ndarray:
        """Flat indices with nonzero score, ordered by descending score
        (ties by flat index)."""
        return rank_tiles(self.scores)


def rank_tiles(scores: np.ndarray) -> np.ndarray:
    """Flat indices of the tiles with a positive score, by descending score
    (ties by flat index)."""
    idx = np.flatnonzero(scores > 0.0)
    return idx[np.lexsort((idx, -scores[idx]))]


def _local_frame(o: Orientation) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward/right/up unit vectors of the (roll-free) camera frame at o."""
    y = math.radians(o.yaw)
    p = math.radians(o.pitch)
    cy, sy, cp, sp = math.cos(y), math.sin(y), math.cos(p), math.sin(p)
    forward = np.array([cp * cy, cp * sy, sp])
    right = np.array([-sy, cy, 0.0])
    up = np.array([-sp * cy, -sp * sy, cp])
    return forward, right, up


def tile_visibility(
    o: Orientation,
    fov: FovSpec,
    grid: TileGrid,
    samples_per_axis: int = 32,
) -> VisibilityMap:
    """Score each tile by the fraction of FoV samples that land on it.

    samples_per_axis**2 directions are cast on a uniform angular grid over the
    FoV rectangle centered on o. Offsets are applied along great circles of
    the local camera frame (not a planar projection), each sample contributing
    1 / samples_per_axis**2 to the tile its direction falls in.
    """
    if samples_per_axis < 1:
        raise ValueError("samples_per_axis must be >= 1")
    n = samples_per_axis
    alpha = np.radians(np.linspace(-fov.h_deg / 2.0, fov.h_deg / 2.0, n))
    beta = np.radians(np.linspace(-fov.v_deg / 2.0, fov.v_deg / 2.0, n))
    aa, bb = np.meshgrid(alpha, beta, indexing="ij")
    aa = aa.ravel()
    bb = bb.ravel()

    forward, right, up = _local_frame(o)
    # Local (alpha, beta) behaves like yaw/pitch in the camera frame.
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
    scores = counts / float(n * n)
    return VisibilityMap(grid=grid, scores=scores)
