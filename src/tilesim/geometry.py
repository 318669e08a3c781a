"""Sphere geometry for equirectangular tiled video.

Angles are degrees throughout: yaw in [-180, 180) increasing eastward,
pitch in [-90, 90] increasing upward, roll carried but never interpreted.
The unit view direction for (yaw, pitch) is
(cos p cos y, cos p sin y, sin p) in a right-handed frame with z up.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


def normalize_yaw(yaw: float) -> float:
    """Wrap a yaw angle (a float or an array of them) into [-180, 180).

    The first % rounds to 360.0 when yaw + 180 is a tiny negative number (yaw
    just below -180); the second maps that to 0, which keeps the result in
    range and makes the wrap idempotent.
    """
    return (yaw + 180.0) % 360.0 % 360.0 - 180.0


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
class ViewingTrace:
    """A viewing trace as read-only float64 arrays, one entry per sample:
    sample k is at time t[k] (strictly increasing) with pose yaw[k],
    pitch[k], roll[k], yaw and pitch held normalized as Orientation holds
    them. Slicing gives a ViewingTrace of views."""

    t: np.ndarray = field(repr=False)
    yaw: np.ndarray = field(repr=False)
    pitch: np.ndarray = field(repr=False)
    roll: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        names = ("t", "yaw", "pitch", "roll")
        arrays = [np.asarray(getattr(self, n), dtype=np.float64).view() for n in names]
        if arrays[0].ndim != 1 or any(a.shape != arrays[0].shape for a in arrays):
            raise ValueError("t, yaw, pitch and roll must be 1-D and of one length")
        for name, a in zip(names, arrays):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @classmethod
    def from_angles(cls, t, yaw, pitch, roll) -> ViewingTrace:
        """Samples from raw angles, wrapped and clamped as Orientation does
        (numpy's float % is Python's, so each yaw is normalize_yaw's)."""
        return cls(
            t=t,
            yaw=normalize_yaw(np.asarray(yaw, dtype=np.float64)),
            pitch=np.clip(np.asarray(pitch, dtype=np.float64), -90.0, 90.0),
            roll=roll,
        )

    def __len__(self) -> int:
        return self.t.size

    def __getitem__(self, k: slice) -> ViewingTrace:
        if not isinstance(k, slice):
            raise TypeError("index a ViewingTrace with a slice; use pose(k) for one sample")
        return ViewingTrace(self.t[k], self.yaw[k], self.pitch[k], self.roll[k])

    def pose(self, k: int) -> Orientation:
        """Sample k's pose (rebuilding it changes no bit: normalize_yaw is
        idempotent on its own output)."""
        return Orientation(self.yaw.item(k), self.pitch.item(k), self.roll.item(k))


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

    def visible_tiles(self) -> np.ndarray:
        """Flat indices with nonzero score, ordered by descending score
        (ties by flat index)."""
        return rank_tiles(self.scores)


def rank_tiles(scores: np.ndarray) -> np.ndarray:
    """Flat indices of the tiles with a positive score, by descending score
    (ties by flat index)."""
    idx = np.flatnonzero(scores > 0.0)
    return idx[np.lexsort((idx, -scores[idx]))]


# Direction samples (poses x samples_per_axis**2) that tile_visibility scores
# per pass: its transient arrays stay a few buffers of this many floats.
CHUNK_SAMPLES = 16_384


@functools.lru_cache(maxsize=8)
def _fov_offsets(fov: FovSpec, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward, right and up offsets (cos b cos a, cos b sin a, sin b) of the
    n*n FoV samples (alpha-major), read-only and shared by every call."""
    alpha = np.radians(np.linspace(-fov.h_deg / 2.0, fov.h_deg / 2.0, n))
    beta = np.radians(np.linspace(-fov.v_deg / 2.0, fov.v_deg / 2.0, n))
    aa, bb = np.meshgrid(alpha, beta, indexing="ij")
    aa = aa.ravel()
    bb = bb.ravel()
    # Local (alpha, beta) behaves like yaw/pitch in the camera frame.
    ca, sa = np.cos(aa), np.sin(aa)
    cb, sb = np.cos(bb), np.sin(bb)
    offsets = (cb * ca, cb * sa, sb)
    for a in offsets:
        a.setflags(write=False)
    return offsets


def _local_frame(o: Orientation) -> tuple[tuple[float, float, float], ...]:
    """Forward/right/up unit vectors of the (roll-free) camera frame at o."""
    y = math.radians(o.yaw)
    p = math.radians(o.pitch)
    cy, sy, cp, sp = math.cos(y), math.sin(y), math.cos(p), math.sin(p)
    forward = (cp * cy, cp * sy, sp)
    right = (-sy, cy, 0.0)
    up = (-sp * cy, -sp * sy, cp)
    return forward, right, up


def tile_visibility(
    poses: Sequence[Orientation],
    fov: FovSpec,
    grid: TileGrid,
    samples_per_axis: int = 32,
) -> np.ndarray:
    """Score each tile, for each pose, by the fraction of FoV samples that land
    on it; row k of the (len(poses), tile_count) result is poses[k]'s scores.

    samples_per_axis**2 directions are cast on a uniform angular grid over the
    FoV rectangle centered on the pose. Offsets are applied along great circles
    of the local camera frame (not a planar projection), each sample
    contributing 1 / samples_per_axis**2 to the tile its direction falls in.
    The batch is scored CHUNK_SAMPLES directions at a time, with the same
    float operations for every pose, so a row does not depend on the batch
    it was scored in.
    """
    if samples_per_axis < 1:
        raise ValueError("samples_per_axis must be >= 1")
    offsets = _fov_offsets(fov, samples_per_axis)
    samples = samples_per_axis * samples_per_axis
    # frames[k, v, c]: component c of pose k's forward (v=0), right, up vector.
    frames = np.array([_local_frame(o) for o in poses]).reshape(len(poses), 3, 3)
    scores = np.empty((len(poses), grid.tile_count))
    step = max(1, CHUNK_SAMPLES // samples)
    buffers = np.empty((4, min(step, len(poses)), samples))
    for start in range(0, len(poses), step):
        frame = frames[start : start + step]
        k = frame.shape[0]
        x, y, z, term = (b[:k] for b in buffers)
        for c, out in enumerate((x, y, z)):
            # forward + right + up, summed in that order.
            np.multiply(frame[:, 0, c, None], offsets[0], out=out)
            for v in (1, 2):
                np.multiply(frame[:, v, c, None], offsets[v], out=term)
                out += term
        yaw = np.degrees(np.arctan2(y, x, out=y), out=y)
        # (yaw + 180) % 360 - 180, without the slow float %: arctan2 keeps
        # yaw + 180 in [0, 360], and on (-360, 720) % only subtracts or adds
        # 360, exactly as below.
        yaw += 180.0
        np.subtract(yaw, 360.0, out=yaw, where=yaw >= 360.0)
        np.add(yaw, 360.0, out=yaw, where=yaw < 0.0)
        yaw -= 180.0
        pitch = np.degrees(np.arcsin(np.clip(z, -1.0, 1.0, out=z), out=z), out=z)
        # Tile column and row. Adding back the 180 just taken off rounds
        # like the wrap did.
        yaw += 180.0
        yaw *= grid.cols
        yaw /= 360.0
        pitch = np.subtract(90.0, pitch, out=pitch)
        pitch *= grid.rows
        pitch /= 180.0
        # The int indices reuse the memory of x and term, free by now; the
        # assignments cast like astype(np.int64).
        i = term.view(np.int64)
        i[...] = np.floor(yaw, out=yaw)
        j = x.view(np.int64)
        j[...] = np.floor(pitch, out=pitch)
        np.clip(i, 0, grid.cols - 1, out=i)
        np.clip(j, 0, grid.rows - 1, out=j)
        # Flat tile index, offset by tile_count per pose for one bincount.
        j *= grid.cols
        j += i
        j += np.arange(k)[:, None] * grid.tile_count
        counts = np.bincount(j.ravel(), minlength=k * grid.tile_count)
        scores[start : start + k] = counts.reshape(k, grid.tile_count) / float(samples)
    return scores
