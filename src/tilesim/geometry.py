"""Sphere geometry for equirectangular tiled video.

Angles are degrees throughout: yaw in [-180, 180) increasing eastward,
pitch in [-90, 90] increasing upward. A pose is yaw and pitch only, since
tiles are chosen from where the head points. The unit view direction for
(yaw, pitch) is (cos p cos y, cos p sin y, sin p) in a right-handed frame
with z up. A pose lives only as a row of ViewingTrace's arrays: wrap_pose
normalizes it, camera_frames turns a trace's rows into view frames, and
tile_visibility and orthodromic_distance take whole traces.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np


def normalize_yaw(yaw: float) -> float:
    """Wrap a yaw angle (a float or an array of them) into [-180, 180).

    The first % rounds to 360.0 when yaw + 180 is a tiny negative number (yaw
    just below -180); the second maps that to 0, which keeps the result in
    range and makes the wrap idempotent.
    """
    return (yaw + 180.0) % 360.0 % 360.0 - 180.0


def each(f, *arrays: np.ndarray) -> np.ndarray:
    """f (a `math` function) of each element, or of each index's elements
    across equal-length 1-D arrays, as float64 (numpy's ufuncs are not
    bit-equal to `math`'s on every host)."""
    return np.fromiter(map(f, *(a.tolist() for a in arrays)), np.float64, len(arrays[0]))


def wrap_pose(yaw, pitch):
    """A pose's yaw wrapped into [-180, 180) and its pitch clamped to
    [-90, 90], for floats or float64 arrays alike: the one normalization
    every stored or predicted pose goes through."""
    return normalize_yaw(yaw), np.clip(pitch, -90.0, 90.0)


@dataclass(frozen=True, eq=False)
class ViewingTrace:
    """Poses as read-only float64 arrays, one entry per sample: sample k is
    at time t[k] with pose yaw[k], pitch[k], held as wrap_pose leaves them.
    Times never decrease, as lookups by time (searchsorted) need: building a
    trace whose time goes back raises ValueError naming the sample, and
    equal times pass, so a batch gathered by index may repeat samples.
    Traces compare and hash by identity, as their arrays cannot."""

    t: np.ndarray = field(repr=False)
    yaw: np.ndarray = field(repr=False)
    pitch: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        names = ("t", "yaw", "pitch")
        arrays = [np.asarray(getattr(self, n), dtype=np.float64).view() for n in names]
        if arrays[0].ndim != 1 or any(a.shape != arrays[0].shape for a in arrays):
            raise ValueError("t, yaw and pitch must be 1-D and of one length")
        t = arrays[0]
        back = np.flatnonzero(t[1:] < t[:-1])
        if back.size:
            k = int(back[0]) + 1
            raise ValueError(
                f"viewing trace goes back in time at sample {k}: "
                f"t = {t.item(k)!r} after {t.item(k - 1)!r}"
            )
        for name, a in zip(names, arrays):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @classmethod
    def from_angles(cls, t, yaw, pitch) -> ViewingTrace:
        """Samples from raw angles, each pose put through wrap_pose."""
        yaw, pitch = wrap_pose(
            np.asarray(yaw, dtype=np.float64), np.asarray(pitch, dtype=np.float64)
        )
        return cls(t=t, yaw=yaw, pitch=pitch)

    def __len__(self) -> int:
        return self.t.size

    def __getitem__(self, k: slice | np.ndarray) -> ViewingTrace:
        """The samples at a slice (views) or an integer index array (copies,
        in index order)."""
        return ViewingTrace(self.t[k], self.yaw[k], self.pitch[k])


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


def orthodromic_distance(a: ViewingTrace, b: ViewingTrace) -> np.ndarray:
    """Great-circle angle between the view directions of a[k] and b[k], for
    each k, in degrees [0, 180].

    atan2(|va x vb|, va . vb) equals arccos of the clamped dot product but
    stays well-conditioned for nearly-parallel directions, where acos alone
    loses six digits. The dot product and the cross product's squared norm
    are stacked matmuls of a row by a column, which keep the bits of a 1-D
    np.dot (and so of np.linalg.norm, its sqrt) where a component sum or
    einsum would not.
    """
    va, vb = camera_frames(a)[:, 0], camera_frames(b)[:, 0]
    cross = np.cross(va, vb)
    sine = np.sqrt((cross[:, None, :] @ cross[:, :, None]).ravel())
    cosine = (va[:, None, :] @ vb[:, :, None]).ravel()
    return each(math.degrees, each(math.atan2, sine, cosine))


def rank_tiles(scores: np.ndarray) -> np.ndarray:
    """Flat indices of the tiles with a positive score, by descending score
    (ties by flat index)."""
    idx = np.flatnonzero(scores > 0.0)
    return idx[np.lexsort((idx, -scores[idx]))]


# Direction samples (poses x samples_per_axis**2) that tile_visibility scores
# per pass: its transient arrays stay a few buffers of this many floats.
CHUNK_SAMPLES = 16_384


@functools.lru_cache(maxsize=8)
def _fov_offsets(fov: FovSpec, n: int) -> np.ndarray:
    """offsets[v, s]: the forward (v=0), right (1) and up (2) components
    (cos b cos a, cos b sin a, sin b) of FoV sample s, for the n*n samples
    (alpha-major); one read-only (3, n*n) array shared by every call. Each
    axis spans the FoV edge to edge, but for n = 1, whose one sample is at
    its centre."""
    alpha, beta = (
        np.radians(np.linspace(-extent / 2.0, extent / 2.0, n) if n > 1 else np.zeros(1))
        for extent in (fov.h_deg, fov.v_deg)
    )
    aa, bb = np.meshgrid(alpha, beta, indexing="ij")
    aa = aa.ravel()
    bb = bb.ravel()
    # Local (alpha, beta) behaves like yaw/pitch in the camera frame.
    ca, sa = np.cos(aa), np.sin(aa)
    cb, sb = np.cos(bb), np.sin(bb)
    offsets = np.stack((cb * ca, cb * sa, sb))
    offsets.setflags(write=False)
    return offsets


def camera_frames(poses: ViewingTrace) -> np.ndarray:
    """frames[k, v, c]: component c of pose k's forward (v=0), right (1) and
    up (2) unit vector, the only place a view vector is built. Every angle
    goes through `math`, so a frame keeps its bits on every host."""
    y = each(math.radians, poses.yaw)
    p = each(math.radians, poses.pitch)
    cy, sy, cp, sp = each(math.cos, y), each(math.sin, y), each(math.cos, p), each(math.sin, p)
    forward = (cp * cy, cp * sy, sp)
    right = (-sy, cy, np.zeros_like(cy))
    up = (-sp * cy, -sp * sy, cp)
    return np.stack([np.stack(v, axis=-1) for v in (forward, right, up)], axis=1)


def tile_visibility(
    poses: ViewingTrace,
    fov: FovSpec,
    grid: TileGrid,
    samples_per_axis: int = 32,
) -> np.ndarray:
    """Score each tile, for each sample of `poses`, by the fraction of FoV
    samples that land on it; row k of the (len(poses), tile_count) result is
    sample k's scores.

    samples_per_axis**2 directions are cast on a uniform angular grid over the
    FoV rectangle centered on the pose, corners included (samples_per_axis=1
    casts the one direction the pose faces). Offsets are applied along great
    circles of the local camera frame (not a planar projection), each sample
    contributing 1 / samples_per_axis**2 to the tile its direction falls in.
    The batch is scored CHUNK_SAMPLES directions at a time, with the same
    float operations for every pose, so a row does not depend on the batch
    it was scored in: one einsum turns a chunk's frames and the FoV offsets
    into directions, arctan2 and arcsin turn those back into angles, and an
    int cast bins them. A run of consecutive poses with bit-identical frames
    (a viewer holding still, a sample-and-hold trace) is scored once.
    """
    if samples_per_axis < 1:
        raise ValueError("samples_per_axis must be >= 1")
    frames = camera_frames(poses)
    # Runs of bit-identical frames (not ==: +-0.0 and NaN stay apart) score once.
    bits = frames.reshape(len(poses), 9).view(np.int64)
    first = np.ones(len(poses), dtype=bool)
    first[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    frames = frames[first]
    offsets = _fov_offsets(fov, samples_per_axis)
    samples = samples_per_axis * samples_per_axis
    scores = np.empty((len(frames), grid.tile_count))
    step = max(1, CHUNK_SAMPLES // samples)
    buffers = np.empty((4, min(step, len(frames)), samples))
    for start in range(0, len(frames), step):
        frame = frames[start : start + step]
        k = frame.shape[0]
        x, y, z, term = (b[:k] for b in buffers)
        # x, y, z in one pass: component c of sample s of pose k is
        # sum over v of frame[k, v, c] * offsets[v, s]. Without optimize,
        # numpy's einsum multiplies and then adds each product, unfused, in
        # v order, onto an accumulator that starts at +0.0: ((0 + f*o0) +
        # r*o1) + u*o2. So each value keeps the bits of f*o0 + r*o1 + u*o2
        # but for a zero's sign: where all three products are -0.0 it gives
        # +0.0, not -0.0. That never shows. x's first product, cos p cos y
        # cos b cos a, is never zero, as no double's cosine is 0, so x keeps
        # every bit; a zero y's sign only picks arctan2's +-0 or +-pi, which
        # the yaw wrap below maps to one value; a zero z's sign is lost in
        # 90 - pitch. NaN propagates as in the sum.
        np.einsum("kvc,vs->cks", frame, offsets, out=buffers[:3, :k])
        yaw = np.arctan2(y, x, out=y)
        yaw *= 180.0 / math.pi  # np.degrees, bit for bit
        # (yaw + 180) % 360 - 180 without the slow float %: arctan2 keeps yaw
        # + 180 in [0, 360] (-pi becomes -180 exactly), where % maps 360 to 0.
        yaw += 180.0
        np.subtract(yaw, 360.0, out=yaw, where=yaw >= 360.0)
        yaw -= 180.0
        pitch = np.arcsin(np.clip(z, -1.0, 1.0, out=z), out=z)
        pitch *= 180.0 / math.pi
        # Tile column and row. Adding back the 180 just taken off rounds
        # like the wrap did.
        yaw += 180.0
        yaw *= grid.cols
        yaw /= 360.0
        pitch = np.subtract(90.0, pitch, out=pitch)
        pitch *= grid.rows
        pitch /= 180.0
        # The int indices reuse the memory of x and term, free by now. The
        # assignments truncate like astype(np.int64), and after the clip
        # that is floor: the two differ only on a negative non-integer,
        # where both give an int <= 0 that the clip takes to 0 (a pitch
        # value can be -1.4e-14, as arcsin(1) in degrees can exceed 90 by
        # an ulp). NaN casts alike either way.
        i = term.view(np.int64)
        i[...] = yaw
        j = x.view(np.int64)
        j[...] = pitch
        np.clip(i, 0, grid.cols - 1, out=i)
        np.clip(j, 0, grid.rows - 1, out=j)
        # Flat tile index, offset by tile_count per pose for one bincount.
        j *= grid.cols
        j += i
        j += np.arange(k)[:, None] * grid.tile_count
        counts = np.bincount(j.ravel(), minlength=k * grid.tile_count)
        np.divide(counts.reshape(k, -1), float(samples), out=scores[start : start + k])
    return scores[np.cumsum(first) - 1]
