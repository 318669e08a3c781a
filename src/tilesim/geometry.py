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
    np.dot (and so of np.linalg.norm, its sqrt). numpy hands both to BLAS,
    so those bits depend on the BLAS kernel that runs: OpenBLAS's SkylakeX
    kernel rounds a length-3 dot as fma(a2,b2,fma(a1,b1,a0*b0)), its Haswell
    and Sandybridge kernels, like a component sum, as the plain sum.
    `perfbench/reference.json`'s `trace-analysis` digests hold under the
    first only.
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
# per pass: its transient arrays stay a few buffers of this many values.
CHUNK_SAMPLES = 16_384

# tile_visibility's float32 pass certifies a sample's tile when the sample is
# more than FILTER_BOUND radians from every tile edge and its direction's z
# is under Z_CAP in magnitude; the kernel's comment derives both.
FILTER_BOUND = 1e-4
Z_CAP = 0.99


@functools.lru_cache(maxsize=8)
def _fov_offsets(fov: FovSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """offsets[v, s]: the forward (v=0), right (1) and up (2) components
    (cos b cos a, cos b sin a, sin b) of FoV sample s, for the n*n samples
    (alpha-major); read-only (3, n*n) arrays shared by every call, in float64
    and rounded to float32. Each axis spans the FoV edge to edge, but for
    n = 1, whose one sample is at its centre."""
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
    offsets32 = offsets.astype(np.float32)
    offsets.setflags(write=False)
    offsets32.setflags(write=False)
    return offsets, offsets32


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


def _angles32(
    frames32: np.ndarray, offsets32: np.ndarray, xyz: np.ndarray, out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The float32 pass's angles: out[0, k, s] and out[1, k, s] are the yaw
    and pitch, in radians, of FoV sample s of frame k, for float32 frames
    (k, 3, 3) and offsets (3, S). xyz is (3, k, S) float32 scratch for the
    directions. Returns out and each direction's z, clipped to [-1, 1]."""
    x, y, z = np.matmul(frames32.transpose(2, 0, 1), offsets32, out=xyz)
    np.arctan2(y, x, out=out[0])
    np.arcsin(np.clip(z, -1.0, 1.0, out=z), out=out[1])
    return out, z


def _tiles64(
    frames: np.ndarray, offsets: np.ndarray, pose: np.ndarray, sample: np.ndarray, grid: TileGrid
) -> np.ndarray:
    """The float64 chain, src/'s one float64 binning: the flat tile index of
    FoV sample sample[m] of frame pose[m], for each m. Each direction is
    f*o0 + r*o1 + u*o2 in separate multiplies and adds, in that order, as
    the scalar form sums it, so it keeps every bit, a zero's sign included,
    and NaN propagates as in the sum."""
    f = frames[pose]
    o = offsets[:, sample]
    x, y, z = f[:, 0].T * o[0] + f[:, 1].T * o[1] + f[:, 2].T * o[2]
    yaw = np.arctan2(y, x)
    yaw *= 180.0 / math.pi  # np.degrees, bit for bit
    # (yaw + 180) % 360 - 180 without the slow float %: arctan2 keeps yaw
    # + 180 in [0, 360] (-pi becomes -180 exactly), where % maps 360 to 0.
    yaw += 180.0
    np.subtract(yaw, 360.0, out=yaw, where=yaw >= 360.0)
    yaw -= 180.0
    pitch = np.arcsin(np.clip(z, -1.0, 1.0, out=z), out=z)
    pitch *= 180.0 / math.pi
    # Tile column and row. Adding back the 180 just taken off rounds like
    # the wrap did.
    yaw += 180.0
    yaw *= grid.cols
    yaw /= 360.0
    pitch = np.subtract(90.0, pitch, out=pitch)
    pitch *= grid.rows
    pitch /= 180.0
    # The int cast truncates, and after the clip that is floor: the two
    # differ only on a negative non-integer, where both give an int <= 0
    # that the clip takes to 0 (a pitch value can be -1.4e-14, as arcsin(1)
    # in degrees can exceed 90 by an ulp). NaN casts alike either way.
    i = np.clip(yaw.astype(np.int64), 0, grid.cols - 1)
    j = np.clip(pitch.astype(np.int64), 0, grid.rows - 1)
    j *= grid.cols
    j += i
    return j


def tile_visibility(
    poses: ViewingTrace,
    fov: FovSpec,
    grid: TileGrid,
    samples_per_axis: int = 32,
) -> np.ndarray:
    """Count, for each sample of `poses`, the FoV samples that land on each
    tile; row k of the (len(poses), tile_count) int64 result is sample k's
    counts, which sum to samples_per_axis**2.

    samples_per_axis**2 directions are cast on a uniform angular grid over the
    FoV rectangle centered on the pose, corners included (samples_per_axis=1
    casts the one direction the pose faces). Offsets are applied along great
    circles of the local camera frame (not a planar projection), each sample
    counting once in the tile its direction falls in.
    The batch is scored CHUNK_SAMPLES directions at a time, in two stages.
    A float32 pass (one matmul, arctan2 and arcsin) bins every direction and
    certifies the tile of each one that lies farther than FILTER_BOUND
    radians from every tile edge; the float64 chain bins the rest, the few
    near an edge, a pole or the seam, exactly as the scalar form does. A
    certified tile is the float64 chain's tile, so every row equals the
    scalar form's and does not depend on the batch it was scored in.
    A run of consecutive poses with bit-identical frames (a viewer holding
    still, a sample-and-hold trace) is scored once.
    """
    if samples_per_axis < 1:
        raise ValueError("samples_per_axis must be >= 1")
    frames = camera_frames(poses)
    # Runs of bit-identical frames (not ==: +-0.0 and NaN stay apart) score once.
    bits = frames.reshape(len(poses), 9).view(np.int64)
    first = np.ones(len(poses), dtype=bool)
    first[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    frames = frames[first]
    offsets, offsets32 = _fov_offsets(fov, samples_per_axis)
    samples = offsets.shape[1]
    tiles = grid.tile_count
    # Why a certified sample's float32 tile is the float64 chain's tile:
    # - Frames and offsets rounded to float32 are within 6e-8 of their
    #   values, relatively. Each of x, y, z sums three products whose
    #   magnitudes add up to at most 1 (a frame's column and an offset are
    #   unit vectors), so in whatever order or fusing the matmul sums them,
    #   each component is within 3e-7 of the exact unit direction.
    # - Where |z| < Z_CAP = 0.99, h = sqrt(x^2 + y^2) > 0.14. Yaw and pitch
    #   move by at most the direction's error over h, so they are within
    #   3.0e-6 and 2.1e-6 rad. arctan2 and arcsin's few float32 ulps and
    #   the roundings of the scaling to tile units below add under 2e-6
    #   rad, so the pass's angles are within 5e-6 rad of the exact ones.
    #   A test measures them within 1e-6 rad of the float64 chain's.
    # - The float64 chain's angles are within about 1e-12 rad of exact.
    # - So a sample whose float32 angles lie more than FILTER_BOUND = 1e-4
    #   rad (20 times 5e-6) from every tile edge is in one tile under exact
    #   arithmetic, the float32 pass and the float64 chain alike. The yaw
    #   wrap at the seam, the clips and the edge-ownership rule act only at
    #   edges, where no sample is certified; nor is a sample near a pole,
    #   a NaN one, or any on a grid whose tiles are narrower than the bound.
    # Per axis, in tile units, column u = yaw * cols / 2pi + cols / 2 and
    # row v = -pitch * rows / pi + rows / 2; floor and the fraction u -
    # floor(u) are exact, and the bound becomes a margin on the fraction.
    scale = np.array([grid.cols / (2.0 * math.pi), -grid.rows / math.pi])[:, None, None]
    shift = np.array([grid.cols / 2.0, grid.rows / 2.0])[:, None, None]
    margin = FILTER_BOUND * np.abs(scale)
    scale, shift, low, high = (a.astype(np.float32) for a in (scale, shift, margin, 1.0 - margin))
    frames32 = frames.astype(np.float32)
    counts = np.empty((len(frames), tiles), dtype=np.int64)
    step = max(1, CHUNK_SAMPLES // samples)
    # Three float32 buffers of a chunk's directions, angles and floors. Each
    # chunk takes the front of each as contiguous arrays, and the int32 tiles
    # and int64 flat indices reuse the memory of the directions and floors.
    most = min(step, len(frames))
    xyz_buf, angle_buf, cell_buf = (np.empty(n * most * samples, np.float32) for n in (3, 2, 2))
    pose_offsets = np.arange(most, dtype=np.int64)[:, None] * tiles
    flagged: list[np.ndarray] = []
    pending = 0
    for start in range(0, len(frames), step):
        k = min(step, len(frames) - start)
        n = k * samples
        xyz = xyz_buf[: 3 * n].reshape(3, k, samples)
        angles, z = _angles32(
            frames32[start : start + k], offsets32, xyz, angle_buf[: 2 * n].reshape(2, k, samples)
        )
        certified = np.abs(z, out=z) < Z_CAP
        angles *= scale
        angles += shift
        cell = np.floor(angles, out=cell_buf[: 2 * n].reshape(2, k, samples))
        angles -= cell  # each axis's fraction, exactly
        inside = (angles > low) & (angles < high)
        certified &= inside[0]
        certified &= inside[1]
        # A certified sample's fractions lie in (margin, 1 - margin), so its
        # floor(u) and floor(v) are a column and row of the grid. Its tile
        # is exact in int32 (a grid of 2**31 tiles could not hold one count
        # row in memory), and the int64 flat index is offset by `tiles` per
        # pose for one bincount. The other samples count in a last bin,
        # dropped.
        col_row = xyz_buf[: 2 * n].view(np.int32).reshape(2, k, samples)
        np.copyto(col_row, cell, casting="unsafe")
        col, row = col_row
        row *= grid.cols
        row += col
        flat = cell_buf[: 2 * n].view(np.int64).reshape(k, samples)
        np.add(row, pose_offsets[:k], out=flat)
        rest = np.flatnonzero(~certified)
        flat.ravel()[rest] = k * tiles
        binned = np.bincount(flat.ravel(), minlength=k * tiles + 1)
        counts[start : start + k] = binned[:-1].reshape(k, tiles)
        flagged.append(rest + start * samples)
        pending += rest.size
        # The float64 chain holds about 20 values per sample, so it runs
        # once an eighth of a chunk's samples are flagged, and at the end.
        if pending >= CHUNK_SAMPLES // 8 or (pending and start + k == len(frames)):
            pose, sample = np.divmod(np.concatenate(flagged), samples)
            tile = _tiles64(frames, offsets, pose, sample, grid)
            np.add.at(counts.reshape(-1), pose * tiles + tile, 1)
            flagged, pending = [], 0
    return counts[np.cumsum(first) - 1]
