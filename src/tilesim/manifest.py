"""Tiled-video manifests: synthetic size tables, byte math, JSON round-trip.

A manifest describes one video cut into fixed-length segments on a tile grid,
with every tile encoded at `quality_count` levels. Sizes are bytes per
(segment, tile, level) and strictly increase with level. The JSON schema is
documented in docs/manifest.schema.json.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import TileGrid
from .traceio import read_json_object


class ManifestError(ValueError):
    """Raised when a manifest file is malformed; the message names the field."""


def count_segments(duration: float, segment_length: float) -> int:
    q = duration / segment_length
    if not math.isfinite(q):
        raise ManifestError(f"segment_length: {segment_length} is too short for {duration} s")
    qi = round(q)
    # Guard the float quotient: 3.0/0.1 must give 30 segments, not 31.
    return qi if abs(q - qi) < 1e-9 else math.ceil(q)


def file_count(
    cols: int, rows: int, qualities: int, duration: float, segment_length: float
) -> int:
    """Total files a packager would emit: one init plus one media segment per
    (tile, quality, segment) stream, plus the manifest itself."""
    segments = count_segments(duration, segment_length)
    return cols * rows * qualities * (segments + 1) + 1


def default_bitrate_factors(qualities: int) -> tuple[float, ...]:
    """Factor ladder 4**(level-(top)); yields (0.0625, 0.25, 1.0) at 3 levels."""
    if qualities < 1:
        raise ValueError("qualities must be >= 1")
    return tuple(4.0 ** (level - (qualities - 1)) for level in range(qualities))


@dataclass
class VideoManifest:
    """Everything a client needs to request tiles of one video."""

    name: str
    duration: float
    segment_length: float
    grid: TileGrid
    quality_count: int
    bitrate_factors: tuple[float, ...]
    base_bitrate_bps: float
    sizes: np.ndarray = field(repr=False)  # (segments, tiles, qualities) bytes
    popularity: np.ndarray | None = field(default=None, repr=False)

    @property
    def segment_count(self) -> int:
        return count_segments(self.duration, self.segment_length)

    def validate(self) -> None:
        for key in ("duration", "segment_length", "base_bitrate_bps"):
            if not 0.0 < getattr(self, key) < math.inf:
                raise ManifestError(f"{key}: must be finite and positive")
        if self.quality_count < 1:
            raise ManifestError("quality_count: must be >= 1")
        factors = np.asarray(self.bitrate_factors, dtype=np.float64)
        if factors.shape != (self.quality_count,):
            raise ManifestError(
                "bitrate_factors: expected one factor per quality level"
            )
        # Strictly increasing, so the first is the smallest and the last the largest.
        if not (0.0 < factors[0] and factors[-1] < math.inf and (np.diff(factors) > 0).all()):
            raise ManifestError(
                "bitrate_factors: must be finite, positive and strictly increasing"
            )
        expect = (self.segment_count, self.grid.tile_count, self.quality_count)
        if self.sizes.shape != expect:
            raise ManifestError(
                f"sizes_bytes: shape {self.sizes.shape} != expected {expect}"
            )
        if not (self.sizes > 0).all():
            raise ManifestError("sizes_bytes: all sizes must be > 0")
        if self.quality_count > 1 and not (np.diff(self.sizes, axis=2) > 0).all():
            raise ManifestError(
                "sizes_bytes: sizes must strictly increase with quality"
            )
        # Byte math sums in int64. Sizes rise with level, so a segment's
        # top-level total, summed exactly, bounds every assignment's bytes.
        if 8 * max(map(sum, self.sizes[:, :, -1].tolist()), default=0) >= 2**63:
            raise ManifestError("sizes_bytes: a segment's top-level bits reach 2**63")
        if self.popularity is not None:
            if self.popularity.shape != (self.segment_count, self.grid.tile_count):
                raise ManifestError(
                    f"popularity: shape {self.popularity.shape} != "
                    f"expected {(self.segment_count, self.grid.tile_count)}"
                )
            if (self.popularity < 0).any() or (
                self.popularity >= self.quality_count
            ).any():
                raise ManifestError(
                    "popularity: levels must be in [0, quality_count)"
                )


def synthesize(
    name: str,
    duration: float,
    segment_length: float,
    grid: TileGrid,
    quality_count: int = 3,
    base_bitrate_bps: float = 20e6,
    variability: float = 0.0,
    seed: int = 0,
) -> VideoManifest:
    """Build a synthetic manifest with seeded per-(segment, tile) size jitter.

    size(seg, tile, level) = base * factor(level) * segment_length / 8 * u
    with u drawn uniformly from [1-variability, 1+variability], one draw per
    (segment, tile) shared across levels. Identical arguments give identical
    manifests.
    """
    if not 0.0 <= variability < 1.0:
        raise ValueError("variability must be in [0, 1)")
    factors = default_bitrate_factors(quality_count)
    segments = count_segments(duration, segment_length)
    tiles = grid.tile_count
    rng = np.random.default_rng(seed)
    u = rng.uniform(1.0 - variability, 1.0 + variability, size=(segments, tiles))
    per_level = [
        base_bitrate_bps * f * segment_length / 8.0 * u for f in factors
    ]
    # Capped so that the int64 cast cannot wrap; validate() refuses a capped size.
    sizes = np.rint(np.minimum(np.stack(per_level, axis=2), 2**62)).astype(np.int64)
    sizes = np.maximum(sizes, 1)
    # Rounding could collapse adjacent levels of a tiny ladder; keep them apart.
    for level in range(1, quality_count):
        sizes[:, :, level] = np.maximum(
            sizes[:, :, level], sizes[:, :, level - 1] + 1
        )
    m = VideoManifest(
        name=name,
        duration=float(duration),
        segment_length=float(segment_length),
        grid=grid,
        quality_count=quality_count,
        bitrate_factors=tuple(float(f) for f in factors),
        base_bitrate_bps=float(base_bitrate_bps),
        sizes=sizes,
    )
    m.validate()
    return m


def segment_bits(manifest: VideoManifest, segment: int, assignment: np.ndarray) -> int:
    """Total bits of one segment under a per-tile quality assignment."""
    levels = np.asarray(assignment, dtype=np.int64)
    tiles = np.arange(manifest.grid.tile_count)
    return int(8 * manifest.sizes[segment, tiles, levels].sum())


def naive_segment_bytes(manifest: VideoManifest, segment: int) -> int:
    """Bytes of one segment with every tile at the top level."""
    return int(manifest.sizes[segment, :, manifest.quality_count - 1].sum())


def segment_requests(
    manifest: VideoManifest, segment: int, assignment: np.ndarray
) -> list[tuple[int, int]]:
    """(object id, size) pairs for one segment, tile-index ascending.

    The id, the cache simulator's key, is the flat index of (segment, tile,
    level) in `manifest.sizes`: (segment * tile_count + tile) * quality_count
    + level. A run has one manifest, so the id needs no video name.
    """
    levels = np.asarray(assignment, dtype=np.int64)
    tiles = np.arange(manifest.grid.tile_count)
    ids = (segment * manifest.grid.tile_count + tiles) * manifest.quality_count + levels
    sizes = manifest.sizes[segment, tiles, levels]
    return list(zip(ids.tolist(), sizes.tolist()))


def to_dict(manifest: VideoManifest) -> dict:
    """JSON-ready representation (stable key order, plain Python types)."""
    grid = manifest.grid
    return {
        "name": manifest.name,
        "duration": manifest.duration,
        "segment_length": manifest.segment_length,
        "grid": {"cols": grid.cols, "rows": grid.rows},
        "quality_count": manifest.quality_count,
        "bitrate_factors": list(manifest.bitrate_factors),
        "base_bitrate_bps": manifest.base_bitrate_bps,
        "srd": [
            {"x": i, "y": j, "w": 1, "h": 1, "total_w": grid.cols, "total_h": grid.rows}
            for j in range(grid.rows)
            for i in range(grid.cols)
        ],
        "sizes_bytes": manifest.sizes.tolist(),
        **(
            {"popularity": manifest.popularity.tolist()}
            if manifest.popularity is not None
            else {}
        ),
    }


def save(manifest: VideoManifest, path: str) -> None:
    """Write the manifest as UTF-8 JSON (deterministic byte output)."""
    manifest.validate()
    with open(path, "w", encoding="utf-8") as f:
        json.dump(to_dict(manifest), f, indent=2)
        f.write("\n")


def _require(doc: dict, key: str, kind: type, name: str = "") -> object:
    """doc[key], which must be a `kind`: a float may be written as an int, and
    a bool is neither. Errors name the field as `name`, by default `key`."""
    name = name or key
    if key not in doc:
        raise ManifestError(f"{name}: missing")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ManifestError(f"{name}: expected {kind.__name__}, got {type(value).__name__}")
    try:
        return float(value) if kind is float else value
    except OverflowError:
        raise ManifestError(f"{name}: out of range") from None


def _array(doc: dict, key: str, kind: type) -> np.ndarray:
    """doc[key] as a rectangular array of `kind` values, checked as a whole:
    a bool, a string, a ragged row or an int beyond int64 is a ManifestError."""
    value = _require(doc, key, list)
    # numpy reads [0, true] as int64, so cell types are checked on an object
    # array (a ragged row leaves a list there); the typed array is built from
    # the lists, since casting the object array allocates cast buffers.
    cells = np.array(value, dtype=object).flat
    if not set(map(type, cells)) <= ({int} if kind is int else {int, float}):
        raise ManifestError(f"{key}: expected a rectangular array of {kind.__name__}s")
    try:
        return np.array(value, dtype=np.int64 if kind is int else np.float64)
    except OverflowError:
        raise ManifestError(f"{key}: value out of range") from None


def _from_dict(doc: dict) -> VideoManifest:
    grid_doc = _require(doc, "grid", dict)
    dims = {k: _require(grid_doc, k, int, f"grid.{k}") for k in ("cols", "rows")}
    for k, n in dims.items():
        if n < 1:
            raise ManifestError(f"grid.{k}: must be >= 1")
    m = VideoManifest(
        name=_require(doc, "name", str),
        duration=_require(doc, "duration", float),
        segment_length=_require(doc, "segment_length", float),
        grid=TileGrid(**dims),
        quality_count=_require(doc, "quality_count", int),
        bitrate_factors=tuple(_array(doc, "bitrate_factors", float).tolist()),
        base_bitrate_bps=_require(doc, "base_bitrate_bps", float),
        sizes=_array(doc, "sizes_bytes", int),
        popularity=_array(doc, "popularity", int) if "popularity" in doc else None,
    )
    m.validate()
    return m


def load(path: str) -> VideoManifest:
    """Read a manifest written by save(); load(save(m)) == m field-for-field.
    A malformed file raises a ManifestError naming the file and the field."""
    doc = read_json_object(path, ManifestError)
    try:
        return _from_dict(doc)
    except ManifestError as e:
        raise ManifestError(f"{path}: {e}") from None
