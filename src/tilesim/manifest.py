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


class ManifestError(ValueError):
    """Raised when a manifest file is malformed; the message names the field."""


def count_segments(duration: float, segment_length: float) -> int:
    q = duration / segment_length
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

    @property
    def has_popularity(self) -> bool:
        return self.popularity is not None

    def validate(self) -> None:
        if self.duration <= 0 or self.segment_length <= 0:
            raise ManifestError("duration/segment_length: must be positive")
        if self.quality_count < 1:
            raise ManifestError("quality_count: must be >= 1")
        if len(self.bitrate_factors) != self.quality_count:
            raise ManifestError(
                "bitrate_factors: expected one factor per quality level"
            )
        if any(
            b <= a for a, b in zip(self.bitrate_factors, self.bitrate_factors[1:])
        ):
            raise ManifestError("bitrate_factors: must be strictly increasing")
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
    bitrate_factors: tuple[float, ...] | None = None,
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
    factors = bitrate_factors or default_bitrate_factors(quality_count)
    if len(factors) != quality_count:
        raise ValueError("need exactly one bitrate factor per quality level")
    segments = count_segments(duration, segment_length)
    tiles = grid.tile_count
    rng = np.random.default_rng(seed)
    u = rng.uniform(1.0 - variability, 1.0 + variability, size=(segments, tiles))
    per_level = [
        base_bitrate_bps * f * segment_length / 8.0 * u for f in factors
    ]
    sizes = np.rint(np.stack(per_level, axis=2)).astype(np.int64)
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
) -> list[tuple[tuple[str, int, int, int], int]]:
    """(cache key, size) pairs for one segment, tile-index ascending.

    The key identifies (video, segment, tile, level); it is what the cache
    simulator stores.
    """
    levels = np.asarray(assignment, dtype=np.int64)
    sizes = manifest.sizes[segment, np.arange(manifest.grid.tile_count), levels]
    name = manifest.name
    return [
        ((name, segment, tile, level), size)
        for tile, (level, size) in enumerate(zip(levels.tolist(), sizes.tolist()))
    ]


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


def _require(doc: dict, key: str, kind: type | tuple) -> object:
    if key not in doc:
        raise ManifestError(f"{key}: missing")
    value = doc[key]
    if not isinstance(value, kind):
        raise ManifestError(f"{key}: expected {kind}, got {type(value).__name__}")
    return value


def load(path: str) -> VideoManifest:
    """Read a manifest written by save(); load(save(m)) == m field-for-field."""
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise ManifestError(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ManifestError("document: expected a JSON object")
    grid_doc = _require(doc, "grid", dict)
    if "cols" not in grid_doc or "rows" not in grid_doc:
        raise ManifestError("grid: needs cols and rows")
    grid = TileGrid(cols=int(grid_doc["cols"]), rows=int(grid_doc["rows"]))
    try:
        sizes = np.array(_require(doc, "sizes_bytes", list), dtype=np.int64)
    except (ValueError, TypeError) as e:
        raise ManifestError(f"sizes_bytes: not a rectangular int array ({e})") from e
    if sizes.ndim != 3:
        raise ManifestError(f"sizes_bytes: expected 3 dimensions, got {sizes.ndim}")
    popularity = None
    if "popularity" in doc:
        try:
            popularity = np.array(doc["popularity"], dtype=np.int64)
        except (ValueError, TypeError) as e:
            raise ManifestError(f"popularity: not a rectangular int array ({e})") from e
    m = VideoManifest(
        name=str(_require(doc, "name", str)),
        duration=float(_require(doc, "duration", (int, float))),
        segment_length=float(_require(doc, "segment_length", (int, float))),
        grid=grid,
        quality_count=int(_require(doc, "quality_count", int)),
        bitrate_factors=tuple(
            float(f) for f in _require(doc, "bitrate_factors", list)
        ),
        base_bitrate_bps=float(_require(doc, "base_bitrate_bps", (int, float))),
        sizes=sizes,
        popularity=popularity,
    )
    m.validate()
    return m
