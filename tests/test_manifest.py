import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilesim.geometry import TileGrid
from tilesim.manifest import (
    ManifestError,
    count_segments,
    default_bitrate_factors,
    file_count,
    load,
    naive_segment_bytes,
    save,
    segment_bits,
    segment_requests,
    synthesize,
    to_dict,
)


class TestCounting:
    def test_segment_counts(self):
        assert count_segments(40.0, 1.5) == 27
        assert count_segments(3.0, 1.5) == 2
        assert count_segments(3.2, 1.5) == 3
        assert count_segments(1.0, 1.0) == 1
        # float quotient guard: 3.0/0.1 is not exactly 30 in binary
        assert count_segments(3.0, 0.1) == 30

    def test_file_counts(self):
        assert file_count(4, 4, 3, 40.0, 1.5) == 1345
        assert file_count(1, 1, 1, 1.0, 1.0) == 3
        assert file_count(2, 2, 2, 10.0, 2.0) == 49

    def test_file_count_matches_enumeration(self):
        cols, rows, q, duration, s = 3, 2, 4, 7.0, 2.0
        segments = count_segments(duration, s)
        files = 1  # the manifest
        for _tile in range(cols * rows):
            for _level in range(q):
                files += 1 + segments  # init segment plus media segments
        assert file_count(cols, rows, q, duration, s) == files

    def test_default_factors(self):
        assert default_bitrate_factors(3) == (0.0625, 0.25, 1.0)
        assert default_bitrate_factors(1) == (1.0,)
        with pytest.raises(ValueError):
            default_bitrate_factors(0)


class TestSynthesize:
    def test_flat_sizes_exact(self, flat_manifest):
        m = flat_manifest
        assert m.segment_count == 27
        assert m.sizes.shape == (27, 16, 3)
        assert (m.sizes[:, :, 0] == 234375).all()
        assert (m.sizes[:, :, 1] == 937500).all()
        assert (m.sizes[:, :, 2] == 3750000).all()

    def test_same_seed_reproduces(self):
        kw = dict(
            duration=6.0,
            segment_length=1.5,
            grid=TileGrid(4, 4),
            variability=0.3,
            seed=7,
        )
        a = synthesize("a", **kw)
        b = synthesize("b", **kw)
        np.testing.assert_array_equal(a.sizes, b.sizes)
        c = synthesize("c", **{**kw, "seed": 8})
        assert (a.sizes != c.sizes).any()

    def test_jitter_shared_across_levels(self):
        m = synthesize(
            "jitter",
            duration=3.0,
            segment_length=1.5,
            grid=TileGrid(2, 2),
            variability=0.4,
            seed=3,
        )
        ratio = m.sizes[:, :, 2] / m.sizes[:, :, 0]
        # same draw scales every level, so the ladder ratio stays ~16
        np.testing.assert_allclose(ratio, 16.0, rtol=1e-4)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_high_variability_still_validates(self, seed):
        m = synthesize(
            "v",
            duration=9.0,
            segment_length=1.5,
            grid=TileGrid(4, 4),
            variability=0.9,
            seed=seed,
        )
        m.validate()

    def test_variability_bounds(self):
        with pytest.raises(ValueError):
            synthesize("x", 3.0, 1.5, TileGrid(2, 2), variability=1.0)

    def test_factor_count_mismatch(self):
        with pytest.raises(ValueError):
            synthesize(
                "x", 3.0, 1.5, TileGrid(2, 2), quality_count=3,
                bitrate_factors=(0.5, 1.0),
            )


class TestAccounting:
    def test_segment_bits(self, flat_manifest):
        m = flat_manifest
        all_low = np.zeros(16, dtype=int)
        all_top = np.full(16, 2)
        assert segment_bits(m, 0, all_low) == 16 * 234375 * 8
        assert segment_bits(m, 0, all_top) == 16 * 3750000 * 8
        mixed = np.zeros(16, dtype=int)
        mixed[:4] = 2
        assert segment_bits(m, 5, mixed) == (4 * 3750000 + 12 * 234375) * 8

    def test_naive_segment_bytes(self, flat_manifest):
        assert naive_segment_bytes(flat_manifest, 0) == 16 * 3750000

    def test_segment_requests(self, flat_manifest):
        levels = np.zeros(16, dtype=int)
        levels[3] = 2
        reqs = segment_requests(flat_manifest, 7, levels)
        assert len(reqs) == 16
        assert reqs[3] == (("flat", 7, 3, 2), 3750000)
        assert reqs[0] == (("flat", 7, 0, 0), 234375)
        assert [k[2] for k, _ in reqs] == list(range(16))


class TestPersistence:
    def test_round_trip(self, tmp_path):
        m = synthesize(
            "rt", duration=4.5, segment_length=1.5, grid=TileGrid(3, 2),
            variability=0.2, seed=11,
        )
        m.popularity = np.ones((3, 6), dtype=np.int64)
        path = tmp_path / "m.json"
        save(m, str(path))
        got = load(str(path))
        assert got.name == m.name
        assert got.duration == m.duration
        assert got.segment_length == m.segment_length
        assert got.grid == m.grid
        assert got.quality_count == m.quality_count
        assert got.bitrate_factors == m.bitrate_factors
        assert got.base_bitrate_bps == m.base_bitrate_bps
        np.testing.assert_array_equal(got.sizes, m.sizes)
        np.testing.assert_array_equal(got.popularity, m.popularity)

    def test_save_is_deterministic(self, tmp_path):
        m = synthesize("det", 3.0, 1.5, TileGrid(2, 2), seed=5)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save(m, str(p1))
        save(m, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_srd_describes_every_tile(self):
        m = synthesize("srd", 3.0, 1.5, TileGrid(3, 2))
        doc = to_dict(m)
        assert len(doc["srd"]) == 6
        assert doc["srd"][0] == {"x": 0, "y": 0, "w": 1, "h": 1, "total_w": 3, "total_h": 2}
        assert doc["srd"][-1] == {"x": 2, "y": 1, "w": 1, "h": 1, "total_w": 3, "total_h": 2}

    def test_minimal_handwritten_manifest(self, tmp_path):
        doc = {
            "name": "mini",
            "duration": 3.2,
            "segment_length": 1.5,
            "grid": {"cols": 1, "rows": 1},
            "quality_count": 2,
            "bitrate_factors": [0.25, 1.0],
            "base_bitrate_bps": 1e6,
            "sizes_bytes": [[[100, 400]], [[100, 400]], [[100, 400]]],
        }
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(doc))
        m = load(str(path))
        assert m.segment_count == 3
        assert not m.has_popularity

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda d: d.pop("name"), "name"),
            (lambda d: d.pop("sizes_bytes"), "sizes_bytes"),
            (lambda d: d["sizes_bytes"][0][0].__setitem__(0, 0), "sizes_bytes"),
            (lambda d: d["sizes_bytes"][0][0].__setitem__(1, 50), "sizes_bytes"),
            (lambda d: d.__setitem__("popularity", [[5], [0], [0]]), "popularity"),
            (lambda d: d.__setitem__("duration", -1.0), "duration"),
            pytest.param(lambda d: d["grid"].__setitem__("cols", "x"), "grid.cols", id="cols-str"),
            pytest.param(lambda d: d["grid"].__setitem__("cols", None),
                         "grid.cols", id="cols-null"),
            pytest.param(lambda d: d["grid"].__setitem__("cols", 0), "grid.cols", id="cols-0"),
            pytest.param(lambda d: d["grid"].__setitem__("cols", 2.7), "grid.cols", id="cols-2.7"),
            pytest.param(lambda d: d["grid"].__setitem__("cols", "2"), "grid.cols", id='cols-"2"'),
            pytest.param(lambda d: d.__setitem__("bitrate_factors", ["a", 1]),
                         "bitrate_factors", id="factors-str"),
            pytest.param(lambda d: d.__setitem__("bitrate_factors", [-1, 1]),
                         "bitrate_factors", id="factors-negative"),
            pytest.param(lambda d: d.__setitem__("bitrate_factors", [0.5, math.nan]),
                         "bitrate_factors", id="factors-nan"),
            pytest.param(lambda d: d.__setitem__("duration", math.nan),
                         "duration", id="duration-nan"),
            pytest.param(lambda d: d.__setitem__("duration", 10**400),
                         "duration", id="duration-10**400"),
            pytest.param(lambda d: d.__setitem__("segment_length", 5e-324),
                         "segment_length", id="segment-count-overflow"),
            pytest.param(lambda d: d.__setitem__("base_bitrate_bps", math.nan),
                         "base_bitrate_bps", id="bitrate-nan"),
            pytest.param(lambda d: d["sizes_bytes"][0][0].__setitem__(1, 2**70),
                         "sizes_bytes", id="size-2**70"),
            pytest.param(lambda d: d["sizes_bytes"][0][0].__setitem__(0, 1.5),
                         "sizes_bytes", id="size-1.5"),
            pytest.param(lambda d: d.__setitem__("popularity", [[0.9], [0], [0]]),
                         "popularity", id="popularity-0.9"),
            pytest.param(lambda d: d.__setitem__("popularity", [[True], [0], [0]]),
                         "popularity", id="popularity-true"),
        ],
    )
    def test_malformed_files_name_the_field(self, tmp_path, mutate, field):
        doc = {
            "name": "mini",
            "duration": 3.2,
            "segment_length": 1.5,
            "grid": {"cols": 1, "rows": 1},
            "quality_count": 2,
            "bitrate_factors": [0.25, 1.0],
            "base_bitrate_bps": 1e6,
            "sizes_bytes": [[[100, 400]], [[100, 400]], [[100, 400]]],
        }
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match=f"^{re.escape(str(path))}: .*{field}"):
            load(str(path))

    def test_not_json(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("{]")
        with pytest.raises(ManifestError):
            load(str(path))


SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "manifest.schema.json").read_text()
)
# The schema documents `srd` as informational: load() derives the layout from
# `grid` and ignores it.
IGNORED = {"srd"}
DELETE = object()  # stands for "leave the property out"


def typed_nodes(spec, path=(), field="", required=False):
    """(path into a document, field name, schema, required) of every node
    below `spec`. Array items sit at index 0 and keep the array's name."""
    if path:
        yield path, field, spec, required
    for key, sub in spec.get("properties", {}).items():
        if key not in IGNORED:
            name = f"{field}.{key}" if field else key
            yield from typed_nodes(sub, (*path, key), name, key in spec.get("required", ()))
    if "items" in spec:
        yield from typed_nodes(spec["items"], (*path, 0), field)


def violations(spec, required):
    """Values the node's schema rejects: another JSON type, NaN for a number,
    a fraction for an integer, one below `minimum`, the `exclusiveMinimum`
    itself, and no value at all for a required property."""
    kind = spec["type"]
    out = [1 if kind == "string" else "x"]
    if kind in ("number", "integer"):
        out.append(math.nan)
    if kind == "integer":
        out.append(1.5)
    if "minimum" in spec:
        out.append(spec["minimum"] - 1)
    if "exclusiveMinimum" in spec:
        out.append(spec["exclusiveMinimum"])
    return out + [DELETE] * required


SCHEMA_VIOLATIONS = [
    pytest.param(path, field, bad, id=f"{'/'.join(map(str, path))}="
                 + ("missing" if bad is DELETE else repr(bad)))
    for path, field, spec, required in typed_nodes(SCHEMA)
    for bad in violations(spec, required)
]


def test_schema_walk_reaches_nested_fields():
    fields = {field for _, field, _ in (p.values for p in SCHEMA_VIOLATIONS)}
    assert {"grid.cols", "grid.rows", "bitrate_factors", "sizes_bytes", "popularity"} <= fields
    assert set(SCHEMA["properties"]) - IGNORED <= fields


@pytest.mark.parametrize("path, field, bad", SCHEMA_VIOLATIONS)
def test_load_rejects_every_schema_violation_naming_the_field(tmp_path, path, field, bad):
    """The loader accepts no value that docs/manifest.schema.json rejects."""
    doc = {
        "name": "mini",
        "duration": 3.2,
        "segment_length": 1.5,
        "grid": {"cols": 1, "rows": 1},
        "quality_count": 2,
        "bitrate_factors": [0.25, 1.0],
        "base_bitrate_bps": 1e6,
        "sizes_bytes": [[[100, 400]], [[100, 400]], [[100, 400]]],
        "popularity": [[0], [1], [0]],
    }
    file = tmp_path / "m.json"
    file.write_text(json.dumps(doc))
    load(str(file))  # the base document is valid
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if bad is DELETE:
        del node[last]
    else:
        node[last] = bad
    file.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match=f"^{re.escape(str(file))}: {field}: "):
        load(str(file))


@given(
    duration=st.floats(0.5, 120.0, allow_nan=False),
    seg=st.floats(0.2, 10.0, allow_nan=False),
)
@settings(max_examples=60)
def test_segment_count_covers_duration(duration, seg):
    n = count_segments(duration, seg)
    assert n >= 1
    assert n * seg >= duration - 1e-6
    assert (n - 1) * seg < duration + 1e-6
