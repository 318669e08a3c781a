import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    Orientation,
    flat_index,
    pose_distance,
    pose_trace,
    score,
    tile_coords,
    tile_of_direction,
    visibility_map,
    visibility_oracle,
)
from tilesim.geometry import (
    FILTER_BOUND,
    Z_CAP,
    FovSpec,
    TileGrid,
    ViewingTrace,
    camera_frames,
    normalize_yaw,
    rank_tiles,
    tile_visibility,
    wrap_pose,
    _angles32,
    _fov_offsets,
)

yaws = st.floats(-720.0, 720.0, allow_nan=False)
pitches = st.floats(-90.0, 90.0, allow_nan=False)
orientations = st.builds(Orientation, yaws, pitches)


class TestNormalizeYaw:
    def test_half_open_range(self):
        assert normalize_yaw(180.0) == -180.0
        assert normalize_yaw(-180.0) == -180.0
        assert normalize_yaw(540.0) == -180.0
        assert normalize_yaw(0.0) == 0.0
        assert normalize_yaw(359.0) == -1.0
        # yaw + 180 is -2.8e-14 here, and its first % 360 rounds to 360.0.
        assert normalize_yaw(-180.00000000000003) == -180.0

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_idempotent(self, y):
        w = normalize_yaw(y)
        assert normalize_yaw(w) == w and -180.0 <= w < 180.0

    @given(yaws)
    def test_range_and_periodicity(self, y):
        w = normalize_yaw(y)
        assert -180.0 <= w < 180.0
        assert math.isclose(
            math.cos(math.radians(w)), math.cos(math.radians(y)), abs_tol=1e-9
        )
        assert math.isclose(
            math.sin(math.radians(w)), math.sin(math.radians(y)), abs_tol=1e-9
        )


class TestOrientation:
    def test_wraps_yaw_and_clamps_pitch(self):
        yaw, pitch = wrap_pose(190.0, 95.0)
        assert yaw == -170.0
        assert pitch == 90.0
        assert wrap_pose(-10.0, -95.0)[1] == -90.0

    def test_direction_unit_vectors(self):
        """The camera frame's forward vector is the view direction."""
        forward = camera_frames(
            pose_trace([Orientation(0.0, 0.0), Orientation(90.0, 0.0), Orientation(0.0, 90.0)])
        )[:, 0]
        np.testing.assert_allclose(forward[0], [1.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(forward[1], [0.0, 1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(forward[2], [0.0, 0.0, 1.0], atol=1e-12)

    @given(orientations)
    def test_direction_is_unit(self, o):
        forward = camera_frames(pose_trace([o]))[0, 0]
        assert math.isclose(float(np.linalg.norm(forward)), 1.0, abs_tol=1e-12)


class TestViewingTrace:
    def test_compares_and_hashes_by_identity(self):
        """Arrays have no truth value and no hash, so a trace of two or more
        samples could be neither compared by value nor hashed."""
        a = ViewingTrace([0.0, 1.0], [10.0, 20.0], [0.0, 5.0])
        copy_of_a = ViewingTrace(a.t, a.yaw, a.pitch)
        assert a == a
        assert a != copy_of_a
        assert hash(a) == hash(a)
        assert len({a, copy_of_a, a}) == 2


class TestDistance:
    def test_known_angles(self):
        assert pose_distance(Orientation(30, 10), Orientation(30, 10)) == 0.0
        assert math.isclose(
            pose_distance(Orientation(0, 0), Orientation(90, 0)), 90.0
        )
        assert math.isclose(
            pose_distance(Orientation(0, 90), Orientation(0, -90)), 180.0
        )
        assert math.isclose(
            pose_distance(Orientation(-180, 0), Orientation(0, 0)), 180.0
        )

    def test_meridian_arc_equals_pitch_gap(self):
        a = Orientation(45.0, 10.0)
        b = Orientation(45.0, 60.0)
        assert math.isclose(pose_distance(a, b), 50.0, abs_tol=1e-9)

    @given(orientations, orientations)
    def test_symmetry_and_bounds(self, a, b):
        d = pose_distance(a, b)
        assert 0.0 <= d <= 180.0 + 1e-9
        assert math.isclose(d, pose_distance(b, a), abs_tol=1e-9)

    @given(orientations, orientations, orientations)
    @settings(max_examples=50)
    def test_triangle_inequality(self, a, b, c):
        ab = pose_distance(a, b)
        bc = pose_distance(b, c)
        ac = pose_distance(a, c)
        assert ac <= ab + bc + 1e-9


class TestTileGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            TileGrid(0, 4)
        with pytest.raises(ValueError):
            TileGrid(4, -1)

    def test_flat_index_round_trip(self, grid44):
        for j in range(4):
            for i in range(4):
                assert tile_coords(grid44, flat_index(grid44, i, j)) == (i, j)

    def test_corner_and_center_tiles(self, grid44):
        assert tile_of_direction(Orientation(-180.0, 90.0), grid44) == (0, 0)
        assert tile_of_direction(Orientation(0.0, 0.0), grid44) == (2, 2)
        assert tile_of_direction(Orientation(179.9, -89.9), grid44) == (3, 3)

    def test_south_pole_clamps_into_last_row(self, grid44):
        assert tile_of_direction(Orientation(0.0, -90.0), grid44) == (2, 3)

    @given(orientations)
    def test_tile_in_bounds(self, o):
        grid = TileGrid(5, 3)
        i, j = tile_of_direction(o, grid)
        assert 0 <= i < 5
        assert 0 <= j < 3


class TestVisibility:
    def test_fov_validation(self):
        with pytest.raises(ValueError):
            FovSpec(0.0, 100.0)
        with pytest.raises(ValueError):
            FovSpec(100.0, 361.0)

    def test_narrow_fov_hits_single_tile(self, grid44):
        # center of tile (2, 2): yaw in [0, 90), pitch in (-45, 0]
        scores = visibility_map(
            Orientation(45.0, -22.5), FovSpec(0.1, 0.1), grid44, samples_per_axis=8
        )
        assert score(scores, grid44, 2, 2) == 64
        assert scores.sum() == 64
        assert rank_tiles(scores).tolist() == [flat_index(grid44, 2, 2)]

    def test_forward_gaze_exact_scores(self, grid44):
        scores = visibility_map(Orientation(0.0, 0.0), FovSpec(100.0, 100.0), grid44, 32)
        expected = np.array(
            [
                [0, 32, 32, 0],
                [0, 224, 224, 0],
                [0, 224, 224, 0],
                [0, 32, 32, 0],
            ]
        )
        assert scores.dtype == np.int64
        np.testing.assert_array_equal(scores, expected.ravel())

    def test_forward_gaze_symmetry(self, grid44):
        scores = visibility_map(Orientation(0.0, 0.0), FovSpec(100.0, 100.0), grid44, 24)
        for j in range(4):
            assert score(scores, grid44, 1, j) == score(scores, grid44, 2, j)
        for i in range(4):
            assert score(scores, grid44, i, 0) == score(scores, grid44, i, 3)
            assert score(scores, grid44, i, 1) == score(scores, grid44, i, 2)

    def test_antimeridian_gaze_splits_across_edge_columns(self, grid44):
        scores = visibility_map(Orientation(-180.0, 0.0), FovSpec(100.0, 100.0), grid44, 32)
        # the wrap seam sits mid-view: columns 0 and 3 share the weight
        assert score(scores, grid44, 0, 1) > 0.0
        assert score(scores, grid44, 3, 1) > 0.0
        assert score(scores, grid44, 1, 1) == 0.0
        assert score(scores, grid44, 2, 1) == 0.0

    def test_matches_dense_rotation_oracle(self, grid44):
        o = Orientation(33.0, -21.0)
        fov = FovSpec(100.0, 100.0)
        scores = visibility_map(o, fov, grid44, samples_per_axis=64)
        dense = visibility_oracle(o, fov, grid44, samples=1024)
        np.testing.assert_allclose(scores / 64**2, dense / 1024**2, atol=0.02)

    def test_visible_tiles_sorted_desc_ties_by_index(self, grid44):
        scores = visibility_map(Orientation(0.0, 0.0), FovSpec(100.0, 100.0), grid44, 32)
        tiles = rank_tiles(scores).tolist()
        ranked = [scores[t] for t in tiles]
        assert ranked == sorted(ranked, reverse=True)
        assert set(tiles) == {1, 2, 5, 6, 9, 10, 13, 14}
        # equal-score groups keep ascending flat order
        assert tiles[:4] == [5, 6, 9, 10]

    @pytest.mark.parametrize(
        "o, grid, tile",
        [
            (Orientation(0.0, 0.0), TileGrid(8, 4), (4, 2)),
            (Orientation(45.0, -22.5), TileGrid(4, 4), (2, 2)),
            (Orientation(-100.0, 60.0), TileGrid(4, 4), (0, 0)),
        ],
    )
    def test_one_sample_per_axis_scores_the_faced_tile(self, o, grid, tile):
        """The one FoV sample is the pose's own direction, not a corner."""
        for scores in (visibility_map(o, FovSpec(), grid, 1),
                       visibility_oracle(o, FovSpec(), grid, 1)):
            assert score(scores, grid, *tile) == 1.0
            assert rank_tiles(scores).tolist() == [flat_index(grid, *tile)]

    def test_rejects_zero_samples(self, grid44):
        with pytest.raises(ValueError, match="samples_per_axis"):
            tile_visibility(pose_trace([Orientation(0.0, 0.0)]), FovSpec(), grid44, 0)

    @given(orientations, st.integers(2, 12))
    @settings(max_examples=30, deadline=None)
    def test_scores_form_distribution(self, o, samples):
        scores = visibility_map(o, FovSpec(100.0, 80.0), TileGrid(4, 4), samples)
        assert np.issubdtype(scores.dtype, np.integer)
        assert scores.min() >= 0
        assert scores.sum() == samples**2


def test_float32_pass_angles_stay_within_a_hundredth_of_the_filter_bound():
    """On over a million random (pose, FoV sample) pairs with |z| < Z_CAP,
    the float32 pass's yaw and pitch stay within FILTER_BOUND / 100 radians
    of the float64 chain's: f*o0 + r*o1 + u*o2 in float64, turned back into
    angles. The kernel's certificate assumes 5e-6 radians."""
    rng = np.random.default_rng(30)
    checked, worst = 0, 0.0
    for fov in (FovSpec(), FovSpec(360.0, 180.0), FovSpec(60.0, 30.0), FovSpec(5.0, 5.0)):
        count = 300
        yaw = rng.uniform(-180.0, 180.0, count)
        pitch = np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, count)))  # uniform on the sphere
        frames = camera_frames(ViewingTrace.from_angles(np.zeros(count), yaw, pitch))
        offsets, offsets32 = _fov_offsets(fov, 32)
        shape = (count, offsets.shape[1])
        angles, _ = _angles32(
            frames.astype(np.float32), offsets32,
            np.empty((3, *shape), np.float32), np.empty((2, *shape), np.float32),
        )
        x, y, z = (
            frames[:, 0, c, None] * offsets[0]
            + frames[:, 1, c, None] * offsets[1]
            + frames[:, 2, c, None] * offsets[2]
            for c in range(3)
        )
        near = np.abs(z) < Z_CAP
        yaw_error = np.abs((angles[0] - np.arctan2(y, x) + np.pi) % (2.0 * np.pi) - np.pi)
        pitch_error = np.abs(angles[1] - np.arcsin(np.clip(z, -1.0, 1.0)))
        worst = max(worst, yaw_error[near].max(), pitch_error[near].max())
        checked += int(near.sum())
    assert checked >= 1_000_000
    assert worst <= FILTER_BOUND / 100, worst
