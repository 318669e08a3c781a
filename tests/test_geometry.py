import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    flat_index,
    score,
    tile_coords,
    tile_of_direction,
    visibility_map,
    visibility_oracle,
)
from tilesim.geometry import (
    FovSpec,
    Orientation,
    TileGrid,
    normalize_yaw,
    orthodromic_distance,
    tile_visibility,
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
        o = Orientation(190.0, 95.0)
        assert o.yaw == -170.0
        assert o.pitch == 90.0
        assert Orientation(-10.0, -95.0).pitch == -90.0

    def test_direction_unit_vectors(self):
        np.testing.assert_allclose(
            Orientation(0.0, 0.0).direction(), [1.0, 0.0, 0.0], atol=1e-12
        )
        np.testing.assert_allclose(
            Orientation(90.0, 0.0).direction(), [0.0, 1.0, 0.0], atol=1e-12
        )
        np.testing.assert_allclose(
            Orientation(0.0, 90.0).direction(), [0.0, 0.0, 1.0], atol=1e-12
        )

    @given(orientations)
    def test_direction_is_unit(self, o):
        assert math.isclose(float(np.linalg.norm(o.direction())), 1.0, abs_tol=1e-12)


class TestDistance:
    def test_known_angles(self):
        assert orthodromic_distance(Orientation(30, 10), Orientation(30, 10)) == 0.0
        assert math.isclose(
            orthodromic_distance(Orientation(0, 0), Orientation(90, 0)), 90.0
        )
        assert math.isclose(
            orthodromic_distance(Orientation(0, 90), Orientation(0, -90)), 180.0
        )
        assert math.isclose(
            orthodromic_distance(Orientation(-180, 0), Orientation(0, 0)), 180.0
        )

    def test_meridian_arc_equals_pitch_gap(self):
        a = Orientation(45.0, 10.0)
        b = Orientation(45.0, 60.0)
        assert math.isclose(orthodromic_distance(a, b), 50.0, abs_tol=1e-9)

    @given(orientations, orientations)
    def test_symmetry_and_bounds(self, a, b):
        d = orthodromic_distance(a, b)
        assert 0.0 <= d <= 180.0 + 1e-9
        assert math.isclose(d, orthodromic_distance(b, a), abs_tol=1e-9)

    @given(orientations, orientations, orientations)
    @settings(max_examples=50)
    def test_triangle_inequality(self, a, b, c):
        ab = orthodromic_distance(a, b)
        bc = orthodromic_distance(b, c)
        ac = orthodromic_distance(a, c)
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
        vm = visibility_map(
            Orientation(45.0, -22.5), FovSpec(0.1, 0.1), grid44, samples_per_axis=8
        )
        assert score(vm, 2, 2) == 1.0
        assert vm.scores.sum() == pytest.approx(1.0, abs=1e-12)
        assert vm.visible_tiles().tolist() == [flat_index(grid44, 2, 2)]

    def test_forward_gaze_exact_scores(self, grid44):
        vm = visibility_map(Orientation(0.0, 0.0), FovSpec(100.0, 100.0), grid44, 32)
        expected = np.array(
            [
                [0.0, 0.03125, 0.03125, 0.0],
                [0.0, 0.21875, 0.21875, 0.0],
                [0.0, 0.21875, 0.21875, 0.0],
                [0.0, 0.03125, 0.03125, 0.0],
            ]
        )
        np.testing.assert_array_equal(vm.scores, expected.ravel())

    def test_forward_gaze_symmetry(self, grid44):
        vm = visibility_map(Orientation(0.0, 0.0), FovSpec(100.0, 100.0), grid44, 24)
        for j in range(4):
            assert score(vm, 1, j) == score(vm, 2, j)
        for i in range(4):
            assert score(vm, i, 0) == score(vm, i, 3)
            assert score(vm, i, 1) == score(vm, i, 2)

    def test_antimeridian_gaze_splits_across_edge_columns(self, grid44):
        vm = visibility_map(Orientation(-180.0, 0.0), FovSpec(100.0, 100.0), grid44, 32)
        # the wrap seam sits mid-view: columns 0 and 3 share the weight
        assert score(vm, 0, 1) > 0.0
        assert score(vm, 3, 1) > 0.0
        assert score(vm, 1, 1) == 0.0
        assert score(vm, 2, 1) == 0.0

    def test_matches_dense_rotation_oracle(self, grid44):
        o = Orientation(33.0, -21.0)
        fov = FovSpec(100.0, 100.0)
        vm = visibility_map(o, fov, grid44, samples_per_axis=64)
        dense = visibility_oracle(o, fov, grid44, samples=1024)
        np.testing.assert_allclose(vm.scores, dense, atol=0.02)

    def test_visible_tiles_sorted_desc_ties_by_index(self, grid44):
        vm = visibility_map(Orientation(0.0, 0.0), FovSpec(100.0, 100.0), grid44, 32)
        tiles = vm.visible_tiles().tolist()
        scores = [vm.scores[t] for t in tiles]
        assert scores == sorted(scores, reverse=True)
        assert set(tiles) == {1, 2, 5, 6, 9, 10, 13, 14}
        # equal-score groups keep ascending flat order
        assert tiles[:4] == [5, 6, 9, 10]

    def test_rejects_zero_samples(self, grid44):
        with pytest.raises(ValueError, match="samples_per_axis"):
            tile_visibility((Orientation(0.0, 0.0),), FovSpec(), grid44, 0)

    @given(orientations, st.integers(2, 12))
    @settings(max_examples=30, deadline=None)
    def test_scores_form_distribution(self, o, samples):
        vm = visibility_map(o, FovSpec(100.0, 80.0), TileGrid(4, 4), samples)
        assert vm.scores.min() >= 0.0
        assert vm.scores.sum() == pytest.approx(1.0, abs=1e-9)
