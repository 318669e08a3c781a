import tracemalloc

import numpy as np
import pytest

from helpers import average_quality_map, flat_index
from tilesim.geometry import FovSpec, Orientation, TileGrid
from tilesim.manifest import segment_bits, synthesize
from tilesim.popularity import (
    HeatMap,
    build_heat,
    default_budget_bps,
    quantize,
)
from tilesim.synthetic import constant_gaze, gaussian_gaze_population

NARROW = FovSpec(0.1, 0.1)


def heat_of(rows, segment_length=1.5, grid=None):
    rows = np.asarray(rows, dtype=float)
    grid = grid or TileGrid(4, 4)
    return HeatMap(grid=grid, segment_length=segment_length, heat=rows)


class TestBuildHeat:
    def test_single_narrow_trace_heats_one_tile(self, grid44):
        # tile (2, 2) center; 3 s video, two segments
        trace = constant_gaze(45.0, -22.5, duration=3.0, hz=10.0)
        heat = build_heat([trace], grid44, NARROW, 1.5, 3.0, samples_per_axis=8)
        assert heat.segment_count == 2
        flat = flat_index(grid44, 2, 2)
        for seg in range(2):
            row = heat.heat[seg]
            assert row[flat] > 0.0
            assert row.sum() == pytest.approx(row[flat], abs=1e-12)

    def test_two_opposed_traces_split_heat_evenly(self, grid44):
        left = constant_gaze(-135.0, -22.5, duration=3.0, hz=10.0)
        right = constant_gaze(135.0, -22.5, duration=3.0, hz=10.0)
        heat = build_heat([left, right], grid44, NARROW, 1.5, 3.0, 8)
        a = flat_index(grid44, 0, 2)
        b = flat_index(grid44, 3, 2)
        np.testing.assert_allclose(heat.heat[:, a], heat.heat[:, b], atol=1e-9)
        assert (heat.heat[:, a] > 0).all()

    def test_heat_mass_equals_sample_count(self, grid44):
        trace = constant_gaze(0.0, 0.0, duration=3.0, hz=10.0)
        heat = build_heat([trace], grid44, FovSpec(100, 100), 1.5, 3.0, 16)
        n_in = int(((trace.t >= 0.0) & (trace.t < 3.0)).sum())
        assert heat.heat.sum() == pytest.approx(n_in, abs=1e-9)

    def test_samples_past_duration_ignored(self, grid44):
        trace = constant_gaze(0.0, 0.0, duration=10.0, hz=10.0)
        heat = build_heat([trace], grid44, FovSpec(100, 100), 1.5, 3.0, 8)
        assert heat.segment_count == 2
        n_in = int((trace.t < 3.0).sum())
        assert heat.heat.sum() == pytest.approx(n_in, abs=1e-9)

    def test_population_concentrates_center(self, grid44):
        traces = gaussian_gaze_population(
            30, duration=3.0, hz=10.0, yaw_mean=0.0, yaw_std=30.0, seed=4
        )
        heat = build_heat(traces, grid44, FovSpec(100, 100), 1.5, 3.0, 8)
        per_tile = heat.heat.mean(axis=0).reshape(4, 4)
        hottest = np.unravel_index(per_tile.argmax(), per_tile.shape)
        assert hottest[1] in (1, 2)  # front columns
        assert hottest[0] in (1, 2)  # equatorial rows


    def test_peak_memory_does_not_grow_with_trace_length(self):
        """Memory follows the live objects, not the run length: on one
        600 s manifest, a 600 s 90 Hz trace peaks within 1 MB of a 60 s one,
        so no (samples x tiles) array spans a whole trace."""
        grid, fov = TileGrid(8, 4), FovSpec(100.0, 100.0)

        def peak(seconds):
            trace = constant_gaze(10.0, -5.0, seconds, hz=90.0)
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                build_heat([trace], grid, fov, 1.0, 600.0, 8)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert abs(peak(600.0) - peak(60.0)) <= 2**20


class TestQuantize:
    def test_uniform_heat_ample_budget_tops_everything(self, flat_manifest):
        heat = heat_of(np.ones((27, 16)))
        levels = quantize(heat, flat_manifest, budget_bps=1e12)
        assert levels.shape == (27, 16)
        assert (levels == 2).all()

    def test_hot_spot_staircase(self, flat_manifest):
        row = np.ones(16)
        row[:4] = 10.0
        heat = heat_of(np.tile(row, (27, 1)))
        # room for exactly the four hot tiles at top, everything else low:
        # 4 * 20e6 + 12 * 1.25e6 = 95e6
        levels = quantize(heat, flat_manifest, budget_bps=95e6)
        expected = np.zeros(16, dtype=int)
        expected[:4] = 2
        np.testing.assert_array_equal(levels, np.tile(expected, (27, 1)))

    def test_budget_below_floor_gives_all_lowest(self, flat_manifest):
        heat = heat_of(np.ones((27, 16)))
        levels = quantize(heat, flat_manifest, budget_bps=1e3)
        assert (levels == 0).all()

    def test_zero_heat_tiles_never_upgraded(self, flat_manifest):
        rows = np.zeros((27, 16))
        rows[:, 5] = 1.0
        heat = heat_of(rows)
        levels = quantize(heat, flat_manifest, budget_bps=1e12)
        expected = np.zeros(16, dtype=int)
        expected[5] = 2
        np.testing.assert_array_equal(levels, np.tile(expected, (27, 1)))

    def test_tie_break_prefers_lower_index(self, flat_manifest):
        row = np.ones(16)
        heat = heat_of(np.tile(row, (27, 1)))
        levels = quantize(heat, flat_manifest, budget_bps=95e6)
        expected = np.zeros(16, dtype=int)
        expected[:4] = 2
        np.testing.assert_array_equal(levels[0], expected)

    def test_walk_stops_at_first_stuck_tile(self, flat_manifest):
        # heat ranks tiles 0..15 descending; budget fits two tops plus a mid
        row = np.arange(16, 0, -1, dtype=float)
        b = (2 * 20e6 + 1.25e6 * 14) * 1.0
        levels = quantize(heat_of(np.tile(row, (27, 1))), flat_manifest, budget_bps=b)
        expected = np.zeros(16, dtype=int)
        expected[0] = 2
        expected[1] = 2
        np.testing.assert_array_equal(levels[0], expected)

    def test_budget_respected_exactly(self, flat_manifest):
        rng = np.random.default_rng(9)
        heat = heat_of(rng.uniform(0.0, 5.0, size=(27, 16)))
        # below the all-zero floor the floor itself is returned, so the cap
        # only binds from the floor upward
        floor = segment_bits(flat_manifest, 0, np.zeros(16, dtype=int))
        for budget in (5e6, 20e6, 60e6, 95e6, 200e6, 340e6):
            levels = quantize(heat, flat_manifest, budget_bps=budget)
            cap = budget * 1.5 * (1 + 1e-9)
            for seg in range(27):
                assert segment_bits(flat_manifest, seg, levels[seg]) <= max(cap, floor)

    def test_staircase_budgets_monotone(self, flat_manifest):
        rng = np.random.default_rng(10)
        heat = heat_of(rng.uniform(0.0, 5.0, size=(27, 16)))
        # canonical ladder: k tiles at top, rest at the floor
        budgets = [
            20e6 * k + 1.25e6 * (16 - k) for k in range(17)
        ]
        prev = quantize(heat, flat_manifest, budget_bps=budgets[0])
        for b in budgets[1:]:
            cur = quantize(heat, flat_manifest, budget_bps=b)
            assert (cur >= prev).all()
            prev = cur

    def test_default_budget(self, flat_manifest):
        assert default_budget_bps(flat_manifest) == 95e6

    def test_default_budget_used_when_omitted(self, flat_manifest):
        heat = heat_of(np.ones((27, 16)))
        np.testing.assert_array_equal(
            quantize(heat, flat_manifest),
            quantize(heat, flat_manifest, budget_bps=95e6),
        )

    def test_hotter_tiles_never_rank_below_colder(self, flat_manifest):
        rng = np.random.default_rng(11)
        row = rng.permutation(16).astype(float) + 1.0
        levels = quantize(heat_of(np.tile(row, (27, 1))), flat_manifest, 60e6)[0]
        order = np.argsort(-row)
        assigned = levels[order]
        assert (np.diff(assigned) <= 0).all()


class TestAverageQualityMap:
    def test_means(self):
        pop = np.array([[0, 2], [2, 2], [1, 2]])
        np.testing.assert_allclose(average_quality_map(pop), [1.0, 2.0])

    def test_population_ranking_survives_the_pipeline(self, flat_manifest):
        traces = gaussian_gaze_population(20, duration=40.0, hz=5.0, seed=2)
        heat = build_heat(traces, TileGrid(4, 4), FovSpec(100, 100), 1.5, 40.0, 8)
        pop = quantize(heat, flat_manifest, budget_bps=95e6)
        avg = average_quality_map(pop)
        hottest = heat.heat.sum(axis=0).argmax()
        assert avg[hottest] == avg.max()
