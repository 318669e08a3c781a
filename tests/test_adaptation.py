import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import Orientation, visibility_map
from tilesim.adaptation import (
    PolicyKind,
    select_naive,
    select_popularity,
    select_prediction,
    select_prediction_ba,
    transition_step,
)
from tilesim.geometry import FovSpec, rank_tiles
from tilesim.manifest import segment_bits

WIDE = FovSpec(100.0, 100.0)
QUAD = FovSpec(89.0, 89.0)  # exactly four visible tiles on a 4x4 grid


class TestNaive:
    def test_all_top(self, flat_manifest):
        levels = select_naive(flat_manifest, 0)
        assert (levels == 2).all()
        assert segment_bits(flat_manifest, 0, levels) == 16 * 3750000 * 8

    def test_policy_labels(self):
        assert PolicyKind("naive") is PolicyKind.NAIVE
        assert PolicyKind("prediction-ba") is PolicyKind.PREDICTION_BA


class TestPrediction:
    def test_unconstrained_tops_visible_only(self, flat_manifest, grid44):
        order = rank_tiles(visibility_map(Orientation(0, 0), WIDE, grid44, 32))
        for budget in (None, 1e15):
            levels = select_prediction(flat_manifest, 0, order, budget)
            visible = set(order)
            for t in range(16):
                assert levels[t] == (2 if t in visible else 0)

    def test_starved_budget_all_lowest(self, flat_manifest, grid44):
        order = rank_tiles(visibility_map(Orientation(0, 0), WIDE, grid44, 32))
        levels = select_prediction(flat_manifest, 0, order, 1e3)
        assert (levels == 0).all()

    def test_exact_two_tile_budget(self, flat_manifest, grid44):
        order = rank_tiles(visibility_map(Orientation(0, 0), QUAD, grid44, 32))
        assert len(order) == 4
        # room for two top tiles over the all-lowest floor
        levels = select_prediction(flat_manifest, 0, order, 57.5e6)
        expected = np.zeros(16, dtype=int)
        expected[5] = 2
        expected[6] = 2
        np.testing.assert_array_equal(levels, expected)

    def test_ceiling_never_rises_along_the_walk(self, flat_manifest, grid44):
        order = rank_tiles(visibility_map(Orientation(0, 0), QUAD, grid44, 32))
        # 105e6 bits: two tops fit, the third and fourth tiles fit at level 1;
        # the walk downgrades and continues instead of stopping outright
        levels = select_prediction(flat_manifest, 0, order, 70e6)
        np.testing.assert_array_equal(levels[[5, 6, 9, 10]], [2, 2, 1, 1])
        assert levels.sum() == 6

    @given(
        yaw=st.floats(-180.0, 179.0),
        pitch=st.floats(-90.0, 90.0),
        budget=st.floats(1e4, 1e9),
    )
    @settings(max_examples=40, deadline=None)
    def test_budget_respected_and_rank_monotone(self, flat_manifest, yaw, pitch, budget):
        scores = visibility_map(Orientation(yaw, pitch), WIDE, flat_manifest.grid, 8)
        levels = select_prediction(flat_manifest, 0, rank_tiles(scores), budget)
        cap = budget * 1.5 * (1 + 1e-9)
        # the all-zero assignment is the floor; caps below it cannot bind
        floor = segment_bits(flat_manifest, 0, np.zeros(16, dtype=int))
        assert segment_bits(flat_manifest, 0, levels) <= max(cap, floor)
        for a in range(16):
            for b in range(16):
                if scores[a] > scores[b]:
                    assert levels[a] >= levels[b]


class TestPopularity:
    def test_returns_stored_levels_verbatim(self, flat_manifest):
        m = flat_manifest
        pop = np.tile(np.arange(16) % 3, (27, 1))
        try:
            m.popularity = pop
            np.testing.assert_array_equal(select_popularity(m, 4), pop[4])
            got = select_popularity(m, 4)
            got[0] = 999  # caller-side mutation must not leak back
            assert m.popularity[4, 0] == 0
        finally:
            m.popularity = None

    def test_orientation_has_no_effect(self, flat_manifest):
        m = flat_manifest
        try:
            m.popularity = np.ones((27, 16), dtype=np.int64)
            a = select_popularity(m, 3)
            b = select_popularity(m, 3)
            np.testing.assert_array_equal(a, b)
            assert (a == 1).all()
        finally:
            m.popularity = None

    def test_missing_popularity_raises(self, flat_manifest):
        with pytest.raises(ValueError, match="popularity"):
            select_popularity(flat_manifest, 0)


class TestPredictionBa:
    def test_ample_budget_matches_unconstrained_prediction(self, flat_manifest, grid44):
        order = rank_tiles(visibility_map(Orientation(20, 10), WIDE, grid44, 16))
        np.testing.assert_array_equal(
            select_prediction_ba(flat_manifest, 0, order, 1e15),
            select_prediction(flat_manifest, 0, order, None),
        )

    def test_mid_budget_downshifts_uniformly(self, flat_manifest, grid44):
        order = rank_tiles(visibility_map(Orientation(0, 0), QUAD, grid44, 32))
        # delta=0 needs 142.5e6 bits, delta=1 needs 52.5e6; 100e6 sits between
        levels = select_prediction_ba(flat_manifest, 0, order, 100e6 / 1.5)
        visible = set(order)
        for t in range(16):
            assert levels[t] == (1 if t in visible else 0)

    def test_floor_is_all_zero_even_over_budget(self, flat_manifest, grid44):
        order = rank_tiles(visibility_map(Orientation(0, 0), QUAD, grid44, 32))
        levels = select_prediction_ba(flat_manifest, 0, order, 1.0)
        assert (levels == 0).all()

    def test_shift_candidates_enumerated(self, flat_manifest, grid44):
        order = rank_tiles(visibility_map(Orientation(0, 0), QUAD, grid44, 32))
        base = select_prediction(flat_manifest, 0, order, None)
        for delta, budget_bits in ((0, 142.5e6), (1, 52.5e6), (2, 30e6)):
            levels = select_prediction_ba(flat_manifest, 0, order, budget_bits / 1.5)
            np.testing.assert_array_equal(levels, np.maximum(base - delta, 0))


class TestTransition:
    def test_drop_below_threshold_switches_to_popularity(self):
        out = transition_step(PolicyKind.PREDICTION, 5e6, required_bps=6e6, hysteresis=1.0)
        assert out is PolicyKind.POPULARITY

    def test_boundary_estimate_stays_prediction(self):
        out = transition_step(PolicyKind.PREDICTION, 6e6, required_bps=6e6, hysteresis=1.0)
        assert out is PolicyKind.PREDICTION

    def test_no_estimate_means_prediction(self):
        assert transition_step(PolicyKind.POPULARITY, None, 6e6, 1.0) is PolicyKind.PREDICTION

    def test_recovery_requires_hysteresis_margin(self):
        assert transition_step(PolicyKind.POPULARITY, 6.6e6, 6e6, 1.2) is PolicyKind.POPULARITY
        assert transition_step(PolicyKind.POPULARITY, 7.2e6, 6e6, 1.2) is PolicyKind.PREDICTION

    def test_oscillation_matches_two_threshold_oracle(self):
        a = 10e6
        h = 1.2
        pattern = [1.1, 0.95, 1.1, 0.95, 1.1, 1.3, 1.1, 0.9, 1.25]
        active = PolicyKind.PREDICTION
        got = []
        for f in pattern:
            active = transition_step(active, f * a, a, h)
            got.append(active)

        oracle_active = PolicyKind.PREDICTION
        expected = []
        for f in pattern:
            if f * a < a:
                oracle_active = PolicyKind.POPULARITY
            elif f * a >= h * a:
                oracle_active = PolicyKind.PREDICTION
            expected.append(oracle_active)
        assert got == expected
        # the 1.1A readings inside the band never cause a switch
        switches = sum(1 for p, n in zip(expected, expected[1:]) if p is not n)
        assert switches == 4

    def test_threshold_recomputed_every_step(self):
        first = transition_step(PolicyKind.PREDICTION, 5e6, 4e6, 1.0)
        assert first is PolicyKind.PREDICTION
        assert transition_step(first, 5e6, 7e6, 1.0) is PolicyKind.POPULARITY
