import copy

import numpy as np
import pytest

from helpers import (
    canonical_json,
    record_dicts,
    savings_vs_naive,
    staircase_scenario,
    total_bytes,
)
from tilesim import playback
from tilesim.adaptation import PolicyKind
from tilesim.cachesim import Cache, EvictionPolicy, warm
from tilesim.geometry import FovSpec, TileGrid
from tilesim.manifest import VideoManifest, segment_requests, synthesize
from tilesim.netsim import scale
from tilesim.playback import (
    ESTIMATE_COLUMNS,
    SEGMENT_COLUMNS,
    SessionConfig,
    SessionMetrics,
    estimate_rows,
    policy_summary_rows,
    popularity_share_rows,
    run_experiment,
    segment_rows,
    simulate,
)
from tilesim.synthetic import (
    constant_gaze,
    constant_rate_network,
    two_phase_network,
)

WIDE = FovSpec(100.0, 100.0)
QUAD = FovSpec(89.0, 89.0)


def single_tile_manifest():
    """3 segments, 1 tile, 1 quality, exactly 1000 packets per segment."""
    return VideoManifest(
        name="one",
        duration=3.0,
        segment_length=1.0,
        grid=TileGrid(1, 1),
        quality_count=1,
        bitrate_factors=(1.0,),
        base_bitrate_bps=12e6,
        sizes=np.full((3, 1, 1), 1_500_000, dtype=np.int64),
    )


def stationary_session(manifest, policy, net, **kw):
    gaze = constant_gaze(0.0, 0.0, manifest.duration + 1.0, hz=30.0)
    return SessionConfig(
        manifest=manifest,
        viewing_trace=gaze,
        network_trace=net,
        policy=policy,
        **kw,
    )


class TestValidation:
    def test_empty_trace(self, flat_manifest):
        cfg = SessionConfig(
            manifest=flat_manifest,
            viewing_trace=[],
            network_trace=constant_rate_network(1e8, 2.0),
            policy=PolicyKind.NAIVE,
        )
        with pytest.raises(ValueError, match="empty"):
            simulate(cfg)

    def test_trace_shorter_than_window(self, flat_manifest):
        cfg = stationary_session(
            flat_manifest, PolicyKind.NAIVE, constant_rate_network(1e8, 2.0)
        )
        cfg.viewing_trace = cfg.viewing_trace[:2]  # ~0.03 s of samples
        with pytest.raises(ValueError, match="regression window"):
            simulate(cfg)

    def test_popularity_needs_trace(self, flat_manifest):
        for policy in (PolicyKind.POPULARITY, PolicyKind.TRANSITION):
            cfg = stationary_session(
                flat_manifest, policy, constant_rate_network(1e8, 2.0)
            )
            with pytest.raises(ValueError, match="popularity"):
                simulate(cfg)


class TestStallAccounting:
    def test_startup_is_not_a_stall(self):
        m = single_tile_manifest()
        # 6 Mbit/s: each 1000-packet segment takes 2 s of link time
        cfg = stationary_session(m, PolicyKind.NAIVE, constant_rate_network(6e6, 1.0))
        got = simulate(cfg)
        assert [r.stall for r in got.records] == [0.0, 1.0, 1.0]
        assert got.total_stall == 2.0
        assert got.records[0].download_end == 2.0
        assert got.records[1].download_start == 2.0
        assert got.records[1].download_end == 4.0

    def test_ample_bandwidth_never_stalls(self):
        m = single_tile_manifest()
        cfg = stationary_session(m, PolicyKind.NAIVE, constant_rate_network(24e6, 1.0))
        got = simulate(cfg)
        assert got.total_stall == 0.0
        # each 0.5 s download waits for the one-segment lookahead window:
        # segment 2 may start only once segment 1 begins playing at 1.5 s
        assert [r.download_start for r in got.records] == [0.0, 0.5, 1.5]

    def test_scaling_origin_up_never_hurts_naive(self):
        m = single_tile_manifest()
        base_net = constant_rate_network(6e6, 1.0)
        slow = simulate(stationary_session(m, PolicyKind.NAIVE, base_net))
        fast = simulate(
            stationary_session(m, PolicyKind.NAIVE, scale(base_net, 2.0))
        )
        assert fast.total_stall <= slow.total_stall
        assert fast.total_stall == 0.0


class TestPolicies:
    def test_no_bottleneck_no_stalls_any_policy(self, flat_manifest):
        m = copy.deepcopy(flat_manifest)
        m.popularity = np.zeros((27, 16), dtype=np.int64)
        net = constant_rate_network(1e9, 2.0)
        for policy in PolicyKind:
            got = simulate(stationary_session(m, policy, net))
            assert got.total_stall == 0.0, policy

    def test_naive_totals_and_zero_savings(self, flat_manifest):
        net = constant_rate_network(1e9, 2.0)
        got = simulate(stationary_session(flat_manifest, PolicyKind.NAIVE, net))
        assert total_bytes(got) == 27 * 16 * 3_750_000
        assert got.avg_quality == 2.0
        np.testing.assert_array_equal(got.savings, np.zeros(27))

    def test_prediction_savings_exact(self, flat_manifest):
        net = constant_rate_network(300e6, 5.0)
        naive = simulate(stationary_session(flat_manifest, PolicyKind.NAIVE, net))
        pred = simulate(
            stationary_session(flat_manifest, PolicyKind.PREDICTION, net, fov=QUAD)
        )
        sav = savings_vs_naive(pred, naive)
        assert sav.shape == (27,)
        assert (sav == 0.703125).all()
        np.testing.assert_array_equal(pred.savings, sav)
        np.testing.assert_array_equal(savings_vs_naive(naive, naive), np.zeros(27))

    def test_popularity_all_low_savings_exact(self, flat_manifest):
        m = copy.deepcopy(flat_manifest)
        m.popularity = np.zeros((27, 16), dtype=np.int64)
        net = constant_rate_network(300e6, 5.0)
        got = simulate(stationary_session(m, PolicyKind.POPULARITY, net))
        assert (got.savings == 0.9375).all()
        assert got.avg_quality == 0.0

    def test_sparse_viewing_trace_falls_back_to_nearest(self, flat_manifest):
        gaze = constant_gaze(0.0, 0.0, 41.0, hz=0.2)  # one sample each 5 s
        cfg = SessionConfig(
            manifest=flat_manifest,
            viewing_trace=gaze,
            network_trace=constant_rate_network(300e6, 5.0),
            policy=PolicyKind.PREDICTION,
            fov=QUAD,
        )
        got = simulate(cfg)
        for r in got.records:
            assert sorted(r.levels, reverse=True)[:4] == [2, 2, 2, 2]


class TestCacheInteraction:
    def prefill(self, manifest, levels_row):
        cache = Cache(10**14, EvictionPolicy.LRU)
        for seg in range(manifest.segment_count):
            for key, size in segment_requests(manifest, seg, levels_row):
                cache.request(key, size)
        cache.reset_stats()
        return cache

    def test_fully_cached_session_never_touches_origin(self, flat_manifest):
        m = copy.deepcopy(flat_manifest)
        m.popularity = np.zeros((27, 16), dtype=np.int64)
        cache = self.prefill(m, np.zeros(16, dtype=int))
        cfg = stationary_session(
            m, PolicyKind.POPULARITY, constant_rate_network(1e6, 2.0), cache=cache
        )
        got = simulate(cfg)
        assert all(r.bytes_from_origin == 0 for r in got.records)
        assert got.total_stall == 0.0
        assert got.cache_byte_hit_rate == 1.0
        # cache link timing: bytes * 8 / 100 Mbit/s from download start
        r0 = got.records[0]
        expect = 16 * 234375 * 8 / 100e6
        assert r0.download_end == pytest.approx(r0.download_start + expect)
        # origin-only estimation: no origin bytes, no estimate, ever
        assert all(r.estimate_bps is None for r in got.records)

    def test_naive_also_benefits_from_cache(self, flat_manifest):
        cache = self.prefill(flat_manifest, np.full(16, 2, dtype=int))
        # top quality everywhere is 60 MB per segment, so the cache link
        # itself must be fast enough not to become the new bottleneck
        cfg = stationary_session(
            flat_manifest,
            PolicyKind.NAIVE,
            constant_rate_network(1e6, 2.0),
            cache=cache,
            cache_rate_bps=1e9,
        )
        got = simulate(cfg)
        assert all(r.bytes_from_origin == 0 for r in got.records)
        assert got.total_stall == 0.0

    def test_mixed_segment_estimates_origin_share_only(self, flat_manifest):
        m = copy.deepcopy(flat_manifest)
        m.popularity = np.zeros((27, 16), dtype=np.int64)
        half = np.zeros(16, dtype=int)
        cache = Cache(10**14, EvictionPolicy.LRU)
        for seg in range(m.segment_count):
            for key, size in segment_requests(m, seg, half)[:8]:
                cache.request(key, size)
        cache.reset_stats()
        cfg = stationary_session(
            m, PolicyKind.POPULARITY, constant_rate_network(30e6, 5.0), cache=cache
        )
        got = simulate(cfg)
        r0, r1 = got.records[0], got.records[1]
        assert r0.bytes_from_cache == 8 * 234375
        assert r0.bytes_from_origin == 8 * 234375
        # origin transfer dominates the cache link here
        origin_rate = r0.bytes_from_origin * 8 / (r0.download_end - r0.download_start)
        assert r1.estimate_bps == pytest.approx(origin_rate, rel=1e-9)
        assert r1.estimate_bps == pytest.approx(30e6, rel=5e-3)

    def test_starved_phase_serves_at_least_warmed_hit_fraction(self):
        m, gaze, stair, seg_bits = staircase_scenario(15.0)
        required = seg_bits / m.segment_length
        net = two_phase_network(
            8 * required, required / 8, cut_s=6.0, duration_s=45.0, recover_s=42.0
        )
        cache = Cache(10**12, EvictionPolicy.LFUDA)
        warm(cache, m, [gaze], WIDE, seed=1, trace_count=1, samples_per_axis=16)
        cache.reset_stats()

        replay = copy.deepcopy(cache)
        replay.reset_stats()
        for seg in range(m.segment_count):
            for key, size in segment_requests(m, seg, m.popularity[seg]):
                replay.request(key, size)
        warmed_bhr = replay.stats.byte_hit_rate
        assert 0.0 < warmed_bhr < 1.0

        cfg = SessionConfig(
            manifest=m,
            viewing_trace=gaze,
            network_trace=net,
            policy=PolicyKind.TRANSITION,
            cache=cache,
            samples_per_axis=16,
        )
        got = simulate(cfg)
        pop_records = [r for r in got.records if r.policy == "popularity"]
        assert pop_records, "the starved phase must trigger popularity adaptation"
        for r in pop_records:
            assert r.bytes_from_cache / r.bytes_total >= warmed_bhr - 1e-12
        first = pop_records[0]
        assert first.bytes_from_cache / first.bytes_total == pytest.approx(warmed_bhr)


class TestDeterminism:
    def test_identical_configs_serialize_identically(self, flat_manifest):
        m = copy.deepcopy(flat_manifest)
        m.popularity = np.tile((np.arange(16) % 3), (27, 1)).astype(np.int64)
        net = two_phase_network(200e6, 4e6, cut_s=10.0, duration_s=60.0)
        outs = []
        for _ in range(2):
            cache = Cache(10**9, EvictionPolicy.GDSF)
            warm(cache, m, [constant_gaze(5.0, 5.0, 41.0, hz=10.0)], WIDE,
                 seed=9, trace_count=1, samples_per_axis=8)
            cache.reset_stats()
            cfg = stationary_session(m, PolicyKind.TRANSITION, net, cache=cache,
                                     samples_per_axis=8)
            outs.append(canonical_json(simulate(cfg)))
        assert outs[0] == outs[1]


class TestExperimentDriver:
    def test_single_run_report(self, flat_manifest):
        report = run_experiment(
            manifest=flat_manifest,
            viewing_traces=[constant_gaze(0.0, 0.0, 41.0, hz=10.0)],
            network_trace=constant_rate_network(300e6, 5.0),
            policies=[PolicyKind.PREDICTION],
            iterations=1,
            samples_per_axis=8,
        )
        assert report.policies == ["prediction"]
        assert report.iterations == 1
        assert len(report.runs["prediction"]) == 1
        assert isinstance(report.runs["prediction"][0], SessionMetrics)
        assert report.quality_gain_percent() is None

    def test_validation(self, flat_manifest):
        with pytest.raises(ValueError):
            run_experiment(
                flat_manifest, [], constant_rate_network(1e8, 2.0),
                [PolicyKind.NAIVE], 1,
            )
        with pytest.raises(ValueError):
            run_experiment(
                flat_manifest,
                [constant_gaze(0.0, 0.0, 41.0, hz=10.0)],
                constant_rate_network(1e8, 2.0),
                [PolicyKind.NAIVE],
                0,
            )

    def test_single_trace_share_is_binary(self, flat_manifest):
        m = copy.deepcopy(flat_manifest)
        m.popularity = np.zeros((27, 16), dtype=np.int64)
        report = run_experiment(
            manifest=m,
            viewing_traces=[constant_gaze(0.0, 0.0, 41.0, hz=10.0)],
            network_trace=two_phase_network(300e6, 3e6, cut_s=8.0, duration_s=120.0),
            policies=[PolicyKind.TRANSITION],
            iterations=3,
            samples_per_axis=8,
        )
        rows = segment_rows(report)
        shares = popularity_share_rows(rows)
        assert {s["popularity_share"] for s in shares} <= {0.0, 1.0}
        assert any(s["popularity_share"] == 1.0 for s in shares)

    def test_equal_policies_have_zero_gain(self, flat_manifest):
        m = copy.deepcopy(flat_manifest)
        m.popularity = np.zeros((27, 16), dtype=np.int64)
        report = run_experiment(
            manifest=m,
            viewing_traces=[constant_gaze(0.0, 0.0, 41.0, hz=10.0)],
            network_trace=constant_rate_network(300e6, 5.0),
            policies=[PolicyKind.PREDICTION_BA, PolicyKind.TRANSITION],
            iterations=2,
            samples_per_axis=8,
        )
        # ample bandwidth: transition stays on prediction, which matches
        # prediction-ba at delta = 0
        assert report.quality_gain_percent() == 0.0


class TestPredictionPlans:
    """run_experiment fits and scores each distinct trace's segments once,
    whatever the number of policies and iterations; policies that read no
    visibility build no plan."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"fit": 0, "tile_visibility": 0}
        for name in counts:
            original = getattr(playback, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(playback, name, counted)
        return counts

    def experiment(self, manifest, policies, iterations):
        m = copy.deepcopy(manifest)
        m.popularity = np.zeros((m.segment_count, m.grid.tile_count), dtype=np.int64)
        return run_experiment(
            manifest=m,
            viewing_traces=[constant_gaze(yaw, 0.0, 41.0, hz=10.0) for yaw in (0, 90, 180)],
            network_trace=two_phase_network(300e6, 3e6, cut_s=8.0, duration_s=120.0),
            policies=policies,
            iterations=iterations,
            cache_policy=EvictionPolicy.LRU,
            cache_capacity_bytes=10**8,
            warm_trace_count=2,
            samples_per_axis=4,
        )

    def test_one_plan_per_trace(self, flat_manifest, counts):
        policies = [
            PolicyKind.PREDICTION,
            PolicyKind.POPULARITY,
            PolicyKind.PREDICTION_BA,
            PolicyKind.TRANSITION,
        ]
        report = self.experiment(flat_manifest, policies, iterations=3)
        assert sum(len(runs) for runs in report.runs.values()) == 12
        assert counts == {"fit": flat_manifest.segment_count * 3, "tile_visibility": 3}

    def test_more_iterations_than_traces_fit_no_more(self, flat_manifest, counts):
        self.experiment(flat_manifest, [PolicyKind.TRANSITION], iterations=7)
        assert counts == {"fit": flat_manifest.segment_count * 3, "tile_visibility": 3}

    def test_fewer_iterations_than_traces_plan_only_the_replayed(self, flat_manifest, counts):
        self.experiment(flat_manifest, [PolicyKind.PREDICTION], iterations=2)
        assert counts == {"fit": flat_manifest.segment_count * 2, "tile_visibility": 2}

    @pytest.mark.parametrize(
        "policies", [[PolicyKind.POPULARITY], [PolicyKind.NAIVE, PolicyKind.POPULARITY]]
    )
    def test_policies_without_visibility_build_no_plan(self, flat_manifest, counts, policies):
        self.experiment(flat_manifest, policies, iterations=4)
        assert counts == {"fit": 0, "tile_visibility": 0}

    def test_direct_simulate_builds_its_own_plan(self, flat_manifest, counts):
        net = constant_rate_network(300e6, 5.0)
        simulate(stationary_session(flat_manifest, PolicyKind.PREDICTION, net))
        assert counts == {"fit": flat_manifest.segment_count, "tile_visibility": 1}
        simulate(stationary_session(flat_manifest, PolicyKind.NAIVE, net))
        assert counts == {"fit": flat_manifest.segment_count, "tile_visibility": 1}


class TestReportRows:
    ROWS = [
        {"policy": "a", "iteration": 0, "segment": 0, "active": "prediction",
         "stall": 1.0, "mean_quality": 2.0, "estimate_bps": None, "savings": 0.5},
        {"policy": "a", "iteration": 0, "segment": 1, "active": "popularity",
         "stall": 0.5, "mean_quality": 1.0, "estimate_bps": 4e6, "savings": 0.25},
        {"policy": "a", "iteration": 1, "segment": 0, "active": "prediction",
         "stall": 0.0, "mean_quality": 1.0, "estimate_bps": None, "savings": 0.5},
        {"policy": "a", "iteration": 1, "segment": 1, "active": "prediction",
         "stall": 0.5, "mean_quality": 2.0, "estimate_bps": 6e6, "savings": 0.25},
    ]

    def test_policy_summary_by_hand(self):
        out = policy_summary_rows(self.ROWS)
        assert len(out) == 1
        row = out[0]
        assert row["policy"] == "a"
        assert row["runs"] == 2
        # per-iteration stall sums: 1.5 and 0.5
        assert row["stall_mean"] == 1.0
        assert row["stall_std"] == 0.5
        # per-iteration quality means: 1.5 and 1.5
        assert row["quality_mean"] == 1.5
        assert row["quality_std"] == 0.0
        assert row["savings_mean"] == 0.375

    def test_share_rows_by_hand(self):
        out = popularity_share_rows(self.ROWS)
        assert out == [
            {"policy": "a", "segment": 0, "popularity_share": 0.0},
            {"policy": "a", "segment": 1, "popularity_share": 0.5},
        ]

    def test_estimate_rows_skip_missing(self):
        out = estimate_rows(self.ROWS)
        assert out[0] == {
            "policy": "a", "segment": 0, "estimate_mean": None, "estimate_std": None,
        }
        assert out[1]["estimate_mean"] == 5e6
        assert out[1]["estimate_std"] == 1e6
        assert list(out[1]) == ESTIMATE_COLUMNS

    def test_segment_rows_columns(self, flat_manifest):
        report = run_experiment(
            manifest=flat_manifest,
            viewing_traces=[constant_gaze(0.0, 0.0, 41.0, hz=10.0)],
            network_trace=constant_rate_network(300e6, 5.0),
            policies=[PolicyKind.NAIVE],
            iterations=1,
            samples_per_axis=8,
        )
        rows = segment_rows(report)
        assert len(rows) == 27
        assert all(list(r) == list(SEGMENT_COLUMNS) for r in rows)
        assert rows[0]["levels"] == "|".join(["2"] * 16)


class TestConvergenceToDelegates:
    def test_always_ample_equals_prediction(self):
        m, gaze, stair, seg_bits = staircase_scenario(15.0)
        net = constant_rate_network(1e9, 2.0)
        runs = {}
        for policy in (PolicyKind.TRANSITION, PolicyKind.PREDICTION):
            cfg = SessionConfig(
                manifest=m, viewing_trace=gaze, network_trace=net,
                policy=policy, samples_per_axis=16,
            )
            runs[policy] = simulate(cfg)
        assert record_dicts(runs[PolicyKind.TRANSITION]) == record_dicts(
            runs[PolicyKind.PREDICTION]
        )

    def test_always_starved_equals_popularity_after_first_segment(self):
        m, gaze, stair, seg_bits = staircase_scenario(15.0)
        net = constant_rate_network(2e6, 30.0)
        runs = {}
        for policy in (PolicyKind.TRANSITION, PolicyKind.POPULARITY):
            cfg = SessionConfig(
                manifest=m, viewing_trace=gaze, network_trace=net,
                policy=policy, samples_per_axis=16,
            )
            runs[policy] = simulate(cfg)
        ours = record_dicts(runs[PolicyKind.TRANSITION])
        theirs = record_dicts(runs[PolicyKind.POPULARITY])
        assert ours[1:] == theirs[1:]
        # segment 0 differs only in the mechanism label: no estimate exists
        # yet, so transition starts on prediction with identical bytes
        assert ours[0]["policy"] == "prediction"
        assert theirs[0]["policy"] == "popularity"
        assert ours[0]["levels"] == theirs[0]["levels"]
