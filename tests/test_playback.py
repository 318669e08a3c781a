import copy

import numpy as np
import pytest

from helpers import (
    canonical_json,
    constant_rate_network,
    record_dicts,
    savings_vs_naive,
    staircase_scenario,
    total_bytes,
    viewer_session,
)
from tilesim import cachesim, playback, prediction
from tilesim.adaptation import PolicyKind
from tilesim.cachesim import Cache, EvictionPolicy, viewing_assignments, warm
from tilesim.geometry import FovSpec, TileGrid, ViewingTrace
from tilesim.manifest import VideoManifest, segment_requests, synthesize
from tilesim.netsim import Link, scale
from tilesim.playback import (
    ESTIMATE_COLUMNS,
    PLANNED_POLICIES,
    SEGMENT_COLUMNS,
    SessionMetrics,
    estimate_rows,
    policy_summary_rows,
    popularity_share_rows,
    prediction_plan,
    quality_gain_percent,
    run_experiment,
    segment_rows,
    simulate,
)
from tilesim.synthetic import constant_gaze, drifting_gaze, two_phase_network

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
    """One session of a viewer who looks straight ahead throughout."""
    gaze = constant_gaze(0.0, 0.0, manifest.duration + 1.0, hz=30.0)
    return viewer_session(
        manifest=manifest,
        viewing_trace=gaze,
        network_trace=net,
        policy=policy,
        **kw,
    )


class TestValidation:
    """`prediction_plan` refuses a trace it cannot fit, and `run_experiment`
    refuses it whatever the policy."""

    def test_empty_trace(self, flat_manifest):
        empty = ViewingTrace.from_angles([], [], [])
        with pytest.raises(ValueError, match="empty"):
            prediction_plan(flat_manifest, empty)
        net = constant_rate_network(1e8, 2.0)
        for policy in PolicyKind:
            with pytest.raises(ValueError, match="empty"):
                run_experiment(flat_manifest, [empty], net, [policy], 1)

    def test_trace_shorter_than_window(self, flat_manifest):
        gaze = constant_gaze(0.0, 0.0, flat_manifest.duration + 1.0, hz=30.0)
        short = gaze[:2]  # ~0.03 s of samples
        with pytest.raises(ValueError, match="regression window"):
            prediction_plan(flat_manifest, short)
        net = constant_rate_network(1e8, 2.0)
        for policy in PolicyKind:
            with pytest.raises(ValueError, match="regression window"):
                run_experiment(flat_manifest, [short], net, [policy], 1)

    def test_popularity_needs_trace(self, flat_manifest):
        for policy in (PolicyKind.POPULARITY, PolicyKind.TRANSITION):
            with pytest.raises(ValueError, match="popularity"):
                stationary_session(flat_manifest, policy, constant_rate_network(1e8, 2.0))

    @pytest.mark.parametrize("policy", PLANNED_POLICIES, ids=lambda p: p.value)
    def test_planned_policy_needs_a_plan(self, flat_manifest, policy):
        m = copy.deepcopy(flat_manifest)
        m.popularity = np.zeros((27, 16), dtype=np.int64)
        with pytest.raises(ValueError, match=f"policy {policy.value} needs a prediction plan"):
            simulate(m, constant_rate_network(1e8, 2.0), policy)

    def test_unplanned_policies_read_no_viewing_trace(self, flat_manifest):
        m = copy.deepcopy(flat_manifest)
        m.popularity = np.zeros((27, 16), dtype=np.int64)
        net = constant_rate_network(1e9, 2.0)
        naive = simulate(m, net, PolicyKind.NAIVE)
        popular = simulate(m, net, PolicyKind.POPULARITY)
        assert [r.levels for r in naive.records] == [(2,) * 16] * 27
        assert [r.levels for r in popular.records] == [(0,) * 16] * 27
        assert naive.total_stall == popular.total_stall == 0.0

    def test_empty_trace_anywhere_is_refused_before_the_warm_up(self):
        """A trace that only the warm-up draws is refused too, by its index."""
        m = synthesize("x", 6.0, 1.5, TileGrid(4, 4))
        net = two_phase_network(50e6, 5e6, 2.0, 20.0)
        empty = ViewingTrace.from_angles([], [], [])
        for traces, index in (([constant_gaze(0, 0, 7.0), empty], 1),
                              ([empty, constant_gaze(0, 0, 7.0)], 0)):
            with pytest.raises(ValueError, match=f"viewing trace {index} is empty"):
                run_experiment(
                    m, traces, net, [PolicyKind.NAIVE], 1,
                    cache=Cache(10**8, EvictionPolicy.LRU), warm_trace_count=2,
                )

    def test_trace_going_back_in_time_is_refused_by_its_sample(self):
        """The plan's window lookups and the warm-up's nearest_sample search
        sorted times, so no trace whose time decreases can be built, by the
        constructor, from angles or by a gather; equal times and a gather
        that repeats samples are allowed, and plan and replay."""
        gaze = constant_gaze(0.0, 0.0, 7.0)
        swap = np.arange(len(gaze))
        swap[[5, 6]] = swap[[6, 5]]
        t = gaze.t[swap]
        message = "viewing trace goes back in time at sample 6"
        with pytest.raises(ValueError, match=message):
            ViewingTrace(t, gaze.yaw, gaze.pitch)
        with pytest.raises(ValueError, match=message):
            ViewingTrace.from_angles(t, gaze.yaw, gaze.pitch)
        with pytest.raises(ValueError, match=message):
            gaze[swap]
        held = ViewingTrace(np.repeat(gaze.t, 2), np.repeat(gaze.yaw, 2), np.repeat(gaze.pitch, 2))
        repeated = gaze[np.repeat(np.arange(len(gaze)), 2)]
        assert repeated.t.tobytes() == held.t.tobytes()
        m = synthesize("x", 6.0, 1.5, TileGrid(4, 4))
        net = two_phase_network(50e6, 5e6, 2.0, 20.0)
        for trace in (held, repeated):
            prediction_plan(m, trace)
            run_experiment(m, [trace], net, [PolicyKind.NAIVE, PolicyKind.PREDICTION], 1,
                           cache=Cache(10**8, EvictionPolicy.LRU))


class TestStallAccounting:
    def test_startup_is_not_a_stall(self):
        m = single_tile_manifest()
        # 6 Mbit/s: each 1000-packet segment takes 2 s of link time
        got = stationary_session(m, PolicyKind.NAIVE, constant_rate_network(6e6, 1.0))
        assert [r.stall for r in got.records] == [0.0, 1.0, 1.0]
        assert got.total_stall == 2.0
        assert got.records[0].download_end == 2.0
        assert got.records[1].download_start == 2.0
        assert got.records[1].download_end == 4.0

    def test_ample_bandwidth_never_stalls(self):
        m = single_tile_manifest()
        got = stationary_session(m, PolicyKind.NAIVE, constant_rate_network(24e6, 1.0))
        assert got.total_stall == 0.0
        # each 0.5 s download waits for the one-segment lookahead window:
        # segment 2 may start only once segment 1 begins playing at 1.5 s
        assert [r.download_start for r in got.records] == [0.0, 0.5, 1.5]

    def test_scaling_origin_up_never_hurts_naive(self):
        m = single_tile_manifest()
        base_net = constant_rate_network(6e6, 1.0)
        slow = stationary_session(m, PolicyKind.NAIVE, base_net)
        fast = stationary_session(m, PolicyKind.NAIVE, scale(base_net, 2.0))
        assert fast.total_stall <= slow.total_stall
        assert fast.total_stall == 0.0


class TestPolicies:
    def test_no_bottleneck_no_stalls_any_policy(self, flat_manifest):
        m = copy.deepcopy(flat_manifest)
        m.popularity = np.zeros((27, 16), dtype=np.int64)
        net = constant_rate_network(1e9, 2.0)
        for policy in PolicyKind:
            got = stationary_session(m, policy, net)
            assert got.total_stall == 0.0, policy

    def test_naive_totals_and_zero_savings(self, flat_manifest):
        net = constant_rate_network(1e9, 2.0)
        got = stationary_session(flat_manifest, PolicyKind.NAIVE, net)
        assert total_bytes(got) == 27 * 16 * 3_750_000
        assert got.avg_quality == 2.0
        assert [r.savings for r in got.records] == [0.0] * 27

    def test_prediction_savings_exact(self, flat_manifest):
        net = constant_rate_network(300e6, 5.0)
        naive = stationary_session(flat_manifest, PolicyKind.NAIVE, net)
        pred = stationary_session(flat_manifest, PolicyKind.PREDICTION, net, fov=QUAD)
        sav = savings_vs_naive(pred, naive)
        assert sav.shape == (27,)
        assert (sav == 0.703125).all()
        np.testing.assert_array_equal([r.savings for r in pred.records], sav)
        np.testing.assert_array_equal(savings_vs_naive(naive, naive), np.zeros(27))

    def test_popularity_all_low_savings_exact(self, flat_manifest):
        m = copy.deepcopy(flat_manifest)
        m.popularity = np.zeros((27, 16), dtype=np.int64)
        net = constant_rate_network(300e6, 5.0)
        got = stationary_session(m, PolicyKind.POPULARITY, net)
        assert [r.savings for r in got.records] == [0.9375] * 27
        assert got.avg_quality == 0.0

    def test_sparse_viewing_trace_falls_back_to_nearest(self, flat_manifest):
        gaze = constant_gaze(0.0, 0.0, 41.0, hz=0.2)  # one sample each 5 s
        got = viewer_session(
            manifest=flat_manifest,
            viewing_trace=gaze,
            network_trace=constant_rate_network(300e6, 5.0),
            policy=PolicyKind.PREDICTION,
            fov=QUAD,
        )
        for r in got.records:
            assert sorted(r.levels, reverse=True)[:4] == [2, 2, 2, 2]


class TestCacheInteraction:
    def prefill(self, manifest, levels_row):
        cache = Cache(10**14, EvictionPolicy.LRU)
        for seg in range(manifest.segment_count):
            for key, size in segment_requests(manifest, seg, levels_row):
                cache.request(key, size)
        return cache

    def test_fully_cached_session_never_touches_origin(self, flat_manifest):
        m = copy.deepcopy(flat_manifest)
        m.popularity = np.zeros((27, 16), dtype=np.int64)
        cache = self.prefill(m, np.zeros(16, dtype=int))
        got = stationary_session(
            m, PolicyKind.POPULARITY, constant_rate_network(1e6, 2.0), cache=cache
        )
        assert all(r.bytes_from_origin == 0 for r in got.records)
        assert got.total_stall == 0.0
        assert all(r.bytes_from_cache == r.bytes_total > 0 for r in got.records)
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
        got = stationary_session(
            flat_manifest,
            PolicyKind.NAIVE,
            constant_rate_network(1e6, 2.0),
            cache=cache,
            cache_rate_bps=1e9,
        )
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
        got = stationary_session(
            m, PolicyKind.POPULARITY, constant_rate_network(30e6, 5.0), cache=cache
        )
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
        warm(cache, m, [viewing_assignments(m, gaze, WIDE, 16)])

        replay = copy.deepcopy(cache)
        requests = [
            (size, replay.request(key, size))
            for seg in range(m.segment_count)
            for key, size in segment_requests(m, seg, m.popularity[seg])
        ]
        warmed_bhr = sum(size for size, hit in requests if hit) / sum(
            size for size, _ in requests
        )
        assert 0.0 < warmed_bhr < 1.0

        got = viewer_session(
            manifest=m,
            viewing_trace=gaze,
            network_trace=net,
            policy=PolicyKind.TRANSITION,
            cache=cache,
            samples_per_axis=16,
        )
        pop_records = [r for r in got.records if r.active == "popularity"]
        assert pop_records, "the starved phase must trigger popularity adaptation"
        for r in pop_records:
            assert r.bytes_from_cache / r.bytes_total >= warmed_bhr - 1e-12
        first = pop_records[0]
        assert first.bytes_from_cache / first.bytes_total == pytest.approx(warmed_bhr)


class TestBandwidthEstimate:
    """The estimate a segment is chosen with is the throughput of the last
    segment that fetched origin bytes, over the origin link alone."""

    def test_first_segment_has_no_estimate(self):
        m = single_tile_manifest()
        # 6 Mbit/s: segment 0's 1000 packets take exactly 2 s
        got = stationary_session(m, PolicyKind.NAIVE, constant_rate_network(6e6, 1.0))
        assert got.records[0].estimate_bps is None
        assert got.records[1].estimate_bps == 6e6

    def test_cache_only_segment_leaves_the_estimate_in_force(self):
        m = single_tile_manifest()
        cache = Cache(10**9, EvictionPolicy.LRU)
        for key, size in segment_requests(m, 1, np.zeros(1, dtype=int)):
            cache.request(key, size)
        got = stationary_session(
            m, PolicyKind.NAIVE, constant_rate_network(6e6, 1.0), cache=cache
        )
        assert [r.bytes_from_origin > 0 for r in got.records] == [True, False, True]
        assert [r.estimate_bps for r in got.records] == [None, 6e6, 6e6]

    def test_estimate_is_origin_bits_over_origin_transfer_time(self, flat_manifest):
        m = copy.deepcopy(flat_manifest)
        m.popularity = np.zeros((27, 16), dtype=np.int64)
        cache = Cache(10**14, EvictionPolicy.LRU)
        for seg in range(m.segment_count):
            for key, size in segment_requests(m, seg, m.popularity[seg])[:8]:
                cache.request(key, size)
        # half of each segment over a 5 Mbit/s cache link: 3 s, against
        # 0.5 s for the other half from a 30 Mbit/s origin
        net = constant_rate_network(30e6, 5.0)
        got = stationary_session(
            m, PolicyKind.POPULARITY, net, cache=cache, cache_rate_bps=5e6
        )
        origin = Link(net)
        expected = None
        for r in got.records:
            assert r.estimate_bps == expected
            origin_end = origin.transfer_time(r.download_start, r.bytes_from_origin)
            assert origin_end < r.download_end
            expected = r.bytes_from_origin * 8.0 / (origin_end - r.download_start)


class TestDeterminism:
    def test_identical_configs_serialize_identically(self, flat_manifest):
        m = copy.deepcopy(flat_manifest)
        m.popularity = np.tile((np.arange(16) % 3), (27, 1)).astype(np.int64)
        net = two_phase_network(200e6, 4e6, cut_s=10.0, duration_s=60.0)
        outs = []
        for _ in range(2):
            cache = Cache(10**9, EvictionPolicy.GDSF)
            gaze = constant_gaze(5.0, 5.0, 41.0, hz=10.0)
            warm(cache, m, [viewing_assignments(m, gaze, WIDE, 8)])
            got = stationary_session(m, PolicyKind.TRANSITION, net, cache=cache,
                                     samples_per_axis=8)
            outs.append(canonical_json(got))
        assert outs[0] == outs[1]


class TestExperimentDriver:
    def test_single_run_report(self, flat_manifest):
        runs = run_experiment(
            manifest=flat_manifest,
            viewing_traces=[constant_gaze(0.0, 0.0, 41.0, hz=10.0)],
            network_trace=constant_rate_network(300e6, 5.0),
            policies=[PolicyKind.PREDICTION],
            iterations=1,
            samples_per_axis=8,
        )
        assert list(runs) == ["prediction"]
        assert len(runs["prediction"]) == 1
        assert isinstance(runs["prediction"][0], SessionMetrics)
        assert quality_gain_percent(policy_summary_rows(segment_rows(runs))) is None

    @pytest.mark.parametrize("setting, message", [
        ({"hysteresis": 0.9}, "hysteresis must be >= 1"),
        ({"timeframe": 0.0}, "timeframe must be positive"),
        ({"timeframe": -1.0}, "timeframe must be positive"),
    ], ids=["hysteresis-0.9", "timeframe-0", "timeframe-negative"])
    def test_refuses_a_bad_window_or_hysteresis(self, flat_manifest, setting, message):
        """The function that owns each input refuses it (`simulate` the
        hysteresis, `prediction_plan` the window), and `run_experiment`
        refuses both, whatever the policy."""
        trace = constant_gaze(0.0, 0.0, 41.0, hz=10.0)
        net = constant_rate_network(1e8, 2.0)
        with pytest.raises(ValueError, match=message):
            if "hysteresis" in setting:
                simulate(flat_manifest, net, PolicyKind.NAIVE, **setting)
            else:
                prediction_plan(flat_manifest, trace, **setting)
        for policy in PolicyKind:
            with pytest.raises(ValueError, match=message):
                run_experiment(flat_manifest, [trace], net, [policy], 1, **setting)

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
        runs = run_experiment(
            manifest=m,
            viewing_traces=[constant_gaze(0.0, 0.0, 41.0, hz=10.0)],
            network_trace=two_phase_network(300e6, 3e6, cut_s=8.0, duration_s=120.0),
            policies=[PolicyKind.TRANSITION],
            iterations=3,
            samples_per_axis=8,
        )
        rows = segment_rows(runs)
        shares = popularity_share_rows(rows)
        assert {s["popularity_share"] for s in shares} <= {0.0, 1.0}
        assert any(s["popularity_share"] == 1.0 for s in shares)

    def test_equal_policies_have_zero_gain(self, flat_manifest):
        m = copy.deepcopy(flat_manifest)
        m.popularity = np.zeros((27, 16), dtype=np.int64)
        runs = run_experiment(
            manifest=m,
            viewing_traces=[constant_gaze(0.0, 0.0, 41.0, hz=10.0)],
            network_trace=constant_rate_network(300e6, 5.0),
            policies=[PolicyKind.PREDICTION_BA, PolicyKind.TRANSITION],
            iterations=2,
            samples_per_axis=8,
        )
        # ample bandwidth: transition stays on prediction, which matches
        # prediction-ba at delta = 0
        assert quality_gain_percent(policy_summary_rows(segment_rows(runs))) == 0.0


class TestPredictionPlans:
    """run_experiment fits and scores each distinct trace's segments once,
    whatever the number of policies and iterations; policies that read no
    visibility build no plan."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"fit": 0, "tile_visibility": 0}
        for module, name in ((prediction, "fit"), (playback, "tile_visibility")):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
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
            cache=Cache(10**8, EvictionPolicy.LRU),
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
        runs = self.experiment(flat_manifest, policies, iterations=3)
        assert sum(len(sessions) for sessions in runs.values()) == 12
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

    def test_direct_simulate_replays_the_plan_it_is_given(self, flat_manifest, counts):
        net = constant_rate_network(300e6, 5.0)
        gaze = constant_gaze(0.0, 0.0, flat_manifest.duration + 1.0, hz=30.0)
        plan = prediction_plan(flat_manifest, gaze)
        simulate(flat_manifest, net, PolicyKind.PREDICTION, plan)
        assert counts == {"fit": flat_manifest.segment_count, "tile_visibility": 1}
        simulate(flat_manifest, net, PolicyKind.NAIVE)
        assert counts == {"fit": flat_manifest.segment_count, "tile_visibility": 1}


class TestReplaysBuildNoPerTraceWork:
    """`run_experiment` builds each trace's prediction plan and warm-up levels
    once; `simulate` and `warm` only replay them. Like
    TestOneCacheRequestPerTile, this stops a second path that scores poses
    from coming back silently."""

    def test_simulate_and_warm_score_no_pose(self, flat_manifest, monkeypatch):
        m = copy.deepcopy(flat_manifest)
        m.popularity = np.zeros((m.segment_count, m.grid.tile_count), dtype=np.int64)
        gaze = constant_gaze(0.0, 0.0, 41.0, hz=10.0)
        plan = prediction_plan(m, gaze, samples_per_axis=4)
        levels = viewing_assignments(m, gaze, WIDE, 4)

        def refuse(*args, **kwargs):
            raise AssertionError("a replay built per-trace work")

        for module, name in (
            (playback, "prediction_plan"),
            (playback, "viewing_assignments"),
            (playback, "tile_visibility"),
            (cachesim, "viewing_assignments"),
            (cachesim, "tile_visibility"),
        ):
            monkeypatch.setattr(module, name, refuse)
        cache = Cache(10**9, EvictionPolicy.LRU)
        warm(cache, m, [levels, levels])
        net = two_phase_network(300e6, 3e6, cut_s=8.0, duration_s=120.0)
        for policy in PolicyKind:
            simulate(m, net, policy, plan, cache.copy())

    def test_run_experiment_builds_each_traces_work_once(self, flat_manifest, monkeypatch):
        built = {"prediction_plan": [], "viewing_assignments": []}
        for name, traces_seen in built.items():
            original = getattr(playback, name)

            def spy(manifest, trace, *args, _seen=traces_seen, _original=original):
                _seen.append(id(trace))
                return _original(manifest, trace, *args)

            monkeypatch.setattr(playback, name, spy)
        m = copy.deepcopy(flat_manifest)
        m.popularity = np.zeros((m.segment_count, m.grid.tile_count), dtype=np.int64)
        traces = [constant_gaze(yaw, 0.0, 41.0, hz=10.0) for yaw in (0, 90, 180)]
        run_experiment(
            manifest=m,
            viewing_traces=traces,
            network_trace=two_phase_network(300e6, 3e6, cut_s=8.0, duration_s=120.0),
            policies=list(PolicyKind),
            iterations=7,
            cache=Cache(10**8, EvictionPolicy.LRU),
            warm_trace_count=3,
            samples_per_axis=4,
        )
        assert sorted(built["prediction_plan"]) == sorted(map(id, traces))
        assert sorted(built["viewing_assignments"]) == sorted(map(id, traces))


class TestOneCacheRequestPerTile:
    """The benchmark's tracer counts tile requests and evictions by wrapping
    `Cache.request`, so warm-up and sessions call it once per tile of every
    segment they fetch, segments and tiles ascending."""

    def test_warm_up_and_sessions(self, flat_manifest, monkeypatch):
        keys = []
        original = Cache.request

        def counted(self, key, size):
            keys.append(key)
            return original(self, key, size)

        monkeypatch.setattr(Cache, "request", counted)
        m = copy.deepcopy(flat_manifest)
        m.popularity = np.zeros((m.segment_count, m.grid.tile_count), dtype=np.int64)
        policies = [PolicyKind.PREDICTION, PolicyKind.TRANSITION]
        iterations, warm_traces = 2, 2
        run_experiment(
            manifest=m,
            viewing_traces=[constant_gaze(yaw, 0.0, 41.0, hz=10.0) for yaw in (0, 90, 180)],
            network_trace=two_phase_network(300e6, 3e6, cut_s=8.0, duration_s=120.0),
            policies=policies,
            iterations=iterations,
            cache=Cache(int(m.sizes.sum()) // 20, EvictionPolicy.GDSF),
            warm_trace_count=warm_traces,
            samples_per_axis=4,
        )
        tiles, qualities = m.grid.tile_count, m.quality_count
        viewings = iterations * (warm_traces + len(policies))
        assert len(keys) == viewings * m.segment_count * tiles
        # Each id is (segment * tiles + tile) * qualities + level.
        fetched = [divmod(key // qualities, tiles) for key in keys]
        assert fetched == [
            (seg, tile)
            for _ in range(viewings)
            for seg in range(m.segment_count)
            for tile in range(tiles)
        ]


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
        runs = run_experiment(
            manifest=flat_manifest,
            viewing_traces=[constant_gaze(0.0, 0.0, 41.0, hz=10.0)],
            network_trace=constant_rate_network(300e6, 5.0),
            policies=[PolicyKind.NAIVE],
            iterations=1,
            samples_per_axis=8,
        )
        rows = segment_rows(runs)
        assert len(rows) == 27
        assert all(list(r) == list(SEGMENT_COLUMNS) for r in rows)
        assert rows[0]["levels"] == "|".join(["2"] * 16)


class TestConvergenceToDelegates:
    def test_always_ample_equals_prediction(self):
        m, gaze, stair, seg_bits = staircase_scenario(15.0)
        net = constant_rate_network(1e9, 2.0)
        runs = {}
        for policy in (PolicyKind.TRANSITION, PolicyKind.PREDICTION):
            runs[policy] = viewer_session(
                manifest=m, viewing_trace=gaze, network_trace=net,
                policy=policy, samples_per_axis=16,
            )
        assert record_dicts(runs[PolicyKind.TRANSITION]) == record_dicts(
            runs[PolicyKind.PREDICTION]
        )

    def test_always_starved_equals_popularity_after_first_segment(self):
        m, gaze, stair, seg_bits = staircase_scenario(15.0)
        net = constant_rate_network(2e6, 30.0)
        runs = {}
        for policy in (PolicyKind.TRANSITION, PolicyKind.POPULARITY):
            runs[policy] = viewer_session(
                manifest=m, viewing_trace=gaze, network_trace=net,
                policy=policy, samples_per_axis=16,
            )
        ours = record_dicts(runs[PolicyKind.TRANSITION])
        theirs = record_dicts(runs[PolicyKind.POPULARITY])
        assert ours[1:] == theirs[1:]
        # segment 0 differs only in the mechanism label: no estimate exists
        # yet, so transition starts on prediction with identical bytes
        assert ours[0]["active"] == "prediction"
        assert theirs[0]["active"] == "popularity"
        assert ours[0]["levels"] == theirs[0]["levels"]


class TestWholeRunLaws:
    """Laws of `run_experiment` as a whole, on 12 s of video, three drifting
    viewers, a link that starves from 4 s to 8 s, so that `transition`
    switches both ways, and a warmed LRU cache that holds half the video."""

    @pytest.fixture(scope="class")
    def setup(self):
        m = synthesize("laws", duration=12.0, segment_length=1.5, grid=TileGrid(4, 4),
                       variability=0.2, seed=1)
        m.popularity = np.random.default_rng(2).integers(
            0, m.quality_count, size=(m.segment_count, m.grid.tile_count)
        )
        return dict(
            manifest=m,
            viewing_traces=[drifting_gaze(k, 13.0, hz=30.0) for k in range(3)],
            network_trace=two_phase_network(200e6, 10e6, cut_s=4.0, duration_s=30.0,
                                            recover_s=8.0),
            cache=Cache(int(m.sizes.sum()) // 2, EvictionPolicy.LRU),
            warm_trace_count=2,
            samples_per_axis=4,
        )

    def sessions(self, runs, policy):
        return [record_dicts(s) for s in runs[policy.value]]

    def test_prefix_stability(self, setup):
        """Session i of a run does not depend on how many iterations follow."""
        policies = list(PolicyKind)
        short = run_experiment(policies=policies, iterations=2, **setup)
        long = run_experiment(policies=policies, iterations=3, **setup)
        for policy in policies:
            assert self.sessions(short, policy) == self.sessions(long, policy)[:2], policy

    def test_policy_independence(self, setup):
        """A policy's sessions do not depend on which other policies run, or
        in which order: each session gets its own copy of the warmed cache."""
        ba, tr, naive = PolicyKind.PREDICTION_BA, PolicyKind.TRANSITION, PolicyKind.NAIVE
        alone, *others = [
            self.sessions(run_experiment(policies=policies, iterations=2, **setup), ba)
            for policies in ([ba], [tr, ba], [ba, naive, tr])
        ]
        assert any(r["bytes_from_cache"] for session in alone for r in session)
        assert others == [alone, alone]

    def test_lru_inclusion(self, setup):
        """LRU is a stack algorithm, and naive and popularity request the
        same tiles whatever the cache holds. So when every tile fits the
        smaller cache, each segment takes at least as many bytes from the
        larger one, in every iteration."""
        policies = [PolicyKind.NAIVE, PolicyKind.POPULARITY]
        large = setup["cache"].capacity
        small = large * 3 // 5
        assert setup["manifest"].sizes.max() <= small

        def cached(capacity):
            runs = run_experiment(policies=policies, iterations=3,
                                  **{**setup, "cache": Cache(capacity, EvictionPolicy.LRU)})
            return np.array([[[r["bytes_from_cache"] for r in session]
                              for session in self.sessions(runs, p)] for p in policies])

        lo, hi = cached(small), cached(large)
        assert (lo <= hi).all()
        assert lo.any() and (lo < hi).any()

    @pytest.mark.parametrize("eviction", list(EvictionPolicy), ids=lambda p: p.value)
    def test_a_cache_that_stores_nothing_changes_no_row(self, setup, eviction):
        """A cache of capacity 0 holds no tile, so every policy's rows are
        those of a run with no cache."""
        policies = list(PolicyKind)
        empty, none = (
            segment_rows(run_experiment(policies=policies, iterations=2, **{**setup, "cache": c}))
            for c in (Cache(0, eviction), None)
        )
        assert empty == none

    def test_the_cache_given_is_not_changed(self, setup):
        """Every law above warmed copies of the fixture's one cache."""
        run_experiment(policies=[PolicyKind.NAIVE], iterations=2, **setup)
        assert len(setup["cache"]) == setup["cache"].occupancy == 0
