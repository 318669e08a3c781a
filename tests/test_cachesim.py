import copy
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import HeapCache, Orientation, ScanCache, constant_rate_network, visibility_map
from tilesim import playback
from tilesim.adaptation import PolicyKind
from tilesim.cachesim import (
    Cache,
    EvictionPolicy,
    quality_bands,
    viewing_assignments,
    warm,
)
from tilesim.geometry import FovSpec, TileGrid, rank_tiles
from tilesim.manifest import synthesize
from tilesim.synthetic import constant_gaze, gaussian_gaze_population


class TestBasics:
    def test_policy_values(self):
        assert EvictionPolicy("lru") is EvictionPolicy.LRU
        assert EvictionPolicy("lfuda") is EvictionPolicy.LFUDA
        assert EvictionPolicy("gdsf") is EvictionPolicy.GDSF

    def test_validation(self):
        with pytest.raises(ValueError):
            Cache(-1, EvictionPolicy.LRU)
        c = Cache(100, EvictionPolicy.LRU)
        with pytest.raises(ValueError):
            c.request("a", 0)
        with pytest.raises(ValueError):
            c.request("a", -3)
        # zero capacity is legal; it just never stores anything
        empty = Cache(0, EvictionPolicy.LRU)
        assert not empty.request("a", 1)
        assert "a" not in empty

    def test_hit_then_miss(self):
        c = Cache(1000, EvictionPolicy.LRU)
        assert len(c) == 0 and c.occupancy == 0
        assert not c.request("a", 100)
        assert c.request("a", 100)
        assert c.request("a", 100)
        assert not c.request("b", 200)
        assert c.occupancy == 300
        assert len(c) == 2
        assert "a" in c and "b" in c

    def test_oversized_object_never_stored(self):
        c = Cache(100, EvictionPolicy.GDSF)
        assert not c.request("big", 101)
        assert "big" not in c
        assert c.occupancy == 0
        assert len(c) == 0
        # exactly at capacity is fine
        assert not c.request("fits", 100)
        assert "fits" in c


class TestLru:
    def test_evicts_least_recently_used(self):
        c = Cache(300, EvictionPolicy.LRU)
        c.request("a", 100)
        c.request("b", 100)
        c.request("c", 100)
        c.request("a", 100)  # refresh a
        c.request("d", 100)  # evicts b
        assert "a" in c and "c" in c and "d" in c
        assert "b" not in c

    def test_full_capacity_single_object(self):
        c = Cache(100, EvictionPolicy.LRU)
        c.request("a", 100)
        c.request("b", 100)  # displaces a entirely
        assert "a" not in c
        assert "b" in c
        assert not c.request("a", 100)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_inclusion(self, seed):
        """LRU is a stack algorithm: when every object fits the smallest
        cache, a hit at capacity C1 is a hit at every C2 >= C1."""
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 20, size=int(rng.integers(5, 30))).tolist()
        capacities = sorted(rng.integers(20, 150, size=int(rng.integers(2, 5))).tolist())
        caches = [Cache(c, EvictionPolicy.LRU) for c in capacities]
        for key in rng.integers(0, len(sizes), size=300).tolist():
            hits = [cache.request(key, sizes[key]) for cache in caches]
            assert hits == sorted(hits), (key, capacities, hits)


class TestLfuda:
    def test_popular_object_outlives_newcomer(self):
        # a requested 5x (priority 5), b arrives at priority 1 and, being the
        # minimum itself, is the eviction victim; a stays and still hits.
        c = Cache(100, EvictionPolicy.LFUDA)
        for _ in range(5):
            c.request("a", 80)
        assert not c.request("b", 80)
        assert "b" not in c
        assert c.request("a", 80)

    def test_aging_level_tracks_evictions(self):
        c = Cache(100, EvictionPolicy.LFUDA)
        for _ in range(5):
            c.request("a", 100)
        assert c.aging_level == 0.0
        c.request("b", 100)  # b (priority 1) evicts itself
        assert c.aging_level == 1.0
        c.request("c", 100)  # c enters at L+1 = 2, beats a's stale 5? no: 2 < 5
        assert c.aging_level == 2.0
        assert "a" in c

    def test_aged_newcomers_eventually_displace_old_favorite(self):
        c = Cache(100, EvictionPolicy.LFUDA)
        for _ in range(5):
            c.request("a", 100)
        # each failed insert raises L by 1; once L + 1 > 5 the next newcomer
        # stays and a goes
        for _ in range(5):
            c.request("z", 100)
        assert "a" not in c
        assert "z" in c


class TestGdsf:
    def test_small_objects_preferred(self):
        # same frequency: priority 1/size favors small objects
        c = Cache(100, EvictionPolicy.GDSF)
        c.request("small", 10)
        c.request("mid", 40)
        c.request("big", 60)  # 10 + 40 + 60 > 100: evicts big (lowest 1/size)
        assert "small" in c and "mid" in c
        assert "big" not in c

    def test_frequency_beats_size(self):
        c = Cache(100, EvictionPolicy.GDSF)
        for _ in range(10):
            c.request("big", 60)  # priority 10/60
        c.request("small", 50)  # priority 1/50 < 10/60: small evicts itself
        assert "big" in c
        assert "small" not in c

    def test_big_newcomer_cannot_displace_residents(self):
        # A(8) at freq 2 (priority 0.25) and C(1) at freq 1 (priority 1.0)
        # fill 9 of 10 bytes. D(9) enters at 1/9, the lowest priority in the
        # pool, so D is the eviction victim and both residents survive.
        c = Cache(10, EvictionPolicy.GDSF)
        c.request("a", 8)
        c.request("a", 8)
        c.request("c", 1)
        assert c.occupancy == 9
        assert not c.request("d", 9)
        assert "a" in c and "c" in c
        assert "d" not in c
        assert c.aging_level == pytest.approx(1.0 / 9.0)


class TestQualityBands:
    def test_three_levels_eight_tiles(self, grid44):
        scores = visibility_map(Orientation(0.0, 0.0), FovSpec(100, 100), grid44, 32)
        levels = quality_bands(scores, quality_count=3)
        assert levels.shape == (16,)
        visible = sorted(rank_tiles(scores).tolist())
        assert visible == [1, 2, 5, 6, 9, 10, 13, 14]
        assert [levels[t] for t in rank_tiles(scores)] == [2, 2, 2, 2, 1, 1, 1, 1]
        hidden = [t for t in range(16) if t not in visible]
        assert all(levels[t] == 0 for t in hidden)

    def test_band_arithmetic(self, grid44):
        scores = visibility_map(Orientation(0.0, 0.0), FovSpec(89, 89), grid44, 32)
        assert len(rank_tiles(scores)) == 4
        levels = quality_bands(scores, quality_count=4)
        # ranks 0..3 map to bands 0,0,1,2 under rank*(q-1)//count
        assert sorted(levels[rank_tiles(scores)], reverse=True) == [3, 3, 2, 1]

    def test_single_quality_video(self, grid44):
        scores = visibility_map(Orientation(0.0, 0.0), FovSpec(100, 100), grid44, 16)
        assert (quality_bands(scores, quality_count=1) == 0).all()


class TestViewingAssignments:
    def test_stationary_viewer_constant_rows(self, flat_manifest):
        trace = constant_gaze(0.0, 0.0, duration=41.0, hz=10.0)
        rows = viewing_assignments(flat_manifest, trace, FovSpec(100, 100), 16)
        assert rows.shape == (27, 16)
        scores = visibility_map(Orientation(0.0, 0.0), FovSpec(100, 100), flat_manifest.grid, 16)
        expected = quality_bands(scores, 3)
        np.testing.assert_array_equal(rows, np.tile(expected, (27, 1)))


class TestWarm:
    @staticmethod
    def warmed(monkeypatch, manifest, traces, policy, capacity, seed, trace_count):
        """The cache that a one-iteration `run_experiment` warms, drawing
        from `traces`."""
        caches = []

        def spy(cache, manifest, viewings):
            warm(cache, manifest, viewings)
            caches.append(cache)

        monkeypatch.setattr(playback, "warm", spy)
        playback.run_experiment(
            manifest, traces, constant_rate_network(1e9, 2.0), [PolicyKind.NAIVE], 1,
            cache=Cache(capacity, policy), seed=seed,
            warm_trace_count=trace_count, fov=FovSpec(100, 100), samples_per_axis=8,
        )
        (cache,) = caches
        return cache

    def test_deterministic_for_same_seed(self, flat_manifest, monkeypatch):
        traces = gaussian_gaze_population(10, duration=41.0, hz=5.0, seed=1)
        caches = []
        for _ in range(2):
            c = self.warmed(monkeypatch, flat_manifest, traces, EvictionPolicy.LFUDA,
                            10**10, seed=3, trace_count=5)
            caches.append(c)
        assert len(caches[0]) == len(caches[1])
        assert caches[0].occupancy == caches[1].occupancy

    def test_replay_of_warmed_viewer_all_hits(self, flat_manifest):
        trace = constant_gaze(10.0, 5.0, duration=41.0, hz=10.0)
        c = Cache(10**12, EvictionPolicy.LRU)
        rows = viewing_assignments(flat_manifest, trace, FovSpec(100, 100), 8)
        warm(c, flat_manifest, [rows])
        from tilesim.manifest import segment_requests

        hits = [
            c.request(key, size)
            for seg in range(flat_manifest.segment_count)
            for key, size in segment_requests(flat_manifest, seg, rows[seg])
        ]
        assert hits and all(hits)

    def test_warm_count_caps_at_population(self, flat_manifest, monkeypatch):
        trace = constant_gaze(0.0, 0.0, duration=41.0, hz=5.0)
        c = self.warmed(monkeypatch, flat_manifest, [trace], EvictionPolicy.LRU,
                        10**12, seed=0, trace_count=30)
        assert len(c) > 0


class TestCopy:
    @staticmethod
    def state(cache):
        return (
            copy.deepcopy(cache._entries), list(cache._heap), cache._clock,
            cache.aging_level, cache.occupancy,
        )

    @staticmethod
    def replay(cache, stream, sizes):
        """Hits, and the keys each request evicted."""
        out = []
        for k in stream:
            before = set(cache._entries)
            hit = cache.request(k, int(sizes[k]))
            out.append((hit, before - set(cache._entries)))
        return out

    @pytest.mark.parametrize("policy", ["lru", "lfuda", "gdsf"])
    def test_copy_is_independent_and_evicts_alike(self, policy):
        rng = np.random.default_rng(9)
        sizes = rng.integers(1, 30, size=40)
        original = Cache(200, EvictionPolicy(policy))
        self.replay(original, [int(k) for k in rng.integers(0, 40, size=500)], sizes)
        assert original.aging_level > 0 or policy == "lru"
        twin = original.copy()
        assert self.state(twin) == self.state(original)
        kept = self.state(original)
        # Hit every resident first, then churn.
        stream = sorted(original._entries)
        stream += [int(k) for k in rng.integers(0, 40, size=2000)]
        on_twin = self.replay(twin, stream, sizes)
        assert self.state(original) == kept
        assert any(evicted for _, evicted in on_twin)
        assert self.replay(original, stream, sizes) == on_twin
        assert self.state(original) == self.state(twin)


class TestAgainstScanOracle:
    @pytest.mark.parametrize("policy", ["lru", "lfuda", "gdsf"])
    def test_exact_decision_trace(self, policy):
        rng = np.random.default_rng(123)
        sizes = rng.integers(1, 60, size=150)
        cache = Cache(400, EvictionPolicy(policy))
        oracle = ScanCache(400, policy)
        for _ in range(2000):
            k = int(rng.integers(0, 150))
            assert cache.request(k, int(sizes[k])) == oracle.request(k, int(sizes[k]))
            assert cache.occupancy == oracle.occupancy
            assert cache.occupancy <= 400
            assert cache.aging_level == oracle.level
        assert set(oracle.entries) == {k for k in range(150) if k in cache}

    def test_lru_long_stream_matches_oracle(self):
        rng = np.random.default_rng(77)
        sizes = rng.integers(1, 50, size=80)
        keys = rng.integers(0, 80, size=100_000)
        cache = Cache(600, EvictionPolicy.LRU)
        oracle = ScanCache(600, "lru")
        for k in keys:
            k = int(k)
            assert cache.request(k, int(sizes[k])) == oracle.request(k, int(sizes[k]))
        assert cache.occupancy == oracle.occupancy <= 600

    @pytest.mark.parametrize("policy", ["lru", "lfuda", "gdsf"])
    def test_hit_heavy_stream_keeps_heap_bounded(self, policy):
        # 10 live entries hit over and over: the heap is rebuilt from the live
        # entries instead of keeping one stale item per hit.
        cache = Cache(1000, EvictionPolicy(policy))
        for k in range(20_000):
            cache.request(k % 10, 10)
        assert len(cache) == 10
        assert len(cache._heap) <= 2 * len(cache)
        # Mostly hits with some churn: decisions still match the scan oracle,
        # and the heap never holds more than twice the entries that were live
        # before the call plus its newcomer.
        rng = np.random.default_rng(5)
        sizes = rng.integers(1, 30, size=40)
        cache = Cache(300, EvictionPolicy(policy))
        oracle = ScanCache(300, policy)
        for _ in range(20_000):
            k = int(rng.integers(0, 12)) if rng.random() < 0.9 else int(rng.integers(0, 40))
            before = len(cache)
            assert cache.request(k, int(sizes[k])) == oracle.request(k, int(sizes[k]))
            assert cache.aging_level == oracle.level
            assert len(cache._heap) <= 2 * (before + 1)

    @given(
        policy=st.sampled_from(["lru", "lfuda", "gdsf"]),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_streams_agree(self, policy, seed):
        rng = np.random.default_rng(seed)
        n_keys = int(rng.integers(5, 40))
        sizes = rng.integers(1, 30, size=n_keys)
        capacity = int(rng.integers(20, 120))
        cache = Cache(capacity, EvictionPolicy(policy))
        oracle = ScanCache(capacity, policy)
        for _ in range(300):
            k = int(rng.integers(0, n_keys))
            assert cache.request(k, int(sizes[k])) == oracle.request(k, int(sizes[k]))
            assert cache.occupancy == oracle.occupancy <= capacity


class _Deletions(dict):
    """A cache's entry dict that logs every key deleted from it, in order."""

    def __init__(self, entries, log):
        super().__init__(entries)
        self.log = log

    def __delitem__(self, key):
        self.log.append(key)
        super().__delitem__(key)


class TestAgainstHeapOracle:
    """The tuple-entry cache against the mutable-entry heap cache it replaced."""

    @staticmethod
    def tracked(new, old):
        for cache in (new, old):
            cache._entries = _Deletions(cache._entries, [])
        return new, old

    @staticmethod
    def state(cache, entries):
        return (
            entries, list(cache._heap), cache.aging_level, cache.occupancy,
            cache._entries.log,
        )

    @given(
        policy=st.sampled_from(list(EvictionPolicy)),
        capacity=st.integers(1, 150),
        sizes=st.lists(st.integers(1, 50), min_size=1, max_size=40),
        # (which cache, key); a negative key copies that cache instead
        ops=st.lists(st.tuples(st.integers(0, 7), st.integers(-3, 39)), max_size=400),
    )
    @settings(max_examples=200, deadline=None)
    def test_requests_and_copies_agree(self, policy, capacity, sizes, ops):
        pairs = [self.tracked(Cache(capacity, policy), HeapCache(capacity, policy))]
        for which, key in ops:
            new, old = pairs[which % len(pairs)]
            if key < 0:
                twin = new.copy()
                # tracked() gives the twin a new dict, so check it had its own.
                assert twin._entries is not new._entries and twin._heap is not new._heap
                pairs.append(self.tracked(twin, old.copy()))
            else:
                size = sizes[key % len(sizes)]
                assert new.request(key, size) == old.request(key, size)
            # Every cache, not just the one requested: a copy that shared
            # state with its source would change both.
            for new, old in pairs:
                live = {k: astuple(e) for k, e in old._entries.items()}
                assert self.state(new, dict(new._entries)) == self.state(old, live)
