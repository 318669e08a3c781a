"""Acceptance gate: ten checks, one test per criterion.

Run with `pytest -v tests/test_acceptance.py` for one pass/fail line per
criterion. Each test is independent; all use only public package APIs.
"""

import copy
import hashlib
import json

import numpy as np
import pytest

from helpers import (
    ScanCache,
    record_dicts,
    savings_vs_naive,
    session_dict,
    staircase_scenario,
)
from tilesim.adaptation import PolicyKind
from tilesim.cachesim import Cache, EvictionPolicy
from tilesim.cli import main
from tilesim.geometry import FovSpec, Orientation, TileGrid, orthodromic_distance
from tilesim.manifest import file_count, synthesize
from tilesim import traceio
from tilesim.netsim import save_trace
from tilesim.playback import (
    SessionConfig,
    run_experiment,
    simulate,
)
from tilesim.popularity import build_heat, quantize
from tilesim.prediction import error_experiment
from tilesim.synthetic import (
    constant_gaze,
    constant_rate_network,
    gaussian_gaze_population,
    linear_gaze,
    sinusoid_gaze,
    two_phase_network,
)

QUAD = FovSpec(89.0, 89.0)


def test_criterion_01_file_count():
    assert file_count(4, 4, 3, 40.0, 1.5) == 1345
    print("criterion 1 PASS: 4x4 grid, 3 levels, 40 s / 1.5 s -> 1345 files")


def test_criterion_02_metric_laws():
    rng = np.random.default_rng(0)
    tol = 1e-6
    for _ in range(10_000):
        yaws = rng.uniform(-180.0, 180.0, 3)
        pitches = rng.uniform(-90.0, 90.0, 3)
        a, b, c = (Orientation(y, p) for y, p in zip(yaws, pitches))
        ab, ba, ac, bc = (
            orthodromic_distance(a, b),
            orthodromic_distance(b, a),
            orthodromic_distance(a, c),
            orthodromic_distance(b, c),
        )
        assert abs(ab - ba) <= tol
        assert orthodromic_distance(a, a) <= tol
        assert -tol <= ab <= 180.0 + tol
        assert ac <= ab + bc + tol
    print("criterion 2 PASS: symmetry/identity/bound/triangle on 1e4 triples")


def test_criterion_03_prediction_sanity():
    intervals = [0.5, 1.0, 1.5, 2.0]
    for trace in (
        linear_gaze(0.0, 10.0, 30.0, hz=90.0),
        linear_gaze(-40.0, -6.0, 30.0, hz=90.0, pitch0=10.0, pitch_rate=-0.8),
    ):
        for interval in intervals:
            errors = error_experiment(trace, interval, 1.0, 1.5)
            assert errors.max() <= 1e-6

    for seed in range(30):
        rng = np.random.default_rng(seed)
        trace = sinusoid_gaze(
            amplitude=60.0,
            period=8.0,
            duration=30.0,
            hz=90.0,
            phase=float(rng.uniform(0.0, 2.0 * np.pi)),
            center_yaw=float(rng.uniform(-30.0, 30.0)),
        )
        means = [
            float(error_experiment(trace, interval, 1.0, 1.5).mean())
            for interval in intervals
        ]
        assert all(lo < hi for lo, hi in zip(means, means[1:])), (seed, means)
    print("criterion 3 PASS: zero linear error; sinusoid error rises with lookahead")


def test_criterion_04_bandwidth_savings(flat_manifest):
    net = constant_rate_network(300e6, 5.0)
    gaze = constant_gaze(0.0, 0.0, 41.0, hz=10.0)

    def session(manifest, policy, **kw):
        return simulate(SessionConfig(
            manifest=manifest, viewing_trace=gaze, network_trace=net,
            policy=policy, **kw,
        ))

    naive = session(flat_manifest, PolicyKind.NAIVE)
    four_high = session(flat_manifest, PolicyKind.PREDICTION, fov=QUAD)
    sav = savings_vs_naive(four_high, naive)
    assert (np.abs(sav - 0.703) <= 0.001).all()

    all_low = copy.deepcopy(flat_manifest)
    all_low.popularity = np.zeros((27, 16), dtype=np.int64)
    low = session(all_low, PolicyKind.POPULARITY)
    assert (savings_vs_naive(low, naive) == 0.9375).all()
    print("criterion 4 PASS: 4-high/12-low saves 70.3% +/- 0.1%; all-low 93.75%")


def test_criterion_05_cache_oracles():
    for offset, policy in enumerate(EvictionPolicy):
        for seed in range(30):
            rng = np.random.default_rng(1000 * offset + seed)
            cache = Cache(400, policy)
            oracle = ScanCache(400, policy.value)
            keys = [f"k{i}" for i in range(150)]
            sizes = {k: int(rng.integers(1, 61)) for k in keys}
            for _ in range(1000):
                key = keys[int(rng.integers(0, len(keys)))]
                got = cache.request(key, sizes[key])
                want = oracle.request(key, sizes[key])
                assert got == want, (policy, seed, key)
                assert cache.occupancy <= 400
            assert cache.aging_level == pytest.approx(oracle.level)
    print("criterion 5 PASS: LRU/LFUDA/GDSF match the scan oracle, 3x30x1000 ops")


def test_criterion_06_policy_characteristics():
    object_count = 400
    ranks = np.arange(1, object_count + 1)
    weights = 1.0 / ranks
    probs = weights / weights.sum()
    # popularity-anticorrelated sizes: hottest object smallest
    sizes = 1 + (149 * (ranks - 1) // (object_count - 1))
    capacity = 3000
    chr_by, bhr_by = {}, {}
    for policy in EvictionPolicy:
        chrs, bhrs = [], []
        for seed in range(30):
            rng = np.random.default_rng(seed)
            draws = rng.choice(object_count, size=5000, p=probs)
            cache = Cache(capacity, policy)
            for obj in draws:
                cache.request(f"o{obj}", int(sizes[obj]))
            chrs.append(cache.stats.hit_rate)
            bhrs.append(cache.stats.byte_hit_rate)
        chr_by[policy] = float(np.mean(chrs))
        bhr_by[policy] = float(np.mean(bhrs))
    assert bhr_by[EvictionPolicy.LFUDA] >= bhr_by[EvictionPolicy.LRU]
    assert chr_by[EvictionPolicy.GDSF] >= chr_by[EvictionPolicy.LFUDA]
    print(
        "criterion 6 PASS: Zipf(1.0) means - "
        f"BHR lfuda {bhr_by[EvictionPolicy.LFUDA]:.3f} >= lru "
        f"{bhr_by[EvictionPolicy.LRU]:.3f}; CHR gdsf "
        f"{chr_by[EvictionPolicy.GDSF]:.3f} >= lfuda "
        f"{chr_by[EvictionPolicy.LFUDA]:.3f}"
    )


def test_criterion_07_transition_boundaries():
    m, gaze, stair, seg_bits = staircase_scenario(15.0)
    required = seg_bits / m.segment_length
    net = two_phase_network(
        8 * required, required / 8, cut_s=6.0, duration_s=45.0, recover_s=42.0
    )
    got = simulate(SessionConfig(
        manifest=m, viewing_trace=gaze, network_trace=net,
        policy=PolicyKind.TRANSITION, samples_per_axis=16,
    ))
    active = [r.policy for r in got.records]
    assert active == ["prediction"] * 6 + ["popularity"] * 3 + ["prediction"]
    print(
        "criterion 7 PASS: switch to popularity at segment 6, back at segment 9 "
        "(one segment after recovery)"
    )


def test_criterion_08_convergence_to_pure_policies():
    m, gaze, stair, seg_bits = staircase_scenario(15.0)

    def session(policy, net):
        return simulate(SessionConfig(
            manifest=m, viewing_trace=gaze, network_trace=net,
            policy=policy, samples_per_axis=16,
        ))

    ample = constant_rate_network(1e9, 2.0)
    always_high = {p: session(p, ample)
                   for p in (PolicyKind.TRANSITION, PolicyKind.PREDICTION)}
    d_t = session_dict(always_high[PolicyKind.TRANSITION])
    d_p = session_dict(always_high[PolicyKind.PREDICTION])
    assert d_t.pop("policy") == "transition"
    assert d_p.pop("policy") == "prediction"
    assert json.dumps(d_t, sort_keys=True) == json.dumps(d_p, sort_keys=True)

    starved = constant_rate_network(2e6, 30.0)
    always_low = {p: session(p, starved)
                  for p in (PolicyKind.TRANSITION, PolicyKind.POPULARITY)}
    ours = record_dicts(always_low[PolicyKind.TRANSITION])
    theirs = record_dicts(always_low[PolicyKind.POPULARITY])
    assert ours[1:] == theirs[1:]
    print(
        "criterion 8 PASS: ample transition == prediction; starved transition == "
        "popularity from segment 2 on"
    )


def test_criterion_09_qoe_orderings():
    m = synthesize(
        name="qoe", duration=40.0, segment_length=1.5, grid=TileGrid(4, 4),
        quality_count=3, base_bitrate_bps=20e6, variability=0.0,
    )
    # 27 viewers cluster on the front tiles; 3 look off to the side. The
    # cluster makes the popularity trace's four hot tiles a permanent part
    # of the warmed cache, while the side viewers request tiles nobody
    # warms at top level, so only their sessions ever touch the origin and
    # feel the bandwidth cut.
    fov = FovSpec(80.0, 40.0)
    traces = gaussian_gaze_population(
        27, 41.0, hz=10.0, yaw_std=12.0, pitch_std=2.0, seed=11
    )
    traces += [constant_gaze(yaw, 1.0, 41.0, hz=10.0) for yaw in (78.0, 81.0, 84.0)]
    heat = build_heat(traces, m.grid, fov, m.segment_length, m.duration,
                      samples_per_axis=16)
    m.popularity = quantize(heat, m)
    net = two_phase_network(250e6, 2e6, cut_s=20.0, duration_s=300.0)

    report = run_experiment(
        manifest=m,
        viewing_traces=traces,
        network_trace=net,
        policies=[PolicyKind.PREDICTION, PolicyKind.POPULARITY,
                  PolicyKind.PREDICTION_BA, PolicyKind.TRANSITION],
        iterations=30,
        cache_policy=EvictionPolicy.LFUDA,
        cache_capacity_bytes=int(0.5 * m.sizes.sum()),
        seed=0,
        fov=fov,
        samples_per_axis=16,
    )

    def quality(policy):
        return np.array([r.avg_quality for r in report.runs[policy.value]])

    def stalls(policy):
        return np.array([r.total_stall for r in report.runs[policy.value]])

    q_tr, q_ba = quality(PolicyKind.TRANSITION), quality(PolicyKind.PREDICTION_BA)
    q_pred, q_pop = quality(PolicyKind.PREDICTION), quality(PolicyKind.POPULARITY)
    assert q_tr.mean() > q_ba.mean()
    gain = report.quality_gain_percent()
    assert gain is not None and gain > 0.0

    lo = np.minimum(q_pred, q_pop) - 1e-9
    hi = np.maximum(q_pred, q_pop) + 1e-9
    assert ((lo <= q_tr) & (q_tr <= hi)).all()

    assert stalls(PolicyKind.POPULARITY).mean() <= stalls(PolicyKind.PREDICTION).mean()
    print(
        "criterion 9 PASS: quality transition "
        f"{q_tr.mean():.3f} > prediction-ba {q_ba.mean():.3f} (gain {gain:+.1f}%); "
        "per-run transition bracketed; stall popularity "
        f"{stalls(PolicyKind.POPULARITY).mean():.2f}s <= prediction "
        f"{stalls(PolicyKind.PREDICTION).mean():.2f}s"
    )


def _tree_hashes(root):
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_criterion_10_cli_determinism(tmp_path):
    manifest = tmp_path / "m.json"
    traces = tmp_path / "traces"
    traces.mkdir()
    for i, yaw in enumerate((0.0, 30.0, -25.0)):
        traceio.save_viewing_trace(
            constant_gaze(yaw, 0.0, 41.0, hz=10.0), str(traces / f"v{i}.csv")
        )
    lin = tmp_path / "lin"
    lin.mkdir()
    traceio.save_viewing_trace(linear_gaze(0.0, 8.0, 41.0, hz=30.0), str(lin / "pan.csv"))
    network = tmp_path / "net.txt"
    save_trace(two_phase_network(200e6, 4e6, cut_s=15.0, duration_s=90.0), str(network))
    out = tmp_path / "out"
    pred_out = tmp_path / "pred"

    synth_args = ["synth", "--out", str(manifest), "--variability", "0.3", "--seed", "5"]
    pop_args = ["popularity", "--manifest", str(manifest), "--traces", str(traces)]
    run_args = [
        "run", "--manifest", str(manifest), "--traces", str(traces),
        "--network", str(network),
        "--policies", "naive,prediction,popularity,prediction-ba,transition",
        "--iterations", "2", "--seed", "3", "--cache-policy", "lfuda",
        "--cache-capacity", str(10**9), "--warm-traces", "3",
        "--samples", "8", "--out", str(out),
    ]
    pred_args = ["predict-error", "--traces", str(lin), "--out", str(pred_out)]

    snapshots = []
    for _ in range(2):
        for args in (synth_args, pop_args, run_args, pred_args):
            assert main(args) == 0
        snapshots.append(_tree_hashes(tmp_path))
    assert snapshots[0] == snapshots[1]
    print("criterion 10 PASS: synth/popularity/run/predict-error byte-stable on rerun")
