"""The shared greedy walk, tile ranking, group-by, packet-slot builder,
batched visibility kernel, trace loaders and lookups, segment requests, the
plan-driven simulate and run_experiment against the code they replaced (kept in helpers.py). Results must be
bit-identical: levels and timestamps array-equal, visibility rows, heat
arrays and loaded traces byte-equal, errors word for word, report rows equal
down to the repr of every float.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    build_heat_oracle,
    constant_rate_network_oracle,
    estimate_oracle,
    load_trace_oracle,
    load_viewing_trace_oracle,
    nearest_sample_oracle,
    policy_summary_oracle,
    predicted_map_oracle,
    popularity_share_oracle,
    prediction_summary_oracle,
    quality_bands_oracle,
    quantize_oracle,
    ranked_tiles_oracle,
    record_dicts,
    run_experiment_oracle,
    samples,
    scalar_tile_visibility,
    segment_requests_oracle,
    select_prediction_oracle,
    select_window_oracle,
    simulate_oracle,
    trace_of,
    viewing_assignments_oracle,
)
from tilesim.adaptation import PolicyKind, select_prediction
from tilesim.cachesim import Cache, EvictionPolicy, quality_bands, viewing_assignments
from tilesim.cli import prediction_summary_rows
from tilesim.geometry import (
    CHUNK_SAMPLES,
    FovSpec,
    Orientation,
    TileGrid,
    ViewingTrace,
    VisibilityMap,
    normalize_yaw,
    rank_tiles,
    tile_visibility,
)
from tilesim.manifest import (
    count_segments,
    naive_segment_bytes,
    segment_bits,
    segment_requests,
    synthesize,
)
from tilesim.netsim import load_trace
from tilesim.playback import (
    SessionConfig,
    estimate_rows,
    policy_summary_rows,
    popularity_share_rows,
    prediction_plan,
    run_experiment,
    segment_rows,
    simulate,
)
from tilesim.popularity import HeatMap, build_heat, quantize
from tilesim.prediction import PredictorConfig, nearest_sample, select_window
from tilesim.synthetic import constant_gaze, constant_rate_network, drifting_gaze, linear_gaze
from tilesim.traceio import load_viewing_trace

TIE_DENOM = 4  # scores are multiples of 1/TIE_DENOM**2, so ties are common


@st.composite
def manifests(draw):
    grid = TileGrid(draw(st.integers(1, 6)), draw(st.integers(1, 4)))
    return synthesize(
        "prop",
        duration=draw(st.sampled_from([1.5, 4.5, 6.0])),
        segment_length=1.5,
        grid=grid,
        quality_count=draw(st.integers(1, 4)),
        base_bitrate_bps=draw(st.sampled_from([1e6, 20e6])),
        variability=draw(st.sampled_from([0.0, 0.3, 0.9])),
        seed=draw(st.integers(0, 1000)),
    )


def tie_scores(draw, tiles: int) -> np.ndarray:
    counts = draw(
        st.lists(st.integers(0, TIE_DENOM**2), min_size=tiles, max_size=tiles)
    )
    return np.array(counts, dtype=float) / TIE_DENOM**2


def budgets(draw, manifest, segment: int, scores: np.ndarray) -> float | None:
    """None; the bit rate of the walk's own top-level prefix over the first k
    ranked tiles, or one ulp below it, where only the walk's float slack
    keeps the prefix feasible; or up to 1.2x the all-top bit rate."""
    kind = draw(st.sampled_from(["none", "prefix", "range"]))
    if kind == "none":
        return None
    if kind == "prefix":
        levels = np.zeros(manifest.grid.tile_count, dtype=np.int64)
        prefix = ranked_tiles_oracle(scores)[: draw(st.integers(0, manifest.grid.tile_count))]
        levels[prefix] = manifest.quality_count - 1
        bits = float(segment_bits(manifest, segment, levels))
        if draw(st.booleans()):
            bits = float(np.nextafter(bits, 0.0))
        return bits / manifest.segment_length
    top_bps = 8 * naive_segment_bytes(manifest, segment) / manifest.segment_length
    return draw(st.floats(0.0, 1.2)) * top_bps


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_rank_tiles_and_visible_tiles_match_python_sort(data):
    scores = tie_scores(data.draw, data.draw(st.integers(1, 40)))
    expected = ranked_tiles_oracle(scores)
    ranked = rank_tiles(scores)
    assert ranked.dtype == expected.dtype
    np.testing.assert_array_equal(ranked, expected)
    grid = TileGrid(scores.size, 1)
    np.testing.assert_array_equal(VisibilityMap(grid, scores).visible_tiles(), expected)


@given(data=st.data(), quality_count=st.integers(1, 5))
@settings(max_examples=300, deadline=None)
def test_quality_bands_match_rank_loop(data, quality_count):
    scores = tie_scores(data.draw, data.draw(st.integers(1, 40)))
    np.testing.assert_array_equal(
        quality_bands(scores, quality_count), quality_bands_oracle(scores, quality_count)
    )


@given(m=manifests(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_select_prediction_matches_scalar_walk(m, data):
    segment = data.draw(st.integers(0, m.segment_count - 1))
    scores = tie_scores(data.draw, m.grid.tile_count)
    budget = budgets(data.draw, m, segment, scores)
    vis = VisibilityMap(m.grid, scores)
    np.testing.assert_array_equal(
        select_prediction(m, segment, vis, budget),
        select_prediction_oracle(m, segment, scores, budget),
    )


@given(m=manifests(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_quantize_matches_scalar_walk(m, data):
    heat = np.stack([tie_scores(data.draw, m.grid.tile_count) for _ in range(m.segment_count)])
    heat *= data.draw(st.sampled_from([1.0, 7.0, 300.0]))  # heat sums many samples
    budget = budgets(data.draw, m, 0, heat[0]) or 0.0
    got = quantize(HeatMap(m.grid, m.segment_length, heat), m, budget)
    np.testing.assert_array_equal(got, quantize_oracle(heat, m, budget))


@st.composite
def fovs(draw):
    """Up to 360x180, the full sphere included."""
    return FovSpec(
        draw(st.sampled_from([360.0, 100.0, 0.5]) | st.floats(0.01, 360.0)),
        draw(st.sampled_from([180.0, 100.0, 0.5]) | st.floats(0.01, 180.0)),
    )


@st.composite
def poses(draw, grid):
    """Random poses, the poles, yaw +-180 and angles exactly on tile edges."""
    edge_yaws = [-180.0 + i * 360.0 / grid.cols for i in range(grid.cols + 1)]
    edge_pitches = [90.0 - j * 180.0 / grid.rows for j in range(grid.rows + 1)]
    yaw = draw(st.sampled_from(edge_yaws) | st.floats(-180.0, 180.0))
    pitch = draw(st.sampled_from([90.0, -90.0, *edge_pitches]) | st.floats(-90.0, 90.0))
    return Orientation(yaw, pitch)


@given(data=st.data(), n=st.integers(1, 40), fov=fovs())
@settings(max_examples=150, deadline=None)
def test_tile_visibility_rows_match_the_scalar_kernel(data, n, fov):
    """Batches of 0, 1, chunk-1, chunk and chunk+1 poses, cycling through a
    few distinct poses so every chunk position is checked against the
    scalar map of its pose."""
    grid = TileGrid(data.draw(st.integers(1, 12)), data.draw(st.integers(1, 8)))
    chunk = max(1, CHUNK_SAMPLES // (n * n))
    length = data.draw(st.sampled_from([0, 1, chunk - 1, chunk, chunk + 1]))
    pool = data.draw(st.lists(poses(grid), min_size=1, max_size=5))
    batch = tuple(pool[k % len(pool)] for k in range(length))
    rows = tile_visibility(batch, fov, grid, n)
    assert rows.shape == (length, grid.tile_count)
    expected = [scalar_tile_visibility(o, fov, grid, n).tobytes() for o in pool]
    for k, row in enumerate(rows):
        assert row.tobytes() == expected[k % len(pool)], (k, batch[k])


@st.composite
def heat_traces(draw, duration, segment_length):
    """Samples before 0, at 0, on segment boundaries, just below and at the
    duration, past it and in between; sorted, or in any order."""
    special = st.sampled_from([
        -segment_length, -1e-9, 0.0, duration, duration + segment_length,
        float(np.nextafter(duration, 0.0)),
        *(k * segment_length for k in range(count_segments(duration, segment_length) + 1)),
    ])
    grid = TileGrid(4, 3)
    traces = []
    for _ in range(draw(st.integers(1, 3))):
        times = draw(st.lists(
            special | st.floats(-1.0, duration + 1.0), max_size=25, unique=True
        ))
        if draw(st.booleans()):
            times.sort()
        traces.append(trace_of([(t, draw(poses(grid))) for t in times]))
    return traces


@given(data=st.data(), n=st.integers(1, 12), fov=fovs())
@settings(max_examples=150, deadline=None)
def test_build_heat_matches_the_per_sample_loop(data, n, fov):
    grid = TileGrid(data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4)))
    segment_length, duration = data.draw(
        st.sampled_from([(1.5, 4.5), (1.0, 3.0), (0.1, 0.3), (1.5, 4.0)])
    )
    traces = data.draw(heat_traces(duration, segment_length))
    heat = build_heat(traces, grid, fov, segment_length, duration, n)
    expected = build_heat_oracle(traces, grid, fov, segment_length, duration, n)
    assert heat.heat.shape == expected.shape
    assert heat.heat.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [3, 7, 32])
def test_build_heat_matches_the_per_sample_loop_on_dense_traces(n):
    """Three wandering 90 Hz viewers, so each heat cell sums hundreds of maps
    whose scores are not dyadic: any change in summation order shows."""
    traces = [drifting_gaze(seed, 3.0, hz=90.0) for seed in range(3)]
    args = (traces, TileGrid(8, 4), FovSpec(100.0, 90.0), 1.0, 3.0, n)
    assert build_heat(*args).heat.tobytes() == build_heat_oracle(*args).tobytes()


@given(m=manifests(), data=st.data(), n=st.integers(1, 12), fov=fovs())
@settings(max_examples=100, deadline=None)
def test_viewing_assignments_match_one_scalar_map_per_segment(m, data, n, fov):
    times = sorted(data.draw(st.lists(
        st.floats(-1.0, m.duration + 1.0), min_size=1, max_size=20, unique=True
    )))
    trace = trace_of([(t, data.draw(poses(m.grid))) for t in times])
    got = viewing_assignments(m, trace, fov, n)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, viewing_assignments_oracle(m, trace, fov, n))


finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)

segment_row = st.fixed_dictionaries(
    {
        "policy": st.sampled_from(["transition", "prediction", "popularity"]),
        "iteration": st.integers(0, 3),
        "segment": st.integers(0, 3),
        "active": st.sampled_from(["prediction", "popularity"]),
        "stall": finite,
        "mean_quality": finite,
        "savings": finite,
        "estimate_bps": st.none() | finite,
    }
)

step_row = st.fixed_dictionaries(
    {
        "trace": st.sampled_from(["a.csv", "b.csv"]),
        "interval": st.sampled_from([0.5, 1.0, 1.5]),
        "timeframe": st.sampled_from([0.1, 1.0]),
        "error_deg": st.floats(0.0, 180.0),
    }
)


@given(rows=st.lists(segment_row, max_size=60))
@settings(max_examples=300, deadline=None)
def test_report_group_bys_match_seen_list_scans(rows):
    for fast, slow in (
        (policy_summary_rows, policy_summary_oracle),
        (popularity_share_rows, popularity_share_oracle),
        (estimate_rows, estimate_oracle),
    ):
        assert repr(fast(rows)) == repr(slow(rows))


@given(rows=st.lists(step_row, min_size=1, max_size=60))
@settings(max_examples=300, deadline=None)
def test_prediction_summary_matches_seen_list_scan(rows):
    assert repr(prediction_summary_rows(rows)) == repr(prediction_summary_oracle(rows))


@given(rate=st.floats(1e3, 4e8), duration=st.floats(0.001, 5.0))
@example(rate=1e9, duration=2.0)
@example(rate=2e6, duration=30.0)
@settings(max_examples=100, deadline=None)
def test_constant_rate_network_matches_its_old_body(rate, duration):
    np.testing.assert_array_equal(
        constant_rate_network(rate, duration).timestamps_ms,
        constant_rate_network_oracle(rate, duration),
    )


@st.composite
def experiments(draw):
    """run_experiment arguments: a manifest with a popularity plan; viewers
    that share or miss each other's tiles; no cache, or a cache from one that
    evicts on nearly every request to one that holds the whole manifest;
    more iterations and warm-up viewings than traces; policy lists with and
    without transition, each policy at most once."""
    m = draw(manifests())
    m.popularity = np.array(
        draw(st.lists(
            st.integers(0, m.quality_count - 1),
            min_size=m.segment_count * m.grid.tile_count,
            max_size=m.segment_count * m.grid.tile_count,
        )),
        dtype=np.int64,
    ).reshape(m.segment_count, m.grid.tile_count)
    span = m.duration + 1.0
    traces = []
    for _ in range(draw(st.integers(1, 3))):
        yaw = draw(st.sampled_from([-120.0, 0.0, 5.0, 90.0]))
        pitch = draw(st.sampled_from([-30.0, 0.0, 20.0]))
        rate = draw(st.sampled_from([0.0, 30.0]))
        traces.append(
            constant_gaze(yaw, pitch, span, hz=4.0) if rate == 0.0
            else linear_gaze(yaw, rate, span, hz=4.0, pitch0=pitch)
        )
    cache_policy = draw(st.sampled_from([None, *EvictionPolicy]))
    share = draw(st.sampled_from([0.0, 0.01, 0.1, 0.4, 2.0]))
    policies = draw(
        st.lists(st.sampled_from(list(PolicyKind)), min_size=1, max_size=4, unique=True)
    )
    if PolicyKind.TRANSITION not in policies and draw(st.booleans()):
        policies.append(PolicyKind.TRANSITION)
    return dict(
        manifest=m,
        viewing_traces=traces,
        network_trace=constant_rate_network(
            draw(st.sampled_from([0.3e6, 3e6, 50e6])), 8.0
        ),
        policies=policies,
        iterations=draw(st.integers(1, len(traces) + 2)),
        cache_policy=cache_policy,
        cache_capacity_bytes=int(share * int(m.sizes.sum())),
        seed=draw(st.integers(0, 50)),
        warm_trace_count=draw(
            st.sampled_from([0, 1, len(traces) + 1]) | st.integers(0, len(traces))
        ),
        fov=FovSpec(*draw(st.sampled_from([(100.0, 100.0), (60.0, 40.0)]))),
        samples_per_axis=4,
        cache_rate_bps=draw(st.sampled_from([1e6, 100e6])),
        hysteresis=draw(st.sampled_from([1.0, 1.5])),
    )


def _cache_rates(report):
    return [
        (m.cache_hit_rate, m.cache_byte_hit_rate)
        for policy in report.policies
        for m in report.runs[policy]
    ]


REPEATED_POLICY = dict(  # a policy listed twice, over two differing iterations
    manifest=synthesize("rep", duration=6.0, segment_length=1.5, grid=TileGrid(3, 2)),
    viewing_traces=[constant_gaze(yaw, 0.0, 7.0, hz=4.0) for yaw in (0.0, 120.0)],
    network_trace=constant_rate_network(3e6, 8.0),
    policies=[PolicyKind.PREDICTION, PolicyKind.PREDICTION],
    iterations=2,
    cache_policy=EvictionPolicy.LRU,
    cache_capacity_bytes=10**9,
    seed=1,
    warm_trace_count=1,
    samples_per_axis=4,
)


@given(kwargs=experiments())
@settings(max_examples=150, deadline=None)
def test_run_experiment_matches_a_fresh_warm_up_per_session(kwargs):
    new = run_experiment(**kwargs)
    old = run_experiment_oracle(**kwargs)
    assert repr(segment_rows(new)) == repr(segment_rows(old))
    assert _cache_rates(new) == _cache_rates(old)


@given(m=manifests(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_segment_requests_match_one_scalar_read_per_tile(m, data):
    segment = data.draw(st.integers(0, m.segment_count - 1))
    levels = data.draw(st.lists(
        st.integers(0, m.quality_count - 1),
        min_size=m.grid.tile_count, max_size=m.grid.tile_count,
    ))
    for assignment in (np.array(levels, dtype=np.int64), levels):
        new = segment_requests(m, segment, assignment)
        old = segment_requests_oracle(m, segment, assignment)
        assert new == old
        assert [type(x) for key, size in new for x in (*key, size)] == [
            type(x) for key, size in old for x in (*key, size)
        ]


@st.composite
def viewing_traces(draw, duration):
    """Traces covering [0, duration + 1] s: dense ones, where every window
    holds samples, and sparse ones, where most windows are empty and the
    nearest sample stands in; times start at or before 0."""
    hz = draw(st.sampled_from([0.4, 1.0, 4.0, 30.0]))
    start = draw(st.sampled_from([0.0, -0.25, -2.0]))
    count = int((duration + 1.0 - start) * hz) + 2
    t = start + np.arange(count) / hz
    t[1:] += draw(st.floats(0.0, 0.5 / hz))  # shift off the window edges, or not
    yaw = np.cumsum(draw(st.lists(st.floats(-40.0, 40.0), min_size=count, max_size=count)))
    pitch = draw(st.lists(st.floats(-89.0, 89.0), min_size=count, max_size=count))
    return ViewingTrace.from_angles(t, yaw, pitch, np.zeros(count))


@given(m=manifests(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_simulate_matches_a_session_that_predicts_its_own_poses(m, data):
    m.popularity = np.array(data.draw(st.lists(
        st.integers(0, m.quality_count - 1),
        min_size=m.segment_count * m.grid.tile_count,
        max_size=m.segment_count * m.grid.tile_count,
    )), dtype=np.int64).reshape(m.segment_count, m.grid.tile_count)
    cache_policy = data.draw(st.sampled_from([None, *EvictionPolicy]))
    kwargs = dict(
        manifest=m,
        viewing_trace=data.draw(viewing_traces(m.duration)),
        network_trace=constant_rate_network(
            data.draw(st.sampled_from([0.3e6, 3e6, 50e6])), 8.0
        ),
        policy=data.draw(st.sampled_from(list(PolicyKind))),
        cache_rate_bps=data.draw(st.sampled_from([1e6, 100e6])),
        fov=FovSpec(*data.draw(st.sampled_from([(100.0, 100.0), (60.0, 40.0)]))),
        predictor=PredictorConfig(
            timeframe=data.draw(st.sampled_from([0.1, 0.5, 1.0])),
            interval=data.draw(st.sampled_from([None, 0.0, 0.7, 3.0])),
        ),
        samples_per_axis=data.draw(st.integers(1, 6)),
        hysteresis=data.draw(st.sampled_from([1.0, 1.2, 2.0])),
    )
    share = data.draw(st.sampled_from([0.05, 0.5]))

    def cache():  # the same cold cache for both runs
        if cache_policy is None:
            return None
        c = Cache(int(share * int(m.sizes.sum())), cache_policy)
        for seg in range(0, m.segment_count, 2):
            for key, size in segment_requests(m, seg, m.popularity[seg]):
                c.request(key, size)
        c.reset_stats()
        return c

    cfg = SessionConfig(**kwargs)
    plan = prediction_plan(cfg)
    for seg, vis in enumerate(plan.visibility):
        expected = predicted_map_oracle(cfg, seg)
        assert vis.scores.tobytes() == expected.scores.tobytes()
        wanted = select_prediction(m, seg, expected, None)
        assert plan.required_bps[seg] == segment_bits(m, seg, wanted) / m.segment_length
    new = simulate(SessionConfig(cache=cache(), **kwargs))
    old = simulate_oracle(SessionConfig(cache=cache(), **kwargs))
    assert new.policy == old.policy
    assert repr(record_dicts(new)) == repr(record_dicts(old))
    assert new.savings.tobytes() == old.savings.tobytes()
    assert (new.cache_hit_rate, new.cache_byte_hit_rate) == (
        old.cache_hit_rate, old.cache_byte_hit_rate
    )


def test_run_experiment_rejects_a_repeated_policy():
    with pytest.raises(ValueError, match="listed once"):
        run_experiment(**REPEATED_POLICY)


# --- trace loaders and lookups ----------------------------------------------


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle_traces")


def _outcome(load, path: str):
    """What load(path) returns, or the type and text of what it raises; a
    warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return load(path)
        except (ValueError, OverflowError) as e:
            return type(e), str(e)


@st.composite
def text_files(draw, lines: list[str], messy: bool) -> bytes:
    """`lines` joined with LF or CRLF, with or without a final line break;
    if messy, with blank lines and invalid UTF-8 at random places."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 2)) if messy else 0):
        blank = draw(st.sampled_from(["", " ", "\t", ",,,"]))
        lines.insert(draw(st.integers(0, len(lines))), blank)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    data = (newline.join(lines) + draw(st.sampled_from(["", newline]))).encode()
    if messy and draw(st.integers(0, 4)) == 0:
        k = draw(st.integers(0, len(data)))
        data = data[:k] + b"\xff" + data[k:]
    return data


def _mutated(draw, cells: list[str], junk) -> list[str]:
    """`cells` with one to three replaced by junk."""
    cells = list(cells)
    for _ in range(draw(st.integers(1, 3))):
        if cells:
            cells[draw(st.integers(0, len(cells) - 1))] = draw(junk)
    return cells


PACKET_JUNK = st.sampled_from([
    "+7", "-0", "007", "1_000", "1.5", "1e3", "nan", "inf", "-3", "x", "7 8", "7\t8",
    "0x10", str(2**63 - 1), str(2**63), str(-(2**63) - 1), "\u0663", "\x00", "\x0b5",
]) | st.integers(0, 3000).map(lambda v: f" {v} ")


@st.composite
def packet_files(draw) -> bytes:
    """Non-decreasing stamps (ties included); half the files are messy, with
    junk at random lines: signs, spaces, underscores, decimals, nan, inf,
    hex, out-of-range values, two values on one line, a non-ASCII digit,
    NUL."""
    stamps = sorted(draw(st.lists(st.integers(0, 3000) | st.just(0), max_size=30)))
    lines = [str(v) for v in stamps]
    messy = draw(st.booleans())
    return draw(text_files(_mutated(draw, lines, PACKET_JUNK) if messy else lines, messy))


@given(data=packet_files())
@settings(max_examples=400, deadline=None)
@example(data=b"1\n2\n3\n")
@example(data=b"7 8\n\n9\n")
@example(data=b"7\n \n8 9\n")
@example(data=b"9223372036854775808\n")
@example(data=b"0\n0\n")
def test_load_trace_matches_the_line_scanner(trace_dir, data):
    path = trace_dir / "trace.pps"
    path.write_bytes(data)
    new = _outcome(load_trace, str(path))
    old = _outcome(load_trace_oracle, str(path))
    if isinstance(old, tuple):
        assert new == old
    else:
        assert new.timestamps_ms.dtype == old.timestamps_ms.dtype
        assert new.timestamps_ms.tobytes() == old.timestamps_ms.tobytes()


EDGE_ANGLES = [
    180.0, -180.0, 540.0, -540.0, 360.0, -0.0, 0.0, 90.0, -90.0, 90.5, -90.5,
    5e-324, -5e-324, 1e-300, -1e-300, 179.99999999999997, -180.00000000000003,
    359.99999999999994, 1e16, -1e16,
]
angles = st.floats(-1e3, 1e3) | st.sampled_from(EDGE_ANGLES)
CELL_FORMATS = [repr, "{:.3f}".format, "{:e}".format, "{:+.17g}".format, " {} ".format]
CELL_JUNK = st.sampled_from([
    "", " ", "nan", "-nan", "inf", "-inf", "Infinity", "1e400", "1_000", "x", '"1.0"',
    "0x10", "1 2", "1d5", "nan(1)", "\u0663", "\x00", "1\r2",
])


@st.composite
def viewing_files(draw) -> bytes:
    """Euler or quaternion rows under an optional header, values written in
    several formats. Half the files are messy: times out of order, cells
    padded with spaces, junk cells, zero quaternions, rows one cell short or
    long, a quoted header."""
    width = draw(st.sampled_from([4, 5]))
    messy = draw(st.booleans())
    times = sorted(draw(st.lists(st.floats(-10.0, 100.0), max_size=12, unique=True)))
    if messy and draw(st.booleans()):
        times = times[::-1]
    formats = CELL_FORMATS if messy else CELL_FORMATS[:-1]
    rows = []
    for t in times:
        cells = [t] + [draw(angles) for _ in range(width - 1)]
        if messy and width == 5 and draw(st.integers(0, 4)) == 0:
            cells[1:] = [0.0] * 4
        rows.append([draw(st.sampled_from(formats))(v) for v in cells])
    for _ in range(draw(st.integers(0, 2)) if messy else 0):
        if rows:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            if draw(st.booleans()):
                row.pop()
            else:
                row.append("0")
    lines = [
        ",".join(_mutated(draw, row, CELL_JUNK))
        if messy and draw(st.integers(0, 3)) == 0 else ",".join(row)
        for row in rows
    ]
    headers = [None, "t_seconds,yaw_deg,pitch_deg,roll_deg", "t,qw,qx,qy,qz", "time"]
    header = draw(st.sampled_from(headers + ['"1",a,b,c'] if messy else headers))
    return draw(text_files(([header] if header else []) + lines, messy))


@given(data=viewing_files())
@settings(max_examples=400, deadline=None)
@example(data=b"t_seconds,yaw_deg,pitch_deg,roll_deg\n0.0,190,95,1\n0.5,-190,-95,2\n")
@example(data=b"0.0,1,2,3\n0.5,1,2\n1.0,1,2,3,4\n")
@example(data=b"0.0,1,0,0,0\n0.1,0,0,0,0\n")
@example(data=b"0.0,1,2,3\r\n0.5,1,2,3\r\n")
@example(data=b"0.0,1,2,3\n0.5,1,2\r,3\n")
@example(data=b"0.0,nan,0,0\n")
@example(data=b"0.0,1,2,3\n\n\n0.5,x,2,3\n")
@example(data=b"\r\nt,yaw,pitch,roll\r\n,,,\r\n0.0,1,2,3\r\n 0.0,1,2,3\r\n")
def test_load_viewing_trace_matches_the_row_scanner(trace_dir, data):
    path = trace_dir / "trace.csv"
    path.write_bytes(data)
    new = _outcome(load_viewing_trace, str(path))
    old = _outcome(load_viewing_trace_oracle, str(path))
    if isinstance(old, tuple):
        assert new == old
        return
    expected = {
        "t": [s.t for s in old],
        "yaw": [s.o.yaw for s in old],
        "pitch": [s.o.pitch for s in old],
        "roll": [s.o.roll for s in old],
    }
    for column, values in expected.items():
        assert getattr(new, column).tobytes() == np.array(values).tobytes(), column


@given(yaws=st.lists(st.floats(allow_nan=False, allow_infinity=False)
                     | st.sampled_from(EDGE_ANGLES), max_size=30), data=st.data())
@settings(max_examples=300, deadline=None)
def test_vectorized_wrap_and_clamp_match_orientation(yaws, data):
    """from_angles wraps yaw with numpy's float % and clamps pitch with
    np.clip; each must give Orientation's value bit for bit, and pose(k) must
    rebuild the stored pose without changing a bit."""
    pitches = data.draw(st.lists(angles, min_size=len(yaws), max_size=len(yaws)))
    trace = ViewingTrace.from_angles(range(len(yaws)), yaws, pitches, np.zeros(len(yaws)))
    for k, (yaw, pitch) in enumerate(zip(yaws, pitches)):
        o = Orientation(yaw, pitch)
        assert trace.yaw[k].tobytes() == np.float64(o.yaw).tobytes()
        assert trace.pitch[k].tobytes() == np.float64(o.pitch).tobytes()
        assert np.float64(normalize_yaw(o.yaw)).tobytes() == np.float64(o.yaw).tobytes()
        pose = trace.pose(k)
        assert np.float64(pose.yaw).tobytes() == np.float64(o.yaw).tobytes()
        assert np.float64(pose.pitch).tobytes() == np.float64(o.pitch).tobytes()


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_searchsorted_lookups_match_bisect(data):
    """Times on a quarter-second grid, so queries land exactly on samples,
    on midpoints between them (ties), before the first, after the last, and
    on window edges."""
    ticks = sorted(data.draw(st.lists(st.integers(-8, 40), min_size=1, max_size=20, unique=True)))
    times = [k / 4.0 for k in ticks]
    trace = trace_of([(t, Orientation(t * 7.0, t - 2.0)) for t in times])
    old = samples(trace)
    query = (
        st.sampled_from(times)
        | st.sampled_from([(a + b) / 2.0 for a, b in zip(times, times[1:])] or times)
        | st.sampled_from([times[0] - 1.0, times[-1] + 1.0])
        | st.integers(-12, 48).map(lambda k: k / 8.0)
        | st.floats(-5.0, 15.0)
    )
    for _ in range(5):
        now = data.draw(query)
        timeframe = data.draw(st.sampled_from([0.25, 0.5, 1.0, 0.1]) | st.floats(0.0, 4.0))
        window = select_window(trace, now, timeframe)
        expected = select_window_oracle(old, now, timeframe)
        assert samples(window) == expected
        k = nearest_sample(trace, now)
        assert (trace.t[k], trace.pose(k)) == nearest_sample_oracle(old, now)
