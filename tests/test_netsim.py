import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import constant_rate_network, first_slot_after_oracle
from tilesim.netsim import (
    PACKET_BYTES,
    Link,
    NetworkTrace,
    TraceError,
    load_trace,
    save_trace,
    scale,
)
from tilesim.synthetic import two_phase_network


def trace_of(stamps):
    return NetworkTrace(timestamps_ms=np.array(stamps, dtype=np.int64))


GAPPY = [1, 2, 3, 4, 5, 505, 506, 507, 508, 509]


class TestNetworkTrace:
    def test_validation(self):
        with pytest.raises(TraceError):
            trace_of([])
        with pytest.raises(TraceError):
            trace_of([-1, 0, 1])
        with pytest.raises(TraceError):
            trace_of([5, 4])
        with pytest.raises(TraceError):
            trace_of([0])  # zero duration, rate undefined

    def test_millisecond_fixture_is_twelve_megabit(self):
        t = trace_of(range(1000))
        assert t.packet_count == 1000
        assert t.duration_ms == 999
        assert t.average_bps() == pytest.approx(12e6, rel=2e-3)

    def test_constant_rate_builder(self):
        t = constant_rate_network(12e6, duration_s=2.0)
        assert t.average_bps() == pytest.approx(12e6, rel=2e-3)
        t2 = constant_rate_network(3e6, duration_s=1.0)
        assert t2.average_bps() == pytest.approx(3e6, rel=2e-3)

    def test_two_phase_builder(self):
        t = two_phase_network(24e6, 2.4e6, cut_s=1.0, duration_s=2.0)
        ts = t.timestamps_ms
        early = int((ts <= 1000).sum())
        late = int((ts > 1000).sum())
        assert early / 1.0 == pytest.approx(24e6 / (PACKET_BYTES * 8), rel=0.05)
        assert late / 1.0 == pytest.approx(2.4e6 / (PACKET_BYTES * 8), rel=0.05)

    def test_two_phase_builder_holds_one_copy_of_its_stamps(self):
        """The benchmark's dense-churn link (716,666 slots): the phases fill
        one array, so the peak stays well under the two copies (phases plus
        their concatenation) that reached 2.1 times the result."""
        tracemalloc.start()
        try:
            t = two_phase_network(100e6, 15e6, cut_s=40.0, duration_s=120.0, recover_s=80.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.timestamps_ms.size == 716_666
        assert peak <= 1.6 * t.timestamps_ms.nbytes


class TestTraceIo:
    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        """A numpy warning from the loader's parse must not escape it."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.txt"
        save_trace(trace_of(GAPPY), str(path))
        got = load_trace(str(path))
        np.testing.assert_array_equal(got.timestamps_ms, GAPPY)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("")
        with pytest.raises(TraceError):
            load_trace(str(path))

    def test_bad_line_reports_number(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_text("1\n2\nxyz\n4\n")
        with pytest.raises(TraceError, match=r":3:"):
            load_trace(str(path))

    def test_decreasing_reports_line(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("5\n4\n")
        with pytest.raises(TraceError, match=r":2:"):
            load_trace(str(path))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1\n2\n1.5\n", "3: not an integer millisecond: '1.5'"),
            ("1\n7 8\n\n9\n", "2: not an integer millisecond: '7 8'"),
            ("1\n-3\n", "2: negative timestamp -3"),
            ("1\n2\nnan\n", "3: not an integer millisecond: 'nan'"),
            ("1\n \t\n2\n", "2: not an integer millisecond: ''"),
            ("1\n-9223372036854775809\n", "2: not an integer millisecond: '-9223372036854775809'"),
        ],
    )
    def test_malformed_line_message(self, tmp_path, text, message):
        path = tmp_path / "m.txt"
        path.write_text(text)
        with pytest.raises(TraceError) as exc:
            load_trace(str(path))
        assert str(exc.value) == f"{path}:{message}"

    def test_int_forms_and_blank_lines_read_like_plain_ones(self, tmp_path):
        path = tmp_path / "odd.txt"
        path.write_bytes(b"+1\r\n 2 \r\n\r\n1000\r\n007000")
        np.testing.assert_array_equal(load_trace(str(path)).timestamps_ms, [1, 2, 1000, 7000])
        path.write_bytes(b"+1\r\n 2 \r\n\r\n1_000\r\n007000")
        with pytest.raises(TraceError) as exc:
            load_trace(str(path))
        assert str(exc.value) == f"{path}:4: not an integer millisecond: '1_000'"

    # 700k lines, about the size of a two-minute 100 Mbit/s trace.
    LONG = np.arange(700_000) * 2 // 3

    def test_peak_memory_stays_below_four_stamp_arrays(self, tmp_path):
        path = tmp_path / "long.txt"
        path.write_text("\n".join(map(str, self.LONG.tolist())) + "\n")
        trace, peak = traced(load_trace, str(path))
        np.testing.assert_array_equal(trace.timestamps_ms, self.LONG)
        assert peak < 4 * self.LONG.nbytes

    @pytest.mark.parametrize("cut, bad, line", [
        (700_000, "\n7.5\n", 700_001),
        (350_000, "\n\n\nx\n", 350_003),
    ], ids=["last", "middle"])
    def test_long_trace_names_its_bad_line_within_the_same_memory(self, tmp_path, cut, bad, line):
        """The bad line is found by numpy reads of blocks of lines, never
        holding the file's lines, so the peak stays under the accepted
        file's bound."""
        path = tmp_path / "long.txt"
        head, tail = self.LONG[:cut].tolist(), self.LONG[cut:].tolist()
        path.write_text("\n".join(map(str, head)) + bad + "".join(f"{v}\n" for v in tail))
        error, peak = traced(load_trace, str(path))
        assert str(error) == f"{path}:{line}: not an integer millisecond: {bad.strip()!r}"
        assert peak < 4 * self.LONG.nbytes

    @pytest.mark.parametrize("cut", [0, 30_000, 60_000], ids=["first", "middle", "last"])
    def test_bad_line_costs_numpy_at_most_three_reads_of_the_file(self, tmp_path, monkeypatch, cut):
        """After the failed whole-file read, numpy reads blocks of lines up
        to the bad one and halves only its block, where bisecting over
        prefix reads would parse the file about 2*log2(rows) times."""
        head, tail = self.LONG[:cut].tolist(), self.LONG[cut:60_000].tolist()
        path = tmp_path / "long.txt"
        path.write_text("".join(f"{v}\n" for v in head) + "x\n" + "".join(f"{v}\n" for v in tail))
        lines = 60_001
        asked = []
        loadtxt = np.loadtxt

        def spy(fname, *args, **kwargs):
            rows = lines if isinstance(fname, str) else len(fname)
            asked.append(min(rows, kwargs.get("max_rows") or rows))
            return loadtxt(fname, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        with pytest.raises(TraceError, match=f":{cut + 1}: not an integer millisecond: 'x'"):
            load_trace(str(path))
        assert sum(asked) <= 3 * lines


def traced(load, path):
    """What load(path) returns or raises as a TraceError, and the call's
    tracemalloc peak."""
    tracemalloc.start()
    try:
        try:
            outcome = load(path)
        except TraceError as e:
            outcome = e
        return outcome, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestScale:
    def test_identity(self):
        t = trace_of(range(1000))
        np.testing.assert_array_equal(scale(t, 1.0).timestamps_ms, t.timestamps_ms)

    def test_faster(self):
        t = trace_of(range(1000))
        assert scale(t, 1.5).average_bps() == pytest.approx(18e6, rel=2e-3)

    def test_slower_doubles_gaps(self):
        t = trace_of(range(1000))
        s = scale(t, 0.5)
        np.testing.assert_array_equal(np.diff(s.timestamps_ms), 2)
        np.testing.assert_array_equal(s.timestamps_ms, np.arange(1000) * 2)

    def test_collapse_raises(self):
        with pytest.raises(TraceError):
            scale(trace_of([0, 1]), 1000.0)

    # compress-then-expand keeps the 1 ms bound only for factors <= 2: the
    # first rint may move a stamp by factor/2 ms, so factor 4 can drift 2 ms
    @given(st.floats(0.5, 2.0, allow_nan=False))
    @settings(max_examples=30)
    def test_round_trip_within_rounding(self, factor):
        t = trace_of(range(0, 5000, 5))
        back = scale(scale(t, factor), 1.0 / factor)
        assert np.abs(back.timestamps_ms - t.timestamps_ms).max() <= 1

    @pytest.mark.parametrize("factor", [1.0, 2.0, 3.0, 4.0])
    def test_expand_first_round_trip(self, factor):
        t = trace_of(range(0, 5000, 5))
        back = scale(scale(t, 1.0 / factor), factor)
        assert np.abs(back.timestamps_ms - t.timestamps_ms).max() <= 1

    def test_overflow_raises_before_the_cast(self):
        # 1000 / 1e-20 ms is past int64; the cast would wrap to a negative stamp
        with pytest.raises(TraceError, match="overflows"):
            scale(trace_of(range(1, 1001)), 1e-20)
        # the largest stamp that still fits is kept
        assert scale(trace_of([1, 1000]), 1000 / (2**63 - 2048)).duration_ms == 2**63 - 2048

    def test_validation(self):
        for factor in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                scale(trace_of([0, 1]), factor)


class TestLink:
    def test_zero_bytes_is_instant(self):
        link = Link(trace_of(range(1, 1001)))
        assert link.transfer_time(0.25, 0) == 0.25
        assert link.slots_consumed == 0

    def test_two_packets(self):
        link = Link(trace_of(range(1, 1001)))
        assert link.transfer_time(0.0, 3000) == 0.002
        assert link.slots_consumed == 2

    def test_partial_packet_rounds_up(self):
        link = Link(trace_of(range(1, 1001)))
        assert link.transfer_time(0.0, 1501) == 0.002

    def test_slots_strictly_after_start(self):
        link = Link(trace_of(range(1, 1001)))
        # starting exactly on slot 5's timestamp: that slot is unusable
        assert link.transfer_time(0.005, 1500) == 0.006

    def test_wraps_cyclically(self):
        link = Link(trace_of(range(1, 1001)))
        assert link.transfer_time(0.0, 1500 * 1500) == 1.5

    def test_wrap_far_future_start(self):
        link = Link(trace_of(range(1, 1001)))
        assert link.transfer_time(10.0, 1500) == pytest.approx(10.001)

    def test_gap_stalls_transfer(self):
        five = Link(trace_of(GAPPY)).transfer_time(0.0, 5 * 1500)
        six = Link(trace_of(GAPPY)).transfer_time(0.0, 6 * 1500)
        assert five == 0.005
        assert six == 0.505
        assert six - five == 0.5

    def test_sequential_consumption(self):
        link = Link(trace_of(range(1, 1001)))
        assert link.transfer_time(0.0, 3000) == 0.002
        # the next transfer cannot reuse slots 1-2 even from start 0
        assert link.transfer_time(0.0, 3000) == 0.004
        assert link.slots_consumed == 4

    def test_capacity_conservation(self):
        link = Link(trace_of(GAPPY))
        rng = np.random.default_rng(5)
        total_bytes = 0
        end = 0.0
        for _ in range(20):
            nbytes = int(rng.integers(1, 6000))
            end = link.transfer_time(end, nbytes)
            total_bytes += nbytes
        # slots available up to `end` bound the bytes that can have moved
        slots_to_end = sum(
            1
            for k in range(link.slots_consumed + 40)
            if link._slot_time_ms(k) <= end * 1000.0
        )
        assert total_bytes <= PACKET_BYTES * slots_to_end

    @given(
        a=st.integers(0, 50_000),
        b=st.integers(0, 50_000),
        start=st.floats(0.0, 3.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_bytes_and_start(self, a, b, start):
        lo, hi = sorted((a, b))
        t_lo = Link(trace_of(GAPPY)).transfer_time(start, lo)
        t_hi = Link(trace_of(GAPPY)).transfer_time(start, hi)
        assert t_lo <= t_hi
        later = Link(trace_of(GAPPY)).transfer_time(start + 0.75, hi)
        assert t_hi <= later


@st.composite
def slot_queries(draw):
    """A trace and a time in ms: any finite float, an exact integer, a slot
    time or a cycle boundary, or the float next to one of those."""
    stamps = sorted(draw(st.lists(st.integers(0, 2000), min_size=1, max_size=30)))
    stamps[-1] = max(stamps[-1], 1)
    duration = stamps[-1]
    # Far cycles put slot times past 2**53 ms, on a coarse float grid.
    cycle = draw(st.one_of(st.integers(0, 5), st.integers(2**40, 2**60)))
    t = draw(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([sys.float_info.max, -sys.float_info.max, 2.0**53, 2.0**53 - 1]),
        st.floats(-2.0, 2.0),
        st.integers(-10**6, 10**6).map(float),
        st.sampled_from(stamps).map(lambda s: float(s + cycle * duration)),
        st.just(float(cycle * duration)),
    ))
    near = draw(st.sampled_from([t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)]))
    return trace_of(stamps), near if math.isfinite(near) else t


@given(query=slot_queries())
@example(query=(trace_of([3]), sys.float_info.max))
@settings(max_examples=500, deadline=None)
def test_first_slot_after_matches_bisect_on_the_float(query):
    """On every finite float the answer is the first slot past the time;
    below 2**53 ms, where the old float arithmetic is exact, it is also the
    old bisect's."""
    trace, t_ms = query
    link = Link(trace)
    k = link._first_slot_after(t_ms)
    assert link._slot_time_ms(k) > t_ms
    assert k == 0 or link._slot_time_ms(k - 1) <= t_ms
    if abs(t_ms) < 2**53:
        assert k == first_slot_after_oracle(trace, t_ms)
