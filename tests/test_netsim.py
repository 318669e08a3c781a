import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilesim.netsim import (
    PACKET_BYTES,
    LastSampleEstimator,
    Link,
    NetworkTrace,
    TraceError,
    load_trace,
    save_trace,
    scale,
)
from tilesim.synthetic import constant_rate_network, two_phase_network


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
        path.write_bytes(b"+1\r\n 2 \r\n\r\n1_000\r\n007000")
        np.testing.assert_array_equal(load_trace(str(path)).timestamps_ms, [1, 2, 1000, 7000])

    def test_peak_memory_stays_below_four_stamp_arrays(self, tmp_path):
        """700k lines, about the size of a two-minute 100 Mbit/s trace."""
        path = tmp_path / "long.txt"
        stamps = np.arange(700_000) * 2 // 3
        path.write_text("\n".join(map(str, stamps.tolist())) + "\n")
        tracemalloc.start()
        try:
            trace = load_trace(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(trace.timestamps_ms, stamps)
        assert peak < 4 * trace.timestamps_ms.nbytes


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

    def test_validation(self):
        with pytest.raises(ValueError):
            scale(trace_of([0, 1]), 0.0)


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


class TestEstimator:
    def test_none_before_first_download(self):
        est = LastSampleEstimator()
        assert est.current() is None

    def test_simple_rate(self):
        est = LastSampleEstimator()
        est.update(1e7, 1.0, 3.0)
        cur = est.current()
        assert cur.bits_per_second == 5e6
        assert cur.measured_at == 3.0

    def test_last_sample_wins(self):
        est = LastSampleEstimator()
        est.update(1e7, 0.0, 2.0)
        est.update(2e6, 2.0, 4.0)
        assert est.current().bits_per_second == 1e6

    def test_degenerate_updates_ignored(self):
        est = LastSampleEstimator()
        est.update(0.0, 0.0, 1.0)
        assert est.current() is None
        est.update(1e6, 5.0, 5.0)
        assert est.current() is None
        est.update(1e6, 5.0, 4.0)
        assert est.current() is None
