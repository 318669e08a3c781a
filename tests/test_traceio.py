import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import Orientation, constant_rate_network, pose_at, sinusoid_gaze, trace_of
from tilesim import netsim
from tilesim.geometry import ViewingTrace
from tilesim.traceio import (
    ViewingTraceError,
    load_trace_dir,
    load_viewing_trace,
    save_viewing_trace,
    write_table,
)


@pytest.fixture(autouse=True)
def warnings_are_errors():
    """A numpy warning from a loader's parse must not escape it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def q_axis_angle(axis, degrees_):
    half = math.radians(degrees_) / 2.0
    s = math.sin(half)
    return (math.cos(half), axis[0] * s, axis[1] * s, axis[2] * s)


def load_quaternions(directory, *rows):
    """The trace a 5-column file of `rows` (qw, qx, qy, qz) loads as, one
    sample every 0.1 s, each value written as its repr."""
    path = directory / "q.csv"
    path.write_text("t,qw,qx,qy,qz\n" + "".join(
        f"{k / 10!r},{','.join(map(repr, q))}\n" for k, q in enumerate(rows)
    ))
    return load_viewing_trace(str(path))


@pytest.fixture(scope="module")
def quaternion_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("quaternions")


def exact_shift(q, k):
    """q times 2**k, or None if a component overflows or loses a bit."""
    try:
        shifted = tuple(math.ldexp(c, k) for c in q)
    except OverflowError:
        return None
    return shifted if all(math.ldexp(c, -k) == x for c, x in zip(shifted, q)) else None


class TestQuaternion:
    def test_identity_faces_forward(self, tmp_path):
        o = pose_at(load_quaternions(tmp_path, (1.0, 0.0, 0.0, 0.0)), 0)
        assert o.yaw == pytest.approx(0.0, abs=1e-9)
        assert o.pitch == pytest.approx(0.0, abs=1e-9)

    def test_yaw_is_rotation_about_up(self, tmp_path):
        o = pose_at(load_quaternions(tmp_path, q_axis_angle((0, 0, 1), 90.0)), 0)
        assert o.yaw == pytest.approx(90.0, abs=1e-9)
        assert o.pitch == pytest.approx(0.0, abs=1e-9)

    def test_pitch_up(self, tmp_path):
        # looking up by 45 degrees is a -45 degree rotation about +y here
        o = pose_at(load_quaternions(tmp_path, q_axis_angle((0, 1, 0), -45.0)), 0)
        assert o.pitch == pytest.approx(45.0, abs=1e-9)
        assert o.yaw == pytest.approx(0.0, abs=1e-9)

    def test_roll_about_forward_axis(self, tmp_path):
        o = pose_at(load_quaternions(tmp_path, q_axis_angle((1, 0, 0), 30.0)), 0)
        assert o.yaw == pytest.approx(0.0, abs=1e-9)
        assert o.pitch == pytest.approx(0.0, abs=1e-9)

    @given(
        yaw=st.floats(-720.0, 720.0),
        pitch=st.floats(-89.0, 89.0, exclude_min=True, exclude_max=True),
        k=st.integers(-170, 200),
    )
    @settings(max_examples=300, deadline=None)
    def test_combined_yaw_pitch(self, quaternion_dir, yaw, pitch, k):
        """Yaw about +z, then pitch (a rotation about +y by -pitch), scaled
        by 10**k: the loader gives both angles back."""
        a = q_axis_angle((0, 0, 1), yaw)
        b = q_axis_angle((0, 1, 0), -pitch)
        w = a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3]
        x = a[0] * b[1] + a[1] * b[0] + a[2] * b[3] - a[3] * b[2]
        y = a[0] * b[2] - a[1] * b[3] + a[2] * b[0] + a[3] * b[1]
        z = a[0] * b[3] + a[1] * b[2] - a[2] * b[1] + a[3] * b[0]
        o = pose_at(load_quaternions(quaternion_dir, [c * 10.0**k for c in (w, x, y, z)]), 0)
        turn = (o.yaw - yaw) % 360.0
        assert min(turn, 360.0 - turn) <= 1e-9
        assert o.pitch == pytest.approx(pitch, abs=1e-9)

    def test_scale_invariant(self, tmp_path):
        q = q_axis_angle((0, 0, 1), 45.0)
        scales = (2.5, 1e200, 1e-170)
        trace = load_quaternions(tmp_path, q, *([scale * c for c in q] for scale in scales))
        a = pose_at(trace, 0)
        for k, scale in enumerate(scales, start=1):
            b = pose_at(trace, k)
            assert a.yaw == pytest.approx(b.yaw, abs=1e-12), scale
            assert a.pitch == pytest.approx(b.pitch, abs=1e-12), scale

    @given(q=st.tuples(*[st.floats(-1e3, 1e3)] * 4), k=st.integers(-1100, 1100))
    @settings(max_examples=300, deadline=None)
    @example(q=(1.0, 0.0, 0.0, 1.0), k=1023)
    @example(q=(0.5, 0.25, -0.75, 1.0), k=1023)
    @example(q=(1.0, 0.0, 0.0, 1.0), k=-1074)
    @example(q=(0.0, 1.0, 1.0, 1.0), k=-1074)
    @example(q=(0.75, -0.5, 0.25, 1.0), k=-1071)
    def test_power_of_two_scale_keeps_every_bit(self, quaternion_dir, q, k):
        """q times 2**k loads with q's bits whenever each component stays
        exact, also where the norm of the scaled row would overflow or its
        components are subnormal."""
        shifted = exact_shift(q, k)
        assume(any(q) and shifted is not None)
        trace = load_quaternions(quaternion_dir, q, shifted)
        for column in (trace.yaw, trace.pitch):
            assert column[1:].tobytes() == column[:1].tobytes()

    def test_peak_memory_stays_below_seven_tables(self, tmp_path):
        """Converting a 20,000-row quaternion table holds a few copies of it
        and one list of Python floats per component, never an object per
        row."""
        rows = 20_000
        q = np.random.default_rng(0).normal(size=(rows, 4))
        path = tmp_path / "q.csv"
        write_table(str(path), "%r,%r,%r,%r,%r\n", (np.arange(rows) / 10, *q.T))
        tracemalloc.start()
        try:
            trace = load_viewing_trace(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace) == rows
        assert peak < 7 * rows * 5 * 8

    def test_zero_quaternion_rejected(self, tmp_path):
        """Signed zeros are zero too, and the smallest nonzero row is not."""
        tiny = (0.0, -0.0, 5e-324, 0.0)
        with pytest.raises(ViewingTraceError, match=r"q\.csv:3: zero quaternion"):
            load_quaternions(tmp_path, tiny, (-0.0, 0.0, -0.0, -0.0))


class TestEulerFiles:
    def test_round_trip_is_exact(self, tmp_path):
        trace = sinusoid_gaze(amplitude=40.0, period=7.0, duration=2.0, hz=30.0)
        path = tmp_path / "t.csv"
        save_viewing_trace(trace, str(path))
        got = load_viewing_trace(str(path))
        for column in ("t", "yaw", "pitch"):
            assert getattr(got, column).tobytes() == getattr(trace, column).tobytes()

    def test_roll_column_is_read_but_not_kept(self, tmp_path):
        """Files that differ only in roll load to the same trace."""
        level, rolled = tmp_path / "level.csv", tmp_path / "rolled.csv"
        header = "t_seconds,yaw_deg,pitch_deg,roll_deg\n"
        level.write_text(header + "0.0,10,5,0\n0.5,-190,95,0\n")
        rolled.write_text(header + "0.0,10,5,30\n0.5,-190,95,-1e300\n")
        a, b = load_viewing_trace(str(level)), load_viewing_trace(str(rolled))
        for column in ("t", "yaw", "pitch"):
            assert getattr(a, column).tobytes() == getattr(b, column).tobytes(), column

    def test_headerless_euler(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0.0,10,5,0\n0.5,12,6,0\n")
        got = load_viewing_trace(str(path))
        assert got.t.tolist() == [0.0, 0.5]
        assert pose_at(got, 1).yaw == 12.0

    def test_quaternion_file(self, tmp_path):
        q = q_axis_angle((0, 0, 1), 90.0)
        path = tmp_path / "q.csv"
        path.write_text(
            "t,qw,qx,qy,qz\n"
            + f"0.0,{q[0]},{q[1]},{q[2]},{q[3]}\n"
            + "0.1,1,0,0,0\n"
        )
        got = load_viewing_trace(str(path))
        assert got.yaw[0] == pytest.approx(90.0, abs=1e-9)
        assert got.yaw[1] == pytest.approx(0.0, abs=1e-9)

    def test_huge_and_tiny_quaternions_load(self, tmp_path):
        """Yaw 90 degree turns at scales whose squares overflow or underflow,
        whose norm overflows, or whose components are subnormal, then an
        (0, s, s, s) turn at a subnormal s: each loads at its true angles,
        with no warning."""
        path = tmp_path / "q.csv"
        path.write_text(
            "t,qw,qx,qy,qz\n0.0,1e200,0,0,1e200\n0.1,1e-170,0,0,1e-170\n"
            "0.2,1.7e308,0,0,1.7e308\n0.3,1e308,1e308,1e308,1e308\n"
            "0.4,5e-324,0,0,5e-324\n0.5,2e-323,0,0,2e-323\n0.6,0,5e-324,5e-324,5e-324\n"
        )
        got = load_viewing_trace(str(path))
        corner = (math.degrees(math.atan2(2.0, -1.0)), math.degrees(math.asin(2.0 / 3.0)))
        assert got.yaw.tolist() == pytest.approx([90.0] * 6 + [corner[0]], abs=1e-9)
        assert got.pitch.tolist() == pytest.approx([0.0] * 6 + [corner[1]], abs=1e-9)

    def test_zero_quaternion_names_file_and_line(self, tmp_path):
        path = tmp_path / "z.csv"
        path.write_text("t,qw,qx,qy,qz\n0.0,1,0,0,0\n0.1,0,0,0,0\n")
        with pytest.raises(ViewingTraceError, match=r"z\.csv:3: zero quaternion"):
            load_viewing_trace(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        with pytest.raises(ViewingTraceError):
            load_viewing_trace(str(path))

    def test_header_without_samples(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("t_seconds,yaw_deg,pitch_deg,roll_deg\n")
        with pytest.raises(ViewingTraceError):
            load_viewing_trace(str(path))

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("0.0,1,2\n")
        with pytest.raises(ViewingTraceError, match="columns"):
            load_viewing_trace(str(path))

    def test_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("0.0,1,2,0\n0.5,oops,2,0\n")
        with pytest.raises(ViewingTraceError, match=":2:"):
            load_viewing_trace(str(path))

    # Empty lines are skipped and counted; a line of only whitespace or only
    # commas is a row, so it is the bad line.
    BLANK_LINE_ERRORS = {
        b"0.0,1,2,3\n\n\n0.5,x,2,3\n": "4: non-numeric value in ['0.5', 'x', '2', '3']",
        b"0.0,1,2,3\r\n\r\n,,,\r\n0.5,x,2,3\r\n": "3: non-numeric value in ['', '', '', '']",
        b"0.0,1,2,3\n \n\t\n0.5,x,2,3": "2: expected 4 columns, got 1",
    }

    @pytest.mark.parametrize("data", list(BLANK_LINE_ERRORS))
    def test_blank_lines_count_in_the_named_line(self, tmp_path, data):
        path = tmp_path / "b.csv"
        path.write_bytes(data)
        with pytest.raises(ViewingTraceError) as exc:
            load_viewing_trace(str(path))
        assert str(exc.value) == f"{path}:{self.BLANK_LINE_ERRORS[data]}"

    def test_header_and_blank_lines_count_in_the_named_line(self, tmp_path):
        """Only the first line can be a header: after an empty first line,
        the header is the first row, and it is not numeric."""
        path = tmp_path / "hb.csv"
        path.write_text("t_seconds,yaw_deg,pitch_deg,roll_deg\n\n0.0,1,2,3\n\n0.0,1,2,3\n")
        with pytest.raises(ViewingTraceError, match=r"hb\.csv:5: timestamps must strictly"):
            load_viewing_trace(str(path))
        path.write_text("\nt_seconds,yaw_deg,pitch_deg,roll_deg\n\n0.0,1,2,3\n0.0,1,2,3\n")
        with pytest.raises(ViewingTraceError) as exc:
            load_viewing_trace(str(path))
        assert str(exc.value) == (
            f"{path}:2: non-numeric value in ['t_seconds', 'yaw_deg', 'pitch_deg', 'roll_deg']"
        )

    def test_non_increasing_time_names_line(self, tmp_path):
        path = tmp_path / "ni.csv"
        path.write_text("0.0,1,2,0\n0.0,1,2,0\n")
        with pytest.raises(ViewingTraceError, match="strictly increase"):
            load_viewing_trace(str(path))

    @pytest.mark.parametrize(
        "row",
        ["nan,0,0,0", "inf,0,0,0", "0.5,nan,0,0", "0.5,0,-inf,0", "0.5,0,0,1e400"],
    )
    def test_non_finite_value_names_line(self, tmp_path, row):
        path = tmp_path / "nf.csv"
        path.write_text(f"t_seconds,yaw_deg,pitch_deg,roll_deg\n0.0,1,2,0\n{row}\n1.0,1,2,0\n")
        with pytest.raises(ViewingTraceError, match=r"nf\.csv:3: non-finite value"):
            load_viewing_trace(str(path))

    @pytest.mark.parametrize("row", ["0.5,nan,0,0,0", "0.5,1,inf,0,0", "nan,1,0,0,0"])
    def test_non_finite_quaternion_names_line(self, tmp_path, row):
        path = tmp_path / "nq.csv"
        path.write_text(f"0.0,1,0,0,0\n{row}\n")
        with pytest.raises(ViewingTraceError, match=r"nq\.csv:2: non-finite value"):
            load_viewing_trace(str(path))

    def test_padded_and_crlf_rows_read_like_plain_ones(self, tmp_path):
        plain, odd = tmp_path / "plain.csv", tmp_path / "odd.csv"
        plain.write_text("0.0,190,95,1\n0.5,-190,-95,2\n")
        odd.write_bytes(b"t,yaw,pitch,roll\r\n 0.0 ,+190,95,1\r\n\r\n0.5,-190, -95,2\r\n")
        a, b = load_viewing_trace(str(plain)), load_viewing_trace(str(odd))
        for column in ("t", "yaw", "pitch"):
            assert getattr(a, column).tobytes() == getattr(b, column).tobytes()
        assert a.yaw.tolist() == [-170.0, 170.0] and a.pitch.tolist() == [90.0, -90.0]

    @pytest.mark.parametrize("data", [
        b'"1",a,b,c\n0.0,1,2,3\n0.5,1,2,3\n',
        b"0.0,\x1c1,2,3\n0.5,1,2\x1f,3\n",
    ], ids=["quoted-header", "0x1c-0x1f-padding"])
    def test_forms_only_numpy_reads(self, tmp_path, data):
        """float() rejects a quoted cell, so the first line is a header, and
        numpy reads 0x1c-0x1f as whitespace."""
        path = tmp_path / "w.csv"
        path.write_bytes(data)
        got = load_viewing_trace(str(path))
        assert got.t.tolist() == [0.0, 0.5] and got.yaw.tolist() == [1.0, 1.0]

    def test_mixed_width_row_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.0,1,2,0\n0.5,1,2\n")
        with pytest.raises(ViewingTraceError, match="columns"):
            load_viewing_trace(str(path))


class TestNumpyReadsPlainFiles:
    """An accepted file costs exactly one np.loadtxt call."""

    @pytest.fixture
    def loadtxt_calls(self, monkeypatch):
        """The arguments of each np.loadtxt call."""
        calls = []
        loadtxt = np.loadtxt

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        return calls

    def test_written_files(self, tmp_path, loadtxt_calls):
        gaze = sinusoid_gaze(amplitude=40.0, period=7.0, duration=2.0, hz=30.0)
        save_viewing_trace(gaze, str(tmp_path / "t.csv"))
        got = load_viewing_trace(str(tmp_path / "t.csv"))
        for column in ("t", "yaw", "pitch"):
            assert getattr(got, column).tobytes() == getattr(gaze, column).tobytes()
        link = constant_rate_network(3e6, 2.0)
        netsim.save_trace(link, str(tmp_path / "t.pps"))
        got = netsim.load_trace(str(tmp_path / "t.pps")).timestamps_ms
        assert got.tobytes() == link.timestamps_ms.tobytes()
        assert len(loadtxt_calls) == 2

    @pytest.mark.parametrize("data", [
        b"0.0,10,5,0\n0.5,12,6,0\n",
        b"t,qw,qx,qy,qz\n0.0,1,0,0,0\n0.5,1,0,0,0\n",
        b"t,yaw,pitch,roll\r\n0.0,10,5,0\r\n0.5,12,6,0\r\n",
        b"t,yaw,pitch,roll\n0.0,10,5,0\n0.5,12,6,0",
        b"t,yaw,pitch,roll\n 0.0 , 10,5 ,0\n\t0.5,  12,6,0\t\n",
    ], ids=["headerless", "quaternion", "crlf", "no-final-newline", "padded"])
    def test_viewing_files(self, tmp_path, loadtxt_calls, data):
        path = tmp_path / "t.csv"
        path.write_bytes(data)
        got = load_viewing_trace(str(path))
        assert got.t.tolist() == [0.0, 0.5]
        assert got.pitch.tolist() == ([0.0, 0.0] if b"qw" in data else [5.0, 6.0])
        assert len(loadtxt_calls) == 1

    @pytest.mark.parametrize("data", [b"1\r\n2\r\n", b"1\n2", b" 1 \n\t2\n"],
                             ids=["crlf", "no-final-newline", "padded"])
    def test_packet_files(self, tmp_path, loadtxt_calls, data):
        path = tmp_path / "t.pps"
        path.write_bytes(data)
        np.testing.assert_array_equal(netsim.load_trace(str(path)).timestamps_ms, [1, 2])
        assert len(loadtxt_calls) == 1


class TestTraceDir:
    def test_sorted_by_name(self, tmp_path):
        for name, yaw in (("b.csv", 2.0), ("a.csv", 1.0), ("c.csv", 3.0)):
            save_viewing_trace(
                trace_of([(0.0, Orientation(yaw, 0.0))]),
                str(tmp_path / name),
            )
        (tmp_path / "ignore.txt").write_text("not a trace")
        traces = load_trace_dir(str(tmp_path))
        assert list(traces) == ["a.csv", "b.csv", "c.csv"]
        assert [t.yaw[0] for t in traces.values()] == [1.0, 2.0, 3.0]

    def test_empty_dir_raises(self, tmp_path):
        with pytest.raises(ViewingTraceError):
            load_trace_dir(str(tmp_path))


class TestWriterMemory:
    @pytest.mark.parametrize("save, make, rows", [
        (netsim.save_trace, lambda n: netsim.NetworkTrace(np.arange(1, n + 1)), 20_000),
        (save_viewing_trace, lambda n: ViewingTrace(*np.ones((3, n))), 5_000),
    ], ids=["packet", "viewing"])
    def test_peak_memory_does_not_grow_with_trace_length(self, tmp_path, save, make, rows):
        """Memory follows the live objects, not the run length: writing a
        trace 10 times longer peaks within 1 MB of the shorter one, so no
        writer holds a whole trace as Python objects or text."""

        def peak(n):
            trace = make(n)
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                save(trace, str(tmp_path / "t"))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert abs(peak(10 * rows) - peak(rows)) <= 2**20
