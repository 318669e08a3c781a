import math
import warnings

import numpy as np
import pytest

from helpers import trace_of
from tilesim import netsim, traceio
from tilesim.geometry import Orientation
from tilesim.synthetic import constant_rate_network, sinusoid_gaze
from tilesim.traceio import (
    ViewingTraceError,
    load_trace_dir,
    load_viewing_trace,
    quaternion_to_orientation,
    save_viewing_trace,
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


class TestQuaternion:
    def test_identity_faces_forward(self):
        o = quaternion_to_orientation(1.0, 0.0, 0.0, 0.0)
        assert o.yaw == pytest.approx(0.0, abs=1e-9)
        assert o.pitch == pytest.approx(0.0, abs=1e-9)
        assert o.roll == pytest.approx(0.0, abs=1e-9)

    def test_yaw_is_rotation_about_up(self):
        o = quaternion_to_orientation(*q_axis_angle((0, 0, 1), 90.0))
        assert o.yaw == pytest.approx(90.0, abs=1e-9)
        assert o.pitch == pytest.approx(0.0, abs=1e-9)

    def test_pitch_up(self):
        # looking up by 45 degrees is a -45 degree rotation about +y here
        o = quaternion_to_orientation(*q_axis_angle((0, 1, 0), -45.0))
        assert o.pitch == pytest.approx(45.0, abs=1e-9)
        assert o.yaw == pytest.approx(0.0, abs=1e-9)

    def test_roll_about_forward_axis(self):
        o = quaternion_to_orientation(*q_axis_angle((1, 0, 0), 30.0))
        assert o.yaw == pytest.approx(0.0, abs=1e-9)
        assert o.pitch == pytest.approx(0.0, abs=1e-9)
        assert o.roll == pytest.approx(-30.0, abs=1e-9)

    def test_combined_yaw_pitch(self):
        # yaw 60 then pitch 20: compose the two rotations
        a = q_axis_angle((0, 0, 1), 60.0)
        b = q_axis_angle((0, 1, 0), -20.0)
        w = a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3]
        x = a[0] * b[1] + a[1] * b[0] + a[2] * b[3] - a[3] * b[2]
        y = a[0] * b[2] - a[1] * b[3] + a[2] * b[0] + a[3] * b[1]
        z = a[0] * b[3] + a[1] * b[2] - a[2] * b[1] + a[3] * b[0]
        o = quaternion_to_orientation(w, x, y, z)
        assert o.yaw == pytest.approx(60.0, abs=1e-9)
        assert o.pitch == pytest.approx(20.0, abs=1e-9)

    def test_scale_invariant(self):
        q = q_axis_angle((0, 0, 1), 45.0)
        a = quaternion_to_orientation(*q)
        b = quaternion_to_orientation(*(2.5 * c for c in q))
        assert a.yaw == pytest.approx(b.yaw, abs=1e-12)
        assert a.pitch == pytest.approx(b.pitch, abs=1e-12)

    def test_zero_quaternion_rejected(self):
        with pytest.raises(ValueError):
            quaternion_to_orientation(0.0, 0.0, 0.0, 0.0)


class TestEulerFiles:
    def test_round_trip_is_exact(self, tmp_path):
        trace = sinusoid_gaze(amplitude=40.0, period=7.0, duration=2.0, hz=30.0)
        path = tmp_path / "t.csv"
        save_viewing_trace(trace, str(path))
        got = load_viewing_trace(str(path))
        for column in ("t", "yaw", "pitch", "roll"):
            assert getattr(got, column).tobytes() == getattr(trace, column).tobytes()

    def test_headerless_euler(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0.0,10,5,0\n0.5,12,6,0\n")
        got = load_viewing_trace(str(path))
        assert got.t.tolist() == [0.0, 0.5]
        assert got.pose(1).yaw == 12.0

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

    @pytest.mark.parametrize(
        "data",
        [
            b"0.0,1,2,3\n\n\n0.5,x,2,3\n",
            b"0.0,1,2,3\r\n\r\n,,,\r\n0.5,x,2,3\r\n",
            b"0.0,1,2,3\n \n\t\n0.5,x,2,3",
        ],
    )
    def test_blank_lines_count_in_the_named_line(self, tmp_path, data):
        path = tmp_path / "b.csv"
        path.write_bytes(data)
        with pytest.raises(ViewingTraceError, match=r"b\.csv:4: non-numeric value"):
            load_viewing_trace(str(path))

    def test_header_and_blank_lines_count_in_the_named_line(self, tmp_path):
        path = tmp_path / "hb.csv"
        path.write_text("\nt_seconds,yaw_deg,pitch_deg,roll_deg\n\n0.0,1,2,3\n0.0,1,2,3\n")
        with pytest.raises(ViewingTraceError, match=r"hb\.csv:5: timestamps must strictly"):
            load_viewing_trace(str(path))

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
        for column in ("t", "yaw", "pitch", "roll"):
            assert getattr(a, column).tobytes() == getattr(b, column).tobytes()
        assert a.yaw.tolist() == [-170.0, 170.0] and a.pitch.tolist() == [90.0, -90.0]

    def test_mixed_width_row_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.0,1,2,0\n0.5,1,2\n")
        with pytest.raises(ViewingTraceError, match="columns"):
            load_viewing_trace(str(path))


class TestNumpyReadsPlainFiles:
    """Files that numpy reads in one call never reach the scanners."""

    @pytest.fixture(autouse=True)
    def no_scanners(self, monkeypatch):
        def scanner(path):
            raise AssertionError(f"{path} went to the scanner")

        monkeypatch.setattr(traceio, "_scan_rows", scanner)
        monkeypatch.setattr(netsim, "_scan_lines", scanner)

    def test_written_files(self, tmp_path):
        gaze = sinusoid_gaze(amplitude=40.0, period=7.0, duration=2.0, hz=30.0)
        save_viewing_trace(gaze, str(tmp_path / "t.csv"))
        got = load_viewing_trace(str(tmp_path / "t.csv"))
        for column in ("t", "yaw", "pitch", "roll"):
            assert getattr(got, column).tobytes() == getattr(gaze, column).tobytes()
        link = constant_rate_network(3e6, 2.0)
        netsim.save_trace(link, str(tmp_path / "t.pps"))
        got = netsim.load_trace(str(tmp_path / "t.pps")).timestamps_ms
        assert got.tobytes() == link.timestamps_ms.tobytes()

    @pytest.mark.parametrize("data", [
        b"0.0,10,5,0\n0.5,12,6,0\n",
        b"t,qw,qx,qy,qz\n0.0,1,0,0,0\n0.5,1,0,0,0\n",
        b"t,yaw,pitch,roll\r\n0.0,10,5,0\r\n0.5,12,6,0\r\n",
        b"t,yaw,pitch,roll\n0.0,10,5,0\n0.5,12,6,0",
        b"t,yaw,pitch,roll\n 0.0 , 10,5 ,0\n\t0.5,  12,6,0\t\n",
    ], ids=["headerless", "quaternion", "crlf", "no-final-newline", "padded"])
    def test_viewing_files(self, tmp_path, data):
        path = tmp_path / "t.csv"
        path.write_bytes(data)
        got = load_viewing_trace(str(path))
        assert got.t.tolist() == [0.0, 0.5]
        assert got.pitch.tolist() == ([0.0, 0.0] if b"qw" in data else [5.0, 6.0])

    @pytest.mark.parametrize("data", [b"1\r\n2\r\n", b"1\n2", b" 1 \n\t2\n"],
                             ids=["crlf", "no-final-newline", "padded"])
    def test_packet_files(self, tmp_path, data):
        path = tmp_path / "t.pps"
        path.write_bytes(data)
        np.testing.assert_array_equal(netsim.load_trace(str(path)).timestamps_ms, [1, 2])


class TestTraceDir:
    def test_sorted_by_name(self, tmp_path):
        for name, yaw in (("b.csv", 2.0), ("a.csv", 1.0), ("c.csv", 3.0)):
            save_viewing_trace(
                trace_of([(0.0, Orientation(yaw, 0.0))]),
                str(tmp_path / name),
            )
        (tmp_path / "ignore.txt").write_text("not a trace")
        traces = load_trace_dir(str(tmp_path))
        assert [t.yaw[0] for t in traces] == [1.0, 2.0, 3.0]

    def test_empty_dir_raises(self, tmp_path):
        with pytest.raises(ViewingTraceError):
            load_trace_dir(str(tmp_path))
