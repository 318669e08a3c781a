"""Viewing-trace file IO.

Native format: CSV with header ``t_seconds,yaw_deg,pitch_deg,roll_deg``,
rows sorted by strictly increasing time. Quaternion logs (Corbillon-style
head-movement datasets) are also accepted: five columns t,qw,qx,qy,qz,
header optional.

Quaternion convention: right-handed world with x forward, y left, z up; the
view direction is q * (1,0,0) * conj(q). Yaw/pitch come from that direction;
roll is the rotation of the transformed up vector against the roll-free frame
and is carried through unused.
"""

from __future__ import annotations

import csv
import math
import os

from .geometry import Orientation, TimedOrientation

_EULER_HEADER = ["t_seconds", "yaw_deg", "pitch_deg", "roll_deg"]


class ViewingTraceError(ValueError):
    """Raised for malformed viewing-trace files."""


def quaternion_to_orientation(qw: float, qx: float, qy: float, qz: float) -> Orientation:
    """Convert a unit quaternion to yaw/pitch/roll (degrees) as documented in
    the module docstring."""
    norm = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
    if norm == 0.0:
        raise ValueError("zero quaternion")
    qw, qx, qy, qz = qw / norm, qx / norm, qy / norm, qz / norm
    # Rows of the rotation matrix applied to the basis vectors we need.
    fx = 1.0 - 2.0 * (qy * qy + qz * qz)
    fy = 2.0 * (qx * qy + qw * qz)
    fz = 2.0 * (qx * qz - qw * qy)
    ux = 2.0 * (qx * qz + qw * qy)
    uy = 2.0 * (qy * qz - qw * qx)
    uz = 1.0 - 2.0 * (qx * qx + qy * qy)
    yaw = math.degrees(math.atan2(fy, fx))
    pitch = math.degrees(math.asin(min(1.0, max(-1.0, fz))))
    # Roll-free right/up at (yaw, pitch), for the roll extraction.
    yr, pr = math.radians(yaw), math.radians(pitch)
    right = (-math.sin(yr), math.cos(yr), 0.0)
    up_ref = (-math.sin(pr) * math.cos(yr), -math.sin(pr) * math.sin(yr), math.cos(pr))
    roll = math.degrees(
        math.atan2(
            ux * right[0] + uy * right[1] + uz * right[2],
            ux * up_ref[0] + uy * up_ref[1] + uz * up_ref[2],
        )
    )
    return Orientation(yaw=yaw, pitch=pitch, roll=roll)


def _parse_floats(path: str, lineno: int, row: list[str]) -> list[float]:
    try:
        return [float(x) for x in row]
    except ValueError:
        raise ViewingTraceError(
            f"{path}:{lineno}: non-numeric value in {row!r}"
        ) from None


def load_viewing_trace(path: str) -> list[TimedOrientation]:
    """Read one viewing trace, auto-detecting Euler vs quaternion columns."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            rows = [row for row in csv.reader(f) if row and any(x.strip() for x in row)]
    except UnicodeDecodeError as e:
        raise ViewingTraceError(
            f"{path}: not UTF-8 text ({e.reason} at byte {e.start})"
        ) from None
    if not rows:
        raise ViewingTraceError(f"{path}: empty trace file")
    start = 0
    width = len(rows[0])
    try:
        float(rows[0][0])
        has_header = False
    except ValueError:
        has_header = True
        start = 1
        if not rows[1:]:
            raise ViewingTraceError(f"{path}: header but no samples")
        width = len(rows[1])
    if width == 4:
        kind = "euler"
    elif width == 5:
        kind = "quaternion"
    else:
        raise ViewingTraceError(
            f"{path}: expected 4 (euler) or 5 (quaternion) columns, got {width}"
        )
    trace: list[TimedOrientation] = []
    for lineno, row in enumerate(rows[start:], start=start + 1):
        if len(row) != width:
            raise ViewingTraceError(
                f"{path}:{lineno}: expected {width} columns, got {len(row)}"
            )
        values = _parse_floats(path, lineno, row)
        if kind == "euler":
            t, yaw, pitch, roll = values
            pose = Orientation(yaw=yaw, pitch=pitch, roll=roll)
        else:
            t = values[0]
            try:
                pose = quaternion_to_orientation(*values[1:])
            except ValueError as e:
                raise ViewingTraceError(f"{path}:{lineno}: {e} in {row!r}") from None
        if trace and t <= trace[-1].t:
            raise ViewingTraceError(
                f"{path}:{lineno}: timestamps must strictly increase "
                f"({t} after {trace[-1].t})"
            )
        trace.append(TimedOrientation(t=t, o=pose))
    return trace


def save_viewing_trace(trace: list[TimedOrientation], path: str) -> None:
    """Write the native Euler CSV format."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(_EULER_HEADER)
        for s in trace:
            writer.writerow([repr(s.t), repr(s.o.yaw), repr(s.o.pitch), repr(s.o.roll)])


def trace_files(path: str) -> list[str]:
    """The names of the *.csv traces in a directory, sorted."""
    names = sorted(n for n in os.listdir(path) if n.endswith(".csv"))
    if not names:
        raise ViewingTraceError(f"{path}: no .csv viewing traces found")
    return names


def load_trace_dir(path: str) -> list[list[TimedOrientation]]:
    """All *.csv traces under a directory, ordered by file name."""
    return [load_viewing_trace(os.path.join(path, n)) for n in trace_files(path)]
