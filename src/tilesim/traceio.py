"""Viewing-trace file IO, and the table reader and writer packet traces share.

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
import warnings

import numpy as np

from .geometry import Orientation, ViewingTrace

_EULER_HEADER = "t_seconds,yaw_deg,pitch_deg,roll_deg\r\n"
WRITE_CHUNK_CELLS = 4096


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
        values = [float(x) for x in row]
    except ValueError:
        raise ViewingTraceError(
            f"{path}:{lineno}: non-numeric value in {row!r}"
        ) from None
    if not all(map(math.isfinite, values)):
        raise ViewingTraceError(f"{path}:{lineno}: non-finite value in {row!r}")
    return values


def read_table(path: str, dtype: type, skiprows: int = 0) -> np.ndarray | None:
    """The comma-separated cells of an ASCII file as a 2-D array, one row per
    line after the first `skiprows`, or None if numpy's reader rejects the
    file: a cell that is not one plain number, a change in column count,
    non-ASCII bytes or no rows. Empty lines are skipped. Quotes and `#` are
    ordinary characters, so a cell holding one is rejected."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(
                path, dtype=dtype, delimiter=",", comments=None, quotechar=None,
                encoding="ascii", skiprows=skiprows, ndmin=2,
            )
        except (ValueError, Warning):
            return None


def write_table(path: str, row_format: str, columns, header: str = "") -> None:
    """Write equal-length 1-D arrays of one dtype to `path` as text: `header`,
    then `row_format % row` for each row of the columns' values as Python
    numbers. Rows go out about WRITE_CHUNK_CELLS values at a time, so no more
    than one chunk is ever held as Python objects or text."""
    rows = WRITE_CHUNK_CELLS // len(columns)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(header)
        for start in range(0, len(columns[0]), rows):
            chunk = np.column_stack([c[start:start + rows] for c in columns])
            f.write((row_format * len(chunk)) % tuple(chunk.ravel().tolist()))


def load_viewing_trace(path: str) -> ViewingTrace:
    """Read one viewing trace, auto-detecting Euler vs quaternion columns.

    numpy reads an ASCII file in one call when its first line is not blank
    and holds no quote, no byte is in 0x1c-0x1f, every row is 4 or 5 numbers
    wide, every value is finite and the times increase. As in the scanner, a
    first line whose first cell float() rejects is a header. Any other file
    goes through the row scanner, which reads what the csv module reads and
    names the first bad line.
    """
    trace = _read_plain(path)
    return trace if trace is not None else _scan_rows(path)


def _read_plain(path: str) -> ViewingTrace | None:
    try:
        with open(path, encoding="ascii") as f:
            text = f.read()
    except UnicodeDecodeError:
        return None
    first = text.partition("\n")[0]
    # csv unquotes a quoted first line and skips a blank one.
    if '"' in first or not first.replace(",", "").strip():
        return None
    # numpy reads the separators 0x1c-0x1f as whitespace; float() does not.
    if any(c in text for c in "\x1c\x1d\x1e\x1f"):
        return None
    try:
        float(first.split(",")[0])
        header = 0
    except ValueError:
        header = 1
    table = read_table(path, np.float64, skiprows=header)
    if table is None or table.shape[1] not in (4, 5) or not np.isfinite(table).all():
        return None
    columns = table.T.copy()
    t = columns[0]
    if not (t[1:] > t[:-1]).all():
        return None
    if len(columns) == 4:
        return ViewingTrace.from_angles(*columns)
    try:
        return _packed(t, [quaternion_to_orientation(*q) for q in table[:, 1:].tolist()])
    except ValueError:
        return None


def _packed(t, poses: list[Orientation]) -> ViewingTrace:
    return ViewingTrace(
        t, [o.yaw for o in poses], [o.pitch for o in poses], [o.roll for o in poses]
    )


def _scan_rows(path: str) -> ViewingTrace:
    """load_viewing_trace row by row, for files that are not plain. Errors
    name the physical line a row ends on, blank lines counted."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            reader = csv.reader(f)
            rows = [
                (reader.line_num, row) for row in reader if row and any(x.strip() for x in row)
            ]
    except UnicodeDecodeError as e:
        raise ViewingTraceError(
            f"{path}: not UTF-8 text ({e.reason} at byte {e.start})"
        ) from None
    if not rows:
        raise ViewingTraceError(f"{path}: empty trace file")
    start = 0
    width = len(rows[0][1])
    try:
        float(rows[0][1][0])
    except ValueError:
        start = 1
        if not rows[1:]:
            raise ViewingTraceError(f"{path}: header but no samples")
        width = len(rows[1][1])
    if width == 4:
        kind = "euler"
    elif width == 5:
        kind = "quaternion"
    else:
        raise ViewingTraceError(
            f"{path}: expected 4 (euler) or 5 (quaternion) columns, got {width}"
        )
    ts: list[float] = []
    poses: list[Orientation] = []
    for lineno, row in rows[start:]:
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
        if ts and t <= ts[-1]:
            raise ViewingTraceError(
                f"{path}:{lineno}: timestamps must strictly increase "
                f"({t} after {ts[-1]})"
            )
        ts.append(t)
        poses.append(pose)
    return _packed(ts, poses)


def save_viewing_trace(trace: ViewingTrace, path: str) -> None:
    """Write the native Euler CSV format: each value as its float repr, CRLF
    line ends (what csv.writer writes for such rows)."""
    write_table(
        path, "%r,%r,%r,%r\r\n", (trace.t, trace.yaw, trace.pitch, trace.roll), _EULER_HEADER
    )


def trace_files(path: str) -> list[str]:
    """The names of the *.csv traces in a directory, sorted."""
    names = sorted(n for n in os.listdir(path) if n.endswith(".csv"))
    if not names:
        raise ViewingTraceError(f"{path}: no .csv viewing traces found")
    return names


def load_trace_dir(path: str) -> list[ViewingTrace]:
    """All *.csv traces under a directory, ordered by file name."""
    return [load_viewing_trace(os.path.join(path, n)) for n in trace_files(path)]
