"""Viewing-trace file IO, and the table reader and writer packet traces share.

Native format: CSV with header ``t_seconds,yaw_deg,pitch_deg,roll_deg``,
rows sorted by strictly increasing time. roll_deg is read and must be finite,
but a pose is yaw and pitch, so it is not kept; saving writes 0.0 there.
Quaternion logs (Corbillon-style head-movement datasets) are also accepted:
five columns t,qw,qx,qy,qz, header optional, not all of qw..qz zero, at any
scale.

Quaternion convention: right-handed world with x forward, y left, z up; the
view direction is q * (1,0,0) * conj(q), and yaw/pitch come from it. The
table converts as columns, with `math`'s hypot, atan2 and asin mapped over
them by geometry.each, so each row gets the bits a scalar conversion gives.
"""

from __future__ import annotations

import math
import os
import warnings
from functools import partial
from itertools import chain

import numpy as np

from .geometry import ViewingTrace, each

_EULER_HEADER = "t_seconds,yaw_deg,pitch_deg,roll_deg\r\n"
READ_BLOCK_CHARS = 1 << 16
WRITE_CHUNK_CELLS = 4096


class ViewingTraceError(ValueError):
    """Raised for malformed viewing-trace files."""


def read_table(
    path: str, dtype: type, error: type, skiprows: int = 0
) -> tuple[np.ndarray, tuple[int, str] | None]:
    """The comma-separated cells of an ASCII file as a 2-D array, one row per
    non-empty line after the first `skiprows` lines, and None. If numpy's
    reader rejects a row (a cell that is not one plain number, or a change
    in column count): the rows before it, and row_line's (number, text) of
    that row. Quotes and `#` are ordinary characters, so a cell holding one
    is rejected. A file that is not ASCII raises `error`."""
    load = partial(
        np.loadtxt, dtype=dtype, delimiter=",", comments=None, quotechar=None,
        encoding="ascii", ndmin=2,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return load(path, skiprows=skiprows), None
        except (ValueError, Warning):
            pass
    with open(path, "rb") as f:
        offset = 0
        for block in iter(lambda: f.read(1 << 16), b""):
            if not block.isascii():
                byte = offset + next(i for i, b in enumerate(block) if b >= 0x80)
                raise error(f"{path}: not ASCII text (byte {byte})")
            offset += len(block)
    # numpy rejects a row for its own cells or for a column count unlike the
    # rows before it, so reading blocks of lines in order meets the rejected
    # row in one pass. Only its block is halved down to it.
    parts, lineno, rejected, tail = [], skiprows, None, ""
    # Universal newlines end lines where numpy does; a block of blank lines warns.
    with open(path, encoding="ascii") as f, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for _ in range(skiprows):
            f.readline()
        for text in chain(iter(lambda: f.read(READ_BLOCK_CHARS), ""), ["\n"]):
            lines = (tail + text).split("\n")
            tail = lines.pop()
            if _take_rows(load, lines, parts):
                lineno += len(lines)
                continue
            while len(lines) > 1:
                half = len(lines) // 2
                if _take_rows(load, lines[:half], parts):
                    lineno, lines = lineno + half, lines[half:]
                else:
                    lines = lines[:half]
            rejected = lineno + 1, lines[0]
            break
    return np.concatenate(parts) if parts else np.empty((0, 1), dtype), rejected


def _take_rows(load, lines: list[str], parts: list[np.ndarray]) -> bool:
    """Append numpy's rows of `lines` to `parts`; False if numpy rejects one
    of them or their column count differs from the rows in `parts`."""
    try:
        rows = load(lines)
    except ValueError:
        return False
    if len(rows):
        if parts and rows.shape[1] != parts[0].shape[1]:
            return False
        parts.append(rows)
    return True


def row_line(path: str, skiprows: int, row: int) -> tuple[int, str]:
    """The 1-based line number and text, line end dropped, of read_table's
    0-based `row`. Lines end in LF, CRLF or CR, as numpy reads them."""
    with open(path, encoding="ascii", newline="") as f:
        for lineno, line in enumerate(f, start=1):
            text = line.rstrip("\r\n")
            if lineno > skiprows and text:
                if row == 0:
                    return lineno, text
                row -= 1


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

    The first line is a header when float() rejects its first cell. numpy
    reads the rest (see read_table). Rows are checked in order and the first
    bad one is named by its line, blank lines counted: within a row, its
    column count, its cells, finiteness, a zero quaternion, then its time.
    """
    with open(path, encoding="latin-1") as f:
        first = f.readline()
    try:
        float(first.split(",")[0])
        header = 0
    except ValueError:
        header = 1
    table, rejected = read_table(path, np.float64, ViewingTraceError, skiprows=header)
    if not len(table) and rejected is None:
        raise ViewingTraceError(
            f"{path}: header but no samples" if first.strip() else f"{path}: empty trace file"
        )
    width = table.shape[1] if len(table) else len(rejected[1].split(","))
    if width not in (4, 5):
        raise ViewingTraceError(
            f"{path}: expected 4 (euler) or 5 (quaternion) columns, got {width}"
        )
    t = table[:, 0]
    finite = np.isfinite(table).all(axis=1)
    # A quaternion has no direction when every component is zero.
    zero = (table[:, 1:] == 0).all(axis=1) if width == 5 else np.zeros_like(finite)
    bad = ~finite | zero
    bad[1:] |= t[1:] <= t[:-1]
    if bad.any():
        k = int(bad.argmax())
        lineno, text = row_line(path, header, k)
        row = text.split(",")
        if not finite[k]:
            raise ViewingTraceError(f"{path}:{lineno}: non-finite value in {row!r}")
        if zero[k]:
            raise ViewingTraceError(f"{path}:{lineno}: zero quaternion in {row!r}")
        before, after = t[k - 1:k + 1].tolist()
        raise ViewingTraceError(
            f"{path}:{lineno}: timestamps must strictly increase ({after} after {before})"
        )
    if rejected is not None:
        lineno, row = rejected[0], rejected[1].split(",")
        if len(row) != width:
            raise ViewingTraceError(f"{path}:{lineno}: expected {width} columns, got {len(row)}")
        raise ViewingTraceError(f"{path}:{lineno}: non-numeric value in {row!r}")
    if width == 4:
        yaw, pitch = table[:, 1], table[:, 2]
    else:
        # Each row times the power of two that puts its largest component in
        # [0.5, 1), so the norm neither overflows nor rounds to a subnormal.
        q = table[:, 1:]
        q = np.ldexp(q, -np.frexp(abs(q).max(axis=1, keepdims=True))[1])
        qw, qx, qy, qz = (q / each(math.hypot, *q.T)[:, None]).T
        # The rotation matrix's first column: q * (1,0,0) * conj(q).
        fx = 1.0 - 2.0 * (qy * qy + qz * qz)
        fy = 2.0 * (qx * qy + qw * qz)
        fz = 2.0 * (qx * qz - qw * qy)
        yaw = each(math.atan2, fy, fx) * (180.0 / math.pi)
        pitch = each(math.asin, fz.clip(-1.0, 1.0)) * (180.0 / math.pi)
    return ViewingTrace.from_angles(t.copy(), yaw, pitch)


def save_viewing_trace(trace: ViewingTrace, path: str) -> None:
    """Write the native Euler CSV format: each value as its float repr, roll
    as 0.0, CRLF line ends (what csv.writer writes for such rows)."""
    write_table(path, "%r,%r,%r,0.0\r\n", (trace.t, trace.yaw, trace.pitch), _EULER_HEADER)


def load_trace_dir(path: str) -> dict[str, ViewingTrace]:
    """Every *.csv trace in a directory, keyed by file name, in name order."""
    names = sorted(n for n in os.listdir(path) if n.endswith(".csv"))
    if not names:
        raise ViewingTraceError(f"{path}: no .csv viewing traces found")
    return {n: load_viewing_trace(os.path.join(path, n)) for n in names}
