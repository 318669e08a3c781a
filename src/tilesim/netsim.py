"""Packet-trace network model (Mahimahi-style).

A trace file holds one non-negative integer millisecond timestamp per line;
each line is an opportunity to send one 1500-byte packet. Traces repeat
cyclically: slot k (0-based) beyond the file occurs at
timestamp[k mod N] + (k div N) * duration, where duration is the last
timestamp in the file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .traceio import read_table

PACKET_BYTES = 1500


class TraceError(ValueError):
    """Raised for malformed trace files; the message carries the line number."""


@dataclass(frozen=True)
class NetworkTrace:
    timestamps_ms: np.ndarray = field(repr=False)  # sorted non-negative ints

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps_ms, dtype=np.int64)
        if ts.size == 0:
            raise TraceError("trace holds no packet slots")
        if (ts < 0).any():
            raise TraceError("trace timestamps must be non-negative")
        if (ts[1:] < ts[:-1]).any():
            raise TraceError("trace timestamps must be non-decreasing")
        if ts[-1] <= 0:
            raise TraceError("trace duration must be positive")
        object.__setattr__(self, "timestamps_ms", ts)

    @property
    def packet_count(self) -> int:
        return int(self.timestamps_ms.size)

    @property
    def duration_ms(self) -> int:
        return int(self.timestamps_ms[-1])

    def average_bps(self) -> float:
        """Mean throughput over one cycle of the trace."""
        return self.packet_count * PACKET_BYTES * 8 / (self.duration_ms / 1000.0)


def load_trace(path: str) -> NetworkTrace:
    """Parse a trace file; errors name the offending 1-based line.

    numpy reads an ASCII file in one call when every line is empty or one
    integer, the first is non-negative and none decreases; any other file
    goes through the line scanner, which accepts what int() accepts and names
    the first bad line. (The scanner strips each line before int(), so
    numpy's padding reads alike.)
    """
    table = read_table(path, np.int64)
    stamps = table[:, 0] if table is not None and table.shape[1] == 1 else None
    if stamps is None or stamps[0] < 0 or (stamps[1:] < stamps[:-1]).any():
        stamps = _scan_lines(path)
    try:
        return NetworkTrace(timestamps_ms=stamps)
    except TraceError as e:
        raise TraceError(f"{path}: {e}") from None


def _scan_lines(path: str) -> np.ndarray:
    """load_trace line by line, for files that are not plain."""
    stamps = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                value = int(text)
            except ValueError:
                raise TraceError(
                    f"{path}:{lineno}: not an integer millisecond: {text!r}"
                ) from None
            if value < 0:
                raise TraceError(f"{path}:{lineno}: negative timestamp {value}")
            if stamps and value < stamps[-1]:
                raise TraceError(
                    f"{path}:{lineno}: timestamp {value} decreases below {stamps[-1]}"
                )
            stamps.append(value)
    if not stamps:
        raise TraceError(f"{path}: trace holds no packet slots")
    return np.array(stamps, dtype=np.int64)


def save_trace(trace: NetworkTrace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for t in trace.timestamps_ms.tolist():
            f.write(f"{t}\n")


def scale(trace: NetworkTrace, factor: float) -> NetworkTrace:
    """Multiply throughput by `factor` by dividing every timestamp by it.

    Timestamps are re-rounded to whole milliseconds, so scale(scale(t, f), 1/f)
    matches the original within 1 ms per slot.
    """
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    scaled = np.rint(trace.timestamps_ms / factor).astype(np.int64)
    if scaled[-1] <= 0:
        raise TraceError("scaling collapsed the trace to zero duration")
    return NetworkTrace(timestamps_ms=scaled)


class Link:
    """A trace-driven link consumed sequentially by successive transfers.

    The link is a shared resource: each transfer consumes whole packet slots
    and later transfers continue from the first slot not yet consumed.
    """

    def __init__(self, trace: NetworkTrace):
        self.trace = trace
        self._cursor = 0  # absolute index of the next unconsumed slot
        self.slots_consumed = 0

    def _slot_time_ms(self, k: int) -> int:
        ts = self.trace.timestamps_ms
        n = ts.size
        return int(ts[k % n]) + (k // n) * self.trace.duration_ms

    def _first_slot_after(self, t_ms: float) -> int:
        """Smallest absolute slot index whose time is strictly past t_ms."""
        ts = self.trace.timestamps_ms
        duration = self.trace.duration_ms
        cycle = max(0, int(t_ms // duration))
        within = t_ms - cycle * duration
        # The stamps are integers, so "stamps <= x" is "stamps <= floor(x)";
        # an integer key keeps numpy from casting the whole array to float.
        idx = int(ts.searchsorted(math.floor(within), side="right"))
        if idx == ts.size:  # within == duration exactly; roll to next cycle
            cycle += 1
            idx = int(ts.searchsorted(math.floor(t_ms - cycle * duration), side="right"))
        return cycle * ts.size + idx

    def transfer_time(self, start_s: float, nbytes: int) -> float:
        """Completion time (seconds) of sending nbytes starting after start_s.

        Consumes ceil(nbytes / 1500) packet slots strictly later than start_s
        and not before the link's current consumption point. Zero bytes
        complete immediately and consume nothing.
        """
        if nbytes < 0:
            raise ValueError("cannot transfer a negative byte count")
        if nbytes == 0:
            return start_s
        packets = -(-nbytes // PACKET_BYTES)
        first = max(self._cursor, self._first_slot_after(start_s * 1000.0))
        last = first + packets - 1
        self._cursor = last + 1
        self.slots_consumed += packets
        return self._slot_time_ms(last) / 1000.0
