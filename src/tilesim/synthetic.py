"""Deterministic synthetic fixtures: gaze traces and network traces.

These generators exist so experiments and tests can run without shipping
datasets; identical arguments always produce identical traces.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import ViewingTrace
from .netsim import NetworkTrace


def _steps(duration: float, hz: float) -> np.ndarray:
    """Sample indices k = 0 .. int(duration * hz); sample k is at k / hz."""
    return np.arange(int(duration * hz) + 1)


def _sampled(t: np.ndarray, yaw, pitch) -> ViewingTrace:
    """Samples at times t, roll 0."""
    return ViewingTrace.from_angles(t, yaw, pitch, np.zeros(t.size))


def _sin(arg: np.ndarray) -> np.ndarray:
    """math.sin of each element (np.sin is not bit-equal to it on every host)."""
    return np.fromiter(map(math.sin, arg.tolist()), dtype=np.float64, count=arg.size)


def constant_gaze(
    yaw: float, pitch: float, duration: float, hz: float = 90.0
) -> ViewingTrace:
    """A viewer staring at one point."""
    t = _steps(duration, hz) / hz
    return _sampled(t, np.full(t.size, yaw), np.full(t.size, pitch))


def linear_gaze(
    yaw0: float,
    yaw_rate: float,
    duration: float,
    hz: float = 90.0,
    pitch0: float = 0.0,
    pitch_rate: float = 0.0,
) -> ViewingTrace:
    """Constant-velocity pan; exactly reproducible by a linear predictor."""
    k = _steps(duration, hz)
    return _sampled(k / hz, yaw0 + yaw_rate * k / hz, pitch0 + pitch_rate * k / hz)


def sinusoid_gaze(
    amplitude: float,
    period: float,
    duration: float,
    hz: float = 90.0,
    phase: float = 0.0,
    center_yaw: float = 0.0,
    pitch: float = 0.0,
) -> ViewingTrace:
    """Yaw oscillating sinusoidally; increasingly hard to extrapolate."""
    t = _steps(duration, hz) / hz
    yaw = center_yaw + amplitude * _sin(2.0 * math.pi * t / period + phase)
    return _sampled(t, yaw, np.full(t.size, pitch))


def gaussian_gaze_population(
    count: int,
    duration: float,
    hz: float = 30.0,
    yaw_mean: float = 0.0,
    yaw_std: float = 30.0,
    pitch_std: float = 10.0,
    seed: int = 0,
) -> list[ViewingTrace]:
    """`count` viewers, each staring at a pose drawn from a wrapped normal
    around (yaw_mean, 0); models a shared content hot spot."""
    rng = np.random.default_rng(seed)
    traces = []
    for _ in range(count):
        yaw = float(rng.normal(yaw_mean, yaw_std))
        pitch = float(np.clip(rng.normal(0.0, pitch_std), -90.0, 90.0))
        traces.append(constant_gaze(yaw, pitch, duration, hz))
    return traces


def drifting_gaze(
    seed: int,
    duration: float,
    hz: float = 90.0,
    center_yaw: float = 0.0,
) -> ViewingTrace:
    """A smoothly wandering viewer: one sinusoid with seeded amplitude,
    period, phase, and a gentle pitch sway."""
    rng = np.random.default_rng(seed)
    amplitude = float(rng.uniform(20.0, 60.0))
    period = float(rng.uniform(6.0, 12.0))
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    pitch_amp = float(rng.uniform(0.0, 15.0))
    t = _steps(duration, hz) / hz
    return _sampled(
        t,
        center_yaw + amplitude * _sin(2.0 * math.pi * t / period + phase),
        pitch_amp * _sin(2.0 * math.pi * t / (period * 1.7)),
    )


def _slot_count(rate: float, t0: float, t1: float) -> int:
    """Packets that packet_slots(rate, t0, t1) stamps."""
    return 0 if t1 <= t0 else max(1, int(round(rate * (t1 - t0) / 8.0 / 1500.0)))


def packet_slots(
    rate: float, t0: float, t1: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Millisecond stamps, as an int64 array (`out`, if given), of 1500-byte
    packet slots spread evenly over (t0, t1] seconds at `rate` bit/s; at least
    one slot if t1 > t0, none otherwise. Stamp k is t0 * 1000 + k * gap
    rounded half to even, k = 1 .. packets."""
    out = np.empty(_slot_count(rate, t0, t1), dtype=np.int64) if out is None else out
    stamps = np.arange(1, out.size + 1, dtype=np.float64)
    stamps *= (t1 - t0) * 1000.0 / max(1, out.size)  # the gap; an empty span has none
    stamps += t0 * 1000.0
    out[...] = np.rint(stamps, out=stamps)
    return out


def constant_rate_network(bits_per_second: float, duration_s: float) -> NetworkTrace:
    """Evenly spaced packet slots approximating a constant-rate link."""
    return NetworkTrace(timestamps_ms=packet_slots(bits_per_second, 0.0, duration_s))


def two_phase_network(
    ample_bps: float,
    starved_bps: float,
    cut_s: float,
    duration_s: float,
    recover_s: float | None = None,
) -> NetworkTrace:
    """Ample until cut_s, starved after; optionally ample again from
    recover_s. Used to provoke adaptation-mechanism transitions."""
    end_starved = recover_s if recover_s is not None else duration_s
    phases = [(ample_bps, 0.0, cut_s), (starved_bps, cut_s, end_starved)]
    if recover_s is not None:
        phases.append((ample_bps, recover_s, duration_s))
    ends = np.cumsum([_slot_count(*phase) for phase in phases]).tolist()
    stamps = np.empty(ends[-1], dtype=np.int64)
    for phase, start, end in zip(phases, [0, *ends], ends):
        packet_slots(*phase, out=stamps[start:end])
    return NetworkTrace(timestamps_ms=stamps)
