"""Deterministic synthetic fixtures: gaze traces and network traces.

These generators exist so experiments and tests can run without shipping
datasets; identical arguments always produce identical traces.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import ViewingTrace
from .netsim import NetworkTrace


def _sampled(hz: float, steps: int, yaw: list[float], pitch: list[float]) -> ViewingTrace:
    """Samples at t = k / hz, k < steps, roll 0."""
    t = [k / hz for k in range(steps)]
    return ViewingTrace.from_angles(t, yaw, pitch, np.zeros(steps))


def constant_gaze(
    yaw: float, pitch: float, duration: float, hz: float = 90.0
) -> ViewingTrace:
    """A viewer staring at one point."""
    steps = int(duration * hz) + 1
    return _sampled(hz, steps, [yaw] * steps, [pitch] * steps)


def linear_gaze(
    yaw0: float,
    yaw_rate: float,
    duration: float,
    hz: float = 90.0,
    pitch0: float = 0.0,
    pitch_rate: float = 0.0,
) -> ViewingTrace:
    """Constant-velocity pan; exactly reproducible by a linear predictor."""
    steps = int(duration * hz) + 1
    return _sampled(
        hz,
        steps,
        [yaw0 + yaw_rate * k / hz for k in range(steps)],
        [pitch0 + pitch_rate * k / hz for k in range(steps)],
    )


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
    steps = int(duration * hz) + 1
    return _sampled(
        hz,
        steps,
        [
            center_yaw + amplitude * math.sin(2.0 * math.pi * (k / hz) / period + phase)
            for k in range(steps)
        ],
        [pitch] * steps,
    )


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
    steps = int(duration * hz) + 1
    return _sampled(
        hz,
        steps,
        [
            center_yaw + amplitude * math.sin(2.0 * math.pi * (k / hz) / period + phase)
            for k in range(steps)
        ],
        [pitch_amp * math.sin(2.0 * math.pi * (k / hz) / (period * 1.7)) for k in range(steps)],
    )


def packet_slots(rate: float, t0: float, t1: float) -> list[int]:
    """Millisecond stamps of 1500-byte packet slots spread evenly over
    (t0, t1] seconds at `rate` bit/s; at least one slot if t1 > t0."""
    if t1 <= t0:
        return []
    packets = max(1, int(round(rate * (t1 - t0) / 8.0 / 1500.0)))
    gap_ms = (t1 - t0) * 1000.0 / packets
    return [int(round(t0 * 1000.0 + (k + 1) * gap_ms)) for k in range(packets)]


def constant_rate_network(bits_per_second: float, duration_s: float) -> NetworkTrace:
    """Evenly spaced packet slots approximating a constant-rate link."""
    stamps = packet_slots(bits_per_second, 0.0, duration_s)
    return NetworkTrace(timestamps_ms=np.array(stamps, dtype=np.int64))


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
    stamps = packet_slots(ample_bps, 0.0, cut_s)
    stamps += packet_slots(starved_bps, cut_s, end_starved)
    if recover_s is not None:
        stamps += packet_slots(ample_bps, recover_s, duration_s)
    return NetworkTrace(timestamps_ms=np.array(stamps, dtype=np.int64))
