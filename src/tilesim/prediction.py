"""Viewport prediction by linear regression over a recent pose window.

Yaw and pitch are fitted independently with ordinary least squares; yaw is
unwrapped first (consecutive samples shifted by multiples of 360 degrees to
minimize jumps) so a pan across the antimeridian fits a single line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ViewingTrace, orthodromic_distance, wrap_pose


@dataclass(frozen=True)
class RegressionModel:
    """Per-axis linear fits anchored at fit_time (intercepts are the values
    at fit_time, which makes the model invariant to shifting all timestamps)."""

    yaw_slope: float
    yaw_intercept: float
    pitch_slope: float
    pitch_intercept: float
    fit_time: float


def select_window(trace: ViewingTrace, now: float, timeframe: float) -> ViewingTrace:
    """Samples of `trace` with t in [now - timeframe, now]."""
    lo = int(trace.t.searchsorted(now - timeframe, side="left"))
    hi = int(trace.t.searchsorted(now, side="right"))
    return trace[lo:hi]


def _fit_axis(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """OLS slope and intercept-at-x=0 for one axis."""
    xm = x.mean()
    dx = x - xm
    denom = float((dx * dx).sum())
    if denom == 0.0:
        return 0.0, float(y.mean())
    slope = float((dx * y).sum()) / denom
    intercept = float(y.mean()) - slope * float(xm)
    return slope, intercept


def fit(window: ViewingTrace, now: float) -> RegressionModel:
    """Fit yaw and pitch lines over `window`, anchored at `now`.

    A single sample yields a constant model. Raises ValueError on an empty
    window (the caller is expected to select a non-empty one).
    """
    if not window:
        raise ValueError("cannot fit a head-movement model on an empty window")
    x = window.t - now
    ys, yi = _fit_axis(x, np.unwrap(window.yaw, period=360.0))
    ps, pi = _fit_axis(x, window.pitch)
    return RegressionModel(
        yaw_slope=ys,
        yaw_intercept=yi,
        pitch_slope=ps,
        pitch_intercept=pi,
        fit_time=now,
    )


def predict(model: RegressionModel, t_future: float) -> tuple[float, float]:
    """Evaluate both fits at t_future: the (yaw, pitch) pair, put through
    wrap_pose."""
    dt = t_future - model.fit_time
    return wrap_pose(
        model.yaw_intercept + model.yaw_slope * dt,
        model.pitch_intercept + model.pitch_slope * dt,
    )


def nearest_sample(trace: ViewingTrace, t: float) -> int:
    """The index of the trace sample whose timestamp is closest to t (the
    earlier one on ties)."""
    pos = int(trace.t.searchsorted(t, side="left"))
    if pos == 0:
        return 0
    if pos == len(trace):
        return pos - 1
    before, after = trace.t.item(pos - 1), trace.t.item(pos)
    return pos if (after - t) < (t - before) else pos - 1


# One step per sample of an 18-minute 90 Hz trace: a call at the limit took
# 7 to 9 s and peaked at 50 MB of allocations on a 2-vCPU x86 host.
MAX_STEPS = 100_000


def error_experiment(
    trace: ViewingTrace,
    interval: float,
    timeframe: float,
    step: float,
) -> np.ndarray:
    """Prediction errors along a trace, one per step, in degrees.

    Steps through the trace at `step`-second increments, starting at the
    first step whose regression window [now - timeframe, now] lies fully
    inside the trace, and stopping while now + interval is still covered.
    At each step the window is fitted, the pose at now + interval is
    predicted, and the orthodromic distance to the actual pose (nearest
    sample by time) is recorded; all steps' distances are measured in one
    call. Sampling must be dense enough that every window holds at least
    one sample, and the lookups by time rely on ViewingTrace's times never
    decreasing. ValueError when no step fits, or more than MAX_STEPS do.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    if not trace:
        raise ValueError("empty trace")
    t0, t_end = trace.t.item(0), trace.t.item(-1)
    if t_end - t0 <= interval + timeframe:
        raise ValueError("trace shorter than interval + timeframe")
    # The loop below takes floor(last) - ceil(first) + 1 steps; inf and NaN are too many.
    first, last = timeframe / step - 1e-9, (t_end + 1e-9 - interval - t0) / step
    if not last - first < MAX_STEPS + 1 or math.floor(last) - math.ceil(first) >= MAX_STEPS:
        raise ValueError(f"step {step}s makes more than the {MAX_STEPS} steps allowed")
    steps = []
    k = math.ceil(first)
    while t0 + k * step + interval <= t_end + 1e-9:
        steps.append(t0 + k * step)
        k += 1
    if not steps:
        raise ValueError(f"no {step}s step fits timeframe + interval inside the trace")
    targets = [now + interval for now in steps]
    yaw, pitch = zip(*(
        predict(fit(select_window(trace, now, timeframe), now), target)
        for now, target in zip(steps, targets)
    ))
    actual = np.array([nearest_sample(trace, target) for target in targets], dtype=np.int64)
    return orthodromic_distance(ViewingTrace(targets, yaw, pitch), trace[actual])
