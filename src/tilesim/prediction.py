"""Viewport prediction by linear regression over a recent pose window.

Yaw and pitch are fitted independently with ordinary least squares; yaw is
unwrapped first (consecutive samples shifted by multiples of 360 degrees to
minimize jumps) so a pan across the antimeridian fits a single line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Orientation, ViewingTrace, orthodromic_distance


@dataclass(frozen=True)
class PredictorConfig:
    """Regression window length in seconds. The look-ahead is the caller's:
    the playback loop predicts each segment one segment length ahead, at its
    playback start."""

    timeframe: float = 0.1

    def __post_init__(self) -> None:
        if self.timeframe <= 0.0:
            raise ValueError("timeframe must be positive")


@dataclass(frozen=True)
class RegressionModel:
    """Per-axis linear fits anchored at fit_time (intercepts are the values
    at fit_time, which makes the model invariant to shifting all timestamps)."""

    yaw_slope: float
    yaw_intercept: float
    pitch_slope: float
    pitch_intercept: float
    fit_time: float
    sample_count: int


def select_window(trace: ViewingTrace, now: float, timeframe: float) -> ViewingTrace:
    """Samples of `trace` with t in [now - timeframe, now]."""
    lo = int(trace.t.searchsorted(now - timeframe, side="left"))
    hi = int(trace.t.searchsorted(now, side="right"))
    return trace[lo:hi]


def _fit_axis(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """OLS slope and intercept-at-x=0 for one axis."""
    if len(x) == 1:
        return 0.0, float(y[0])
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
        sample_count=len(window),
    )


def predict(model: RegressionModel, t_future: float) -> Orientation:
    """Evaluate both fits at t_future; yaw re-wrapped, pitch clamped, roll 0."""
    dt = t_future - model.fit_time
    return Orientation(
        yaw=model.yaw_intercept + model.yaw_slope * dt,
        pitch=model.pitch_intercept + model.pitch_slope * dt,
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
    sample by time) is recorded. Sampling must be dense enough that every
    window holds at least one sample.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    if not trace:
        raise ValueError("empty trace")
    t0, t_end = trace.t.item(0), trace.t.item(-1)
    if t_end - t0 <= interval + timeframe:
        raise ValueError("trace shorter than interval + timeframe")
    errors = []
    k = math.ceil(timeframe / step - 1e-9)
    while t0 + k * step + interval <= t_end + 1e-9:
        now = t0 + k * step
        model = fit(select_window(trace, now, timeframe), now)
        predicted = predict(model, now + interval)
        actual = trace.pose(nearest_sample(trace, now + interval))
        errors.append(orthodromic_distance(predicted, actual))
        k += 1
    return np.array(errors)
