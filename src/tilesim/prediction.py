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


def select_window(
    trace: ViewingTrace, nows: np.ndarray, timeframe: float
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds (lo, hi) of the regression windows ending at each of `nows`:
    trace[lo[i]:hi[i]] holds the samples with t in [nows[i] - timeframe,
    nows[i]]. One searchsorted per bound answers every time at once."""
    lo = trace.t.searchsorted(nows - timeframe, side="left")
    return lo, trace.t.searchsorted(nows, side="right")


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


def nearest_sample(trace: ViewingTrace, times: np.ndarray) -> np.ndarray:
    """The index of the trace sample whose timestamp is closest to each of
    `times` (the earlier one on ties; the first or last sample for a time
    outside the trace), from one searchsorted and one comparison."""
    pos = trace.t.searchsorted(times, side="left")
    after, before = np.minimum(pos, len(trace) - 1), np.maximum(pos - 1, 0)
    return np.where(trace.t[after] - times < times - trace.t[before], after, before)


def predict_poses(
    trace: ViewingTrace, lo: np.ndarray, hi: np.ndarray, nows: np.ndarray, targets: np.ndarray
) -> ViewingTrace:
    """The poses predicted at `targets`: pose i fits trace[lo[i]:hi[i]]
    anchored at nows[i] and evaluates the fit at targets[i]. The one
    fit-and-predict loop; ValueError (from fit) on an empty window."""
    windows = zip(lo.tolist(), hi.tolist(), nows.tolist(), targets.tolist())
    poses = [predict(fit(trace[a:b], now), target) for a, b, now, target in windows]
    return ViewingTrace(targets, *np.array(poses).reshape(-1, 2).T)


# One step per sample of an 18-minute 90 Hz trace: a call at the limit took
# 7 to 9 s and peaked at 50 MB of allocations on a 2-vCPU x86 host.
MAX_STEPS = 100_000


def error_experiment(
    trace: ViewingTrace, interval: float, timeframe: float, step: float
) -> np.ndarray:
    """Prediction errors along a trace, one per step, in degrees.

    Steps through the trace at `step`-second increments, starting at the
    first step whose regression window [now - timeframe, now] lies fully
    inside the trace, and stopping while now + interval is still covered.
    The errors are of the steps the loop lists, at most MAX_STEPS, counted
    as they are listed. All steps' poses at now + interval are predicted
    (predict_poses) and their orthodromic distances to the actual poses
    (nearest sample by time) measured in one call. Every window must hold
    a sample. ValueError when no step fits, a step past MAX_STEPS fits, or
    timeframe / step is not finite.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    if not trace:
        raise ValueError("empty trace")
    t0, t_end = trace.t.item(0), trace.t.item(-1)
    if t_end - t0 <= interval + timeframe:
        raise ValueError("trace shorter than interval + timeframe")
    too_many = f"step {step}s makes more than the {MAX_STEPS} steps allowed"
    if not math.isfinite(timeframe / step):
        raise ValueError(too_many)
    steps = []
    k = math.ceil(timeframe / step - 1e-9)
    while t0 + k * step + interval <= t_end + 1e-9:
        if len(steps) == MAX_STEPS:
            raise ValueError(too_many)
        steps.append(t0 + k * step)
        k += 1
    if not steps:
        raise ValueError(f"no {step}s step fits timeframe + interval inside the trace")
    nows = np.array(steps)
    targets = nows + interval
    predicted = predict_poses(trace, *select_window(trace, nows, timeframe), nows, targets)
    return orthodromic_distance(predicted, trace[nearest_sample(trace, targets)])
