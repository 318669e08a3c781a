import numpy as np
import pytest

from helpers import trace_of
from tilesim.geometry import Orientation, ViewingTrace
from tilesim.prediction import (
    PredictorConfig,
    error_experiment,
    fit,
    nearest_sample,
    predict,
    select_window,
)
from tilesim.synthetic import constant_gaze, linear_gaze, sinusoid_gaze


def linear_trace(yaw0, yaw_rate, times, pitch0=0.0, pitch_rate=0.0):
    return trace_of(
        [(t, Orientation(yaw0 + yaw_rate * t, pitch0 + pitch_rate * t)) for t in times]
    )


class TestConfig:
    def test_defaults(self):
        cfg = PredictorConfig()
        assert cfg.timeframe == 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            PredictorConfig(timeframe=0.0)


class TestSelectWindow:
    def test_inclusive_boundaries(self):
        trace = linear_trace(0, 0, [0.0, 0.5, 1.0, 1.5])
        window = select_window(trace, now=1.0, timeframe=0.5)
        assert window.t.tolist() == [0.5, 1.0]

    def test_excludes_future_samples(self):
        trace = linear_trace(0, 0, [0.0, 0.5, 1.0, 1.5])
        window = select_window(trace, now=1.4, timeframe=0.5)
        assert window.t.tolist() == [1.0]

    def test_returns_views(self):
        trace = linear_trace(0, 0, [0.0, 0.5, 1.0, 1.5])
        window = select_window(trace, now=1.0, timeframe=0.5)
        assert isinstance(window, ViewingTrace)
        assert np.shares_memory(window.t, trace.t)
        assert not window.t.flags.writeable


class TestFitPredict:
    def test_empty_window_raises(self):
        with pytest.raises(ValueError):
            fit(trace_of([]), now=0.0)

    def test_single_sample_gives_constant_model(self):
        model = fit(trace_of([(2.0, Orientation(42.0, -5.0))]), now=2.0)
        assert model.yaw_slope == 0.0
        assert model.pitch_slope == 0.0
        assert model.sample_count == 1
        o = predict(model, 100.0)
        assert o.yaw == 42.0
        assert o.pitch == -5.0

    def test_stationary_gaze_stays_put(self):
        trace = constant_gaze(42.0, -5.0, duration=1.0, hz=10.0)
        model = fit(trace, now=trace.t[-1])
        assert model.yaw_slope == pytest.approx(0.0, abs=1e-9)
        assert model.pitch_slope == pytest.approx(0.0, abs=1e-9)
        o = predict(model, trace.t[-1] + 3.0)
        assert o.yaw == pytest.approx(42.0, abs=1e-9)
        assert o.pitch == pytest.approx(-5.0, abs=1e-9)

    def test_linear_motion_recovered_exactly(self):
        times = np.arange(0.0, 1.0, 0.1)
        trace = linear_trace(3.0, 10.0, times, pitch0=-2.0, pitch_rate=4.0)
        model = fit(trace, now=0.9)
        assert model.yaw_slope == pytest.approx(10.0, abs=1e-9)
        assert model.pitch_slope == pytest.approx(4.0, abs=1e-9)
        o = predict(model, 2.0)
        assert o.yaw == pytest.approx(23.0, abs=1e-8)
        assert o.pitch == pytest.approx(6.0, abs=1e-8)

    def test_yaw_fit_crosses_antimeridian(self):
        trace = trace_of([
            (0.0, Orientation(179.0, 0.0)),
            (0.1, Orientation(-180.0, 0.0)),
            (0.2, Orientation(-179.0, 0.0)),
        ])
        model = fit(trace, now=0.2)
        assert model.yaw_slope == pytest.approx(10.0, abs=1e-6)
        assert predict(model, 0.2).yaw == pytest.approx(-179.0, abs=1e-6)
        assert predict(model, 1.7).yaw == pytest.approx(-164.0, abs=1e-6)

    def test_predicted_pitch_clamped_at_pole(self):
        times = np.arange(0.0, 1.0, 0.1)
        trace = linear_trace(0.0, 0.0, times, pitch0=0.0, pitch_rate=10.0)
        model = fit(trace, now=0.9)
        assert predict(model, 9.5).pitch == 90.0

    def test_anchor_shift_is_equivalent(self):
        times = np.arange(0.0, 1.0, 0.1)
        base = linear_trace(5.0, 8.0, times)
        shifted = ViewingTrace(base.t + 7.25, base.yaw, base.pitch, base.roll)
        a = predict(fit(base, now=0.9), 1.4)
        b = predict(fit(shifted, now=0.9 + 7.25), 1.4 + 7.25)
        assert a.yaw == pytest.approx(b.yaw, abs=1e-8)
        assert a.pitch == pytest.approx(b.pitch, abs=1e-8)


class TestNearestSample:
    def test_snaps_to_closest(self):
        trace = linear_trace(0, 1, [0.0, 1.0, 2.0])
        assert nearest_sample(trace, 0.4) == 0
        assert nearest_sample(trace, 0.6) == 1
        assert nearest_sample(trace, -5.0) == 0
        assert nearest_sample(trace, 9.0) == 2

    def test_tie_prefers_earlier(self):
        trace = linear_trace(0, 1, [1.0, 2.0])
        assert nearest_sample(trace, 1.5) == 0


class TestErrorExperiment:
    def test_validation(self):
        trace = linear_trace(0, 1, [0.0, 0.5, 1.0])
        with pytest.raises(ValueError):
            error_experiment(trace, interval=1.0, timeframe=0.5, step=0.0)
        with pytest.raises(ValueError):
            error_experiment([], interval=1.0, timeframe=0.5, step=0.5)
        with pytest.raises(ValueError):
            error_experiment(trace, interval=1.0, timeframe=0.5, step=0.5)

    def test_starts_at_first_full_window(self):
        times = np.linspace(0.0, 10.0, 41)  # 0.25 s apart, t_end exactly 10
        trace = linear_trace(0.0, 5.0, times)
        errors = error_experiment(trace, interval=1.0, timeframe=1.0, step=0.5)
        # k runs 2..18: now 1.0 through 9.0
        assert len(errors) == 17
        errors = error_experiment(trace, interval=1.0, timeframe=1.0, step=0.4)
        # k runs 3..22: now 1.2 through 8.8
        assert len(errors) == 20

    def test_constant_velocity_is_error_free(self):
        trace = linear_gaze(0.0, 5.0, duration=10.0, hz=30.0)
        errors = error_experiment(trace, interval=1.0, timeframe=1.0, step=0.5)
        assert errors.max() <= 1e-6

    def test_error_free_across_antimeridian(self):
        trace = linear_gaze(170.0, 4.0, duration=10.0, hz=30.0)
        errors = error_experiment(trace, interval=2.0, timeframe=1.0, step=0.5)
        assert errors.max() <= 1e-6

    def test_stationary_is_error_free(self):
        trace = constant_gaze(12.0, 34.0, duration=6.0, hz=30.0)
        errors = error_experiment(trace, interval=1.5, timeframe=0.1, step=1.5)
        assert errors.max() <= 1e-6

    def test_curved_motion_degrades_with_lookahead(self):
        trace = sinusoid_gaze(amplitude=45.0, period=8.0, duration=30.0, hz=30.0)
        means = [
            error_experiment(trace, interval=i, timeframe=1.0, step=0.25).mean()
            for i in (0.5, 1.0, 1.5, 2.0)
        ]
        assert means[0] < means[1] < means[2] < means[3]
