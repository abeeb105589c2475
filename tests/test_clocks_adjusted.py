"""Unit tests for the piecewise-linear adjusted clock."""

import pytest

from repro.clocks.adjusted import AdjustedClock, ClockSegment, MonotonicityError


def test_identity_by_default():
    clock = AdjustedClock()
    assert clock.read(123.0) == 123.0
    assert clock.k == 1.0 and clock.b == 0.0


def test_active_segment_is_read_only():
    # k and b change only through adjust(), which checks slope and continuity.
    clock = AdjustedClock()
    with pytest.raises(AttributeError):
        clock.k = 2.0
    with pytest.raises(AttributeError):
        clock.b = 5.0
    assert clock.read(10.0) == clock.read_current(10.0) == 10.0


def test_continuous_adjust_accepted():
    clock = AdjustedClock()
    # new segment through (100, 100): c = 1.0002 * t - 0.02
    clock.adjust(1.0002, 100.0 - 1.0002 * 100.0, at_local_time=100.0)
    assert clock.read(100.0) == pytest.approx(100.0)
    assert clock.read(200.0) == pytest.approx(1.0002 * 200.0 + clock.b)


def test_discontinuous_adjust_rejected():
    clock = AdjustedClock()
    with pytest.raises(MonotonicityError):
        clock.adjust(1.0, 5.0, at_local_time=100.0)  # jumps by +5


def test_nonpositive_slope_rejected():
    clock = AdjustedClock()
    for k in [0.0, -1.0, float("nan")]:
        with pytest.raises(MonotonicityError):
            clock.adjust(k, 0.0, at_local_time=0.0)


def test_adjust_before_previous_switch_rejected():
    clock = AdjustedClock()
    clock.adjust(1.0, 0.0, at_local_time=100.0)
    with pytest.raises(MonotonicityError):
        clock.adjust(1.0, 0.0, at_local_time=50.0)


def test_read_uses_segment_history():
    clock = AdjustedClock()
    clock.adjust(2e-3 + 1.0, 100.0 - (1.0 + 2e-3) * 100.0, at_local_time=100.0)
    # times before the switch use the original identity segment
    assert clock.read(50.0) == 50.0
    # times after use the new slope
    assert clock.read(150.0) == pytest.approx((1.0 + 2e-3) * 150.0 + clock.b)


def test_read_current_uses_only_latest_segment():
    clock = AdjustedClock()
    clock.adjust(1.001, -0.1, at_local_time=100.0)
    assert clock.read_current(50.0) == pytest.approx(1.001 * 50.0 - 0.1)


def test_slew_to_derives_intercept():
    clock = AdjustedClock()
    clock.slew_to(0.0, 1.0005, at_local_time=1_000.0)
    assert clock.read(1_000.0) == pytest.approx(1_000.0)
    assert clock.k == 1.0005


def test_monotonic_over_many_adjustments():
    clock = AdjustedClock()
    t = 0.0
    slope = 1.0
    for i in range(50):
        t += 100.0
        slope = 1.0 + ((-1) ** i) * 3e-4
        current = clock.read_current(t)
        clock.adjust(slope, current - slope * t, at_local_time=t)
    assert clock.is_monotonic(0.0, t + 100.0)
    assert clock.adjustments == 50


def test_segments_are_recorded():
    clock = AdjustedClock()
    clock.slew_to(0.0, 1.0001, 10.0)
    clock.slew_to(0.0, 0.9999, 20.0)
    segments = clock.segments
    assert len(segments) == 3
    assert isinstance(segments[0], ClockSegment)
    assert segments[1].start == 10.0
    assert segments[2].k == 0.9999


def test_is_monotonic_validates_range():
    clock = AdjustedClock()
    with pytest.raises(ValueError):
        clock.is_monotonic(10.0, 0.0)
