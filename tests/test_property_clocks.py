"""Property-based tests on the clock substrate (hypothesis)."""

import bisect
import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.clocks.adjusted import (
    CONTINUITY_TOL_US,
    AdjustedClock,
    ClockSegment,
    MonotonicityError,
)
from repro.clocks.oscillator import HardwareClock, TsfTimer

rates = st.floats(min_value=0.999, max_value=1.001)
offsets = st.floats(min_value=-1e6, max_value=1e6)
times = st.floats(min_value=0.0, max_value=1e9)
slopes = st.floats(min_value=0.995, max_value=1.005)


class TestHardwareClockProperties:
    @given(rate=rates, offset=offsets, t=times)
    def test_read_inverts(self, rate, offset, t):
        clock = HardwareClock(rate=rate, initial_offset=offset)
        assert math.isclose(clock.true_time_at(clock.read(t)), t, abs_tol=1e-3)

    @given(rate=rates, offset=offsets, t1=times, t2=times)
    def test_strictly_increasing(self, rate, offset, t1, t2):
        assume(t2 > t1 + 1e-3)  # below float resolution ties are expected
        clock = HardwareClock(rate=rate, initial_offset=offset)
        assert clock.read(t2) > clock.read(t1)

    @given(rate=rates, offset=offsets, t1=times, t2=times)
    def test_linearity(self, rate, offset, t1, t2):
        clock = HardwareClock(rate=rate, initial_offset=offset)
        midpoint = (t1 + t2) / 2
        assert math.isclose(
            clock.read(midpoint),
            (clock.read(t1) + clock.read(t2)) / 2,
            rel_tol=1e-12,
            abs_tol=1e-6,
        )


class TestTsfTimerProperties:
    @given(
        rate=rates,
        sets=st.lists(
            st.tuples(times, st.floats(min_value=-1e4, max_value=1e4)),
            min_size=1,
            max_size=20,
        ),
    )
    def test_timer_never_decreases_under_any_adoption_sequence(self, rate, sets):
        timer = TsfTimer(HardwareClock(rate=rate))
        previous_time = 0.0
        previous_value = timer.raw(0.0)
        for t, delta in sorted(sets):
            timer.set_forward(timer.raw(t) + delta, t)
            value = timer.raw(max(t, previous_time))
            assert value >= previous_value - 1e-6
            previous_time = max(t, previous_time)
            previous_value = timer.raw(previous_time)


class TestAdjustedClockProperties:
    @given(
        adjustments=st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=1e7),  # time step
                slopes,
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50)
    def test_continuous_slews_preserve_monotonicity(self, adjustments):
        clock = AdjustedClock()
        t = 0.0
        for step, slope in adjustments:
            t += step
            clock.slew_to(0.0, slope, at_local_time=t)
        assert clock.is_monotonic(0.0, t + 1e6, samples=128)

    @given(
        t_switch=st.floats(min_value=1.0, max_value=1e8),
        slope=slopes,
        probe=st.floats(min_value=0.0, max_value=1e-3),
    )
    def test_continuity_at_switch_point(self, t_switch, slope, probe):
        clock = AdjustedClock()
        clock.slew_to(0.0, slope, at_local_time=t_switch)
        before = clock.read(t_switch - probe)
        after = clock.read(t_switch + probe)
        # values within 2 * probe * max_slope of each other
        assert abs(after - before) <= 2 * probe * 1.01 + 1e-3

    @given(jump=st.floats(min_value=0.01, max_value=1e6))
    def test_discontinuity_always_rejected(self, jump):
        clock = AdjustedClock()
        try:
            clock.adjust(1.0, jump, at_local_time=100.0)
        except MonotonicityError:
            return
        raise AssertionError("discontinuous adjustment accepted")


class _SegmentReference:
    """The per-segment adjusted clock: one ClockSegment object per
    adjustment, the layout AdjustedClock stored before its history became
    columns. The columnar clock must be observably identical to it."""

    def __init__(self, k: float = 1.0, b: float = 0.0) -> None:
        if not (k > 0.0) or math.isinf(k) or math.isnan(k):
            raise MonotonicityError(f"slope k must be finite and > 0, got {k}")
        self.segments = [ClockSegment(start=-math.inf, k=float(k), b=float(b))]

    def read(self, local_time: float) -> float:
        starts = [segment.start for segment in self.segments]
        index = bisect.bisect_right(starts, local_time) - 1
        return self.segments[index].value(local_time)

    def read_current(self, local_time: float) -> float:
        return self.segments[-1].value(local_time)

    def adjust(self, k: float, b: float, at_local_time: float) -> None:
        if not (k > 0.0) or math.isinf(k) or math.isnan(k):
            raise MonotonicityError(f"slope k must be finite and > 0, got {k}")
        last = self.segments[-1]
        if at_local_time < last.start:
            raise MonotonicityError("precedes previous segment start")
        if abs((k * at_local_time + b) - last.value(at_local_time)) > CONTINUITY_TOL_US:
            raise MonotonicityError("discontinuous adjustment")
        self.segments.append(
            ClockSegment(start=float(at_local_time), k=float(k), b=float(b))
        )

    def is_monotonic(self, t_start: float, t_end: float, samples: int = 256) -> bool:
        points = [t_start + (t_end - t_start) * i / samples for i in range(samples + 1)]
        points.extend(
            s.start for s in self.segments if t_start <= s.start <= t_end
        )
        points.sort()
        previous = -math.inf
        for point in points:
            value = self.read(point)
            if value < previous - 1e-6:
                return False
            previous = value
        return True


#: One step of an adjustment sequence: (kind, slope, switch-time delta,
#: intercept error). "slew" joins continuously, "jump" adds the error to
#: the joining intercept, "bad_slope" passes a non-positive/NaN/inf k.
adjust_steps = st.tuples(
    st.sampled_from(["slew", "slew", "slew", "jump", "bad_slope"]),
    slopes,
    st.floats(min_value=-5e4, max_value=1e6),
    st.sampled_from([0.0, 5e-4, -5e-4, 2e-3, -1.0, 50.0]),
)
bad_slopes = st.sampled_from([0.0, -1.0, math.nan, math.inf])


class TestColumnarAdjustedClock:
    @given(
        k0=slopes,
        b0=st.floats(min_value=-1e3, max_value=1e3),
        start=st.floats(min_value=0.0, max_value=1e8),
        steps=st.lists(adjust_steps, max_size=25),
        bad=bad_slopes,
        probes=st.lists(st.floats(min_value=-1e6, max_value=1e9), max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_segment_reference(self, k0, b0, start, steps, bad, probes):
        clock = AdjustedClock(k0, b0)
        reference = _SegmentReference(k0, b0)
        t = start
        for kind, k, delta, error in steps:
            t += delta
            if kind == "bad_slope":
                k = bad
                b = 0.0
            else:
                b = reference.read_current(t) - k * t + (error if kind == "jump" else 0.0)
            outcomes = []
            for target in (reference, clock):
                try:
                    target.adjust(k, b, at_local_time=t)
                    outcomes.append(None)
                except MonotonicityError:
                    outcomes.append(MonotonicityError)
            assert outcomes[0] is outcomes[1]
            assert clock.segments == reference.segments
            assert clock.adjustments == len(reference.segments) - 1
            assert (clock.k, clock.b) == (reference.segments[-1].k, reference.segments[-1].b)
        starts = [s.start for s in reference.segments[1:]]
        for probe in probes + starts + [s + 0.5 for s in starts]:
            assert clock.read(probe) == reference.read(probe)
            assert clock.read_current(probe) == reference.read_current(probe)
        low = min(starts, default=start) - 10.0
        high = max(starts, default=start) + 10.0
        assert clock.is_monotonic(low, high) == reference.is_monotonic(low, high)
        assert clock.is_monotonic(low, high, samples=7) == reference.is_monotonic(
            low, high, samples=7
        )

    @given(bad=bad_slopes)
    def test_bad_initial_slope_raises_like_reference(self, bad):
        for build in (AdjustedClock, _SegmentReference):
            try:
                build(bad, 0.0)
            except MonotonicityError:
                continue
            raise AssertionError(f"{build.__name__} accepted slope {bad}")
