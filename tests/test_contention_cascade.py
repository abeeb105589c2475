"""Differential test: the group-wise contention cascade vs the heap cascade.

:mod:`tests.contention_oracle` keeps the frame-by-frame heap cascade the
simulator used before :func:`repro.mac.contention.contention_cascade`
replaced it. Every window here must resolve identically through both:
the same transmissions (start, end, member order), the same cancelled
order, the same fast-lane ``resolve_window`` triple, the same work
counters and the same ``contention_win`` event.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fastlane.common import resolve_window
from repro.mac.contention import resolve_contention
from repro.obs import RunObserver, WorkCounters, instrument
from tests import contention_oracle as oracle

AIR = 63.0  # SSTSP beacon: 7 slots
CCA = 9.0
SLOT = 9.0


def _observed(resolve, *args):
    obs, work = RunObserver(), WorkCounters()
    with instrument(trace=obs, counters=work):
        out = resolve(*args)
    return out, work.snapshot(), obs.events


def assert_same_window(ids, times, airtime_us=AIR, cca_us=CCA):
    """Both cascades agree on one window, through both entry points."""
    ids = np.asarray(ids, dtype=np.int64)
    times = np.asarray(times, dtype=np.float64)
    pairs = list(zip(ids.tolist(), times.tolist()))
    got, got_work, got_events = _observed(
        resolve_contention, pairs, airtime_us, cca_us
    )
    want, want_work, want_events = _observed(
        oracle.resolve_contention, pairs, airtime_us, cca_us
    )
    assert got.transmissions == want.transmissions
    assert got.cancelled == want.cancelled
    assert (got_work, got_events) == (want_work, want_events)
    assert _observed(resolve_window, ids, times, airtime_us, cca_us) == (
        _observed(oracle.resolve_window, ids, times, airtime_us, cca_us)
    )
    return got


@st.composite
def skewed_windows(draw, max_n=64):
    """Fast-lane-shaped windows: slot draws read through skewed timers.

    ``skew`` 0 gives exact slot ties; tiny skews split ties by a few ULPs;
    large skews smear stations across whole slots.
    """
    n = draw(st.integers(min_value=0, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    w = draw(st.sampled_from([0, 1, 3, 31, 63]))
    skew = draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-4, 1e-2]))
    base = draw(st.sampled_from([0.0, 1e5, 1e8]))
    rng = np.random.default_rng(seed)
    local = base + rng.integers(0, w + 1, size=n) * SLOT
    offsets = rng.uniform(-1.0, 1.0, size=n) * skew * max(base, 1e3)
    rates = 1.0 + rng.uniform(-1.0, 1.0, size=n) * skew
    times = (local - offsets) / rates
    ids = rng.permutation(4 * max_n + 1)[:n]
    return ids, times


#: Airtime/CCA pairs: the paper's TSF and SSTSP beacons, CCA at and past
#: the airtime, and a sub-slot airtime.
MEDIUM = st.sampled_from(
    [(36.0, 9.0), (63.0, 9.0), (9.0, 9.0), (9.0, 36.0), (4.5, 2.0), (63.0, 4.0)]
)


@settings(max_examples=400, deadline=None)
@given(window=skewed_windows(), medium=MEDIUM)
def test_skewed_windows_match_heap_cascade(window, medium):
    ids, times = window
    assert_same_window(ids, times, *medium)


@settings(max_examples=300, deadline=None)
@given(
    times=st.lists(
        st.one_of(
            st.sampled_from([0.0, 4.5, 9.0, 18.0, 36.0, 63.0, 72.0]),
            st.floats(min_value=-1e3, max_value=1e3),
        ),
        max_size=24,
    ),
    airtime=st.floats(min_value=1e-3, max_value=200.0),
    cca=st.floats(min_value=1e-3, max_value=200.0),
)
@example(times=[], airtime=AIR, cca=CCA)
@example(times=[5.0], airtime=AIR, cca=CCA)
@example(times=[0.0] * 8, airtime=AIR, cca=CCA)
@example(times=[0.0, 20.0, 20.0, 40.0, 70.0, 90.0, 130.0], airtime=36.0, cca=9.0)
def test_arbitrary_windows_match_heap_cascade(times, airtime, cca):
    assert_same_window(np.arange(len(times)), times, airtime, cca)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16), medium=MEDIUM)
def test_paper_size_windows_match_heap_cascade(seed, medium):
    rng = np.random.default_rng(seed)
    n = 500
    local = rng.integers(0, 31, size=n) * SLOT + 3e7
    rates = 1.0 + rng.uniform(-1e-4, 1e-4, size=n)
    assert_same_window(rng.permutation(n), local / rates, *medium)


def test_all_collide_window():
    result = assert_same_window([4, 2, 9], [10.0, 10.0, 10.0])
    assert [tx.members for tx in result.transmissions] == [(4, 2, 9)]
    assert result.winner is None


def test_deferral_chain_orders_members_like_the_event_queue():
    # 0 and 5 collide, 20 and 30 defer to 63; at 63 the timer expiring
    # then goes first, then the deferred pair, then 66 inside the CCA.
    # That group collides too; 100 defers to 126 and goes out alone.
    result = assert_same_window(
        [1, 2, 3, 4, 5, 6, 7, 8],
        [0.0, 5.0, 20.0, 30.0, 63.0, 66.0, 100.0, 126.0],
    )
    assert [tx.members for tx in result.transmissions] == [
        (1, 2),
        (5, 3, 4, 6),
        (8, 7),
    ]
    assert result.winner is None


def test_success_cancels_ties_then_deferred_then_later_timers():
    result = assert_same_window([1, 2, 3, 4], [0.0, 20.0, 63.0, 80.0])
    assert result.winner == 1
    assert result.cancelled == [3, 2, 4]
