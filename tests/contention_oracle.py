"""Test oracle: the frame-by-frame heap cascade the group walk replaced.

Kept verbatim (module-level imports aside) so the differential test in
``tests/test_contention_cascade.py`` can pin
:func:`repro.mac.contention.contention_cascade` to it window for window.
Not used by the simulator.
"""

from __future__ import annotations

import heapq
import itertools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.mac.contention import ContentionResult, Transmission
from repro.obs.counters import count
from repro.obs.events import emit


def resolve_contention(
    candidates: Sequence[Tuple[int, float]],
    airtime_us: float,
    cca_us: float,
) -> ContentionResult:
    """Resolve one beacon window.

    Parameters
    ----------
    candidates:
        ``(station, scheduled_tx_true_time_us)`` pairs; a station appears at
        most once.
    airtime_us:
        Time one beacon occupies the medium.
    cca_us:
        Carrier-sense vulnerability window (see module docstring).

    Notes
    -----
    Cancellation uses the *successful transmission* itself, not the
    per-receiver packet-error draw - i.e. we assume the cancelling station
    heard the beacon. With the paper's PER of 1e-4 the distinction is
    negligible and this is the standard simplification.
    """
    if airtime_us <= 0 or cca_us <= 0:
        raise ValueError("airtime_us and cca_us must be > 0")
    seen = set()
    for station, _ in candidates:
        if station in seen:
            raise ValueError(f"station {station} listed twice in contention")
        seen.add(station)

    counter = itertools.count()
    heap: List[Tuple[float, int, int]] = []
    for station, t in candidates:
        heapq.heappush(heap, (float(t), next(counter), station))
    count("mac.contention_round")
    count("mac.contention_candidates", len(candidates))

    result = ContentionResult()
    cur_start: Optional[float] = None
    cur_end = 0.0
    cur_members: List[int] = []
    success_done_at: Optional[float] = None

    def close_group() -> None:
        nonlocal cur_start, cur_members, success_done_at
        if cur_start is None:
            return
        tx = Transmission(cur_start, cur_end, tuple(cur_members))
        result.transmissions.append(tx)
        if tx.success and success_done_at is None:
            success_done_at = tx.end_us
        cur_start = None
        cur_members = []

    while heap:
        t, _, station = heapq.heappop(heap)
        if cur_start is not None and t >= cur_end:
            close_group()
        if success_done_at is not None and t >= success_done_at:
            result.cancelled.append(station)
            continue
        if cur_start is None:
            cur_start = t
            cur_end = t + airtime_us
            cur_members = [station]
        elif t - cur_start < cca_us:
            cur_members.append(station)  # inside vulnerability window: collision
        else:
            # Medium sensed busy: defer to the end of the busy period.
            heapq.heappush(heap, (cur_end, next(counter), station))
    close_group()
    first = result.first_success
    if first is not None:
        emit(
            "contention_win",
            t_us=first.start_us,
            node=first.members[0],
            contenders=len(candidates),
            collisions=result.collisions,
        )
    return result


def resolve_window(
    ids: np.ndarray,
    times: np.ndarray,
    airtime_us: float,
    cca_us: float,
) -> Tuple[Optional[int], Optional[float], int]:
    """Run the reference-lane contention cascade over vectorised candidates.

    Parameters
    ----------
    ids, times:
        Candidate station indices and their scheduled transmission times
        (true-time axis, so clock skew is honoured - at large N this skew
        is what eventually de-quantises colliding transmissions and lets
        an election conclude).

    Returns
    -------
    (winner, tx_start, collisions):
        Winning station (or None), the actual start time of its successful
        transmission (deferrals may shift it), and the number of collided
        transmissions in the window.
    """
    if ids.size == 0:
        return None, None, 0
    result = resolve_contention(
        list(zip(ids.tolist(), times.tolist())), airtime_us, cca_us
    )
    success = result.first_success
    if success is None:
        return None, None, result.collisions
    return success.members[0], success.start_us, result.collisions
