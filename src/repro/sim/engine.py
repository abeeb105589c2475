"""Event queue and simulator core.

A deliberately small discrete-event kernel: events are ``(time, callback)``
pairs kept in a binary heap; ties on time break FIFO by insertion sequence
so runs are deterministic. Events can be cancelled through the
:class:`Event` handle they were scheduled with (lazy deletion: cancelled
entries are skipped when popped).
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, List, Optional

from repro.obs.context import count


class SimulationError(RuntimeError):
    """Raised for invalid simulator operations (e.g. scheduling in the past)."""


class Event:
    """Handle to a scheduled callback.

    Instances are created by :meth:`Simulator.schedule`; user code keeps them
    only to :meth:`cancel` the event before it fires.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running. Idempotent; safe after firing."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"Event(t={self.time:.3f}, {name}, {state})"


class Simulator:
    """Discrete-event simulator with microsecond float time.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, fired.append, "a")
    >>> _ = sim.schedule(2.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: List[Event] = []
        self._seq = itertools.count()
        self._running = False
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (cancelled events excluded)."""
        return self._processed

    @property
    def pending(self) -> int:
        """Number of events still in the heap (including cancelled ones)."""
        return len(self._heap)

    def schedule(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``.

        Scheduling at exactly :attr:`now` is allowed (the event runs before
        time advances); scheduling in the past raises
        :class:`SimulationError`.
        """
        if not math.isfinite(time):
            # inf would be accepted by the past-check below but wedge the
            # run(until=...) bookkeeping (now can never advance past it).
            raise SimulationError(f"cannot schedule at non-finite time {time}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time {self._now}"
            )
        event = Event(float(time), next(self._seq), callback, args)
        heapq.heappush(self._heap, event)
        count("engine.heap_push")
        return event

    def schedule_in(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` after a relative ``delay >= 0``."""
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        return self.schedule(self._now + delay, callback, *args)

    def run(self, until: Optional[float] = None) -> None:
        """Run events in order until the heap empties or time exceeds ``until``.

        If ``until`` is given, events at exactly ``until`` still run and
        :attr:`now` is left at ``until`` afterwards (so repeated
        ``run(until=...)`` calls advance time monotonically even across gaps
        with no events).
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        try:
            while self._heap:
                event = self._heap[0]
                if event.cancelled:
                    heapq.heappop(self._heap)
                    count("engine.heap_pop")
                    continue
                if until is not None and event.time > until:
                    break
                heapq.heappop(self._heap)
                count("engine.heap_pop")
                self._now = event.time
                event.callback(*event.args)
                self._processed += 1
                count("engine.dispatch")
        finally:
            self._running = False
        if until is not None and until > self._now:
            self._now = until

    def step(self) -> bool:
        """Run the single next pending event. Returns False if none remain."""
        while self._heap:
            event = heapq.heappop(self._heap)
            count("engine.heap_pop")
            if event.cancelled:
                continue
            self._now = event.time
            event.callback(*event.args)
            self._processed += 1
            count("engine.dispatch")
            return True
        return False

    def peek(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or None."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Simulator(now={self._now:.3f}us, pending={self.pending}, "
            f"processed={self._processed})"
        )
