"""The one instrumentation context: which sinks the kernel hooks feed.

Three kinds of sink observe a run, each opt-in and each a strict no-op
when absent:

* the *trace* sink, a :class:`~repro.obs.events.RunObserver`, which
  records protocol events (in memory, to JSONL, or both) and keeps the
  run's :class:`~repro.obs.registry.MetricsRegistry`;
* the *counters* sink, a :class:`~repro.obs.counters.WorkCounters`
  deterministic work tally;
* the *spans* sink, a wall-clock :class:`~repro.obs.profile.Profiler`.

This module is the only owner of which sinks are installed. It holds
one module-level slot per kind, the kernel-side hooks that read them
(:func:`emit`, :func:`observe_value`, :func:`count`, :class:`work_lane`,
:func:`span`) and the one install context, :func:`instrument`::

    with instrument(trace=RunObserver("run.jsonl"), counters=WorkCounters()):
        runner.run()

Every hook's disabled cost is one module-global load and a ``None``
check: no clock read, no randomness, no simulation state touched, so an
instrumented run is bit-identical to a bare one on every lane (pinned by
``tests/test_obs_context.py`` and ``tests/test_differential_parity.py``).
That is what lets hot kernel paths stay instrumented permanently.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Any, ContextManager, Iterator, NamedTuple, Optional

from repro.obs.counters import WorkCounters
from repro.obs.events import RunObserver
from repro.obs.profile import Profiler

#: The installed sinks; None disables the hooks that read each one.
_TRACE_SINK: Optional[RunObserver] = None
_COUNTER_SINK: Optional[WorkCounters] = None
_SPAN_SINK: Optional[Profiler] = None

#: The free span :func:`span` hands out when no profiler is installed
#: (``nullcontext`` instances are reusable).
_NO_SPAN: ContextManager[Any] = nullcontext()


class Instruments(NamedTuple):
    """The installed sinks, one per kind (None where that kind is off)."""

    trace: Optional[RunObserver]
    counters: Optional[WorkCounters]
    spans: Optional[Profiler]


def active() -> Instruments:
    """The sinks installed right now."""
    return Instruments(_TRACE_SINK, _COUNTER_SINK, _SPAN_SINK)


@contextmanager
def instrument(
    trace: Optional[RunObserver] = None,
    counters: Optional[WorkCounters] = None,
    spans: Optional[Profiler] = None,
) -> Iterator[Instruments]:
    """Install sinks for the enclosed block; yields the installed set.

    ::

        with instrument(counters=WorkCounters(), spans=Profiler()) as inst:
            run_multihop(spec)
        inst.counters.snapshot()

    A ``None`` argument keeps the enclosing context's sink of that kind,
    so contexts nest per kind. On exit all three slots are restored and
    the trace sink passed here (if any) is closed, exceptions included.
    """
    global _TRACE_SINK, _COUNTER_SINK, _SPAN_SINK
    previous = active()
    installed = Instruments(
        trace if trace is not None else previous.trace,
        counters if counters is not None else previous.counters,
        spans if spans is not None else previous.spans,
    )
    _TRACE_SINK, _COUNTER_SINK, _SPAN_SINK = installed
    try:
        yield installed
    finally:
        _TRACE_SINK, _COUNTER_SINK, _SPAN_SINK = previous
        if trace is not None:
            trace.close()


# ---------------------------------------------------------------------------
# Kernel-side hooks
# ---------------------------------------------------------------------------

def emit(
    event: str,
    t_us: Optional[float] = None,
    node: Optional[int] = None,
    **fields: Any,
) -> None:
    """Emit one protocol event onto the bus (no-op when tracing is off).

    ``t_us`` is the event's *simulation*-time stamp; which clock it is
    read from (true / adjusted / hardware) is fixed per event kind and
    documented in the catalog. ``node`` is the acting station, if any.
    """
    observer = _TRACE_SINK
    if observer is not None:
        observer.record(event, t_us, node, fields)


def observe_value(name: str, value: float, node: Optional[int] = None) -> None:
    """Record a histogram observation (no-op when tracing is off)."""
    observer = _TRACE_SINK
    if observer is not None:
        observer.observe_value(name, value, node=node)


def count(name: str, by: int = 1) -> None:
    """Count ``by`` units of work at site ``name`` (no-op when off)."""
    sink = _COUNTER_SINK
    if sink is not None:
        sink.add(name, by)


class work_lane:
    """Context manager attributing enclosed work to ``lane``.

    A strict no-op when counting is off. The sink is captured on entry
    so an exit always pops the lane it pushed, even if the sink changes
    mid-scope.
    """

    __slots__ = ("_lane", "_sink")

    def __init__(self, lane: str) -> None:
        self._lane = lane
        self._sink: Optional[WorkCounters] = None

    def __enter__(self) -> "work_lane":
        self._sink = _COUNTER_SINK
        if self._sink is not None:
            self._sink.push_lane(self._lane)
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._sink is not None:
            self._sink.pop_lane()
            self._sink = None


def span(name: str) -> ContextManager[Any]:
    """A span on the installed profiler (free no-op section when off).

    Runners open phase spans with ``with span("multihop.receptions"):``
    while never touching a clock themselves — only
    :mod:`repro.obs.profile` reads ``time.perf_counter``, keeping the
    reprolint D002 carve-out set unchanged.
    """
    profiler = _SPAN_SINK
    if profiler is not None:
        return profiler.span(name)
    return _NO_SPAN
