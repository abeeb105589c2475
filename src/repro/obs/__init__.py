"""Observability layer: event tracing, metrics, and profiling.

One install context and the sink classes it installs:

* :mod:`repro.obs.context` — the only owner of which sinks are
  installed: :func:`~repro.obs.context.instrument` installs them and the
  kernel-side hooks (``emit``, ``observe_value``, ``count``,
  ``work_lane``, ``span``) read them;
* :mod:`repro.obs.events` — the event-trace sink
  (:class:`~repro.obs.events.RunObserver`) and JSONL reader;
* :mod:`repro.obs.registry` — counters / gauges / histogram summaries,
  per-run with per-sweep roll-up;
* :mod:`repro.obs.profile` — the one opt-in wall-clock
  :class:`~repro.obs.profile.Profiler`: hierarchical spans with
  per-name totals for the sweep summary and a Chrome-trace export, the
  one module allowed to read the host clock;
* :mod:`repro.obs.counters` — deterministic work counters: no clock, no
  randomness, byte-identical tallies on every machine (the bench gate's
  zero-tolerance work metrics).

See ``docs/observability.md`` for the event catalog and usage.
"""

from repro.obs.context import (
    Instruments,
    active,
    count,
    emit,
    instrument,
    observe_value,
    span,
    work_lane,
)
from repro.obs.counters import WorkCounters, diff_counts, merge_counts
from repro.obs.events import (
    EVENT_CATALOG,
    TRACE_SCHEMA_VERSION,
    RunObserver,
    read_events,
)
from repro.obs.events_schema import EVENT_SCHEMAS, EventSpec, validate_record
from repro.obs.profile import Profiler
from repro.obs.registry import HistogramSummary, MetricsRegistry, merge_snapshots

__all__ = [
    "Instruments",
    "active",
    "instrument",
    "emit",
    "observe_value",
    "count",
    "work_lane",
    "span",
    "EVENT_CATALOG",
    "EVENT_SCHEMAS",
    "EventSpec",
    "TRACE_SCHEMA_VERSION",
    "validate_record",
    "RunObserver",
    "read_events",
    "HistogramSummary",
    "MetricsRegistry",
    "merge_snapshots",
    "Profiler",
    "WorkCounters",
    "diff_counts",
    "merge_counts",
]
