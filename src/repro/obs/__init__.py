"""Observability layer: event tracing, metrics, and profiling.

Four concerns, four modules:

* :mod:`repro.obs.events` — the structured event-tracing bus the kernel
  emits protocol events onto (strict no-op when disabled);
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

from repro.obs.counters import (
    WorkCounters,
    count,
    count_work,
    current_counters,
    diff_counts,
    merge_counts,
    work_lane,
)
from repro.obs.events import (
    EVENT_CATALOG,
    TRACE_SCHEMA_VERSION,
    RunObserver,
    current_observer,
    emit,
    observe_run,
    observe_value,
    read_events,
)
from repro.obs.events_schema import EVENT_SCHEMAS, EventSpec, validate_record
from repro.obs.profile import (
    Profiler,
    profile_spans,
    span,
)
from repro.obs.registry import HistogramSummary, MetricsRegistry, merge_snapshots

__all__ = [
    "EVENT_CATALOG",
    "EVENT_SCHEMAS",
    "EventSpec",
    "TRACE_SCHEMA_VERSION",
    "validate_record",
    "RunObserver",
    "current_observer",
    "emit",
    "observe_run",
    "observe_value",
    "read_events",
    "HistogramSummary",
    "MetricsRegistry",
    "merge_snapshots",
    "Profiler",
    "profile_spans",
    "span",
    "WorkCounters",
    "count",
    "count_work",
    "current_counters",
    "diff_counts",
    "merge_counts",
    "work_lane",
]
