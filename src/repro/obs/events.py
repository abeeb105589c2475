"""The structured event-tracing bus.

Protocol-level *events* — who won beacon contention, which beacons the
guard rejected, when uTESLA deferred vs. authenticated, when the
reference role changed hands — are what SSTSP's claims are about, yet
the traces the kernel records are aggregate error curves. This module
holds the bus's sink: instrumented kernel code calls
:func:`repro.obs.context.emit`, and when :func:`repro.obs.context.instrument`
has installed a :class:`RunObserver` the event is recorded (in memory,
to JSONL, or both) and its counter incremented in the observer's
:class:`~repro.obs.registry.MetricsRegistry`.

The bus is a **strict no-op when disabled** (see :mod:`repro.obs.context`),
so enabling tracing cannot change any result — the tier-1 parity suites
assert exactly that (``tests/test_differential_parity.py``).

Event records are JSON objects with a stable schema
(:data:`TRACE_SCHEMA_VERSION`); see ``docs/observability.md`` for the
catalog, per-event timebase notes, and the version policy. Records
carry no wall-clock timestamps — only simulation time — so a seeded run
traces to byte-identical JSONL on every machine (the golden-fixture
test pins this).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, IO, Iterator, List, Optional

from repro.obs.events_schema import (
    EVENT_SCHEMAS,
    TRACE_SCHEMA_VERSION,
    validate_record,
)
from repro.obs.registry import MetricsRegistry

#: The event catalog: event name -> owning subsystem. *Derived* from
#: :data:`repro.obs.events_schema.EVENT_SCHEMAS` — the machine-readable
#: per-event field spec that the reprolint E-series checks call sites
#: against and :func:`read_events` validates records against — so the
#: runtime bus, the validator and the linter share one event inventory.
EVENT_CATALOG: Dict[str, str] = {
    name: spec.subsystem for name, spec in EVENT_SCHEMAS.items()
}


class RunObserver:
    """Collects one run's events and metrics.

    Parameters
    ----------
    path:
        JSONL destination, or None for in-memory only. The file is
        opened immediately and receives a ``trace_header`` record.
        Events are retained in :attr:`events` exactly when there is no
        path — long runs stream to disk without holding the whole trace
        in memory.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self.events: List[Dict[str, Any]] = []
        self.registry = MetricsRegistry()
        self._seq = 0
        self._fh: Optional[IO[str]] = None
        if path is not None:
            directory = os.path.dirname(path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._fh = open(path, "w", encoding="utf-8")
            self._write({"event": "trace_header", "schema": TRACE_SCHEMA_VERSION, "seq": 0})

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record(
        self,
        event: str,
        t_us: Optional[float],
        node: Optional[int],
        fields: Dict[str, Any],
    ) -> None:
        """Record one event (the bus calls this; prefer ``emit``)."""
        self._seq += 1
        record: Dict[str, Any] = {"event": event, "seq": self._seq}
        if t_us is not None:
            record["t_us"] = float(t_us)
        if node is not None:
            record["node"] = node
        record.update(fields)
        if self.path is None:
            self.events.append(record)
        self._write(record)
        self.registry.inc(f"events.{event}", node=node)

    def observe_value(
        self, name: str, value: float, node: Optional[int] = None
    ) -> None:
        """Histogram observation forwarded to the registry."""
        self.registry.observe(name, value, node=node)

    def _write(self, record: Dict[str, Any]) -> None:
        if self._fh is not None:
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def event_count(self) -> int:
        """Events recorded so far (header excluded)."""
        return self._seq

    def close(self) -> None:
        """Flush and close the JSONL file (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunObserver":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def read_events(path: str, validate: bool = False) -> Iterator[Dict[str, Any]]:
    """Iterate the records of one trace JSONL file (header included).

    Raises ValueError when the file's schema version is newer than this
    reader understands; blank lines are skipped. With ``validate=True``
    every record is additionally checked against
    :data:`repro.obs.events_schema.EVENT_SCHEMAS` (unknown events,
    missing required fields, undeclared extras all raise) — the strict
    mode for traces this very tree produced; leave it off when reading
    traces from a newer producer, whose unknown events must be skipped,
    not rejected.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("event") == "trace_header":
                schema = record.get("schema")
                if schema is not None and schema > TRACE_SCHEMA_VERSION:
                    raise ValueError(
                        f"trace schema {schema} is newer than supported "
                        f"{TRACE_SCHEMA_VERSION}: {path}"
                    )
            if validate:
                problem = validate_record(record)
                if problem is not None:
                    raise ValueError(f"{path}:{lineno}: {problem}")
            yield record
