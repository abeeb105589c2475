"""Opt-in wall-clock profiling: one span profiler for sweeps and jobs.

Everything below the orchestrator takes time from the simulation engine
— reprolint's D002 rule enforces that a host-clock read anywhere in the
simulation stack is an error, because wall time makes results a
function of machine load. Profiling, however, is *about* wall time:
"where did this sweep's 40 seconds go — engine, crypto, cache?" is a
question only the host clock answers.

This module is the single sanctioned home for those reads. It is
allowlisted for D002 alongside ``sweep/orchestrator.py`` (see
:class:`repro.lint.rules.LintConfig.wallclock_allow`), and the contract
that keeps the carve-out safe is:

* a :class:`Profiler` may be *driven* from anywhere, but only this
  module ever calls ``time.perf_counter`` — instrumented code holds a
  span handle, never a clock;
* profiling never feeds back into simulation decisions: a
  :class:`Profiler` accumulates durations for *reporting* (the sweep
  summary line, the run-log ``profile`` record, ``repro profile``'s
  span tree and Chrome trace) and nothing in the result path reads them;
* profiling is pay-for-use: the sweep orchestrator builds a
  :class:`Profiler` only under ``--profile``, and the kernel-side
  :func:`repro.obs.context.span` hook reads no clock unless
  :func:`repro.obs.context.instrument` has installed a profiler.

Span names are free-form; the orchestrator uses ``cache`` (result
cache lookups and write-backs), ``engine`` (job execution, which for
secure-beacon scenarios is dominated by the crypto backend) and ``log``
(run-log writes); runners add ``singlehop.*`` / ``multihop.*`` phases.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple


class _SpanSection:
    """One nested span; used as a context manager."""

    __slots__ = ("_profiler", "_name")

    def __init__(self, profiler: "Profiler", name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_SpanSection":
        self._profiler.enter_span(self._name)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._profiler.exit_span()


class Profiler:
    """Hierarchical wall-clock spans with parent/child self-time attribution.

    ::

        profiler = Profiler()
        with profiler.span("engine"):
            with profiler.span("multihop.period"):
                ...
        profiler.totals()  # {"engine": 0.0123, "multihop.period": 0.0101}

    A span *stack* aggregates nested :meth:`span` sections per **path**
    (``engine`` → ``multihop.period`` → ``multihop.receptions``), each
    node carrying call count, total time and *self* time (total minus
    child spans), so a hot leaf is visible even when its parent
    dominates the totals. Completed spans are also kept as a timeline
    for the Chrome trace-event exporter (:meth:`chrome_trace`), loadable
    in Perfetto, chrome://tracing and speedscope. The flat per-name view
    the sweep summary reports (:meth:`totals`, :meth:`counts`,
    :meth:`format_summary`) is derived from the same per-path nodes.

    ``clock`` defaults to ``time.perf_counter`` — this module's D002
    carve-out — and is injectable so tests can drive spans with a fake
    clock and assert exact attributions.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock: Callable[[], float] = (
            clock if clock is not None else time.perf_counter
        )
        #: Open spans: ``[name, start, child_time]`` frames.
        self._stack: List[List[Any]] = []
        self._origin: Optional[float] = None
        #: path tuple -> ``[count, total, self_time]`` (seconds).
        self._nodes: Dict[Tuple[str, ...], List[Any]] = {}
        #: Completed spans: ``(path, start_rel_s, dur_s)`` in close order.
        self._spans: List[Tuple[Tuple[str, ...], float, float]] = []

    def span(self, name: str) -> _SpanSection:
        """A context manager opening one nested ``name`` span."""
        return _SpanSection(self, name)

    def enter_span(self, name: str) -> None:
        """Open a span (prefer the :meth:`span` context manager)."""
        now = self._clock()
        if self._origin is None:
            self._origin = now
        self._stack.append([name, now, 0.0])

    def exit_span(self) -> None:
        """Close the innermost open span and attribute its time."""
        now = self._clock()
        name, start, child_time = self._stack.pop()
        dur_s = now - start
        path = tuple(frame[0] for frame in self._stack) + (name,)
        node = self._nodes.get(path)
        if node is None:
            node = [0, 0.0, 0.0]
            self._nodes[path] = node
        node[0] += 1
        node[1] += dur_s
        node[2] += dur_s - child_time
        if self._stack:
            self._stack[-1][2] += dur_s
        origin = self._origin if self._origin is not None else start
        self._spans.append((path, start - origin, dur_s))

    # -- reporting -----------------------------------------------------

    def _per_name(self, field: int) -> Dict[str, Any]:
        """One node field summed over every path ending in each name."""
        sums: Dict[str, Any] = {}
        for path in sorted(self._nodes):
            sums[path[-1]] = sums.get(path[-1], 0) + self._nodes[path][field]
        return {name: sums[name] for name in sorted(sums)}

    def totals(self) -> Dict[str, float]:
        """Seconds per span name (all paths), sorted by name."""
        return {name: round(seconds, 6) for name, seconds in self._per_name(1).items()}

    def counts(self) -> Dict[str, int]:
        """Closed spans per name (all paths), sorted by name."""
        return self._per_name(0)

    def format_summary(self, wall_s: Optional[float] = None) -> str:
        """One human-readable line: ``phase 1.2s (60%), ...``."""
        totals = self.totals()
        if not totals:
            return "no profiled sections"
        parts: List[str] = []
        for name, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
            if wall_s is not None and wall_s > 0.0:
                parts.append(f"{name} {seconds:.2f}s ({100.0 * seconds / wall_s:.0f}%)")
            else:
                parts.append(f"{name} {seconds:.2f}s")
        return ", ".join(parts)

    def span_tree(self) -> List[Dict[str, Any]]:
        """The aggregated span forest, children key-sorted.

        Each node: ``{"name", "count", "total_s", "self_s", "children"}``
        with seconds rounded to 1 µs. Only *closed* spans appear.
        """
        roots: List[Dict[str, Any]] = []
        index: Dict[Tuple[str, ...], Dict[str, Any]] = {}
        for path in sorted(self._nodes):
            count, total, self_time = self._nodes[path]
            node: Dict[str, Any] = {
                "name": path[-1],
                "count": count,
                "total_s": round(total, 6),
                "self_s": round(self_time, 6),
                "children": [],
            }
            index[path] = node
            parent = index.get(path[:-1])
            if parent is not None:
                parent["children"].append(node)
            else:
                roots.append(node)
        return roots

    def format_tree(self) -> str:
        """Indented text rendering of :meth:`span_tree`."""
        lines: List[str] = []

        def walk(node: Dict[str, Any], depth: int) -> None:
            lines.append(
                f"{'  ' * depth}{node['name']}  "
                f"total {node['total_s']:.6f}s  self {node['self_s']:.6f}s  "
                f"x{node['count']}"
            )
            for child in node["children"]:
                walk(child, depth + 1)

        for root in self.span_tree():
            walk(root, 0)
        if not lines:
            return "no spans recorded"
        return "\n".join(lines)

    def chrome_trace(self) -> Dict[str, Any]:
        """The run as Chrome trace-event JSON (the ``X`` complete-event
        form): one event per closed span, timestamps/durations in
        microseconds relative to the first span's start. Load the file
        in Perfetto (ui.perfetto.dev), chrome://tracing or speedscope.
        """
        events: List[Dict[str, Any]] = []
        for path, start_rel_s, dur_s in self._spans:
            events.append(
                {
                    "name": path[-1],
                    "cat": "/".join(path[:-1]) if len(path) > 1 else "root",
                    "ph": "X",
                    "ts": round(start_rel_s * 1e6, 3),
                    "dur": round(dur_s * 1e6, 3),
                    "pid": 0,
                    "tid": 0,
                    "args": {"path": "/".join(path)},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> str:
        """Serialize :meth:`chrome_trace` to ``path``; returns it."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.chrome_trace(), fh, sort_keys=True, indent=1)
            fh.write("\n")
        return path
