"""Observability layer: tracing bus, metrics registry, profiler, schema.

The two load-bearing guarantees:

* the bus is a strict no-op when disabled (checked here at the unit
  level; ``test_differential_parity.py`` pins the end-to-end bit-parity);
* the JSONL record schema is *stable* — a golden fixture from a seeded
  5-node run is compared byte-for-byte, so any accidental field rename,
  reordering, or float-formatting change fails loudly and forces a
  conscious :data:`TRACE_SCHEMA_VERSION` decision.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

import repro
from repro.network.ibss import ScenarioSpec, build_sstsp_network
from repro.obs import (
    EVENT_CATALOG,
    TRACE_SCHEMA_VERSION,
    HistogramSummary,
    MetricsRegistry,
    Profiler,
    RunObserver,
    active,
    emit,
    instrument,
    merge_snapshots,
    observe_value,
    read_events,
)

SRC_REPRO = Path(repro.__file__).parent
GOLDEN = Path(__file__).parent / "data" / "golden_trace_n5.jsonl"
#: The run the golden fixture was generated from (keep in sync with the
#: regeneration snippet in docs/observability.md).
GOLDEN_SPEC = ScenarioSpec(n=5, seed=7, duration_s=3.0)


class TestMetricsRegistry:
    def test_counters(self):
        reg = MetricsRegistry()
        reg.inc("beacons")
        reg.inc("beacons", by=2)
        reg.inc("beacons", node=3)
        assert reg.counter("beacons") == 3
        assert reg.counter("beacons", node=3) == 1
        assert reg.counter_total("beacons") == 4
        assert reg.counter("never") == 0

    def test_counter_total_does_not_mix_prefixes(self):
        reg = MetricsRegistry()
        reg.inc("events.beacon_tx", node=1)
        reg.inc("events.beacon_tx_retry", node=1)
        assert reg.counter_total("events.beacon_tx") == 1

    def test_gauges_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("ref", 3.0)
        reg.set_gauge("ref", 5.0)
        assert reg.snapshot()["gauges"] == {"ref": 5.0}

    def test_histogram_summary(self):
        summary = HistogramSummary()
        for value in (2.0, -1.0, 4.0):
            summary.observe(value)
        assert summary.to_dict() == {"count": 3, "sum": 5.0, "min": -1.0, "max": 4.0}

    def test_snapshot_is_sorted_and_jsonable(self):
        reg = MetricsRegistry()
        reg.inc("z"), reg.inc("a"), reg.observe("h", 1.0, node=2)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a", "z"]
        assert "h|node=2" in snap["histograms"]
        json.dumps(snap)  # must not raise

    def test_len_counts_all_kinds(self):
        reg = MetricsRegistry()
        reg.inc("c"), reg.set_gauge("g", 1.0), reg.observe("h", 1.0)
        assert len(reg) == 3

    def test_merge_snapshots(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n", by=2), b.inc("n", by=3), b.inc("only_b")
        a.set_gauge("g", 1.0), b.set_gauge("g", 9.0)
        a.observe("h", 1.0), b.observe("h", 5.0)
        total: dict = {}
        merge_snapshots(total, a.snapshot())
        merge_snapshots(total, b.snapshot())
        assert total["counters"] == {"n": 5, "only_b": 1}
        assert total["gauges"] == {"g": 9.0}
        assert total["histograms"]["h"] == {
            "count": 2, "sum": 6.0, "min": 1.0, "max": 5.0,
        }


class TestEventBus:
    def test_disabled_bus_is_noop(self):
        assert active().trace is None
        emit("beacon_tx", t_us=1.0, node=0)  # must not raise, record nothing
        observe_value("x", 1.0)

    def test_observer_records_and_counts(self):
        obs = RunObserver()
        with instrument(trace=obs):
            assert active().trace is obs
            emit("guard_reject", t_us=10.0, node=2, diff_us=99.0)
            emit("coarse_done", node=2, samples=4)  # no t_us
            observe_value("guard.reject_excess_us", 7.0, node=2)
        assert active().trace is None
        assert obs.event_count == 2
        assert [e["event"] for e in obs.events] == ["guard_reject", "coarse_done"]
        assert obs.events[0]["seq"] == 1 and obs.events[1]["seq"] == 2
        assert "t_us" not in obs.events[1]
        assert obs.registry.counter("events.guard_reject", node=2) == 1
        hist = obs.registry.snapshot()["histograms"]
        assert hist["guard.reject_excess_us|node=2"]["count"] == 1

    def test_observer_restored_after_exception(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with pytest.raises(RuntimeError):
            with instrument(trace=RunObserver(str(path))):
                emit("beacon_tx", t_us=1.0, node=0)
                raise RuntimeError("boom")
        assert active().trace is None
        # the file was closed and flushed despite the exception
        records = list(read_events(str(path)))
        assert [r["event"] for r in records] == ["trace_header", "beacon_tx"]

    def test_nested_observers_restore_previous(self):
        outer = RunObserver()
        with instrument(trace=outer):
            emit("beacon_tx", t_us=1.0, node=0)
            inner = RunObserver()
            with instrument(trace=inner):
                emit("beacon_rx", t_us=2.0, node=1)
            assert active().trace is outer
            emit("beacon_tx", t_us=3.0, node=0)
        assert [e["event"] for e in outer.events] == ["beacon_tx", "beacon_tx"]
        assert [e["event"] for e in inner.events] == ["beacon_rx"]

    def test_file_streaming_defaults_to_not_keeping_events(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs = RunObserver(str(path))
        with instrument(trace=obs):
            emit("beacon_tx", t_us=1.0, node=0)
        assert obs.events == []  # streamed, not retained
        assert obs.event_count == 1

    def test_header_and_sorted_keys(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with instrument(trace=RunObserver(str(path))):
            emit("beacon_rx", t_us=2.0, node=1, src=0, period=3)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header == {
            "event": "trace_header", "schema": TRACE_SCHEMA_VERSION, "seq": 0,
        }
        record = json.loads(lines[1])
        assert list(record) == sorted(record)

    def test_read_events_rejects_newer_schema(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps({
                "event": "trace_header",
                "schema": TRACE_SCHEMA_VERSION + 1,
                "seq": 0,
            }) + "\n"
        )
        with pytest.raises(ValueError, match="newer than supported"):
            list(read_events(str(path)))

    def test_read_events_skips_blank_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"event": "trace_header", "schema": 1, "seq": 0}\n\n')
        assert len(list(read_events(str(path)))) == 1

    def test_close_is_idempotent(self, tmp_path):
        obs = RunObserver(str(tmp_path / "t.jsonl"))
        obs.close()
        obs.close()


class TestProfiler:
    def test_sections_accumulate(self):
        profiler = Profiler()
        with profiler.span("cache"):
            pass
        with profiler.span("cache"):
            pass
        with profiler.span("engine"):
            pass
        assert profiler.counts() == {"cache": 2, "engine": 1}
        totals = profiler.totals()
        assert set(totals) == {"cache", "engine"}
        assert all(v >= 0.0 for v in totals.values())
        assert "cache" in profiler.format_summary()


class TestSchemaStability:
    def test_golden_fixture_byte_identical(self, tmp_path):
        """A seeded 5-node run traces to exactly the committed JSONL.

        If this fails because of an *intentional* schema change: decide
        whether the change is breaking (bump TRACE_SCHEMA_VERSION per
        docs/observability.md), then regenerate the fixture with the
        snippet in that doc.
        """
        path = tmp_path / "run.jsonl"
        with instrument(trace=RunObserver(str(path))):
            build_sstsp_network(GOLDEN_SPEC).run()
        assert path.read_bytes() == GOLDEN.read_bytes()

    def test_golden_fixture_parses_under_current_schema(self):
        records = list(read_events(str(GOLDEN)))
        assert records[0]["schema"] == TRACE_SCHEMA_VERSION
        body = records[1:]
        assert len(body) > 0
        assert [r["seq"] for r in body] == list(range(1, len(body) + 1))
        for record in body:
            assert record["event"] in EVENT_CATALOG

    def test_every_emitted_event_is_in_the_catalog(self):
        """Static sweep: every ``emit("<name>", ...)`` call site in the
        tree uses a catalogued event name, so the catalog really is the
        schema's event inventory."""
        emitted = set()
        for path in sorted(SRC_REPRO.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "emit"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                ):
                    emitted.add(node.args[0].value)
        assert emitted, "no emit() call sites found — instrumentation gone?"
        assert emitted <= set(EVENT_CATALOG), (
            f"uncatalogued events: {sorted(emitted - set(EVENT_CATALOG))}"
        )

    def test_catalog_subsystems_are_stable(self):
        assert EVENT_CATALOG["guard_reject"] == "core.guard"
        assert EVENT_CATALOG["mutesla_auth"] == "crypto.mutesla"
        assert TRACE_SCHEMA_VERSION == 1
