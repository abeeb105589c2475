"""The one instrumentation context: ``instrument()`` and its three sinks.

Three guarantees:

* ``instrument`` is the only install point: it nests per sink kind (a
  ``None`` argument inherits the enclosing sink), restores every slot on
  exit — exceptions included — and closes the trace sink it installed;
* installing all three sinks at once changes nothing a single sink
  sees: on every lane the results equal the bare run's, the JSONL equals
  the trace-only run's and the tally equals the counters-only run's;
* the work tallies of two pinned runs are byte-identical to the
  committed golden files (``tests/data/golden_counters/``).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.fastlane import run_sstsp_vectorized
from repro.multihop.runner import MultiHopSpec, run_multihop
from repro.multihop.topology import Topology
from repro.network.ibss import AttackerSpec, ScenarioSpec, build_network
from repro.obs import (
    Instruments,
    Profiler,
    RunObserver,
    WorkCounters,
    active,
    count,
    emit,
    instrument,
    read_events,
    span,
)
from repro.obs.counters import write_counts_json
from repro.sweep import JobSpec
from repro.sweep.jobs import execute_job

GOLDEN_DIR = Path(__file__).parent / "data" / "golden_counters"

SPEC = ScenarioSpec(n=10, seed=4, duration_s=10.0)
MH_SPEC = MultiHopSpec(topology=Topology.chain(6), seed=3, duration_s=8.0)


class TestInstrument:
    def test_installs_all_three_and_restores_them(self):
        trace, counters, spans = RunObserver(), WorkCounters(), Profiler()
        assert active() == Instruments(None, None, None)
        with instrument(trace=trace, counters=counters, spans=spans) as inst:
            assert inst == active() == Instruments(trace, counters, spans)
            emit("beacon_tx", t_us=1.0, node=0)
            count("a")
            with span("phase"):
                pass
        assert active() == Instruments(None, None, None)
        assert trace.event_count == 1
        assert counters.snapshot() == {"a": 1}
        assert spans.counts() == {"phase": 1}

    def test_none_argument_inherits_the_outer_sink(self, tmp_path):
        path = tmp_path / "outer.jsonl"
        outer = Instruments(RunObserver(str(path)), WorkCounters(), Profiler())
        inner_counters = WorkCounters()
        with instrument(*outer):
            with instrument(counters=inner_counters) as inner:
                assert inner == Instruments(outer.trace, inner_counters, outer.spans)
                emit("beacon_tx", t_us=1.0, node=0)
                count("inner")
                with span("inner"):
                    pass
            assert active() == outer
            # the inherited trace sink is still open after the inner exit
            emit("beacon_rx", t_us=2.0, node=1)
            count("outer")
        assert inner_counters.snapshot() == {"inner": 1}
        assert outer.counters.snapshot() == {"outer": 1}
        assert outer.spans.counts() == {"inner": 1}
        events = [r["event"] for r in read_events(str(path))]
        assert events == ["trace_header", "beacon_tx", "beacon_rx"]

    def test_every_slot_restored_after_an_exception(self, tmp_path):
        outer_trace = RunObserver()
        inner_trace = RunObserver(str(tmp_path / "inner.jsonl"))
        with instrument(trace=outer_trace):
            with pytest.raises(RuntimeError):
                with instrument(
                    trace=inner_trace, counters=WorkCounters(), spans=Profiler()
                ):
                    raise RuntimeError("boom")
            assert active() == Instruments(outer_trace, None, None)
        assert active() == Instruments(None, None, None)

    def test_closes_only_the_trace_it_installed(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace = RunObserver(str(path))
        with instrument(trace=trace):
            emit("beacon_tx", t_us=1.0, node=0)
            with instrument(counters=WorkCounters()):
                pass
            assert trace._fh is not None  # inherited, so left open
        assert trace._fh is None
        events = [r["event"] for r in read_events(str(path))]
        assert events == ["trace_header", "beacon_tx"]


#: One small run per lane: reference (event engine), fast, multi-hop.
LANES = {
    "reference": lambda: build_network("sstsp", SPEC).run(),
    "fast": lambda: run_sstsp_vectorized(SPEC),
    "multihop": lambda: run_multihop(MH_SPEC),
}


def _outcome(result):
    """Every array of the sync trace plus the lane's scalar outcomes."""
    trace = result.trace
    arrays = [
        trace.times_us,
        trace.max_diff_us,
        trace.mean_vs_true_us,
        trace.present_counts,
        trace.reference_ids,
    ]
    if trace.values_us is not None:
        arrays.append(trace.values_us)
    scalars = {
        name: getattr(result, name)
        for name in ("successful_beacons", "beacons_sent", "per_hop_error_us")
        if hasattr(result, name)
    }
    return arrays, scalars


@pytest.mark.parametrize("lane", sorted(LANES))
def test_all_sinks_at_once_match_each_sink_alone(lane, tmp_path):
    run = LANES[lane]
    bare = _outcome(run())

    trace_only = tmp_path / "trace_only.jsonl"
    with instrument(trace=RunObserver(str(trace_only))):
        run()

    counters_only = WorkCounters()
    with instrument(counters=counters_only):
        run()

    all_trace = tmp_path / "all.jsonl"
    all_sinks = Instruments(RunObserver(str(all_trace)), WorkCounters(), Profiler())
    with instrument(*all_sinks):
        combined = _outcome(run())

    for left, right in zip(bare[0], combined[0]):
        assert np.array_equal(left, right, equal_nan=True)
    assert len(bare[0]) == len(combined[0])
    assert bare[1] == combined[1]
    assert all_sinks.trace.event_count > 0
    assert all_trace.read_bytes() == trace_only.read_bytes()
    assert counters_only.snapshot()
    assert all_sinks.counters.snapshot() == counters_only.snapshot()


class TestGoldenCounters:
    """Two pinned runs count to exactly the committed tallies."""

    @staticmethod
    def _assert_golden(tmp_path, name, job):
        work = WorkCounters()
        with instrument(counters=work):
            job()
        path = write_counts_json(str(tmp_path / name), work.snapshot())
        assert Path(path).read_bytes() == (GOLDEN_DIR / name).read_bytes()

    def test_singlehop_sstsp_with_full_crypto_and_an_insider(self, tmp_path):
        spec = ScenarioSpec(
            n=5, seed=7, duration_s=3.0,
            attacker=AttackerSpec(start_s=1.0, end_s=2.0),
        )
        self._assert_golden(
            tmp_path,
            "singlehop_sstsp_n5.counters.json",
            lambda: build_network("sstsp", spec, crypto="full").run(),
        )

    def test_ci_profile_job(self, tmp_path):
        spec = JobSpec.make(
            "multihop_run",
            {"topology": "chain", "n": 6, "duration_s": 8.0},
            root_seed=3,
        )
        self._assert_golden(
            tmp_path, "multihop_chain6.counters.json", lambda: execute_job(spec)
        )
