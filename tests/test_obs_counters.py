"""Deterministic work counters + hierarchical span profiler.

The counters' load-bearing contract (the ``TestTracingParity`` style,
see ``tests/test_differential_parity.py``): ``count()`` draws no
randomness, reads no clock and mutates no simulation state, so a counted
run is *bit-identical* to an uncounted one on every lane — and the tally
itself is a pure function of the spec and seed, byte-identical across
repeats, tracing states and worker counts. That exactness is what lets
``repro bench-gate`` compare work with zero tolerance and ``repro
profile diff`` act as a determinism check.

The span profiler's contract: only ``obs/profile.py`` reads the host
clock (the D002 carve-out), attribution is exact under an injected fake
clock, and the Chrome trace-event export is schema-valid.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.fastlane import run_sstsp_vectorized
from repro.multihop.runner import MultiHopSpec, run_multihop
from repro.multihop.topology import Topology
from repro.network.ibss import ScenarioSpec, build_network
from repro.obs import observe_run
from repro.obs.counters import (
    WorkCounters,
    count,
    count_work,
    current_counters,
    diff_counts,
    format_report,
    load_counts_json,
    merge_counts,
    work_lane,
    write_counts_json,
)
from repro.experiments.cli import main
from repro.obs.profile import Profiler, profile_spans, span
from repro.sweep import JobSpec, SweepOptions, run_sweep

SPEC = ScenarioSpec(n=10, seed=4, duration_s=10.0)
MH_SPEC = MultiHopSpec(topology=Topology.chain(6), seed=3, duration_s=8.0)


def _trace_arrays(trace):
    arrays = [
        trace.times_us,
        trace.max_diff_us,
        trace.mean_vs_true_us,
        trace.present_counts,
        trace.reference_ids,
    ]
    if trace.values_us is not None:
        arrays.append(trace.values_us)
    return arrays


def _assert_bit_identical(a, b):
    for left, right in zip(_trace_arrays(a), _trace_arrays(b)):
        assert np.array_equal(left, right, equal_nan=True)


class TestWorkCountersApi:
    def test_disabled_count_is_a_noop(self):
        assert current_counters() is None
        count("engine.heap_push")  # must not raise, must not record
        count("engine.heap_push", 100)
        assert current_counters() is None

    def test_count_work_installs_and_restores_the_sink(self):
        with count_work() as work:
            assert current_counters() is work
            count("a")
            count("a", 2)
            count("b", 5)
        assert current_counters() is None
        count("a")  # after exit: not recorded
        assert work.snapshot() == {"a": 3, "b": 5}

    def test_lanes_nest_and_the_innermost_owns_the_work(self):
        with count_work() as work:
            count("outside")
            with work_lane("multihop/coop"):
                count("phy.per_draw")
                with work_lane("singlehop/sstsp"):
                    count("phy.per_draw", 2)
                count("phy.per_draw")
        assert work.snapshot() == {
            "multihop/coop/phy.per_draw": 2,
            "outside": 1,
            "singlehop/sstsp/phy.per_draw": 2,
        }
        assert work.total("phy.per_draw") == 4
        assert work.total("outside") == 1

    def test_work_lane_without_a_sink_is_a_noop(self):
        with work_lane("fastlane/sstsp"):
            count("phy.per_draw")
        assert current_counters() is None

    def test_merge_diff_metrics_and_report(self):
        total = merge_counts({"a": 1}, {"a": 2, "b": 3})
        assert total == {"a": 3, "b": 3}
        # absent keys diff as zero, identical tallies diff as empty
        assert diff_counts({"a": 1}, {"a": 1}) == []
        assert diff_counts({"a": 1, "b": 2}, {"a": 3}) == [
            ("a", 1, 3), ("b", 2, 0),
        ]
        report = format_report({"a": 1, "bb": 2})
        assert report == "# work counters\na   1\nbb  2\n"
        assert format_report({}) == "# work counters\n(no work counted)\n"

    def test_counts_json_roundtrip_is_byte_stable(self, tmp_path):
        counts = WorkCounters()
        counts.add("b", 2)
        counts.add("a")
        one = str(tmp_path / "one.json")
        two = str(tmp_path / "two.json")
        write_counts_json(one, counts.snapshot())
        write_counts_json(two, {"b": 2, "a": 1})
        with open(one, "rb") as fh_one, open(two, "rb") as fh_two:
            assert fh_one.read() == fh_two.read()
        assert load_counts_json(one) == {"a": 1, "b": 2}


class TestCountingParity:
    """Counted runs are bit-identical to uncounted ones on every lane,
    and the tally itself is deterministic."""

    def test_oo_lane_bit_identical_with_counting(self):
        plain = build_network("sstsp", SPEC).run()
        with count_work() as work:
            counted = build_network("sstsp", SPEC).run()
        _assert_bit_identical(plain.trace, counted.trace)
        assert plain.successful_beacons == counted.successful_beacons
        snapshot = work.snapshot()
        assert snapshot, "instrumented run counted no work"
        assert all(key.startswith("singlehop/sstsp/") for key in snapshot)
        assert work.total("engine.dispatch") > 0
        assert work.total("phy.per_draw") > 0

    def test_vec_lane_bit_identical_with_counting(self):
        plain = run_sstsp_vectorized(SPEC)
        with count_work() as work:
            counted = run_sstsp_vectorized(SPEC)
        _assert_bit_identical(plain.trace, counted.trace)
        snapshot = work.snapshot()
        assert snapshot
        assert all(key.startswith("fastlane/sstsp/") for key in snapshot)
        assert work.total("mac.slot_draws") > 0

    def test_multihop_lane_bit_identical_with_counting(self):
        plain = run_multihop(MH_SPEC)
        with count_work() as work:
            counted = run_multihop(MH_SPEC)
        _assert_bit_identical(plain.trace, counted.trace)
        assert plain.per_hop_error_us == counted.per_hop_error_us
        assert plain.beacons_sent == counted.beacons_sent
        snapshot = work.snapshot()
        assert snapshot
        assert all(key.startswith("multihop/sstsp/") for key in snapshot)

    def test_tally_identical_with_tracing_on_and_off(self):
        with count_work() as bare:
            run_multihop(MH_SPEC)
        with count_work() as traced, observe_run() as obs:
            run_multihop(MH_SPEC)
        assert obs.event_count > 0
        assert bare.snapshot() == traced.snapshot()

    def test_repeated_tallies_are_byte_identical(self):
        snapshots = []
        for _ in range(2):
            with count_work() as work:
                run_sstsp_vectorized(SPEC)
            snapshots.append(
                json.dumps(work.snapshot(), sort_keys=True)
            )
        assert snapshots[0] == snapshots[1]


class TestSweepWorkMetrics:
    """The orchestrator folds per-job work counters into the observed
    metrics; the roll-up is identical at any worker count."""

    @staticmethod
    def _specs():
        return [
            JobSpec.make(
                "scenario_trace",
                {"protocol": "sstsp", "lane": "vec", "scenario": "quick",
                 "n": 5, "m": 4, "seed": seed},
                root_seed=seed,
            )
            for seed in (1, 2)
        ]

    @staticmethod
    def _sweep_end_work(log_path):
        with open(log_path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        end = records[-1]
        assert end["event"] == "sweep_end"
        return {
            key: value
            for key, value in end["metrics"]["counters"].items()
            if key.startswith("work.")
        }

    def test_work_rolls_up_identically_across_worker_counts(self, tmp_path):
        tallies = {}
        for workers in (1, 4):
            log_path = tmp_path / f"w{workers}.jsonl"
            run_sweep(
                "quick",
                self._specs(),
                SweepOptions(
                    workers=workers,
                    trace_dir=str(tmp_path / f"t{workers}"),
                    log_path=str(log_path),
                ),
            )
            tallies[workers] = self._sweep_end_work(log_path)
        assert tallies[1], "sweep_end carries no work counters"
        assert any(
            key.startswith("work.fastlane/sstsp/")
            for key in tallies[1]
        )
        assert tallies[1] == tallies[4]


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSpanProfiler:
    def test_nested_attribution_with_a_fake_clock(self):
        clock = _FakeClock()
        profiler = Profiler(clock=clock)
        with profiler.span("outer"):
            clock.now = 1.0
            with profiler.span("inner"):
                clock.now = 3.0
            clock.now = 4.0
        with profiler.span("outer"):
            clock.now = 5.0
        tree = profiler.span_tree()
        assert len(tree) == 1
        outer = tree[0]
        assert outer["name"] == "outer"
        assert outer["count"] == 2
        assert outer["total_s"] == 5.0  # 4.0 + 1.0
        assert outer["self_s"] == 3.0  # children took 2.0
        (inner,) = outer["children"]
        assert inner == {
            "name": "inner", "count": 1, "total_s": 2.0, "self_s": 2.0,
            "children": [],
        }
        # the per-name view is derived from the per-path nodes
        assert profiler.totals() == {"inner": 2.0, "outer": 5.0}
        assert profiler.counts() == {"inner": 1, "outer": 2}
        assert "outer" in profiler.format_tree()

    def test_chrome_trace_schema(self):
        clock = _FakeClock()
        profiler = Profiler(clock=clock)
        with profiler.span("outer"):
            clock.now = 1.0
            with profiler.span("inner"):
                clock.now = 3.0
            clock.now = 4.0
        trace = profiler.chrome_trace()
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert [event["name"] for event in events] == ["inner", "outer"]
        for event in events:
            assert event["ph"] == "X"
            assert event["pid"] == 0 and event["tid"] == 0
            assert event["ts"] >= 0.0 and event["dur"] >= 0.0
        inner, outer = events
        assert inner["ts"] == 1e6 and inner["dur"] == 2e6
        assert inner["cat"] == "outer"
        assert inner["args"]["path"] == "outer/inner"
        assert outer["ts"] == 0.0 and outer["dur"] == 4e6
        assert outer["cat"] == "root"

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        clock = _FakeClock()
        profiler = Profiler(clock=clock)
        with profiler.span("a"):
            clock.now = 1.0
        path = profiler.write_chrome_trace(str(tmp_path / "trace.json"))
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["traceEvents"][0]["name"] == "a"

    def test_totals_sum_a_name_over_every_path(self):
        clock = _FakeClock()
        profiler = Profiler(clock=clock)
        with profiler.span("log"):
            clock.now = 1.0
        with profiler.span("engine"):
            with profiler.span("log"):
                clock.now = 3.0
        assert profiler.totals() == {"engine": 2.0, "log": 3.0}
        assert profiler.counts() == {"engine": 1, "log": 2}

    def test_free_span_is_a_noop_until_installed(self):
        with span("anything"):
            pass  # no profiler installed: must not record or raise
        with profile_spans() as profiler:
            with span("phase"):
                pass
            with profile_spans() as inner:
                with span("nested"):
                    pass
            with span("phase"):
                pass  # the outer profiler is back after the inner exits
        with span("after"):
            pass  # uninstalled on exit: not recorded
        assert profiler.counts() == {"phase": 2}
        assert inner.counts() == {"nested": 1}

    def test_runner_spans_reach_the_installed_profiler(self):
        with profile_spans() as profiler:
            run_multihop(MH_SPEC)
        counts = profiler.counts()
        assert counts["multihop.period"] > 0
        assert counts["multihop.receptions"] > 0
        paths = {
            "/".join(path) for path, _, _ in profiler._spans
        }
        assert "multihop.period/multihop.receptions" in sorted(paths)

    def test_format_summary_handles_zero_and_absent_wall(self):
        clock = _FakeClock()
        profiler = Profiler(clock=clock)
        assert profiler.format_summary() == "no profiled sections"
        with profiler.span("engine"):
            clock.now = 1.5
        assert profiler.format_summary() == "engine 1.50s"
        # wall_s=0.0 is a real value (a sub-resolution sweep), not
        # "absent": it must neither divide by zero nor show percentages
        assert profiler.format_summary(0.0) == "engine 1.50s"
        assert profiler.format_summary(3.0) == "engine 1.50s (50%)"


class TestProfileCli:
    ARGS = [
        "run", "multihop_run",
        "--param", "topology=chain",
        "--param", "n=5",
        "--param", "duration_s=4.0",
        "--seed", "3",
    ]

    @staticmethod
    def _artifacts(out_dir, suffix=""):
        names = sorted(os.listdir(out_dir))
        counters = [n for n in names if n.endswith(f"{suffix}.counters.json")]
        chrome = [n for n in names if n.endswith(f"{suffix}.chrome.json")]
        return counters, chrome

    def test_run_twice_and_diff_is_clean(self, tmp_path, capsys):
        out_dir = str(tmp_path / "profile")
        assert main(["profile", *self.ARGS, "--out-dir", out_dir]) == 0
        assert main(
            ["profile", *self.ARGS, "--out-dir", out_dir, "--suffix", ".run2"]
        ) == 0
        capsys.readouterr()
        counters2, chrome2 = self._artifacts(out_dir, ".run2")
        assert len(counters2) == 1 and len(chrome2) == 1
        first = [
            name for name in sorted(os.listdir(out_dir))
            if name.endswith(".counters.json") and ".run2" not in name
        ]
        assert len(first) == 1
        a = os.path.join(out_dir, first[0])
        b = os.path.join(out_dir, counters2[0])
        with open(a, "rb") as fh_a, open(b, "rb") as fh_b:
            assert fh_a.read() == fh_b.read(), "counters not deterministic"
        assert main(["profile", "diff", a, b]) == 0
        assert "identical" in capsys.readouterr().out
        # the chrome trace is schema-valid (wall times, so not byte-stable)
        with open(os.path.join(out_dir, chrome2[0]), encoding="utf-8") as fh:
            trace = json.load(fh)
        assert trace["displayTimeUnit"] == "ms"
        assert trace["traceEvents"], "profile run recorded no spans"
        assert {"multihop.period", "job"} <= {
            event["name"] for event in trace["traceEvents"]
        }
        assert all(event["ph"] == "X" for event in trace["traceEvents"])

    def test_diff_flags_drift_and_exits_nonzero(self, tmp_path, capsys):
        a = str(tmp_path / "a.counters.json")
        b = str(tmp_path / "b.counters.json")
        write_counts_json(a, {"multihop/sstsp/engine.dispatch": 10})
        write_counts_json(b, {"multihop/sstsp/engine.dispatch": 11})
        assert main(["profile", "diff", a, b]) == 1
        assert "DRIFT" in capsys.readouterr().out

    def test_unknown_kind_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", "run", "no_such_kind"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown job kind 'no_such_kind'" in err
        assert "multihop_run" in err  # names the known kinds

    def test_diff_of_a_missing_file_is_a_usage_error(self, tmp_path, capsys):
        present = write_counts_json(str(tmp_path / "x.json"), {"a": 1})
        missing = str(tmp_path / "missing.json")
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", "diff", missing, present])
        assert excinfo.value.code == 2
        assert f"no such file: {missing}" in capsys.readouterr().err
