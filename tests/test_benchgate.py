"""Tests for the benchmark-trajectory gate (``repro bench-gate``).

Covers the BENCH_*.json format (byte-stable write, schema-versioned
load), the comparison semantics (noise band, noise floor, missing/new,
accuracy drift, exact work-counter gating), the CLI exit codes, and —
the acceptance criterion — that the committed ``BENCH_13.json`` baseline
passes a self-gate while a synthetic 2x slowdown or an injected
work-counter regression of it fails.
"""

from __future__ import annotations

import copy
import json
import os

import pytest

from repro.analysis.benchgate import (
    BENCH_SCHEMA_VERSION,
    GateReport,
    bench_record,
    compare_bench,
    load_bench_json,
    main,
    write_bench_json,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(REPO_ROOT, "BENCH_13.json")


def record(name: str, median: float, extra=None, work=None):
    return bench_record(
        fullname=name,
        median_s=median,
        mean_s=median,
        stddev_s=median / 10.0,
        min_s=median * 0.9,
        rounds=5,
        iterations=1,
        group="g",
        extra_info=extra or {},
        work=work,
    )


def payload(*records_):
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "label": "test",
        "benchmarks": {r["fullname"]: r for r in records_},
    }


class TestFormat:
    def test_write_load_roundtrip_and_byte_stability(self, tmp_path):
        records = [record("b", 0.02), record("a", 0.01, {"err_us": 3.5})]
        path_one = str(tmp_path / "one.json")
        path_two = str(tmp_path / "two.json")
        write_bench_json(path_one, "7", records)
        write_bench_json(path_two, "7", list(reversed(records)))
        with open(path_one, "rb") as fh_one, open(path_two, "rb") as fh_two:
            # Record order must not matter: the table is keyed and
            # serialized with sorted keys.
            assert fh_one.read() == fh_two.read()
        loaded = load_bench_json(path_one)
        assert loaded["label"] == "7"
        assert loaded["benchmarks"]["a"]["extra"] == {"err_us": 3.5}
        assert loaded["benchmarks"]["b"]["median_s"] == 0.02

    def test_extra_info_keeps_numeric_scalars_only(self):
        rec = record(
            "x", 0.01,
            {"err_us": 1.5, "n": 4, "flag": True, "rows": [1, 2], "s": "hi"},
        )
        assert rec["extra"] == {"err_us": 1.5, "n": 4.0}

    def test_newer_schema_rejected(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({
            "schema": BENCH_SCHEMA_VERSION + 1, "label": "x", "benchmarks": {},
        }))
        with pytest.raises(ValueError, match="schema"):
            load_bench_json(str(path))

    def test_missing_benchmarks_table_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": BENCH_SCHEMA_VERSION}))
        with pytest.raises(ValueError, match="benchmarks"):
            load_bench_json(str(path))


class TestCompare:
    def test_identical_is_clean(self):
        base = payload(record("a", 0.05), record("b", 0.10))
        report = compare_bench(copy.deepcopy(base), base)
        assert report.compared == 2
        assert not report.regressions and not report.improvements
        assert not report.failed(strict=True, extra_tolerance=0.0)

    def test_2x_slowdown_regresses(self):
        base = payload(record("a", 0.05))
        cur = payload(record("a", 0.10))
        report = compare_bench(cur, base, tolerance=0.5)
        assert report.regressions == ["a"]
        assert report.failed(strict=False, extra_tolerance=None)

    def test_within_band_passes_and_big_speedup_is_reported(self):
        base = payload(record("slow", 0.10), record("fast", 0.10))
        cur = payload(record("slow", 0.14), record("fast", 0.04))
        report = compare_bench(cur, base, tolerance=0.5)
        assert not report.regressions
        assert report.improvements == ["fast"]
        assert not report.failed(strict=True, extra_tolerance=None)

    def test_noise_floor_skips_fast_benchmarks(self):
        # 5us median, 100x slower: still skipped — scheduler noise.
        base = payload(record("tiny", 5e-6))
        cur = payload(record("tiny", 5e-4))
        report = compare_bench(cur, base, min_wall_s=1e-3)
        assert report.compared == 0
        assert report.skipped_fast == 1
        assert not report.failed(strict=True, extra_tolerance=None)

    def test_missing_gates_only_under_strict(self):
        base = payload(record("kept", 0.05), record("gone", 0.05))
        cur = payload(record("kept", 0.05), record("added", 0.05))
        report = compare_bench(cur, base)
        assert report.missing == ["gone"]
        assert report.new == ["added"]
        assert not report.failed(strict=False, extra_tolerance=None)
        assert report.failed(strict=True, extra_tolerance=None)

    def test_extra_drift_reports_by_default_and_gates_on_request(self):
        base = payload(record("a", 0.05, {"err_us": 10.0}))
        cur = payload(record("a", 0.05, {"err_us": 13.0}))
        report = compare_bench(cur, base)
        assert report.extra_drift == ["a:err_us"]
        assert not report.failed(strict=True, extra_tolerance=None)
        gated = compare_bench(cur, base, extra_tolerance=0.1)
        assert gated.failed(strict=False, extra_tolerance=0.1)
        tolerant = compare_bench(cur, base, extra_tolerance=0.5)
        assert tolerant.extra_drift == []

    def test_negative_tolerance_rejected(self):
        base = payload(record("a", 0.05))
        with pytest.raises(ValueError, match="tolerance"):
            compare_bench(base, base, tolerance=-0.1)

    def test_report_failed_priorities(self):
        report = GateReport(regressions=["x"])
        assert report.failed(strict=False, extra_tolerance=None)

    def test_identical_work_is_clean_and_counted(self):
        base = payload(record("a", 0.05, work={"engine.dispatch": 100}))
        report = compare_bench(copy.deepcopy(base), base)
        assert report.work_compared == 1
        assert report.work_drift == []
        assert not report.failed(strict=True, extra_tolerance=0.0)

    def test_work_drift_fails_with_zero_tolerance(self):
        # One extra counted op — far inside any wall-time noise band —
        # must fail: the counters are machine-independent.
        base = payload(record("a", 0.05, work={"engine.dispatch": 100}))
        cur = payload(record("a", 0.05, work={"engine.dispatch": 101}))
        report = compare_bench(cur, base, tolerance=10.0)
        assert not report.regressions
        assert report.work_drift == ["a:engine.dispatch"]
        assert report.failed(strict=False, extra_tolerance=None)
        assert not report.failed(
            strict=False, extra_tolerance=None, gate_work=False
        )

    def test_work_counter_appearing_or_vanishing_is_drift(self):
        base = payload(record("a", 0.05, work={"engine.dispatch": 100}))
        cur = payload(record(
            "a", 0.05, work={"engine.dispatch": 100, "phy.per_draw": 7}
        ))
        report = compare_bench(cur, base)
        assert report.work_drift == ["a:phy.per_draw"]
        assert compare_bench(base, cur).work_drift == ["a:phy.per_draw"]

    def test_baselines_without_work_skip_the_work_gate(self):
        # Pre-counter baselines (and benches that don't measure work)
        # must not fail the gate just because the field is empty.
        old = payload(record("a", 0.05))
        new = payload(record("a", 0.05, work={"engine.dispatch": 100}))
        for cur, base in ((new, old), (old, new), (old, copy.deepcopy(old))):
            report = compare_bench(cur, base)
            assert report.work_compared == 0
            assert report.work_drift == []
            assert not report.failed(strict=True, extra_tolerance=None)


class TestCli:
    def test_exit_codes(self, tmp_path, capsys):
        base_path = str(tmp_path / "base.json")
        same_path = str(tmp_path / "same.json")
        slow_path = str(tmp_path / "slow.json")
        write_bench_json(base_path, "base", [record("a", 0.05)])
        write_bench_json(same_path, "same", [record("a", 0.055)])
        write_bench_json(slow_path, "slow", [record("a", 0.10)])
        assert main([same_path, "--baseline", base_path]) == 0
        assert "bench-gate: OK" in capsys.readouterr().out
        assert main([slow_path, "--baseline", base_path]) == 1
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "FAIL" in captured.err

    def test_no_work_gate_flag_downgrades_work_drift(self, tmp_path, capsys):
        base_path = str(tmp_path / "base.json")
        drift_path = str(tmp_path / "drift.json")
        write_bench_json(
            base_path, "base", [record("a", 0.05, work={"ops": 10})]
        )
        write_bench_json(
            drift_path, "drift", [record("a", 0.05, work={"ops": 11})]
        )
        assert main([drift_path, "--baseline", base_path]) == 1
        captured = capsys.readouterr()
        assert "WORK" in captured.out
        assert "1 work drift(s)" in captured.out
        assert main([
            drift_path, "--baseline", base_path, "--no-work-gate",
        ]) == 0
        assert "WORK" in capsys.readouterr().out


class TestCommittedBaseline:
    """Acceptance: the repo's own BENCH_13.json (the CI baseline) gates correctly."""

    def test_baseline_exists_and_loads(self):
        payload_ = load_bench_json(BASELINE)
        assert payload_["label"] == "13"
        assert payload_["benchmarks"], "baseline must not be empty"
        assert (
            "benchmarks/bench_shootout.py::test_shootout_suite"
            in payload_["benchmarks"]
        )
        # At least one benchmark must sit above the default noise floor,
        # otherwise the gate compares nothing and guards nothing.
        gateable = [
            rec for rec in payload_["benchmarks"].values()
            if rec["median_s"] >= 1e-3
        ]
        assert gateable
        # The baseline must carry deterministic work counters so the
        # zero-tolerance work gate actually has something to compare.
        with_work = [
            rec for rec in payload_["benchmarks"].values() if rec.get("work")
        ]
        assert with_work, "baseline carries no work counters"

    def test_self_gate_passes(self, tmp_path, capsys):
        assert main([BASELINE, "--baseline", BASELINE, "--strict"]) == 0

    def test_synthetic_2x_slowdown_fails(self, tmp_path, capsys):
        payload_ = load_bench_json(BASELINE)
        slowed = copy.deepcopy(payload_)
        for rec in slowed["benchmarks"].values():
            rec["median_s"] = rec["median_s"] * 2.0
        slow_path = tmp_path / "BENCH_slow.json"
        slow_path.write_text(json.dumps(slowed))
        assert main([
            str(slow_path), "--baseline", BASELINE, "--tolerance", "0.5",
        ]) == 1

    def test_injected_work_regression_fails(self, tmp_path, capsys):
        """Acceptance: +1 counted op on one benchmark fails the gate
        even with a wall-time tolerance wide enough to hide anything."""
        payload_ = load_bench_json(BASELINE)
        drifted = copy.deepcopy(payload_)
        bumped = False
        for rec in sorted(
            drifted["benchmarks"], key=lambda name: name
        ):
            work = drifted["benchmarks"][rec].get("work") or {}
            for key in sorted(work):
                work[key] += 1
                bumped = True
                break
            if bumped:
                break
        assert bumped, "baseline carries no work counters to perturb"
        drift_path = tmp_path / "BENCH_drift.json"
        drift_path.write_text(json.dumps(drifted))
        assert main([
            str(drift_path), "--baseline", BASELINE, "--tolerance", "10.0",
        ]) == 1
        captured = capsys.readouterr()
        assert "WORK" in captured.out
        assert main([
            str(drift_path), "--baseline", BASELINE, "--tolerance", "10.0",
            "--no-work-gate",
        ]) == 0
