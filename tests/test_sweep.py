"""Tests for the sweep orchestrator: grids, specs, cache, determinism.

The headline property (ISSUE: determinism-under-parallelism) is at the
bottom: the same grid run at ``--workers 1`` and ``--workers 4`` must
produce identical result dicts and byte-identical CSV output, and a
second run against a warm cache must be served entirely from it with
equal values.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments import table1
from repro.sweep import (
    CACHE_SALT,
    FailurePolicy,
    JobSpec,
    ResultCache,
    SweepManifest,
    SweepOptions,
    derive_seed,
    expand_grid,
    register_job,
    run_sweep,
)
from repro.sweep.failpolicy import (
    InjectedFailure,
    parse_injection,
    should_inject,
)
from repro.sweep.jobs import execute_job
from repro.sweep import orchestrator
from repro.sweep.orchestrator import add_sweep_arguments, sweep_options_from_args
from repro.sweep.spec import derive_backoff_fraction

# --- module-level job functions (worker processes re-import this module
# --- by name, so these must live at module scope) ------------------------


def echo_job(spec: JobSpec):
    return {"params": spec.params_dict(), "seed": spec.derived_seed()}


def boom_job(spec: JobSpec):
    raise ValueError("kaboom")


def sleep_job(spec: JobSpec):
    time.sleep(spec.params_dict().get("sleep_s", 5.0))
    return {"slept": spec.params_dict().get("sleep_s", 5.0)}


def worker_exit_job(spec: JobSpec):
    os._exit(3)  # simulate an OOM-killed / segfaulted worker process


register_job("test_echo", f"{__name__}:echo_job")
register_job("test_boom", f"{__name__}:boom_job")
register_job("test_sleep", f"{__name__}:sleep_job")
register_job("test_exit", f"{__name__}:worker_exit_job")


# --- grid expansion ------------------------------------------------------


def test_expand_grid_product_order_and_fixed_scalars():
    points = expand_grid({"m": [1, 2], "n": 30, "guard": [0.0, 0.5]})
    # axes in insertion order, last axis fastest, scalars on every point
    assert points == [
        {"m": 1, "n": 30, "guard": 0.0},
        {"m": 1, "n": 30, "guard": 0.5},
        {"m": 2, "n": 30, "guard": 0.0},
        {"m": 2, "n": 30, "guard": 0.5},
    ]


def test_expand_grid_empty_axis_rejected():
    with pytest.raises(ValueError, match="no values"):
        expand_grid({"m": []})


# --- job specs -----------------------------------------------------------


def test_jobspec_identity_ignores_param_order():
    a = JobSpec.make("table1_cell", {"m": 2, "n": 30, "seed": 1})
    b = JobSpec.make("table1_cell", {"seed": 1, "n": 30, "m": 2})
    assert a == b
    assert a.job_key == b.job_key
    assert a.spec_hash(CACHE_SALT) == b.spec_hash(CACHE_SALT)


def test_jobspec_identity_is_sensitive_to_values_and_root_seed():
    base = JobSpec.make("test_echo", {"x": 1})
    assert base.job_key != JobSpec.make("test_echo", {"x": 2}).job_key
    assert base.job_key != JobSpec.make("test_echo", {"x": 1}, root_seed=7).job_key


def test_jobspec_rejects_nested_params():
    with pytest.raises(TypeError, match="flat"):
        JobSpec.make("test_echo", {"x": [[1, 2]]})
    with pytest.raises(TypeError, match="unsupported"):
        JobSpec.make("test_echo", {"x": {"nested": True}})


def test_derive_seed_is_pure_and_63_bit():
    spec = JobSpec.make("test_echo", {"x": 1}, root_seed=42)
    assert spec.derived_seed() == derive_seed(42, spec.job_key)
    assert spec.derived_seed() == spec.derived_seed()
    assert 0 <= spec.derived_seed() < 2**63
    # different jobs under the same root seed get different streams
    other = JobSpec.make("test_echo", {"x": 2}, root_seed=42)
    assert spec.derived_seed() != other.derived_seed()


def test_spec_hash_changes_with_salt():
    spec = JobSpec.make("test_echo", {"x": 1})
    assert spec.spec_hash("salt-a") != spec.spec_hash("salt-b")


# --- result cache --------------------------------------------------------


def test_cache_roundtrip_and_stats(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    spec = JobSpec.make("test_echo", {"x": 1})
    hit, _ = cache.get(spec)
    assert not hit
    path = cache.put(spec, {"value": 11})
    assert os.path.exists(path)
    hit, value = cache.get(spec)
    assert hit and value == {"value": 11}
    assert (cache.stats.hits, cache.stats.misses, cache.stats.writes) == (1, 1, 1)


def test_cache_salt_invalidates_old_entries(tmp_path):
    root = str(tmp_path / "cache")
    spec = JobSpec.make("test_echo", {"x": 1})
    ResultCache(root, salt="v1").put(spec, "old")
    hit, _ = ResultCache(root, salt="v2").get(spec)
    assert not hit, "a salt bump must never serve stale results"


def test_cache_corrupt_entry_counts_as_miss_and_is_deleted(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    spec = JobSpec.make("test_echo", {"x": 1})
    cache.put(spec, "good")
    with open(cache.path_for(spec), "wb") as fh:
        fh.write(b"not a pickle")
    hit, _ = cache.get(spec)
    assert not hit
    assert cache.stats.corrupt == 1
    # the poisoned file is gone, so the slot can be rebuilt cleanly
    assert not os.path.exists(cache.path_for(spec))


def test_cache_truncated_entry_is_rebuilt_by_a_sweep(tmp_path):
    """A truncated on-disk entry must not crash the sweep: it reads as a
    miss, the job re-executes, and the entry is rewritten whole."""
    options = SweepOptions(cache_dir=str(tmp_path / "cache"))
    specs = _echo_specs(2)
    cold = run_sweep("corrupt", specs, options)
    cache = ResultCache(str(tmp_path / "cache"))
    path = cache.path_for(specs[0])
    with open(path, "rb") as fh:
        whole = fh.read()
    with open(path, "wb") as fh:
        fh.write(whole[: len(whole) // 2])  # torn write / crashed host
    again = run_sweep("corrupt", specs, options)
    assert again.values == cold.values
    assert again.stats.cache_hits == 1 and again.stats.executed == 1
    hit, value = ResultCache(str(tmp_path / "cache")).get(specs[0])
    assert hit and value == cold.values[0]


# --- orchestrator mechanics (serial path, cheap echo jobs) ---------------


def _echo_specs(count=4):
    return [JobSpec.make("test_echo", {"x": i}, root_seed=9) for i in range(count)]


def test_run_sweep_returns_results_in_spec_order():
    result = run_sweep("echo", _echo_specs())
    assert [v["params"]["x"] for v in result.values] == [0, 1, 2, 3]
    assert result.stats.executed == 4 and result.stats.cache_hits == 0


def test_run_sweep_second_run_is_all_cache_hits(tmp_path):
    options = SweepOptions(cache_dir=str(tmp_path / "cache"))
    cold = run_sweep("echo", _echo_specs(), options)
    warm = run_sweep("echo", _echo_specs(), options)
    assert cold.stats.executed == 4 and cold.stats.cache_hits == 0
    assert warm.stats.executed == 0 and warm.stats.cache_hits == 4
    assert warm.values == cold.values


def test_run_sweep_failure_names_the_job():
    specs = [JobSpec.make("test_boom", {"x": 1})]
    with pytest.raises(RuntimeError, match="sweep job failed: test_boom"):
        run_sweep("boom", specs)


def test_run_sweep_writes_jsonl_run_log(tmp_path):
    log_path = str(tmp_path / "run.jsonl")
    run_sweep("echo", _echo_specs(2), SweepOptions(log_path=log_path))
    records = [json.loads(line) for line in open(log_path, encoding="utf-8")]
    assert [r["event"] for r in records] == ["sweep_start", "job", "job", "sweep_end"]
    assert records[0]["workers"] == 1
    assert all(r["cache"] == "miss" for r in records[1:3])
    assert records[-1]["executed"] == 2


def test_unknown_job_kind_is_a_clear_error():
    with pytest.raises(RuntimeError, match="sweep job failed"):
        run_sweep("nope", [JobSpec.make("no_such_kind", {})])


# --- determinism under parallelism (the satellite contract) --------------


_GRID = dict(m_values=(1, 2), n=16, duration_s=5.0, seed=3, replicas=1)


def _rows_and_csv(monkeypatch, tmp_path, tag, sweep):
    out_dir = tmp_path / tag
    monkeypatch.setenv("SSTSP_RESULTS_DIR", str(out_dir))
    rows = table1.run(sweep=sweep, **_GRID)
    csv_path = table1.save_rows_csv(rows)
    with open(csv_path, "rb") as fh:
        return rows, fh.read()


def test_table1_identical_across_worker_counts(monkeypatch, tmp_path):
    serial_rows, serial_csv = _rows_and_csv(
        monkeypatch, tmp_path, "serial", SweepOptions(workers=1)
    )
    parallel_rows, parallel_csv = _rows_and_csv(
        monkeypatch, tmp_path, "parallel", SweepOptions(workers=4)
    )
    assert parallel_rows == serial_rows
    assert parallel_csv == serial_csv, "CSV bytes must not depend on worker count"


# --- observability: per-job traces, metrics roll-up, profiling ----------


def _quick_specs(count=2):
    return [
        JobSpec.make(
            "scenario_trace",
            {"protocol": "sstsp", "lane": "vec", "scenario": "quick",
             "n": 5, "m": 4, "seed": s},
            root_seed=s,
        )
        for s in range(1, count + 1)
    ]


def _trace_files(trace_dir):
    return sorted(os.listdir(trace_dir))


def test_trace_dir_writes_one_jsonl_per_executed_job(tmp_path):
    trace_dir = tmp_path / "traces"
    log_path = tmp_path / "run.jsonl"
    specs = _quick_specs()
    plain = run_sweep("quick", specs)
    traced = run_sweep(
        "quick", specs,
        SweepOptions(trace_dir=str(trace_dir), log_path=str(log_path)),
    )
    # tracing is pure observation: the results are unchanged
    assert [
        (list(v["trace"].to_rows()), v["reference_changes"])
        for v in traced.values
    ] == [
        (list(v["trace"].to_rows()), v["reference_changes"])
        for v in plain.values
    ]
    files = _trace_files(trace_dir)
    assert files == sorted(
        f"{s.kind}-{s.spec_hash()[:16]}.jsonl" for s in specs
    )
    records = [json.loads(line) for line in open(log_path, encoding="utf-8")]
    obs = [r for r in records if r["event"] == "job_obs"]
    assert sorted(r["seq"] for r in obs) == [0, 1]
    assert all(r["events"] > 0 for r in obs)
    # the sweep_end record rolls the per-job counters up
    end = records[-1]
    assert end["event"] == "sweep_end"
    total = sum(
        v for k, v in end["metrics"]["counters"].items()
        if k.startswith("events.")
    )
    assert total == sum(r["events"] for r in obs)


def test_traces_byte_identical_across_worker_counts(tmp_path):
    specs = _quick_specs()
    dirs = {}
    for workers in (1, 2):
        trace_dir = tmp_path / f"w{workers}"
        run_sweep(
            "quick", specs, SweepOptions(workers=workers, trace_dir=str(trace_dir))
        )
        dirs[workers] = trace_dir
    assert _trace_files(dirs[1]) == _trace_files(dirs[2])
    for name in _trace_files(dirs[1]):
        with open(dirs[1] / name, "rb") as a, open(dirs[2] / name, "rb") as b:
            assert a.read() == b.read(), f"trace {name} differs across workers"


def test_cache_hits_produce_no_trace(tmp_path):
    specs = _quick_specs()
    options = SweepOptions(
        cache_dir=str(tmp_path / "cache"), trace_dir=str(tmp_path / "t1")
    )
    run_sweep("quick", specs, options)
    warm = run_sweep(
        "quick", specs,
        SweepOptions(
            cache_dir=str(tmp_path / "cache"), trace_dir=str(tmp_path / "t2")
        ),
    )
    assert warm.stats.cache_hits == len(specs)
    assert _trace_files(tmp_path / "t2") == []


def test_run_log_closes_and_keeps_sweep_end_on_failure(tmp_path):
    log_path = tmp_path / "run.jsonl"
    specs = [JobSpec.make("test_echo", {"x": 1}), JobSpec.make("test_boom", {})]
    with pytest.raises(RuntimeError, match="test_boom"):
        run_sweep("boom", specs, SweepOptions(log_path=str(log_path)))
    # the context manager flushed and closed the log despite the raise,
    # and the finally-block accounting record made it out
    records = [json.loads(line) for line in open(log_path, encoding="utf-8")]
    assert records[0]["event"] == "sweep_start"
    assert records[-1]["event"] == "sweep_end"
    assert records[-1]["executed"] == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_profile_totals_reach_the_run_log(tmp_path, workers):
    log_path = tmp_path / "run.jsonl"
    run_sweep(
        "echo", _echo_specs(2),
        SweepOptions(
            workers=workers,
            profile=True,
            log_path=str(log_path),
            cache_dir=str(tmp_path / "cache"),
        ),
    )
    records = [json.loads(line) for line in open(log_path, encoding="utf-8")]
    profile = records[-1]["profile"]
    # only the orchestrator's own phases: runner spans stay out of sweeps
    assert set(profile) == {"cache", "engine", "log"}
    assert all(v >= 0.0 for v in profile.values())


def test_unprofiled_sweep_log_has_no_profile_record(tmp_path):
    log_path = tmp_path / "run.jsonl"
    run_sweep("echo", _echo_specs(1), SweepOptions(log_path=str(log_path)))
    records = [json.loads(line) for line in open(log_path, encoding="utf-8")]
    assert "profile" not in records[-1]


def test_unprofiled_sweep_never_builds_a_profiler(monkeypatch, tmp_path):
    def no_profiler(*args, **kwargs):
        raise AssertionError("unprofiled sweep constructed a Profiler")

    monkeypatch.setattr(orchestrator, "Profiler", no_profiler)
    result = run_sweep(
        "echo", _echo_specs(2),
        SweepOptions(
            log_path=str(tmp_path / "run.jsonl"),
            cache_dir=str(tmp_path / "cache"),
        ),
    )
    assert result.stats.executed == 2


def test_table1_warm_cache_reproduces_results(monkeypatch, tmp_path):
    options = SweepOptions(workers=1, cache_dir=str(tmp_path / "cache"))
    cold_rows, cold_csv = _rows_and_csv(monkeypatch, tmp_path, "cold", options)
    warm_rows, warm_csv = _rows_and_csv(monkeypatch, tmp_path, "warm", options)
    assert warm_rows == cold_rows
    assert warm_csv == cold_csv

    # and the second sweep really was served from the cache
    specs = table1.cell_specs(
        _GRID["m_values"], _GRID["n"], _GRID["duration_s"],
        _GRID["seed"], _GRID["replicas"],
    )
    result = run_sweep("table1", specs, options)
    assert result.stats.cache_hits == len(specs)
    assert result.stats.executed == 0


# --- failure policy: pure decision logic ---------------------------------


class TestFailurePolicy:
    def test_attempts_semantics(self):
        assert FailurePolicy(on_error="raise", max_retries=5).attempts == 1
        assert FailurePolicy(on_error="retry", max_retries=2).attempts == 3
        assert FailurePolicy(on_error="quarantine", max_retries=0).attempts == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="on_error"):
            FailurePolicy(on_error="explode")
        with pytest.raises(ValueError, match="max_retries"):
            FailurePolicy(max_retries=-1)
        with pytest.raises(ValueError, match="timeout_s"):
            FailurePolicy(timeout_s=0.0)
        with pytest.raises(ValueError, match="injection"):
            FailurePolicy(inject="no-count-here")

    def test_backoff_is_deterministic_exponential_and_capped(self):
        policy = FailurePolicy(
            on_error="retry", max_retries=8,
            backoff_base_s=1.0, backoff_cap_s=3.0,
        )
        spec = JobSpec.make("test_echo", {"x": 1})
        assert policy.backoff_s(spec, 1) == 0.0
        d2 = policy.backoff_s(spec, 2)
        d3 = policy.backoff_s(spec, 3)
        assert 0.5 <= d2 < 1.0  # base * jitter in [0.5, 1.0)
        assert 1.0 <= d3 < 2.0  # doubled
        assert policy.backoff_s(spec, 2) == d2  # pure: same inputs, same delay
        assert policy.backoff_s(spec, 10) == 3.0  # capped
        other = JobSpec.make("test_echo", {"x": 2})
        assert policy.backoff_s(other, 2) != d2  # jitter keyed on the spec

    def test_backoff_fraction_is_pure_and_in_range(self):
        f = derive_backoff_fraction("abc", 2)
        assert f == derive_backoff_fraction("abc", 2)
        assert 0.0 <= f < 1.0
        assert f != derive_backoff_fraction("abc", 3)

    def test_injection_pattern_parsing_and_matching(self):
        assert parse_injection("test_echo:2") == ("test_echo", 2)
        assert parse_injection('"m":1,:3') == ('"m":1,', 3)  # colons in substr
        with pytest.raises(ValueError):
            parse_injection("nocolon")
        with pytest.raises(ValueError):
            parse_injection("kind:notanint")
        spec = JobSpec.make("test_echo", {"x": 1})
        assert should_inject(spec, 1, "test_echo:2")
        assert should_inject(spec, 2, "test_echo:2")
        assert not should_inject(spec, 3, "test_echo:2")
        assert should_inject(spec, 1, "*:1")
        assert not should_inject(spec, 1, "other_kind:9")
        assert not should_inject(spec, 1, None)

    def test_env_var_gates_injection_in_execute_job(self, monkeypatch):
        spec = JobSpec.make("test_echo", {"x": 7})
        monkeypatch.setenv("SSTSP_FAIL_INJECT", "test_echo:2")
        with pytest.raises(InjectedFailure):
            execute_job(spec, attempt=1)
        with pytest.raises(InjectedFailure):
            execute_job(spec, attempt=2)
        assert execute_job(spec, attempt=3)["params"] == {"x": 7}
        monkeypatch.delenv("SSTSP_FAIL_INJECT")
        assert execute_job(spec, attempt=1)["params"] == {"x": 7}


# --- retries, quarantine, timeouts ---------------------------------------


_FAST_RETRY = dict(backoff_base_s=0.001, backoff_cap_s=0.01)


def test_injected_transient_failures_retry_to_success(tmp_path):
    log_path = str(tmp_path / "run.jsonl")
    specs = _echo_specs(3)
    policy = FailurePolicy(
        on_error="retry", max_retries=2, inject="test_echo:1", **_FAST_RETRY
    )
    result = run_sweep(
        "flaky", specs, SweepOptions(policy=policy, log_path=log_path)
    )
    # every job failed once, retried, and returned its normal bytes
    assert [v["params"]["x"] for v in result.values] == [0, 1, 2]
    assert result.stats.retries == 3 and result.stats.quarantined == 0
    records = [json.loads(line) for line in open(log_path, encoding="utf-8")]
    retries = [r for r in records if r["event"] == "job_retry"]
    assert len(retries) == 3
    assert all(r["reason"] == "injected" and r["attempt"] == 1 for r in retries)
    end = records[-1]
    assert end["event"] == "sweep_end"
    assert end["retries"] == 3
    assert end["metrics"]["counters"]["sweep.job_retry"] == 3


def test_retry_exhaustion_raises_with_the_job_named():
    policy = FailurePolicy(on_error="retry", max_retries=1, **_FAST_RETRY)
    with pytest.raises(RuntimeError, match="sweep job failed: test_boom"):
        run_sweep("boom", [JobSpec.make("test_boom", {})], SweepOptions(policy=policy))


def test_raise_mode_never_retries(tmp_path):
    log_path = str(tmp_path / "run.jsonl")
    policy = FailurePolicy(on_error="raise", max_retries=5, inject="test_echo:1")
    with pytest.raises(RuntimeError, match="sweep job failed"):
        run_sweep(
            "strict", _echo_specs(1),
            SweepOptions(policy=policy, log_path=log_path),
        )
    records = [json.loads(line) for line in open(log_path, encoding="utf-8")]
    assert not [r for r in records if r["event"] == "job_retry"]


def test_quarantine_records_failure_and_keeps_going(tmp_path):
    log_path = str(tmp_path / "run.jsonl")
    specs = [
        JobSpec.make("test_echo", {"x": 1}),
        JobSpec.make("test_boom", {}),
        JobSpec.make("test_echo", {"x": 2}),
    ]
    policy = FailurePolicy(on_error="quarantine", max_retries=1, **_FAST_RETRY)
    result = run_sweep(
        "quar", specs, SweepOptions(policy=policy, log_path=log_path)
    )
    assert result.values[0]["params"] == {"x": 1}
    assert result.values[1] is None
    assert result.values[2]["params"] == {"x": 2}
    assert result.stats.executed == 2 and result.stats.quarantined == 1
    (failure,) = result.failures
    assert failure.seq == 1 and failure.kind == "test_boom"
    assert failure.reason == "error" and failure.attempts == 2
    assert "kaboom" in failure.message
    records = [json.loads(line) for line in open(log_path, encoding="utf-8")]
    quarantined = [r for r in records if r["event"] == "job_quarantined"]
    assert len(quarantined) == 1 and quarantined[0]["seq"] == 1
    end = records[-1]
    assert end["quarantined"] == 1
    assert end["metrics"]["counters"]["sweep.job_quarantined"] == 1


@pytest.mark.skipif(
    not hasattr(signal, "SIGALRM"), reason="per-attempt timeouts need SIGALRM"
)
def test_timeout_then_quarantine(tmp_path):
    log_path = str(tmp_path / "run.jsonl")
    specs = [JobSpec.make("test_sleep", {"sleep_s": 30.0})]
    policy = FailurePolicy(
        on_error="quarantine", max_retries=1, timeout_s=0.2, **_FAST_RETRY
    )
    t0 = time.perf_counter()
    result = run_sweep(
        "hang", specs, SweepOptions(policy=policy, log_path=log_path)
    )
    assert time.perf_counter() - t0 < 10.0  # both attempts were cut short
    (failure,) = result.failures
    assert failure.reason == "timeout" and failure.attempts == 2
    assert result.stats.timeouts == 2 and result.stats.quarantined == 1
    records = [json.loads(line) for line in open(log_path, encoding="utf-8")]
    assert records[-1]["metrics"]["counters"]["sweep.job_timeout"] == 2


# --- worker-crash recovery ------------------------------------------------


def test_worker_crash_quarantined_and_sweep_survives(tmp_path):
    """A job that kills its worker process (os._exit) is quarantined
    after its attempts are exhausted; every other job still returns."""
    log_path = str(tmp_path / "run.jsonl")
    specs = _echo_specs(4) + [JobSpec.make("test_exit", {})]
    policy = FailurePolicy(on_error="quarantine", max_retries=2, **_FAST_RETRY)
    result = run_sweep(
        "crash", specs,
        SweepOptions(workers=2, policy=policy, log_path=log_path),
    )
    assert [v["params"]["x"] for v in result.values[:4]] == [0, 1, 2, 3]
    assert result.values[4] is None
    killer = [f for f in result.failures if f.kind == "test_exit"]
    assert len(killer) == 1 and killer[0].reason == "worker_crash"
    assert killer[0].attempts == 3  # 1 + max_retries crashes before giving up
    assert result.stats.worker_crashes >= 3
    records = [json.loads(line) for line in open(log_path, encoding="utf-8")]
    assert [r for r in records if r["event"] == "worker_crash"]
    assert [
        r for r in records
        if r["event"] == "job_quarantined" and r["kind"] == "test_exit"
    ]
    assert records[-1]["metrics"]["counters"]["sweep.job_quarantined"] >= 1


def test_worker_crash_raise_mode_aborts_with_job_named():
    specs = [JobSpec.make("test_exit", {}), JobSpec.make("test_echo", {"x": 1})]
    with pytest.raises(RuntimeError, match="sweep job failed"):
        run_sweep("crash-strict", specs, SweepOptions(workers=2))


# --- real per-job wall times at workers > 1 ------------------------------


def test_parallel_wall_times_are_per_job_not_batch_averaged():
    specs = [
        JobSpec.make("test_sleep", {"sleep_s": 0.1, "tag": "short"}),
        JobSpec.make("test_sleep", {"sleep_s": 0.6, "tag": "long"}),
    ]
    result = run_sweep("walls", specs, SweepOptions(workers=2))
    walls = sorted(result.stats.job_wall_s)
    assert len(walls) == 2
    # batch-averaging would report ~0.35s for both; per-job measurement
    # keeps the short job short and the long job long
    assert walls[0] < 0.35
    assert walls[1] > 0.45


# --- determinism under retry histories ------------------------------------


def test_table1_csv_identical_with_injected_retries_across_workers(
    monkeypatch, tmp_path
):
    """The acceptance contract: with deterministic failure injection and
    retries active, workers 1 and 4 still produce byte-identical CSVs —
    and the same bytes as a clean, injection-free run."""
    _, clean_csv = _rows_and_csv(
        monkeypatch, tmp_path, "clean", SweepOptions(workers=1)
    )
    policy = FailurePolicy(
        on_error="retry", max_retries=1, inject="table1_cell:1", **_FAST_RETRY
    )
    _, serial_csv = _rows_and_csv(
        monkeypatch, tmp_path, "flaky-serial",
        SweepOptions(workers=1, policy=policy),
    )
    _, parallel_csv = _rows_and_csv(
        monkeypatch, tmp_path, "flaky-parallel",
        SweepOptions(workers=4, policy=policy),
    )
    assert serial_csv == clean_csv, "a retried job must return first-try bytes"
    assert parallel_csv == clean_csv, "CSV bytes must survive retries + workers"


def test_traces_identical_with_injected_retries(tmp_path):
    """A retried job's surviving event trace is byte-identical to a
    first-try success's: the failed attempt's partial trace is replaced
    wholesale when the retry runs."""
    specs = _quick_specs()
    clean_dir = tmp_path / "clean"
    flaky_dir = tmp_path / "flaky"
    run_sweep("traced", specs, SweepOptions(trace_dir=str(clean_dir)))
    policy = FailurePolicy(
        on_error="retry", max_retries=1, inject="scenario_trace:1", **_FAST_RETRY
    )
    result = run_sweep(
        "traced", specs, SweepOptions(trace_dir=str(flaky_dir), policy=policy)
    )
    assert result.stats.retries == len(specs)
    assert _trace_files(clean_dir) == _trace_files(flaky_dir)
    for name in _trace_files(clean_dir):
        with open(clean_dir / name, "rb") as a, open(flaky_dir / name, "rb") as b:
            assert a.read() == b.read(), f"trace {name} differs after a retry"


# --- manifest + resume ----------------------------------------------------


def test_manifest_roundtrip_and_counts(tmp_path):
    specs = _echo_specs(3)
    manifest = SweepManifest.fresh("demo", specs, salt="s1")
    assert manifest.counts() == {"pending": 3, "completed": 0, "quarantined": 0}
    manifest.mark(specs[0], "completed", attempts=1)
    manifest.mark(specs[1], "quarantined", attempts=3, reason="timeout")
    path = str(tmp_path / "demo.manifest.json")
    manifest.save(path)
    loaded = SweepManifest.load(path)
    assert loaded.sweep == "demo" and loaded.salt == "s1"
    assert loaded.counts() == {"pending": 1, "completed": 1, "quarantined": 1}
    assert loaded.status(specs[0]) == "completed"
    assert loaded.jobs[specs[1].spec_hash()]["reason"] == "timeout"
    with pytest.raises(ValueError, match="unknown manifest status"):
        manifest.mark(specs[2], "vanished")


def test_resume_requires_a_cache():
    with pytest.raises(ValueError, match="resume requires"):
        SweepOptions(resume=True)


def test_resume_executes_only_what_manifest_and_cache_do_not_cover(tmp_path):
    cache_dir = str(tmp_path / "cache")
    manifest_path = str(tmp_path / "res.manifest.json")
    log_path = str(tmp_path / "res.jsonl")
    specs = _echo_specs(4)
    # a partial run covered only half the sweep before "dying"
    run_sweep(
        "res", specs[:2],
        SweepOptions(cache_dir=cache_dir, manifest_path=manifest_path,
                     log_path=log_path),
    )
    assert SweepManifest.load(manifest_path).counts()["completed"] == 2
    resumed = run_sweep(
        "res", specs,
        SweepOptions(cache_dir=cache_dir, manifest_path=manifest_path,
                     log_path=log_path, resume=True),
    )
    assert resumed.stats.cache_hits == 2 and resumed.stats.executed == 2
    assert [v["params"]["x"] for v in resumed.values] == [0, 1, 2, 3]
    final = SweepManifest.load(manifest_path)
    assert final.counts() == {"pending": 0, "completed": 4, "quarantined": 0}
    # resume appended to the run log instead of rotating it away
    records = [json.loads(line) for line in open(log_path, encoding="utf-8")]
    starts = [r for r in records if r["event"] == "sweep_start"]
    assert len(starts) == 2
    assert starts[1]["resume"] is True
    assert starts[1]["resumed_from"]["completed"] == 2


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals required")
def test_interrupted_sweep_flushes_manifest_then_resumes(tmp_path):
    """SIGINT mid-sweep drains cleanly and flushes the manifest; a
    ``--resume`` rerun executes only the jobs that never completed."""
    cache_dir = str(tmp_path / "cache")
    manifest_path = str(tmp_path / "intr.manifest.json")
    log_path = str(tmp_path / "intr.jsonl")
    total = 6
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = tmp_path / "interrupted_sweep.py"
    script.write_text(
        "import sys\n"
        f"sys.path[:0] = [{os.path.join(root, 'src')!r}, {root!r}]\n"
        "import tests.test_sweep  # registers the job kinds\n"
        "from repro.sweep import JobSpec, SweepOptions, run_sweep\n"
        "specs = [JobSpec.make('test_sleep', {'sleep_s': 0.4, 'x': i})\n"
        f"         for i in range({total})]\n"
        "run_sweep('intr', specs, SweepOptions(\n"
        f"    workers=2, cache_dir={cache_dir!r},\n"
        f"    manifest_path={manifest_path!r}, log_path={log_path!r}))\n",
        encoding="utf-8",
    )
    proc = subprocess.Popen(
        [sys.executable, str(script)], cwd=root,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.time() + 30
        while time.time() < deadline:
            if os.path.exists(log_path) and any(
                json.loads(line)["event"] == "job"
                for line in open(log_path, encoding="utf-8")
            ):
                break
            time.sleep(0.02)
        else:
            pytest.fail("sweep never started inside the subprocess")
        proc.send_signal(signal.SIGINT)
        rc = proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    assert rc != 0, "an interrupted sweep must not exit cleanly"
    manifest = SweepManifest.load(manifest_path)
    counts = manifest.counts()
    assert counts["completed"] >= 1, counts
    assert counts["pending"] >= 1, counts
    records = [json.loads(line) for line in open(log_path, encoding="utf-8")]
    assert any(r["event"] == "sweep_interrupted" for r in records)
    assert records[-1]["event"] == "sweep_end"  # the log was closed cleanly

    # --resume: only the jobs the manifest + cache do not cover execute
    specs = [
        JobSpec.make("test_sleep", {"sleep_s": 0.4, "x": i})
        for i in range(total)
    ]
    resumed = run_sweep(
        "intr", specs,
        SweepOptions(cache_dir=cache_dir, manifest_path=manifest_path,
                     log_path=log_path, resume=True),
    )
    assert resumed.stats.cache_hits == counts["completed"]
    assert resumed.stats.executed == total - counts["completed"]
    assert all(v == {"slept": 0.4} for v in resumed.values)
    assert SweepManifest.load(manifest_path).counts()["completed"] == total


# --- run-log rotation -----------------------------------------------------


def test_run_log_rotates_instead_of_clobbering(tmp_path):
    log_path = str(tmp_path / "run.jsonl")
    run_sweep("rot", _echo_specs(1), SweepOptions(log_path=log_path))
    run_sweep("rot", _echo_specs(2), SweepOptions(log_path=log_path))
    run_sweep("rot", _echo_specs(3), SweepOptions(log_path=log_path))
    current = [json.loads(line) for line in open(log_path, encoding="utf-8")]
    first = [json.loads(line) for line in open(log_path + ".1", encoding="utf-8")]
    second = [json.loads(line) for line in open(log_path + ".2", encoding="utf-8")]
    assert first[0]["jobs"] == 1  # oldest run preserved, not overwritten
    assert second[0]["jobs"] == 2
    assert current[0]["jobs"] == 3


# --- CLI flags ------------------------------------------------------------


def _parse_sweep_cli(argv):
    import argparse

    parser = argparse.ArgumentParser()
    add_sweep_arguments(parser)
    return parser.parse_args(argv)


def test_sweep_cli_flags_build_the_failure_policy(tmp_path):
    args = _parse_sweep_cli([
        "--on-error", "quarantine", "--retries", "1", "--job-timeout", "2.5",
        "--cache-dir", str(tmp_path / "c"), "--workers", "3",
    ])
    options = sweep_options_from_args(args)
    assert options.workers == 3
    assert options.policy.on_error == "quarantine"
    assert options.policy.max_retries == 1
    assert options.policy.timeout_s == 2.5
    assert options.resume is False


def test_sweep_cli_resume_conflicts_with_no_cache():
    args = _parse_sweep_cli(["--resume", "--no-cache"])
    with pytest.raises(ValueError, match="--resume requires"):
        sweep_options_from_args(args)


def test_sweep_cli_resume_flag_flows_through(tmp_path):
    args = _parse_sweep_cli(["--resume", "--cache-dir", str(tmp_path / "c")])
    options = sweep_options_from_args(args)
    assert options.resume is True and options.cache_dir == str(tmp_path / "c")


# --- one results root -----------------------------------------------------


def test_results_dir_alone_keeps_every_cli_output_out_of_cwd(monkeypatch, tmp_path):
    """With only ``SSTSP_RESULTS_DIR`` set, the CSV, run log, manifest,
    sweep cache and profile artifacts all land under it."""
    from repro.experiments.cli import main

    out, cwd = tmp_path / "out", tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.setenv("SSTSP_RESULTS_DIR", str(out))
    monkeypatch.delenv("SSTSP_SWEEP_CACHE")
    argv = ["table1", "--nodes", "8", "--duration", "2", "-m", "1", "--replicas", "1"]
    assert main(argv) == 0
    assert main([
        "profile", "run", "multihop_run", "--param", "topology=chain",
        "--param", "n=3", "--param", "duration_s=1.0",
    ]) == 0
    assert not (cwd / "results").exists()
    for entry in ("table1.csv", "sweep_logs", "sweep-cache", "profile"):
        assert (out / entry).exists(), entry
