"""Shared helpers for the benchmark suite.

Each ``bench_*`` module regenerates one paper table/figure (or an
ablation) at a reduced-but-shape-preserving scale, asserts the paper's
qualitative claim, attaches the reproduced rows to the benchmark record
via ``benchmark.extra_info``, and prints them so that
``pytest benchmarks/ --benchmark-only -s`` shows the same rows/series the
paper reports. The full-scale reproductions live in
``repro.experiments`` (``sstsp-experiment <name>``).
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.obs import WorkCounters, instrument
from repro.sweep import SweepOptions


def pytest_addoption(parser):
    """The orchestrator knobs, shared by every sweep-driven bench.

    Mirrors the experiment CLIs' ``--workers`` / ``--cache-dir``
    (prefixed to avoid clashing with pytest's own options).
    """
    parser.addoption(
        "--sweep-workers",
        type=int,
        default=None,
        help="worker processes for sweep-driven benches "
        "(default: SSTSP_BENCH_WORKERS or 1)",
    )
    parser.addoption(
        "--sweep-cache-dir",
        default=None,
        help="content-addressed result cache directory (default: off — a "
        "benchmark that replays pickles measures the cache, not the "
        "simulator)",
    )
    parser.addoption(
        "--bench-json",
        default=None,
        metavar="PATH",
        help="serialize per-benchmark wall-time medians and numeric "
        "extra_info accuracy metrics to a schema-versioned BENCH json "
        "(compare against a baseline with `repro bench-gate`)",
    )
    parser.addoption(
        "--bench-label",
        default="local",
        help="label recorded in the --bench-json file (e.g. the PR number)",
    )


def pytest_sessionfinish(session, exitstatus):
    """Emit the ``--bench-json`` trajectory file from this session's
    pytest-benchmark records (see ``repro.analysis.benchgate``)."""
    path = session.config.getoption("--bench-json")
    if not path:
        return
    from repro.analysis.benchgate import bench_record, write_bench_json

    bench_session = getattr(session.config, "_benchmarksession", None)
    records = []
    for bench in getattr(bench_session, "benchmarks", []):
        if bench.has_error or not bench.stats.rounds:
            continue
        stats = bench.stats
        extra_info = dict(bench.extra_info)
        # measure_work() stashes the deterministic counters here; they
        # get their own record field (gated exactly), not an extra.
        work = extra_info.pop("work", None)
        records.append(
            bench_record(
                fullname=bench.fullname,
                median_s=stats.median,
                mean_s=stats.mean,
                stddev_s=stats.stddev if stats.rounds > 1 else 0.0,
                min_s=stats.min,
                rounds=stats.rounds,
                iterations=bench.iterations,
                group=bench.group,
                extra_info=extra_info,
                work=work,
            )
        )
    out = write_bench_json(
        path, session.config.getoption("--bench-label"), records
    )
    print(f"\nbench json: {len(records)} benchmark(s) written to {out}",
          file=sys.stderr)


@pytest.fixture
def sweep_options(request) -> SweepOptions:
    """How bench modules drive the sweep orchestrator.

    Caching stays off unless ``--sweep-cache-dir`` opts in.
    ``--sweep-workers`` (or the ``SSTSP_BENCH_WORKERS`` env) opts into
    parallel fan-out (results are identical at any worker count, only
    the wall clock moves, so the recorded rows stay comparable across
    machines).
    """
    workers = request.config.getoption("--sweep-workers")
    if workers is None:
        workers = int(os.environ.get("SSTSP_BENCH_WORKERS", "1"))
    return SweepOptions(
        workers=workers,
        cache_dir=request.config.getoption("--sweep-cache-dir"),
    )


def measure_work(benchmark, fn, *args, **kwargs):
    """Run ``fn`` once under the deterministic work counters and attach
    the tally to the benchmark record (``BENCH_*.json``'s ``work`` field).

    Deliberately *outside* the timed rounds: counting adds a dict update
    per instrumented site, so the measured wall times stay comparable
    with pre-counter baselines. The counters themselves are a pure
    function of the workload — byte-identical on every machine — which
    is what lets ``repro bench-gate`` compare them with zero tolerance.
    Returns ``fn``'s result so callers can assert on it.
    """
    work = WorkCounters()
    with instrument(counters=work):
        result = fn(*args, **kwargs)
    benchmark.extra_info["work"] = work.snapshot()
    return result


def paper_rows(benchmark, name: str, rows) -> None:
    """Attach reproduced rows to the benchmark record and print them."""
    rows = list(rows)
    benchmark.extra_info[name] = rows
    print(f"\n--- {name} ---", file=sys.stderr)
    for row in rows:
        print("   ", row, file=sys.stderr)
