"""The repository benchmark: closed-loop streams of simulation jobs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper_singlehop --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload's job list once, untraced, and reports the
end-to-end metrics. ``--trace 1`` replays a fixed subset of the same jobs
untraced, then twice under the outside-in wrappers of
:mod:`tracing` with the program's work counters on, and reports the
per-layer metrics. Both modes check every job's output; the traced mode
also checks that tracing changes no result and that the counter tallies
repeat exactly. End-to-end host times are in reference seconds: raw
host seconds scaled by a calibration kernel sampled during the run
(:mod:`calibration`). The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

Metric definitions, and which layer metric should move which end-to-end
metric on which workload, are in ``perfbench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: numpy stays single-threaded: one job at a time on one core.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
#: Fresh-interpreter set-up probes per run; setup_s is their median.
SETUP_TRIALS = 5


def _parse(argv: Optional[List[str]], workload_names) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def _time_job(job) -> Tuple[float, Any, Any]:
    t0 = time.perf_counter()
    built = job.construct()
    result = job.run(built)
    return time.perf_counter() - t0, built, result


def _measure_setup(workload: str, seed: int, seconds: float) -> float:
    """Median wall time of fresh interpreters that import repro, generate
    the run's inputs and make the construction calls of one job cycle."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(seconds)]
    samples = []
    for _ in range(SETUP_TRIALS):
        t0 = time.perf_counter()
        done = subprocess.run(probe, env=env, cwd=ROOT, capture_output=True, text=True)
        samples.append(time.perf_counter() - t0)
        if done.returncode != 0 or not done.stdout.strip().isdigit():
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-400:]}")
    return statistics.median(samples)


def _print_table(title: str, rows: List[Tuple[str, Any, str]]) -> None:
    print(f"# {title}")
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name.ljust(width)}  {text:>14}  {unit}")


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------


def run_untraced(args: argparse.Namespace) -> Tuple[bool, int, int, Dict[str, Any]]:
    import calibration
    import workloads

    jobs = workloads.make_jobs(args.workload, args.seed, args.seconds)
    speed = calibration.HostSpeed()
    setup_raw_s = _measure_setup(args.workload, args.seed, args.seconds)
    speed.sample(calibration.SHARE * setup_raw_s * SETUP_TRIALS)
    job_times: List[float] = []
    errors: List[float] = []
    node_periods = 0
    failures: List[str] = []
    for job in jobs:
        started = time.perf_counter()
        try:
            elapsed, built, result = _time_job(job)
            trace, scalars = workloads.job_outputs(job, built, result)
            problem = workloads.check_job(job, trace, scalars)
        except Exception as exc:  # a crashed job counts as failed, the stream goes on
            traceback.print_exc(file=sys.stderr)
            problem = f"{type(exc).__name__}: {exc}"
        speed.sample(calibration.SHARE * (time.perf_counter() - started))
        if problem is not None:
            failures.append(f"{job.label} (seed {job.seed}): {problem}")
            continue
        print(f"job {job.job_id:3d}  {job.label:24s} seed={job.seed:<10d} "
              f"{elapsed:8.3f} s  steady {trace.steady_state_error_us():10.2f} us")
        job_times.append(elapsed)
        node_periods += job.node_periods
        errors.append(trace.steady_state_error_us())
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    if not job_times:
        return False, len(jobs), len(failures), {}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Host times in reference seconds (see calibration.py); the raw
    # values are printed beside them.
    factor = speed.factor
    raw = {
        "node_periods_per_s": node_periods / sum(job_times),
        "job_s_p50": statistics.median(job_times),
        "setup_s": setup_raw_s,
    }
    metrics = {
        "node_periods_per_s": _metric(raw["node_periods_per_s"] / factor, "node-BP/s"),
        "job_s_p50": _metric(raw["job_s_p50"] * factor, "s"),
        "setup_s": _metric(raw["setup_s"] * factor, "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MiB"),
        "sync_error_us": _metric(statistics.median(errors), "us"),
    }
    rows = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    rows.append(("job_failure_ratio", len(failures) / len(jobs), "failed/attempted"))
    rows.append(("jobs", len(jobs), "count"))
    rows.append(("host_speed", factor, f"x reference ({len(speed.samples)} kernel samples)"))
    rows.extend((f"{name} (raw)", value, metrics[name]["unit"]) for name, value in raw.items())
    _print_table(f"{args.workload} seed={args.seed} end-to-end ({len(jobs)} jobs)", rows)
    return not failures, len(jobs), len(failures), metrics


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_metrics(rec, counts: Dict[str, int], guard: List[int],
                   traced_s: float, untraced_s: float) -> Dict[str, Any]:
    per_site, covered = rec.aggregate()

    def seconds(layer: str, role: str, key: str = "self") -> float:
        return float(sum(
            entry[key]
            for site, entry in per_site.items()
            if rec.site_layers[site] == layer and rec.site_roles[site] == role
        ))

    def calls(layer: str) -> int:
        return sum(
            int(entry["calls"])
            for site, entry in per_site.items()
            if rec.site_layers[site] == layer
        )

    def total(*names: str) -> int:
        return sum(
            value
            for key, value in counts.items()
            if any(key == name or key.endswith("/" + name) for name in names)
        )

    obs = rec.obs
    values = {
        "fastlane.self_s": (seconds("fastlane", "entry"), "s"),
        "mac.busy_s": (seconds("mac", "busy"), "s"),
        "mac.windows": (total("mac.contention_round", "mac.neighborhood_round"), "count"),
        "mac.candidates": (total("mac.contention_candidates"), "count"),
        "mac.collision_ratio": (
            _ratio(obs.get("mac.collided", 0), obs.get("mac.transmissions", 0)), "ratio"),
        "phy.busy_s": (seconds("phy", "busy"), "s"),
        "phy.candidate_pairs": (int(obs.get("phy.candidate_pairs", 0)), "count"),
        "phy.delivery_attempts": (total("phy.delivery_attempt"), "count"),
        "phy.pair_hit_ratio": (
            _ratio(obs.get("phy.window_attempts", 0), obs.get("phy.candidate_pairs", 0)),
            "ratio"),
        "phy.delivery_ratio": (
            _ratio(obs.get("phy.deliveries", 0), obs.get("phy.wrapped_attempts", 0)), "ratio"),
        "phy.rng_draws": (total("phy.per_draw", "phy.ts_jitter_draw", "phy.ge_step"), "count"),
        "protocols.busy_s": (seconds("protocols", "busy"), "s"),
        "protocols.calls": (calls("protocols"), "count"),
        "protocols.accept_ratio": (
            _ratio(obs.get("protocols.accepted", 0), obs.get("protocols.receptions", 0)),
            "ratio"),
        "multihop.self_s": (seconds("multihop", "entry"), "s"),
        "multihop.topology_s": (seconds("multihop", "topology", "incl"), "s"),
        "multihop.setup_s": (seconds("multihop", "setup", "incl"), "s"),
        "network.self_s": (seconds("network", "entry"), "s"),
        "core.busy_s": (seconds("core", "busy"), "s"),
        "core.guard_reject_ratio": (_ratio(guard[0], guard[1]), "ratio"),
        "crypto.busy_s": (seconds("crypto", "busy"), "s"),
        "crypto.setup_s": (seconds("crypto", "busy", "setup_self"), "s"),
        "crypto.hash_ops": (
            total("crypto.hash_ops") + int(obs.get("crypto.chain_hashes", 0)), "count"),
        "crypto.auth_ratio": (
            _ratio(obs.get("crypto.released", 0), obs.get("crypto.receives", 0)), "ratio"),
        "sim.dispatches": (total("engine.dispatch"), "count"),
        "sim.heap_ops": (total("engine.heap_push", "engine.heap_pop"), "count"),
        "clocks.conversions": (
            total("clock.hw_at", "clock.adjusted_at", "clock.true_at_hw",
                  "clock.true_at_adjusted") + int(obs.get("clocks.node_conversions", 0)),
            "count"),
        "analysis.busy_s": (seconds("analysis", "busy"), "s"),
        "analysis.samples": (int(obs.get("analysis.samples", 0)), "count"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
        "trace.residual_frac": (1.0 - sum(covered.values()) / traced_s, "ratio"),
    }
    return {name: _metric(value, unit) for name, (value, unit) in values.items()}


def run_traced(args: argparse.Namespace) -> Tuple[bool, int, int, Dict[str, Any]]:
    import workloads
    import tracing
    from repro.obs.counters import count_work, merge_counts

    jobs = workloads.traced_jobs(args.workload, args.seed)
    failures: Dict[int, str] = {}
    digests: Dict[int, str] = {}
    untraced_s = 0.0
    for job in jobs:
        elapsed, built, result = _time_job(job)
        untraced_s += elapsed
        trace, scalars = workloads.job_outputs(job, built, result)
        digests[job.job_id] = workloads.digest(trace, scalars)
        problem = workloads.check_job(job, trace, scalars)
        if problem is not None:
            failures[job.job_id] = problem

    rec = tracing.SpanRecorder()
    tallies: Dict[int, Dict[str, int]] = {}
    counts: Dict[str, int] = {}
    guard = [0, 0]
    traced_s = 0.0
    with tracing.instrumented(rec):
        for replay in (0, 1):
            rec.recording = replay == 0
            for job in jobs:
                rec.current_job = job.job_id
                with count_work() as work:
                    t0 = time.perf_counter()
                    rec.current_phase = tracing.CONSTRUCT
                    built = job.construct()
                    rec.current_phase = tracing.RUN
                    result = job.run(built)
                    elapsed = time.perf_counter() - t0
                tally = work.snapshot()
                trace, scalars = workloads.job_outputs(job, built, result)
                if workloads.digest(trace, scalars) != digests[job.job_id]:
                    failures.setdefault(job.job_id, "traced result differs from untraced")
                if replay == 0:
                    traced_s += elapsed
                    tallies[job.job_id] = tally
                    merge_counts(counts, tally)
                    for node in getattr(result, "nodes", ()):
                        stats = getattr(getattr(node.protocol, "guard", None), "stats", None)
                        if stats is not None:
                            guard[0] += stats.rejected
                            guard[1] += stats.total
                elif tally != tallies[job.job_id]:
                    failures.setdefault(job.job_id, "work counters differ between traced runs")
    for job_id, problem in sorted(failures.items()):
        print(f"FAILED job {job_id}: {problem}", file=sys.stderr)
    metrics = _layer_metrics(rec, counts, guard, traced_s, untraced_s)
    _print_table(
        f"{args.workload} seed={args.seed} per-layer ({len(jobs)} traced jobs: "
        + ", ".join(job.label for job in jobs) + ")",
        [(name, m["value"], m["unit"]) for name, m in metrics.items()],
    )
    return not failures, len(jobs), len(failures), metrics


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    # Before numpy is first imported (by repro, through workloads).
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import workloads

    args = _parse(argv, workloads.WORKLOADS)
    runner = run_traced if args.trace else run_untraced
    correct, attempted, failed, metrics = runner(args)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
