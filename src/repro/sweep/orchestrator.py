"""The sweep executor: cache check → fan-out → ordered results.

``run_sweep`` takes a list of frozen :class:`~repro.sweep.spec.JobSpec`\\ s
and returns their results *in spec order*, however the work was
scheduled. ``workers == 1`` is the degenerate case — a plain serial loop
in the calling process, no pool, no pickling round-trip — so serial and
parallel execution share every code path that can affect a result, and
outputs stay byte-identical across worker counts (every job re-seeds from
its own spec; nothing reads global RNG state).

Execution is fault tolerant (see :mod:`repro.sweep.failpolicy` and
``docs/simulation.md``, "Sweep resilience"): a
:class:`~repro.sweep.failpolicy.FailurePolicy` on :class:`SweepOptions`
governs retries with deterministic backoff, per-attempt timeouts
(enforced inside the worker via ``SIGALRM``), and whether a job that
exhausts its attempts aborts the sweep or is *quarantined* as a
structured :class:`~repro.sweep.failpolicy.JobFailure`. A worker process
that dies mid-job (``BrokenProcessPool``) is survived by rebuilding the
pool and requeueing the in-flight jobs; SIGINT/SIGTERM drain cleanly and
flush a resume manifest (:mod:`repro.sweep.manifest`). None of it
touches determinism — a retried job returns the same bytes as a
first-try success.

Progress and per-job timing stream to stderr; the same records go to a
machine-readable JSONL run log when a path is configured (the experiment
CLIs default one under ``results/sweep_logs/``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    ContextManager,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
)

from repro.argtypes import non_negative_int, positive_float, positive_int
from repro.obs.context import instrument
from repro.obs.counters import WorkCounters
from repro.obs.events import RunObserver
from repro.obs.profile import Profiler
from repro.obs.registry import MetricsRegistry, merge_snapshots
from repro.sweep.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.sweep.failpolicy import (
    FailurePolicy,
    InjectedFailure,
    JobFailure,
    JobTimeoutError,
    ON_ERROR_MODES,
    SweepInterrupted,
)
from repro.sweep.jobs import execute_job
from repro.sweep.manifest import SweepManifest, default_manifest_path
from repro.sweep.spec import JobSpec


@dataclass(frozen=True)
class SweepOptions:
    """How a sweep executes (not *what* it computes — that is the specs).

    Attributes
    ----------
    workers:
        Process count; 1 runs the jobs serially in-process.
    cache_dir:
        Result-cache root, or None to disable caching (the library
        default: plain ``run()`` calls stay side-effect free unless a
        caller opts in).
    log_path:
        JSONL run-log destination, or None for no log file.
    progress:
        Stream per-job progress/ETA lines to stderr.
    trace_dir:
        Directory receiving one event-trace JSONL per *executed* job
        (``<kind>-<hash>.jsonl``), or None for no tracing. Tracing is
        pure observation — results and cache keys are identical with it
        on or off — so cache *hits* produce no trace (the job never
        ran); use ``--no-cache`` or a fresh cache to trace everything.
    profile:
        Attribute sweep wall time to phases (cache / engine / log) with
        a wall-clock :class:`~repro.obs.profile.Profiler`, built only
        when set; totals go to the run log and, with
        ``progress``, to stderr.
    policy:
        The :class:`~repro.sweep.failpolicy.FailurePolicy` governing
        retries, per-attempt timeouts, quarantine and failure injection.
        The default (``on_error="raise"``) aborts on the first failure.
    resume:
        Resume a previously interrupted sweep: append to the existing
        run log instead of rotating it, and execute only the jobs the
        manifest + cache do not already cover (practically: everything
        the cache cannot serve). Requires a cache directory.
    manifest_path:
        Where the resume manifest is flushed, or None to default to
        ``results/sweep_logs/<name>.manifest.json`` for progress/resume
        runs (library runs without either write no manifest).
    """

    workers: int = 1
    cache_dir: Optional[str] = None
    log_path: Optional[str] = None
    progress: bool = False
    trace_dir: Optional[str] = None
    profile: bool = False
    policy: FailurePolicy = FailurePolicy()
    resume: bool = False
    manifest_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.resume and self.cache_dir is None:
            raise ValueError(
                "resume requires a result cache (the manifest records "
                "which jobs completed; their values live in the cache)"
            )


@dataclass
class SweepStats:
    """Aggregate accounting of one ``run_sweep`` call."""

    jobs: int = 0
    cache_hits: int = 0
    executed: int = 0
    retries: int = 0
    timeouts: int = 0
    quarantined: int = 0
    worker_crashes: int = 0
    wall_s: float = 0.0
    job_wall_s: List[float] = field(default_factory=list)
    log_path: Optional[str] = None
    manifest_path: Optional[str] = None


@dataclass
class SweepResult:
    """Ordered results plus accounting.

    Under ``on_error="quarantine"`` a failed job leaves ``None`` at its
    index in :attr:`values` and a structured
    :class:`~repro.sweep.failpolicy.JobFailure` in :attr:`failures`;
    callers opting into quarantine own checking it.
    """

    specs: List[JobSpec]
    values: List[Any]
    stats: SweepStats
    failures: List[JobFailure] = field(default_factory=list)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)


def add_sweep_arguments(parser: argparse.ArgumentParser) -> List[argparse.Action]:
    """Install the shared sweep-execution flags (workers, cache, resilience).

    Returns the installed actions, in declaration order.
    """
    group = parser.add_argument_group("sweep execution")
    return [
        group.add_argument(
            "--workers", type=positive_int, default=1, metavar="N",
            help="worker processes for the scenario sweep (1 = serial; "
            "results are byte-identical at any worker count)",
        ),
        group.add_argument(
            "--cache-dir", default=None, metavar="DIR",
            help="result-cache directory (default: $SSTSP_SWEEP_CACHE or "
            f"{DEFAULT_CACHE_DIR!r})",
        ),
        group.add_argument(
            "--no-cache", action="store_true",
            help="disable the result cache for this run",
        ),
        group.add_argument(
            "--sweep-log", default=None, metavar="PATH",
            help="JSONL run-log path (default: results/sweep_logs/<name>.jsonl)",
        ),
        group.add_argument(
            "--trace-dir", default=None, metavar="DIR",
            help="write one event-trace JSONL per executed job into DIR "
            "(cache hits never ran, so they produce no trace)",
        ),
        group.add_argument(
            "--profile", action="store_true",
            help="attribute sweep wall time to phases (cache/engine/log)",
        ),
        group.add_argument(
            "--on-error", choices=ON_ERROR_MODES, default="raise",
            help="failed-job handling: 'raise' aborts the sweep (default), "
            "'retry' retries then aborts, 'quarantine' retries then records "
            "the failure and keeps going",
        ),
        group.add_argument(
            "--retries", type=non_negative_int, default=2, metavar="K",
            help="extra attempts per failing job under --on-error "
            "retry/quarantine (deterministic backoff; default 2)",
        ),
        group.add_argument(
            "--job-timeout", type=positive_float, default=None, metavar="S",
            help="per-attempt wall-time budget in seconds, enforced inside "
            "the worker; a timed-out attempt follows the --on-error path",
        ),
        group.add_argument(
            "--resume", action="store_true",
            help="resume an interrupted sweep: append to its run log and "
            "execute only what the manifest + cache do not already cover",
        ),
    ]


def ignore_sweep_arguments(
    parser: argparse.ArgumentParser,
    handler: Callable[[argparse.Namespace], int],
) -> None:
    """Give a command that runs no job sweep the shared sweep flags.

    ``repro all`` hands the same flags to every experiment it runs, so
    the sweepless ones accept them too. They have no effect: when any
    differs from its default, one notice line on standard error says it
    was ignored, then ``handler`` runs.
    """
    actions = add_sweep_arguments(parser)

    def run(args: argparse.Namespace) -> int:
        ignored = [
            action.option_strings[0]
            for action in actions
            if getattr(args, action.dest) != action.default
        ]
        if ignored:
            print(
                f"{parser.prog}: runs no job sweep; ignoring {' '.join(ignored)}",
                file=sys.stderr,
            )
        return handler(args)

    parser.set_defaults(func=run)


def sweep_options_from_args(args: argparse.Namespace) -> SweepOptions:
    """Build :class:`SweepOptions` from parsed CLI arguments.

    CLI runs cache by default (reruns of paper experiments are the hot
    use case); ``--no-cache`` opts out.
    """
    if args.no_cache:
        cache_dir = None
    else:
        cache_dir = (
            args.cache_dir
            or os.environ.get("SSTSP_SWEEP_CACHE")
            or DEFAULT_CACHE_DIR
        )
    if args.resume and cache_dir is None:
        raise ValueError("--resume requires the result cache (drop --no-cache)")
    return SweepOptions(
        workers=args.workers,
        cache_dir=cache_dir,
        log_path=args.sweep_log,
        progress=True,
        trace_dir=args.trace_dir,
        profile=args.profile,
        policy=FailurePolicy(
            on_error=args.on_error,
            max_retries=args.retries,
            timeout_s=args.job_timeout,
        ),
        resume=args.resume,
    )


def _default_log_path(name: str) -> str:
    root = os.environ.get("SSTSP_RESULTS_DIR", "results")
    return os.path.join(root, "sweep_logs", f"{name}.jsonl")


class _RunLog:
    """Line-per-event JSONL writer (no-op when path is None).

    A context manager: ``run_sweep`` holds the whole execution inside a
    ``with`` block, so the log flushes and closes even when a worker
    raises — no leaked half-written JSONL on failures.

    A fresh run never clobbers a previous run's log for the same sweep
    name: an existing file is rotated aside to ``<path>.<n>`` (smallest
    free ``n``) first. A resumed run (``append=True``) appends instead,
    so one logical sweep keeps one log across interruptions.
    """

    def __init__(self, path: Optional[str], append: bool = False) -> None:
        self.path = path
        self._fh: Optional[TextIO] = None
        if path is not None:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            if not append and os.path.exists(path):
                suffix = 1
                while os.path.exists(f"{path}.{suffix}"):
                    suffix += 1
                os.replace(path, f"{path}.{suffix}")
            self._fh = open(path, "a" if append else "w", encoding="utf-8")

    def write(self, record: Dict[str, Any]) -> None:
        if self._fh is not None:
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "_RunLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class _Alarm:
    """Per-attempt wall-time budget via ``SIGALRM`` (no-op when unusable).

    Armed inside the process actually running the job — a pool worker's
    main thread, or the calling process for serial sweeps — so a hung
    job interrupts *itself* with :class:`JobTimeoutError` and the normal
    failure path applies. Silently inert when ``SIGALRM`` is unavailable
    (non-POSIX) or we are not on the main thread.
    """

    def __init__(self, timeout_s: Optional[float]) -> None:
        self._timeout_s = timeout_s
        self._armed = False
        self._previous: Any = None

    def _fire(self, signum: int, frame: Any) -> None:
        raise JobTimeoutError(
            f"job attempt exceeded its {self._timeout_s}s budget"
        )

    def __enter__(self) -> "_Alarm":
        if (
            self._timeout_s is not None
            and hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread()
        ):
            self._previous = signal.signal(signal.SIGALRM, self._fire)
            signal.setitimer(signal.ITIMER_REAL, self._timeout_s)
            self._armed = True
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            self._armed = False


class _InterruptGuard:
    """Turn SIGINT/SIGTERM into a drain request instead of a hard stop.

    Installed around the execution phase (main thread only — elsewhere
    it is inert and the default handlers keep applying). The first
    signal sets :attr:`triggered`; the orchestrator finishes in-flight
    jobs, flushes the manifest, and raises
    :class:`~repro.sweep.failpolicy.SweepInterrupted`. A second SIGINT
    falls back to an immediate ``KeyboardInterrupt`` escape hatch.
    """

    def __init__(self) -> None:
        self.triggered: Optional[int] = None
        self._previous: Dict[int, Any] = {}

    def _fire(self, signum: int, frame: Any) -> None:
        if self.triggered is not None and signum == signal.SIGINT:
            raise KeyboardInterrupt
        self.triggered = signum

    def __enter__(self) -> "_InterruptGuard":
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    self._previous[signum] = signal.signal(signum, self._fire)
                except (ValueError, OSError):  # pragma: no cover - platform
                    pass
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for signum in sorted(self._previous):
            signal.signal(signum, self._previous[signum])
        self._previous.clear()


def _job_trace_path(trace_dir: str, spec: JobSpec) -> str:
    """Deterministic per-job trace filename inside ``trace_dir``."""
    return os.path.join(trace_dir, f"{spec.kind}-{spec.spec_hash()[:16]}.jsonl")


def _execute_observed(
    spec: JobSpec, trace_dir: str, attempt: int, inject: Optional[str]
) -> Tuple[Any, Dict[str, Any]]:
    """Run one job with the tracing bus on; module-level so the pool can
    pickle it. Returns ``(value, obs_payload)`` where the payload carries
    the trace path and the job's metrics snapshot back to the parent. A
    retried attempt reopens the same trace path, so the surviving trace
    is always the successful attempt's — byte-identical to a first-try
    success."""
    path = _job_trace_path(trace_dir, spec)
    observer = RunObserver(path)
    work = WorkCounters()
    with instrument(trace=observer, counters=work):
        value = execute_job(spec, attempt=attempt, inject=inject)
    metrics = observer.registry.snapshot()
    # Work counters ride in the metrics snapshot under ``work.``-prefixed
    # counter keys, so merge_snapshots rolls them into the sweep_end
    # aggregate alongside the event counters with no schema change.
    metrics["counters"].update(
        {f"work.{key}": n for key, n in work.snapshot().items()}
    )
    payload = {
        "trace_path": path,
        "events": observer.event_count,
        "metrics": metrics,
    }
    return value, payload


def _attempt_job(
    spec: JobSpec,
    attempt: int,
    policy: FailurePolicy,
    trace_dir: Optional[str],
) -> Tuple[Any, Optional[Dict[str, Any]], float]:
    """One job attempt, run wherever the work lands (worker or parent).

    Returns ``(value, obs_payload_or_None, wall_s)`` — the wall time is
    measured here, around the job itself, so parallel sweeps report real
    per-job timings rather than batch averages. The policy's timeout is
    armed around the attempt and its injection pattern is consulted
    before the job runs.
    """
    t0 = time.perf_counter()
    with _Alarm(policy.timeout_s):
        if trace_dir is None:
            value = execute_job(spec, attempt=attempt, inject=policy.inject)
            payload: Optional[Dict[str, Any]] = None
        else:
            value, payload = _execute_observed(
                spec, trace_dir, attempt, policy.inject
            )
    return value, payload, time.perf_counter() - t0


def _failure_reason(exc: BaseException) -> str:
    """Classify one attempt's exception for logs/metrics/manifest."""
    if isinstance(exc, JobTimeoutError):
        return "timeout"
    if isinstance(exc, InjectedFailure):
        return "injected"
    if isinstance(exc, BrokenProcessPool):
        return "worker_crash"
    return "error"


def _progress_line(
    name: str, done: int, total: int, hits: int,
    elapsed: float, miss_walls: List[float], remaining: int, workers: int,
) -> str:
    if miss_walls and remaining:
        eta = sum(miss_walls) / len(miss_walls) * remaining / workers
        eta_txt = f" eta {eta:.1f}s"
    else:
        eta_txt = ""
    return (
        f"[sweep {name}] {done}/{total} jobs ({hits} cached) "
        f"elapsed {elapsed:.1f}s{eta_txt}"
    )


def run_sweep(
    name: str,
    specs: Sequence[JobSpec],
    options: Optional[SweepOptions] = None,
) -> SweepResult:
    """Execute ``specs``, returning results in spec order.

    Cached results are fetched first (in the calling process); the
    remaining jobs run serially (``workers == 1``) or on a
    ``ProcessPoolExecutor``. Fresh results are written back to the cache
    as they land. Failures follow ``options.policy``: under the default
    ``on_error="raise"`` a failing job raises — with the job key
    attached — after the pool is drained; ``retry`` re-attempts with
    deterministic backoff; ``quarantine`` records the failure and keeps
    the sweep going. SIGINT/SIGTERM drain cleanly, flush the resume
    manifest, and raise :class:`SweepInterrupted`.
    """
    options = options or SweepOptions()
    policy = options.policy
    specs = list(specs)
    stats = SweepStats(jobs=len(specs))
    cache = ResultCache(options.cache_dir) if options.cache_dir else None
    trace_dir = options.trace_dir
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
    profiler = Profiler() if options.profile else None

    def phase(name: str) -> ContextManager[Any]:
        """Time one ``cache``/``engine``/``log`` phase when profiling."""
        if profiler is None:
            return contextlib.nullcontext()
        return profiler.span(name)

    log_path = options.log_path
    if log_path is None and options.progress and specs:
        log_path = _default_log_path(name)
    manifest_path = options.manifest_path
    if manifest_path is None and (options.progress or options.resume) and specs:
        manifest_path = default_manifest_path(name)
    err = sys.stderr
    start = time.perf_counter()
    values: List[Any] = [None] * len(specs)
    pending: List[int] = []
    done = 0
    miss_walls: List[float] = []
    metrics_total: Dict[str, Any] = {}
    registry = MetricsRegistry()
    failures: List[JobFailure] = []
    manifest = (
        SweepManifest.fresh(name, specs, cache.salt if cache else "")
        if manifest_path is not None
        else None
    )
    resumed_from: Optional[Dict[str, int]] = None
    if options.resume and manifest_path is not None and os.path.exists(manifest_path):
        resumed_from = SweepManifest.load(manifest_path).counts()

    with _RunLog(
        log_path if specs else None, append=options.resume
    ) as log, _InterruptGuard() as guard:
        stats.log_path = log.path
        stats.manifest_path = manifest_path
        log.write({
            "event": "sweep_start",
            "sweep": name,
            "jobs": len(specs),
            "workers": options.workers,
            "cache_dir": options.cache_dir,
            "cache_salt": cache.salt if cache else None,
            "trace_dir": trace_dir,
            "on_error": policy.on_error,
            "resume": options.resume,
            "resumed_from": resumed_from,
            "time": time.time(),
        })

        def log_job(index: int, source: str, wall_s: float) -> None:
            spec = specs[index]
            with phase("log"):
                log.write({
                    "event": "job",
                    "sweep": name,
                    "seq": index,
                    "kind": spec.kind,
                    "hash": spec.spec_hash()[:16],
                    "params": spec.params_dict(),
                    "cache": source,
                    "wall_s": round(wall_s, 6),
                })

        def log_job_obs(index: int, payload: Dict[str, Any]) -> None:
            """Per-job observability record + roll-up into the sweep
            aggregate (counters/histograms add, gauges last-write)."""
            merge_snapshots(metrics_total, payload["metrics"])
            spec = specs[index]
            with phase("log"):
                log.write({
                    "event": "job_obs",
                    "sweep": name,
                    "seq": index,
                    "kind": spec.kind,
                    "hash": spec.spec_hash()[:16],
                    "trace_path": payload["trace_path"],
                    "events": payload["events"],
                    "metrics": payload["metrics"],
                })

        # Phase 1: satisfy what we can from the cache.
        for index, spec in enumerate(specs):
            if cache is not None:
                t0 = time.perf_counter()
                with phase("cache"):
                    hit, value = cache.get(spec)
                if hit:
                    values[index] = value
                    stats.cache_hits += 1
                    done += 1
                    if manifest is not None:
                        manifest.mark(spec, "completed")
                    log_job(index, "hit", time.perf_counter() - t0)
                    continue
            pending.append(index)

        if options.progress and stats.cache_hits:
            print(
                _progress_line(
                    name, done, len(specs), stats.cache_hits,
                    time.perf_counter() - start, miss_walls,
                    len(pending), options.workers,
                ),
                file=err,
            )

        def finish(index: int, value: Any, wall_s: float, attempts: int) -> None:
            nonlocal done
            values[index] = value
            stats.executed += 1
            stats.job_wall_s.append(wall_s)
            miss_walls.append(wall_s)
            done += 1
            if cache is not None:
                with phase("cache"):
                    cache.put(specs[index], value)
            if manifest is not None:
                manifest.mark(specs[index], "completed", attempts=attempts)
            log_job(index, "miss", wall_s)
            if options.progress:
                print(
                    _progress_line(
                        name, done, len(specs), stats.cache_hits,
                        time.perf_counter() - start, miss_walls,
                        len(specs) - done, options.workers,
                    ),
                    file=err,
                )

        def quarantine(
            index: int, reason: str, attempts: int, message: str
        ) -> None:
            nonlocal done
            spec = specs[index]
            failure = JobFailure(
                seq=index,
                kind=spec.kind,
                hash=spec.spec_hash()[:16],
                job_key=spec.job_key,
                reason=reason,
                attempts=attempts,
                message=message,
            )
            failures.append(failure)
            stats.quarantined += 1
            registry.inc("sweep.job_quarantined")
            done += 1
            if manifest is not None:
                manifest.mark(spec, "quarantined", attempts=attempts, reason=reason)
            with phase("log"):
                record = {"event": "job_quarantined", "sweep": name}
                record.update(failure.to_dict())
                log.write(record)
            if options.progress:
                print(
                    f"[sweep {name}] QUARANTINED job {index} "
                    f"({spec.kind}-{spec.spec_hash()[:16]}): {reason} "
                    f"after {attempts} attempt(s): {message}",
                    file=err,
                )

        def on_failure(
            index: int, attempt: int, exc: BaseException
        ) -> str:
            """Decide one failed attempt's fate: ``'retry'`` or
            ``'quarantined'`` — or raise, aborting the sweep."""
            spec = specs[index]
            reason = _failure_reason(exc)
            if reason == "timeout":
                stats.timeouts += 1
                registry.inc("sweep.job_timeout")
            if attempt < policy.attempts:
                stats.retries += 1
                registry.inc("sweep.job_retry")
                backoff_s = policy.backoff_s(spec, attempt + 1)
                with phase("log"):
                    log.write({
                        "event": "job_retry",
                        "sweep": name,
                        "seq": index,
                        "kind": spec.kind,
                        "hash": spec.spec_hash()[:16],
                        "attempt": attempt,
                        "reason": reason,
                        "error": str(exc),
                        "backoff_s": round(backoff_s, 6),
                    })
                if backoff_s > 0:
                    time.sleep(backoff_s)
                return "retry"
            if policy.on_error == "quarantine":
                quarantine(index, reason, attempt, str(exc))
                return "quarantined"
            raise RuntimeError(
                f"sweep job failed: {spec.job_key}"
            ) from exc

        # Phase 2: execute the misses.
        try:
            if options.workers == 1 or len(pending) <= 1:
                _run_serial(
                    specs, pending, policy, trace_dir, phase, guard,
                    finish, on_failure, log_job_obs,
                )
            else:
                crashes = _run_parallel(
                    specs, pending, options, policy, trace_dir, phase,
                    guard, finish, on_failure, log_job_obs, log, name,
                    registry,
                )
                stats.worker_crashes = crashes
        finally:
            stats.wall_s = time.perf_counter() - start
            if len(registry):
                merge_snapshots(metrics_total, registry.snapshot())
            if guard.triggered is not None:
                log.write({
                    "event": "sweep_interrupted",
                    "sweep": name,
                    "signal": int(guard.triggered),
                    "completed": done,
                    "jobs": len(specs),
                    "manifest": manifest_path,
                })
            end_record: Dict[str, Any] = {
                "event": "sweep_end",
                "sweep": name,
                "jobs": len(specs),
                "cache_hits": stats.cache_hits,
                "executed": stats.executed,
                "retries": stats.retries,
                "quarantined": stats.quarantined,
                "wall_s": round(stats.wall_s, 6),
                "time": time.time(),
            }
            if trace_dir is not None or metrics_total:
                end_record["metrics"] = metrics_total
            if profiler is not None:
                end_record["profile"] = profiler.totals()
            log.write(end_record)
            if manifest is not None and manifest_path is not None:
                manifest.save(manifest_path)

    if guard.triggered is not None:
        if options.progress:
            print(
                f"[sweep {name}] interrupted (signal {int(guard.triggered)}) "
                f"after {done}/{len(specs)} jobs"
                + (f"; manifest: {manifest_path}" if manifest_path else ""),
                file=err,
            )
        raise SweepInterrupted(name, done, len(specs), manifest_path)
    if options.progress:
        quarantined_txt = (
            f", {stats.quarantined} quarantined" if stats.quarantined else ""
        )
        print(
            f"[sweep {name}] done: {len(specs)} jobs "
            f"({stats.cache_hits} cached, {stats.executed} executed"
            f"{quarantined_txt}) in {stats.wall_s:.2f}s"
            + (f" (log: {stats.log_path})" if stats.log_path else ""),
            file=err,
        )
        if failures:
            for failure in failures:
                print(
                    f"[sweep {name}]   quarantined: {failure.kind}-"
                    f"{failure.hash} ({failure.reason}, "
                    f"{failure.attempts} attempts)",
                    file=err,
                )
        if profiler is not None:
            print(
                f"[sweep {name}] profile: "
                f"{profiler.format_summary(stats.wall_s)}",
                file=err,
            )
    return SweepResult(specs=specs, values=values, stats=stats, failures=failures)


def _run_serial(
    specs: List[JobSpec],
    pending: List[int],
    policy: FailurePolicy,
    trace_dir: Optional[str],
    phase: Callable[[str], ContextManager[Any]],
    guard: _InterruptGuard,
    finish: Any,
    on_failure: Any,
    log_job_obs: Any,
) -> None:
    """The serial execution loop: one attempt cycle per pending job."""
    for index in pending:
        if guard.triggered is not None:
            return
        attempt = 0
        while True:
            attempt += 1
            try:
                with phase("engine"):
                    value, payload, wall_s = _attempt_job(
                        specs[index], attempt, policy, trace_dir
                    )
            except Exception as exc:
                if on_failure(index, attempt, exc) == "retry":
                    continue
                break  # quarantined
            if payload is not None:
                log_job_obs(index, payload)
            finish(index, value, wall_s, attempt)
            break


def _run_parallel(
    specs: List[JobSpec],
    pending: List[int],
    options: SweepOptions,
    policy: FailurePolicy,
    trace_dir: Optional[str],
    phase: Callable[[str], ContextManager[Any]],
    guard: _InterruptGuard,
    finish: Any,
    on_failure: Any,
    log_job_obs: Any,
    log: _RunLog,
    name: str,
    registry: MetricsRegistry,
) -> int:
    """The pool execution loop: bounded submission window, retries,
    worker-crash recovery. Returns the number of pool crashes survived.

    The window (one in-flight job per worker) is what makes crash blame
    tractable: when the pool breaks, only the currently in-flight jobs
    are suspects, so an ``os._exit`` job is pinned down within
    ``policy.attempts`` crashes instead of smearing attempts across the
    whole queue.
    """
    queue: Deque[int] = deque(pending)
    next_attempt: Dict[int, int] = {index: 1 for index in pending}
    outstanding: Dict[Future, Tuple[int, int]] = {}
    crashes = 0
    pool = ProcessPoolExecutor(max_workers=options.workers)

    def handle_crash(exc: BaseException) -> None:
        """Rebuild the pool; requeue or give up on the in-flight jobs."""
        nonlocal pool, crashes
        crashes += 1
        registry.inc("sweep.worker_crash")
        victims = sorted(outstanding.values())
        outstanding.clear()
        log.write({
            "event": "worker_crash",
            "sweep": name,
            "victims": [specs[i].spec_hash()[:16] for i, _ in victims],
        })
        pool.shutdown(wait=False, cancel_futures=True)
        pool = ProcessPoolExecutor(max_workers=options.workers)
        for index, attempt in victims:
            crash_exc = BrokenProcessPool(
                f"worker process died running {specs[index].job_key} "
                "(or a job sharing its pool)"
            )
            crash_exc.__cause__ = exc
            if on_failure(index, attempt, crash_exc) == "retry":
                next_attempt[index] = attempt + 1
                queue.append(index)

    try:
        while queue or outstanding:
            if guard.triggered is not None:
                break
            try:
                while queue and len(outstanding) < options.workers:
                    index = queue.popleft()
                    attempt = next_attempt[index]
                    future = pool.submit(
                        _attempt_job, specs[index], attempt, policy, trace_dir
                    )
                    outstanding[future] = (index, attempt)
                with phase("engine"):
                    finished, _ = wait(
                        list(outstanding), timeout=0.2,
                        return_when=FIRST_COMPLETED,
                    )
                for future in finished:
                    index, attempt = outstanding.pop(future)
                    try:
                        value, payload, wall_s = future.result()
                    except BrokenProcessPool:
                        outstanding[future] = (index, attempt)
                        raise
                    except Exception as exc:
                        if on_failure(index, attempt, exc) == "retry":
                            next_attempt[index] = attempt + 1
                            queue.append(index)
                        continue
                    if payload is not None:
                        log_job_obs(index, payload)
                    finish(index, value, wall_s, attempt)
            except BrokenProcessPool as exc:
                handle_crash(exc)
        if guard.triggered is not None and outstanding:
            # Drain: let in-flight jobs finish and bank their results
            # (they are paid for); anything queued stays pending.
            finished, _ = wait(list(outstanding))
            for future in finished:
                index, attempt = outstanding.pop(future)
                try:
                    value, payload, wall_s = future.result()
                except BaseException:
                    continue  # stays pending in the manifest
                if payload is not None:
                    log_job_obs(index, payload)
                finish(index, value, wall_s, attempt)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    return crashes
