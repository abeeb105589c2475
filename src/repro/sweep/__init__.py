"""Parallel sweep orchestration with content-addressed result caching.

Every experiment in :mod:`repro.experiments` is an ``axes x seeds`` grid
of *independent* simulation runs. This package turns such a grid into a
list of frozen, content-addressable :class:`~repro.sweep.spec.JobSpec`\\ s
and executes them:

* :mod:`repro.sweep.grid` — declarative grid expansion (cartesian
  product, deterministic order);
* :mod:`repro.sweep.spec` — the frozen job spec, its stable ``job_key``,
  the spec hash, and the scheduling-independent per-job seed derivation
  ``seed = hash(root_seed, job_key)``;
* :mod:`repro.sweep.cache` — an on-disk content-addressed result cache
  keyed by ``hash(job_key + code-version salt)``;
* :mod:`repro.sweep.jobs` — the registry mapping job kinds to the
  module-level functions that execute them (importable by worker
  processes);
* :mod:`repro.sweep.failpolicy` — the failure policy: deterministic
  retry backoff, per-attempt timeouts, quarantine semantics and the
  reproducible failure-injection hook;
* :mod:`repro.sweep.manifest` — the resume manifest recording each
  job's completed/quarantined/pending status, keyed by spec hash;
* :mod:`repro.sweep.orchestrator` — the executor: a
  ``ProcessPoolExecutor`` fan-out for ``workers > 1`` with the plain
  serial loop as the ``workers == 1`` degenerate case, worker-crash
  recovery, clean SIGINT/SIGTERM draining, plus progress/ETA on stderr
  and a machine-readable JSONL run log.

Results are returned in *spec order* regardless of worker scheduling,
every job (and every retry attempt) re-seeds from its own spec, so the
same grid produces byte-identical outputs at any worker count and under
any retry history — ``tests/test_sweep.py`` asserts exactly that.
"""

from repro.sweep.cache import CACHE_SALT, ResultCache
from repro.sweep.failpolicy import (
    FailurePolicy,
    InjectedFailure,
    JobFailure,
    JobTimeoutError,
    SweepInterrupted,
)
from repro.sweep.grid import expand_grid
from repro.sweep.jobs import register_job, resolve_job
from repro.sweep.manifest import SweepManifest, default_manifest_path
from repro.sweep.orchestrator import (
    SweepOptions,
    SweepResult,
    add_sweep_arguments,
    parse_ignoring_sweep_arguments,
    run_sweep,
    sweep_options_from_args,
)
from repro.sweep.spec import JobSpec, canonical_json, derive_seed

__all__ = [
    "CACHE_SALT",
    "FailurePolicy",
    "InjectedFailure",
    "JobFailure",
    "JobSpec",
    "JobTimeoutError",
    "ResultCache",
    "SweepInterrupted",
    "SweepManifest",
    "SweepOptions",
    "SweepResult",
    "add_sweep_arguments",
    "canonical_json",
    "default_manifest_path",
    "derive_seed",
    "expand_grid",
    "parse_ignoring_sweep_arguments",
    "register_job",
    "resolve_job",
    "run_sweep",
    "sweep_options_from_args",
]
