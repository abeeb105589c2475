"""The sweep manifest: resumable run state keyed by spec hashes.

``run_sweep`` maintains one manifest per named sweep
(``results/sweep_logs/<name>.manifest.json`` by default) recording, for
every job in the sweep, whether it **completed**, was **quarantined**,
or is still **pending**. The manifest is flushed when the sweep ends —
normally, on a job failure under ``on_error="raise"``, or on a
SIGINT/SIGTERM drain — so an interrupted run always leaves an accurate
record behind.

Jobs are keyed by the full (unsalted) spec hash, the same identity the
result cache is addressed by, which is what makes ``--resume`` work:
a resumed sweep re-checks the cache for every spec, executes only what
the manifest + cache do not already cover, and ends with the manifest
marked fully completed. The manifest never stores result *values* —
those live in the content-addressed cache — so it stays small however
large the job payloads are.

Writes are atomic (temp file + ``os.replace``) and the JSON is
sorted-key, so a manifest is a deterministic function of the sweep's
state, not of dict insertion history.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence

from repro.sweep.spec import JobSpec

#: Bump on breaking changes to the manifest layout. Loaders reject a
#: newer schema rather than misreading it.
MANIFEST_SCHEMA_VERSION = 1

#: The statuses a job may hold in a manifest.
JOB_STATUSES = ("pending", "completed", "quarantined")


@dataclass
class SweepManifest:
    """Completed/quarantined/pending state of one named sweep."""

    sweep: str
    salt: str
    jobs: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @classmethod
    def fresh(
        cls, sweep: str, specs: Sequence[JobSpec], salt: str
    ) -> "SweepManifest":
        """A manifest with every job of ``specs`` marked pending."""
        manifest = cls(sweep=sweep, salt=salt)
        for seq, spec in enumerate(specs):
            manifest.jobs[spec.spec_hash()] = {
                "seq": seq,
                "kind": spec.kind,
                "status": "pending",
                "attempts": 0,
            }
        return manifest

    def mark(
        self,
        spec: JobSpec,
        status: str,
        attempts: Optional[int] = None,
        reason: Optional[str] = None,
    ) -> None:
        """Set one job's status (plus attempt count / failure reason)."""
        if status not in JOB_STATUSES:
            raise ValueError(f"unknown manifest status {status!r}")
        entry = self.jobs.setdefault(
            spec.spec_hash(), {"seq": len(self.jobs), "kind": spec.kind}
        )
        entry["status"] = status
        if attempts is not None:
            entry["attempts"] = attempts
        if reason is not None:
            entry["reason"] = reason
        elif "reason" in entry:
            del entry["reason"]

    def status(self, spec: JobSpec) -> Optional[str]:
        """The recorded status of ``spec``, or None if unknown."""
        entry = self.jobs.get(spec.spec_hash())
        return None if entry is None else entry.get("status")

    def counts(self) -> Dict[str, int]:
        """``{status: count}`` over every job (all statuses present)."""
        totals = {status: 0 for status in JOB_STATUSES}
        for key in sorted(self.jobs):
            status = self.jobs[key].get("status", "pending")
            totals[status] = totals.get(status, 0) + 1
        return totals

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready projection (sorted job keys)."""
        return {
            "schema": MANIFEST_SCHEMA_VERSION,
            "sweep": self.sweep,
            "salt": self.salt,
            "counts": self.counts(),
            "jobs": {key: self.jobs[key] for key in sorted(self.jobs)},
        }

    def save(self, path: str) -> str:
        """Atomically write the manifest to ``path``; returns the path."""
        directory = os.path.dirname(path) or "."
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=directory, prefix=".tmp-manifest-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(self.to_dict(), fh, sort_keys=True, indent=1)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    @classmethod
    def load(cls, path: str) -> "SweepManifest":
        """Read a manifest back; rejects a newer schema than this reader."""
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        schema = payload.get("schema")
        if schema is not None and schema > MANIFEST_SCHEMA_VERSION:
            raise ValueError(
                f"manifest schema {schema} is newer than supported "
                f"{MANIFEST_SCHEMA_VERSION}: {path}"
            )
        return cls(
            sweep=payload.get("sweep", ""),
            salt=payload.get("salt", ""),
            jobs=dict(payload.get("jobs", {})),
        )
