"""Content-addressed on-disk result cache.

Entries are keyed by ``JobSpec.spec_hash(salt)`` where the salt carries
the package version plus a cache schema number: bumping either (a code
change that alters simulation results, or a change to what jobs return)
silently invalidates every stale entry — old files are simply never
addressed again. Values are arbitrary picklable job results (numpy-backed
traces included); writes go through a temp file + ``os.replace`` so a
crashed or concurrent writer can never leave a truncated entry behind.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from repro._version import __version__
from repro.sweep.spec import JobSpec

#: Bump when the *shape* of cached job results changes (fields added to a
#: result payload, units changed, ...) without a package version bump.
CACHE_SCHEMA_VERSION = 1

#: The invalidation salt mixed into every cache key.
CACHE_SALT = f"repro-{__version__}-schema{CACHE_SCHEMA_VERSION}"


@dataclass
class CacheStats:
    """Hit/miss counters over the life of one cache handle."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0


@dataclass
class ResultCache:
    """Pickle-backed content-addressed cache rooted at ``root``."""

    root: str
    salt: str = CACHE_SALT
    stats: CacheStats = field(default_factory=CacheStats)

    def path_for(self, spec: JobSpec) -> str:
        """Entry path: two-level fan-out keeps directories small."""
        digest = spec.spec_hash(self.salt)
        return os.path.join(self.root, digest[:2], f"{digest}.pkl")

    def get(self, spec: JobSpec) -> Tuple[bool, Optional[Any]]:
        """``(hit, value)`` for ``spec``; unreadable entries count as misses.

        A file that exists but cannot be unpickled — truncated by a
        crashed host, bit-rotted, or written by an incompatible pickle —
        is *deleted* and reported as a miss, so the orchestrator simply
        re-executes the job and overwrites the entry; a corrupt cache
        can degrade a sweep's speed but never its outcome.
        """
        path = self.path_for(spec)
        try:
            fh = open(path, "rb")
        except OSError:
            self.stats.misses += 1
            return False, None
        try:
            with fh:
                value = pickle.load(fh)
        except Exception:
            # Any unpickling failure means the entry is unusable; drop
            # it so the slot is rebuilt from a fresh execution.
            self.stats.corrupt += 1
            self.stats.misses += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return False, None
        self.stats.hits += 1
        return True, value

    def put(self, spec: JobSpec, value: Any) -> str:
        """Store ``value`` for ``spec`` atomically; returns the entry path."""
        path = self.path_for(spec)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".tmp-", suffix=".pkl"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.writes += 1
        return path
