"""Coarse synchronization phase (paper section 3.3).

A node joining the network scans beacons for several BPs *without*
transmitting, collects the offsets between received timestamps and its own
clock, eliminates biased offsets (threshold filter, optionally GESD, per
reference [7]), and applies the average of the survivors as a one-time
initial adjustment. The goal is only the *loose* synchronization uTESLA
needs (within half a beacon period); precision comes later from the
fine-grained phase.

The one-time application is an initialisation, not a runtime leap: the
node is not yet part of the synchronized network while in this phase, so
the no-discontinuity guarantee (which protects consumers of an already-
synchronized clock) does not apply yet.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.config import SstspConfig
from repro.obs.context import emit
from repro.security.outliers import robust_offset_average


class CoarseSynchronizer:
    """Offset collection and robust aggregation for one joining node."""

    def __init__(self, config: SstspConfig, node_id: Optional[int] = None) -> None:
        self._config = config
        self._node_id = node_id
        self._offsets: List[float] = []
        self._periods_scanned = 0
        self.samples_rejected = 0
        self.batches_retried = 0

    @property
    def samples_collected(self) -> int:
        """Raw offsets collected so far (before filtering)."""
        return len(self._offsets)

    @property
    def periods_scanned(self) -> int:
        """BPs spent scanning so far."""
        return self._periods_scanned

    def add_sample(self, offset_us: float) -> None:
        """Record one observed offset (estimated timestamp - own clock)."""
        self._offsets.append(float(offset_us))

    def tick_period(self) -> None:
        """Mark the end of one scanned BP."""
        self._periods_scanned += 1

    def try_finish(self) -> Optional[float]:
        """Return the initial offset to apply, or None to keep scanning.

        Finishes when ``coarse_min_samples`` offsets were collected, or
        when ``coarse_max_periods`` BPs elapsed with at least one sample.
        Returns None (keep scanning) if fewer than
        ``coarse_min_survivors`` offsets survive the bias filter —
        averaging a possibly-biased remnant is worse than another scan.
        """
        cfg = self._config
        enough = len(self._offsets) >= cfg.coarse_min_samples
        timed_out = self._periods_scanned >= cfg.coarse_max_periods and self._offsets
        if not (enough or timed_out):
            return None
        average, used = robust_offset_average(
            self._offsets,
            threshold=cfg.guard_coarse_us,
            use_gesd=cfg.coarse_use_gesd,
        )
        if used < cfg.coarse_min_survivors:
            # Too few trustworthy offsets: drop the batch and keep scanning.
            self.samples_rejected += len(self._offsets)
            self.batches_retried += 1
            emit(
                "coarse_retry",
                node=self._node_id,
                samples=len(self._offsets),
                survivors=used,
            )
            self._offsets.clear()
            self._periods_scanned = 0
            return None
        self.samples_rejected += len(self._offsets) - used
        # t_us deliberately absent: this layer sees offsets, not a clock.
        emit(
            "coarse_done",
            node=self._node_id,
            samples=len(self._offsets),
            survivors=used,
            offset_us=average,
        )
        return average
