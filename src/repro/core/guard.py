"""The guard-time check.

SSTSP's second defence line (after uTESLA): a received timestamp whose
difference from the local clock exceeds a threshold ``delta`` is rejected.
Because two correct clocks cannot drift apart unboundedly within one
beacon period, a violation signals a replayed, delayed, or (internally)
forged beacon. The coarse phase uses a loose threshold, the fine phase a
tight one (paper section 3.3; parameter discussion in [7], [8]).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.obs.context import emit, observe_value


@dataclass
class GuardStats:
    """Accept/reject counters of one node's guard."""

    accepted: int = 0
    rejected: int = 0

    @property
    def total(self) -> int:
        return self.accepted + self.rejected


@dataclass
class GuardPolicy:
    """Guard-time acceptance test.

    Attributes
    ----------
    threshold_us:
        ``delta``: maximum tolerated ``|timestamp - local clock|``.
    node_id:
        Owning station, stamped onto emitted ``guard_reject`` events
        (None for anonymous / test policies).
    """

    threshold_us: float
    stats: GuardStats = field(default_factory=GuardStats)
    node_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.threshold_us <= 0:
            raise ValueError("guard threshold must be > 0")

    def check(self, est_timestamp: float, local_time: float) -> bool:
        """True when the beacon passes; counters updated either way."""
        diff = abs(est_timestamp - local_time)
        ok = diff <= self.threshold_us
        if ok:
            self.stats.accepted += 1
        else:
            self.stats.rejected += 1
            emit(
                "guard_reject",
                t_us=local_time,
                node=self.node_id,
                diff_us=diff,
                threshold_us=self.threshold_us,
            )
            observe_value("guard.reject_excess_us", diff - self.threshold_us,
                          node=self.node_id)
        return ok

    def margin(self, est_timestamp: float, local_time: float) -> float:
        """Slack before rejection (negative when it would be rejected)."""
        return self.threshold_us - abs(est_timestamp - local_time)
