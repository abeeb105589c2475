"""Vectorised SSTSP engine.

The reference node is a scalar; *receiver* state is arrays: the active
adjusted-clock segment ``(k, b)``, the pending (unauthenticated) sample,
the two newest authenticated samples, silence counters, and the coarse
re-acquisition accumulators for returning nodes. One beacon period is a
handful of fused numpy expressions over all nodes.

Crypto decisions are the modeled backend's logic inlined: honest and
insider beacons carry genuine chain material (accepted), the interval
safety check and guard time are evaluated per receiver, and delayed
authentication is the one-period sample promotion (with the lost-beacon
key-derivation rule: any pending interval older than the current beacon
releases).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.analysis.metrics import SyncTrace, TraceRecorder
from repro.core.config import SstspConfig
from repro.fastlane.common import ChurnDriver, VectorState, resolve_window
from repro.network.churn import ChurnSchedule
from repro.network.ibss import ScenarioSpec
from repro.obs.context import count, work_lane
from repro.phy.params import SSTSP_BEACON_AIRTIME_SLOTS
from repro.security.attacks import AttackWindow


@dataclass
class VectorSstspResult:
    """Output of one vectorised SSTSP run."""

    trace: SyncTrace
    successful_beacons: int
    reference_changes: int
    recoveries: int = 0
    events: List[str] = field(default_factory=list)


class _VectorSstsp:
    def __init__(
        self,
        spec: ScenarioSpec,
        config: Optional[SstspConfig],
        keep_values: bool = False,
    ) -> None:
        self._keep_values = keep_values
        self.spec = spec
        has_attacker = spec.attacker is not None
        self.state = VectorState.from_spec(spec, extra_nodes=1 if has_attacker else 0)
        n = self.state.n
        self.n = n
        self.attacker_idx = n - 1 if has_attacker else None
        self.window = (
            AttackWindow.from_seconds(
                spec.attacker.start_s, spec.attacker.end_s, spec.beacon_period_us
            )
            if has_attacker
            else None
        )
        if config is None:
            config = SstspConfig(
                beacon_period_us=spec.beacon_period_us,
                slot_time_us=spec.phy.slot_time_us,
                rx_latency_us=(
                    SSTSP_BEACON_AIRTIME_SLOTS * spec.phy.slot_time_us
                    + spec.phy.propagation_delay_us
                ),
            )
        self.config = config

        # Adjusted clocks: c_i(hw) = k_i * hw + b_i.
        self.k = np.ones(n)
        self.b = np.zeros(n)
        # Pending (unauthenticated) observation per node.
        self.pend_j = np.full(n, -1, dtype=np.int64)
        self.pend_t = np.zeros(n)
        self.pend_ts = np.zeros(n)
        # Two newest authenticated samples per node.
        self.j1 = np.full(n, -1, dtype=np.int64)
        self.t1 = np.zeros(n)
        self.ts1 = np.zeros(n)
        self.j2 = np.full(n, -1, dtype=np.int64)
        self.t2 = np.zeros(n)
        self.ts2 = np.zeros(n)
        self.silent = np.full(n, config.l, dtype=np.int64)
        self.last_ref = np.full(n, -1, dtype=np.int64)
        # Coarse re-acquisition (returning nodes / recovery extension).
        self.in_coarse = np.zeros(n, dtype=bool)
        self.coarse_sum = np.zeros(n)
        self.coarse_cnt = np.zeros(n, dtype=np.int64)
        self.consecutive_rejections = np.zeros(n, dtype=np.int64)
        self.recoveries = 0

        self.ref: Optional[int] = None
        self.reference_changes = 0
        self.successes = 0

        self.slots_rng = self.state.rngs.get("slots")
        self.channel_rng = self.state.rngs.get("channel")
        self.churn = ChurnDriver(
            ChurnSchedule.paper_default(
                list(range(spec.n)), spec.periods, self.state.rngs.get("churn"),
                spec.beacon_period_us,
            )
            if spec.churn == "paper"
            else None
        )
        self.metric_mask = np.ones(n, dtype=bool)
        if self.attacker_idx is not None:
            self.metric_mask[self.attacker_idx] = False
        self.recorder = TraceRecorder(keep_values=keep_values)
        self._hw_buf = np.empty(n)
        self._last_beacon_true = 0.0

    # -- churn hooks ----------------------------------------------------

    def _churn_reference(self) -> int:
        """Reference id for REFERENCE_MARKER churn; the attacker is not a
        legitimate station the scenario can remove."""
        if self.ref is None or self.ref == self.attacker_idx:
            return -1
        return self.ref

    def _on_leave(self, node: int) -> None:
        if self.ref == node:
            self.ref = None

    def _on_return(self, node: int) -> None:
        self.in_coarse[node] = True
        self.coarse_sum[node] = 0.0
        self.coarse_cnt[node] = 0
        self.pend_j[node] = -1
        self.j1[node] = -1
        self.j2[node] = -1
        self.silent[node] = 0
        self.last_ref[node] = -1

    # -- one period -------------------------------------------------------

    def run(self) -> VectorSstspResult:
        cfg = self.config
        spec = self.spec
        bp = cfg.beacon_period_us
        for period in range(1, spec.periods + 1):
            self.churn.apply(
                period,
                self.state.present,
                self._churn_reference,
                on_leave=self._on_leave,
                on_return=self._on_return,
            )
            present = self.state.present
            if self.ref is not None and not present[self.ref]:
                self.ref = None

            attack_active = self.window is not None and self.window.active(period)
            winner, timestamp, tx_true = self._transmitter(period, attack_active)
            if winner is not None:
                self.successes += 1
                self._deliver(period, winner, timestamp, tx_true, attack_active)
                self._last_beacon_true = tx_true
            else:
                eligible = present & ~self.in_coarse
                self.silent[eligible] += 1
                self._last_beacon_true += bp

            # Sample at a fixed phase relative to the *beacon* grid, not the
            # nominal grid: the reference's emission instants drift against
            # nominal at its pace error (~1e-4), so nominal-grid sampling
            # would sweep from 0.9 to 1.9 BP after the last correction over
            # a long run - an artifact, not a protocol property.
            sample_time = self._last_beacon_true + 0.9 * bp
            self.state.hw_at(sample_time, out=self._hw_buf)
            values = self.k * self._hw_buf + self.b
            if attack_active and self.attacker_idx is not None:
                # the attacker's public clock is its claimed (shaved) one;
                # it is excluded from metrics anyway
                values[self.attacker_idx] -= self._shave_total(period)
            # re-acquiring (coarse) nodes are not yet synchronized members
            mask = present & self.metric_mask & ~self.in_coarse
            full = np.where(mask, values, np.nan) if self._keep_values else None
            self.recorder.record(
                sample_time,
                values[mask],
                self.ref if self.ref is not None else -1,
                full_values=full,
            )
        return VectorSstspResult(
            trace=self.recorder.finalize(),
            successful_beacons=self.successes,
            reference_changes=self.reference_changes,
            recoveries=self.recoveries,
            events=self.churn.events,
        )

    # -- helpers ----------------------------------------------------------

    def _shave_total(self, period: int) -> float:
        window = self.window
        if window is None or period < window.start_period:
            return 0.0
        last = min(period, window.end_period - 1)
        return (last - window.start_period) * self.spec.attacker.shave_per_period_us

    def _adjusted_to_true(self, node: int, adjusted_value: float) -> float:
        hw = (adjusted_value - self.b[node]) / self.k[node]
        return (hw - self.state.offsets[node]) / self.state.rates[node]

    def _transmitter(self, period: int, attack_active: bool):
        """Pick this period's transmitter; returns (node, timestamp, tx_true)."""
        cfg = self.config
        nominal = cfg.t0_us + period * cfg.beacon_period_us
        if (
            self.window is not None
            and period == self.window.end_period
            and self.attacker_idx is not None
        ):
            # at window close the attacker rejoins as a listener (coarse
            # re-acquisition): correct whether or not the attack held
            self._on_return(self.attacker_idx)
            if self.ref == self.attacker_idx:
                self.ref = None
        # Candidates: the reference (no delay) plus any synchronized node
        # whose silence counter expired (election) - plus, while attacking,
        # the insider with its lead. All resolved by the shared carrier-
        # sense cascade on skew-exact times: at large N that skew is what
        # lets an election conclude, and it is also what lets honest nodes
        # retake the channel from an attacker whose claimed timeline has
        # receded after guard rejections.
        contenders = self.state.present & ~self.in_coarse & (self.silent >= cfg.l)
        if self.ref is not None:
            contenders[self.ref] = False
        count("mac.slot_draws", self.n)
        slots = self.slots_rng.integers(0, cfg.w + 1, size=self.n).astype(np.float64)
        local = nominal + slots * cfg.slot_time_us
        if self.ref is not None and self.state.present[self.ref]:
            contenders[self.ref] = True
            local[self.ref] = nominal
        if attack_active and self.state.present[self.attacker_idx]:
            attacker = self.attacker_idx
            lead = self.spec.attacker.lead_slots * cfg.slot_time_us
            contenders[attacker] = True
            # scheduled on the *claimed* (shaved) timeline
            local[attacker] = nominal - lead + self._shave_total(period)
        ids = np.flatnonzero(contenders)
        if ids.size == 0:
            return None, 0.0, 0.0
        hw_targets = (local[ids] - self.b[ids]) / self.k[ids]
        tx_times = (hw_targets - self.state.offsets[ids]) / self.state.rates[ids]
        airtime = cfg.rx_latency_us  # airtime + t_p; close enough for busy time
        winner, tx_start, _n_coll = resolve_window(
            ids, tx_times, airtime, self.spec.phy.cca_us
        )
        if winner is None:
            return None, 0.0, 0.0
        hw_tx = self.state.rates[winner] * tx_start + self.state.offsets[winner]
        if winner != self.ref:
            self.ref = winner
            self.reference_changes += 1
            # A new reference free-runs at a hardware-plausible pace: clamp
            # away any transient slewing slope (continuously at hw_tx).
            clamp = cfg.reference_pace_clamp
            k_old = float(self.k[winner])
            k_new = min(max(k_old, 1.0 - clamp), 1.0 + clamp)
            if k_new != k_old:
                c_now = k_old * hw_tx + self.b[winner]
                self.k[winner] = k_new
                self.b[winner] = c_now - k_new * hw_tx
        # timestamp: the winner's adjusted clock at its actual tx start
        # (for the attacking insider: its claimed, shaved clock)
        timestamp = float(self.k[winner] * hw_tx + self.b[winner])
        if attack_active and winner == self.attacker_idx:
            timestamp -= self._shave_total(period)
        return winner, timestamp, tx_start

    def _deliver(
        self,
        period: int,
        winner: int,
        timestamp: float,
        tx_true: float,
        attack_active: bool = False,
    ) -> None:
        cfg = self.config
        spec = self.spec
        n = self.n
        latency = cfg.rx_latency_us
        arrival = tx_true + latency
        hw = self.state.hw_at(arrival)
        local = self.k * hw + self.b

        delivered = self.state.present.copy()
        delivered[winner] = False
        per = spec.phy.packet_error_rate
        count("phy.delivery_attempt", int(delivered.sum()))
        if per > 0.0:
            if spec.phy.loss_model == "per_transmission":
                count("phy.per_draw")
                if self.channel_rng.random() < per:
                    delivered[:] = False
            else:
                count("phy.per_draw", n)
                delivered &= self.channel_rng.random(n) >= per
        jitter = spec.phy.timestamp_jitter_us
        count("phy.ts_jitter_draw", n)
        est = timestamp + latency + self.channel_rng.uniform(-jitter, jitter, size=n)

        # uTESLA interval safety check on each receiver's adjusted clock.
        interval_ok = (
            np.rint((local - cfg.t0_us) / cfg.beacon_period_us).astype(np.int64)
            == period
        )
        guard_ok = np.abs(est - local) <= cfg.guard_fine_us

        # Coarse re-acquisition: returning nodes average raw offsets.
        coarse_rx = delivered & self.in_coarse
        if coarse_rx.any():
            offsets = est - local
            self.coarse_sum[coarse_rx] += offsets[coarse_rx]
            self.coarse_cnt[coarse_rx] += 1
            done = coarse_rx & (self.coarse_cnt >= cfg.coarse_min_samples)
            if done.any():
                self.b[done] += self.coarse_sum[done] / self.coarse_cnt[done]
                self.in_coarse[done] = False
                self.silent[done] = 0

        valid = delivered & ~self.in_coarse & interval_ok & guard_ok
        if attack_active and self.attacker_idx is not None:
            valid[self.attacker_idx] = False  # attacker ignores beacons
        # Optional recovery extension: persistent guard rejections send a
        # node back to the coarse phase (see SstspConfig).
        threshold = cfg.recovery_rejection_threshold
        if threshold is not None:
            rejected = delivered & ~self.in_coarse & interval_ok & ~guard_ok
            self.consecutive_rejections[rejected] += 1
            self.consecutive_rejections[valid] = 0
            recover = rejected & (self.consecutive_rejections >= threshold)
            if recover.any():
                self.recoveries += int(recover.sum())
                self.consecutive_rejections[recover] = 0
                for node in np.flatnonzero(recover):
                    self._on_return(int(node))  # same reset as a re-joiner
        self.silent[valid] = 0
        missed = self.state.present & ~self.in_coarse & ~valid
        missed[winner] = False  # the transmitter does not count itself silent
        self.silent[missed] += 1

        # Reference change: discard samples learned from the old reference.
        changed = valid & (self.last_ref != winner)
        if changed.any():
            self.pend_j[changed] = -1
            self.j1[changed] = -1
            self.j2[changed] = -1
            self.last_ref[changed] = winner

        # Delayed authentication: any pending interval < current releases.
        release = valid & (self.pend_j >= 0) & (self.pend_j < period)
        if release.any():
            self.j2[release] = self.j1[release]
            self.t2[release] = self.t1[release]
            self.ts2[release] = self.ts1[release]
            self.j1[release] = self.pend_j[release]
            self.t1[release] = self.pend_t[release]
            self.ts1[release] = self.pend_ts[release]
        self.pend_j[valid] = period
        self.pend_t[valid] = hw[valid]
        self.pend_ts[valid] = est[valid]

        # The (k, b) update of equations (2)-(5), fully vectorised.
        can_adjust = (
            valid
            & (self.j1 >= 0)
            & (self.j2 >= 0)
            & (period - self.j1 <= cfg.max_sample_age_periods)
            & (self.j1 - self.j2 <= cfg.max_pair_gap_periods)
        )
        can_adjust[winner] = False
        if not can_adjust.any():
            return
        d_ts = self.ts1 - self.ts2
        d_hw = self.t1 - self.t2
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = d_hw / d_ts
            target = cfg.t0_us + (period + cfg.m) * cfg.beacon_period_us + latency
            t_target = self.t1 + rate * (target - self.ts1)
            c_now = self.k * hw + self.b
            k_new = (target - c_now) / (t_target - hw)
            b_new = c_now - k_new * hw
        ok = (
            can_adjust
            & (d_ts > 0)
            & (d_hw > 0)
            & (t_target > hw)
            & (np.abs(k_new - 1.0) <= cfg.k_clamp)
            & np.isfinite(k_new)
        )
        if ok.any():
            self.k[ok] = k_new[ok]
            self.b[ok] = b_new[ok]


def run_sstsp_vectorized(
    spec: ScenarioSpec,
    config: Optional[SstspConfig] = None,
    keep_values: bool = False,
) -> VectorSstspResult:
    """Run the spec's SSTSP scenario on the vector engine.

    ``keep_values`` retains the per-node clock matrix in the trace (used
    by the application-layer evaluations in :mod:`repro.apps`).
    """
    with work_lane("fastlane/sstsp"):
        return _VectorSstsp(spec, config, keep_values=keep_values).run()
