"""Vectorised TSF engine.

Per beacon period, one numpy pass over all stations computes each
contender's scheduled transmission instant on the true-time axis (its own
TBTT plus its backoff draw, through its own skewed timer); the shared
carrier-sense cascade resolves the window exactly as the reference lane
does; the winner's timestamp is then broadcast and the TSF adoption rule
(set timer forward iff the received time is later) applies as one masked
array update.

The cascade with skew-exact times matters: the fastest station's timer
head start is precisely the self-correcting mechanism that bounds TSF
desynchronisation at small N, and growing collision chains are the
pathology that unbounds it at large N (Fig. 1). A slot-quantised
"unique minimum" rule reproduces neither.

Supports the full section 5 scenario: churn and the Fig. 3 channel
attacker (who transmits with a lead and a fast-paced TBTT, so it keeps
the channel for the whole window).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.analysis.metrics import SyncTrace, TraceRecorder
from repro.fastlane.common import ChurnDriver, VectorState, resolve_window
from repro.network.churn import ChurnSchedule
from repro.network.ibss import ScenarioSpec
from repro.obs.context import count, work_lane
from repro.phy.params import TSF_BEACON_AIRTIME_SLOTS
from repro.security.attacks import AttackWindow


@dataclass
class VectorTsfResult:
    """Output of one vectorised TSF run."""

    trace: SyncTrace
    successful_beacons: int
    collisions: int
    events: List[str] = field(default_factory=list)


def run_tsf_vectorized(
    spec: ScenarioSpec, w: int = 30, keep_values: bool = False
) -> VectorTsfResult:
    """Run the spec's TSF scenario on the vector engine.

    ``keep_values`` retains the per-node clock matrix in the trace (used
    by the application-layer evaluations in :mod:`repro.apps`).
    """
    with work_lane("fastlane/tsf"):
        return _run_tsf_vectorized(spec, w, keep_values)


def _run_tsf_vectorized(
    spec: ScenarioSpec, w: int, keep_values: bool
) -> VectorTsfResult:
    has_attacker = spec.attacker is not None
    state = VectorState.from_spec(spec, extra_nodes=1 if has_attacker else 0)
    n = state.n
    attacker_idx = n - 1 if has_attacker else None
    window = (
        AttackWindow.from_seconds(
            spec.attacker.start_s, spec.attacker.end_s, spec.beacon_period_us
        )
        if has_attacker
        else None
    )

    bp = spec.beacon_period_us
    slot_time = spec.phy.slot_time_us
    airtime = TSF_BEACON_AIRTIME_SLOTS * slot_time
    latency = airtime + spec.phy.propagation_delay_us
    per = spec.phy.packet_error_rate
    jitter = spec.phy.timestamp_jitter_us

    # TSF timer of node i at true time t: rates[i] * t + offsets[i] + adj[i]
    adj = np.zeros(n)
    slots_rng = state.rngs.get("slots")
    channel_rng = state.rngs.get("channel")
    churn = ChurnDriver(
        ChurnSchedule.paper_default(
            list(range(spec.n)), spec.periods, state.rngs.get("churn"), bp
        )
        if spec.churn == "paper"
        else None
    )

    recorder = TraceRecorder(keep_values=keep_values)
    metric_mask = np.ones(n, dtype=bool)
    if attacker_idx is not None:
        metric_mask[attacker_idx] = False

    successes = 0
    collisions = 0
    hw_buf = np.empty(n)

    for period in range(1, spec.periods + 1):
        churn.apply(period, state.present, lambda: -1)
        present = state.present

        attack_active = window is not None and window.active(period)
        # Scheduled transmission instants on the true-time axis: the node's
        # timer reads (period * BP + slot * aSlotTime) at
        # (local - adj - offset) / rate.
        count("mac.slot_draws", n)
        slots = slots_rng.integers(0, w + 1, size=n).astype(np.float64)
        contend = present.copy()
        local_targets = period * bp + slots * slot_time
        if attack_active:
            boost = (
                min(period, window.end_period - 1) - window.start_period
            ) * spec.attacker.pace_boost_us_per_period
            lead = spec.attacker.lead_slots * slot_time
            local_targets[attacker_idx] = period * bp - boost - lead
        tx_times = (local_targets - adj - state.offsets) / state.rates

        ids = np.flatnonzero(contend)
        winner, tx_start, n_coll = resolve_window(
            ids, tx_times[ids], airtime, spec.phy.cca_us
        )
        collisions += n_coll

        if winner is not None:
            successes += 1
            timestamp = float(
                np.floor(state.rates[winner] * tx_start + state.offsets[winner] + adj[winner])
            )
            if attack_active and winner == attacker_idx:
                timestamp -= spec.attacker.error_offset_us
            arrival = tx_start + latency
            state.hw_at(arrival, out=hw_buf)
            timers = hw_buf + adj
            count("phy.ts_jitter_draw", n)
            est = (
                timestamp
                + latency
                + channel_rng.uniform(-jitter, jitter, size=n)
            )
            receive = present.copy()
            receive[winner] = False
            count("phy.delivery_attempt", int(receive.sum()))
            if per > 0.0:
                if spec.phy.loss_model == "per_transmission":
                    count("phy.per_draw")
                    if channel_rng.random() < per:
                        receive[:] = False
                else:
                    count("phy.per_draw", n)
                    receive &= channel_rng.random(n) >= per
            if attack_active and winner == attacker_idx:
                # the attacker does not resynchronise to anyone
                pass
            adopt = receive & (est > timers)
            adj[adopt] += est[adopt] - timers[adopt]

        sample_time = (period + 0.9) * bp
        state.hw_at(sample_time, out=hw_buf)
        values = hw_buf + adj
        mask = present & metric_mask
        full = np.where(mask, values, np.nan) if keep_values else None
        recorder.record(sample_time, values[mask], -1, full_values=full)

    return VectorTsfResult(
        trace=recorder.finalize(),
        successful_beacons=successes,
        collisions=collisions,
        events=churn.events,
    )
