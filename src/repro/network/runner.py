"""The per-BP network runner.

Each beacon period the runner:

1. applies churn events due this period (``REFERENCE_MARKER`` resolved to
   the current reference);
2. fires the attached fault injector's period-start hook (crashes,
   restarts, clock mutations, channel windows) and queries it for the
   period's stalled nodes and partition split;
3. asks every present, un-stalled node's protocol for a transmission
   intent and maps it to the true-time axis through that node's clocks;
4. resolves the beacon window with the carrier-sense contention cascade —
   per partition group when the network is split, so carrier sensing
   never leaks across a partition;
5. builds the winning beacon(s), pushes them through the lossy broadcast
   channel, and dispatches receptions with per-receiver
   timestamp-estimate jitter;
6. runs end-of-period hooks, records the metric sample, and fires the
   injector's period-end hook (expiring channel effects).

Rounds and churn are sequenced through the discrete-event kernel so that
other event sources (tests inject their own) interleave correctly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injector import FaultInjector

from repro.analysis.metrics import TraceRecorder, SyncTrace
from repro.mac.contention import ContentionResult, partition_domains, resolve_contention
from repro.obs.context import emit, span, work_lane
from repro.network.churn import ChurnApplier, ChurnSchedule
from repro.network.node import Node
from repro.phy.channel import BroadcastChannel
from repro.phy.params import PhyParams
from repro.protocols.base import RxContext
from repro.sim.engine import Simulator
from repro.sim.units import S

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RunnerParams:
    """Run-shape parameters.

    Attributes
    ----------
    beacon_period_us:
        ``BP``.
    periods:
        Number of beacon periods to simulate (period indices start at 1,
        aligning with uTESLA interval 1 at ``T_0 + BP``).
    beacon_airtime_slots:
        Airtime of this network's beacons (4 TSF / 7 SSTSP).
    sample_offset_fraction:
        Where inside each period the metric sample is taken (after the
        beacon exchange settles).
    keep_values:
        Retain the full per-node clock matrix in the trace (application
        evaluations consume it; costs 8 bytes x periods x nodes).
    """

    beacon_period_us: float = 0.1 * S
    periods: int = 1000
    beacon_airtime_slots: int = 4
    sample_offset_fraction: float = 0.9
    keep_values: bool = False

    def __post_init__(self) -> None:
        if self.beacon_period_us <= 0:
            raise ValueError("beacon_period_us must be > 0")
        if self.periods < 1:
            raise ValueError("periods must be >= 1")
        if not 0.0 < self.sample_offset_fraction < 1.0:
            raise ValueError("sample_offset_fraction must be in (0, 1)")


@dataclass
class RunResult:
    """Everything a finished run exposes."""

    trace: SyncTrace
    nodes: List[Node]
    channel: BroadcastChannel
    periods: int
    successful_beacons: int = 0
    contention_windows: int = 0
    events: List[str] = field(default_factory=list)


class NetworkRunner:
    """Drives one IBSS for a configured number of beacon periods."""

    def __init__(
        self,
        nodes: Sequence[Node],
        channel: BroadcastChannel,
        phy: PhyParams,
        params: RunnerParams,
        churn: Optional[ChurnSchedule] = None,
        injector: Optional["FaultInjector"] = None,
    ) -> None:
        ids = [node.node_id for node in nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids")
        self.nodes = list(nodes)
        self._by_id: Dict[int, Node] = {node.node_id: node for node in nodes}
        self.channel = channel
        self.phy = phy
        self.params = params
        self.churn = churn or ChurnSchedule()
        self.recorder = TraceRecorder(keep_values=params.keep_values)
        self._churn_applier = ChurnApplier(self.churn)
        self._events: List[str] = []
        self._beacon_successes = 0
        self._windows = 0
        self._last_beacon_true = 0.0
        self._last_valid_ref = -1
        self.injector = None
        if injector is not None:
            self.attach_injector(injector)

    def attach_injector(self, injector: "FaultInjector") -> None:
        """Bind a fault injector; its hooks run every period from now on."""
        injector.bind(self)
        self.injector = injector

    def set_churn(self, schedule: ChurnSchedule) -> None:
        """Replace the churn schedule (resets the marker FIFO)."""
        self.churn = schedule
        self._churn_applier = ChurnApplier(schedule)

    @property
    def _marker_left(self) -> List[int]:
        """Reference-marker FIFO (kept on the shared applier)."""
        return self._churn_applier.marker_left

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        """Simulate all periods and return the result bundle."""
        sim = Simulator()
        bp = self.params.beacon_period_us
        proto = self.nodes[0].protocol.protocol_name if self.nodes else "none"
        with work_lane(f"singlehop/{proto}"):
            for period in range(1, self.params.periods + 1):
                sim.schedule(period * bp, self._run_period, period)
            sim.run()
        return RunResult(
            trace=self.recorder.finalize(),
            nodes=self.nodes,
            channel=self.channel,
            periods=self.params.periods,
            successful_beacons=self._beacon_successes,
            contention_windows=self._windows,
            events=self._events,
        )

    def current_reference(self) -> int:
        """Node id of the station believing it is the reference (-1 if
        none / not an SSTSP network)."""
        for node in self.nodes:
            is_ref = getattr(node.protocol, "is_reference", None)
            if is_ref is not None and node.present and is_ref():
                return node.node_id
        return -1

    # ------------------------------------------------------------------
    # One period
    # ------------------------------------------------------------------

    def _run_period(self, period: int) -> None:
        with span("singlehop.period"):
            self._period_body(period)

    def _period_body(self, period: int) -> None:
        bp = self.params.beacon_period_us
        with span("singlehop.churn"):
            self._apply_churn(period)
        if self.injector is not None:
            self.injector.on_period_start(period)
            stalled = self.injector.stalled_ids(period)
            partition = self.injector.partition_groups(period)
        else:
            stalled = frozenset()
            partition = None
        # Stalled nodes are present (their clocks keep running and they
        # stay in the metric) but frozen: no tx, no rx, no hooks.
        active = [
            node
            for node in self.nodes
            if node.present and node.node_id not in stalled
        ]
        now = period * bp
        for node in active:
            node.protocol.on_period_time(period, node.hw.read(now))

        candidates = []
        for node in active:
            intent = node.protocol.begin_period(period)
            if intent is None:
                continue
            candidates.append((node.node_id, node.scheduled_true_time(intent)))

        # A partition splits carrier sensing as well as delivery: each
        # group resolves its own beacon window.
        domains = partition_domains(
            candidates, [node.node_id for node in active], partition
        )

        airtime = self.params.beacon_airtime_slots * self.phy.slot_time_us
        transmitted_ids = set()
        received_ids = set()
        winner_ids = set()
        success_starts = []
        for group_candidates, members in domains:
            if group_candidates:
                self._windows += 1
                with span("singlehop.contention"):
                    result = resolve_contention(
                        group_candidates, airtime, self.phy.cca_us
                    )
            else:
                result = ContentionResult()

            for tx in result.transmissions:
                transmitted_ids.update(tx.members)
                if not tx.success:
                    self.channel.record_collision(len(tx.members))

            success = result.first_success
            if success is None:
                continue
            winner_id = success.members[0]
            winner_ids.add(winner_id)
            success_starts.append(success.start_us)
            sender = self._by_id[winner_id]
            hw_tx = sender.hw.read(success.start_us)
            frame = sender.protocol.make_frame(hw_tx, period)
            self._beacon_successes += 1
            emit(
                "beacon_tx",
                t_us=success.start_us,
                node=winner_id,
                period=period,
                proto=sender.protocol.protocol_name,
            )
            pool = [nid for nid in members if nid != winner_id]
            with span("singlehop.broadcast"):
                delivered = self.channel.broadcast(
                    winner_id, pool, success.start_us, frame.size_bytes
                )
            arrival = success.end_us + self.phy.propagation_delay_us
            latency = (success.end_us - success.start_us) + self.phy.propagation_delay_us
            for rid in delivered:
                rnode = self._by_id[rid]
                est = (
                    frame.timestamp_us
                    + latency
                    + self.channel.sample_timestamp_error()
                )
                rx = RxContext(
                    true_time=arrival,
                    hw_time=rnode.hw.read(arrival),
                    est_timestamp=est,
                    period=period,
                )
                rnode.protocol.on_beacon(frame, rx)
                received_ids.add(rid)
                emit(
                    "beacon_rx",
                    t_us=arrival,
                    node=rid,
                    src=winner_id,
                    period=period,
                    proto=sender.protocol.protocol_name,
                )

        for node in active:
            node.protocol.end_period(
                period,
                heard_beacon=node.node_id in received_ids,
                transmitted=node.node_id in transmitted_ids,
                tx_success=node.node_id in winner_ids,
            )

        # Sample at a fixed phase relative to the beacon grid (see the
        # vector engine): emission instants drift against the nominal grid
        # at the timebase's pace error, and tying the sample phase to the
        # beacons keeps "0.9 BP after the last correction" true all run.
        if success_starts:
            self._last_beacon_true = min(success_starts)
        else:
            self._last_beacon_true += bp
        sample_time = (
            self._last_beacon_true + self.params.sample_offset_fraction * bp
        )
        values = []
        full = (
            np.full(len(self.nodes), np.nan) if self.params.keep_values else None
        )
        for index, node in enumerate(self.nodes):
            if not (
                node.present
                and node.include_in_metrics
                and node.protocol.is_synchronized()
            ):
                continue
            value = node.synchronized_time_at(sample_time)
            values.append(value)
            if full is not None:
                full[index] = value
        reference = self.current_reference()
        # Mirror SyncTrace.reference_changes(): only transitions between
        # two *valid* reference ids count (interregnums are not changes),
        # so `repro trace summary` matches the invariant evaluation.
        if reference >= 0:
            if 0 <= self._last_valid_ref != reference:
                emit(
                    "reference_change",
                    t_us=sample_time,
                    old_ref=self._last_valid_ref,
                    new_ref=reference,
                    period=period,
                )
            self._last_valid_ref = reference
        self.recorder.record(sample_time, values, reference, full_values=full)
        if self.injector is not None:
            self.injector.on_period_end(period)

    # ------------------------------------------------------------------
    # Churn
    # ------------------------------------------------------------------

    def _apply_churn(self, period: int) -> None:
        def is_present(node_id: int) -> Optional[bool]:
            node = self._by_id.get(node_id)
            return None if node is None else node.present

        t_us = period * self.params.beacon_period_us

        def leave(node_id: int) -> None:
            node = self._by_id[node_id]
            node.present = False
            node.protocol.on_leave(period)
            self._events.append(f"p{period}: node {node_id} left")
            emit("churn_leave", t_us=t_us, node=node_id, period=period)
            logger.info("churn: node %d left at period %d", node_id, period)

        def ret(node_id: int) -> None:
            node = self._by_id[node_id]
            node.present = True
            node.protocol.on_return(period)
            self._events.append(f"p{period}: node {node_id} returned")
            emit("churn_return", t_us=t_us, node=node_id, period=period)
            logger.info("churn: node %d returned at period %d", node_id, period)

        self._churn_applier.apply(
            period,
            current_reference=self.current_reference,
            is_present=is_present,
            leave=leave,
            ret=ret,
            exclude=self._attacker_squats_reference,
        )

    def _attacker_squats_reference(self, ref: int) -> bool:
        # The "reference" is an attacker squatting on the role; the churn
        # scenario removes legitimate stations only.
        node = self._by_id.get(ref)
        return node is not None and not node.include_in_metrics

    def _resolve_marker(self, node_id: int, action: str) -> Optional[int]:
        return self._churn_applier.resolve_marker(
            node_id,
            action,
            self.current_reference,
            exclude=self._attacker_squats_reference,
        )
