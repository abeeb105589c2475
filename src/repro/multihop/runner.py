"""The multi-hop harness, as a client of the shared kernel.

This module is protocol-agnostic: it drives any registered
:class:`~repro.protocols.multihop_base.MultiHopProtocol` (selected by
``MultiHopSpec.protocol``) over a spatial radio topology, owning only
kernel concerns:

* **clocks** — every station is a :class:`~repro.network.node.Node`
  holding a :class:`~repro.clocks.oscillator.HardwareClock` plus the
  :class:`~repro.clocks.chain.ClockChain` conversion between true /
  hardware / adjusted time;
* **MAC** — spatial carrier sensing runs through
  :func:`repro.mac.contention.resolve_neighborhood` (partition faults
  restrict each sender's hearing set);
* **PHY** — delivery runs through
  :class:`~repro.phy.channel.SpatialBroadcastChannel`, gaining the
  shared loss models (per-receiver / per-transmission /
  Gilbert-Elliott), jam windows, loss-burst overrides and per-link
  error overrides. Beacon size and airtime come from the *protocol's*
  frame declaration, not from any hardcoded constant;
* **churn** — ``leave_at`` / ``return_at`` and an optional
  :class:`~repro.network.churn.ChurnSchedule` (reference markers
  included) apply through the shared
  :class:`~repro.network.churn.ChurnApplier`;
* **faults** — a :class:`~repro.faults.injector.FaultInjector` attaches
  exactly as on the single-hop runner (period hooks, stalls,
  partitions, crashes, clock mutations);
* **metrics** — samples are recorded with the shared
  :class:`~repro.analysis.metrics.TraceRecorder`.

Everything synchronization-specific — who transmits when, what a frame
carries, how receivers filter and apply it, who takes over as root —
lives in the protocol implementation
(:mod:`repro.protocols.multihop_sstsp` is the paper's scheme, moved
verbatim out of this file; ``multihop_beaconless`` and ``multihop_coop``
are the related-work competitors).

If the root leaves, the harness runs the orphan election through the
protocol's takeover hooks; the winner becomes the new root.

A *complete* topology is the degenerate case where the spatial model
adds nothing over the single-hop IBSS; when the protocol declares a
single-hop counterpart (:meth:`MultiHopProtocol.degenerate_runner`),
:meth:`MultiHopRunner.run` delegates to that reference
:class:`~repro.network.runner.NetworkRunner`, so complete-graph
multi-hop specs reproduce the single-hop lane's election and adjustment
decisions exactly (see ``tests/test_differential_parity.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.analysis.metrics import SyncTrace, TraceRecorder
from repro.clocks.adjusted import AdjustedClock
from repro.clocks.chain import ClockChain
from repro.clocks.population import ClockPopulation
from repro.core.config import SstspConfig
from repro.mac.contention import resolve_neighborhood
from repro.multihop.topology import Topology
from repro.network.churn import ChurnApplier, ChurnEvent, ChurnSchedule
from repro.network.ibss import ScenarioSpec
from repro.network.node import Node
from repro.network.runner import NetworkRunner, RunnerParams
from repro.obs.context import active, count, emit, span, work_lane
from repro.phy.channel import SpatialBroadcastChannel
from repro.phy.params import PhyParams
from repro.protocols.multihop_base import (
    MultiHopContext,
    MultiHopFrame,
    MultiHopProtocol,
    resolve_multihop_protocol,
)
from repro.sim.rng import RngRegistry
from repro.sim.units import S

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injector import FaultInjector

_LOSS_MODELS = ("per_receiver", "per_transmission", "gilbert_elliott")


@dataclass(frozen=True)
class MultiHopSpec:
    """Scenario description for one multi-hop run."""

    topology: Topology
    seed: int = 1
    duration_s: float = 60.0
    beacon_period_us: float = 0.1 * S
    drift_ppm: float = 100.0
    initial_offset_us: float = 0.0
    root: int = 0
    #: Which registered multi-hop protocol drives the stations (see
    #: :data:`repro.protocols.multihop_base.MULTIHOP_PROTOCOLS`).
    protocol: str = "sstsp"
    #: Beacon-window slots reserved per hop level. Must exceed the beacon
    #: airtime or adjacent hop segments overlap on the air and collide at
    #: every station hearing both hops.
    hop_stride_slots: int = 16
    slot_time_us: float = 9.0
    #: Airtime of one beacon in slots. ``None`` (the default) resolves to
    #: the protocol's own frame declaration (7 slots for secure SSTSP
    #: beacons, smaller for the lighter competitor schemes).
    beacon_airtime_slots: Optional[int] = None
    propagation_delay_us: float = 1.0
    timestamp_jitter_us: float = 2.0
    packet_error_rate: float = 1e-4
    #: Probability a relay-eligible node transmits in a given BP. Dense
    #: neighbourhoods benefit from thinning (fewer same-segment collisions).
    relay_probability: float = 1.0
    #: Multi-hop default is deeper filtering than single-hop (m = 4): each
    #: hop tracks a *tracking* clock, so the estimator's noise gain
    #: compounds per hop; small m amplifies it into instability.
    m: int = 4
    l: int = 2
    #: Guard time grows with the sender's hop: per-hop error accumulates
    #: roughly linearly, so a flat guard would cut off deep hops.
    guard_fine_us: float = 500.0
    guard_per_hop_us: float = 100.0
    #: After this many silent periods a node discards its synchronization
    #: state entirely and re-acquires from the first beacon it hears (the
    #: multi-hop analogue of the recovery extension).
    resync_after_periods: int = 10
    k_clamp: float = 5e-3
    #: Shared channel loss model (see :class:`repro.phy.params.PhyParams`).
    loss_model: str = "per_receiver"
    #: Optional churn schedule, merged with ``leave_at`` / ``return_at``
    #: (reference markers resolve to the current root).
    churn: Optional[ChurnSchedule] = None

    def __post_init__(self) -> None:
        if not 0 <= self.root < self.topology.n:
            raise ValueError("root must be a topology node")
        if not 0.0 < self.relay_probability <= 1.0:
            raise ValueError("relay_probability must be in (0, 1]")
        if self.hop_stride_slots < 1:
            raise ValueError("hop_stride_slots must be >= 1")
        # Resolving also validates the protocol name.
        protocol_cls = resolve_multihop_protocol(self.protocol)
        if self.beacon_airtime_slots is None:
            object.__setattr__(
                self, "beacon_airtime_slots", protocol_cls.beacon_airtime_slots
            )
        if self.hop_stride_slots <= self.airtime_slots:
            raise ValueError(
                "hop_stride_slots must exceed beacon_airtime_slots: adjacent "
                "hop segments would overlap on the air"
            )
        if self.loss_model not in _LOSS_MODELS:
            raise ValueError(f"unknown loss model {self.loss_model!r}")

    @property
    def airtime_slots(self) -> int:
        """``beacon_airtime_slots`` after protocol-default resolution
        (``__post_init__`` guarantees it is set)."""
        value = self.beacon_airtime_slots
        assert value is not None
        return value

    @property
    def periods(self) -> int:
        return int(round(self.duration_s * S / self.beacon_period_us))


class RelayNode(Node):
    """A multi-hop station: a kernel :class:`Node` whose protocol is a
    :class:`MultiHopProtocol`, with the relay fields surfaced for
    tests/diagnostics."""

    __slots__ = ()

    @property
    def hop(self) -> Optional[int]:
        return self.protocol.hop

    @property
    def upstream(self) -> Optional[int]:
        return self.protocol.upstream

    @property
    def clock(self) -> AdjustedClock:
        return self.protocol.clock


@dataclass
class MultiHopResult:
    """Outcome of one multi-hop run."""

    trace: SyncTrace
    per_hop_error_us: Dict[int, float]
    hop_of: Dict[int, int]
    root: int
    root_changes: int
    beacons_sent: int
    collisions_at_receivers: int

    def max_hop(self) -> int:
        """Deepest hop distance present in the final tree."""
        return max(self.hop_of.values()) if self.hop_of else 0


def degenerate_scenario(spec: MultiHopSpec) -> Tuple[ScenarioSpec, SstspConfig]:
    """Translate a complete-graph multi-hop spec to the single-hop SSTSP
    lane (kept as a module function for the differential-parity tests;
    the translation itself lives on the protocol —
    :meth:`~repro.protocols.multihop_sstsp.SstspRelayProtocol.single_hop_lane`)."""
    from repro.protocols.multihop_sstsp import SstspRelayProtocol

    return SstspRelayProtocol.single_hop_lane(spec)


class MultiHopRunner:
    """Drives one multi-hop network on the shared kernel."""

    def __init__(self, spec: MultiHopSpec) -> None:
        self.spec = spec
        self.n = spec.topology.n
        self._protocol_cls = resolve_multihop_protocol(spec.protocol)
        self.protocol_name = self._protocol_cls.protocol_name
        self.rngs = RngRegistry(spec.seed)
        population = ClockPopulation.sample(
            self.n,
            self.rngs.get("clocks"),
            drift_ppm=spec.drift_ppm,
            initial_offset_us=spec.initial_offset_us,
        )
        self._slot_rng = self.rngs.get("slots")
        self.phy = PhyParams(
            slot_time_us=spec.slot_time_us,
            beacon_airtime_slots=spec.airtime_slots,
            propagation_delay_us=spec.propagation_delay_us,
            timestamp_jitter_us=spec.timestamp_jitter_us,
            packet_error_rate=spec.packet_error_rate,
            loss_model=spec.loss_model,
        )
        self.channel: SpatialBroadcastChannel = SpatialBroadcastChannel(
            self.phy, self.rngs.get("channel"), spec.topology
        )
        self.params = RunnerParams(
            beacon_period_us=spec.beacon_period_us,
            periods=spec.periods,
            beacon_airtime_slots=spec.airtime_slots,
        )
        chains = [
            ClockChain(population.clock(i)) for i in range(self.n)
        ]
        stations = self._protocol_cls.build(spec, chains)
        self.nodes: List[Node] = []
        for i in range(self.n):
            node = RelayNode(i, chains[i].hw)
            node.protocol = stations[i]
            self.nodes.append(node)
        self._by_id: Dict[int, Node] = {node.node_id: node for node in self.nodes}
        # The station services close over the id table, not the runner:
        # a runner -> ctx -> runner cycle would keep every finished run
        # alive until a cyclic GC pass.
        by_id = self._by_id
        self.ctx = MultiHopContext(
            spec,
            self._slot_rng,
            rx_latency_us=(
                spec.airtime_slots * spec.slot_time_us
                + spec.propagation_delay_us
            ),
            sample_timestamp_error=self.channel.sample_timestamp_error,
            state_of=lambda node_id: by_id[node_id].protocol,
            is_present=lambda node_id: by_id[node_id].present,
        )
        self.root = spec.root
        self._state(self.root).hop = 0
        self._last_valid_root = spec.root
        self.root_changes = 0
        self.beacons_sent = 0
        self.collisions = 0
        self.recorder = TraceRecorder()
        # Second-half per-hop samples: one (hop, error vs root) array pair
        # per period, over every sampled station.
        self._hop_samples: List[Tuple[np.ndarray, np.ndarray]] = []
        #: scheduled departures: period -> list of nodes (tests/examples use
        #: this to exercise root failover)
        self.leave_at: Dict[int, List[int]] = {}
        self.return_at: Dict[int, List[int]] = {}
        self._events: List[str] = []
        self.injector: Optional["FaultInjector"] = None
        self._churn_applier: Optional[ChurnApplier] = None

    # ------------------------------------------------------------------
    # Kernel surface (shared with NetworkRunner)
    # ------------------------------------------------------------------

    def attach_injector(self, injector: "FaultInjector") -> None:
        """Bind a fault injector; its hooks run every period from now on."""
        injector.bind(self)
        self.injector = injector

    def current_reference(self) -> int:
        """The current root (-1 while orphaned) - the reference role of
        this lane, consulted by churn markers and crash bookkeeping."""
        if self.root >= 0 and self._by_id[self.root].present:
            return self.root
        return -1

    def _state(self, node_id: int) -> MultiHopProtocol:
        return self._by_id[node_id].protocol

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> MultiHopResult:
        """Simulate all periods; returns the result bundle."""
        spec = self.spec
        if self.n >= 2 and spec.topology.is_complete():
            inner = self._protocol_cls.degenerate_runner(spec)
            if inner is not None:
                return self._run_degenerate(inner)
        self._churn_applier = ChurnApplier(self._merged_churn())
        with work_lane(f"multihop/{self.protocol_name}"):
            for period in range(1, spec.periods + 1):
                self._run_period(period)
        per_hop: Dict[int, float] = {}
        if self._hop_samples:
            hops = np.concatenate([sample[0] for sample in self._hop_samples])
            errors = np.concatenate([sample[1] for sample in self._hop_samples])
            below = hops > 0  # the root itself and unreachable stations drop
            hops = hops[below]
            errors = np.abs(errors[below])
            for hop in np.unique(hops).tolist():
                per_hop[hop] = float(np.median(errors[hops == hop]))
        hop_of = (
            spec.topology.hop_distances(self.root) if self.root >= 0 else {}
        )
        return MultiHopResult(
            trace=self.recorder.finalize(),
            per_hop_error_us=per_hop,
            hop_of=hop_of,
            root=self.root,
            root_changes=self.root_changes,
            beacons_sent=self.beacons_sent,
            collisions_at_receivers=self.collisions,
        )

    def _run_period(self, period: int) -> None:
        with span("multihop.period"):
            with span("multihop.churn"):
                self._apply_churn(period)
            if self.injector is not None:
                self.injector.on_period_start(period)
                stalled = self.injector.stalled_ids(period)
                partition = self.injector.partition_groups(period)
            else:
                stalled: frozenset = frozenset()
                partition = None
            # A crashed root orphans the tree exactly like a departed one.
            if self.root >= 0 and not self._by_id[self.root].present:
                self.root = -1
            with span("multihop.collect"):
                transmissions = self._collect_transmissions(
                    period, stalled, partition
                )
            with span("multihop.receptions"):
                receptions = self._resolve_receptions(
                    transmissions, stalled, partition
                )
            with span("multihop.process"):
                accepted = self._process_receptions(period, receptions)
            with span("multihop.end_period"):
                self._end_period(period, accepted, stalled)
            with span("multihop.sample"):
                self._sample_metrics(period)
            if self.injector is not None:
                self.injector.on_period_end(period)

    # ------------------------------------------------------------------
    # Degenerate (complete-graph) delegation
    # ------------------------------------------------------------------

    def _run_degenerate(self, inner: NetworkRunner) -> MultiHopResult:
        """Run a complete-graph spec on the protocol's single-hop lane."""
        spec = self.spec
        # Keep the full clock matrix: per-hop errors are reconstructed
        # from it after the run.
        inner.params = replace(inner.params, keep_values=True)
        inner.recorder = TraceRecorder(keep_values=True)
        merged = self._merged_churn()
        if len(merged):
            inner.set_churn(merged)
        if self.injector is not None:
            inner.attach_injector(self.injector)
        result = inner.run()
        # Re-expose the inner kernel surface so post-run inspection
        # (chaos invariants, fault logs) sees the network that actually ran.
        self.nodes = inner.nodes
        self._by_id = inner._by_id
        self.channel = inner.channel  # type: ignore[assignment]
        self.params = inner.params
        self._events = inner._events

        trace = result.trace
        ref_ids = trace.reference_ids
        valid = ref_ids[ref_ids >= 0]
        final_root = int(valid[-1]) if valid.size else -1
        hop_of = (
            spec.topology.hop_distances(final_root) if final_root >= 0 else {}
        )
        per_hop_samples: Dict[int, List[float]] = {}
        if trace.values_us is not None and final_root >= 0:
            half = spec.periods // 2
            for idx in range(len(trace)):
                if idx + 1 <= half:  # mirror "period > periods // 2"
                    continue
                rid = int(ref_ids[idx])
                if rid < 0:
                    continue
                row = trace.values_us[idx]
                root_value = row[rid]
                if math.isnan(root_value):
                    continue
                for col in range(row.shape[0]):
                    hop = hop_of.get(col)
                    if hop is None or hop == 0:
                        continue
                    value = row[col]
                    if math.isnan(value):
                        continue
                    per_hop_samples.setdefault(hop, []).append(
                        abs(value - root_value)
                    )
        per_hop = {
            hop: float(np.median(values))
            for hop, values in sorted(per_hop_samples.items())
        }
        self.root = final_root
        self.root_changes = trace.reference_changes()
        self.beacons_sent = result.successful_beacons
        self.collisions = inner.channel.stats.collisions
        return MultiHopResult(
            trace=trace,
            per_hop_error_us=per_hop,
            hop_of=hop_of,
            root=final_root,
            root_changes=self.root_changes,
            beacons_sent=self.beacons_sent,
            collisions_at_receivers=self.collisions,
        )

    # ------------------------------------------------------------------
    # Churn
    # ------------------------------------------------------------------

    def _merged_churn(self) -> ChurnSchedule:
        """The spec's schedule plus the runner's leave_at/return_at dicts."""
        schedule = self.spec.churn or ChurnSchedule()
        extra = ChurnSchedule()
        for period in sorted(self.leave_at):
            extra.add(ChurnEvent(period, "leave", tuple(self.leave_at[period])))
        for period in sorted(self.return_at):
            extra.add(ChurnEvent(period, "return", tuple(self.return_at[period])))
        return schedule.merged_with(extra)

    def _apply_churn(self, period: int) -> None:
        def is_present(node_id: int) -> Optional[bool]:
            node = self._by_id.get(node_id)
            return None if node is None else node.present

        t_us = period * self.spec.beacon_period_us

        def leave(node_id: int) -> None:
            node = self._by_id[node_id]
            node.present = False
            node.protocol.on_leave(period)
            self._events.append(f"p{period}: node {node_id} left")
            emit("churn_leave", t_us=t_us, node=node_id, period=period)
            if node_id == self.root:
                self.root = -1  # orphaned; first-hop children will elect

        def ret(node_id: int) -> None:
            node = self._by_id[node_id]
            node.present = True
            node.protocol.on_return(period)
            self._events.append(f"p{period}: node {node_id} returned")
            emit("churn_return", t_us=t_us, node=node_id, period=period)

        assert self._churn_applier is not None
        self._churn_applier.apply(
            period,
            current_reference=self.current_reference,
            is_present=is_present,
            leave=leave,
            ret=ret,
        )

    # ------------------------------------------------------------------
    # Phases of one period
    # ------------------------------------------------------------------

    def _collect_transmissions(
        self,
        period: int,
        stalled: frozenset,
        partition: Optional[Dict[int, int]],
    ) -> List[MultiHopFrame]:
        spec = self.spec
        nominal = period * spec.beacon_period_us
        out: List[MultiHopFrame] = []
        self.ctx.root = self.root
        self.ctx.orphan_election = (
            self.root < 0 or not self._by_id[self.root].present
        )
        for i in range(self.n):
            node = self._by_id[i]
            if not node.present or i in stalled:
                continue
            state = node.protocol
            delay = state.begin_period(period, self.ctx)
            if delay is None:
                continue
            # The intent's schedule lives on the station's synchronized
            # clock; map it to the true-time axis through the chain.
            tx_true = state.chain.true_at_adjusted(nominal + delay)
            out.append(state.make_frame(period, delay, tx_true, self.ctx))
        return self._carrier_sense(out, partition)

    def _carrier_sense(
        self,
        candidates: List[MultiHopFrame],
        partition: Optional[Dict[int, int]],
    ) -> List[MultiHopFrame]:
        """802.11 deferral/cancellation over the hearing graph: a relay
        whose backoff expires while an *audible* neighbour's transmission
        is on the air cancels (it just received that beacon). Mutually
        hidden transmitters still collide downstream - that is physics,
        handled at the receivers. A partition fault cuts hearing across
        groups."""
        spec = self.spec
        airtime = spec.airtime_slots * spec.slot_time_us
        by_sender = {tx.sender: tx for tx in candidates}

        def hears(sender: int):
            neighbors = spec.topology.neighbors(sender)
            if partition is None:
                return neighbors
            group = partition.get(sender)
            return [n for n in neighbors if partition.get(n) == group]

        result = resolve_neighborhood(
            [(tx.sender, tx.tx_true) for tx in candidates], airtime, hears
        )
        self.beacons_sent += len(result.kept)
        kept = [by_sender[sender] for sender, _start in result.kept]
        for tx in kept:
            emit(
                "beacon_tx",
                t_us=tx.tx_true,
                node=tx.sender,
                period=tx.interval,
                hop=tx.hop,
                proto=self.protocol_name,
            )
        return kept

    def _resolve_receptions(
        self,
        transmissions: List[MultiHopFrame],
        stalled: frozenset,
        partition: Optional[Dict[int, int]],
    ) -> Dict[int, List[MultiHopFrame]]:
        """Per-receiver spatial reception through the shared channel."""
        spec = self.spec
        airtime = spec.airtime_slots * spec.slot_time_us
        by_sender = {tx.sender: tx for tx in transmissions}
        receivers = [
            i
            for i in range(self.n)
            if self._by_id[i].present and i not in stalled
        ]
        audible = None
        if partition is not None:
            groups = partition

            def audible(receiver: int, sender: int) -> bool:
                return groups.get(receiver) == groups.get(sender)

        delivery = self.channel.deliver_window(
            [(tx.sender, tx.tx_true) for tx in transmissions],
            receivers,
            airtime,
            size_bytes=self._protocol_cls.beacon_bytes,
            audible=audible,
        )
        self.collisions += delivery.collisions
        return {
            receiver: [by_sender[s] for s in senders]
            for receiver, senders in delivery.receptions.items()
        }

    def _process_receptions(
        self, period: int, receptions: Dict[int, List[MultiHopFrame]]
    ) -> Set[int]:
        """Returns the set of receivers that *accepted* a beacon (decoded,
        interval-fresh and plausibility-passing) - the input to silence
        tracking. The accept/reject decision itself is the protocol's."""
        accepted: Set[int] = set()
        latency = self.ctx.rx_latency_us
        traced = active().trace is not None
        for receiver, decoded in receptions.items():
            if traced:
                for tx in decoded:
                    emit(
                        "beacon_rx",
                        t_us=tx.tx_true + latency,
                        node=receiver,
                        src=tx.sender,
                        period=period,
                        proto=self.protocol_name,
                    )
            if receiver == self.root:
                accepted.add(receiver)
                continue
            if self._state(receiver).on_receptions(period, decoded, self.ctx):
                accepted.add(receiver)
        return accepted

    def _end_period(
        self, period: int, accepted: Set[int], stalled: frozenset
    ) -> None:
        orphan_election = self.root < 0
        for i in range(self.n):
            node = self._by_id[i]
            if not node.present or i == self.root or i in stalled:
                continue
            node.protocol.end_period(period, i in accepted, self.ctx)
        if orphan_election:
            # a volunteer that transmitted and heard nothing becomes root
            candidates = [
                i
                for i in range(self.n)
                if self._by_id[i].present
                and i not in stalled
                and self._state(i).wants_root_takeover(i in accepted)
            ]
            # the transmission set for this period is gone; approximate the
            # single-winner rule with the earliest-slot draw equivalent:
            if candidates:
                winner = candidates[0]
                self.root = winner
                self.root_changes += 1
                emit(
                    "reference_change",
                    t_us=period * self.spec.beacon_period_us,
                    old_ref=self._last_valid_root,
                    new_ref=winner,
                    period=period,
                )
                self._last_valid_root = winner
                self._state(winner).on_elected_root(period, self.ctx)

    def _sample_metrics(self, period: int) -> None:
        """Record every present synchronized station's adjusted clock,
        ``k * (offset + rate * t) + b``, as one array expression."""
        spec = self.spec
        sample_time = (period + 0.9) * spec.beacon_period_us
        ids: List[int] = []
        columns: List[float] = []  # k, b, offset, rate per station, flat
        for node in self.nodes:
            protocol = node.protocol
            if node.present and protocol.is_synchronized():
                chain = protocol.chain
                ids.append(node.node_id)
                # The active segment's slots, read past the k/b properties.
                columns.extend(
                    (
                        chain.adjusted._k,
                        chain.adjusted._b,
                        chain.hw.initial_offset,
                        chain.hw.rate,
                    )
                )
        if columns:
            count("clock.sample_vector", len(ids))
            k, b, offset, rate = np.array(columns).reshape(-1, 4).T
            values = k * (offset + rate * sample_time) + b
        else:
            values = np.empty(0)
        self.recorder.record(
            sample_time, values, self.root if self.root >= 0 else -1
        )
        # per-hop error vs the root (second half of the run only)
        if self.root >= 0 and period > spec.periods // 2:
            root_value = self._state(self.root).chain.adjusted_at(sample_time)
            self._hop_samples.append(
                (spec.topology.hop_array(self.root)[ids], values - root_value)
            )


def run_multihop(spec: MultiHopSpec) -> MultiHopResult:
    """Convenience wrapper."""
    return MultiHopRunner(spec).run()
