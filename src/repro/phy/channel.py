"""Broadcast channels with loss, jamming and (spatially) collisions.

For the single-hop IBSS (:class:`BroadcastChannel`) collisions are
resolved *before* delivery by the MAC contention cascade
(:mod:`repro.mac.contention`); the channel's job is the per-receiver fate
of an un-collided transmission: a packet-error draw per receiver or per
transmission (including the Gilbert-Elliott burst-loss chain), suppression
during jamming windows, and bookkeeping for the traffic-overhead model.

:class:`SpatialBroadcastChannel` extends this to a radio topology: a
receiver hears exactly its graph neighbours, and two audible frames that
overlap in time collide *at that receiver only* (hidden terminals). The
multi-hop lane delivers its whole beacon window through
:meth:`SpatialBroadcastChannel.deliver_window`, which is what gives it
the same loss models, jam windows and fault overrides as the single-hop
lane — plus per-link error overrides and receiver-scoped jamming that a
spatial network additionally supports.

Fault injection (:mod:`repro.faults`) can force a temporary
per-transmission loss probability (:meth:`BroadcastChannel.set_per_override`)
to model loss bursts independent of the configured loss model.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.obs.counters import count
from repro.phy.params import PhyParams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.multihop.topology import Topology


@dataclass
class ChannelStats:
    """Running counters over the life of a channel."""

    transmissions: int = 0
    collisions: int = 0
    deliveries: int = 0
    per_drops: int = 0
    jammed_drops: int = 0
    bytes_on_air: int = 0

    def delivery_ratio(self) -> float:
        """Delivered / attempted receiver-deliveries (1.0 when nothing sent)."""
        attempted = self.deliveries + self.per_drops + self.jammed_drops
        return self.deliveries / attempted if attempted else 1.0


class BroadcastChannel:
    """Fully connected wireless broadcast domain (an IBSS).

    Parameters
    ----------
    phy:
        Timing/loss parameters.
    rng:
        Stream for the per-receiver packet-error draws (and the
        Gilbert-Elliott state transitions when that loss model is on).
    """

    def __init__(self, phy: PhyParams, rng: np.random.Generator) -> None:
        self.phy = phy
        self._rng = rng
        self.stats = ChannelStats()
        # Jam windows sorted by start; _jam_max_end[i] is the prefix
        # maximum of end times over windows[0..i], so a membership query
        # is one bisect instead of a scan over all windows (chaos plans
        # add many windows per run).
        self._jam_windows: List[Tuple[float, float]] = []
        self._jam_starts: List[float] = []
        self._jam_max_end: List[float] = []
        self._per_override: Optional[float] = None
        self._ge_bad = False

    def add_jam_window(self, start_us: float, end_us: float) -> None:
        """Suppress all receptions whose transmission starts in
        ``[start_us, end_us)`` (true time). Used by pulse-delay attacks
        and injected jam faults."""
        if end_us <= start_us:
            raise ValueError("jam window must have end > start")
        window = (float(start_us), float(end_us))
        idx = bisect.bisect_right(self._jam_starts, window[0])
        self._jam_windows.insert(idx, window)
        self._jam_starts.insert(idx, window[0])
        # Rebuild the prefix maximum from the insertion point on.
        del self._jam_max_end[idx:]
        running = self._jam_max_end[-1] if self._jam_max_end else -np.inf
        for _, end in self._jam_windows[idx:]:
            running = max(running, end)
            self._jam_max_end.append(running)

    def is_jammed(self, true_time: float) -> bool:
        """Whether a transmission starting at ``true_time`` is jammed."""
        idx = bisect.bisect_right(self._jam_starts, true_time) - 1
        return idx >= 0 and true_time < self._jam_max_end[idx]

    def set_per_override(self, per: Optional[float]) -> None:
        """Force a per-transmission loss probability (None restores the
        configured loss model). Fault injection uses this for loss bursts."""
        if per is not None and not 0.0 <= per <= 1.0:
            raise ValueError("per override must be in [0, 1] or None")
        self._per_override = per

    def record_collision(self, parties: int) -> None:
        """Account a collision of ``parties`` simultaneous transmitters."""
        self.stats.collisions += 1
        self.stats.transmissions += parties

    def _gilbert_elliott_per(self) -> float:
        """Advance the two-state loss chain once and return the loss
        probability for this transmission."""
        phy = self.phy
        count("phy.ge_step")
        if self._ge_bad:
            if self._rng.random() < phy.ge_p_bad_to_good:
                self._ge_bad = False
        else:
            if self._rng.random() < phy.ge_p_good_to_bad:
                self._ge_bad = True
        return phy.ge_per_bad if self._ge_bad else phy.packet_error_rate

    def broadcast(
        self,
        sender: int,
        receivers: Sequence[int],
        true_time: float,
        size_bytes: int,
    ) -> List[int]:
        """Deliver one un-collided transmission; return receivers that decode it.

        With ``loss_model="per_receiver"`` each receiver independently
        loses the frame with probability ``phy.packet_error_rate``; with
        ``"per_transmission"`` one coin decides for everyone; with
        ``"gilbert_elliott"`` the per-transmission coin's bias follows the
        two-state burst chain. If ``true_time`` falls in a jam window,
        nobody receives.
        """
        self.stats.transmissions += 1
        self.stats.bytes_on_air += size_bytes
        receivers = [r for r in receivers if r != sender]
        count("phy.broadcast")
        count("phy.delivery_attempt", len(receivers))
        if not receivers:
            return []
        if self.is_jammed(true_time):
            self.stats.jammed_drops += len(receivers)
            return []
        if self._per_override is not None:
            per = self._per_override
            whole_frame = True
        elif self.phy.loss_model == "gilbert_elliott":
            per = self._gilbert_elliott_per()
            whole_frame = True
        else:
            per = self.phy.packet_error_rate
            whole_frame = self.phy.loss_model == "per_transmission"
        if per <= 0.0:
            self.stats.deliveries += len(receivers)
            return list(receivers)
        if whole_frame:
            count("phy.per_draw")
            if self._rng.random() < per:
                self.stats.per_drops += len(receivers)
                return []
            self.stats.deliveries += len(receivers)
            return list(receivers)
        count("phy.per_draw", len(receivers))
        lost = self._rng.random(len(receivers)) < per
        delivered = [r for r, drop in zip(receivers, lost) if not drop]
        self.stats.per_drops += len(receivers) - len(delivered)
        self.stats.deliveries += len(delivered)
        return delivered

    def sample_timestamp_error(self) -> float:
        """Receive-side timestamping error for one reception.

        Uniform in ``+- timestamp_jitter_us``; this is the source of the
        paper's ``epsilon`` bound on ``|ts_ref - t_ref|``.
        """
        count("phy.ts_jitter_draw")
        j = self.phy.timestamp_jitter_us
        if j == 0.0:
            return 0.0
        # Generator.uniform's own formula on the same double, without the
        # per-call array machinery of the scalar uniform().
        low = -j
        return low + (j - low) * self._rng.random()

    def sample_timestamp_errors(self, n: int) -> np.ndarray:
        """Vectorised version of :meth:`sample_timestamp_error`."""
        j = self.phy.timestamp_jitter_us
        if j == 0.0:
            return np.zeros(n)
        return self._rng.uniform(-j, j, size=n)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BroadcastChannel(stats={self.stats})"


@dataclass
class WindowDelivery:
    """Outcome of one spatial beacon window.

    Attributes
    ----------
    receptions:
        Receiver id -> sender ids whose frames it decoded, in
        transmission-time order.
    collisions:
        Number of receiver-side collision groups (two or more audible
        frames overlapping at one receiver).
    """

    receptions: Dict[int, List[int]] = field(default_factory=dict)
    collisions: int = 0


class SpatialBroadcastChannel(BroadcastChannel):
    """Topology-aware broadcast channel for the multi-hop lane.

    A receiver hears exactly its graph neighbours; collision grouping is
    therefore *per receiver* (hidden terminals garble each other at a
    common neighbour even though the MAC let both transmit). Loss models,
    jam windows and fault overrides are inherited from
    :class:`BroadcastChannel`; two spatial-only effects are added on top:
    per-link error overrides (:meth:`set_link_per`) and receiver-scoped
    jam windows (:meth:`add_jam_window` with ``receivers``).
    """

    def __init__(
        self,
        phy: PhyParams,
        rng: np.random.Generator,
        topology: "Topology",
    ) -> None:
        super().__init__(phy, rng)
        self.topology = topology
        self._link_per: Dict[Tuple[int, int], float] = {}
        self._scoped_jams: List[Tuple[float, float, FrozenSet[int]]] = []

    def set_link_per(
        self, sender: int, receiver: int, per: Optional[float]
    ) -> None:
        """Override the packet-error rate of one directed link
        (``None`` restores the channel-wide model for that link)."""
        if per is None:
            self._link_per.pop((sender, receiver), None)
            return
        if not 0.0 <= per <= 1.0:
            raise ValueError("link per must be in [0, 1] or None")
        self._link_per[(sender, receiver)] = float(per)

    def add_jam_window(
        self,
        start_us: float,
        end_us: float,
        receivers: Optional[Iterable[int]] = None,
    ) -> None:
        """Jam ``[start_us, end_us)``; with ``receivers`` given, only
        those stations are deafened (a localised jammer), otherwise the
        whole network is (matching the single-hop channel)."""
        if receivers is None:
            super().add_jam_window(start_us, end_us)
            return
        if end_us <= start_us:
            raise ValueError("jam window must have end > start")
        self._scoped_jams.append(
            (float(start_us), float(end_us), frozenset(receivers))
        )

    def _jammed_for(self, receiver: int, true_time: float) -> bool:
        if self.is_jammed(true_time):
            return True
        for start, end, targets in self._scoped_jams:
            if start <= true_time < end and receiver in targets:
                return True
        return False

    def deliver_window(
        self,
        transmissions: Sequence[Tuple[int, float]],
        receivers: Sequence[int],
        airtime_us: float,
        size_bytes: int = 0,
        audible: Optional[Callable[[int, int], bool]] = None,
    ) -> WindowDelivery:
        """Resolve one beacon window's receiver-side fates.

        Parameters
        ----------
        transmissions:
            ``(sender, start_true_time)`` of every frame that went on air
            (the MAC's :func:`repro.mac.contention.resolve_neighborhood`
            output). Any order: frames are stably sorted by start time
            here, so frames starting together keep their given order.
        receivers:
            Stations listening this window (callers pass them in
            ascending id order — the draw order contract).
        airtime_us:
            Frame airtime (defines receiver-side overlap).
        size_bytes:
            Frame size, accounted once per transmission.
        audible:
            Optional extra gate ``(receiver, sender) -> bool`` applied on
            top of the topology (partition faults cut links this way).

        Delivery is transmitter-driven: each frame, in start-time order,
        is placed on the heard list of every topology neighbour of its
        sender, so a window costs the sum of its senders' degrees
        (counted as ``phy.heard_pair``), not receivers x transmissions.
        Receivers are then walked in the given order. Per receiver,
        audible frames are grouped by time overlap: a group of two or
        more is a collision (nothing decodes, no loss draw); a lone frame
        survives jamming and one loss draw. With the default
        ``per_receiver`` loss model the draw happens per (receiver,
        frame); ``per_transmission`` / Gilbert-Elliott models and the
        fault-injection override draw one whole-frame fate per
        transmission, in the given order and before any receiver, exactly
        like :meth:`BroadcastChannel.broadcast`.
        """
        if airtime_us <= 0:
            raise ValueError("airtime_us must be > 0")
        count("phy.window")
        self.stats.transmissions += len(transmissions)
        self.stats.bytes_on_air += size_bytes * len(transmissions)

        # Whole-frame fates (one draw per transmission, in time order)
        # when the loss model or a fault override calls for them.
        frame_delivered: Optional[Dict[int, bool]] = None
        if self._per_override is not None or self.phy.loss_model != "per_receiver":
            frame_delivered = {}
            for sender, _start in transmissions:
                if self._per_override is not None:
                    per = self._per_override
                elif self.phy.loss_model == "gilbert_elliott":
                    per = self._gilbert_elliott_per()
                else:
                    per = self.phy.packet_error_rate
                if per <= 0.0:
                    frame_delivered[sender] = True
                else:
                    count("phy.per_draw")
                    frame_delivered[sender] = bool(self._rng.random() >= per)

        neighbors = self.topology.neighbors
        heard_by: Dict[int, List[Tuple[int, float]]] = {}
        pairs = 0
        for frame in sorted(transmissions, key=lambda item: item[1]):
            hearers = neighbors(frame[0])
            pairs += len(hearers)
            for receiver in hearers:
                heard_by.setdefault(receiver, []).append(frame)
        if pairs:
            count("phy.heard_pair", pairs)

        delivery = WindowDelivery()
        static_per = self.phy.packet_error_rate
        link_per = self._link_per
        jammed = self._jammed_for if self._jam_starts or self._scoped_jams else None
        random = self._rng.random
        collisions = attempts = draws = jammed_drops = per_drops = deliveries = 0
        for receiver in receivers:
            heard = heard_by.get(receiver)
            if heard is None:
                continue
            if audible is not None:
                heard = [frame for frame in heard if audible(receiver, frame[0])]
                if not heard:
                    continue
            decoded: List[int] = []
            index = 0
            while index < len(heard):
                group_end = heard[index][1] + airtime_us
                j = index + 1
                while j < len(heard) and heard[j][1] < group_end:
                    group_end = max(group_end, heard[j][1] + airtime_us)
                    j += 1
                if j - index > 1:
                    collisions += 1
                    index = j
                    continue
                sender, start = heard[index]
                index = j
                attempts += 1
                if jammed is not None and jammed(receiver, start):
                    jammed_drops += 1
                    continue
                link = link_per.get((sender, receiver)) if link_per else None
                if link is not None:
                    if link <= 0.0:
                        ok = True
                    else:
                        draws += 1
                        ok = random() >= link
                elif frame_delivered is not None:
                    ok = frame_delivered[sender]
                elif static_per <= 0.0:
                    ok = True
                else:
                    draws += 1
                    ok = random() >= static_per
                if ok:
                    deliveries += 1
                    decoded.append(sender)
                else:
                    per_drops += 1
            if decoded:
                delivery.receptions[receiver] = decoded
        delivery.collisions = collisions
        stats = self.stats
        stats.collisions += collisions
        stats.jammed_drops += jammed_drops
        stats.per_drops += per_drops
        stats.deliveries += deliveries
        for key, tally in (
            ("phy.collision_group", collisions),
            ("phy.delivery_attempt", attempts),
            ("phy.per_draw", draws),
        ):
            if tally:
                count(key, tally)
        return delivery


def merge_stats(stats: Iterable[ChannelStats]) -> ChannelStats:
    """Aggregate several channels' counters (multi-replica experiments)."""
    total = ChannelStats()
    for s in stats:
        total.transmissions += s.transmissions
        total.collisions += s.collisions
        total.deliveries += s.deliveries
        total.per_drops += s.per_drops
        total.jammed_drops += s.jammed_drops
        total.bytes_on_air += s.bytes_on_air
    return total
