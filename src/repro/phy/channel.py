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
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
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
        self._scoped_jams: List[Tuple[float, float, np.ndarray]] = []

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
        targets = np.zeros(self.topology.n, dtype=bool)
        targets[[r for r in receivers if 0 <= r < self.topology.n]] = True
        self._scoped_jams.append((float(start_us), float(end_us), targets))

    def _frame_fates(self, frames: int) -> Optional[np.ndarray]:
        """Whole-frame fates, one per transmission in the given order
        (``None`` under the per-receiver model without a fault override)."""
        override = self._per_override
        loss_model = self.phy.loss_model
        if override is None and loss_model == "per_receiver":
            return None
        fates = np.ones(frames, dtype=bool)
        for index in range(frames):
            if override is not None:
                per = override
            elif loss_model == "gilbert_elliott":
                per = self._gilbert_elliott_per()
            else:
                per = self.phy.packet_error_rate
            if per > 0.0:
                count("phy.per_draw")
                fates[index] = self._rng.random() >= per
        return fates

    def _jammed(self, receivers: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Which (receiver, start) receptions a jam window suppresses."""
        jammed = np.zeros(starts.size, dtype=bool)
        if self._jam_starts:
            last = np.searchsorted(self._jam_starts, starts, side="right") - 1
            max_end = np.asarray(self._jam_max_end)[np.maximum(last, 0)]
            jammed = (last >= 0) & (starts < max_end)
        for start, end, targets in self._scoped_jams:
            jammed |= (starts >= start) & (starts < end) & targets[receivers]
        return jammed

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
            output), each sender at most once. Any order: frames are
            stably sorted by start time here, so frames starting together
            keep their given order.
        receivers:
            Stations listening this window; they are resolved in
            ascending id order whatever order they come in.
        airtime_us:
            Frame airtime (defines receiver-side overlap).
        size_bytes:
            Frame size, accounted once per transmission.
        audible:
            Optional extra gate ``(receiver, sender) -> bool`` applied on
            top of the topology (partition faults cut links this way).

        The window resolves as array operations over the topology's
        padded neighbour table
        (:meth:`~repro.multihop.topology.Topology.neighbor_table`): every
        frame, in start-time order, meets its sender's neighbours
        (counted as ``phy.heard_pair``, so a window's delivery work is
        the sum of its senders' degrees); pairs whose receiver is not
        listening, or that ``audible`` rejects, drop out; the rest are
        sorted by receiver, keeping start order within a receiver. Per
        receiver, a new overlap group starts wherever a frame starts at
        or after the previous frame's end: a group of two or more is a
        collision (nothing decodes, no loss draw); a lone frame survives
        jamming and one loss draw.

        Draw order: whole-frame fates (``per_transmission`` and
        Gilbert-Elliott models, the fault-injection override) come first,
        one per transmission in the given order, exactly like
        :meth:`BroadcastChannel.broadcast`. Then one ``rng.random(k)``
        call draws every remaining fate in receiver-then-time order: one
        per lone, un-jammed frame under the ``per_receiver`` model, and
        one per such frame on a link with a positive per-link override
        (which takes precedence over the whole-frame fate).
        """
        if airtime_us <= 0:
            raise ValueError("airtime_us must be > 0")
        count("phy.window")
        frames = len(transmissions)
        stats = self.stats
        stats.transmissions += frames
        stats.bytes_on_air += size_bytes * frames
        delivery = WindowDelivery()
        if not frames:
            return delivery

        # Frames in stable start order (Python's sort is stable, and
        # cheaper than numpy's on the few frames of a small window).
        fates = self._frame_fates(frames)
        if fates is None:
            window = sorted(transmissions, key=itemgetter(1))
        else:
            order = sorted(range(frames), key=lambda index: transmissions[index][1])
            window = [transmissions[index] for index in order]
            fates = fates[order]
        senders, starts = zip(*window)
        senders = np.array(senders, dtype=np.intp)
        starts = np.array(starts, dtype=np.float64)

        # Every frame (now in start order) meets its sender's neighbour
        # row; padding and stations not listening drop out.
        n = self.topology.n
        rows, degree = self.topology.neighbor_table()
        pairs = int(degree[senders].sum())
        if pairs:
            count("phy.heard_pair", pairs)
        hears = rows[senders]
        listening = np.zeros(n + 1, dtype=bool)
        listening[np.asarray(receivers, dtype=np.intp)] = True
        keep = listening[hears]
        if audible is not None:
            kept = np.nonzero(keep)
            keep[kept] = np.fromiter(
                map(audible, hears[kept].tolist(), senders[kept[0]].tolist()),
                dtype=bool,
                count=kept[0].size,
            )
        # Receiver-major, start order within a receiver: the kept pairs
        # come out frame-major, so one stable sort by receiver.
        frame = np.nonzero(keep)[0]
        rx = hears[keep]
        if not rx.size:
            return delivery
        by_receiver = np.argsort(rx, kind="stable")
        rx = rx[by_receiver]
        frame = frame[by_receiver]

        # Overlap groups per receiver: a frame joins the previous one's
        # group when it reaches the same receiver before that one ends.
        start = starts[frame]
        joined = (rx[1:] == rx[:-1]) & (start[1:] < start[:-1] + airtime_us)
        collisions = 0
        if np.count_nonzero(joined):
            edge = np.zeros(rx.size + 1, dtype=bool)
            edge[1:-1] = joined
            collisions = int(np.count_nonzero(edge[1:] > edge[:-1]))
            lone = ~(edge[:-1] | edge[1:])
            rx = rx[lone]
            frame = frame[lone]
        attempts = rx.size

        jammed_drops = 0
        if self._jam_starts or self._scoped_jams:
            live = ~self._jammed(rx, starts[frame])
            jammed_drops = attempts - int(np.count_nonzero(live))
            rx = rx[live]
            frame = frame[live]

        # Loss fates: the loss model's decision, then per-link overrides.
        tx = senders[frame]
        per = self.phy.packet_error_rate
        if fates is None and not self._link_per:
            # The per-receiver model alone: every pair draws when per > 0.
            draws = rx.size if per > 0.0 else 0
            if draws:
                decoded = self._rng.random(draws) >= per
            else:
                decoded = np.ones(rx.size, dtype=bool)
        else:
            draw = np.full(rx.size, fates is None and per > 0.0)
            decoded = ~draw if fates is None else fates[frame]
            threshold = per
            if self._link_per:
                link_of = self._link_per.get
                link_per = np.fromiter(
                    (link_of(link, np.nan) for link in zip(tx.tolist(), rx.tolist())),
                    dtype=np.float64,
                    count=rx.size,
                )
                linked = ~np.isnan(link_per)
                decoded |= linked
                draw = np.where(linked, link_per > 0.0, draw)
                threshold = np.where(linked, link_per, per)[draw]
            draws = int(np.count_nonzero(draw))
            if draws:
                decoded[draw] = self._rng.random(draws) >= threshold

        deliveries = int(np.count_nonzero(decoded))
        stats.per_drops += rx.size - deliveries
        if deliveries < rx.size:
            rx = rx[decoded]
            tx = tx[decoded]
        receptions = delivery.receptions
        for receiver, sender in zip(rx.tolist(), tx.tolist()):
            heard = receptions.get(receiver)
            if heard is None:
                receptions[receiver] = [sender]
            else:
                heard.append(sender)
        delivery.collisions = collisions
        stats.collisions += collisions
        stats.jammed_drops += jammed_drops
        stats.deliveries += deliveries
        for site, tally in (
            ("phy.collision_group", collisions),
            ("phy.delivery_attempt", attempts),
            ("phy.per_draw", draws),
        ):
            if tally:
                count(site, tally)
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
