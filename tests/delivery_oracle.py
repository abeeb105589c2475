"""Test oracle: the receiver-scan spatial delivery the simulator replaced.

:meth:`repro.phy.channel.SpatialBroadcastChannel.deliver_window` now
resolves a window as array operations; this module keeps the
receiver-scan loop it started from (every receiver filtering every
transmission, one scalar loss draw at a time), verbatim apart from
running as a function over a channel and spelling out the jam check, so
``tests/test_spatial_delivery.py`` can pin the array path to it window
for window. Not used by the simulator.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.obs.context import count
from repro.phy.channel import SpatialBroadcastChannel, WindowDelivery


def deliver_window(
    channel: SpatialBroadcastChannel,
    transmissions: Sequence[Tuple[int, float]],
    receivers: Sequence[int],
    airtime_us: float,
    size_bytes: int = 0,
    audible: Optional[Callable[[int, int], bool]] = None,
) -> WindowDelivery:
    """Resolve one beacon window's receiver-side fates (receiver scan)."""
    topology = channel.topology
    neighbor_sets: Dict[int, FrozenSet[int]] = {
        node: frozenset(topology.neighbors(node)) for node in range(topology.n)
    }
    if airtime_us <= 0:
        raise ValueError("airtime_us must be > 0")
    count("phy.window")
    channel.stats.transmissions += len(transmissions)
    channel.stats.bytes_on_air += size_bytes * len(transmissions)

    # Whole-frame fates (one draw per transmission, in time order)
    # when the loss model or a fault override calls for them.
    frame_delivered: Optional[Dict[int, bool]] = None
    if channel._per_override is not None or channel.phy.loss_model != "per_receiver":
        frame_delivered = {}
        for sender, _start in transmissions:
            if channel._per_override is not None:
                per = channel._per_override
            elif channel.phy.loss_model == "gilbert_elliott":
                per = channel._gilbert_elliott_per()
            else:
                per = channel.phy.packet_error_rate
            if per <= 0.0:
                frame_delivered[sender] = True
            else:
                count("phy.per_draw")
                frame_delivered[sender] = bool(channel._rng.random() >= per)

    delivery = WindowDelivery()
    static_per = channel.phy.packet_error_rate
    for receiver in receivers:
        hears = neighbor_sets.get(receiver, frozenset())
        heard = [
            (sender, start)
            for sender, start in transmissions
            if sender in hears
            and (audible is None or audible(receiver, sender))
        ]
        if not heard:
            continue
        heard.sort(key=lambda item: item[1])
        decoded: List[int] = []
        index = 0
        while index < len(heard):
            group_end = heard[index][1] + airtime_us
            j = index + 1
            while j < len(heard) and heard[j][1] < group_end:
                group_end = max(group_end, heard[j][1] + airtime_us)
                j += 1
            group = heard[index:j]
            index = j
            if len(group) > 1:
                count("phy.collision_group")
                delivery.collisions += 1
                channel.stats.collisions += 1
                continue
            sender, start = group[0]
            count("phy.delivery_attempt")
            if channel.is_jammed(start) or any(
                jam_start <= start < jam_end and targets[receiver]
                for jam_start, jam_end, targets in channel._scoped_jams
            ):
                channel.stats.jammed_drops += 1
                continue
            link = channel._link_per.get((sender, receiver))
            if link is not None:
                if link <= 0.0:
                    ok = True
                else:
                    count("phy.per_draw")
                    ok = bool(channel._rng.random() >= link)
            elif frame_delivered is not None:
                ok = frame_delivered[sender]
            elif static_per <= 0.0:
                ok = True
            else:
                count("phy.per_draw")
                ok = bool(channel._rng.random() >= static_per)
            if ok:
                channel.stats.deliveries += 1
                decoded.append(sender)
            else:
                channel.stats.per_drops += 1
        if decoded:
            delivery.receptions[receiver] = decoded
    return delivery
