"""uTESLA broadcast authentication (Perrig et al. [2], as used by SSTSP).

uTESLA authenticates broadcasts with *delayed key disclosure*: time is
divided into intervals; the packet of interval ``j`` is MACed under a key
``K_j`` drawn from a one-way chain and still secret during interval ``j``;
the packet of interval ``j + 1`` discloses ``K_j``, at which point
receivers (a) verify ``K_j`` against the sender's published anchor and
(b) authenticate the *buffered* packet of interval ``j``. Security rests
on the receiver being loosely synchronized: it must be able to reject a
packet claiming interval ``j`` when ``K_j`` might already be disclosed -
SSTSP's coarse phase provides exactly that loose synchronization.

The SSTSP instantiation (paper section 3.3): intervals are beacon periods;
the beacon expected at ``T_0 + j * BP`` is secured with the chain element
``h^{n-j}(s)``, valid over ``[T_0 + j*BP - BP/2, T_0 + j*BP + BP/2]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.crypto.hashchain import HashChain, verify_element
from repro.crypto.primitives import constant_time_eq, hash128_iter, hmac128
from repro.obs.context import count, emit


@dataclass(frozen=True)
class IntervalSchedule:
    """Maps times to uTESLA interval indices.

    Attributes
    ----------
    t0_us:
        Chain start time ``T_0`` (synchronized-time axis).
    interval_us:
        Interval length; the beacon period in SSTSP.
    length:
        Chain length ``n``; intervals run ``1..n``.
    """

    t0_us: float
    interval_us: float
    length: int

    def __post_init__(self) -> None:
        if self.interval_us <= 0:
            raise ValueError("interval_us must be > 0")
        if self.length < 1:
            raise ValueError("length must be >= 1")

    def interval_of(self, time_us: float) -> int:
        """Interval whose validity window contains ``time_us``.

        Interval ``j`` covers ``[T0 + j*BP - BP/2, T0 + j*BP + BP/2)``,
        i.e. nearest-integer rounding of ``(t - T0) / BP``.
        """
        return int(round((time_us - self.t0_us) / self.interval_us))

    def nominal_time(self, interval: int) -> float:
        """Expected beacon emission time ``T^j = T_0 + j * BP``."""
        return self.t0_us + interval * self.interval_us

    def contains(self, interval: int) -> bool:
        """Whether ``interval`` is a usable chain interval."""
        return 1 <= interval <= self.length


@dataclass(frozen=True)
class SecuredPacket:
    """``<payload, j, MAC_{K_j}(payload, j), K_{j-1}>`` on the wire."""

    payload: bytes
    interval: int
    mac_tag: bytes
    disclosed_key: bytes


@dataclass(frozen=True)
class AuthenticatedMessage:
    """A payload whose MAC verified after its key was disclosed."""

    payload: bytes
    interval: int
    sender: int


class MuTeslaSender:
    """Sender side: secure one packet per interval with the chain key."""

    def __init__(self, node_id: int, chain: HashChain, schedule: IntervalSchedule) -> None:
        if chain.length != schedule.length:
            raise ValueError(
                f"chain length {chain.length} != schedule length {schedule.length}"
            )
        self.node_id = node_id
        self.chain = chain
        self.schedule = schedule

    def secure(self, payload: bytes, interval: int) -> SecuredPacket:
        """Build the on-wire packet for ``interval``."""
        if not self.schedule.contains(interval):
            raise ValueError(f"interval {interval} outside chain schedule")
        key = self.chain.key_for_interval(interval)
        tag = hmac128(key, payload + b"|" + str(interval).encode())
        disclosed = self.chain.disclosed_key_for_interval(interval)
        return SecuredPacket(payload, interval, tag, disclosed)


@dataclass
class _SenderState:
    """Receiver-side per-sender verification state."""

    anchor: bytes
    length: int
    #: ``(chain position, value)`` of the newest verified element; lets key
    #: verification hash only the gap instead of all the way to the anchor.
    verified: Optional[Tuple[int, bytes]] = None
    #: Packets awaiting key disclosure, by interval.
    pending: Dict[int, SecuredPacket] = field(default_factory=dict)
    hash_operations: int = 0
    rejected_unsafe_interval: int = 0
    rejected_bad_key: int = 0
    rejected_bad_mac: int = 0
    authenticated: int = 0


class MuTeslaReceiver:
    """Receiver side: safety check, key verification, delayed authentication.

    One receiver instance handles any number of senders, keyed by their
    published anchors (looked up once and pinned).
    """

    #: How many unauthenticated packets to buffer per sender. SSTSP needs
    #: the previous interval only; the paper's section 3.4 budgets buffering
    #: "the synchronization beacons received during last 2 BPs".
    MAX_PENDING: int = 2

    def __init__(self, schedule: IntervalSchedule, owner: Optional[int] = None) -> None:
        self.schedule = schedule
        self.owner = owner
        self._senders: Dict[int, _SenderState] = {}

    def register_sender(self, sender: int, anchor: bytes, length: int) -> None:
        """Pin a sender's published anchor (from the trusted registry)."""
        state = self._senders.get(sender)
        if state is not None:
            if state.anchor != anchor or state.length != length:
                raise ValueError(f"conflicting anchor for sender {sender}")
            return
        self._senders[sender] = _SenderState(anchor=bytes(anchor), length=length)

    def knows_sender(self, sender: int) -> bool:
        """Whether the sender's anchor is pinned."""
        return sender in self._senders

    def sender_stats(self, sender: int) -> Optional[_SenderState]:
        """Verification counters for ``sender`` (None if unknown)."""
        return self._senders.get(sender)

    def receive(
        self,
        sender: int,
        packet: SecuredPacket,
        local_time_us: float,
    ) -> List[AuthenticatedMessage]:
        """Process one packet received at synchronized local time
        ``local_time_us``; return any packets that became authenticated.

        Implements the paper's check sequence:

        1. *Safety / freshness*: the packet's claimed interval must be the
           receiver's current interval (otherwise its key may already be
           public and the MAC proves nothing).
        2. *Key verification*: the disclosed key must hash to the pinned
           anchor (or to a previously verified element).
        3. *Delayed authentication*: the disclosed key authenticates the
           buffered packet of the previous interval.

        The packet itself is buffered and only ever released by a *later*
        packet's disclosure - beacon ``j`` "cannot be used for clock
        adjustment until its integrity is verified".
        """
        state = self._senders.get(sender)
        if state is None:
            return []
        j = packet.interval
        # 1. Safety condition.
        if j != self.schedule.interval_of(local_time_us) or not self.schedule.contains(j):
            state.rejected_unsafe_interval += 1
            emit(
                "mutesla_reject",
                t_us=local_time_us,
                node=self.owner,
                sender=sender,
                interval=j,
                reason="unsafe_interval",
            )
            return []
        # 2. Disclosed key is h^{n-j+1}(s), i.e. chain position n - j + 1.
        disclosed_position = state.length - j + 1
        ok, cost = verify_element(
            packet.disclosed_key,
            disclosed_position,
            state.anchor,
            state.length,
            cache=state.verified,
        )
        state.hash_operations += cost
        count("crypto.verify")
        count("crypto.hash_ops", cost)
        if not ok:
            state.rejected_bad_key += 1
            emit(
                "mutesla_reject",
                t_us=local_time_us,
                node=self.owner,
                sender=sender,
                interval=j,
                reason="bad_key",
            )
            return []
        if state.verified is None or disclosed_position < state.verified[0]:
            state.verified = (disclosed_position, packet.disclosed_key)
        # 3. Authenticate every buffered packet of an interval before j with
        # the now-disclosed key. The key of interval i < j - 1 derives from
        # the disclosed key of interval j - 1 by hashing forward
        # (key_i = h^{(j-1)-i}(K_{j-1})), so a lost beacon does not strand
        # older buffered packets.
        released: List[AuthenticatedMessage] = []
        for interval in sorted(i for i in state.pending if i < j):
            buffered = state.pending.pop(interval)
            key_i = hash128_iter(packet.disclosed_key, (j - 1) - interval)
            state.hash_operations += (j - 1) - interval
            count("crypto.hash_ops", (j - 1) - interval)
            count("crypto.auth_check")
            expected = hmac128(
                key_i,
                buffered.payload + b"|" + str(buffered.interval).encode(),
            )
            if constant_time_eq(expected, buffered.mac_tag):
                state.authenticated += 1
                released.append(
                    AuthenticatedMessage(buffered.payload, buffered.interval, sender)
                )
                emit(
                    "mutesla_auth",
                    t_us=local_time_us,
                    node=self.owner,
                    sender=sender,
                    interval=interval,
                )
            else:
                state.rejected_bad_mac += 1
                emit(
                    "mutesla_reject",
                    t_us=local_time_us,
                    node=self.owner,
                    sender=sender,
                    interval=interval,
                    reason="bad_mac",
                )
        # Buffer this packet until its own key is disclosed.
        state.pending[j] = packet
        count("crypto.defer")
        emit(
            "mutesla_defer",
            t_us=local_time_us,
            node=self.owner,
            sender=sender,
            interval=j,
        )
        while len(state.pending) > self.MAX_PENDING:
            state.pending.pop(min(state.pending))
        return released
