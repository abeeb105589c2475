"""Beacon-protection backends.

SSTSP's security pipeline makes three decisions per received beacon
(paper section 3.3): interval safety, disclosed-key validity, and delayed
MAC authentication of the previous interval's beacon. Two interchangeable
backends implement that pipeline:

* :class:`FullCryptoBackend` - real bytes: SHA-256-based hash chains and
  HMAC through :mod:`repro.crypto`. The default for small networks, unit
  tests and the crypto benchmarks.
* :class:`ModeledCryptoBackend` - the same decision procedure over
  structurally faithful placeholder material (position-labelled keys,
  recomputable tags) at a fraction of the cost. Large-N sweeps use this;
  ``tests/test_backend_equivalence.py`` locks the two backends to byte-
  for-byte identical verdict sequences on shared scenarios.

Either way the *protocol* code is identical: attackers cannot skip the
pipeline, they can only try to get through it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.crypto.hashchain import DenseHashChain, HashChainRegistry
from repro.crypto.mutesla import IntervalSchedule, MuTeslaReceiver, MuTeslaSender, SecuredPacket
from repro.crypto.primitives import hash128_iter
from repro.mac.beacon import SecureBeaconFrame
from repro.obs.context import emit
from repro.phy.params import SSTSP_BEACON_BYTES


@dataclass(frozen=True)
class BeaconVerdict:
    """Outcome of processing one secure beacon at a receiver.

    Attributes
    ----------
    accepted:
        The beacon passed the interval and key checks and was buffered
        (it is *not* yet authenticated - that happens one interval later).
    reason:
        ``"ok"`` or why it was rejected: ``"unknown_sender"``,
        ``"unsafe_interval"``, ``"bad_key"``.
    authenticated_intervals:
        Interval indices of previously buffered beacons from this sender
        whose MACs verified under the newly disclosed key.
    """

    accepted: bool
    reason: str
    authenticated_intervals: Tuple[int, ...] = ()


class CryptoBackend(ABC):
    """Shared sender/receiver beacon-protection service for one network."""

    def __init__(self, schedule: IntervalSchedule) -> None:
        self.schedule = schedule

    @abstractmethod
    def register_node(self, node_id: int) -> None:
        """Create and publish the node's hash-chain commitment."""

    @abstractmethod
    def make_frame(
        self, node_id: int, interval: int, timestamp_us: float
    ) -> SecureBeaconFrame:
        """Sender side: build the secured beacon of ``interval``."""

    @abstractmethod
    def process(
        self, receiver_id: int, frame: SecureBeaconFrame, local_time_us: float
    ) -> BeaconVerdict:
        """Receiver side: run the verification pipeline on one beacon,
        where ``local_time_us`` is the receiver's adjusted clock."""


class FullCryptoBackend(CryptoBackend):
    """Real uTESLA over SHA-256 hash chains.

    Chains are committed (anchor published) for every node at registration
    in O(1) memory; the full chain is only materialised the first time a
    node actually transmits (only references and attackers ever do).

    With ``authenticated_anchors=True`` the anchor publication itself runs
    through the hash-only signature path of section 3.2: each node enrolls
    a Lamport one-time public key (the single trusted pre-distribution
    step) and *signs* its anchor; the registry verifies before accepting.
    The default keeps the paper's lighter assumption (a trusted registry).
    """

    def __init__(
        self,
        schedule: IntervalSchedule,
        rng: np.random.Generator,
        authenticated_anchors: bool = False,
    ) -> None:
        super().__init__(schedule)
        self._rng = rng
        self.registry = HashChainRegistry()
        self.authenticated_anchors = authenticated_anchors
        self._auth_registry = None
        if authenticated_anchors:
            from repro.crypto.lamport import AuthenticatedRegistry

            self._auth_registry = AuthenticatedRegistry()
        self._seeds: Dict[int, bytes] = {}
        self._senders: Dict[int, MuTeslaSender] = {}
        self._receivers: Dict[int, MuTeslaReceiver] = {}

    def register_node(self, node_id: int) -> None:
        """Create the node's chain commitment and publish its anchor."""
        if node_id in self._seeds:
            return
        seed = bytes(self._rng.integers(0, 256, size=16, dtype=np.uint8))
        anchor = hash128_iter(seed, self.schedule.length)
        self._seeds[node_id] = seed
        if self._auth_registry is not None:
            from repro.crypto.lamport import LamportSigner, _anchor_message

            signer = LamportSigner(self._rng)
            self._auth_registry.enroll(node_id, signer.public_key)
            signature = signer.sign(
                _anchor_message(node_id, anchor, self.schedule.length)
            )
            self._auth_registry.publish(
                node_id, anchor, self.schedule.length, signature
            )
        self.registry.publish(node_id, anchor, self.schedule.length)

    def make_frame(
        self, node_id: int, interval: int, timestamp_us: float
    ) -> SecureBeaconFrame:
        sender = self._senders.get(node_id)
        if sender is None:
            seed = self._seeds[node_id]
            chain = DenseHashChain(seed, self.schedule.length)
            sender = MuTeslaSender(node_id, chain, self.schedule)
            self._senders[node_id] = sender
        payload = _beacon_payload(node_id, timestamp_us)
        packet = sender.secure(payload, interval)
        return SecureBeaconFrame(
            sender=node_id,
            timestamp_us=timestamp_us,
            interval=interval,
            mac_tag=packet.mac_tag,
            disclosed_key=packet.disclosed_key,
            size_bytes=SSTSP_BEACON_BYTES,
        )

    def process(
        self, receiver_id: int, frame: SecureBeaconFrame, local_time_us: float
    ) -> BeaconVerdict:
        receiver = self._receivers.get(receiver_id)
        if receiver is None:
            receiver = MuTeslaReceiver(self.schedule, owner=receiver_id)
            self._receivers[receiver_id] = receiver
        if not receiver.knows_sender(frame.sender):
            published = self.registry.lookup(frame.sender)
            if published is None:
                return BeaconVerdict(False, "unknown_sender")
            receiver.register_sender(frame.sender, *published)
        state = receiver.sender_stats(frame.sender)
        before = (state.rejected_unsafe_interval, state.rejected_bad_key)
        packet = SecuredPacket(
            payload=_beacon_payload(frame.sender, frame.timestamp_us),
            interval=frame.interval,
            mac_tag=frame.mac_tag,
            disclosed_key=frame.disclosed_key,
        )
        released = receiver.receive(frame.sender, packet, local_time_us)
        after = (state.rejected_unsafe_interval, state.rejected_bad_key)
        if after[0] > before[0]:
            return BeaconVerdict(False, "unsafe_interval")
        if after[1] > before[1]:
            return BeaconVerdict(False, "bad_key")
        return BeaconVerdict(
            True, "ok", tuple(msg.interval for msg in released)
        )


class ModeledCryptoBackend(CryptoBackend):
    """Decision-equivalent stand-in for :class:`FullCryptoBackend`.

    Chain element at position ``p`` of node ``i`` is the *label*
    ``b"K|i|p"``; a tag is the recomputable label over ``(sender,
    timestamp, interval)``. Holders of a registered identity can produce
    valid material, outsiders cannot (their frames carry unrelated bytes),
    so every branch of the pipeline - unknown sender, stale interval, bad
    key, bad MAC, multi-interval release - behaves exactly as with real
    crypto, without hashing.
    """

    MAX_PENDING = MuTeslaReceiver.MAX_PENDING

    def __init__(self, schedule: IntervalSchedule) -> None:
        super().__init__(schedule)
        self._registered: set = set()
        # (receiver, sender) -> {interval: frame} pending authentication.
        self._pending: Dict[Tuple[int, int], Dict[int, SecureBeaconFrame]] = {}

    def register_node(self, node_id: int) -> None:
        self._registered.add(node_id)

    @staticmethod
    def _key_label(node_id: int, position: int) -> bytes:
        return b"K|%d|%d" % (node_id, position)

    @staticmethod
    def _tag_label(node_id: int, interval: int, timestamp_us: float) -> bytes:
        return b"T|%d|%d|%.6f" % (node_id, interval, timestamp_us)

    def make_frame(
        self, node_id: int, interval: int, timestamp_us: float
    ) -> SecureBeaconFrame:
        if node_id not in self._registered:
            raise ValueError(f"node {node_id} has no registered chain")
        n = self.schedule.length
        return SecureBeaconFrame(
            sender=node_id,
            timestamp_us=timestamp_us,
            interval=interval,
            mac_tag=self._tag_label(node_id, interval, timestamp_us),
            disclosed_key=self._key_label(node_id, n - interval + 1),
            size_bytes=SSTSP_BEACON_BYTES,
        )

    def process(
        self, receiver_id: int, frame: SecureBeaconFrame, local_time_us: float
    ) -> BeaconVerdict:
        if frame.sender not in self._registered:
            return BeaconVerdict(False, "unknown_sender")
        j = frame.interval
        # Same emission points as MuTeslaReceiver.receive so a traced run
        # reads identically under either backend.
        if j != self.schedule.interval_of(local_time_us) or not self.schedule.contains(j):
            emit(
                "mutesla_reject",
                t_us=local_time_us,
                node=receiver_id,
                sender=frame.sender,
                interval=j,
                reason="unsafe_interval",
            )
            return BeaconVerdict(False, "unsafe_interval")
        n = self.schedule.length
        if frame.disclosed_key != self._key_label(frame.sender, n - j + 1):
            emit(
                "mutesla_reject",
                t_us=local_time_us,
                node=receiver_id,
                sender=frame.sender,
                interval=j,
                reason="bad_key",
            )
            return BeaconVerdict(False, "bad_key")
        pending = self._pending.setdefault((receiver_id, frame.sender), {})
        released: List[int] = []
        for interval in sorted(i for i in pending if i < j):
            buffered = pending.pop(interval)
            expected = self._tag_label(
                buffered.sender, buffered.interval, buffered.timestamp_us
            )
            if buffered.mac_tag == expected:
                released.append(interval)
                emit(
                    "mutesla_auth",
                    t_us=local_time_us,
                    node=receiver_id,
                    sender=frame.sender,
                    interval=interval,
                )
            else:
                emit(
                    "mutesla_reject",
                    t_us=local_time_us,
                    node=receiver_id,
                    sender=frame.sender,
                    interval=interval,
                    reason="bad_mac",
                )
        pending[j] = frame
        emit(
            "mutesla_defer",
            t_us=local_time_us,
            node=receiver_id,
            sender=frame.sender,
            interval=j,
        )
        while len(pending) > self.MAX_PENDING:
            pending.pop(min(pending))
        return BeaconVerdict(True, "ok", tuple(released))


def _beacon_payload(sender: int, timestamp_us: float) -> bytes:
    """Canonical byte encoding of the beacon body covered by the MAC."""
    return b"B|%d|%.6f" % (sender, timestamp_us)
