"""The multi-hop protocol interface.

:class:`~repro.multihop.runner.MultiHopRunner` is a *harness*: it owns
the kernel concerns only — clocks, spatial carrier sensing, the lossy
broadcast channel, churn, fault injection, tracing and metric sampling.
Everything synchronization-specific (who transmits when, what a frame
carries, how a receiver filters and applies it, when a node volunteers
as the new time source) lives behind :class:`MultiHopProtocol`, the
multi-hop analogue of the single-hop
:class:`~repro.protocols.base.SyncProtocol`: period hooks, a TX intent,
frame construction, reception handling, a synchronized-time query — plus
the hooks single-hop has no need for (hop tracking, upstream selection,
root takeover).

One instance drives one station. The harness calls the hooks in a fixed
order each beacon period, for nodes in ascending id order:

1. :meth:`MultiHopProtocol.begin_period` — return the transmission
   delay inside the beacon window, or ``None`` to stay quiet. All
   randomness must come from :attr:`MultiHopContext.slot_rng` (the
   harness's contention stream), keeping runs bit-reproducible across
   refactors of either side.
2. :meth:`MultiHopProtocol.make_frame` — build the
   :class:`MultiHopFrame` for a station that transmitted.
3. :meth:`MultiHopProtocol.on_receptions` — handle every frame that
   decoded at this station this period; return whether one was
   *accepted* (the input to silence tracking). Timestamp-estimate
   jitter is drawn via ``MultiHopContext.sample_timestamp_error``.
4. :meth:`MultiHopProtocol.end_period` — silence bookkeeping.
5. :meth:`MultiHopProtocol.wants_root_takeover` /
   :meth:`MultiHopProtocol.on_elected_root` — the orphan-election
   hooks, consulted only while the network has no root.

The relay skeleton every scheme shares is defined here, once: the TX
schedule (root at 0, orphaned first-hop stations in segment 0,
synchronized relays backing off inside segment ``h``), the frame, and
the silence policy (count silent periods, drop the upstream, then
resync). A scheme supplies only its private hooks:

* :meth:`MultiHopProtocol._relay_turn` — whether a synchronized relay
  transmits this period (default: every period, thinned by
  ``relay_probability``);
* :meth:`MultiHopProtocol.on_receptions` — its estimator, built from the
  reception helpers :meth:`~MultiHopProtocol._choose_upstream` (sticky
  best-hop upstream), :meth:`~MultiHopProtocol._observe` (one
  ``(hw, est)`` sample per frame) and :meth:`~MultiHopProtocol._join`
  (first-contact alignment);
* :meth:`MultiHopProtocol._drop_upstream` and
  :meth:`MultiHopProtocol.reset_sync` — extended to clear the scheme's
  own estimator state.

Synchronized time must be expressed through the station's
:class:`~repro.clocks.chain.ClockChain` (mutating or replacing
``chain.adjusted``): the harness samples every station through the
chain, and the chaos/property audits (``audit_no_leaps``) read
``protocol.clock.is_monotonic`` — a protocol that stepped some private
variable instead would dodge both.

Protocols register under a short name in :data:`MULTIHOP_PROTOCOLS`
(lazy dotted paths, resolved on demand — mirroring the sweep job
registry) and declare their frame economics as class attributes
(:attr:`MultiHopProtocol.beacon_bytes`,
:attr:`MultiHopProtocol.beacon_airtime_slots`), which the harness uses
for channel delivery and airtime accounting instead of hardcoding any
one protocol's constants.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from importlib import import_module
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

import numpy as np

from repro.clocks.adjusted import AdjustedClock
from repro.clocks.chain import ClockChain
from repro.phy.params import SSTSP_BEACON_AIRTIME_SLOTS, SSTSP_BEACON_BYTES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.multihop.runner import MultiHopSpec
    from repro.multihop.topology import Topology
    from repro.network.runner import NetworkRunner


@dataclass
class MultiHopFrame:
    """One on-air multi-hop beacon.

    ``timestamp`` is the sender's *normalized* time reference: its
    synchronized-clock estimate of the period start ``T^j`` (its actual
    emission instant is ``T^j + delay_us`` on its own clock, where
    ``delay_us`` — hop segment plus backoff — is deterministic schedule
    information carried in the beacon). Receivers subtract ``delay_us``
    from the reception time too, so sample pairs sit on a clean BP grid
    and per-period backoff never pollutes rate estimation — without this
    normalisation the backoff jitter (~3 slots) compounds per hop and
    blows up the deep-hop error.

    ``tx_true`` is filled by the harness (the true-time instant the
    sender's adjusted clock reads ``T^j + delay_us``).
    """

    sender: int
    hop: int
    interval: int
    tx_true: float
    timestamp: float
    delay_us: float


class MultiHopContext:
    """The harness services a protocol hook may touch.

    One instance per run; the harness refreshes :attr:`root` and
    :attr:`orphan_election` at the top of every period. The three
    services are the callables the harness passes in, bound directly:

    * ``sample_timestamp_error()`` - one draw of per-reception
      timestamp-estimate jitter (the channel's stream, shared with every
      other lane);
    * ``state_of(node_id)`` - another station's protocol state
      (neighbour introspection, e.g. same-hop rotation counts; read-only
      by convention);
    * ``is_present(node_id)`` - whether a station is in the network.
    """

    __slots__ = (
        "spec",
        "topology",
        "slot_rng",
        "rx_latency_us",
        "root",
        "orphan_election",
        "sample_timestamp_error",
        "state_of",
        "is_present",
    )

    def __init__(
        self,
        spec: "MultiHopSpec",
        slot_rng: np.random.Generator,
        rx_latency_us: float,
        sample_timestamp_error: Callable[[], float],
        state_of: Callable[[int], "MultiHopProtocol"],
        is_present: Callable[[int], bool],
    ) -> None:
        self.spec = spec
        self.topology: "Topology" = spec.topology
        #: The shared contention RNG; every backoff/thinning draw comes
        #: from here so the draw sequence is a property of the run, not
        #: of which module hosts the drawing code.
        self.slot_rng = slot_rng
        #: Beacon airtime plus propagation: the lag between a frame's
        #: ``tx_true`` and its decode instant at any receiver.
        self.rx_latency_us = rx_latency_us
        #: Current root id (-1 while orphaned). Refreshed per period.
        self.root = spec.root
        #: True while the network has no live root. Refreshed per period.
        self.orphan_election = False
        self.sample_timestamp_error = sample_timestamp_error
        self.state_of = state_of
        self.is_present = is_present


class MultiHopProtocol(ABC):
    """Per-station multi-hop synchronization driver.

    The period hooks and the common state every scheme needs (hop
    distance, upstream, silence streak, the clock chain) live here, so
    the harness, tests and chaos audits treat any protocol uniformly;
    subclasses implement :meth:`on_receptions` and override the private
    hooks listed in the module docstring.
    """

    #: Short identifier carried in trace events (``beacon_tx`` ``proto``
    #: field) and used as the registry key / CSV tag.
    protocol_name: str = "multihop"
    #: On-air size of one beacon; the harness feeds it to the channel's
    #: delivery model (loss probability scales with size).
    beacon_bytes: int = SSTSP_BEACON_BYTES
    #: Airtime of one beacon in slots; the harness derives window
    #: segmentation and rx latency from it.
    beacon_airtime_slots: int = SSTSP_BEACON_AIRTIME_SLOTS

    def __init__(self, node_id: int, chain: ClockChain, spec: "MultiHopSpec") -> None:
        self.node_id = node_id
        self.chain = chain
        self.spec = spec
        self.hop: Optional[int] = None  # None = not yet synchronized; 0 = root
        self.upstream: Optional[int] = None
        self.silent = 0
        self.adjustments = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls, spec: "MultiHopSpec", chains: Sequence[ClockChain]
    ) -> List["MultiHopProtocol"]:
        """One station per chain. Override to wire protocol-family shared
        state (e.g. the SSTSP relay-rotation phase table)."""
        return [cls(i, chain, spec) for i, chain in enumerate(chains)]

    @classmethod
    def degenerate_runner(cls, spec: "MultiHopSpec") -> Optional["NetworkRunner"]:
        """A single-hop reference runner equivalent to ``spec`` on a
        complete graph, or ``None`` when the protocol has no single-hop
        counterpart (the harness then runs the spatial path even on
        complete topologies)."""
        return None

    # ------------------------------------------------------------------
    # Kernel surface (metrics, churn, chaos audits)
    # ------------------------------------------------------------------

    @property
    def clock(self) -> AdjustedClock:
        """The station's adjusted clock (chaos monotonicity audits read it)."""
        return self.chain.adjusted

    def reset_sync(self) -> None:
        """Discard synchronization state; re-acquire from the next beacon."""
        self._drop_upstream()
        self.hop = None
        self.silent = 0

    def synchronized_time(self, hw_time: float) -> float:
        """This station's synchronized-time estimate at ``hw_time``."""
        return self.chain.adjusted.read_current(hw_time)

    def is_synchronized(self) -> bool:
        """Whether the station is attached to the time-distribution tree."""
        return self.hop is not None

    def is_reference(self) -> bool:
        """Whether this station is the current root time source."""
        return self.hop == 0

    def on_leave(self, period: int) -> None:
        """Graceful departure keeps state (the station may return in sync)."""

    def on_return(self, period: int) -> None:
        """A returning/restarted station re-acquires from scratch."""
        self.reset_sync()

    # ------------------------------------------------------------------
    # Period hooks
    # ------------------------------------------------------------------

    def begin_period(self, period: int, ctx: MultiHopContext) -> Optional[float]:
        """TX intent: the delay (µs after the nominal period start, on
        this station's synchronized clock) at which it transmits this
        period, or ``None`` to stay quiet."""
        spec = self.spec
        if self.node_id == ctx.root:
            return 0.0
        if ctx.orphan_election and self.hop == 1 and self.silent >= spec.l:
            # orphaned children of a departed root: contend in segment 0
            slot = int(ctx.slot_rng.integers(0, self._backoff_range()))
            return slot * spec.slot_time_us
        if (
            self.hop is not None
            and self.hop >= 1
            and self.adjustments >= 1
            and self._relay_turn(period, ctx)
        ):
            slot = int(ctx.slot_rng.integers(0, self._backoff_range()))
            return (self.hop * spec.hop_stride_slots + slot) * spec.slot_time_us
        return None

    def _backoff_range(self) -> int:
        """Backoff slots usable inside a hop segment without bleeding the
        transmission into the next segment."""
        return max(1, self.spec.hop_stride_slots - self.spec.airtime_slots)

    def make_frame(
        self, period: int, delay_us: float, tx_true: float, ctx: MultiHopContext
    ) -> MultiHopFrame:
        """The frame for a transmission :meth:`begin_period` scheduled."""
        # normalized reference: the sender's clock reads exactly
        # nominal + delay at tx, so its T^j estimate is ``nominal``
        nominal = period * self.spec.beacon_period_us
        hop = (
            0
            if self.node_id == ctx.root
            else (self.hop if self.hop is not None else 0)
        )
        return MultiHopFrame(
            sender=self.node_id,
            hop=hop,
            interval=period,
            tx_true=tx_true,
            timestamp=nominal,
            delay_us=delay_us,
        )

    @abstractmethod
    def on_receptions(
        self, period: int, decoded: List[MultiHopFrame], ctx: MultiHopContext
    ) -> bool:
        """Handle the frames that decoded at this station this period
        (``decoded`` is non-empty, in transmission-time order). Returns
        whether a frame was *accepted* — decoded, fresh and
        plausibility-passing — which feeds silence tracking."""

    def end_period(self, period: int, accepted: bool, ctx: MultiHopContext) -> None:
        """Silence bookkeeping; runs for every present non-root station
        after receptions settle."""
        spec = self.spec
        if accepted:
            return
        self.silent += 1
        if self.silent > 4 * spec.l and self.upstream is not None:
            # upstream lost: detach and re-acquire from any beacon
            self._drop_upstream()
        if self.silent > spec.resync_after_periods and self.hop is not None:
            # nothing acceptable heard for a long stretch: this
            # clock has diverged beyond the guard - start over
            self.reset_sync()

    # ------------------------------------------------------------------
    # Scheme hooks
    # ------------------------------------------------------------------

    def _relay_turn(self, period: int, ctx: MultiHopContext) -> bool:
        """Whether a synchronized relay transmits this period: every
        period, thinned by ``relay_probability`` (one slot-RNG draw only
        when thinning is on)."""
        probability = self.spec.relay_probability
        return probability >= 1.0 or ctx.slot_rng.random() < probability

    def _drop_upstream(self) -> None:
        """Forget the silent upstream (and anything estimated from it)."""
        self.upstream = None

    # ------------------------------------------------------------------
    # Reception helpers
    # ------------------------------------------------------------------

    def _choose_upstream(
        self, decoded: List[MultiHopFrame]
    ) -> Optional[MultiHopFrame]:
        """The frame to synchronize to, or ``None`` to wait.

        Sorts ``decoded`` by (hop, transmission time). The current
        upstream is sticky whenever its beacon decoded (switching resets
        the estimator's history); a strictly better hop re-hangs the
        station; while the upstream is quiet the station waits up to
        ``2 l`` silent periods before taking the best frame heard."""
        decoded.sort(key=lambda tx: (tx.hop, tx.tx_true))
        best = decoded[0]
        current = next(
            (tx for tx in decoded if tx.sender == self.upstream), None
        )
        if current is not None and best.hop >= current.hop:
            return current
        if (
            current is not None
            or self.upstream is None
            or self.silent >= 2 * self.spec.l
        ):
            return best
        return None  # upstream not heard this period; stay patient

    def _observe(
        self, tx: MultiHopFrame, ctx: MultiHopContext
    ) -> Tuple[float, float]:
        """One ``(hw, est)`` sample from ``tx``: this station's hardware
        time and the sender's time estimate, both at the sender's period
        start. The sender's deterministic schedule delay is normalised
        out of the reception time (see :class:`MultiHopFrame`), and one
        timestamp-jitter draw is added to the estimate."""
        arrival = tx.tx_true + ctx.rx_latency_us
        jitter = ctx.sample_timestamp_error()
        hw = self.chain.hw.read(arrival) - tx.delay_us
        est = tx.timestamp + ctx.rx_latency_us + jitter
        return hw, est

    def _join(self, hop: int, hw: float, est: float) -> None:
        """First contact: attach at ``hop`` and align the adjusted clock's
        offset so it reads ``est`` at ``hw`` (keeping its rate)."""
        local = self.clock.read_current(hw)
        self.chain.adjusted = AdjustedClock(
            self.clock.k, self.clock.b + (est - local)
        )
        self.hop = hop
        self.silent = 0

    # ------------------------------------------------------------------
    # Orphan election
    # ------------------------------------------------------------------

    def wants_root_takeover(self, accepted: bool) -> bool:
        """While the network is orphaned: does this station volunteer as
        the new root? Default: a first-hop station that heard nothing
        acceptable (its transmission met no competing time source)."""
        return self.hop == 1 and not accepted

    def on_elected_root(self, period: int, ctx: MultiHopContext) -> None:
        """Promotion to root. The new root is the timebase: clamp away
        any transient slewing slope (same rationale as the single-hop
        reference_pace_clamp), continuously at the current time."""
        self.hop = 0
        self.upstream = None
        hw_now = self.chain.hw.read((period + 1) * self.spec.beacon_period_us)
        k_old = self.clock.k
        k_new = min(max(k_old, 1.0 - 3e-4), 1.0 + 3e-4)
        if k_new != k_old:
            self.clock.slew_to(0.0, k_new, at_local_time=hw_now)


#: Registered multi-hop protocols: short name -> "module:Class". Lazy
#: dotted paths (resolved on first use) keep this table import-cheap and
#: cycle-free, exactly like the sweep job registry.
MULTIHOP_PROTOCOLS: Dict[str, str] = {
    "sstsp": "repro.protocols.multihop_sstsp:SstspRelayProtocol",
    "beaconless": "repro.protocols.multihop_beaconless:BeaconlessProtocol",
    "coop": "repro.protocols.multihop_coop:CoopAverageProtocol",
}

_RESOLVED: Dict[str, Type[MultiHopProtocol]] = {}


def available_multihop_protocols() -> Tuple[str, ...]:
    """Registered protocol names, in registry (insertion) order."""
    return tuple(MULTIHOP_PROTOCOLS)


def resolve_multihop_protocol(name: str) -> Type[MultiHopProtocol]:
    """The protocol class registered under ``name``."""
    cached = _RESOLVED.get(name)
    if cached is not None:
        return cached
    try:
        target = MULTIHOP_PROTOCOLS[name]
    except KeyError:
        known = ", ".join(sorted(MULTIHOP_PROTOCOLS))
        raise ValueError(
            f"unknown multi-hop protocol {name!r} (known: {known})"
        ) from None
    module_name, _, attr = target.partition(":")
    cls = getattr(import_module(module_name), attr)
    if not (isinstance(cls, type) and issubclass(cls, MultiHopProtocol)):
        raise TypeError(f"{target} is not a MultiHopProtocol subclass")
    _RESOLVED[name] = cls
    return cls
