"""SSTSP relaying as a :class:`MultiHopProtocol` (the reference scheme).

This is the paper's protocol extended to multi-hop, verbatim from the
original monolithic ``multihop/runner.py`` (the refactor-parity fixtures
pin bit-identity): one root beacons every BP; every synchronized node at
hop ``h`` relays inside the ``h``-th segment of the beacon window (small
random backoff inside the segment, so same-hop relayers decorrelate),
letting the time wave cross the whole diameter within one BP.

Receivers run the unchanged SSTSP pipeline against their best upstream
(lowest hop, then earliest): per-relayer uTESLA material (modeled backend
semantics), the guard time, and the (k, b) slewing of equations (2)-(5) —
with one generalisation: the convergence target extrapolates the
*upstream's* timestamp grid (``ts1 + (j + m - j1) * BP``) instead of the
global ``T^{j+m}`` grid, because a relay's emission instant includes its
hop segment and backoff. For the root's direct children the two coincide.

Trust model (documented limit, inherited from delegating through
relayers): uTESLA authenticates *who relayed*, not that the relayed value
is honest; a compromised relayer can therefore shift its whole subtree —
but only within the guard time per beacon, exactly the paper's insider
bound, now per subtree.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.clocks.adjusted import AdjustedClock, MonotonicityError
from repro.clocks.chain import ClockChain
from repro.core.adjustment import (
    AdjustmentSample,
    DegenerateSamplesError,
    solve_adjustment,
)
from repro.core.config import SstspConfig
from repro.network.ibss import ScenarioSpec, build_sstsp_network
from repro.obs.context import count, emit
from repro.phy.params import (
    SSTSP_BEACON_AIRTIME_SLOTS,
    SSTSP_BEACON_BYTES,
    PhyParams,
)
from repro.protocols.multihop_base import (
    MultiHopContext,
    MultiHopFrame,
    MultiHopProtocol,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.multihop.runner import MultiHopSpec
    from repro.network.runner import NetworkRunner


class _RotationTable:
    """Relay-rotation state, shared by a protocol family.

    :attr:`phase` holds the phase assignments, keyed ``(node, hop,
    cycle)`` so a station is re-colored when its hop (and thus its
    conflict set) changes. :meth:`same_hop_count` serves every station's
    same-hop two-hop count from one snapshot per period: hops and
    presence do not change while the harness collects a period's
    transmissions, so the snapshot is exact for every caller of that
    period.
    """

    __slots__ = ("phase", "_period", "_same_hop")

    def __init__(self) -> None:
        self.phase: Dict[Tuple[int, Optional[int], int], int] = {}
        self._period: Optional[int] = None
        self._same_hop: List[int] = []

    def same_hop_count(self, node: int, period: int, ctx: MultiHopContext) -> int:
        """Present stations within two hops of ``node`` on ``node``'s hop."""
        if period != self._period:
            self._same_hop = self._snapshot(ctx)
            self._period = period
        return self._same_hop[node]

    @staticmethod
    def _snapshot(ctx: MultiHopContext) -> List[int]:
        topology = ctx.topology
        nodes, others = topology.two_hop_index()
        if nodes.size:
            count("mac.two_hop_visit", int(nodes.size))
        stations = range(topology.n)
        raw_hops = [ctx.state_of(i).hop for i in stations]
        # -1 stands for "no hop yet" (real hops are >= 0).
        hops = np.array([-1 if h is None else h for h in raw_hops], dtype=np.int64)
        present = np.array([ctx.is_present(i) for i in stations], dtype=bool)
        same = present[others] & (hops[others] == hops[nodes])
        return np.bincount(nodes[same], minlength=topology.n).tolist()


class SstspRelayProtocol(MultiHopProtocol):
    """One station's SSTSP relay driver."""

    protocol_name = "sstsp"
    beacon_bytes = SSTSP_BEACON_BYTES
    beacon_airtime_slots = SSTSP_BEACON_AIRTIME_SLOTS

    def __init__(
        self,
        node_id: int,
        chain: ClockChain,
        spec: "MultiHopSpec",
        rotation: Optional[_RotationTable] = None,
    ) -> None:
        super().__init__(node_id, chain, spec)
        self._rotation = rotation if rotation is not None else _RotationTable()
        self.samples: List[AdjustmentSample] = []
        self.pending: Optional[Tuple[int, float, float]] = None

    @classmethod
    def build(
        cls, spec: "MultiHopSpec", chains: Sequence[ClockChain]
    ) -> List[MultiHopProtocol]:
        rotation = _RotationTable()
        return [cls(i, chain, spec, rotation) for i, chain in enumerate(chains)]

    def reset_sync(self) -> None:
        super().reset_sync()
        self.samples.clear()
        self.pending = None

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------

    def begin_period(self, period: int, ctx: MultiHopContext) -> Optional[float]:
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

    def make_frame(
        self, period: int, delay_us: float, tx_true: float, ctx: MultiHopContext
    ) -> MultiHopFrame:
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

    def _backoff_range(self) -> int:
        """Backoff slots usable inside a hop segment without bleeding the
        transmission into the next segment."""
        return max(1, self.spec.hop_stride_slots - self.spec.airtime_slots)

    def _relay_turn(self, period: int, ctx: MultiHopContext) -> bool:
        """Relay scheduling with deterministic same-hop rotation.

        With every same-hop station relaying every BP, dense neighbourhoods
        collide persistently; with *random* thinning, receivers keep
        flipping upstreams (each flip resets their sample history). A
        deterministic rotation - each station relays every K-th period at
        a fixed (randomly drawn, then frozen) phase - cuts collisions while
        keeping each upstream's beacons periodic, so downstream sample
        pairs stay within the pair-gap limit.

        The rotation counts same-hop stations over the *two-hop*
        neighbourhood: hidden terminals (same-hop stations out of carrier-
        sense range but sharing a receiver) are exactly the pairs that
        carrier sensing cannot separate.
        """
        spec = self.spec
        if spec.relay_probability < 1.0:
            return ctx.slot_rng.random() < spec.relay_probability
        same_hop = self._rotation.same_hop_count(self.node_id, period, ctx)
        if same_hop == 0:
            return True
        cycle = min(4, 1 + same_hop)
        return period % cycle == self._relay_phase_for(cycle, ctx)

    def _relay_phase_for(self, cycle: int, ctx: MultiHopContext) -> int:
        """Greedy phase coloring over the same-hop/2-hop conflict graph.

        Two hidden same-hop stations with *equal* fixed phases would
        collide forever at their common receivers; purely random per-period
        draws starve dense neighbourhoods instead. Greedily picking the
        phase least used by already-colored conflicting stations keeps
        relaying periodic (downstream sample pairs stay fresh) while
        resolving the permanent-collision cases. Phases are re-colored
        when a station's hop (and thus its conflict set) changes.
        """
        table = self._rotation.phase
        key = (self.node_id, self.hop, cycle)
        phase = table.get(key)
        if phase is not None:
            return phase
        used = [0] * cycle
        for other in self.spec.topology.two_hop_neighbors(self.node_id):
            other_state = ctx.state_of(other)
            if other_state.hop != self.hop:
                continue
            other_phase = table.get((other, other_state.hop, cycle))
            if other_phase is not None:
                used[other_phase] += 1
        least = min(used)
        candidates = [p for p, uses in enumerate(used) if uses == least]
        phase = candidates[self.node_id % len(candidates)]
        table[key] = phase
        return phase

    # ------------------------------------------------------------------
    # Reception
    # ------------------------------------------------------------------

    def on_receptions(
        self, period: int, decoded: List[MultiHopFrame], ctx: MultiHopContext
    ) -> bool:
        spec = self.spec
        # Upstream selection: stick with the current upstream whenever
        # its beacon decoded (switching resets the sample history);
        # switch only to a strictly better hop, or when the current
        # upstream went quiet.
        decoded.sort(key=lambda tx: (tx.hop, tx.tx_true))
        best = decoded[0]
        current = next(
            (tx for tx in decoded if tx.sender == self.upstream), None
        )
        if current is not None and best.hop >= current.hop:
            chosen = current
        elif current is not None and best.hop < current.hop:
            chosen = best  # strictly better hop: re-hang
        elif self.upstream is None or self.silent >= 2 * spec.l:
            chosen = best
        else:
            return False  # upstream not heard this period; stay patient
        arrival = chosen.tx_true + ctx.rx_latency_us
        jitter = ctx.sample_timestamp_error()
        # normalise out the sender's deterministic schedule delay (see
        # MultiHopFrame): both sides of the sample sit on the BP grid
        hw = self.chain.hw.read(arrival) - chosen.delay_us
        est = chosen.timestamp + ctx.rx_latency_us + jitter
        local = self.clock.read_current(hw)
        if self.hop is None:
            # first contact: loose initialisation (the coarse phase of
            # a joiner, collapsed to one sample for founding nodes that
            # are loosely synchronized already)
            self.chain.adjusted = AdjustedClock(
                self.clock.k, self.clock.b + (est - local)
            )
            self.hop = chosen.hop + 1
            self.upstream = chosen.sender
            self.silent = 0
            return True
        guard = spec.guard_fine_us + spec.guard_per_hop_us * (chosen.hop + 1)
        if abs(est - local) > guard:
            emit(
                "guard_reject",
                t_us=local,
                node=self.node_id,
                diff_us=abs(est - local),
                threshold_us=guard,
            )
            return False  # guard time: replayed/delayed/forged or far drift
        silent_before = self.silent
        self.silent = 0
        better_hop = chosen.hop + 1 < self.hop
        if chosen.sender != self.upstream:
            if (
                better_hop
                or self.upstream is None
                or silent_before >= 2 * spec.l
            ):
                self.upstream = chosen.sender
                self.hop = chosen.hop + 1
                self.samples.clear()
                self.pending = None
            else:
                return True  # stick with the current upstream
        else:
            self.hop = chosen.hop + 1
        # uTESLA delayed authentication: last period's pending
        # observation from this upstream becomes a sample now
        if self.pending is not None and self.pending[0] < period:
            interval, p_hw, p_est = self.pending
            self.samples.append(AdjustmentSample(interval, p_hw, p_est))
            del self.samples[:-2]
        self.pending = (period, hw, est)
        self._try_adjust(period, hw)
        return True

    def _try_adjust(self, period: int, hw_now: float) -> None:
        spec = self.spec
        if len(self.samples) < 2:
            return
        newest, older = self.samples[-1], self.samples[-2]
        # freshness limits sized to the relay rotation: an upstream on a
        # cycle-4 rotation yields samples up to 4 periods apart
        if period - newest.interval > 6 or newest.interval - older.interval > 9:
            return
        # generalised equation (5): extrapolate the upstream's own grid
        target = newest.ref_timestamp + (
            period + spec.m - newest.interval
        ) * spec.beacon_period_us
        try:
            k, b = solve_adjustment(
                self.clock.k, self.clock.b, hw_now, newest, older, target
            )
        except DegenerateSamplesError:
            return
        if abs(k - 1.0) > spec.k_clamp:
            return
        try:
            self.clock.adjust(k, b, hw_now)
        except MonotonicityError:
            return
        self.adjustments += 1

    # ------------------------------------------------------------------
    # Silence
    # ------------------------------------------------------------------

    def end_period(self, period: int, accepted: bool, ctx: MultiHopContext) -> None:
        spec = self.spec
        if accepted:
            return
        self.silent += 1
        if self.silent > 4 * spec.l and self.upstream is not None:
            # upstream lost: detach and re-acquire from any beacon
            self.samples.clear()
            self.pending = None
            self.upstream = None
        if self.silent > spec.resync_after_periods and self.hop is not None:
            # nothing acceptable heard for a long stretch: this
            # clock has diverged beyond the guard - start over
            self.reset_sync()

    # ------------------------------------------------------------------
    # Single-hop (complete-graph) counterpart
    # ------------------------------------------------------------------

    @classmethod
    def single_hop_lane(
        cls, spec: "MultiHopSpec"
    ) -> Tuple[ScenarioSpec, SstspConfig]:
        """Translate a complete-graph multi-hop spec to the single-hop lane.

        On a complete graph every station hears every other, hop distances
        are all 1 and the relay machinery degenerates to the IBSS election;
        the returned ``(scenario, config)`` pair builds the reference
        :class:`~repro.network.runner.NetworkRunner` with the same clocks,
        channel parameters and protocol constants (the per-hop guard
        collapses to ``guard_fine + guard_per_hop`` - one hop).
        """
        phy = PhyParams(
            slot_time_us=spec.slot_time_us,
            beacon_airtime_slots=spec.airtime_slots,
            propagation_delay_us=spec.propagation_delay_us,
            timestamp_jitter_us=spec.timestamp_jitter_us,
            packet_error_rate=spec.packet_error_rate,
            loss_model=spec.loss_model,
        )
        scenario = ScenarioSpec(
            n=spec.topology.n,
            seed=spec.seed,
            duration_s=spec.duration_s,
            beacon_period_us=spec.beacon_period_us,
            drift_ppm=spec.drift_ppm,
            initial_offset_us=spec.initial_offset_us,
            phy=phy,
        )
        config = SstspConfig(
            beacon_period_us=spec.beacon_period_us,
            slot_time_us=spec.slot_time_us,
            l=spec.l,
            m=spec.m,
            guard_fine_us=spec.guard_fine_us + spec.guard_per_hop_us,
            k_clamp=spec.k_clamp,
            rx_latency_us=(
                spec.airtime_slots * spec.slot_time_us
                + spec.propagation_delay_us
            ),
        )
        return scenario, config

    @classmethod
    def degenerate_runner(cls, spec: "MultiHopSpec") -> Optional["NetworkRunner"]:
        scenario, config = cls.single_hop_lane(spec)
        return build_sstsp_network(scenario, config=config)
