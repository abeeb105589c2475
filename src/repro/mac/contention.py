"""Beacon-window contention resolution.

One beacon window is resolved on the real time axis: every candidate
``(station, scheduled_tx_time)`` - the time its backoff timer expires as
measured in *true* time, so clock skew between stations is honoured - is
processed in time order under three rules:

1. **Cancel on reception** (802.11 TSF rule): a station whose timer expires
   at or after the end of an earlier *successful* transmission cancels its
   pending beacon.
2. **Carrier sense**: a station whose timer expires while the medium is
   busy, but more than ``cca_us`` after the busy transmission started,
   defers to the end of the busy period.
3. **Collision**: stations starting within ``cca_us`` of an ongoing
   transmission's start are inside the carrier-sense vulnerability window
   and garble it; none of the colliding frames is received by anyone.

This cascade allows several transmissions per window (collision, then a
retry group, then possibly a late success), matching the behaviour TSF
scalability studies model, and degenerates to the classic
"unique-minimum-slot wins" rule when all stations share one perfect clock.
A slot-granular shortcut of that rule (:func:`resolve_slotted`) is provided
for ablations.

:func:`contention_cascade` resolves a window group by group rather than
frame by frame. The candidates are stable-argsorted by time, so ties keep
their input order. A transmission group starting at ``start`` then spans
two prefix counts of the remaining sorted times: the frames with
``t < start + airtime_us`` are on the medium before it frees, and of
those the frames with ``t - start < cca_us`` collide into the group while
the rest defer. Deferred frames all wait for the same instant, the end of
the busy period, so they join the next group at its start: its members
are the frames whose own timers expire exactly then, then the deferred
frames in deferral order, then the later colliders. The walk stops at the
first success: every timer still pending expires at or after that frame's
end and cancels, in the same order. That order, and every member order,
is exactly the one of a frame-by-frame event queue keyed on
``(time, arrival)``; ``tests/test_contention_cascade.py`` pins the walk
against such a queue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.obs.counters import count
from repro.obs.events import emit

T = TypeVar("T")


@dataclass(frozen=True)
class Transmission:
    """One on-air transmission (possibly a collision of several frames)."""

    start_us: float
    end_us: float
    members: Tuple[int, ...]

    @property
    def success(self) -> bool:
        """True when exactly one station transmitted (decodable frame)."""
        return len(self.members) == 1


@dataclass
class ContentionResult:
    """Outcome of one beacon window."""

    transmissions: List[Transmission] = field(default_factory=list)
    cancelled: List[int] = field(default_factory=list)

    @property
    def winner(self) -> Optional[int]:
        """Station whose beacon was successfully transmitted first, if any."""
        for tx in self.transmissions:
            if tx.success:
                return tx.members[0]
        return None

    @property
    def first_success(self) -> Optional[Transmission]:
        """The first successful transmission, if any."""
        for tx in self.transmissions:
            if tx.success:
                return tx
        return None

    @property
    def collisions(self) -> int:
        """Number of collided transmissions in the window."""
        return sum(1 for tx in self.transmissions if not tx.success)


#: Half-open range of positions in a window's time-sorted candidate order.
Span = Tuple[int, int]


class Cascade(NamedTuple):
    """Raw outcome of :func:`contention_cascade`.

    ``ids`` holds the candidates in (time, input) order; every
    transmission's members and the cancelled stations are spans of it,
    listed in the order the cascade meets them.
    """

    ids: np.ndarray
    #: ``(start_us, end_us, member_spans)`` per transmission, in air order.
    groups: List[Tuple[float, float, Tuple[Span, ...]]]
    cancelled: Tuple[Span, ...] = ()

    def members(self, spans: Tuple[Span, ...]) -> Tuple[int, ...]:
        """The station ids of ``spans``, concatenated."""
        out: List[int] = []
        for lo, hi in spans:
            out.extend(self.ids[lo:hi].tolist())
        return tuple(out)

    @property
    def succeeded(self) -> bool:
        """Whether the window ended in a successful (single-frame) transmission."""
        if not self.groups:
            return False
        return sum(hi - lo for lo, hi in self.groups[-1][2]) == 1

    @property
    def collisions(self) -> int:
        """Collided transmissions; only the last one can be the success."""
        return len(self.groups) - 1 if self.succeeded else len(self.groups)


def _span_walk(
    t: np.ndarray, airtime_us: float, cca_us: float
) -> Tuple[List[Tuple[float, float, Tuple[Span, ...]]], Tuple[Span, ...]]:
    """Group-wise cascade over sorted times ``t`` (see module docstring).

    Returns the transmissions and the cancelled spans. Frames before
    ``p`` are decided, except the ones the last group deferred: those
    are ``[d_lo, d_hi)`` and wait for ``wait``, at or before every frame
    from ``p`` on.
    """
    n = t.shape[0]
    groups: List[Tuple[float, float, Tuple[Span, ...]]] = []
    p = d_lo = d_hi = 0
    wait = 0.0
    while d_lo < d_hi or p < n:
        if d_lo == d_hi:
            start = float(t[p])
            # the first frame opens the group even if ``end`` rounds onto it
            tied = p + 1
        else:
            # The deferred frames go right after the timers expiring at
            # ``wait``, and all of them join: a group that deferred a frame
            # spans two representable instants, so ``wait + airtime_us``
            # cannot round back onto ``wait``.
            start = wait
            tied = int(t.searchsorted(start, "right"))
        end = start + airtime_us
        hi = max(int(t.searchsorted(end)), tied)
        joined = tied + int(np.count_nonzero(t[tied:hi] - start < cca_us))
        groups.append((start, end, ((p, tied), (d_lo, d_hi), (tied, joined))))
        if joined - p + d_hi - d_lo == 1:
            # cancelled like the next group would have formed
            tied = int(t.searchsorted(end, "right"))
            return groups, ((hi, tied), (joined, hi), (tied, n))
        p, d_lo, d_hi, wait = hi, joined, hi, end
    return groups, ()


def contention_cascade(
    ids: np.ndarray,
    times: np.ndarray,
    airtime_us: float,
    cca_us: float,
) -> Cascade:
    """Resolve one beacon window over candidate arrays.

    ``ids[i]`` is a station and ``times[i]`` the true time its backoff
    timer expires; :func:`resolve_contention` is the validated pair-list
    front end. Counts one ``mac.contention_round`` and emits the
    ``contention_win`` event of the first success.
    """
    if airtime_us <= 0 or cca_us <= 0:
        raise ValueError("airtime_us and cca_us must be > 0")
    n = times.shape[0]
    count("mac.contention_round")
    count("mac.contention_candidates", n)
    if n == 1:
        # the reference lane's usual window: no sort, no walk
        start = float(times[0])
        cascade = Cascade(ids, [(start, start + airtime_us, ((0, 1),))])
    else:
        order = np.argsort(times, kind="stable")
        groups, cancelled = _span_walk(times[order], airtime_us, cca_us)
        cascade = Cascade(ids[order], groups, cancelled)
    if cascade.succeeded:
        start, _, spans = cascade.groups[-1]
        emit(
            "contention_win",
            t_us=start,
            node=cascade.members(spans)[0],
            contenders=n,
            collisions=cascade.collisions,
        )
    return cascade


def resolve_contention(
    candidates: Sequence[Tuple[int, float]],
    airtime_us: float,
    cca_us: float,
) -> ContentionResult:
    """Resolve one beacon window.

    Parameters
    ----------
    candidates:
        ``(station, scheduled_tx_true_time_us)`` pairs; a station appears at
        most once.
    airtime_us:
        Time one beacon occupies the medium.
    cca_us:
        Carrier-sense vulnerability window (see module docstring).

    Notes
    -----
    Cancellation uses the *successful transmission* itself, not the
    per-receiver packet-error draw - i.e. we assume the cancelling station
    heard the beacon. With the paper's PER of 1e-4 the distinction is
    negligible and this is the standard simplification.
    """
    seen = set()
    for station, _ in candidates:
        if station in seen:
            raise ValueError(f"station {station} listed twice in contention")
        seen.add(station)

    cascade = contention_cascade(
        np.array([station for station, _ in candidates], dtype=np.int64),
        np.array([t for _, t in candidates], dtype=np.float64),
        airtime_us,
        cca_us,
    )
    return ContentionResult(
        [
            Transmission(start, end, cascade.members(spans))
            for start, end, spans in cascade.groups
        ],
        list(cascade.members(cascade.cancelled)),
    )


def partition_domains(
    candidates: Sequence[T],
    member_ids: Sequence[int],
    groups: Optional[Dict[int, int]],
    candidate_id: Callable[[T], int] = lambda c: c[0],  # type: ignore[index]
) -> List[Tuple[List[T], List[int]]]:
    """Split one beacon window into independent hearing domains.

    ``groups`` maps node id -> partition group (a network-partition
    fault); ``None`` means the medium is whole and everything resolves
    in a single domain. Nodes missing from ``groups`` are isolated from
    every listed group (they match no group id), mirroring how a
    physical partition silences stragglers. Returns
    ``(domain_candidates, domain_member_ids)`` pairs in sorted group
    order; each domain runs its own contention cascade, which is how
    two references can coexist until the network heals.
    """
    if groups is None:
        return [(list(candidates), list(member_ids))]
    domains: List[Tuple[List[T], List[int]]] = []
    for group in sorted(set(groups.values())):
        members = [nid for nid in member_ids if groups.get(nid) == group]
        domain_candidates = [
            c for c in candidates if groups.get(candidate_id(c)) == group
        ]
        domains.append((domain_candidates, members))
    return domains


@dataclass
class NeighborhoodResult:
    """Outcome of spatial carrier sensing over one beacon window."""

    #: ``(station, start_time)`` of every transmission that went on air,
    #: in start-time order.
    kept: List[Tuple[int, float]] = field(default_factory=list)
    #: Stations that sensed the medium busy and cancelled.
    cancelled: List[int] = field(default_factory=list)


def resolve_neighborhood(
    candidates: Sequence[Tuple[int, float]],
    airtime_us: float,
    hears: Callable[[int], Iterable[int]],
) -> NeighborhoodResult:
    """Carrier sensing over an arbitrary hearing graph.

    The single-hop cascade (:func:`resolve_contention`) assumes every
    station hears every other; in a spatial network a transmission only
    silences the sender's audible neighborhood, so several transmissions
    can legitimately share a window (spatial reuse) and hidden terminals
    can still collide at a receiver. This resolver generalises the
    busy-medium rule to arbitrary per-station hearing sets:

    * candidates are processed in scheduled-time order (ties in input
      order, matching the deterministic engines);
    * a station whose medium is busy at its scheduled instant cancels
      (relays do not defer: they retry next period's window);
    * a transmission marks every station in ``hears(sender)`` busy until
      the frame ends.

    Receiver-side collision grouping (two audible frames overlapping at
    one receiver) is the channel's job, not the MAC's — see
    :meth:`repro.phy.channel.SpatialBroadcastChannel.deliver_window`.
    """
    if airtime_us <= 0:
        raise ValueError("airtime_us must be > 0")
    count("mac.neighborhood_round")
    count("mac.contention_candidates", len(candidates))
    result = NeighborhoodResult()
    busy_until: Dict[int, float] = {}
    for station, start in sorted(candidates, key=lambda c: c[1]):
        if busy_until.get(station, -math.inf) > start:
            result.cancelled.append(station)
            continue
        result.kept.append((station, start))
        emit(
            "contention_win",
            t_us=start,
            node=station,
            contenders=len(candidates),
        )
        end = start + airtime_us
        for neighbor in hears(station):
            if end > busy_until.get(neighbor, -math.inf):
                busy_until[neighbor] = end
    return result


def draw_slots(
    stations: Sequence[int],
    w: int,
    rng: np.random.Generator,
) -> Dict[int, int]:
    """Draw one uniform backoff slot in ``[0, w]`` per station.

    The standard defines the beacon generation window as ``w + 1`` slots,
    with the delay uniform over them.
    """
    if w < 0:
        raise ValueError(f"w must be >= 0, got {w}")
    if not stations:
        return {}
    count("mac.slot_draws", len(stations))
    slots = rng.integers(0, w + 1, size=len(stations))
    return {station: int(slot) for station, slot in zip(stations, slots)}


def resolve_slotted(slots: Dict[int, int]) -> Tuple[Optional[int], bool]:
    """Classic slot-granular rule: the unique minimum slot wins.

    Returns ``(winner, collided)``: ``winner`` is the station holding the
    unique smallest slot or None; ``collided`` is True when two or more
    stations shared the smallest slot (no beacon that window). This is the
    approximation the vectorised fast lane uses; the cascade above is the
    reference behaviour.
    """
    if not slots:
        return None, False
    min_slot = min(slots.values())
    holders = [s for s, slot in slots.items() if slot == min_slot]
    if len(holders) == 1:
        return holders[0], False
    return None, True
