"""Differential test: array spatial delivery vs the receiver scan.

:mod:`tests.delivery_oracle` keeps the receiver-scan loop
:meth:`repro.phy.channel.SpatialBroadcastChannel.deliver_window` used
before it became array operations. Every window sequence here must
resolve identically through both: the same :class:`WindowDelivery`, and
after every window the same :class:`ChannelStats`, RNG and burst-chain
state and work counters (the array path adds only ``phy.heard_pair``,
which must equal the senders' summed degrees).

The second half pins the SSTSP relay rotation's per-period same-hop
snapshot to the brute-force two-hop sum it replaced.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.multihop import MultiHopRunner, MultiHopSpec, Topology
from repro.obs import WorkCounters, instrument
from repro.phy.channel import SpatialBroadcastChannel
from repro.phy.params import PhyParams
from tests import delivery_oracle as oracle

Window = Tuple[List[Tuple[int, float]], List[int]]


@dataclass
class Scenario:
    """One channel configuration plus the windows pushed through it."""

    topology: Topology
    windows: List[Window]
    airtime_us: float = 63.0
    loss_model: str = "per_receiver"
    packet_error_rate: float = 0.1
    per_override: Optional[float] = None
    groups: Optional[Dict[int, int]] = None
    jams: List[Tuple[float, float]] = field(default_factory=list)
    scoped_jams: List[Tuple[float, float, Tuple[int, ...]]] = field(
        default_factory=list
    )
    link_per: Dict[Tuple[int, int], float] = field(default_factory=dict)
    seed: int = 0


def _run(scenario: Scenario, deliver):
    phy = PhyParams(
        packet_error_rate=scenario.packet_error_rate,
        loss_model=scenario.loss_model,
        ge_p_good_to_bad=0.3,
        ge_p_bad_to_good=0.3,
    )
    channel = SpatialBroadcastChannel(
        phy, np.random.default_rng(scenario.seed), scenario.topology
    )
    for start, end in scenario.jams:
        channel.add_jam_window(start, end)
    for start, end, targets in scenario.scoped_jams:
        channel.add_jam_window(start, end, receivers=targets)
    for (sender, receiver), per in scenario.link_per.items():
        channel.set_link_per(sender, receiver, per)
    channel.set_per_override(scenario.per_override)
    audible = None
    if scenario.groups is not None:
        groups = scenario.groups

        def audible(receiver: int, sender: int) -> bool:
            return groups.get(receiver) == groups.get(sender)

    outcomes = []
    states = []
    work = WorkCounters()
    with instrument(counters=work):
        for transmissions, receivers in scenario.windows:
            delivery = deliver(
                channel,
                transmissions,
                receivers,
                scenario.airtime_us,
                size_bytes=92,
                audible=audible,
            )
            outcomes.append((delivery.receptions, delivery.collisions))
            # Everything a window leaves behind, checked window by window.
            states.append(
                (
                    replace(channel.stats),
                    channel._rng.bit_generator.state,
                    channel._ge_bad,
                    work.snapshot(),
                )
            )
    return outcomes, states, work.snapshot()


def _new(channel, *args, **kwargs):
    return channel.deliver_window(*args, **kwargs)


def _without_heard_pairs(states):
    return [
        (stats, rng, ge_bad, {k: v for k, v in work.items() if k != "phy.heard_pair"})
        for stats, rng, ge_bad, work in states
    ]


def assert_same_delivery(scenario: Scenario):
    """Both delivery paths agree on every window of ``scenario``: the
    receptions and collisions, and after each window the channel stats,
    the RNG and burst-chain state and the ``phy.*`` counters."""
    got, got_states, got_work = _run(scenario, _new)
    want, want_states, want_work = _run(scenario, oracle.deliver_window)
    assert got == want
    assert _without_heard_pairs(got_states) == _without_heard_pairs(want_states)
    heard = got_work.pop("phy.heard_pair", 0)
    assert got_work == want_work
    topology = scenario.topology
    assert heard == sum(
        topology.degree(sender)
        for transmissions, _receivers in scenario.windows
        for sender, _start in transmissions
    )
    return got


# ----------------------------------------------------------------------
# Generated scenarios
# ----------------------------------------------------------------------


@st.composite
def topologies(draw):
    kind = draw(st.sampled_from(["grid", "chain", "unit_disk"]))
    if kind == "grid":
        return Topology.grid(
            draw(st.integers(1, 5)),
            draw(st.integers(1, 5)),
            diagonal=draw(st.booleans()),
        )
    if kind == "chain":
        return Topology.chain(draw(st.integers(1, 12)))
    return Topology.unit_disk(
        draw(st.integers(2, 14)),
        np.random.default_rng(draw(st.integers(0, 2**16))),
        area_m=500.0,
        radius_m=draw(st.sampled_from([120.0, 200.0, 320.0])),
        require_connected=False,
    )


@st.composite
def windows(draw, n):
    """Unique senders in arbitrary order; slot-aligned starts with ties,
    ULP-close neighbours and sub-slot offsets; an ascending receiver set."""
    senders = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    transmissions = [
        (
            sender,
            draw(st.integers(0, 24)) * 9.0
            + draw(st.sampled_from([0.0, 0.0, 1e-9, 0.5, 4.5])),
        )
        for sender in senders
    ]
    if draw(st.booleans()):
        receivers = list(range(n))
    else:
        receivers = sorted(
            draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        )
    return transmissions, receivers


@st.composite
def scenarios(draw):
    topology = draw(topologies())
    n = topology.n
    scenario = Scenario(
        topology=topology,
        windows=draw(st.lists(windows(n), min_size=1, max_size=3)),
        airtime_us=draw(st.sampled_from([63.0, 36.0, 9.0])),
        loss_model=draw(
            st.sampled_from(["per_receiver", "per_transmission", "gilbert_elliott"])
        ),
        packet_error_rate=draw(st.sampled_from([0.0, 1e-4, 0.3, 1.0])),
        per_override=draw(st.sampled_from([None, None, 0.0, 0.5, 1.0])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    if draw(st.booleans()):
        scenario.groups = {
            node: draw(st.integers(0, 2)) for node in range(n)
        }
    span = st.tuples(st.integers(0, 200), st.integers(1, 80))
    scenario.jams = [
        (float(start), float(start + length))
        for start, length in draw(st.lists(span, max_size=2))
    ]
    scenario.scoped_jams = [
        (
            float(start),
            float(start + length),
            tuple(draw(st.lists(st.integers(0, n - 1), max_size=n))),
        )
        for start, length in draw(st.lists(span, max_size=2))
    ]
    for sender in draw(st.lists(st.integers(0, n - 1), max_size=4)):
        neighbors = topology.neighbors(sender)
        if neighbors:
            receiver = draw(st.sampled_from(neighbors))
            scenario.link_per[(sender, receiver)] = draw(
                st.sampled_from([0.0, 1.0, 0.3, 0.8])
            )
    return scenario


@settings(max_examples=400, deadline=None)
@given(scenarios())
def test_generated_windows_match_receiver_scan(scenario):
    assert_same_delivery(scenario)


# ----------------------------------------------------------------------
# Fixed seeds and edge cases
# ----------------------------------------------------------------------


def _random_scenario(seed: int, topology: Topology, **overrides) -> Scenario:
    """Runner-shaped windows: relays spread over hop segments."""
    rng = np.random.default_rng(seed)
    n = topology.n
    window_list: List[Window] = []
    for _ in range(4):
        senders = rng.permutation(n)[: rng.integers(0, n + 1)]
        hop = rng.integers(0, 6, size=senders.size)
        backoff = rng.integers(0, 9, size=senders.size)
        starts = (hop * 16 + backoff) * 9.0 + rng.uniform(0.0, 1e-6, senders.size)
        order = np.argsort(starts, kind="stable")
        transmissions = [(int(senders[i]), float(starts[i])) for i in order]
        present = np.flatnonzero(rng.random(n) < 0.9)
        window_list.append((transmissions, present.tolist()))
    return Scenario(topology=topology, windows=window_list, seed=seed, **overrides)


FIXED_TOPOLOGIES = {
    "grid6x6": lambda: Topology.grid(6, 6),
    "grid5x5-diag": lambda: Topology.grid(5, 5, diagonal=True),
    "chain24": lambda: Topology.chain(24),
    "disk30": lambda: Topology.unit_disk(
        30, np.random.default_rng(4), area_m=800.0, radius_m=260.0
    ),
}


@pytest.mark.parametrize("name", sorted(FIXED_TOPOLOGIES))
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "loss_model", ["per_receiver", "per_transmission", "gilbert_elliott"]
)
def test_fixed_seed_windows_match_receiver_scan(name, seed, loss_model):
    topology = FIXED_TOPOLOGIES[name]()
    assert_same_delivery(
        _random_scenario(
            seed, topology, loss_model=loss_model, packet_error_rate=0.2
        )
    )


@pytest.mark.parametrize("per_override", [0.0, 0.4, 1.0])
def test_fault_override_matches_receiver_scan(per_override):
    scenario = _random_scenario(3, Topology.grid(5, 5), per_override=per_override)
    assert_same_delivery(scenario)


def test_partition_jams_and_link_per_match_receiver_scan():
    topology = Topology.grid(5, 5)
    scenario = _random_scenario(
        8,
        topology,
        groups={node: node % 5 // 3 for node in range(topology.n)},
        jams=[(100.0, 180.0)],
        scoped_jams=[(0.0, 500.0, (0, 6, 12, 18, 24))],
        link_per={(1, 0): 0.0, (0, 1): 1.0, (7, 12): 0.5, (12, 7): 1.0},
    )
    assert_same_delivery(scenario)


@pytest.mark.parametrize(
    "loss_model", ["per_receiver", "per_transmission", "gilbert_elliott"]
)
@pytest.mark.parametrize("packet_error_rate", [0.0, 0.2, 1.0])
@pytest.mark.parametrize("per_override", [None, 0.0, 0.4, 1.0])
def test_loss_models_per_zero_and_override_match_receiver_scan(
    loss_model, packet_error_rate, per_override
):
    scenario = _random_scenario(
        5,
        Topology.grid(5, 5, diagonal=True),
        loss_model=loss_model,
        packet_error_rate=packet_error_rate,
        per_override=per_override,
    )
    assert_same_delivery(scenario)


# One spatial effect at a time, on top of each loss model.
EFFECTS = {
    "partition": dict(groups={node: node % 5 // 2 for node in range(25)}),
    "global-jam": dict(jams=[(50.0, 140.0), (300.0, 420.0)]),
    "scoped-jam": dict(
        scoped_jams=[(0.0, 300.0, (0, 6, 12, 18, 24)), (200.0, 900.0, (7, 8))]
    ),
    "link-per-0": dict(link_per={(1, 0): 0.0, (6, 7): 0.0, (12, 13): 0.0}),
    "link-per-1": dict(link_per={(1, 0): 1.0, (6, 7): 1.0, (12, 13): 1.0}),
    "link-per-mid": dict(link_per={(1, 0): 0.5, (6, 7): 0.3, (12, 13): 0.9}),
}


@pytest.mark.parametrize("effect", sorted(EFFECTS))
@pytest.mark.parametrize(
    "loss_model", ["per_receiver", "per_transmission", "gilbert_elliott"]
)
@pytest.mark.parametrize("seed", range(3))
def test_each_spatial_effect_matches_receiver_scan(effect, loss_model, seed):
    scenario = _random_scenario(
        seed,
        Topology.grid(5, 5),
        loss_model=loss_model,
        packet_error_rate=0.2,
        **EFFECTS[effect],
    )
    assert_same_delivery(scenario)


def test_empty_windows_match_receiver_scan():
    topology = Topology.grid(3, 3)
    windows = [
        ([], []),
        ([(0, 9.0), (8, 90.0)], []),
        ([], list(range(9))),
        ([(4, 9.0)], [4]),  # the only listener is the sender itself
    ]
    for loss_model in ("per_receiver", "per_transmission", "gilbert_elliott"):
        scenario = Scenario(
            topology=topology, windows=windows, loss_model=loss_model
        )
        assert assert_same_delivery(scenario) == [({}, 0)] * 4


def test_isolated_stations_match_receiver_scan():
    import networkx as nx

    graph = nx.path_graph(5)
    graph.add_nodes_from(range(5, 8))  # three stations nobody hears
    topology = Topology(graph)
    windows = [
        ([(5, 0.0), (2, 9.0), (6, 9.0), (0, 90.0)], list(range(8))),
        ([(5, 0.0), (6, 0.0), (7, 0.0)], list(range(8))),
        ([(1, 0.0), (3, 80.0)], [0, 2, 4, 5, 6, 7]),
    ]
    got = assert_same_delivery(Scenario(topology=topology, windows=windows))
    assert got[1] == ({}, 0)
    for receptions, _collisions in got:
        assert not set(receptions) & {5, 6, 7}


def test_receiver_order_does_not_change_the_draws():
    """Receivers resolve in ascending id whatever order they come in."""
    scenario = _random_scenario(2, Topology.grid(5, 5), packet_error_rate=0.3)
    shuffled = Scenario(
        topology=scenario.topology,
        windows=[
            (transmissions, receivers[::-1])
            for transmissions, receivers in scenario.windows
        ],
        packet_error_rate=0.3,
        seed=scenario.seed,
    )
    assert _run(shuffled, _new) == _run(scenario, _new)


def test_zero_transmission_window_adds_no_attempt_or_pair_keys():
    topology = Topology.grid(3, 3)
    scenario = Scenario(topology=topology, windows=[([], list(range(9)))])
    assert assert_same_delivery(scenario) == [({}, 0)]
    _outcomes, _state, work = _run(scenario, _new)
    assert work == {"phy.window": 1}


def test_all_colliding_window_decodes_nothing():
    topology = Topology.grid(4, 4)
    transmissions = [(node, 27.0) for node in (5, 0, 10, 15, 3)]
    scenario = Scenario(topology=topology, windows=[(transmissions, list(range(16)))])
    [(_receptions, collisions)] = assert_same_delivery(scenario)
    assert collisions > 0
    _outcomes, _state, work = _run(scenario, _new)
    assert work["phy.collision_group"] == collisions


def test_fully_collided_window_draws_nothing():
    """Every receiver hears only overlapping frames: no attempt, no
    draw, the RNG untouched."""
    topology = Topology.chain(3)
    scenario = Scenario(
        topology=topology, windows=[([(0, 10.0), (2, 40.0)], [0, 1, 2])]
    )
    assert assert_same_delivery(scenario) == [({}, 1)]
    _outcomes, states, work = _run(scenario, _new)
    assert states[-1][1] == np.random.default_rng(0).bit_generator.state
    assert work == {
        "phy.window": 1,
        "phy.heard_pair": 2,
        "phy.collision_group": 1,
    }


def test_tied_starts_collide_at_shared_receivers_only():
    topology = Topology.chain(6)
    # 0 and 2 tie at receiver 1; 3 hears 2 and 4 hears 5 alone.
    transmissions = [(2, 18.0), (5, 18.0), (0, 18.0)]
    scenario = Scenario(
        topology=topology,
        windows=[(transmissions, list(range(6)))],
        packet_error_rate=0.0,
    )
    assert assert_same_delivery(scenario) == [({3: [2], 4: [5]}, 1)]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=0)
def test_unsorted_input_orders_like_a_stable_start_sort(seed):
    """Shuffled transmissions with tied starts: receivers see frames by
    start time, ties in the given order (the draw-order contract)."""
    rng = np.random.default_rng(seed)
    topology = Topology.grid(4, 4)
    senders = rng.permutation(16)[:10]
    starts = rng.integers(0, 4, size=10) * 63.0
    transmissions = [(int(s), float(t)) for s, t in zip(senders, starts)]
    assert_same_delivery(
        Scenario(topology=topology, windows=[(transmissions, list(range(16)))])
    )


# ----------------------------------------------------------------------
# Same-hop snapshot vs the brute-force two-hop sum
# ----------------------------------------------------------------------


def _brute_same_hop(runner: MultiHopRunner) -> List[int]:
    ctx = runner.ctx
    topology = runner.spec.topology
    return [
        sum(
            1
            for other in topology.two_hop_neighbors(node)
            if ctx.is_present(other)
            and ctx.state_of(other).hop == ctx.state_of(node).hop
        )
        for node in range(topology.n)
    ]


def _check_snapshots(spec: MultiHopSpec, leave_at=None, return_at=None):
    """Run ``spec``; after every period's transmission collection, the
    rotation table's counts must equal the brute-force sum taken before
    it. Returns (periods with a hop change, periods with a presence
    change) so callers can assert the run exercised both."""
    runner = MultiHopRunner(spec)
    runner.leave_at.update(leave_at or {})
    runner.return_at.update(return_at or {})
    table = runner.nodes[0].protocol._rotation
    collect = runner._collect_transmissions
    seen = {"hops": None, "present": None, "hop_changes": 0, "churn": 0}

    def checked(period, stalled, partition):
        hops = [runner._state(i).hop for i in range(runner.n)]
        present = [node.present for node in runner.nodes]
        seen["hop_changes"] += seen["hops"] not in (None, hops)
        seen["churn"] += seen["present"] not in (None, present)
        seen["hops"], seen["present"] = hops, present
        want = _brute_same_hop(runner)
        out = collect(period, stalled, partition)
        got = [table.same_hop_count(i, period, runner.ctx) for i in range(runner.n)]
        assert got == want, f"period {period}"
        return out

    runner._collect_transmissions = checked
    runner.run()
    return seen["hop_changes"], seen["churn"]


@pytest.mark.parametrize(
    "topology",
    [
        lambda: Topology.grid(5, 5),
        lambda: Topology.unit_disk(
            20, np.random.default_rng(9), area_m=600.0, radius_m=240.0
        ),
    ],
)
def test_same_hop_snapshot_matches_brute_force_under_churn(topology):
    spec = MultiHopSpec(topology=topology(), seed=5, duration_s=6.0)
    hop_changes, churn = _check_snapshots(
        spec, leave_at={15: [0, 7], 30: [3]}, return_at={25: [7], 40: [0, 3]}
    )
    assert hop_changes > 0 and churn > 0


def test_same_hop_snapshot_matches_brute_force_when_thinned():
    spec = MultiHopSpec(
        topology=Topology.grid(4, 6), seed=2, duration_s=4.0, relay_probability=0.6
    )
    hop_changes, _churn = _check_snapshots(spec, leave_at={10: [0]})
    assert hop_changes > 0


def test_same_hop_snapshot_counts_two_hop_index_entries():
    topology = Topology.grid(4, 4)
    spec = MultiHopSpec(topology=topology, seed=1, duration_s=2.0)
    work = WorkCounters()
    with instrument(counters=work):
        MultiHopRunner(spec).run()
    visits = work.snapshot()["multihop/sstsp/mac.two_hop_visit"]
    entries = sum(len(topology.two_hop_neighbors(i)) for i in range(topology.n))
    assert visits > 0 and visits % entries == 0
