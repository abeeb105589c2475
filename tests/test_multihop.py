"""Tests for the multi-hop extension (topology + runner)."""

import numpy as np
import pytest

from repro.multihop import MultiHopRunner, MultiHopSpec, Topology
from repro.multihop.runner import run_multihop
from repro.sim.units import S


class TestTopology:
    def test_chain(self):
        topo = Topology.chain(5)
        assert topo.n == 5
        assert topo.neighbors(0) == (1,)
        assert topo.neighbors(2) == (1, 3)
        assert topo.diameter() == 4

    def test_grid(self):
        topo = Topology.grid(3, 4)
        assert topo.n == 12
        assert topo.degree(0) == 2  # corner
        assert topo.degree(5) == 4  # interior
        assert topo.is_connected()

    def test_grid_diagonal(self):
        plain = Topology.grid(3, 3)
        diag = Topology.grid(3, 3, diagonal=True)
        assert diag.degree(4) > plain.degree(4)

    def test_full_mesh(self):
        topo = Topology.full_mesh(6)
        assert topo.degree(0) == 5
        assert topo.diameter() == 1

    def test_unit_disk_connected(self, rng):
        topo = Topology.unit_disk(30, rng, area_m=800.0, radius_m=300.0)
        assert topo.is_connected()
        assert topo.n == 30

    def test_unit_disk_gives_up(self, rng):
        with pytest.raises(RuntimeError):
            Topology.unit_disk(
                50, rng, area_m=100_000.0, radius_m=10.0, max_attempts=3
            )

    def test_hop_distances(self):
        topo = Topology.chain(5)
        hops = topo.hop_distances(0)
        assert hops == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_hop_distances_copy_cannot_corrupt_the_cache(self):
        topo = Topology.grid(3, 3)
        first = topo.hop_distances(4)
        want = dict(first)
        first[4] = 99
        first.pop(0)
        first[100] = 1
        again = topo.hop_distances(4)
        assert again == want
        assert again is not topo.hop_distances(4)

    def test_queries_build_no_index_at_construction(self):
        topo = Topology.grid(4, 4)
        assert topo._two_hop_index is None and topo._neighbor_table is None
        assert not topo._two_hop_cache and not topo._hop_cache
        assert not topo._hop_arrays

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Topology.grid(3, 4, diagonal=True),
            lambda: Topology.chain(1),
            lambda: Topology.unit_disk(
                15, np.random.default_rng(2), radius_m=200.0, require_connected=False
            ),
        ],
    )
    def test_neighbor_table_pads_each_row_with_the_sentinel(self, build):
        topo = build()
        rows, degree = topo.neighbor_table()
        assert rows.shape == (topo.n, max(degree.max(), 0))
        for node in range(topo.n):
            assert degree[node] == topo.degree(node)
            assert tuple(rows[node, : degree[node]]) == topo.neighbors(node)
            assert (rows[node, degree[node] :] == topo.n).all()
        assert topo.neighbor_table() is topo.neighbor_table()
        assert not rows.flags.writeable

    def test_hop_array_matches_hop_distances(self):
        topo = Topology(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
        hops = topo.hop_array(1)
        assert hops.tolist() == [1, 0, 1, 2, -1, -1]
        assert topo.hop_array(1) is hops and not hops.flags.writeable

    def test_two_hop_index_flattens_two_hop_neighbors(self):
        topo = Topology.grid(4, 5, diagonal=True)
        nodes, others = topo.two_hop_index()
        pairs = list(zip(nodes.tolist(), others.tolist()))
        assert pairs == [
            (node, other)
            for node in range(topo.n)
            for other in topo.two_hop_neighbors(node)
        ]

    def test_node_labels_validated(self):
        for edges in ([("a", "b")], [(0, 3)], [(-1, 0)], [(1, 1)]):
            with pytest.raises(ValueError):
                Topology(3, edges)

    def test_importing_the_package_leaves_networkx_out(self):
        import subprocess
        import sys

        probe = "import sys, repro.multihop; print('networkx' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"


class TestSpecValidation:
    def test_root_in_topology(self):
        with pytest.raises(ValueError):
            MultiHopSpec(topology=Topology.chain(3), root=5)

    def test_stride_must_exceed_airtime(self):
        with pytest.raises(ValueError):
            MultiHopSpec(topology=Topology.chain(3), hop_stride_slots=7)

    def test_relay_probability_bounds(self):
        with pytest.raises(ValueError):
            MultiHopSpec(topology=Topology.chain(3), relay_probability=0.0)


class TestMultiHopSync:
    def test_chain_synchronizes_all_hops(self):
        spec = MultiHopSpec(topology=Topology.chain(8), seed=3, duration_s=25.0)
        result = run_multihop(spec)
        assert set(result.per_hop_error_us) == set(range(1, 8))
        # every hop well inside a beacon period; near hops at paper accuracy
        assert result.per_hop_error_us[1] < 10.0
        assert all(v < 1_000.0 for v in result.per_hop_error_us.values())

    def test_error_grows_with_hop_distance(self):
        spec = MultiHopSpec(topology=Topology.chain(10), seed=4, duration_s=30.0)
        result = run_multihop(spec)
        errors = [result.per_hop_error_us[h] for h in sorted(result.per_hop_error_us)]
        # monotone-ish growth: far hops strictly worse than near hops
        assert errors[-1] > errors[0]
        assert np.median(errors[5:]) > np.median(errors[:3])

    def test_grid_synchronizes(self):
        spec = MultiHopSpec(topology=Topology.grid(5, 5), seed=3, duration_s=30.0)
        result = run_multihop(spec)
        # near hops at single-hop accuracy; deep hops amplified but bounded
        # well inside a beacon period
        assert all(result.per_hop_error_us[h] < 100.0 for h in range(1, 6))
        assert max(result.per_hop_error_us.values()) < 10_000.0
        assert result.trace.present_counts[-1] == 25

    def test_unit_disk_synchronizes(self, rng):
        topo = Topology.unit_disk(30, rng, area_m=900.0, radius_m=320.0)
        spec = MultiHopSpec(topology=topo, seed=5, duration_s=30.0)
        result = run_multihop(spec)
        assert result.per_hop_error_us[1] < 10.0

    def test_full_mesh_degenerates_to_single_hop(self):
        spec = MultiHopSpec(topology=Topology.full_mesh(12), seed=3, duration_s=20.0)
        result = run_multihop(spec)
        assert set(result.per_hop_error_us) == {1}
        assert result.per_hop_error_us[1] < 10.0

    def test_deterministic(self):
        spec = MultiHopSpec(topology=Topology.chain(6), seed=7, duration_s=10.0)
        a = run_multihop(spec).trace.max_diff_us
        b = run_multihop(spec).trace.max_diff_us
        assert np.array_equal(a, b)

    def test_root_failover(self):
        spec = MultiHopSpec(topology=Topology.grid(3, 3), seed=3, duration_s=30.0)
        runner = MultiHopRunner(spec)
        runner.leave_at[150] = [spec.root]
        result = runner.run()
        assert result.root_changes >= 1
        assert result.root != spec.root
        # re-synchronized around the new root by the end
        tail = result.trace.window(25.0 * S, 30.0 * S)
        assert float(np.median(tail.max_diff_us)) < 500.0

    def test_node_return_reacquires(self):
        spec = MultiHopSpec(topology=Topology.chain(5), seed=3, duration_s=20.0)
        runner = MultiHopRunner(spec)
        runner.leave_at[50] = [3]
        runner.return_at[100] = [3]
        result = runner.run()
        # node 3 away; downstream nodes may transiently detach too
        assert 2 <= result.trace.present_counts.min() <= 4
        assert result.trace.present_counts[-1] == 5
        tail = result.trace.window(15.0 * S, 20.0 * S)
        assert float(tail.max_diff_us.max()) < 500.0

    def test_samples_equal_each_stations_chain_reading(self):
        """The vectorised sample is bit-identical to reading every present
        synchronized station's chain one by one."""
        spec = MultiHopSpec(topology=Topology.grid(4, 4), seed=3, duration_s=5.0)
        runner = MultiHopRunner(spec)
        runner.leave_at[10] = [5]
        runner.return_at[30] = [5]
        record = runner.recorder.record
        seen = []

        def checked(sample_time, values, reference_id):
            want = [
                node.protocol.chain.adjusted_at(sample_time)
                for node in runner.nodes
                if node.present and node.protocol.is_synchronized()
            ]
            assert list(values) == want
            seen.append(len(want))
            record(sample_time, values, reference_id)

        runner.recorder.record = checked
        runner.run()
        assert len(seen) == spec.periods and min(seen) < max(seen) == 16

    @pytest.mark.parametrize("protocol", ["sstsp", "beaconless", "coop"])
    def test_finished_runner_is_freed_by_refcounting(self, protocol):
        import gc
        import weakref

        spec = MultiHopSpec(
            topology=Topology.grid(3, 3), seed=1, duration_s=2.0, protocol=protocol
        )
        gc.collect()
        gc.disable()
        try:
            runner = MultiHopRunner(spec)
            runner.run()
            ref = weakref.ref(runner)
            del runner
            assert ref() is None
        finally:
            gc.enable()

    def test_collisions_counted(self):
        spec = MultiHopSpec(topology=Topology.grid(4, 4), seed=3, duration_s=10.0)
        result = run_multihop(spec)
        assert result.collisions_at_receivers >= 0
        assert result.beacons_sent > 0
