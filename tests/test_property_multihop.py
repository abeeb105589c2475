"""Property tests for the multi-hop extension's topology and invariants."""

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.multihop import MultiHopRunner, MultiHopSpec, Topology


class TestTopologyProperties:
    @given(n=st.integers(1, 30), p=st.floats(0.0, 0.6), seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_queries_match_networkx(self, n, p, seed):
        graph = nx.gnp_random_graph(n, p, seed=seed)
        topology = Topology(n, graph.edges())
        assert topology.edges() == list(graph.edges())
        for root in range(n):
            assert topology.hop_distances(root) == dict(
                nx.single_source_shortest_path_length(graph, root)
            )
        assert topology.is_connected() == nx.is_connected(graph)
        if nx.is_connected(graph):
            assert topology.diameter() == nx.diameter(graph)
        else:
            with pytest.raises(ValueError):
                topology.diameter()

    @given(n=st.integers(2, 40), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_two_hop_neighbors_contains_one_hop(self, n, seed):
        graph = nx.gnp_random_graph(n, 0.3, seed=seed)
        topology = Topology(n, graph.edges())
        for node in range(n):
            one_hop = set(topology.neighbors(node))
            two_hop = set(topology.two_hop_neighbors(node))
            assert one_hop <= two_hop
            assert node not in two_hop

    @given(n=st.integers(2, 30), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_hop_distances_triangle(self, n, seed):
        graph = nx.gnp_random_graph(n, 0.4, seed=seed)
        assume(nx.is_connected(graph))
        topology = Topology(n, graph.edges())
        hops = topology.hop_distances(0)
        for u, v in topology.edges():
            if u in hops and v in hops:
                assert abs(hops[u] - hops[v]) <= 1

    @given(rows=st.integers(2, 6), cols=st.integers(2, 6))
    @settings(max_examples=20)
    def test_grid_always_connected(self, rows, cols):
        topology = Topology.grid(rows, cols)
        assert topology.is_connected()
        assert topology.n == rows * cols
        assert topology.diameter() == (rows - 1) + (cols - 1)


class TestRunInvariants:
    @given(n=st.integers(3, 10), seed=st.integers(0, 50))
    @settings(max_examples=8, deadline=None)
    def test_chain_runs_never_crash_and_hops_consistent(self, n, seed):
        spec = MultiHopSpec(
            topology=Topology.chain(n), seed=seed, duration_s=8.0
        )
        runner = MultiHopRunner(spec)
        result = runner.run()
        # believed hops never beat BFS distance (the physical lower bound)
        true_hops = spec.topology.hop_distances(result.root)
        for i, state in enumerate(runner.nodes):
            if state.hop is not None and i in true_hops:
                assert state.hop >= true_hops[i]
        # adjusted clocks stay monotone everywhere
        for state in runner.nodes:
            assert state.clock.is_monotonic(0.0, 8.0e6, samples=64)
