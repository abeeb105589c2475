"""Radio topologies for the multi-hop extension.

A :class:`Topology` is an undirected reachability graph: an edge means
the two stations decode each other's transmissions. Builders cover the
shapes multi-hop sync papers evaluate on: random unit-disk deployments,
regular grids, and worst-case chains.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import networkx as nx
import numpy as np


class Topology:
    """Undirected connectivity graph over station ids ``0..n-1``."""

    def __init__(self, graph: nx.Graph) -> None:
        expected = set(range(graph.number_of_nodes()))
        if set(graph.nodes) != expected:
            raise ValueError("topology nodes must be 0..n-1")
        self._graph = graph
        self._neighbors: List[Tuple[int, ...]] = [
            tuple(sorted(graph.neighbors(i))) for i in range(len(expected))
        ]
        # Query caches, filled on first use (construction stays cheap).
        self._hop_cache: Dict[int, Dict[int, int]] = {}
        self._two_hop_cache: Dict[int, Tuple[int, ...]] = {}
        self._two_hop_index: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------

    @classmethod
    def full_mesh(cls, n: int) -> "Topology":
        """Single-hop IBSS as a degenerate case (every pair connected)."""
        return cls(nx.complete_graph(n))

    @classmethod
    def chain(cls, n: int) -> "Topology":
        """Worst-case diameter: a line of ``n`` stations."""
        return cls(nx.path_graph(n))

    @classmethod
    def grid(cls, rows: int, cols: int, diagonal: bool = False) -> "Topology":
        """``rows x cols`` lattice; ``diagonal`` adds 8-connectivity."""
        graph = nx.Graph()
        def idx(r, c):
            return r * cols + c
        for r in range(rows):
            for c in range(cols):
                graph.add_node(idx(r, c))
        for r in range(rows):
            for c in range(cols):
                if c + 1 < cols:
                    graph.add_edge(idx(r, c), idx(r, c + 1))
                if r + 1 < rows:
                    graph.add_edge(idx(r, c), idx(r + 1, c))
                if diagonal and r + 1 < rows and c + 1 < cols:
                    graph.add_edge(idx(r, c), idx(r + 1, c + 1))
                if diagonal and r + 1 < rows and c - 1 >= 0:
                    graph.add_edge(idx(r, c), idx(r + 1, c - 1))
        return cls(graph)

    @classmethod
    def unit_disk(
        cls,
        n: int,
        rng: np.random.Generator,
        area_m: float = 1_000.0,
        radius_m: float = 250.0,
        require_connected: bool = True,
        max_attempts: int = 50,
    ) -> "Topology":
        """Random deployment: ``n`` stations uniform in an ``area_m``
        square, connected when within ``radius_m``. Redraws until the
        graph is connected (if required)."""
        for _ in range(max_attempts):
            positions = rng.uniform(0.0, area_m, size=(n, 2))
            graph = nx.Graph()
            graph.add_nodes_from(range(n))
            for i in range(n):
                deltas = positions[i + 1 :] - positions[i]
                dists = np.hypot(deltas[:, 0], deltas[:, 1])
                for j in np.flatnonzero(dists <= radius_m):
                    graph.add_edge(i, int(i + 1 + j))
            if not require_connected or nx.is_connected(graph):
                topology = cls(graph)
                topology.positions = positions  # type: ignore[attr-defined]
                return topology
        raise RuntimeError(
            f"no connected unit-disk deployment found in {max_attempts} draws"
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._neighbors)

    def neighbors(self, node: int) -> Tuple[int, ...]:
        """Stations within radio range of ``node`` (sorted)."""
        return self._neighbors[node]

    def degree(self, node: int) -> int:
        """Number of radio neighbours of ``node``."""
        return len(self._neighbors[node])

    def is_complete(self) -> bool:
        """Whether every pair of stations is connected (the degenerate
        single-hop case: the multi-hop runner then delegates to the
        reference IBSS lane)."""
        return all(
            len(self._neighbors[i]) == self.n - 1 for i in range(self.n)
        )

    def is_connected(self) -> bool:
        """Whether every station can reach every other."""
        return nx.is_connected(self._graph)

    def diameter(self) -> int:
        """Longest shortest-path hop count in the graph."""
        return nx.diameter(self._graph)

    def hop_distances(self, root: int) -> Dict[int, int]:
        """BFS hop distance from ``root`` to every reachable station.

        Cached per root; every call returns a fresh dict, so a caller
        mutating its copy cannot corrupt later calls."""
        cached = self._hop_cache.get(root)
        if cached is None:
            cached = dict(nx.single_source_shortest_path_length(self._graph, root))
            self._hop_cache[root] = cached
        return dict(cached)

    def two_hop_neighbors(self, node: int) -> Tuple[int, ...]:
        """Stations within two hops (excluding ``node``): the interference
        domain for hidden-terminal scheduling. Cached per topology."""
        cached = self._two_hop_cache.get(node)
        if cached is None:
            reach = set(self._neighbors[node])
            for neighbor in self._neighbors[node]:
                reach.update(self._neighbors[neighbor])
            reach.discard(node)
            cached = tuple(sorted(reach))
            self._two_hop_cache[node] = cached
        return cached

    def two_hop_index(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every ``(node, other)`` two-hop pair as two parallel int arrays,
        node-major and ``other`` ascending (the flattened
        :meth:`two_hop_neighbors` lists). Built on first use."""
        if self._two_hop_index is None:
            lists = [self.two_hop_neighbors(node) for node in range(self.n)]
            nodes = np.repeat(
                np.arange(self.n, dtype=np.intp),
                [len(others) for others in lists],
            )
            others = np.array(
                [other for group in lists for other in group], dtype=np.intp
            )
            self._two_hop_index = (nodes, others)
        return self._two_hop_index

    def edges(self) -> Iterable[Tuple[int, int]]:
        """Iterate over the radio links."""
        return self._graph.edges()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Topology(n={self.n}, edges={self._graph.number_of_edges()}, "
            f"connected={self.is_connected()})"
        )
