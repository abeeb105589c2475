"""Radio topologies for the multi-hop extension.

A :class:`Topology` is an undirected reachability graph: an edge means
the two stations decode each other's transmissions. Builders cover the
shapes multi-hop sync papers evaluate on: random unit-disk deployments,
regular grids, and worst-case chains.
"""

from __future__ import annotations

from itertools import combinations
from numbers import Integral
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np


class Topology:
    """Undirected connectivity graph over station ids ``0..n-1``, given
    as ``n`` and an iterable of ``(u, v)`` links (duplicates merge)."""

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]]) -> None:
        if n < 0:
            raise ValueError("a topology needs n >= 0 stations")
        adjacency: List[Set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v or not all(
                isinstance(node, Integral) and 0 <= node < n for node in (u, v)
            ):
                raise ValueError(
                    f"link {(u, v)!r} must join two distinct stations in 0..n-1"
                )
            adjacency[u].add(int(v))
            adjacency[v].add(int(u))
        #: The one adjacency: sorted neighbour tuples, indexed by station.
        self._neighbors: List[Tuple[int, ...]] = [
            tuple(sorted(row)) for row in adjacency
        ]
        # Query caches, filled on first use (construction stays cheap).
        self._hop_cache: Dict[int, Dict[int, int]] = {}
        self._hop_arrays: Dict[int, np.ndarray] = {}
        self._neighbor_table: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._two_hop_cache: Dict[int, Tuple[int, ...]] = {}
        self._two_hop_index: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------

    @classmethod
    def full_mesh(cls, n: int) -> "Topology":
        """Single-hop IBSS as a degenerate case (every pair connected)."""
        return cls(n, combinations(range(n), 2))

    @classmethod
    def chain(cls, n: int) -> "Topology":
        """Worst-case diameter: a line of ``n`` stations."""
        return cls(n, ((i, i + 1) for i in range(n - 1)))

    @classmethod
    def grid(cls, rows: int, cols: int, diagonal: bool = False) -> "Topology":
        """``rows x cols`` lattice; ``diagonal`` adds 8-connectivity."""
        edges: List[Tuple[int, int]] = []
        for r in range(rows):
            for c in range(cols):
                node = r * cols + c
                if c + 1 < cols:
                    edges.append((node, node + 1))
                if r + 1 < rows:
                    edges.append((node, node + cols))
                if diagonal and r + 1 < rows and c + 1 < cols:
                    edges.append((node, node + cols + 1))
                if diagonal and r + 1 < rows and c - 1 >= 0:
                    edges.append((node, node + cols - 1))
        return cls(rows * cols, edges)

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
            edges: List[Tuple[int, int]] = []
            for i in range(n):
                deltas = positions[i + 1 :] - positions[i]
                dists = np.hypot(deltas[:, 0], deltas[:, 1])
                for j in np.flatnonzero(dists <= radius_m):
                    edges.append((i, int(i + 1 + j)))
            topology = cls(n, edges)
            if not require_connected or topology.is_connected():
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
        return self.n > 0 and len(self._bfs(0)) == self.n

    def diameter(self) -> int:
        """Longest shortest-path hop count in the graph."""
        if not self.is_connected():
            raise ValueError("a disconnected topology has no finite diameter")
        return max(max(self._bfs(root).values()) for root in range(self.n))

    def _bfs(self, root: int) -> Dict[int, int]:
        """Hop distance from ``root`` to every reachable station, in BFS
        order (uncached)."""
        if not 0 <= root < self.n:
            raise ValueError(f"root {root} is not a station of this topology")
        hops = {root: 0}
        frontier = [root]
        depth = 0
        while frontier:
            depth += 1
            reached = []
            for node in frontier:
                for neighbor in self._neighbors[node]:
                    if neighbor not in hops:
                        hops[neighbor] = depth
                        reached.append(neighbor)
            frontier = reached
        return hops

    def hop_distances(self, root: int) -> Dict[int, int]:
        """BFS hop distance from ``root`` to every reachable station.

        Cached per root; every call returns a fresh dict, so a caller
        mutating its copy cannot corrupt later calls."""
        cached = self._hop_cache.get(root)
        if cached is None:
            cached = self._bfs(root)
            self._hop_cache[root] = cached
        return dict(cached)

    def hop_array(self, root: int) -> np.ndarray:
        """:meth:`hop_distances` as an int array indexed by station id
        (-1 where ``root`` cannot be reached). Cached per root and shared:
        read-only."""
        cached = self._hop_arrays.get(root)
        if cached is None:
            cached = np.full(self.n, -1, dtype=np.intp)
            hops = self.hop_distances(root)
            cached[list(hops)] = list(hops.values())
            cached.flags.writeable = False
            self._hop_arrays[root] = cached
        return cached

    def neighbor_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """The neighbour lists as one padded int matrix plus degrees:
        row ``i`` holds :meth:`neighbors` of ``i`` followed by the
        sentinel ``n`` up to the maximum degree, so gathering the rows of
        any station set is one indexing operation. Built on first use;
        shared read-only arrays."""
        if self._neighbor_table is None:
            degree = np.array([len(row) for row in self._neighbors], dtype=np.intp)
            width = int(degree.max()) if self.n else 0
            rows = np.full((self.n, width), self.n, dtype=np.intp)
            for node, row in enumerate(self._neighbors):
                rows[node, : len(row)] = row
            for array in (rows, degree):
                array.flags.writeable = False
            self._neighbor_table = (rows, degree)
        return self._neighbor_table

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

    def edges(self) -> List[Tuple[int, int]]:
        """The radio links as ``(u, v)`` pairs with ``u < v``, sorted."""
        return [
            (u, v)
            for u, row in enumerate(self._neighbors)
            for v in row
            if u < v
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Topology(n={self.n}, edges={len(self.edges())}, "
            f"connected={self.is_connected()})"
        )
